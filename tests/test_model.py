import itertools
import logging
import math
from collections import Counter

import numpy as np
import pytest

import qsup.model as model_module
import qsup.vocab as vocab_module
from qsup.augment import AugmentMode, ImageRecord, exemplar_rows, generate_exemplars
from qsup.errors import DimMismatch, EmptyBatch, NoTrainableExemplars
from qsup.model import (
    FeatureBlock,
    LinearModel,
    TrainConfig,
    build_answer_vocab,
    embed_bow,
    forward,
    l2_normalize,
    loss_and_grad,
    make_feature_block,
    predict,
    predict_batch,
    predict_multiple_choice,
    train,
)
from qsup.qparse import Question, tokenize
from qsup.synth import answer_accuracy, make_pair_dataset, make_separable_dataset
from qsup.vocab import BowVector, Vocabulary, build_vocabulary


def random_model(rng, v=5, d_t=3, d_e=3, d_img=4, answers=("a", "b", "c")):
    return LinearModel(
        embed_target=rng.normal(size=(v, d_t)),
        embed_extra=rng.normal(size=(v, d_e)),
        fc_weights=rng.normal(size=(len(answers), d_img + d_t + d_e)),
        fc_bias=rng.normal(size=len(answers)),
        answer_vocab=answers,
    )


def random_batch(rng, model, size=6):
    v = model.vocab_size
    d_img = model.dims.d_img
    batch = []
    for i in range(size):
        target = {int(k): int(rng.integers(1, 3)) for k in rng.choice(v, 2, replace=False)}
        extra = {} if i % 3 == 0 else {int(k): 1 for k in rng.choice(v, 1)}
        image = l2_normalize(rng.normal(size=d_img))
        label = int(rng.integers(len(model.answer_vocab)))
        batch.append((FeatureBlock(image, BowVector(target, v), BowVector(extra, v)), label))
    return batch


class TestEmbedBow:
    def test_empty_bag_is_zero(self):
        embedding = np.arange(6, dtype=float).reshape(3, 2)
        np.testing.assert_array_equal(embed_bow(BowVector({}, 3), embedding), [0.0, 0.0])

    def test_single_word_is_its_row(self):
        embedding = np.arange(6, dtype=float).reshape(3, 2)
        np.testing.assert_array_equal(embed_bow(BowVector({1: 1}, 3), embedding), embedding[1])

    def test_linearity_against_loop(self):
        rng = np.random.default_rng(1)
        embedding = rng.normal(size=(4, 3))
        bow = BowVector({0: 2, 2: 1, 3: 4}, 4)
        expected = np.zeros(3)
        for pos, count in bow.entries.items():
            for _ in range(count):
                expected += embedding[pos]
        np.testing.assert_allclose(embed_bow(bow, embedding), expected, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            embed_bow(BowVector({0: 1}, 2), np.zeros((3, 2)))


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_zero_preserved(self):
        v = np.zeros(3)
        out = l2_normalize(v)
        np.testing.assert_array_equal(out, v)

    def test_unit_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 10))
            if np.linalg.norm(v) > 1e-9:
                assert abs(np.linalg.norm(l2_normalize(v)) - 1.0) < 1e-6


class TestForward:
    def test_zero_model_is_uniform(self):
        model = LinearModel(
            np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((4, 5)), np.zeros(4),
            ("a", "b", "c", "d"),
        )
        block = FeatureBlock(np.zeros(1), BowVector({0: 1}, 2), BowVector({}, 2))
        np.testing.assert_allclose(forward(model, block), 0.25)

    def test_probability_vector(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        block = random_batch(rng, model, 1)[0][0]
        probs = forward(model, block)
        assert (probs >= 0).all()
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(4)
        model = random_model(rng)
        block = random_batch(rng, model, 1)[0][0]
        before = forward(model, block)
        model.fc_bias += 123.456  # adds a constant to every logit
        after = forward(model, block)
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_hand_softmax(self):
        # logits 0 and ln 3 -> probabilities 0.25 / 0.75
        model = LinearModel(
            np.zeros((1, 1)), np.zeros((1, 1)),
            np.zeros((2, 3)), np.array([0.0, math.log(3)]),
            ("no", "yes"),
        )
        block = FeatureBlock(np.zeros(1), BowVector({}, 1), BowVector({}, 1))
        np.testing.assert_allclose(forward(model, block), [0.25, 0.75], atol=1e-12)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        block = FeatureBlock(np.zeros(3), BowVector({}, 5), BowVector({}, 5))
        with pytest.raises(DimMismatch):
            forward(model, block)


class TestLossAndGrad:
    def test_uniform_model_loss_is_log_n(self):
        model = LinearModel(
            np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((5, 6)), np.zeros(5),
            tuple("abcde"),
        )
        block = FeatureBlock(np.zeros(2), BowVector({0: 1}, 3), BowVector({}, 3))
        loss, _ = loss_and_grad(model, [(block, 2)])
        assert loss == pytest.approx(math.log(5), abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, v=3, d_t=2, d_e=2, d_img=2, answers=("x", "y"))
        batch = random_batch(rng, model, size=5)
        _, grads = loss_and_grad(model, batch)
        h = 1e-5
        for name, param in model.parameters().items():
            analytic = getattr(grads, name)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + h
                up, _ = loss_and_grad(model, batch)
                param[idx] = orig - h
                down, _ = loss_and_grad(model, batch)
                param[idx] = orig
                numeric = (up - down) / (2 * h)
                assert abs(analytic[idx] - numeric) <= 1e-4 * max(
                    abs(analytic[idx]), abs(numeric), 1e-8
                ), f"{name}{idx}"

    def test_batch_duplication_invariance(self):
        rng = np.random.default_rng(13)
        model = random_model(rng)
        batch = random_batch(rng, model, 4)
        loss, grads = loss_and_grad(model, batch)
        loss2, grads2 = loss_and_grad(model, batch + batch)
        assert loss2 == pytest.approx(loss, abs=1e-12)
        for name in ("embed_target", "embed_extra", "fc_weights", "fc_bias"):
            np.testing.assert_allclose(getattr(grads2, name), getattr(grads, name), atol=1e-12)

    def test_empty_batch(self):
        rng = np.random.default_rng(14)
        with pytest.raises(EmptyBatch):
            loss_and_grad(random_model(rng), [])


def separable_setup(n=200, seed=21):
    records, features = make_separable_dataset(n, seed=seed)
    vocab = build_vocabulary([q for r in records for q in r.all_questions])
    exemplars = list(
        itertools.chain.from_iterable(generate_exemplars(r, AugmentMode.PLAIN) for r in records)
    )
    return records, features, vocab, exemplars


class TestTrain:
    def test_same_seed_bitwise_identical(self):
        records, features, vocab, exemplars = separable_setup(60)
        cfg = TrainConfig(learning_rate=0.3, epochs=3, batch_size=8, seed=5,
                          answer_vocab_size=4, weight_init_scale=0.01, embed_dim=6)
        m1 = train(exemplars, features, vocab, cfg)
        m2 = train(exemplars, features, vocab, cfg)
        for name in m1.parameters():
            assert np.array_equal(m1.parameters()[name], m2.parameters()[name])
        assert m1.answer_vocab == m2.answer_vocab

    def test_separable_reaches_high_accuracy(self):
        records, features, vocab, exemplars = separable_setup(200)
        cfg = TrainConfig(learning_rate=0.5, epochs=20, batch_size=32, seed=3,
                          answer_vocab_size=4, weight_init_scale=0.01, embed_dim=16)
        model = train(exemplars, features, vocab, cfg)
        assert answer_accuracy(model, vocab, records, features) >= 0.99

    def test_zero_learning_rate_keeps_init(self):
        records, features, vocab, exemplars = separable_setup(40)
        cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=8, seed=11,
                          answer_vocab_size=4, weight_init_scale=0.05, embed_dim=4)
        model = train(exemplars, features, vocab, cfg)
        rng = np.random.default_rng(11)
        expected = rng.uniform(-0.05, 0.05, (len(vocab), 4))
        np.testing.assert_array_equal(model.embed_target, expected)

    def test_epoch_loss_non_increasing_early(self):
        records, features, vocab, exemplars = separable_setup(200)
        cfg = TrainConfig(learning_rate=0.5, epochs=5, batch_size=32, seed=3,
                          answer_vocab_size=4, weight_init_scale=0.01, embed_dim=16)
        losses = []
        train(exemplars, features, vocab, cfg, on_epoch_end=lambda e, l: losses.append(l))
        assert losses == sorted(losses, reverse=True)

    def test_answer_vocab_most_frequent_with_ties(self):
        assert build_answer_vocab(["b", "a", "b", "c", "a"], 2) == ("a", "b")
        assert build_answer_vocab(["b", "a", "b", "c", "a"], 10) == ("a", "b", "c")

    def test_oov_answers_dropped(self):
        records, features, vocab, exemplars = separable_setup(40)
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=8, seed=0,
                          answer_vocab_size=1, weight_init_scale=0.01, embed_dim=4)
        model = train(exemplars, features, vocab, cfg)
        assert len(model.answer_vocab) == 1

    def test_empty_stream_rejected(self):
        with pytest.raises(NoTrainableExemplars):
            train([], {}, Vocabulary(["a"]), TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(weight_init_scale=-1.0)


class TestPredict:
    def test_absent_equals_empty_extras_bitwise(self):
        rng = np.random.default_rng(31)
        vocab = Vocabulary(["what", "is", "this"])
        model = random_model(rng, v=3, answers=("a", "b"))
        image = rng.normal(size=4)
        question = Question("q", 1, "what is this")
        answer_none, probs_none = predict(model, vocab, image, question, None)
        answer_empty, probs_empty = predict(model, vocab, image, question, [])
        assert answer_none == answer_empty
        assert np.array_equal(probs_none, probs_empty)

    def test_extras_can_flip_the_argmax(self):
        # extra-word "off" pushes probability onto the second answer
        vocab = Vocabulary(["on", "off"])
        model = LinearModel(
            embed_target=np.zeros((2, 1)),
            embed_extra=np.array([[1.0, 0.0], [0.0, 1.0]]),
            # columns: image(1), target(1), extra(2)
            fc_weights=np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
            fc_bias=np.array([0.1, 0.0]),
            answer_vocab=("lamp on", "lamp off"),
        )
        image = np.zeros(1)
        target = Question("t", 1, "unseen words only")
        plain, _ = predict(model, vocab, image, target)
        flipped, _ = predict(model, vocab, image, target, [Question("e", 1, "off")])
        assert plain == "lamp on"
        assert flipped == "lamp off"

    def test_argmax_tie_takes_lowest_index(self):
        model = LinearModel(
            np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((3, 3)), np.zeros(3),
            ("first", "second", "third"),
        )
        vocab = Vocabulary(["x"])
        answer, _ = predict(model, vocab, np.zeros(1), Question("q", 1, "x"))
        assert answer == "first"


class TestPredictMultipleChoice:
    def setup_method(self):
        rng = np.random.default_rng(41)
        self.vocab = Vocabulary(["what", "is"])
        self.model = random_model(rng, v=2, answers=("cat", "dog", "bird"))
        self.image = rng.normal(size=4)
        self.question = Question("q", 1, "what is")

    def test_all_oov_returns_first(self):
        choice = predict_multiple_choice(
            self.model, self.vocab, self.image, self.question, None, ["horse", "zebra"]
        )
        assert choice == "horse"

    def test_single_choice(self):
        assert predict_multiple_choice(
            self.model, self.vocab, self.image, self.question, None, ["dog"]
        ) == "dog"

    def test_matches_restriction_oracle(self):
        _, probs = predict(self.model, self.vocab, self.image, self.question, None)
        choices = ["bird", "zebra", "cat", "dog"]
        index = {a: i for i, a in enumerate(self.model.answer_vocab)}
        scored = [(probs[index[c]], c) for c in choices if c in index]
        expected = max(scored)[1]
        assert predict_multiple_choice(
            self.model, self.vocab, self.image, self.question, None, choices
        ) == expected

    def test_tie_takes_the_earliest_choice(self):
        model = random_model(np.random.default_rng(42), v=2, answers=("cat", "dog", "bird"))
        model.fc_weights[1] = model.fc_weights[0]
        model.fc_bias[1] = model.fc_bias[0]
        _, probs = predict(model, self.vocab, self.image, self.question)
        assert probs[0] == probs[1]
        for choices in (["cat", "dog"], ["dog", "cat"], ["zebra", "dog", "cat"]):
            assert predict_multiple_choice(
                model, self.vocab, self.image, self.question, None, choices
            ) == choices[-2]

    def test_empty_choices_rejected(self):
        with pytest.raises(ValueError):
            predict_multiple_choice(
                self.model, self.vocab, self.image, self.question, None, []
            )


class TestMakeFeatureBlock:
    def test_image_is_normalized(self):
        vocab = Vocabulary(["a"])
        block = make_feature_block(vocab, np.array([3.0, 4.0]), Question("q", 1, "a"))
        np.testing.assert_allclose(block.image, [0.6, 0.8])

    def test_zero_image_stays_zero(self):
        vocab = Vocabulary(["a"])
        block = make_feature_block(vocab, np.zeros(2), Question("q", 1, "a"))
        np.testing.assert_array_equal(block.image, np.zeros(2))


def dense_loss_and_grad(model, batch):
    """The batch-by-vocabulary formulation: dense count matrices over every word."""
    v = model.vocab_size
    d_img, d_t, _, _ = model.dims
    b = len(batch)
    c_t, c_e = np.zeros((b, v)), np.zeros((b, v))
    for row, (block, _) in enumerate(batch):
        for pos, count in block.target_bow.entries.items():
            c_t[row, pos] = count
        for pos, count in block.extra_bow.entries.items():
            c_e[row, pos] = count
    labels = np.array([label for _, label in batch])

    def normalize(raw):
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        safe = norms > 1e-12
        return np.where(safe, raw / np.where(safe, norms, 1.0), raw), norms

    def back_normalize(g, normed, norms):
        safe = norms > 1e-12
        inner = (g * normed).sum(axis=1, keepdims=True)
        return np.where(safe, (g - normed * inner) / np.where(safe, norms, 1.0), g)

    t, t_norms = normalize(c_t @ model.embed_target)
    e, e_norms = normalize(c_e @ model.embed_extra)
    x = np.concatenate([np.array([block.image for block, _ in batch]), t, e], axis=1)
    z = x @ model.fc_weights.T + model.fc_bias
    z -= z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(b), labels].mean()
    dz = np.exp(log_probs)
    dz[np.arange(b), labels] -= 1.0
    dz /= b
    dx = dz @ model.fc_weights
    grads = {
        "embed_target": c_t.T @ back_normalize(dx[:, d_img : d_img + d_t], t, t_norms),
        "embed_extra": c_e.T @ back_normalize(dx[:, d_img + d_t :], e, e_norms),
        "fc_weights": dz.T @ x,
        "fc_bias": dz.sum(axis=0),
    }
    return loss, grads


class TestSparseBatchedPath:
    def test_loss_and_grad_matches_dense_reference(self):
        rng = np.random.default_rng(51)
        model = random_model(rng, v=12, d_t=4, d_e=3, d_img=5, answers=tuple("abcd"))
        for _ in range(5):
            batch = []
            for i in range(10):
                # words drawn from a small pool so rows share them; counts up to 3
                target = {int(k): int(rng.integers(1, 4)) for k in rng.choice(5, 3)}
                extra = {} if i % 3 == 0 else {int(k): int(rng.integers(1, 4))
                                                for k in rng.choice(6, 2)}
                if i == 4:
                    target = {}
                block = FeatureBlock(l2_normalize(rng.normal(size=5)),
                                     BowVector(target, 12), BowVector(extra, 12))
                batch.append((block, int(rng.integers(4))))
            loss, grads = loss_and_grad(model, batch)
            ref_loss, ref_grads = dense_loss_and_grad(model, batch)
            assert abs(loss - ref_loss) <= 1e-12
            for name, ref in ref_grads.items():
                np.testing.assert_allclose(getattr(grads, name), ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("with_extras", [False, True])
    def test_predict_batch_matches_predict(self, with_extras):
        rng = np.random.default_rng(52)
        words = ["what", "is", "the", "red", "blue", "cat", "dog", "left"]
        vocab = Vocabulary(words)
        model = random_model(rng, v=len(words), answers=("a", "b", "c", "d", "e"))
        examples = []
        for i in range(150):
            text = " ".join(rng.choice(words + ["unseen"], size=int(rng.integers(1, 5))))
            extras = None
            if with_extras and i % 4:
                extras = [Question(f"x{i}", i, " ".join(rng.choice(words, size=3)))]
            examples.append((rng.normal(size=4), Question(f"q{i}", i, text), extras))
        batched = list(predict_batch(model, vocab, examples))
        assert len(batched) == len(examples)
        for example, (answer, probs) in zip(examples, batched):
            one_answer, one_probs = predict(model, vocab, *example)
            assert answer == one_answer
            np.testing.assert_allclose(probs, one_probs, rtol=0, atol=1e-12)

    def test_predict_batch_equals_forward_on_feature_blocks(self):
        rng = np.random.default_rng(61)
        words = ["what", "is", "the", "red", "blue", "cat", "dog", "left"]
        vocab = Vocabulary(words)
        model = random_model(rng, v=len(words), answers=("a", "b", "c", "d", "e"))
        # objects shared across examples; s0 and s2 are one text under two objects
        shared = [Question("s0", 0, "what is the red cat"), Question("s1", 0, "is the dog left"),
                  Question("s2", 0, "what is the red cat")]
        examples = []
        for i in range(150):  # three 64-example chunks
            text = " ".join(rng.choice(words + ["unseen"], size=int(rng.integers(1, 5))))
            target = shared[i % 3] if i % 4 == 0 else Question(f"q{i}", i, text)
            own = Question(f"x{i}", i, " ".join(rng.choice(words, size=3)))
            extras = (None, [], [shared[0], shared[2]], [shared[1], own], [own])[i % 5]
            examples.append((rng.normal(size=4), target, extras))
        batched = list(predict_batch(model, vocab, examples))
        assert len(batched) == len(examples)
        for (image, target, extras), (answer, probs) in zip(examples, batched):
            want = forward(model, make_feature_block(vocab, image, target, extras))
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)
            assert answer == model.answer_vocab[int(np.argmax(want))]

    def test_unused_word_keeps_initial_embedding(self):
        records, features, vocab, exemplars = separable_setup(60)
        vocab = Vocabulary(list(vocab.words) + ["never"])
        cfg = TrainConfig(learning_rate=0.5, epochs=3, batch_size=8, seed=9,
                          answer_vocab_size=4, weight_init_scale=0.05, embed_dim=5)
        model = train(exemplars, features, vocab, cfg)
        rng = np.random.default_rng(9)
        init_target = rng.uniform(-0.05, 0.05, (len(vocab), 5))
        init_extra = rng.uniform(-0.05, 0.05, (len(vocab), 5))
        np.testing.assert_array_equal(model.embed_target[-1], init_target[-1])
        np.testing.assert_array_equal(model.embed_extra[-1], init_extra[-1])
        assert not np.array_equal(model.embed_target[:-1], init_target[:-1])

    def test_one_full_batch_epoch_is_one_sgd_step(self):
        records, features = make_pair_dataset(12, seed=23)
        vocab = build_vocabulary([q for r in records for q in r.all_questions])
        exemplars = list(itertools.chain.from_iterable(
            generate_exemplars(r, AugmentMode.POWERSET) for r in records))
        cfg = TrainConfig(learning_rate=0.5, epochs=1, batch_size=len(exemplars), seed=6,
                          answer_vocab_size=4, weight_init_scale=0.05, embed_dim=5)
        model = train(exemplars, features, vocab, cfg)
        rng = np.random.default_rng(6)
        d_img, n_answers = model.dims.d_img, len(model.answer_vocab)
        initial = LinearModel(
            embed_target=rng.uniform(-0.05, 0.05, (len(vocab), 5)),
            embed_extra=rng.uniform(-0.05, 0.05, (len(vocab), 5)),
            fc_weights=rng.uniform(-0.05, 0.05, (n_answers, d_img + 10)),
            fc_bias=rng.uniform(-0.05, 0.05, n_answers),
            answer_vocab=model.answer_vocab,
        )
        index = {a: i for i, a in enumerate(model.answer_vocab)}
        batch = [
            (make_feature_block(vocab, features[e.image_id], e.target_question, e.extra),
             index[e.answer])
            for e in exemplars
        ]
        _, grads = loss_and_grad(initial, batch)
        assert np.abs(grads.embed_extra).max() > 0
        for name, param in initial.parameters().items():
            np.testing.assert_allclose(model.parameters()[name], param - 0.5 * getattr(grads, name),
                                       rtol=0, atol=1e-12)

    def test_epoch_loss_equals_full_batch_loss(self):
        records, features, vocab, exemplars = separable_setup(60)
        cfg = TrainConfig(learning_rate=0.5, epochs=2, batch_size=7, seed=4,
                          answer_vocab_size=4, weight_init_scale=0.01, embed_dim=6)
        losses = []
        model = train(exemplars, features, vocab, cfg, on_epoch_end=lambda e, l: losses.append(l))
        index = {a: i for i, a in enumerate(model.answer_vocab)}
        full = [
            (make_feature_block(vocab, features[e.image_id], e.target_question, e.extra),
             index[e.answer])
            for e in exemplars
        ]
        loss, _ = loss_and_grad(model, full)
        assert len(losses) == 2
        assert abs(losses[-1] - loss) <= 1e-12


def shared_text_setup():
    """Two images whose questions share words, repeat a text under another
    id and, in powerset mode, include exemplars with no extras."""
    images = [
        ImageRecord(1, (Question("q1", 1, "What color is the cat?", "black"),
                        Question("q2", 1, "Is the cat on the mat?", "yes")),
                    (Question("q3", 1, "What color is the cat?"),)),
        ImageRecord(2, (Question("q4", 2, "How many dogs are on the mat?", "2"),),
                    (Question("q5", 2, "Is the dog-house red?"),
                     Question("q6", 2, "is THE dog house red"))),
    ]
    rng = np.random.default_rng(31)
    features = {r.image_id: rng.normal(size=4) for r in images}
    vocab = build_vocabulary([q for r in images for q in r.all_questions])
    exemplars = list(itertools.chain.from_iterable(
        generate_exemplars(r, AugmentMode.POWERSET) for r in images))
    return images, features, vocab, exemplars


def reference_train(exemplars, features, vocab, cfg):
    """``train`` written as SGD steps of ``loss_and_grad`` over per-exemplar
    feature blocks, drawing the initialization and the permutations in the
    same order."""
    answer_vocab = build_answer_vocab((e.answer for e in exemplars), cfg.answer_vocab_size)
    index = {a: i for i, a in enumerate(answer_vocab)}
    batch = [
        (make_feature_block(vocab, l2_normalize(features[e.image_id]), e.target_question,
                            e.extra), index[e.answer])
        for e in exemplars if e.answer in index
    ]
    rng = np.random.default_rng(cfg.seed)
    s, d, v = cfg.weight_init_scale, cfg.embed_dim, len(vocab)
    d_img = batch[0][0].image.shape[0]
    model = LinearModel(
        embed_target=rng.uniform(-s, s, (v, d)),
        embed_extra=rng.uniform(-s, s, (v, d)),
        fc_weights=rng.uniform(-s, s, (len(answer_vocab), d_img + 2 * d)),
        fc_bias=rng.uniform(-s, s, len(answer_vocab)),
        answer_vocab=answer_vocab,
    )
    for _ in range(cfg.epochs):
        order = rng.permutation(len(batch))
        for lo in range(0, len(batch), cfg.batch_size):
            _, grads = loss_and_grad(model, [batch[i] for i in order[lo : lo + cfg.batch_size]])
            for name, param in model.parameters().items():
                param -= cfg.learning_rate * getattr(grads, name)
    return model


class TestQuestionRows:
    def test_train_equals_loss_and_grad_steps_over_feature_blocks(self):
        _, features, vocab, exemplars = shared_text_setup()
        assert any(not e.extra for e in exemplars)
        cfg = TrainConfig(learning_rate=0.5, epochs=2, batch_size=5, seed=8,
                          answer_vocab_size=3, weight_init_scale=0.05, embed_dim=6)
        model = train(exemplars, features, vocab, cfg)
        reference = reference_train(exemplars, features, vocab, cfg)
        assert model.answer_vocab == reference.answer_vocab
        for name, param in reference.parameters().items():
            assert np.array_equal(model.parameters()[name], param), name

    def test_each_distinct_question_text_is_tokenized_once(self, monkeypatch):
        images, features, vocab, exemplars = shared_text_setup()
        texts = {q.text for r in images for q in r.all_questions}
        calls = Counter()

        def counting_tokenize(text):
            calls[text] += 1
            return tokenize(text)

        monkeypatch.setattr(vocab_module, "tokenize", counting_tokenize)
        cfg = TrainConfig(learning_rate=0.5, epochs=2, batch_size=5, seed=8,
                          answer_vocab_size=4, weight_init_scale=0.05, embed_dim=6)
        model = train(exemplars, features, vocab, cfg)
        assert set(calls) == texts
        assert max(calls.values()) == 1

        calls.clear()
        examples = [
            (features[r.image_id], q, [x for x in r.all_questions if x.id != q.id])
            for r in images for q in r.all_questions
        ] * 30  # spans three 64-example chunks
        assert len(list(predict_batch(model, vocab, examples))) == len(examples)
        assert set(calls) == texts
        assert max(calls.values()) == 1


def oov_setup():
    """Images whose answers are yes x2, black and rare: with two answers kept,
    every mode drops the exemplars of image 3, which comes first and has no
    features.  Image 4 has no answered question, and question texts repeat
    within and across images."""
    records = [
        ImageRecord(3, (Question("q7", 3, "Which cat is rare?", "rare"),),
                    (Question("q8", 3, "Is the mat red?"),)),
        ImageRecord(1, (Question("q1", 1, "What color is the cat?", "black"),
                        Question("q2", 1, "Is the cat on the mat?", "yes")),
                    (Question("q3", 1, "What color is the cat?"),)),
        ImageRecord(4, (), (Question("q9", 4, "Is the mat red?"),)),
        ImageRecord(2, (Question("q4", 2, "Is the cat on the mat?", "yes"),),
                    (Question("q5", 2, "Is the dog-house red?"),
                     Question("q6", 2, "is THE dog house red"))),
    ]
    rng = np.random.default_rng(17)
    features = {image_id: rng.normal(size=4) for image_id in (1, 2, 4)}
    vocab = build_vocabulary([q for r in records for q in r.all_questions])
    return records, features, vocab


OOV_CONFIG = TrainConfig(learning_rate=0.5, epochs=2, batch_size=5, seed=8,
                         answer_vocab_size=2, weight_init_scale=0.05, embed_dim=6)


def reference_count_matrix(bags, ptr, rows, idx):
    """(words, counts) of one text block for examples ``idx``, summed with
    ``np.add.at`` over each example's bag rows."""
    lists = [r for i in idx for r in rows[ptr[i] : ptr[i + 1]]]
    owners = [e for e, i in enumerate(idx) for _ in range(ptr[i], ptr[i + 1])]
    slots = [s for r in lists for s in range(bags.ptr[r], bags.ptr[r + 1])]
    slot_owners = [o for r, o in zip(lists, owners) for _ in range(bags.ptr[r], bags.ptr[r + 1])]
    words, cols = np.unique(bags.positions[np.array(slots, np.intp)], return_inverse=True)
    counts = np.zeros((len(idx), len(words)))
    np.add.at(counts, (np.array(slot_owners, np.intp), cols), bags.counts[np.array(slots, np.intp)])
    return words, counts


class TestExemplarRowsTraining:
    @pytest.mark.parametrize("mode", list(AugmentMode))
    def test_rows_train_as_the_exemplar_stream_and_the_reference(self, mode):
        records, features, vocab = oov_setup()
        tokens = {q.text: tokenize(q.text) for r in records for q in r.all_questions}
        losses = {"rows": [], "objects": []}
        from_rows = train(exemplar_rows(records, mode), features, vocab, OOV_CONFIG,
                          lambda e, loss: losses["rows"].append(loss), tokens)
        exemplars = [e for r in records if r.answered for e in generate_exemplars(r, mode)]
        from_objects = train(iter(exemplars), features, vocab, OOV_CONFIG,
                             lambda e, loss: losses["objects"].append(loss))
        reference = reference_train(exemplars, features, vocab, OOV_CONFIG)
        assert from_rows.answer_vocab == reference.answer_vocab == ("yes", "black")
        for name, param in reference.parameters().items():
            assert np.array_equal(from_rows.parameters()[name], param), name
            assert np.array_equal(from_objects.parameters()[name], param), name
        assert losses["rows"] == losses["objects"] and len(losses["rows"]) == 2

    def test_train_logs_generated_kept_and_dropped(self, caplog):
        records, features, vocab = oov_setup()
        with caplog.at_level(logging.INFO, logger="qsup.model"):
            train(exemplar_rows(records, AugmentMode.POWERSET), features, vocab, OOV_CONFIG)
        # image 3 has two questions, images 1 and 2 three: 4 dropped, 8 + 8 + 8 kept
        assert caplog.messages == [
            "exemplars: 28 generated, 24 kept, 4 dropped with out-of-vocabulary answers"]

    @pytest.mark.parametrize("mode", [AugmentMode.PLAIN, AugmentMode.POWERSET])
    @pytest.mark.parametrize("batch_size", [1, 3, 5, 64])
    @pytest.mark.parametrize("window_slots", [1, 100, 1 << 14])
    def test_windowed_batches_equal_the_reference_count_matrices(
            self, mode, batch_size, window_slots, monkeypatch):
        records, features, vocab = oov_setup()
        examples, labels, _ = model_module._index_rows(
            exemplar_rows(records, mode), features, vocab, 2, None)
        monkeypatch.setattr(model_module, "_WINDOW_SLOTS", window_slots)
        order = np.random.default_rng(3).permutation(len(labels))
        batches = list(model_module._batches(examples, order, batch_size))
        starts = range(0, len(order), batch_size)
        assert len(batches) == len(starts)
        for (idx, (images, texts)), lo in zip(batches, starts):
            assert np.array_equal(idx, order[lo : lo + batch_size])
            assert np.array_equal(images, examples.images[examples.image_rows[idx]])
            want_texts = [reference_count_matrix(examples.bags, ptr, rows, idx)
                          for ptr, rows in examples.texts]
            for (words, counts), (want_words, want_counts) in zip(texts, want_texts):
                assert words.dtype == want_words.dtype and np.array_equal(words, want_words)
                assert counts.shape == want_counts.shape
                assert np.array_equal(counts, want_counts)
