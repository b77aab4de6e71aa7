import dataclasses
import itertools
import json
import logging
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import qsup
import qsup.model as model_module
import qsup.vocab as vocab_module
from qsup.augment import AugmentMode, ImageRecord, exemplar_rows, generate_exemplars
from qsup.dataio import load_model, save_model
from qsup.errors import DimMismatch, Diverged, EmptyBatch, NoTrainableExemplars
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
    predict_images,
    predict_multiple_choice,
    train,
)
from qsup.qparse import Question, tokenize
from qsup.synth import answer_accuracy, make_pair_dataset, make_separable_dataset
from qsup.vocab import BowVector, Vocabulary, bow_featurize, build_vocabulary, token_positions


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


def train_logged(caplog, *args):
    """``train``'s model and the mean step loss it logs for each epoch."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="qsup.model"):
        model = train(*args)
    return model, [r.args[2] for r in caplog.records if r.msg.startswith("epoch ")]


def assert_central_differences(model, batch, grads, h=1e-5):
    """Each analytic gradient entry agrees with a central difference of the loss."""
    for name, param in model.parameters().items():
        analytic = getattr(grads, name)
        for idx in np.ndindex(param.shape):
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

    def test_embedding_tables_of_different_row_counts_are_refused(self):
        # a 4-row extra table would fail on word 4 of an extra question with an IndexError
        with pytest.raises(DimMismatch, match="same number of rows"):
            LinearModel(np.zeros((5, 2)), np.zeros((4, 2)), np.zeros((2, 5)), np.zeros(2),
                        ("a", "b"))

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
        assert_central_differences(model, batch, grads)

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

    def test_a_diverging_run_names_its_epoch(self):
        records, features, vocab, exemplars = separable_setup(40)
        cfg = TrainConfig(learning_rate=1e300, epochs=3, batch_size=8, seed=11,
                          answer_vocab_size=4, weight_init_scale=0.05, embed_dim=4)
        with pytest.raises(Diverged, match=r"^training diverged in epoch 1: "):
            train(exemplars, features, vocab, cfg)

    @pytest.mark.parametrize("bias, storable", [
        (3.4e38, True), (-3.4e38, True), (3.5e38, False), (-3.5e38, False),
        (np.inf, False), (np.nan, False)])
    def test_storable_is_the_float32_range(self, bias, storable):
        model = random_model(np.random.default_rng(12))
        model.fc_bias[1] = bias
        assert model.storable() is storable

    def test_zero_learning_rate_keeps_init(self):
        records, features, vocab, exemplars = separable_setup(40)
        cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=8, seed=11,
                          answer_vocab_size=4, weight_init_scale=0.05, embed_dim=4)
        model = train(exemplars, features, vocab, cfg)
        rng = np.random.default_rng(11)
        expected = rng.uniform(-0.05, 0.05, (len(vocab), 4))
        np.testing.assert_array_equal(model.embed_target, expected)

    def test_epoch_loss_non_increasing_early(self, caplog):
        records, features, vocab, exemplars = separable_setup(200)
        cfg = TrainConfig(learning_rate=0.5, epochs=5, batch_size=32, seed=3,
                          answer_vocab_size=4, weight_init_scale=0.01, embed_dim=16)
        _, losses = train_logged(caplog, exemplars, features, vocab, cfg)
        assert len(losses) == 5
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
        # past the float32 range the model file stores, or not finite: refused by name
        for field, value in [("learning_rate", np.nan), ("learning_rate", np.inf),
                             ("learning_rate", 10**400), ("weight_init_scale", 1e39),
                             ("weight_init_scale", np.nan), ("weight_init_scale", np.inf)]:
            with pytest.raises(ValueError, match=f"^{field} must be"):
                TrainConfig(**{field: value})
        TrainConfig(weight_init_scale=float(np.finfo(np.float32).max))
        # one bound for both sizes, clear of numpy's C-long overflow
        for field in ("batch_size", "embed_dim"):
            for value in (0, 2**31, 2**62, 10**400):
                with pytest.raises(ValueError, match=f"^{field} must be in \\[1, 2147483647\\]"):
                    TrainConfig(**{field: value})
        TrainConfig(batch_size=2**31 - 1, embed_dim=2**31 - 1)


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

    def test_predict_equals_forward_on_feature_blocks(self):
        rng = np.random.default_rng(61)
        words = ["what", "is", "the", "red", "blue", "cat", "dog", "left"]
        vocab = Vocabulary(words)
        model = random_model(rng, v=len(words), answers=("a", "b", "c", "d", "e"))
        # objects shared across examples; s0 and s2 are one text under two objects
        shared = [Question("s0", 0, "what is the red cat"), Question("s1", 0, "is the dog left"),
                  Question("s2", 0, "what is the red cat")]
        for i in range(150):
            text = " ".join(rng.choice(words + ["unseen"], size=int(rng.integers(1, 5))))
            target = shared[i % 3] if i % 4 == 0 else Question(f"q{i}", i, text)
            own = Question(f"x{i}", i, " ".join(rng.choice(words, size=3)))
            extras = (None, [], [shared[0], shared[2]], [shared[1], own], [own])[i % 5]
            image = rng.normal(size=4)
            answer, probs = predict(model, vocab, image, target, extras)
            want = forward(model, make_feature_block(vocab, image, target, extras))
            np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)
            assert answer == model.answer_vocab[int(np.argmax(want))]

    @given(st.lists(st.lists(st.sampled_from(["what", "is", "red", "cat", "zebra", "unseen"]),
                             max_size=8), max_size=6))
    @example([[], ["zebra", "unseen"], ["cat", "is", "cat", "cat", "unseen"], []])
    def test_position_bag_rows_count_as_bow_featurize(self, token_lists):
        vocab = Vocabulary(["what", "is", "red", "cat"])
        bags = model_module._bags([token_positions(" ".join(tokens), vocab) for tokens in token_lists])
        assert len(bags.ptr) == len(token_lists) + 1 and bags.ptr[0] == 0
        for r, tokens in enumerate(token_lists):
            positions = bags.positions[bags.ptr[r] : bags.ptr[r + 1]].tolist()
            counts = bags.counts[bags.ptr[r] : bags.ptr[r + 1]].tolist()
            assert positions == sorted(set(positions))
            assert dict(zip(positions, counts)) == bow_featurize(" ".join(tokens), vocab).entries
        from_bows = model_module._bag_rows(
            [bow_featurize(" ".join(tokens), vocab) for tokens in token_lists], len(vocab))
        for got, want in zip(from_bows, bags):
            assert np.array_equal(got, want)

    def test_unused_word_keeps_initial_embedding(self):
        records, features, vocab, exemplars = separable_setup(60)
        vocab = Vocabulary(list(vocab.words) + ["never"])
        cfg = TrainConfig(learning_rate=0.5, epochs=3, batch_size=8, seed=9,
                          answer_vocab_size=4, weight_init_scale=0.05, embed_dim=5)
        model = train(exemplars, features, vocab, cfg)
        rng = np.random.default_rng(9)
        init_target = rng.uniform(-0.05, 0.05, (len(vocab), 5))
        np.testing.assert_array_equal(model.embed_target[-1], init_target[-1])
        assert not np.array_equal(model.embed_target[:-1], init_target[:-1])
        assert model.embed_extra.shape == (len(vocab), 0)  # plain: no extra block

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


class TestPredictImages:
    WORDS = ["what", "is", "the", "red", "blue", "cat", "dog", "left"]

    def reference(self, model, vocab, image, questions, use_extras):
        """Each question's probabilities from the one-example path."""
        return [forward(model, make_feature_block(
            vocab, image, q, [x for x in questions if x is not q] if use_extras else None))
            for q in questions]

    @pytest.mark.parametrize("use_extras", [True, False])
    def test_each_question_matches_the_one_example_reference(self, use_extras):
        rng = np.random.default_rng(81)
        vocab = Vocabulary(self.WORDS)
        model = random_model(rng, v=len(self.WORDS), answers=tuple("abcde"))
        texts = [
            ["what is the red cat"],  # one question
            ["what is the red cat", "zebra unseen", "okapi"],  # the others out of vocabulary
            ["is the dog left", "is the dog left", "what is blue"],  # a text repeated
            [],  # no question: no answer
            ["red red red dog", "the cat", "", "blue left dog is"],
        ]
        groups = [(rng.normal(size=4), [Question(f"q{i}_{j}", i, t) for j, t in enumerate(ts)])
                  for i, ts in enumerate(texts * 30)]  # windows of whole images
        got = list(predict_images(model, vocab, groups, use_extras))
        want = [probs for image, questions in groups
                for probs in self.reference(model, vocab, image, questions, use_extras)]
        assert len(got) == len(want) == sum(len(questions) for _, questions in groups)
        for (answer, probs), ref in zip(got, want):
            np.testing.assert_allclose(probs, ref, rtol=0, atol=1e-12)
            assert answer == model.answer_vocab[int(np.argmax(ref))]

    def test_a_lone_or_out_of_vocabulary_extra_block_is_exactly_zero(self, monkeypatch):
        rng = np.random.default_rng(82)
        vocab = Vocabulary(self.WORDS)
        model = random_model(rng, v=len(self.WORDS), answers=tuple("abcde"))
        image, lone = rng.normal(size=4), Question("q", 1, "what is the red cat")
        others = [Question("o1", 1, "zebra unseen"), Question("o2", 1, "okapi")]
        blocks = []

        def recording(raw):
            blocks.append(raw.copy())
            return normalize(raw)

        normalize = model_module._normalize_rows
        monkeypatch.setattr(model_module, "_normalize_rows", recording)
        (answer, probs), = predict_images(model, vocab, [(image, [lone])], True)
        (_, with_oov), _, _ = predict_images(model, vocab, [(image, [lone, *others])], True)
        assert len(blocks) == 6  # image, target and extra blocks of two windows
        assert not blocks[2].any() and not blocks[5][0].any()
        monkeypatch.undo()
        want_answer, want_probs = predict(model, vocab, image, lone, None)
        assert answer == want_answer and np.array_equal(probs, want_probs)
        np.testing.assert_allclose(with_oov, probs, rtol=0, atol=1e-12)

    def test_extras_index_each_question_row_once(self, monkeypatch):
        # 4 images of k=50 questions: an O(k**2) indexer lists each row k times
        rng = np.random.default_rng(83)
        vocab = Vocabulary(self.WORDS)
        model = random_model(rng, v=len(self.WORDS), answers=tuple("abcde"))
        groups = [(rng.normal(size=4),
                   [Question(f"q{i}_{j}", i, " ".join(rng.choice(self.WORDS + ["unseen"], 5)))
                    for j in range(50)]) for i in range(4)]
        slots = []

        def counting(bags, places, rows, n, batch_size):
            slots.append(int(np.diff(bags.ptr)[rows].sum()))
            return count_matrices(bags, places, rows, n, batch_size)

        count_matrices = model_module._count_matrices
        monkeypatch.setattr(model_module, "_count_matrices", counting)
        got = list(predict_images(model, vocab, groups, True))
        tokens = sum(len(token_positions(q.text, vocab)) for _, qs in groups for q in qs)
        assert 0 < sum(slots) <= 2 * tokens
        monkeypatch.undo()
        image, questions = groups[2]
        for (_, probs), ref in zip(got[100:150], self.reference(model, vocab, image, questions, True)):
            np.testing.assert_allclose(probs, ref, rtol=0, atol=1e-12)


    def test_the_vocabulary_size_is_checked_before_any_group_is_read(self):
        model = random_model(np.random.default_rng(74), v=5)

        def unread():
            raise AssertionError("a group was read")
            yield

        with pytest.raises(DimMismatch, match=r"vocabulary of 3 words vs 5 embedding rows"):
            next(predict_images(model, Vocabulary(["what", "is", "red"]), unread(), True))

    @pytest.mark.parametrize("use_extras", [True, False])
    def test_each_distinct_text_is_tokenized_once_per_call(self, monkeypatch, use_extras):
        rng = np.random.default_rng(85)
        vocab = Vocabulary(self.WORDS)
        model = random_model(rng, v=len(self.WORDS), answers=tuple("abcde"))
        # texts shared by every group, and so across each window boundary
        shared = ["what is the red cat", "is the dog left", "what is the red cat"]
        groups = [(rng.normal(size=4),
                   [Question(f"q{i}_{j}", i, t) for j, t in enumerate(
                       shared + [" ".join(rng.choice(self.WORDS + ["unseen"], 4)) for _ in "ab"])])
                  for i in range(60)]  # 300 questions: windows of 130, 130 and 40
        texts = {q.text for _, questions in groups for q in questions}
        calls, windows = Counter(), []

        def counting_tokenize(text):
            calls[text] += 1
            return tokenize(text)

        def recording(questions, positions_of):
            questions = list(questions)
            windows.append(len(questions))
            return text_bags(questions, positions_of)

        text_bags = model_module._text_bags
        monkeypatch.setattr(vocab_module, "tokenize", counting_tokenize)
        monkeypatch.setattr(model_module, "_text_bags", recording)
        got = list(predict_images(model, vocab, groups, use_extras))
        assert windows == [130, 130, 40]
        assert set(calls) == texts
        assert max(calls.values()) == 1
        monkeypatch.undo()
        assert len(got) == 300
        for i in (25, 26):  # the last group of the first window and the first of the second
            image, questions = groups[i]
            want = self.reference(model, vocab, image, questions, use_extras)
            for (_, probs), ref in zip(got[5 * i : 5 * i + 5], want):
                np.testing.assert_allclose(probs, ref, rtol=0, atol=1e-12)


class TestOneForwardPass:
    """Training, the one-example API and predict all form their logits in
    ``model._forward``, and training runs it once per SGD step."""

    @pytest.fixture
    def rows(self, monkeypatch):
        """The number of rows of each ``_forward`` call, in call order."""
        rows = []
        real = model_module._forward

        def counting(model, images, raws, offset):
            rows.append(len(images))
            return real(model, images, raws, offset)

        monkeypatch.setattr(model_module, "_forward", counting)
        return rows

    def test_train(self, rows):
        records, features, vocab, exemplars = separable_setup(40)
        cfg = TrainConfig(learning_rate=0.3, epochs=2, batch_size=16, seed=5,
                          answer_vocab_size=1000, weight_init_scale=0.01, embed_dim=4)
        train(exemplars, features, vocab, cfg)
        n = len(exemplars)
        batches = [min(16, n - lo) for lo in range(0, n, 16)]
        assert rows == batches * 2  # the SGD steps only: the epoch loss is theirs

    def test_loss_and_grad_and_forward(self, rows):
        rng = np.random.default_rng(91)
        model = random_model(rng)
        batch = random_batch(rng, model, size=6)
        loss_and_grad(model, batch)
        forward(model, batch[0][0])
        assert rows == [6, 1]

    def test_predict(self, rows):
        rng = np.random.default_rng(92)
        vocab = Vocabulary(TestPredictImages.WORDS)
        model = random_model(rng, v=len(vocab))
        predict(model, vocab, rng.normal(size=4), Question("q", 1, "what is the red cat"),
                [Question("x", 1, "is the dog left")])
        assert rows == [2]  # the group [target, extra], in one pass

    @pytest.mark.parametrize("use_extras", [True, False])
    def test_predict_images_calls_it_once_per_pass(self, rows, use_extras):
        rng = np.random.default_rng(93)
        words = TestPredictImages.WORDS
        vocab = Vocabulary(words)
        model = random_model(rng, v=len(words))
        groups = [(rng.normal(size=4), [Question(f"q{i}_{j}", i, " ".join(rng.choice(words, 4)))
                                        for j in range(50)]) for i in range(5)]
        assert len(list(predict_images(model, vocab, groups, use_extras))) == 250
        # windows of whole images, 150 and 100 questions, in passes of 64
        assert model_module._PREDICT_PASS == 64
        assert rows == [64, 64, 22, 64, 36]

    def test_predict_without_extras_ignores_the_extra_embedding(self):
        rng = np.random.default_rng(94)
        words = TestPredictImages.WORDS
        vocab = Vocabulary(words)
        model = random_model(rng, v=len(words), answers=tuple("abcde"))
        groups = [(rng.normal(size=4), [Question(f"q{i}_{j}", i, " ".join(rng.choice(words, 3)))
                                        for j in range(3)]) for i in range(30)]

        def probs(use_extras):
            return np.array([p for _, p in predict_images(model, vocab, groups, use_extras)])

        plain, extras = probs(False), probs(True)
        model.embed_extra = rng.normal(size=model.embed_extra.shape)
        assert np.array_equal(probs(False), plain)
        assert not np.array_equal(probs(True), extras)  # the extras do read it


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
    same order: the model and each epoch's mean step loss."""
    answer_vocab = build_answer_vocab((e.answer for e in exemplars), cfg.answer_vocab_size)
    index = {a: i for i, a in enumerate(answer_vocab)}
    kept = [e for e in exemplars if e.answer in index]
    batch = [
        (make_feature_block(vocab, features[e.image_id], e.target_question,
                            e.extra), index[e.answer])
        for e in kept
    ]
    rng = np.random.default_rng(cfg.seed)
    s, d, v = cfg.weight_init_scale, cfg.embed_dim, len(vocab)
    d_e = d if any(e.extra for e in kept) else 0  # an extra block only if something trains it
    d_img = batch[0][0].image.shape[0]
    model = LinearModel(
        embed_target=rng.uniform(-s, s, (v, d)),
        embed_extra=rng.uniform(-s, s, (v, d_e)),
        fc_weights=rng.uniform(-s, s, (len(answer_vocab), d_img + d + d_e)),
        fc_bias=rng.uniform(-s, s, len(answer_vocab)),
        answer_vocab=answer_vocab,
    )
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(batch))
        total = 0.0
        for lo in range(0, len(batch), cfg.batch_size):
            step = [batch[i] for i in order[lo : lo + cfg.batch_size]]
            loss, grads = loss_and_grad(model, step)
            total += loss * len(step)
            for name, param in model.parameters().items():
                param -= cfg.learning_rate * getattr(grads, name)
        losses.append(total / len(batch))
    return model, losses


class TestLoadedModel:
    """A loaded model keeps its embedding tables as the stored float32; every
    product must see the doubles a float64 copy of its arrays gives."""

    def load(self, tmp_path, model):
        save_model(model, tmp_path / "m.qsmd")
        loaded = load_model(tmp_path / "m.qsmd")
        assert loaded.embed_target.dtype == loaded.embed_extra.dtype == np.float32
        params = [param.astype(np.float64) for param in loaded.parameters().values()]
        return loaded, LinearModel(*params, loaded.answer_vocab)

    def test_loss_and_grad_is_the_float64_copys_and_passes_the_gradient_check(self, tmp_path):
        rng = np.random.default_rng(17)
        loaded, copy = self.load(tmp_path, random_model(rng))
        batch = random_batch(rng, loaded, size=8)
        loss, grads = loss_and_grad(loaded, batch)
        want_loss, want = loss_and_grad(copy, batch)
        assert loss == want_loss
        for name in ("embed_target", "embed_extra", "fc_weights", "fc_bias"):
            got = getattr(grads, name)
            assert got.dtype == np.float64 and np.array_equal(got, getattr(want, name)), name
        # gate 03's central differences, stepped on the float64 copy
        h = 1e-5
        for name, param in copy.parameters().items():
            analytic = getattr(grads, name)
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + h
                up, _ = loss_and_grad(copy, batch)
                param[idx] = orig - h
                down, _ = loss_and_grad(copy, batch)
                param[idx] = orig
                numeric = (up - down) / (2 * h)
                rel = abs(analytic[idx] - numeric) / max(abs(analytic[idx]), abs(numeric), 1e-8)
                assert rel < 1e-4, f"{name}{idx}: rel err {rel:.2e}"

    @pytest.mark.parametrize("use_extras", [True, False])
    def test_predict_is_the_float64_copys_bit_for_bit(self, tmp_path, use_extras):
        rng = np.random.default_rng(84)
        words = TestPredictImages.WORDS
        vocab = Vocabulary(words)
        loaded, copy = self.load(tmp_path, random_model(rng, v=len(words), answers=tuple("abcde")))
        groups = [(rng.normal(size=4),
                   [Question(f"q{i}_{j}", i, " ".join(rng.choice(words + ["unseen"], 4)))
                    for j in range(int(rng.integers(1, 6)))]) for i in range(100)]
        got = list(predict_images(loaded, vocab, groups, use_extras))
        want = list(predict_images(copy, vocab, groups, use_extras))
        assert [answer for answer, _ in got] == [answer for answer, _ in want]
        assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(got, want))
        for image, questions in groups[:20]:
            extras = questions[1:] if use_extras else None
            answer, probs = predict(loaded, vocab, image, questions[0], extras)
            want_answer, want_probs = predict(copy, vocab, image, questions[0], extras)
            assert answer == want_answer and np.array_equal(probs, want_probs)


class TestQuestionRows:
    def test_train_equals_loss_and_grad_steps_over_feature_blocks(self):
        _, features, vocab, exemplars = shared_text_setup()
        assert any(not e.extra for e in exemplars)
        cfg = TrainConfig(learning_rate=0.5, epochs=2, batch_size=5, seed=8,
                          answer_vocab_size=3, weight_init_scale=0.05, embed_dim=6)
        model = train(exemplars, features, vocab, cfg)
        reference, _ = reference_train(exemplars, features, vocab, cfg)
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
        # 180 questions: windows of 129 and 51, both holding every text
        groups = [(features[r.image_id], list(r.all_questions)) for r in images] * 30
        assert len(list(predict_images(model, vocab, groups, True))) == 180
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
    def test_rows_train_as_the_exemplar_stream_and_the_reference(self, mode, caplog):
        records, features, vocab = oov_setup()
        from_rows, row_losses = train_logged(
            caplog, exemplar_rows(records, mode), features, vocab, OOV_CONFIG)
        exemplars = [e for r in records if r.answered for e in generate_exemplars(r, mode)]
        from_objects, object_losses = train_logged(
            caplog, iter(exemplars), features, vocab, OOV_CONFIG)
        reference, _ = reference_train(exemplars, features, vocab, OOV_CONFIG)
        assert from_rows.answer_vocab == reference.answer_vocab == ("yes", "black")
        for name, param in reference.parameters().items():
            assert np.array_equal(from_rows.parameters()[name], param), name
            assert np.array_equal(from_objects.parameters()[name], param), name
        assert row_losses == object_losses and len(row_losses) == 2

    @pytest.mark.parametrize("mode", list(AugmentMode))
    def test_logged_losses_are_the_references_mean_step_losses(self, mode, caplog):
        records, features, vocab = oov_setup()
        _, losses = train_logged(caplog, exemplar_rows(records, mode), features, vocab, OOV_CONFIG)
        exemplars = [e for r in records if r.answered for e in generate_exemplars(r, mode)]
        _, want = reference_train(exemplars, features, vocab, OOV_CONFIG)
        assert len(losses) == len(want) == 2
        np.testing.assert_allclose(losses, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", list(AugmentMode))
    def test_exemplar_objects_of_an_image_past_64_bits_train_as_its_rows(self, mode):
        records, features, vocab = oov_setup()
        big = 2**70
        records = [ImageRecord(big if r.image_id == 2 else r.image_id, r.answered, r.unanswered)
                   for r in records]
        features[big] = features.pop(2)
        stream = itertools.chain.from_iterable(generate_exemplars(r, mode)
                                               for r in records if r.answered)
        from_objects = train(stream, features, vocab, OOV_CONFIG)
        from_rows = train(exemplar_rows(records, mode), features, vocab, OOV_CONFIG)
        for name, param in from_rows.parameters().items():
            assert np.array_equal(from_objects.parameters()[name], param), name

    def test_train_logs_generated_kept_and_dropped(self, caplog):
        records, features, vocab = oov_setup()
        with caplog.at_level(logging.INFO, logger="qsup.model"):
            train(exemplar_rows(records, AugmentMode.POWERSET), features, vocab, OOV_CONFIG)
        # image 3 has two questions, images 1 and 2 three: 4 dropped, 8 + 8 + 8 kept
        assert caplog.messages[0] == (
            "exemplars: 28 generated, 24 kept, 4 dropped with out-of-vocabulary answers")
        losses = [r.args[2] for r in caplog.records[1:]]
        assert len(losses) == 2
        assert caplog.messages[1:] == [f"epoch {k} of 2: mean step loss {loss:f}"
                                       for k, loss in enumerate(losses, 1)]

    @pytest.mark.parametrize("mode", list(AugmentMode))
    @pytest.mark.parametrize("batch_size", [1, 3, 5, 64])
    @pytest.mark.parametrize("window_slots", [1, 100, 1 << 14])
    def test_windowed_batches_equal_the_reference_count_matrices(
            self, mode, batch_size, window_slots, monkeypatch):
        records, features, vocab = oov_setup()
        examples, n, labels, answer_vocab = model_module._index_units(
            exemplar_rows(records, mode), features, vocab, 2)
        # the reference: the kept exemplars as CSR lists of bag rows, one per distinct text
        kept = [e for r in records if r.answered for e in generate_exemplars(r, mode)
                if e.answer in answer_vocab]
        assert n == len(kept) and len(kept) < sum(1 for r in records if r.answered
                                                  for _ in generate_exemplars(r, mode))
        texts = list(dict.fromkeys(q.text for r in records for q in r.all_questions))
        bags = model_module._bags([token_positions(text, vocab) for text in texts])
        extra_ptr = np.cumsum([0] + [len(e.extra) for e in kept])
        blocks = [(np.arange(n + 1), np.array([texts.index(e.target_question.text) for e in kept])),
                  (extra_ptr, np.array([texts.index(q.text) for e in kept for q in e.extra], np.intp))]
        monkeypatch.setattr(model_module, "_WINDOW_SLOTS", window_slots)
        order = np.random.default_rng(3).permutation(n)
        batches = list(model_module._batches(examples, order, batch_size))
        starts = range(0, n, batch_size)
        assert len(batches) == len(starts)
        for (units, (images, counts)), lo in zip(batches, starts):
            idx = order[lo : lo + batch_size]
            assert [answer_vocab[k] for k in labels[units]] == [kept[i].answer for i in idx]
            assert np.array_equal(images, l2_normalize(np.array([features[kept[i].image_id]
                                                                 for i in idx])))
            want_texts = [reference_count_matrix(bags, ptr, rows, idx) for ptr, rows in blocks]
            for (words, got), (want_words, want_counts) in zip(counts, want_texts):
                assert words.dtype == want_words.dtype and np.array_equal(words, want_words)
                assert got.shape == want_counts.shape
                assert np.array_equal(got, want_counts)


def one_question_setup():
    """oov_setup's answered questions, one image each (yes x2, black), after
    image 3 (rare, and a second question).  Image 3 is given features:
    concat_only drops it with its rare answer, but its four powerset rows
    keep it."""
    records, features, vocab = oov_setup()
    (q1, q2), q4 = records[1].answered, records[3].answered[0]
    records = [records[0], ImageRecord(1, (q1,)), ImageRecord(2, (q4,)),
               ImageRecord(4, (dataclasses.replace(q2, image_id=4),))]
    return records, {**features, 3: features[1]}, vocab


class TestDroppedExtraBlock:
    """A model has an extra block only if some exemplar it trains on has an
    extra question; otherwise d_e = 0 and the block has no parameters."""

    @pytest.mark.parametrize("setup, mode, width", [
        (oov_setup, AugmentMode.PLAIN, 0), (oov_setup, AugmentMode.POWERSET, 6),
        (oov_setup, AugmentMode.CONCAT_ONLY, 6), (oov_setup, AugmentMode.POWERSET_NO_EMPTY, 6),
        (one_question_setup, AugmentMode.CONCAT_ONLY, 0),
        # a powerset mask can select the target itself
        (one_question_setup, AugmentMode.POWERSET, 6)])
    def test_a_model_has_an_extra_block_iff_an_exemplar_has_an_extra_question(
            self, setup, mode, width):
        records, features, vocab = setup()
        exemplars = [e for r in records if r.answered for e in generate_exemplars(r, mode)]
        # image 3 has extras in every mode but plain; only the kept exemplars count
        assert any(e.extra for e in exemplars) == (mode is not AugmentMode.PLAIN)
        for source in (exemplar_rows(records, mode), iter(exemplars)):
            model = train(source, features, vocab, OOV_CONFIG)
            kept = [e for e in exemplars if e.answer in model.answer_vocab]
            assert any(e.extra for e in kept) == bool(width)
            assert model.embed_extra.shape == (len(vocab), width)
            assert model.dims == (4, 6, width, 2)

    @pytest.mark.parametrize("mode, has_extras", [
        (AugmentMode.PLAIN, {False}), (AugmentMode.POWERSET, {False, True}),
        (AugmentMode.CONCAT_ONLY, {True}), (AugmentMode.POWERSET_NO_EMPTY, {True})])
    def test_single_example_steps_equal_the_reference(self, mode, has_extras):
        records, features, vocab = oov_setup()
        cfg = TrainConfig(learning_rate=0.5, epochs=2, batch_size=1, seed=8,
                          answer_vocab_size=2, weight_init_scale=0.05, embed_dim=6)
        exemplars = [e for r in records if r.answered for e in generate_exemplars(r, mode)]
        # every word is in the vocabulary: a step's extra block is empty just when it has no extras
        assert {bool(e.extra) for e in exemplars if e.answer in ("yes", "black")} == has_extras
        model = train(exemplar_rows(records, mode), features, vocab, cfg)
        reference, _ = reference_train(exemplars, features, vocab, cfg)
        for name, param in reference.parameters().items():
            assert np.array_equal(model.parameters()[name], param), name

    def test_loss_and_grad_without_extras_is_full_shape_and_matches_central_differences(self):
        rng = np.random.default_rng(19)
        for d_e in (3, 0):  # an untouched extra block, and none
            model = random_model(rng, v=4, d_t=2, d_e=d_e, d_img=2, answers=("x", "y", "z"))
            batch = [(FeatureBlock(block.image, block.target_bow, BowVector({}, 4)), label)
                     for block, label in random_batch(rng, model, size=5)]
            _, grads = loss_and_grad(model, batch)
            for name, param in model.parameters().items():
                assert getattr(grads, name).shape == param.shape, name
            assert not grads.embed_extra.any() and not grads.fc_weights[:, 4:].any()
            assert grads.embed_target.any() and grads.fc_weights[:, :4].all()
            assert_central_differences(model, batch, grads)


def probe_peak_mib(n_questions, n_images, mode="powerset"):
    """Peak resident MiB of a fresh process training a generated ``mode``
    manifest of ``n_images`` images with ``n_questions`` answered questions each."""
    src = Path(qsup.__file__).parents[1]
    probe = src.parent / "scripts" / "train_memory_probe.py"
    run = subprocess.run(
        [sys.executable, str(probe), "--questions", str(n_questions), "--images", str(n_images),
         "--mode", mode],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    figures = json.loads(run.stdout)
    per_target = 2**n_questions if mode == "powerset" else 1
    assert figures["exemplars"] == n_images * n_questions * per_target
    return figures["peak_mib"]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_train_memory_is_flat_in_the_number_of_exemplars():
    # 49,152 and 196,608 powerset exemplars: the peak must not grow with their number
    one, four = probe_peak_mib(12, 1), probe_peak_mib(12, 4)
    assert four - one <= 8.0, (one, four)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_concat_only_train_memory_is_not_quadratic_in_the_questions_of_an_image():
    # an image of n answered questions has n * (n - 1) concat_only extras: 1M and 4M
    # here; a step holds a batch of them (linear in n), never all at once
    one, two = probe_peak_mib(1000, 1, "concat_only"), probe_peak_mib(2000, 1, "concat_only")
    assert two - one <= 48.0, (one, two)
