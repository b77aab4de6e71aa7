import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsup.errors import DimMismatch, EmptyAnswer, EmptyVector, LengthMismatch
from qsup.evalstats import (
    AnswerType,
    ClassPR,
    bootstrap_ci,
    classify_answer_type,
    correct_flags,
    fuse_max,
    mean_average_precision,
    per_class_pr,
    vqa_accuracy,
)
from qsup.qparse import LabelSet

CLASSES = ("cat", "dog", "bus")


def labels(*present):
    return LabelSet(frozenset(present), CLASSES)


class TestPerClassPr:
    def test_perfect_predictions(self):
        truth = [labels("cat"), labels("dog", "bus"), labels()]
        report = per_class_pr(truth, truth)
        assert report.mean_precision == 1.0
        assert report.mean_recall == 1.0
        assert all(pr.precision == pr.recall == 1.0 for pr in report.per_class.values())

    def test_always_empty_predictions(self):
        truth = [labels("cat"), labels("dog")]
        report = per_class_pr([labels(), labels()], truth)
        assert report.per_class["cat"].recall == 0.0
        assert report.per_class["cat"].precision == 0.0
        assert report.per_class["cat"].support == 1

    def test_matches_brute_force_counts(self):
        predicted = [labels("cat", "dog"), labels("bus"), labels("cat")]
        truth = [labels("cat"), labels("dog", "bus"), labels("dog")]
        report = per_class_pr(predicted, truth)
        for j, cls in enumerate(CLASSES):
            tp = sum(
                cls in p.present and cls in t.present for p, t in zip(predicted, truth)
            )
            fp = sum(
                cls in p.present and cls not in t.present for p, t in zip(predicted, truth)
            )
            fn = sum(
                cls not in p.present and cls in t.present for p, t in zip(predicted, truth)
            )
            assert report.per_class[cls].precision == (tp / (tp + fp) if tp + fp else 0.0)
            assert report.per_class[cls].recall == (tp / (tp + fn) if tp + fn else 0.0)
            assert report.per_class[cls].support == tp + fn

    def test_matches_per_class_loop_on_random_sets(self):
        rng = np.random.default_rng(4)
        classes = tuple(f"c{j}" for j in range(7))

        def draw():
            return LabelSet(frozenset(c for c in classes if rng.random() < 0.3), classes)

        predicted = [draw() for _ in range(150)]
        truth = [draw() for _ in range(150)]
        report = per_class_pr(predicted, truth)
        for cls in classes:
            tp = fp = fn = 0
            for pred, true in zip(predicted, truth):
                p, t = cls in pred.present, cls in true.present
                tp += p and t
                fp += p and not t
                fn += t and not p
            assert report.per_class[cls] == ClassPR(
                tp / (tp + fp) if tp + fp else 0.0, tp / (tp + fn) if tp + fn else 0.0, tp + fn)

    def test_false_additions_cannot_raise_precision(self):
        truth = [labels("cat"), labels("cat")]
        smaller = per_class_pr([labels("cat"), labels()], truth)
        bigger = per_class_pr([labels("cat", "dog"), labels("dog")], truth)
        assert bigger.per_class["dog"].precision <= smaller.per_class["dog"].precision
        assert bigger.per_class["cat"].precision <= smaller.per_class["cat"].precision

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            per_class_pr([labels()], [labels(), labels()])

    def test_an_empty_class_vocabulary_has_no_mean(self):
        nothing = LabelSet(frozenset(), ())
        with pytest.raises(LengthMismatch, match="need at least one class"):
            per_class_pr([nothing], [nothing])


class TestFuseMax:
    def test_zero_question_vector_keeps_scores(self):
        x_c = np.array([0.2, 0.7, 0.1])
        np.testing.assert_array_equal(fuse_max(np.zeros(3), x_c), x_c)

    def test_question_hit_forces_one(self):
        fused = fuse_max(np.array([1.0, 0.0]), np.array([0.3, 0.4]))
        np.testing.assert_array_equal(fused, [1.0, 0.4])

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(2)
        x_o = (rng.random(30) > 0.5).astype(float)
        x_c = rng.random(30)
        fused = fuse_max(x_o, x_c)
        for i in range(30):
            assert fused[i] == max(x_o[i], x_c[i])

    def test_dominates_both_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x_o = (rng.random(80) > 0.7).astype(float)
            x_c = rng.random(80)
            fused = fuse_max(x_o, x_c)
            assert (fused >= x_o).all() and (fused >= x_c).all()

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            fuse_max(np.zeros(3), np.zeros(4))


def brute_force_ap(scores_by_image, truth_by_image, class_idx):
    # Independent formulation: explicit precision-at-rank loop.
    order = sorted(scores_by_image, key=lambda i: (-scores_by_image[i][class_idx], i))
    positives = [i for i in order if truth_by_image[i][class_idx]]
    if not positives:
        return None
    total = 0.0
    for i in positives:
        rank = order.index(i) + 1
        hits_at_rank = sum(1 for j in order[:rank] if truth_by_image[j][class_idx])
        total += hits_at_rank / rank
    return total / len(positives)


class TestMeanAveragePrecision:
    def test_perfect_ranking(self):
        scores = {0: [0.9], 1: [0.8], 2: [0.2], 3: [0.1]}
        truth = {0: [1], 1: [1], 2: [0], 3: [0]}
        per_class, mean_ap = mean_average_precision(scores, truth, ["cat"])
        assert per_class["cat"] == 1.0
        assert mean_ap == 1.0

    def test_single_positive_ranked_second(self):
        scores = {0: [0.9], 1: [0.8], 2: [0.2], 3: [0.1]}
        truth = {0: [0], 1: [1], 2: [0], 3: [0]}
        per_class, mean_ap = mean_average_precision(scores, truth, ["cat"])
        assert per_class["cat"] == 0.5
        assert mean_ap == 0.5

    def test_zero_positive_class_excluded_from_mean(self):
        scores = {0: [0.9, 0.3], 1: [0.1, 0.6]}
        truth = {0: [1, 0], 1: [0, 0]}
        per_class, mean_ap = mean_average_precision(scores, truth, ["cat", "dog"])
        assert per_class["dog"] is None
        assert mean_ap == per_class["cat"]

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            scores = {i: rng.choice([0.1, 0.4, 0.4, 0.9], size=2) for i in range(4)}
            truth = {i: rng.integers(0, 2, size=2) for i in range(4)}
            per_class, _ = mean_average_precision(scores, truth, ["a", "b"])
            for j, cls in enumerate(["a", "b"]):
                assert per_class[cls] == brute_force_ap(scores, truth, j)

    def test_key_mismatch(self):
        with pytest.raises(LengthMismatch):
            mean_average_precision({0: [1.0]}, {1: [1]}, ["a"])

    def test_matches_per_class_loop_on_tied_grid(self):
        rng = np.random.default_rng(12)
        classes = [f"c{j}" for j in range(6)]
        ids = rng.permutation(1000)[:200].tolist()
        scores = {i: rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=6) for i in ids}
        truth = {i: (rng.random(6) < 0.3).astype(np.int8) for i in ids}
        for i in ids:
            truth[i][4] = 0  # a class with no positive image
        assert mean_average_precision(scores, truth, classes) == loop_map(scores, truth, classes)


def loop_map(scores, truth, classes):
    # mean_average_precision as the per-class rank loop it was before vectorizing.
    ids = sorted(scores)
    per_class = {}
    for j, cls in enumerate(classes):
        ranked = sorted(ids, key=lambda i: (-float(scores[i][j]), i))
        n_pos = sum(int(truth[i][j]) for i in ids)
        if n_pos == 0:
            per_class[cls] = None
            continue
        hits = 0
        ap = 0.0
        for rank, i in enumerate(ranked, start=1):
            if truth[i][j]:
                hits += 1
                ap += hits / rank
        per_class[cls] = ap / n_pos
    valid = [ap for ap in per_class.values() if ap is not None]
    return per_class, float(np.mean(valid)) if valid else 0.0


class TestClassifyAnswerType:
    @pytest.mark.parametrize(
        "answer,expected",
        [
            ("Yes", AnswerType.YES_NO),
            ("no", AnswerType.YES_NO),
            ("2", AnswerType.NUMBER),
            ("ten", AnswerType.NUMBER),
            ("42", AnswerType.NUMBER),
            ("eleven", AnswerType.WORD),  # number words stop at ten
            ("Canadian", AnswerType.WORD),
            ("2.5", AnswerType.WORD),
            ("fire hydrant", AnswerType.WORD),
        ],
    )
    def test_golden(self, answer, expected):
        assert classify_answer_type(answer) is expected

    def test_empty_rejected(self):
        with pytest.raises(EmptyAnswer):
            classify_answer_type("   ")

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    @settings(max_examples=300)
    def test_total_partition(self, answer):
        assert classify_answer_type(answer) in AnswerType


class TestVqaAccuracy:
    def test_all_correct(self):
        report = vqa_accuracy([("yes", "yes"), ("2", "2"), ("cat", "cat")])
        assert report.overall == 1.0
        assert all(acc == 1.0 for acc in report.by_type.values())

    def test_article_stripped(self):
        report = vqa_accuracy([("the wall", "wall")])
        assert report.overall == 1.0

    def test_hand_counted_cells(self):
        pairs = [
            ("yes", "yes"),      # yes/no correct
            ("no", "yes"),       # yes/no wrong
            ("2", "2"),          # number correct
            ("3", "2"),          # number wrong
            ("dog", "a dog"),    # word correct via article removal
            ("cat", "dog"),      # word wrong
        ]
        report = vqa_accuracy(pairs)
        assert report.by_type[AnswerType.YES_NO] == 0.5
        assert report.by_type[AnswerType.NUMBER] == 0.5
        assert report.by_type[AnswerType.WORD] == 0.5
        assert report.n_examples == {t: 2 for t in AnswerType}
        assert report.overall == 0.5

    def test_overall_is_weighted_mean_of_cells(self):
        pairs = [("yes", "yes"), ("yes", "no"), ("no", "no"), ("cat", "cat")]
        report = vqa_accuracy(pairs)
        weighted = sum(
            report.by_type[t] * report.n_examples[t] for t in report.by_type
        ) / sum(report.n_examples.values())
        assert report.overall == pytest.approx(weighted)

    def test_consensus_scoring(self):
        report = vqa_accuracy(
            [("wall", ["wall", "wall", "brick", "wall"])], consensus=True
        )
        assert report.overall == 1.0
        report = vqa_accuracy([("wall", ["wall", "brick", "fence"])], consensus=True)
        assert report.overall == pytest.approx(1 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vqa_accuracy([])

    def test_correct_flags_mean_is_accuracy(self):
        pairs = [("yes", "yes"), ("no", "yes"), ("dog", "a dog"), ("The Wall ", "wall")]
        assert correct_flags(pairs) == [1, 0, 1, 1]
        assert sum(correct_flags(pairs)) / len(pairs) == vqa_accuracy(pairs).overall


class TestBootstrapCi:
    def test_all_ones(self):
        assert bootstrap_ci(np.ones(50), 0.999, 1000, seed=1) == (1.0, 1.0)

    def test_all_zeros(self):
        assert bootstrap_ci(np.zeros(50), 0.999, 1000, seed=1) == (0.0, 0.0)

    def test_contains_point_estimate(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 2, 200)
        for confidence in (0.5, 0.9, 0.999):
            lower, upper = bootstrap_ci(data, confidence, 1000, seed=7)
            assert lower <= data.mean() <= upper

    def test_width_non_decreasing_in_confidence(self):
        rng = np.random.default_rng(6)
        data = rng.integers(0, 2, 300)
        widths = []
        for confidence in (0.5, 0.8, 0.95, 0.99, 0.999):
            lower, upper = bootstrap_ci(data, confidence, 2000, seed=3)
            widths.append(upper - lower)
        assert widths == sorted(widths)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 2, 100)
        assert bootstrap_ci(data, 0.95, 1000, seed=9) == bootstrap_ci(data, 0.95, 1000, seed=9)

    def test_validation(self):
        with pytest.raises(EmptyVector):
            bootstrap_ci([], 0.9, 1000, seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci([1, 0], 0.9, 10, seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci([1, 0], 1.5, 1000, seed=0)
