import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsup import augment
from qsup.augment import (
    AugmentMode,
    ExemplarRows,
    ImageRecord,
    exemplar_rows,
    generate_exemplars,
    simulate_answered_fraction,
    simulate_unanswered,
)
from qsup.errors import NoAnswered, NoTrainableExemplars, TooManyExemplars, UnknownMode
from qsup.model import TrainConfig, train
from qsup.qparse import Question
from qsup.vocab import build_vocabulary


def make_record(n_answered, n_unanswered, image_id=1):
    answered = tuple(
        Question(f"a{i}", image_id, f"what is thing {i}", answer=f"ans{i}")
        for i in range(n_answered)
    )
    unanswered = tuple(
        Question(f"u{i}", image_id, f"is it thing {i}") for i in range(n_unanswered)
    )
    return ImageRecord(image_id=image_id, answered=answered, unanswered=unanswered)


class TestGenerateExemplars:
    def test_one_answered_two_unanswered_powerset(self):
        record = make_record(1, 2)
        exemplars = list(generate_exemplars(record, AugmentMode.POWERSET))
        assert len(exemplars) == 8
        extra_sets = {frozenset(q.id for q in e.extra) for e in exemplars}
        assert extra_sets == {
            frozenset(),
            frozenset({"a0"}),
            frozenset({"u0"}),
            frozenset({"u1"}),
            frozenset({"a0", "u0"}),
            frozenset({"a0", "u1"}),
            frozenset({"u0", "u1"}),
            frozenset({"a0", "u0", "u1"}),
        }
        assert all(e.target_question.id == "a0" and e.answer == "ans0" for e in exemplars)

    def test_three_answered_powerset_count(self):
        assert len(list(generate_exemplars(make_record(3, 0), "powerset"))) == 24

    def test_plain(self):
        exemplars = list(generate_exemplars(make_record(1, 0), AugmentMode.PLAIN))
        assert len(exemplars) == 1
        assert exemplars[0].extra == ()

    def test_powerset_no_empty(self):
        exemplars = list(generate_exemplars(make_record(1, 2), "powerset_no_empty"))
        assert len(exemplars) == 7
        assert all(e.extra for e in exemplars)

    def test_concat_only(self):
        record = make_record(2, 2)
        exemplars = list(generate_exemplars(record, AugmentMode.CONCAT_ONLY))
        assert len(exemplars) == 2
        for e in exemplars:
            assert {q.id for q in e.extra} == {q.id for q in record.all_questions} - {
                e.target_question.id
            }

    def test_no_answered_raises_eagerly(self):
        with pytest.raises(NoAnswered):
            generate_exemplars(make_record(0, 2), AugmentMode.POWERSET)

    def test_unknown_mode(self):
        with pytest.raises(UnknownMode):
            generate_exemplars(make_record(1, 0), "quadratic")

    def test_streaming(self):
        # 2**20 subsets: only possible to touch lazily
        gen = generate_exemplars(make_record(1, 19), AugmentMode.POWERSET)
        first = list(itertools.islice(gen, 3))
        assert [frozenset(q.id for q in e.extra) for e in first] == [
            frozenset(),
            frozenset({"a0"}),
            frozenset({"u0"}),
        ]

    @pytest.mark.parametrize("mode", ["powerset", "powerset_no_empty"])
    def test_an_image_past_the_exemplar_limit_is_refused_before_any_row(self, mode):
        # one answered of 21 questions: 2**21 exemplars (2**21 - 1 without the empty subset)
        record = make_record(1, 20)
        assert augment.MAX_IMAGE_EXEMPLARS == 2**20
        with pytest.raises(TooManyExemplars, match=r"image 1: 1 answered of 21 questions give"):
            generate_exemplars(record, mode)  # raised on the call, not at the first row
        with pytest.raises(TooManyExemplars, match=r"more than the limit of 1048576"):
            exemplar_rows([make_record(1, 2, image_id=2), record], mode)
        assert len(exemplar_rows([record], "concat_only").targets) == 1

    @given(m=st.integers(1, 3), n=st.integers(0, 4))
    @settings(max_examples=25)
    def test_powerset_count_formula(self, m, n):
        record = make_record(m, n)
        exemplars = list(generate_exemplars(record, AugmentMode.POWERSET))
        assert len(exemplars) == m * 2 ** (m + n)
        q_all_ids = {q.id for q in record.all_questions}
        assert all({q.id for q in e.extra} <= q_all_ids for e in exemplars)

    @given(m=st.integers(1, 3), n=st.integers(0, 3))
    @settings(max_examples=25)
    def test_plain_subset_of_powerset(self, m, n):
        record = make_record(m, n)
        as_triple = lambda e: (e.target_question.id, frozenset(q.id for q in e.extra), e.answer)
        plain = {as_triple(e) for e in generate_exemplars(record, AugmentMode.PLAIN)}
        powerset = {as_triple(e) for e in generate_exemplars(record, AugmentMode.POWERSET)}
        assert plain <= powerset


def reference_rows(m, n, mode):
    """(target, extras) per exemplar of m answered among n questions, by the
    binary-counter loop over each mask's bits."""
    for target in range(m):
        if mode is AugmentMode.PLAIN:
            yield target, ()
        elif mode is AugmentMode.CONCAT_ONLY:
            yield target, tuple(b for b in range(n) if b != target)
        else:
            start = 1 if mode is AugmentMode.POWERSET_NO_EMPTY else 0
            for mask in range(start, 2**n):
                yield target, tuple(b for b in range(n) if mask >> b & 1)


def image_rows(m, n, mode, lo=0, hi=None):
    """(target, extras) of the decoded exemplars ``lo:hi`` of one image with
    m answered of n questions."""
    table = exemplar_rows([make_record(m, n - m)], mode)
    total = int(table.ends[-1])
    entries, owners, extras = table.decode(np.arange(lo, total if hi is None else min(hi, total)))
    return [(int(table.targets[k]), tuple(extras[owners == place].tolist()))
            for place, k in enumerate(entries.tolist())]


def decoded(table, rows):
    """(image id, target, extras) of each of the table's ``rows``."""
    entries, owners, extras = table.decode(rows)
    q = table.questions
    return [(int(table.image_ids[k]), q[table.starts[k] + table.targets[k]],
             tuple(q[b] for b in extras[owners == place].tolist()))
            for place, k in enumerate(entries.tolist())]


class TestExemplarRows:
    @given(m=st.integers(1, 8), n_unanswered=st.integers(0, 7),
           mode=st.sampled_from(list(AugmentMode)), shared_text=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_enumerator_rows_equal_generated_exemplars(self, m, n_unanswered, mode, shared_text):
        n_unanswered = min(n_unanswered, 8 - m)
        n = m + n_unanswered
        texts = [f"what is thing {i}" for i in range(n)]
        if shared_text:
            texts[-1] = texts[0]
        record = ImageRecord(
            1, tuple(Question(f"a{i}", 1, texts[i], answer=f"ans{i}") for i in range(m)),
            tuple(Question(f"u{i}", 1, texts[i]) for i in range(m, n)))
        rows = image_rows(m, n, mode)
        assert rows == list(reference_rows(m, n, mode))
        q_all = record.all_questions
        assert [(q_all[t], tuple(q_all[b] for b in extras)) for t, extras in rows] == [
            (e.target_question, e.extra) for e in generate_exemplars(record, mode)]

    @pytest.mark.parametrize("mode", list(AugmentMode))
    def test_generate_exemplars_streams_across_row_chunks(self, mode, monkeypatch):
        monkeypatch.setattr(augment, "_STREAM_ROWS", 5)
        record = make_record(3, 2)
        q_all = record.all_questions
        assert [(e.target_question, e.extra) for e in generate_exemplars(record, mode)] == [
            (q_all[t], tuple(q_all[b] for b in extras))
            for t, extras in reference_rows(3, 5, mode)]

    @pytest.mark.parametrize("mode", list(AugmentMode))
    def test_row_ranges_concatenate_to_all_rows(self, mode):
        everything = image_rows(3, 5, mode)
        pieces = [image_rows(3, 5, mode, lo, lo + 7) for lo in range(0, 200, 7)]
        assert sum(pieces, []) == everything

    @pytest.mark.parametrize("mode", list(AugmentMode))
    def test_records_give_the_generated_exemplars_in_order(self, mode):
        records = [make_record(2, 1, image_id=7), ImageRecord(8, (), make_record(0, 2).unanswered),
                   make_record(1, 0, image_id=9), make_record(3, 2, image_id=10)]
        table = exemplar_rows(records, mode.value)
        n_rows = int(table.ends[-1])
        want = [(e.image_id, e.target_question, e.extra) for r in records if r.answered
                for e in generate_exemplars(r, mode)]
        # windows of 3 and 7 rows split images and span them; 200 holds every row
        for window in (1, 3, 7, 200):
            assert [row for lo in range(0, n_rows, window)
                    for row in decoded(table, np.arange(lo, min(lo + window, n_rows)))] == want

    @pytest.mark.parametrize("mode", list(AugmentMode))
    def test_a_selected_table_decodes_the_exemplars_of_its_targets(self, mode):
        # targets whose answer is out of a vocabulary are dropped, as train drops them
        records = [make_record(3, 1, image_id=4), make_record(2, 2, image_id=5)]
        vocabulary = {"ans0", "ans2"}
        table = exemplar_rows(records, mode)
        answers = [table.questions[i].answer for i in (table.starts + table.targets).tolist()]
        kept = table.select(np.array([a in vocabulary for a in answers]))
        rows = np.random.default_rng(5).permutation(int(kept.ends[-1]))
        want = [(e.image_id, e.target_question, e.extra) for r in records
                for e in generate_exemplars(r, mode) if e.answer in vocabulary]
        assert decoded(kept, rows) == [want[r] for r in rows.tolist()]

    @pytest.mark.parametrize("mode", list(AugmentMode))
    def test_exemplar_objects_decode_from_their_table(self, mode):
        # texts repeat across images, and powerset rows list the target among its extras
        records = [make_record(2, 1, image_id=7), make_record(1, 0, image_id=9),
                   make_record(3, 2, image_id=10)]
        exemplars = [e for r in records for e in generate_exemplars(r, mode)]
        assert mode.value.startswith("powerset") == any(
            e.target_question in e.extra for e in exemplars)
        table = ExemplarRows.from_exemplars(iter(exemplars))
        assert table.ends.tolist() == list(range(len(exemplars) + 1))  # one row each
        assert decoded(table, np.arange(len(exemplars))) == [
            (e.image_id, e.target_question, e.extra) for e in exemplars]

    def test_an_empty_exemplar_stream_does_not_train(self):
        table = ExemplarRows.from_exemplars(iter(()))
        assert len(table.targets) == 0 and table.ends.tolist() == [0]
        vocab = build_vocabulary(make_record(1, 0).all_questions)
        with pytest.raises(NoTrainableExemplars, match="^empty exemplar stream$"):
            train(iter(()), {}, vocab, TrainConfig())

    def test_no_answered_records_give_no_rows(self):
        rows = exemplar_rows([ImageRecord(1, (), make_record(0, 2).unanswered)], "powerset")
        assert len(rows.targets) == 0 and rows.ends.tolist() == [0]

    def test_unknown_mode_rejected(self):
        with pytest.raises(UnknownMode):
            exemplar_rows([make_record(1, 0)], "bogus")


def question_texts(records):
    return Counter(q.text for r in records for q in r.all_questions)


class TestSimulateUnanswered:
    def test_keep_one_of_three(self):
        dataset = [make_record(3, 0)]
        (result,) = simulate_unanswered(dataset, keep_per_image=1, seed=4)
        assert len(result.answered) == 1
        assert len(result.unanswered) == 2
        assert all(q.answer is None for q in result.unanswered)

    def test_keep_all_unchanged(self):
        dataset = [make_record(3, 1)]
        assert simulate_unanswered(dataset, 3, seed=0) == dataset

    def test_deterministic(self):
        dataset = [make_record(3, 2, image_id=i) for i in range(10)]
        assert simulate_unanswered(dataset, 1, seed=9) == simulate_unanswered(dataset, 1, seed=9)

    def test_conserves_question_texts(self):
        dataset = [make_record(3, 2, image_id=i) for i in range(5)]
        result = simulate_unanswered(dataset, 1, seed=2)
        assert question_texts(result) == question_texts(dataset)

    def test_negative_keep_rejected(self):
        with pytest.raises(ValueError):
            simulate_unanswered([], -1, seed=0)


class TestSimulateAnsweredFraction:
    def test_fraction_zero(self):
        dataset = [make_record(2, 1, image_id=i) for i in range(4)]
        kept, rest = simulate_answered_fraction(dataset, 0.0, seed=1)
        assert kept == []
        assert len(rest) == 4
        assert all(not r.answered for r in rest)
        assert question_texts(rest) == question_texts(dataset)

    def test_fraction_one(self):
        dataset = [make_record(2, 1, image_id=i) for i in range(4)]
        kept, rest = simulate_answered_fraction(dataset, 1.0, seed=1)
        assert kept == dataset
        assert rest == []

    def test_floor_count(self):
        dataset = [make_record(1, 0, image_id=i) for i in range(1000)]
        kept, rest = simulate_answered_fraction(dataset, 0.1, seed=5)
        assert len(kept) == 100
        assert len(rest) == 900

    def test_float_artifact_guard(self):
        dataset = [make_record(1, 0, image_id=i) for i in range(10)]
        kept, _ = simulate_answered_fraction(dataset, 0.3, seed=5)
        assert len(kept) == 3

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            simulate_answered_fraction([], 1.5, seed=0)


class TestImageRecordValidation:
    def test_duplicate_ids_rejected(self):
        q1 = Question("x", 1, "what is it", answer="a")
        q2 = Question("x", 1, "is it red")
        with pytest.raises(ValueError):
            ImageRecord(1, (q1,), (q2,))

    def test_answered_without_answer_rejected(self):
        with pytest.raises(ValueError):
            ImageRecord(1, (Question("x", 1, "what is it"),))

    def test_unanswered_with_answer_rejected(self):
        with pytest.raises(ValueError):
            ImageRecord(1, (), (Question("x", 1, "what is it", answer="a"),))
