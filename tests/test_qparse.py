from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsup import qparse as qparse_module
from qsup.errors import MalformedQuestion, MixedImages
from qsup.qparse import (
    LabelSet,
    ObjectClass,
    ObjectVocabulary,
    Question,
    QuestionType,
    QuestionTypeTable,
    classify_question_type,
    extract_objects,
    extract_objects_multi,
    normalize_token,
    tokenize,
)


def q(text, image_id=1, qid="q"):
    return Question(qid, image_id, text)


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("What color is the bus?") == ["what", "color", "is", "the", "bus"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphen_preserved(self):
        assert tokenize("pinkish-tan vases?") == ["pinkish-tan", "vases"]

    def test_leading_trailing_hyphens_dropped(self):
        assert tokenize("- well -- made-up --") == ["well", "made-up"]


class TestNormalizeToken:
    @pytest.mark.parametrize(
        "token,lemma",
        [
            ("umbrellas", "umbrella"),
            ("dryer", "drier"),
            ("bus", "bus"),
            ("people", "person"),
            ("buses", "bus"),
            ("knives", "knife"),
            ("sandwiches", "sandwich"),
            ("glasses", "glass"),
            ("berries", "berry"),
            ("scissors", "scissors"),
            ("skis", "ski"),
            ("doughnuts", "donut"),
            ("this", "this"),
            ("horses", "horse"),
        ],
    )
    def test_lemmas(self, token, lemma):
        assert normalize_token(token) == lemma


class TestClassifyQuestionType:
    def test_zebra_unconfirmed(self, type_table):
        assert classify_question_type(q("Is there a zebra in the photo?"), type_table) \
            is QuestionType.UNCONFIRMED

    def test_how_many_confirmed(self, type_table):
        assert classify_question_type(
            q("How many different flowers are on the table?"), type_table
        ) is QuestionType.CONFIRMED

    def test_longest_prefix_wins(self, type_table):
        # "what is the man" (confirmed) beats "what is the" (unconfirmed)
        assert classify_question_type(q("What is the man wearing?"), type_table) \
            is QuestionType.CONFIRMED
        assert classify_question_type(q("What is the color here?"), type_table) \
            is QuestionType.UNCONFIRMED

    def test_no_match_is_unconfirmed(self, type_table):
        assert classify_question_type(q("Tell me about the bus"), type_table) \
            is QuestionType.UNCONFIRMED

    @given(
        text=st.sampled_from(
            [
                "Is there a zebra in the photo?",
                "What is the man wearing?",
                "How many umbrellas are in the image?",
                "What color is the bus",
                "Is it raining",
            ]
        ),
        suffix=st.lists(st.sampled_from(["xylophone", "qwerty", "zzz"]), max_size=3),
    )
    def test_suffix_invariance(self, type_table, text, suffix):
        # appended junk can never complete a longer table prefix
        extended = text + " " + " ".join(suffix)
        assert classify_question_type(q(text), type_table) == classify_question_type(
            q(extended), type_table
        )

    def test_table_validation(self):
        with pytest.raises(ValueError):
            QuestionTypeTable(confirmed=("how many",), unconfirmed=("how many",))
        with pytest.raises(ValueError):
            QuestionTypeTable(confirmed=("How many",), unconfirmed=("is",))


class TestExtractObjects:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("What color is the bus?", {"bus"}),
            ("Are people waiting for the food truck?", {"person", "truck"}),
            ("How many umbrellas are in the image?", {"umbrella"}),
            ("Is the bird sitting on a plant?", {"bird", "potted plant"}),
            ("What does this teddy bear have on its neck?", {"teddy bear"}),
            ("Is there a zebra in the photo?", set()),
            ("Which foot will kick the soccer ball?", {"sports ball"}),
            ("What color is the jet plane on the runway?", {"airplane"}),
            ("Does the bear love you?", {"bear"}),
            ("How many hot dogs are on the grill?", {"hot dog"}),
            ("Has the batter already hit the ball?", {"sports ball"}),
            ("What is the name on the traffic signal?", {"traffic light"}),
            ("Where is the hair dryer?", {"hair drier"}),
        ],
    )
    def test_golden(self, obj_vocab, type_table, text, expected):
        assert extract_objects(q(text), obj_vocab, type_table).present == expected

    def test_empty_text_raises(self, obj_vocab, type_table):
        with pytest.raises(MalformedQuestion):
            extract_objects(q("   "), obj_vocab, type_table)

    def test_adjective_filter(self, obj_vocab, type_table):
        cones = q("How many orange cones are there?")
        assert extract_objects(cones, obj_vocab, type_table).present == {"orange"}
        assert extract_objects(cones, obj_vocab, type_table, adjective_filter=True).present \
            == set()
        # class word at the end of the question is kept either way
        fruit = q("What color is the orange?")
        assert extract_objects(fruit, obj_vocab, type_table, adjective_filter=True).present \
            == {"orange"}

    def test_phrase_consumes_its_tokens(self, obj_vocab, type_table):
        # "baseball" inside "baseball bat" must not signal sports ball
        labels = extract_objects(q("Where is the baseball bat?"), obj_vocab, type_table)
        assert labels.present == {"baseball bat"}

    def test_exclusivity_is_question_wide(self, obj_vocab, type_table):
        labels = extract_objects(
            q("Does the teddy bear sit next to the real bear?"), obj_vocab, type_table
        )
        assert labels.present == {"teddy bear"}

    def test_as_vector_matches_present(self, obj_vocab, type_table):
        labels = extract_objects(q("What color is the bus?"), obj_vocab, type_table)
        vec = labels.as_vector
        assert vec.sum() == len(labels.present) == 1
        assert vec[obj_vocab.class_index["bus"]] == 1


class TestExtractObjectsMulti:
    def test_union(self, obj_vocab, type_table):
        questions = [
            q("What color is the bus?", qid="a"),
            q("Is there a zebra?", qid="b"),
        ]
        assert extract_objects_multi(questions, obj_vocab, type_table).present == {"bus"}

    def test_empty(self, obj_vocab, type_table):
        assert extract_objects_multi([], obj_vocab, type_table).present == set()

    def test_table_2_pair(self, obj_vocab, type_table):
        questions = [
            q("Is the bird sitting on a plant?", qid="a"),
            q("What color is the bus?", qid="b"),
        ]
        assert extract_objects_multi(questions, obj_vocab, type_table).present == {
            "bird",
            "potted plant",
            "bus",
        }

    def test_mixed_images(self, obj_vocab, type_table):
        with pytest.raises(MixedImages):
            extract_objects_multi(
                [q("What color is the bus?", image_id=1), q("How many cats?", image_id=2)],
                obj_vocab,
                type_table,
            )


# A compact soup of words that exercises phrase classes, their colliding
# component words, synonyms and fillers.
_SOUP = [
    "teddy", "bear", "hot", "dog", "bus", "plant", "potted", "soccer",
    "ball", "baseball", "bat", "the", "a", "near", "and", "red",
]


@st.composite
def soup_questions(draw, image_id=st.just(1)):
    prefix = draw(st.sampled_from(["What color is the", "How many", "Is there a", "Does the"]))
    words = draw(st.lists(st.sampled_from(_SOUP), min_size=1, max_size=6))
    return Question(draw(st.uuids()).hex, draw(image_id), f"{prefix} {' '.join(words)}?")


class TestProperties:
    @given(question=soup_questions())
    def test_deterministic(self, obj_vocab, type_table, question):
        first = extract_objects(question, obj_vocab, type_table)
        second = extract_objects(question, obj_vocab, type_table)
        assert first == second

    @given(question=soup_questions())
    def test_unconfirmed_extracts_nothing(self, obj_vocab, type_table, question):
        if classify_question_type(question, type_table) is QuestionType.UNCONFIRMED:
            assert extract_objects(question, obj_vocab, type_table).present == set()

    @given(question=soup_questions())
    def test_phrase_exclusivity(self, obj_vocab, type_table, question):
        present = extract_objects(question, obj_vocab, type_table).present
        assert not {"teddy bear", "bear"} <= present
        assert not {"hot dog", "dog"} <= present

    @given(question=soup_questions())
    def test_subset_of_vocabulary(self, obj_vocab, type_table, question):
        labels = extract_objects(question, obj_vocab, type_table)
        assert labels.present <= set(obj_vocab.class_names)
        assert labels.as_vector.sum() == len(labels.present)

    @settings(max_examples=50)
    @given(
        first=st.lists(soup_questions(), max_size=4),
        second=st.lists(soup_questions(), max_size=4),
    )
    def test_monotone_union(self, obj_vocab, type_table, first, second):
        union = extract_objects_multi(first + second, obj_vocab, type_table)
        left = extract_objects_multi(first, obj_vocab, type_table)
        right = extract_objects_multi(second, obj_vocab, type_table)
        assert union.present == left.present | right.present


class TestVocabularyValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ObjectVocabulary([ObjectClass("cat"), ObjectClass("cat")])

    def test_missing_exclusivity_rejected(self):
        with pytest.raises(ValueError):
            ObjectVocabulary([ObjectClass("bear"), ObjectClass("teddy bear")])

    def test_conflicting_term_rejected(self):
        with pytest.raises(ValueError):
            ObjectVocabulary(
                [ObjectClass("cat", synonyms=frozenset({"pet"})),
                 ObjectClass("dog", synonyms=frozenset({"pet"}))]
            )

    def test_label_outside_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            LabelSet(frozenset({"dragon"}), ("cat", "dog"))


def test_extraction_tokenizes_each_question_once(obj_vocab, type_table, monkeypatch):
    questions = [
        q("What color is the bus?", qid="a"),
        q("Are people waiting for the food truck?", qid="b"),
        q("Is the bird sitting on a plant?", qid="c"),
    ]
    calls = Counter()

    def counting_tokenize(text):
        calls[text] += 1
        return tokenize(text)

    monkeypatch.setattr(qparse_module, "tokenize", counting_tokenize)
    labels = extract_objects_multi(questions, obj_vocab, type_table)
    assert labels.present == {"bus", "person", "truck", "bird", "potted plant"}
    assert calls == Counter(x.text for x in questions)
