from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsup import qparse as qparse_module
from qsup.errors import MalformedQuestion, MixedImages, ParseError
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
    read_text,
    tokenize,
    write_json,
    write_lines,
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

    def test_whitespace_text_raises(self, obj_vocab, type_table):
        with pytest.raises(MalformedQuestion):
            extract_objects_multi([q("What color is the bus?", qid="a"), q(" \t", qid="b")],
                                  obj_vocab, type_table)

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


# ---------------------------------------------------------------------------
# reference implementations the fast text layer must agree with


def per_character_tokenize(text):
    # The character-by-character tokenizer that the one-regex version replaced.
    chars = []
    for ch in text.lower():
        if ch.isalnum() or ch == "-":
            chars.append(ch)
        elif ch.isspace():
            chars.append(" ")
    tokens = []
    for raw in "".join(chars).split():
        tok = raw.strip("-")
        if tok:
            tokens.append(tok)
    return tokens


# Characters where str.isalnum / str.isspace and the regex classes could part
# ways: underscore, hyphen, combining marks, non-ASCII digits and numerals,
# the information separators, NEL, the line separator and a capital whose
# lowercase form is two code points.
_TRICKY = "_-\u0301\u0307\u0663\u00b2\u2167\x1c\x1d\x1e\x1f\x85\u2028\u00a0\u200b\u0130 \t\n.?'"


class TestTokenizeMatchesPerCharacterReference:
    @settings(max_examples=200)
    @given(st.text(alphabet=st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=40))
    def test_random_text(self, text):
        assert tokenize(text) == per_character_tokenize(text)

    def test_every_code_point(self):
        # "a" on both sides shows whether each character is kept, splits or is dropped.
        text = "a" + "a".join(map(chr, range(0x110000))) + "a"
        assert tokenize(text) == per_character_tokenize(text)

    def test_every_ascii_code_point(self):
        text = "a" + "a".join(map(chr, range(0x80))) + "a"
        assert text.isascii() and tokenize(text) == per_character_tokenize(text)

    @settings(max_examples=200)
    @given(text=st.text(alphabet=st.one_of(st.sampled_from("_-\x1c\x1d\x1e\x1f\x7f \t.?'"),
                                           st.characters(max_codepoint=0x7F)), max_size=40),
           hyphens=st.booleans())
    def test_random_ascii_text(self, text, hyphens):
        text = text if hyphens else text.replace("-", "")
        assert text.isascii()
        assert tokenize(text) == per_character_tokenize(text)


def linear_scan_question_type(tokens, table):
    # The longest-first scan over every table phrase that the dict lookup replaced.
    entries = [(tuple(p.split()), QuestionType.CONFIRMED) for p in table.confirmed]
    entries += [(tuple(p.split()), QuestionType.UNCONFIRMED) for p in table.unconfirmed]
    entries.sort(key=lambda e: len(e[0]), reverse=True)
    for prefix, qtype in entries:
        if len(prefix) <= len(tokens) and tuple(tokens[: len(prefix)]) == prefix:
            return qtype
    return QuestionType.UNCONFIRMED


_SPLIT_KEY_TABLES = [
    QuestionTypeTable(confirmed=("what is", "how many"), unconfirmed=("what  is", "what", "is")),
    QuestionTypeTable(confirmed=("what  is", "is"), unconfirmed=("what is", "what is the")),
]


class TestPrefixLookupMatchesLinearScan:
    @staticmethod
    def _check(table, tokens):
        expected = linear_scan_question_type(tokens, table)
        assert classify_question_type(q(" ".join(tokens) or "?"), table) is expected

    def test_every_packaged_phrase_and_its_neighbours(self, type_table):
        phrases = [p.split() for p in type_table.confirmed + type_table.unconfirmed]
        for words in phrases:
            for cut in range(len(words) + 1):
                self._check(type_table, words[:cut])
                self._check(type_table, words[:cut] + ["zebra"])
                self._check(type_table, words + ["man", "wearing"])

    @given(data=st.data())
    def test_random_questions(self, type_table, data):
        phrases = type_table.confirmed + type_table.unconfirmed
        words = sorted({w for p in phrases for w in p.split()})
        tokens = data.draw(st.lists(st.sampled_from(words + ["zebra", "the"]), max_size=8))
        self._check(type_table, tokens)

    @given(tokens=st.lists(st.sampled_from(["what", "is", "the", "dog", "how"]), max_size=6))
    @pytest.mark.parametrize("table", [
        QuestionTypeTable(confirmed=("what", "what is the", "is the dog"),
                          unconfirmed=("what is", "is", "what is the dog", "how")),
        QuestionTypeTable(confirmed=("",), unconfirmed=("what", "what is")),
    ], ids=["one_word_phrases_start_longer_ones", "empty_phrase"])
    def test_phrases_sharing_a_first_token(self, table, tokens):
        self._check(table, tokens)

    @pytest.mark.parametrize("table", _SPLIT_KEY_TABLES,
                             ids=["confirmed_first", "unconfirmed_first"])
    @pytest.mark.parametrize("text",
                             ["what is the dog", "what is", "what", "is it", "how many dogs"])
    def test_phrases_sharing_a_token_key(self, table, text):
        self._check(table, text.split())


def full_scan_extract(question, vocab, table, adjective_filter=False):
    # extract_objects as it was before the lemma cache and the phrase-start skip.
    tokens = per_character_tokenize(question.text)
    if linear_scan_question_type(tokens, table) is QuestionType.UNCONFIRMED:
        return set()
    lemmas = [normalize_token(t) for t in tokens]
    found = set()
    consumed = [False] * len(lemmas)
    for n in range(min(vocab.max_phrase_len, len(lemmas)), 1, -1):
        for i in range(len(lemmas) - n + 1):
            if any(consumed[i : i + n]):
                continue
            cls_name = vocab.phrase_map.get(tuple(lemmas[i : i + n]))
            if cls_name is None:
                continue
            found.add(cls_name)
            for j in range(i, i + n):
                consumed[j] = True
    for i, lemma in enumerate(lemmas):
        if consumed[i]:
            continue
        cls_name = vocab.word_map.get(lemma)
        if cls_name is None:
            continue
        if adjective_filter and i + 1 < len(lemmas):
            nxt = lemmas[i + 1]
            if not consumed[i + 1] and nxt not in qparse_module._FUNCTION_WORDS and nxt != lemma:
                continue
        found.add(cls_name)
    suppressed = set()
    for name in found:
        suppressed |= vocab.classes[vocab.class_index[name]].collides
    return found - suppressed


_PHRASE_SOUP = _SOUP + [
    "cell", "phone", "phones", "traffic", "light", "fire", "hydrant", "hair", "dryers",
    "tennis", "racket", "rackets", "wine", "glasses", "people", "stop", "sign", "orange",
]


@settings(max_examples=150)
@given(
    prefix=st.sampled_from(["What color is the", "How many", "Is there a", "What is the man"]),
    words=st.lists(st.sampled_from(_PHRASE_SOUP), min_size=1, max_size=8),
    adjective_filter=st.booleans(),
)
# a class word before a phrase (kept under the filter) and before a one-word synonym (dropped)
@example(prefix="What color is the", words=["cat", "cell", "phone"], adjective_filter=False)
@example(prefix="What color is the", words=["cat", "cell", "phone"], adjective_filter=True)
@example(prefix="What color is the", words=["cat", "phone"], adjective_filter=False)
@example(prefix="What color is the", words=["cat", "phone"], adjective_filter=True)
def test_extraction_matches_full_scan_reference(obj_vocab, type_table, prefix, words,
                                                adjective_filter):
    question = q(f"{prefix} {' '.join(words)}?")
    present = extract_objects(question, obj_vocab, type_table, adjective_filter).present
    assert present == full_scan_extract(question, obj_vocab, type_table, adjective_filter)


@pytest.mark.parametrize("text, adjective_filter, expected", [
    ("What color is the cat cell phone", False, {"cat", "cell phone"}),
    ("What color is the cat cell phone", True, {"cat", "cell phone"}),
    ("What color is the cat phone", False, {"cat", "cell phone"}),
    ("What color is the cat phone", True, {"cell phone"}),
])
def test_a_word_next_to_a_phrase(obj_vocab, type_table, text, adjective_filter, expected):
    assert extract_objects(q(text), obj_vocab, type_table, adjective_filter).present == expected


@settings(max_examples=100)
@given(
    questions=st.lists(st.tuples(
        st.sampled_from(["What color is the", "How many", "Is there a", "Is it", "What is",
                         "Why is the"]),
        st.lists(st.sampled_from(_PHRASE_SOUP), min_size=1, max_size=6)), max_size=5),
    adjective_filter=st.booleans(),
)
def test_image_extraction_is_the_union_of_full_scans(obj_vocab, type_table, questions,
                                                      adjective_filter):
    image = [q(f"{prefix} {' '.join(words)}?", qid=i) for i, (prefix, words) in enumerate(questions)]
    expected = set().union(*(full_scan_extract(x, obj_vocab, type_table, adjective_filter)
                             for x in image))
    assert extract_objects_multi(image, obj_vocab, type_table, adjective_filter).present \
        == expected


def test_a_pass_never_matches_a_window_cut_short_by_the_question_end():
    # In the 4-gram pass the window at "q" holds only "q r s"; it must not match
    # the 3-word phrase ahead of the 3-gram pass, where "p q r" comes first.
    vocab = ObjectVocabulary([ObjectClass("p q r"), ObjectClass("q r s"), ObjectClass("w x y z")])
    table = QuestionTypeTable(confirmed=("what",), unconfirmed=("is",))
    question = q("what p q r s")
    assert extract_objects(question, vocab, table).present == {"p q r"}
    assert full_scan_extract(question, vocab, table) == {"p q r"}


class TestTextFiles:
    def test_json_writer_bytes(self, tmp_path):
        write_json(tmp_path / "a.json", {"b": [1, "\u00e9"], "a": None}, sort_keys=True)
        assert (tmp_path / "a.json").read_bytes() == (
            b'{\n "a": null,\n "b": [\n  1,\n  "\\u00e9"\n ]\n}\n')

    def test_line_writer_bytes_and_count(self, tmp_path):
        assert write_lines(tmp_path / "l.txt", iter(["x", "\u00e9", ""])) == 3
        assert (tmp_path / "l.txt").read_bytes() == b"x\n\xc3\xa9\n\n"
        assert write_lines(tmp_path / "e.txt", []) == 0
        assert (tmp_path / "e.txt").read_bytes() == b""

    def test_reader_translates_newlines(self, tmp_path):
        (tmp_path / "t.txt").write_bytes(b"a\r\nb\rc\n")
        assert read_text(tmp_path / "t.txt") == "a\nb\nc\n"

    def test_reader_rejects_bytes_that_do_not_decode(self, tmp_path):
        (tmp_path / "t.txt").write_bytes(b"ok\n\xff")
        with pytest.raises(ParseError, match=r"t\.txt: not UTF-8 text \(invalid start byte at byte 3\)"):
            read_text(tmp_path / "t.txt")
