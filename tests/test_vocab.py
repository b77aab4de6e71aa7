import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsup.errors import EmptyCorpus, KTooLarge, UnknownMode
from qsup.qparse import Question, tokenize
from qsup.vocab import (
    BowVector,
    Vocabulary,
    WordTargetMode,
    bow_featurize,
    build_vocabulary,
    load_vocabulary,
    save_vocabulary,
    tfidf_rank,
    word_targets,
)


def corpus_from(texts, one_image_each=True):
    return [
        Question(f"q{i}", i if one_image_each else 1, text)
        for i, text in enumerate(texts)
    ]


class TestBuildVocabulary:
    def test_threshold_and_tie_order(self):
        vocab = build_vocabulary(corpus_from(["is the cat red", "is the cat big"]), min_count=2)
        assert vocab.words == ("cat", "is", "the")

    def test_threshold_can_empty_the_vocabulary(self):
        vocab = build_vocabulary(corpus_from(["a"]), min_count=2)
        assert vocab.words == ()

    def test_min_count_one_keeps_every_token(self):
        texts = ["red cat", "blue dog dog"]
        vocab = build_vocabulary(corpus_from(texts), min_count=1)
        assert set(vocab.words) == {"red", "cat", "blue", "dog"}
        assert vocab.words[0] == "dog"  # highest frequency first

    @given(st.lists(st.sampled_from(["red cat", "Cat, red!", "blue dog dog", "a", "the the the"]),
                    min_size=1, max_size=20), st.integers(1, 4))
    def test_counts_are_those_of_every_question(self, texts, min_count):
        counts = Counter(tok for text in texts for tok in tokenize(text))
        want = sorted((w for w, c in counts.items() if c >= min_count), key=lambda w: (-counts[w], w))
        assert build_vocabulary(corpus_from(texts), min_count).words == tuple(want)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary([], min_count=1)

    def test_deterministic(self):
        texts = ["what is the cat doing", "is the cat on the mat", "what mat"]
        first = build_vocabulary(corpus_from(texts))
        second = build_vocabulary(corpus_from(texts))
        assert first.words == second.words


class TestBowFeaturize:
    def test_direct_count(self):
        vocab = Vocabulary(["the", "cat"])
        bow = bow_featurize("the cat the", vocab)
        assert bow.entries == {0: 2, 1: 1}
        assert bow.total() == 3

    def test_oov_dropped(self):
        vocab = Vocabulary(["the", "cat"])
        assert bow_featurize("zebra", vocab).entries == {}

    @given(
        a=st.lists(st.sampled_from(["the", "cat", "sat", "zebra"]), max_size=8),
        b=st.lists(st.sampled_from(["the", "cat", "sat", "zebra"]), max_size=8),
    )
    def test_additivity(self, a, b):
        vocab = Vocabulary(["the", "cat", "sat"])
        joined = bow_featurize(" ".join(a) + " " + " ".join(b), vocab)
        parts = Counter(bow_featurize(" ".join(a), vocab).entries)
        parts.update(bow_featurize(" ".join(b), vocab).entries)
        assert joined.entries == parts

    @given(texts=st.lists(
        st.one_of(
            st.sampled_from(["a-", "-b", "", " ", "\t\n", "Σ", "ΑΣ", "ΟΔΟΣ.", "co-op's", "?!"]),
            st.text(alphabet="aBΣσς-.,'! \t", max_size=10),
        ),
        max_size=6,
    ))
    def test_joined_texts_bag_is_sum_of_per_text_bags(self, texts):
        # capital sigma lowercases by context: final "ς" or medial "σ"
        joined = " ".join(texts)
        words = set(tokenize(joined)).union(*(tokenize(t) for t in texts))
        vocab = Vocabulary(sorted(words))
        total = Counter()
        for text in texts:
            total.update(bow_featurize(text, vocab).entries)
        assert bow_featurize(joined, vocab).entries == total

    @given(tokens=st.lists(st.sampled_from(["the", "cat", "sat"]), max_size=8))
    def test_order_invariance(self, tokens):
        vocab = Vocabulary(["the", "cat", "sat"])
        assert bow_featurize(" ".join(tokens), vocab) == bow_featurize(
            " ".join(reversed(tokens)), vocab
        )

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            BowVector({5: 1}, vocab_size=2)
        with pytest.raises(ValueError):
            BowVector({0: 0}, vocab_size=2)


class TestTfidfRank:
    def test_everywhere_word_ranks_last_among_equal_tf(self):
        # "the" appears once in each of 3 docs; the others once in one doc
        texts = ["the cat", "the dog", "the bird"]
        vocab = Vocabulary(["the", "cat", "dog", "bird"])
        ranked = tfidf_rank(corpus_from(texts), vocab, k=4)
        assert ranked[-1] == "the"

    def test_full_k_is_permutation(self):
        texts = ["red cat cat", "blue dog", "red bird"]
        vocab = build_vocabulary(corpus_from(texts))
        ranked = tfidf_rank(corpus_from(texts), vocab, k=len(vocab))
        assert sorted(ranked) == sorted(vocab.words)

    def test_matches_brute_force(self):
        texts = ["red cat cat", "blue dog cat", "red bird"]
        corpus = corpus_from(texts)
        vocab = build_vocabulary(corpus)
        n_docs = len(texts)
        scores = {}
        for word in vocab.words:
            tf = sum(text.split().count(word) for text in texts)
            df = sum(word in text.split() for text in texts)
            scores[word] = tf * math.log(n_docs / (1 + df))
        expected = sorted(vocab.words, key=lambda w: (-scores[w], w))
        assert tfidf_rank(corpus, vocab, len(vocab)) == expected

    def test_k_too_large(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(KTooLarge):
            tfidf_rank(corpus_from(["a b"]), vocab, k=3)

    @given(k=st.integers(min_value=0, max_value=4))
    def test_topk_is_prefix_of_topk_plus_one(self, k):
        texts = ["red cat cat", "blue dog cat", "red bird", "bird bird blue"]
        corpus = corpus_from(texts)
        vocab = build_vocabulary(corpus)
        assert tfidf_rank(corpus, vocab, k) == tfidf_rank(corpus, vocab, k + 1)[:k]


class TestWordTargets:
    def test_full_mode_presence(self):
        vocab = Vocabulary(["cat", "red", "dog"])
        grouped = {7: [Question("q", 7, "is the cat red")]}
        words, (target,) = word_targets(grouped, WordTargetMode.FULL, vocab)
        assert words == ("cat", "red", "dog")
        assert target.image_id == 7
        assert target.indices == (0, 1)

    def test_zero_question_image(self):
        vocab = Vocabulary(["cat"])
        _, (target,) = word_targets({3: []}, "full", vocab)
        assert target.indices == ()

    def test_tfidf_mode_restricts(self):
        texts = ["red cat", "red dog", "red bird"]
        corpus = corpus_from(texts)
        vocab = build_vocabulary(corpus)
        grouped = {q.image_id: [q] for q in corpus}
        words, targets = word_targets(grouped, WordTargetMode.TFIDF_1024, vocab)
        assert words == tuple(tfidf_rank(corpus, vocab, len(vocab)))
        # vocab < 1024 words: every word keeps its place, and positions ascend
        assert [t.indices for t in targets] == [
            tuple(sorted(words.index(w) for w in text.split())) for text in texts]

    def test_classes80_delegates_to_extraction(self, obj_vocab, type_table):
        from qsup.qparse import extract_objects_multi

        questions = [Question("a", 5, "What color is the bus?")]
        grouped = {5: questions}
        words, (target,) = word_targets(
            grouped, WordTargetMode.CLASSES_80,
            object_vocab=obj_vocab, type_table=type_table,
        )
        expected = extract_objects_multi(questions, obj_vocab, type_table).as_vector
        assert words == obj_vocab.class_names
        assert target.indices == tuple(i for i, present in enumerate(expected) if present)
        assert target.indices == (obj_vocab.class_index["bus"],)

    def test_unknown_mode(self):
        with pytest.raises(UnknownMode):
            word_targets({}, "frequencies", Vocabulary(["a"]))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        vocab = Vocabulary(["what", "is", "the"])
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        assert load_vocabulary(path) == vocab
