"""Unit tests for the text-analysis substrate (tokenizer, stop words,
Porter stemmer, analyzer pipeline)."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import analyzer as analyzer_module
from repro.text import stemmer
from repro.text.analyzer import Analyzer
from repro.text.stemmer import porter_stem
from repro.text.stopwords import DEFAULT_STOPWORDS, is_stopword
from repro.text.tokenizer import iter_tokens, tokenize


def reference_tokens(text: str) -> list[str]:
    """The character loop the compiled pattern replaced — the tokenizer's
    definition: maximal ``str.isalnum`` runs, lower-cased per token."""
    tokens = []
    word_start = -1
    for index, char in enumerate(text):
        if char.isalnum():
            if word_start < 0:
                word_start = index
        elif word_start >= 0:
            tokens.append(text[word_start:index].lower())
            word_start = -1
    if word_start >= 0:
        tokens.append(text[word_start:].lower())
    return tokens


#: characters where ``\\w``, ``isalnum``, ``isalpha`` and ``lower()`` part ways
AWKWARD = "İıſ²½①Ⅷ一_-'.:\u0301\u0307\u200d aZ9\n\t"


class TestTokenizer:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello World") == ["hello", "world"]

    def test_hyphen_and_punctuation_split(self):
        assert tokenize("Jean-Marc Cadiou!") == ["jean", "marc", "cadiou"]

    def test_digits_kept_whole(self):
        assert tokenize("year 2001, vol. 2") == ["year", "2001", "vol", "2"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("... --- !!!") == []

    def test_unicode_words(self):
        assert tokenize("Bergström") == ["bergström"]

    @given(st.text() | st.text(alphabet=AWKWARD))
    @settings(max_examples=300, deadline=None)
    def test_pattern_equals_the_character_loop(self, text):
        assert tokenize(text) == reference_tokens(text)
        assert list(iter_tokens(text)) == reference_tokens(text)

    def test_pattern_class_is_isalnum_on_every_code_point(self):
        points = [chr(point) for point in range(sys.maxunicode + 1)]
        alnum = [char for char in points if char.isalnum()]
        # every alphanumeric character is a token when it stands alone ...
        assert tokenize(" ".join(alnum)) == [c.lower() for c in alnum]
        # ... and no run of the others contains one
        assert tokenize("".join(char for char in points
                                if not char.isalnum())) == []


class TestStopwords:
    def test_function_words_flagged(self):
        for word in ("the", "and", "of", "is"):
            assert is_stopword(word)

    def test_content_words_kept(self):
        # QM2 searches for the tags 'country' and 'name'
        for word in ("country", "name", "year", "search"):
            assert not is_stopword(word)

    def test_stopword_set_is_lowercase(self):
        assert all(word == word.lower() for word in DEFAULT_STOPWORDS)


# reference pairs from the published Porter test vocabulary
PORTER_VOCABULARY = [
        ("caresses", "caress"), ("ponies", "poni"), ("cats", "cat"),
        ("agreed", "agre"), ("plastered", "plaster"), ("motoring", "motor"),
        ("hopping", "hop"), ("falling", "fall"), ("filing", "file"),
        ("happy", "happi"), ("sky", "sky"), ("relational", "relat"),
        ("conditional", "condit"), ("digitizer", "digit"),
        ("operator", "oper"), ("feudalism", "feudal"),
        ("decisiveness", "decis"), ("triplicate", "triplic"),
        ("formative", "form"), ("electrical", "electr"),
        ("hopeful", "hope"), ("goodness", "good"), ("revival", "reviv"),
        ("allowance", "allow"), ("inference", "infer"),
        ("adjustable", "adjust"), ("replacement", "replac"),
        ("adoption", "adopt"), ("activate", "activ"),
        ("effective", "effect"), ("rate", "rate"), ("cease", "ceas"),
        ("controll", "control"), ("roll", "roll"),
        ("publications", "public"), ("searching", "search"),
]
#: what a corpus deals besides words: numbers, ids, short and long tokens
NON_WORDS = ["2001", "p53", "is", "ab", "", "bergström", "x" * 40]


@pytest.fixture
def tiny_memos(monkeypatch):
    """Both analysis memos emptied and capped at five entries."""
    monkeypatch.setattr(stemmer, "MEMO_CAP", 5)
    memos = (stemmer._STEMS, *analyzer_module._TAG_KEYWORDS)
    saved = [dict(memo) for memo in memos]
    for memo in memos:
        memo.clear()
    yield memos
    for memo, entries in zip(memos, saved):
        memo.clear()
        memo.update(entries)


class TestPorterStemmer:
    @pytest.mark.parametrize("word,stem", PORTER_VOCABULARY)
    def test_reference_vocabulary(self, word, stem):
        assert porter_stem(word) == stem

    def test_memo_answers_what_the_algorithm_answers(self, tiny_memos):
        words = [word for word, _ in PORTER_VOCABULARY] + NON_WORDS
        # three rounds over 40+ words through a five-entry memo: every
        # word is answered cold, from the memo, and across overflows
        for _ in range(3):
            for word in words:
                assert porter_stem(word) == stemmer._stem(word)
                assert len(stemmer._STEMS) <= 5
        assert "x" * 40 not in stemmer._STEMS  # too long for a slot

    def test_memo_under_eight_threads(self, tiny_memos):
        expected = dict(PORTER_VOCABULARY)
        words = list(expected) * 20
        wrong: list[tuple[str, str]] = []

        def stem_all(offset: int) -> None:
            for word in words[offset:] + words[:offset]:
                if porter_stem(word) != expected[word]:
                    wrong.append((word, porter_stem(word)))
                tags = Analyzer().analyze_tag(f"{word}_{word}")
                if tags != [expected[word]] * 2:
                    wrong.append((word, tags))

        threads = [threading.Thread(target=stem_all, args=(7 * n,))
                   for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        # check-then-store is not atomic: each racing thread can overshoot
        # the cap by the one entry it was about to store, no more
        assert all(len(memo) <= 5 + len(threads) for memo in tiny_memos)

    def test_short_words_unchanged(self):
        assert porter_stem("is") == "is"
        assert porter_stem("ab") == "ab"

    def test_non_alpha_unchanged(self):
        assert porter_stem("2001") == "2001"
        assert porter_stem("p53") == "p53"

    def test_common_stems_are_stable(self):
        # Porter is not idempotent in general ("databases" → "databas" →
        # "databa"); these stems, however, are fixed points and queries
        # rely on them matching the indexed form.
        words = ["relational", "searching", "happiness", "organization",
                 "probabilistic"]
        for word in words:
            once = porter_stem(word)
            assert porter_stem(once) == once


class TestAnalyzer:
    def test_full_pipeline(self):
        analyzer = Analyzer()
        assert analyzer.analyze("The Publications of 2002 Science") == \
            ["public", "2002", "scienc"]

    def test_preserves_multiplicity(self):
        analyzer = Analyzer()
        assert analyzer.analyze("data data data") == ["data"] * 3

    def test_stemming_can_be_disabled(self):
        analyzer = Analyzer(use_stemming=False)
        assert analyzer.analyze("publications") == ["publications"]

    def test_stopwords_can_be_disabled(self):
        analyzer = Analyzer(use_stopwords=False, use_stemming=False)
        assert analyzer.analyze("the cat") == ["the", "cat"]

    def test_tags_skip_stopword_filter(self):
        analyzer = Analyzer()
        # a tag named <for> must stay searchable
        assert analyzer.analyze_tag("for") == ["for"]
        assert analyzer.analyze_tag("Dept_Name") == ["dept", "name"]

    def test_tag_memo_answers_what_the_pipeline_answers(self, tiny_memos):
        tags = ["Dept_Name", "for", "publications", "Jean-Marc", "year2001",
                "İd", "a" * 40, "", "_", "title", "author", "Courses"]
        for analyzer in (Analyzer(), Analyzer(use_stemming=False)):
            for _ in range(3):
                for tag in tags:
                    expected = [
                        porter_stem(token) if analyzer.use_stemming
                        else token for token in reference_tokens(tag)]
                    assert analyzer.analyze_tag(tag) == expected
        assert all(len(memo) <= 5 for memo in tiny_memos)
        # a caller may do what it likes with its list
        Analyzer().analyze_tag("title").append("mutated")
        assert Analyzer().analyze_tag("title") == ["titl"]
