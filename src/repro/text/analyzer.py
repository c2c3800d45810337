"""Analysis pipeline: tokenize → stop-word filter → stem (paper §2.4).

One :class:`Analyzer` instance is shared by the indexing engine and the
query parser so that query keywords and indexed keywords always normalise
identically.  Each stage can be switched off — the indexing ablation bench
(A3 in DESIGN.md) compares stemming on/off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.text.stemmer import memoise, porter_stem
from repro.text.stopwords import DEFAULT_STOPWORDS
from repro.text.tokenizer import tokenize

# tag -> keywords, one memo per ``use_stemming`` value (the only analyzer
# field a tag's keywords depend on).  Same contract as the stem memo in
# :mod:`repro.text.stemmer`: bounded, cleared on overflow, lock-free
# because a racing reader can only miss.  A corpus has a few dozen tags.
_TAG_KEYWORDS: tuple[dict[str, tuple[str, ...]], ...] = ({}, {})


@dataclass(frozen=True)
class Analyzer:
    """Deterministic text-normalisation pipeline.

    Parameters
    ----------
    use_stopwords:
        Drop English stop words (default on, as in the paper).
    use_stemming:
        Apply the Porter stemmer (default on, as in the paper).
    stopwords:
        The stop-word set; override for non-English corpora.
    """

    use_stopwords: bool = True
    use_stemming: bool = True
    stopwords: frozenset[str] = field(default=DEFAULT_STOPWORDS)

    def analyze(self, text: str) -> list[str]:
        """Normalise *text* into the list of index/query keywords.

        Order and multiplicity are preserved: the inverted index posts one
        entry per keyword occurrence.
        """
        keywords = tokenize(text)
        if self.use_stopwords:
            stopwords = self.stopwords
            keywords = [token for token in keywords
                        if token not in stopwords]
        if self.use_stemming:
            keywords = [stem for stem in map(porter_stem, keywords) if stem]
        return keywords

    def analyze_tag(self, tag: str) -> list[str]:
        """Normalise an element label for tag-name indexing.

        Tags are tokenized like text (``Dept_Name`` → ``dept``, ``name``)
        but never stop-word filtered: a tag called ``<for>`` must stay
        searchable.
        """
        memo = _TAG_KEYWORDS[self.use_stemming]
        keywords = memo.get(tag)
        if keywords is None:
            tokens = tokenize(tag)
            if self.use_stemming:
                tokens = [stem for stem in map(porter_stem, tokens) if stem]
            keywords = tuple(tokens)
            memoise(memo, tag, keywords)
        return list(keywords)

    def flags(self) -> dict:
        """The persisted form: the two switches every index format and
        the store manifest record (:meth:`from_flags` reads it back)."""
        return {"use_stopwords": self.use_stopwords,
                "use_stemming": self.use_stemming}

    @classmethod
    def from_flags(cls, flags: dict) -> "Analyzer":
        return cls(use_stopwords=bool(flags.get("use_stopwords", True)),
                   use_stemming=bool(flags.get("use_stemming", True)))


#: Default pipeline shared across the library.
DEFAULT_ANALYZER = Analyzer()
