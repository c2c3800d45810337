"""Keyword tokenizer (paper §2.4).

"If text appearing under a 'text node' comprises multiple keywords, a
separate index entry is created for each of the keywords after stop words
removal and stemming."  The tokenizer is deliberately simple and fully
deterministic: it lower-cases, splits on non-alphanumeric boundaries, and
keeps embedded apostrophes/digits so author names, years and accession
numbers survive intact.
"""

from __future__ import annotations

import re
from typing import Iterator

# ``\w`` is ``str.isalnum`` plus the underscore (CPython's sre tests a
# str pattern's ``\w`` with Py_UNICODE_ISALNUM || '_'), so ``[^\W_]`` is
# exactly the class the tokenizer is defined by; tests/test_text.py holds
# the pattern to ``str.isalnum`` over every code point.
_WORDS = re.compile(r"[^\W_]+").findall


def tokenize(text: str) -> list[str]:
    """Split *text* into lower-cased word tokens.

    A token is a maximal run of alphanumeric characters; apostrophes and
    hyphens *inside* a word are treated as separators (``Jean-Marc`` →
    ``jean``, ``marc``), matching how inverted indexes for the paper's
    bibliographic queries must behave ("Jean-Marc Cadiou" is two keywords).
    Lower-casing is per token, after the split: ``İ`` lower-cases to ``i``
    plus a combining dot, which must not split the word it ends up in.
    """
    return [word.lower() for word in _WORDS(text)]


def iter_tokens(text: str) -> Iterator[str]:
    """Iterator form of :func:`tokenize`."""
    return iter(tokenize(text))
