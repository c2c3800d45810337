"""Porter stemmer, implemented from scratch (Porter, 1980).

The GKS indexing engine stems every keyword before it enters the inverted
index (paper §2.4), so queries such as ``{Publication 2002 Science}`` match
``publications`` in the data.  This is a faithful implementation of the
original five-step Porter algorithm (the 1980 ANSI-C reference behaviour,
including the m() measure on the y-as-vowel rule).

Only lower-case ASCII words are stemmed; anything containing a non-letter
(years, accession ids) is returned unchanged, which is what bibliographic
search needs — ``2001`` must stay ``2001``.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_consonant(word: str, index: int) -> bool:
    """Porter's cons(i): 'y' is a consonant only after a vowel position."""
    char = word[index]
    if char in _VOWELS:
        return False
    if char == "y":
        if index == 0:
            return True
        return not _is_consonant(word, index - 1)
    return True


def _measure(stem: str) -> int:
    """Porter's m(): number of VC sequences in the stem."""
    forms = []
    for index in range(len(stem)):
        forms.append("c" if _is_consonant(stem, index) else "v")
    shape = "".join(forms)
    # collapse runs, then count "vc" transitions
    collapsed = []
    for symbol in shape:
        if not collapsed or collapsed[-1] != symbol:
            collapsed.append(symbol)
    return "".join(collapsed).count("vc")


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, index) for index in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    if len(word) < 2 or word[-1] != word[-2]:
        return False
    return _is_consonant(word, len(word) - 1)


def _ends_cvc(word: str) -> bool:
    """True for consonant-vowel-consonant ending where the last consonant
    is not w, x or y (Porter's *o condition)."""
    if len(word) < 3:
        return False
    if not (_is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)):
        return False
    return word[-1] not in "wxy"


def _replace_suffix(word: str, suffix: str, replacement: str,
                    min_measure: int) -> str | None:
    """Replace *suffix* when the remaining stem has m() > *min_measure*.

    Returns the new word, or ``None`` when the rule does not fire.
    """
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + replacement
    return word  # suffix matched but condition failed: rule consumed


def _step_1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step_1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return word[:-1]
        return word
    flag = False
    if word.endswith("ed"):
        stem = word[:-2]
        if _contains_vowel(stem):
            word = stem
            flag = True
    elif word.endswith("ing"):
        stem = word[:-3]
        if _contains_vowel(stem):
            word = stem
            flag = True
    if not flag:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step_1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
    ("ation", "ate"), ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
    ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3_RULES = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4_SUFFIXES = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _apply_rule_list(word: str, rules: list[tuple[str, str]]) -> str:
    for suffix, replacement in rules:
        if word.endswith(suffix):
            result = _replace_suffix(word, suffix, replacement, 0)
            assert result is not None
            return result
    return word


def _step_4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) <= 1:
                return word
            if suffix == "ion" and stem and stem[-1] not in "st":
                return word
            return stem
    return word


def _step_5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        measure = _measure(stem)
        if measure > 1 or (measure == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step_5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


#: Fixed bound of the analysis memos (this one and the analyzer's tag
#: memo): entries, and the longest key worth a slot — together they bound
#: the bytes held.  A memo that fills up is cleared and refills from the
#: live vocabulary.
MEMO_CAP = 1 << 15
MEMO_KEY_LEN = 32
# token -> stem.  Deliberately lock-free: the values are pure functions of
# the keys, and ``get``, item assignment and ``clear`` are each atomic under
# the interpreter lock — a lookup racing a store or an overflow-clear can
# only miss and recompute the same string, never read a wrong one (and
# overshoot the cap by at most the one entry each racing thread stores).
_STEMS: dict[str, str] = {}


def memoise(memo: dict, key: str, value) -> None:
    """Store ``memo[key] = value`` under the bound above (misses only)."""
    if len(key) <= MEMO_KEY_LEN:
        if len(memo) >= MEMO_CAP:
            memo.clear()
        memo[key] = value


def porter_stem(token: str) -> str:
    """Stem one lower-case token with the Porter algorithm.

    Tokens shorter than three characters or containing non-letters are
    returned unchanged (the reference implementation's convention).
    Repeats are answered from a bounded memo: a corpus deals its tokens
    from a vocabulary orders of magnitude smaller than its length.
    """
    stem = _STEMS.get(token)
    if stem is None:
        stem = _stem(token)
        memoise(_STEMS, token, stem)
    return stem


def _stem(token: str) -> str:
    """The five Porter steps, un-memoised."""
    if len(token) <= 2 or not token.isalpha() or not token.isascii():
        return token
    word = _step_1a(token)
    word = _step_1b(word)
    word = _step_1c(word)
    word = _apply_rule_list(word, _STEP2_RULES)
    word = _apply_rule_list(word, _STEP3_RULES)
    word = _step_4(word)
    word = _step_5a(word)
    word = _step_5b(word)
    return word
