"""Seeded inputs: corpora, query pools, request streams.

Everything the four workloads feed the program is made here from
``--seed`` and nothing else, as XML *text* and query *strings* — the
program under test receives only these.  Nothing in this module
imports ``repro``: a change to the program (its analyzer, its dataset
generators) cannot change what the benchmark asks of it.

Two properties keep a metric comparable from one seed to the next:

* sizes are fixed by the ``Scale`` and only contents are drawn, so
  every seed builds an index of (nearly) the same shape;
* query pools are *stratified*: query ``j`` always takes its terms from
  the same document-frequency ranks of the vocabulary, so its merged
  list ``|SL|`` — what the paper's Figs 8-10 show response time to
  depend on — is about the same whichever words the seed put there.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from math import gcd

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_SURNAMES = 160
_JOURNALS = 24
_DECK = 2000


@dataclass(frozen=True)
class Scale:
    """Sizes of everything a run touches (``FULL`` or ``SMOKE``)."""

    label: str
    vocabulary: int
    protein_entries: int        # query_inproc corpus (one document)
    serve_sites: int            # serve_http corpus
    serve_records: int
    cold_sites: int             # cold_open corpus
    cold_records: int
    ingest_sites: int           # ingest_mixed base corpus
    ingest_records: int
    feed_records: int           # records per fed document (~10 KB)
    feed_docs: int              # documents fed per repetition (+ a tail)
    inproc_pool: int            # distinct queries, query_inproc
    serve_pool: int             # distinct queries, serve_http
    serve_requests: int         # requests per repetition, serve_http
    cold_first: int             # rotating first queries, cold_open
    cold_warm: int              # warm queries per cycle, cold_open
    cold_pool: int              # distinct warm queries, cold_open
    cold_cycles: int            # load-and-answer cycles per repetition
    ingest_pool: int            # distinct read queries, ingest_mixed
    sample: int                 # queries in the sampled checks


FULL = Scale(label="full", vocabulary=2400, protein_entries=1500,
             serve_sites=16, serve_records=240,
             cold_sites=16, cold_records=200,
             ingest_sites=12, ingest_records=160, feed_records=36,
             feed_docs=32, inproc_pool=192, serve_pool=256,
             serve_requests=208, cold_first=4, cold_warm=32, cold_pool=128,
             cold_cycles=8, ingest_pool=48, sample=16)

SMOKE = Scale(label="smoke", vocabulary=600, protein_entries=120,
              serve_sites=4, serve_records=30,
              cold_sites=4, cold_records=30,
              ingest_sites=4, ingest_records=30, feed_records=8,
              feed_docs=24, inproc_pool=24, serve_pool=32,
              serve_requests=40, cold_first=2, cold_warm=4, cold_pool=8,
              cold_cycles=4, ingest_pool=12, sample=6)


@dataclass(frozen=True)
class Corpus:
    """One generated corpus, as the texts the program will parse."""

    name: str
    names: tuple[str, ...]          # document names
    texts: tuple[str, ...]          # one XML text per document
    frequency: dict[str, int]       # word -> text nodes holding it

    @property
    def xml_bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for text in self.texts)

    def ladder(self) -> list[str]:
        """Vocabulary, most frequent first (ties alphabetical)."""
        return sorted(self.frequency,
                      key=lambda word: (-self.frequency[word], word))


@dataclass(frozen=True)
class QuerySpec:
    """One query as a user would type it."""

    text: str
    s: int
    width: int


@dataclass(frozen=True)
class FeedDocument:
    """One document fed to ``add_document``; ``guid`` occurs nowhere
    else, so finding it after recovery proves the write survived."""

    name: str
    text: str
    guid: str


class _Words:
    """The seed's vocabulary, dealt with Zipf(1) frequencies.

    The word list depends on the seed alone, so every corpus of one
    seed (base sites, fed documents) shares it and reads keep matching
    as a store grows.  Words are *dealt* from shuffled decks rather
    than drawn one by one: each deck of ``_DECK`` words holds rank ``r``
    exactly ``_DECK / (H * (r + 1))`` times (the fraction decided by a
    coin), so a word's frequency — and with it the cost of a query for
    it — is nearly the same under every seed.
    """

    def __init__(self, seed: int, size: int, rng: random.Random) -> None:
        spell = random.Random(f"gksbench-words-{seed}")
        words: dict[str, None] = {}
        while len(words) < size:
            word = "".join(spell.choice(_CONSONANTS) + spell.choice(_VOWELS)
                           for _ in range(spell.randint(2, 3)))
            # a closing consonant keeps the pseudo-words off the English
            # stop-word list, whatever list the analyzer uses
            words[word + spell.choice(_CONSONANTS)] = None
        self.words = list(words)
        harmonic = sum(1.0 / (rank + 1) for rank in range(size))
        self._shares = [_DECK / (harmonic * (rank + 1))
                        for rank in range(size)]
        self._rng = rng
        self._deck: list[str] = []

    def text(self, count: int) -> str:
        drawn = []
        for _ in range(count):
            if not self._deck:
                for word, share in zip(self.words, self._shares):
                    copies = int(share) + (self._rng.random() < share % 1)
                    self._deck += [word] * copies
                self._rng.shuffle(self._deck)
            drawn.append(self._deck.pop())
        return " ".join(drawn)

    def surname(self) -> str:
        return self.words[-1 - self._rng.randrange(_SURNAMES)] + "ov"


_TEXT_NODE = re.compile(r">([^<>]+)<")


def _frequency(texts: tuple[str, ...]) -> dict[str, int]:
    """Word -> number of text nodes holding it, over *texts*."""
    frequency: dict[str, int] = {}
    for text in texts:
        for body in _TEXT_NODE.findall(text):
            for word in set(body.split()):
                if word.isalpha():
                    frequency[word] = frequency.get(word, 0) + 1
    return frequency


def _element(tag: str, body: str) -> str:
    return f"<{tag}>{body}</{tag}>"


def protein_corpus(seed: int, scale: Scale) -> Corpus:
    """One large document of protein entries (SwissProt-shaped: the
    corpus of the paper's Figs 8-10), keyword frequencies Zipf-skewed
    so merged lists span two orders of magnitude."""
    rng = random.Random(f"gksbench-protein-{seed}")
    words = _Words(seed, scale.vocabulary, rng)
    journals = [f"{words.words[i * 7 % scale.vocabulary]} letters"
                for i in range(_JOURNALS)]
    entries = []
    for number in range(scale.protein_entries):
        parts = [_element("ac", f"P{number:05d}"),
                 _element("descr", words.text(rng.randint(6, 10)))]
        for _ in range(rng.randint(1, 3)):
            ref = [_element("author", words.surname())
                   for _ in range(rng.randint(1, 3))]
            ref.append(_element("title", words.text(rng.randint(4, 8))))
            ref.append(_element("journal", rng.choice(journals)))
            ref.append(_element("year", str(rng.randint(1985, 2005))))
            parts.append(_element("ref", "".join(ref)))
        parts.append(_element("org", _element("genus", words.text(1))
                              + _element("species", words.text(1))))
        parts.append(_element("keywords", "".join(
            _element("keyword", words.text(1))
            for _ in range(rng.randint(1, 3)))))
        parts.append(_element("features", "".join(
            _element("domain",
                     _element("from", str(rng.randint(1, 400)))
                     + _element("to", str(rng.randint(401, 900)))
                     + _element("note", words.text(3)))
            for _ in range(rng.randint(1, 3)))))
        entries.append(_element("entry", "".join(parts)))
    texts = (_element("proteins", "".join(entries)),)
    return Corpus("protein", ("proteins",), texts, _frequency(texts))


def _record(words: _Words, rng: random.Random, guid: str) -> str:
    topics = "".join(_element("topic", words.text(1))
                     for _ in range(rng.randint(2, 4)))
    return _element("record", (
        _element("guid", guid)
        + _element("title", words.text(rng.randint(4, 7)))
        + _element("summary", words.text(rng.randint(8, 16)))
        + _element("author", words.surname())
        + _element("year", str(rng.randint(1998, 2014)))
        + topics))


def mirror_corpus(seed: int, name: str, sites: int, records: int,
                  vocabulary: int) -> Corpus:
    """A federation of sites republishing one pool of records verbatim
    (the shape DAG compression is built for): one document per site,
    each carrying 60-90 % of the pool plus a few local notes."""
    rng = random.Random(f"gksbench-{name}-{seed}")
    words = _Words(seed, vocabulary, rng)
    pool = [_record(words, rng, f"rec{number:05d}")
            for number in range(records)]
    # shares of the pool spread evenly over 60-90 %, in seeded order:
    # every seed's federation has the same total size
    shares = [60 + 30 * site // max(1, sites - 1) for site in range(sites)]
    rng.shuffle(shares)
    names, texts = [], []
    for site in range(sites):
        keep = max(1, records * shares[site] // 100)
        chosen = sorted(rng.sample(range(records), keep))
        local = "".join(
            _element("announcement",
                     _element("title", words.text(rng.randint(3, 6)))
                     + _element("body", words.text(rng.randint(6, 12))))
            for _ in range(rng.randint(2, 5)))
        names.append(f"site-{site:03d}")
        texts.append(_element("site", (
            _element("name", f"mirror{site:03d}")
            + _element("channel", "".join(pool[n] for n in chosen))
            + _element("local", local))))
    return Corpus(name, tuple(names), tuple(texts),
                  _frequency(tuple(texts)))


def feed_documents(seed: int, count: int, scale: Scale
                   ) -> list[FeedDocument]:
    """Documents for ``add_document``: the vocabulary and shape of the
    mirror sites, fresh records, one unique guid keyword each."""
    rng = random.Random(f"gksbench-feed-{seed}")
    words = _Words(seed, scale.vocabulary, rng)
    documents = []
    for number in range(count):
        guid = f"fed{seed}x{number:04d}"
        body = "".join(_record(words, rng, f"new{number:04d}r{r:02d}")
                       for r in range(scale.feed_records))
        text = _element("site", (_element("name", guid)
                                 + _element("channel", body)))
        documents.append(FeedDocument(f"feed-{number:04d}", text, guid))
    return documents


def query_pool(corpus: Corpus, count: int,
               widths: tuple[int, ...] = (2, 4, 8)) -> list[QuerySpec]:
    """*count* distinct queries climbing the document-frequency ladder.

    The ladder is cut into geometric bands (ranks 0-1, 2-3, 4-7, ...).
    Query ``j`` has width ``widths[j % len(widths)]``; its first term
    comes from band ``j`` (cycling, head to tail) and the others from
    the torso, so ``|SL|`` is set by ``j`` and spans the whole range.
    Positions inside the bands are fixed too: the seed decides which
    *words* hold those ranks, not which ranks a query asks for, so one
    pool costs about the same under every seed.
    """
    ladder = corpus.ladder()
    bands = []
    low = 0
    while low < len(ladder):
        high = min(len(ladder), max(low + 2, low * 2))
        bands.append(ladder[low:high])
        low = high
    head = bands[:max(1, len(bands) - 3)]
    torso = bands[3:max(4, len(bands) - 2)]
    pool: dict[str, QuerySpec] = {}
    j = 0
    while len(pool) < count:
        width = widths[j % len(widths)]
        turn = j // len(widths)
        band = head[turn % len(head)]
        terms = [band[turn // len(head) % len(band)]]
        slot = 0
        while len(terms) < width:
            band = torso[(j + slot) % len(torso)]
            word = band[(turn + 7 * slot) % len(band)]
            slot += 1
            if word not in terms:
                terms.append(word)
        text = " ".join(terms)
        pool.setdefault(text, QuerySpec(text, max(1, width // 2), width))
        j += 1
    return list(pool.values())


def zipf_deal(size: int, draws: int) -> list[tuple[int, bool]]:
    """*draws* request cards ``(popularity rank in [0, size), top_k)``,
    Zipf(1.0).  Like the words, the cards are dealt, not drawn: rank
    ``r`` holds its exact share ``draws / (H * (r + 1))`` of the deck,
    the fractions of the tail rounded along the running total, and the
    cards alternate full-result and top-k.  The deck and its order are
    the workload's, not the seed's: which request finds its answer
    cached is the same in every run, and the seed decides what the
    queries and the documents say.  (With drawn ranks the hit count
    moved the median request, which sits where the latencies are
    sparse, by 15 % from seed to seed.)"""
    harmonic = sum(1.0 / (rank + 1) for rank in range(size))
    cards: list[tuple[int, bool]] = []
    total = 0.0
    for rank in range(size):
        total += draws / (harmonic * (rank + 1))
        while len(cards) < round(total):
            cards.append((rank, len(cards) % 2 == 1))
    random.Random("gksbench-zipf").shuffle(cards)
    return cards


def rank_to_pool(rank: int, size: int) -> int:
    """Popularity rank -> pool position, the same for every seed: the
    hot set always holds the same mix of narrow and wide queries, so
    the cache-hit share of the latency does not depend on the seed."""
    stride = 37
    while gcd(stride, size) != 1:
        stride += 2
    return rank * stride % size
