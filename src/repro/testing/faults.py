"""Deterministic, seedable fault injectors.

Resilience claims are only testable when the faults are reproducible.
This module provides the injectors the ``tests/test_resilience.py`` and
``tests/test_analysis.py`` suites and ``benchmarks/bench_robustness.py``
build on:

* :class:`XMLCorruptor` — byte-level corruption of XML text that is
  *guaranteed* to make the strict parser reject the document (each
  mutation is verified; a deterministic fallback breaker is appended when
  a random mutation happens to leave the document well-formed),
* :class:`TornWriter` — simulates a crash mid-write by truncating a file
  at a deterministic cut point (what a power loss during a non-atomic
  write leaves behind),
* :class:`IndexCorruptor` — *semantic* corruption of saved index files
  with every CRC recomputed, producing consistent-but-wrong stores only
  the deep invariant audit (``gks check-index --deep``) can detect,
* :class:`StoreCorruptor` — the same idea aimed at segmented store
  directories (orphaned segments, regressed manifest generations, WAL
  damage, resealed bad segments) for the durability audit,
* :class:`FakeClock` — an injectable time source for
  :class:`repro.core.budget.SearchBudget`, so deadline tests never sleep,
* :class:`SlowEngine` — a delegating engine wrapper with injectable
  sleep, for serve-layer coalescing/overload tests that need a search to
  predictably dawdle,
* :class:`BurstyArrivals` — deterministic bursty arrival offsets for
  driving :class:`repro.serve.loadgen.OpenLoopSchedule`-style overload
  scenarios.

Everything is driven by :class:`random.Random` seeded explicitly; the same
seed always injects the same faults.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.errors import ValidationError, XMLSyntaxError
from repro.xmltree.parser import iter_events


class FakeClock:
    """A callable clock for deterministic deadline tests.

    Each call returns the current fake time and then advances it by
    ``auto_advance`` — so a budget polling the clock N times observes a
    monotonically increasing timeline without any real sleeping.
    """

    def __init__(self, start: float = 0.0, auto_advance: float = 0.0) -> None:
        self._now = start
        self.auto_advance = auto_advance
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        now = self._now
        self._now += self.auto_advance
        return now

    def advance(self, seconds: float) -> None:
        """Jump the clock forward manually."""
        self._now += seconds

    @property
    def now(self) -> float:
        return self._now


class SlowEngine:
    """A delegating engine wrapper that dawdles before every search.

    Duck-types :class:`~repro.core.engine.GKSEngine` by forwarding every
    attribute; only ``search`` / ``search_top_k`` are intercepted to
    sleep ``delay_s`` first and count the call.  The sleeper is
    injectable: pass ``sleeper=fake.advance`` with a :class:`FakeClock`
    to make "slowness" advance virtual time instantly, so serve-layer
    deadline and coalescing tests are deterministic and never block.

    ``calls`` counts *engine executions* — the observable singleflight
    coalescing guarantee is that N concurrent identical requests leave
    ``calls == 1``.
    """

    def __init__(self, engine, delay_s: float = 0.0,
                 sleeper=None) -> None:
        if delay_s < 0:
            raise ValidationError(f"delay_s must be >= 0: {delay_s}")
        if sleeper is None:
            import time

            sleeper = time.sleep
        self._engine = engine
        self.delay_s = delay_s
        self._sleep = sleeper
        self.calls = 0

    def __getattr__(self, name: str):
        return getattr(self._engine, name)

    def search(self, *args, **kwargs):
        self.calls += 1
        if self.delay_s:
            self._sleep(self.delay_s)
        return self._engine.search(*args, **kwargs)

    def search_top_k(self, *args, **kwargs):
        self.calls += 1
        if self.delay_s:
            self._sleep(self.delay_s)
        return self._engine.search_top_k(*args, **kwargs)


class BurstyArrivals:
    """Deterministic bursty arrival offsets for overload tests.

    Produces ``bursts`` clusters of ``burst_size`` arrivals each: the
    arrivals inside a cluster land ``jitter_s`` apart (effectively
    simultaneous relative to service time), clusters start ``gap_s``
    apart.  The seeded RNG only perturbs *which* cluster each jitter
    draw lands in — the same seed always yields the same offsets, so a
    test asserting "exactly N requests shed" replays identically.
    """

    def __init__(self, bursts: int, burst_size: int, gap_s: float,
                 jitter_s: float = 0.0, seed: int = 0) -> None:
        if bursts < 1:
            raise ValidationError(f"bursts must be >= 1: {bursts}")
        if burst_size < 1:
            raise ValidationError(f"burst_size must be >= 1: {burst_size}")
        if gap_s < 0:
            raise ValidationError(f"gap_s must be >= 0: {gap_s}")
        if jitter_s < 0:
            raise ValidationError(f"jitter_s must be >= 0: {jitter_s}")
        self.bursts = bursts
        self.burst_size = burst_size
        self.gap_s = gap_s
        self.jitter_s = jitter_s
        self._rng = random.Random(seed)

    def offsets(self) -> list[float]:
        """All arrival offsets from t=0, sorted ascending."""
        arrivals = []
        for burst in range(self.bursts):
            base = burst * self.gap_s
            for position in range(self.burst_size):
                jitter = (self._rng.uniform(0, self.jitter_s)
                          if self.jitter_s else 0.0)
                arrivals.append(base + position * 1e-9 + jitter)
        return sorted(arrivals)


class XMLCorruptor:
    """Seedable byte-level corruptor for XML documents.

    ``corrupt`` applies one randomly chosen mutation — dropping a closing
    tag, breaking a tag name, truncating the tail, injecting a stray
    ``<`` or unbalancing a quote — and verifies the result no longer
    strict-parses.  If the mutation accidentally left the document
    well-formed, a guaranteed breaker (a stray top-level closing tag) is
    appended instead, so every returned text is genuinely malformed.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    # -- individual mutations ------------------------------------------
    def _drop_closing_tag(self, text: str) -> str:
        closers = [i for i in range(len(text)) if text.startswith("</", i)]
        if not closers:
            return text
        start = self._rng.choice(closers)
        end = text.find(">", start)
        if end < 0:
            return text
        return text[:start] + text[end + 1:]

    def _break_tag_name(self, text: str) -> str:
        opens = [i for i in range(len(text))
                 if text[i] == "<" and i + 1 < len(text)
                 and text[i + 1].isalpha()]
        if not opens:
            return text
        position = self._rng.choice(opens) + 1
        return text[:position] + "<" + text[position + 1:]

    def _truncate_tail(self, text: str) -> str:
        if len(text) < 8:
            return text
        cut = self._rng.randrange(len(text) // 4, 3 * len(text) // 4)
        return text[:cut]

    def _stray_open(self, text: str) -> str:
        if not text:
            return "<"
        position = self._rng.randrange(len(text))
        return text[:position] + "<" + text[position:]

    def _unbalance_quote(self, text: str) -> str:
        quotes = [i for i, ch in enumerate(text) if ch == '"']
        if not quotes:
            return text
        position = self._rng.choice(quotes)
        return text[:position] + text[position + 1:]

    # -- public API -----------------------------------------------------
    def corrupt(self, text: str) -> str:
        """One deterministic, verified-malformed corruption of *text*."""
        mutation = self._rng.choice([
            self._drop_closing_tag, self._break_tag_name,
            self._truncate_tail, self._stray_open, self._unbalance_quote])
        mutated = mutation(text)
        if not self._is_malformed(mutated):
            # the mutation was a no-op or left the text well-formed:
            # append a stray top-level closing tag — always an error
            mutated = mutated + "</torn-injected>"
        return mutated

    @staticmethod
    def _is_malformed(text: str) -> bool:
        try:
            for _ in iter_events(text):
                pass
        except XMLSyntaxError:
            return True
        return False


def corrupt_corpus(texts: list[str], fraction: float,
                   seed: int = 0) -> tuple[list[str], set[int]]:
    """Corrupt a deterministic *fraction* of the corpus.

    Returns ``(mutated_texts, corrupted_positions)``; exactly
    ``round(len(texts) * fraction)`` documents are corrupted, chosen by
    the seeded RNG, each verified malformed.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError(f"fraction must be in [0, 1]: {fraction}")
    rng = random.Random(seed)
    count = round(len(texts) * fraction)
    victims = set(rng.sample(range(len(texts)), count))
    corruptor = XMLCorruptor(seed=rng.randrange(2 ** 31))
    mutated = [corruptor.corrupt(text) if position in victims else text
               for position, text in enumerate(texts)]
    return mutated, victims


class IndexCorruptor:
    """Semantic corruption of saved indexes that checksums cannot see.

    Where :class:`TornWriter` produces *structurally* broken files (bad
    gzip/CRC — ``load_index`` refuses them, ``gks check-index`` exits 1),
    this injector produces **consistent-but-wrong** files: it decodes
    the file through the codec that wrote it, edits the decoded tables
    and has the codec seal them again under *fresh CRCs*, so the file
    loads cleanly and only the deep invariant audit
    (:func:`repro.analysis.verify_store`, ``gks check-index --deep``,
    exit 2) can tell it from a healthy index.  Every method works on
    files of either codec, monolithic or sharded.

    Deferred imports keep :mod:`repro.testing` importable without the
    index layer loaded.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def _edit(self, path: str | Path, mutate) -> Path:
        """Decode *path*, let ``mutate(decoded)`` damage it, reseal."""
        from repro.index.codec import sniff_codec

        codec = sniff_codec(path)
        decoded = codec.decode(path)
        mutate(decoded)
        return codec.encode(decoded, Path(path))

    def _pick_shard(self, decoded, table: str):
        """A shard of *decoded* whose *table* is non-empty."""
        shards = [shard for shard in decoded.shards
                  if getattr(shard, table)]
        if not shards:
            raise ValidationError(
                f"index file has no non-empty {table!r} to corrupt")
        return self._rng.choice(shards)

    # -- public API -----------------------------------------------------
    def corrupt_postings(self, path: str | Path) -> Path:
        """Break posting-list order in place (CRCs recomputed).

        Picks a posting list with at least two entries and either swaps
        its first and last entries (order violation) or duplicates an
        entry (strictness violation) — the seeded RNG decides.  The
        resulting file still loads (a raw load silently re-sorts it, a
        varint-dag block carries a fresh checksum), but the deep audit
        reports ``postings-sorted``.
        """
        def mutate(decoded) -> None:
            postings = self._pick_shard(decoded, "postings").postings
            plural = [keyword
                      for keyword, entries in sorted(postings.items())
                      if len(entries) >= 2]
            if not plural:
                # every list is a singleton: duplicate one entry
                keyword = self._rng.choice(sorted(postings))
                postings[keyword].append(postings[keyword][0])
                return
            entries = postings[self._rng.choice(plural)]
            if self._rng.random() < 0.5:
                entries[0], entries[-1] = entries[-1], entries[0]
                if entries == sorted(entries):   # palindromic swap: force
                    entries.insert(0, entries[-1])
            else:
                entries.append(entries[self._rng.randrange(len(entries))])

        return self._edit(path, mutate)

    def drop_manifest_document(self, path: str | Path) -> Path:
        """Unassign one document from a sharded file's shard manifest.

        Removes a document id from its owning shard's ``doc_ids``, so
        the manifest no longer partitions the document set — the
        classic silent data-loss shape scatter-gather cannot detect at
        query time.  The deep audit reports ``shard-partition``.
        """
        def mutate(decoded) -> None:
            if decoded.layout != "sharded":
                raise ValidationError(f"{path} is not a sharded index file")
            shard = self._pick_shard(decoded, "doc_ids")
            doc_ids = list(shard.doc_ids)
            doc_ids.pop(self._rng.randrange(len(doc_ids)))
            shard.doc_ids = tuple(doc_ids)

        return self._edit(path, mutate)

    def skew_child_count(self, path: str | Path) -> Path:
        """Desynchronise a dual-role node's two hash-table counts.

        Finds a node present in both ``entityHash`` and ``elementHash``
        (in any shard) and bumps one side, violating
        ``hash-cross-consistency``.  When no dual-role node exists it
        negates a count in whichever table is populated — also a
        ``hash-cross-consistency`` violation.
        """
        def mutate(decoded) -> None:
            dual = [(shard, key) for shard in decoded.shards
                    for key in sorted(shard.entity.keys()
                                      & shard.element.keys())]
            if dual:
                shard, key = self._rng.choice(dual)
                shard.entity[key] += 1 + self._rng.randrange(3)
                return
            try:
                table = self._pick_shard(decoded, "entity").entity
            except ValidationError:
                table = self._pick_shard(decoded, "element").element
            key = self._rng.choice(sorted(table))
            table[key] = -abs(table[key]) - 1

        return self._edit(path, mutate)


class StoreCorruptor:
    """Fault injection aimed at a segmented store directory.

    Mirrors :class:`IndexCorruptor` for the durable write path: every
    method damages a ``store_path`` directory in a way that is invisible
    to a naive reader but caught by
    :func:`repro.analysis.verify_segmented_store` (``gks check-index
    --deep`` on the directory, exit 2) — except where noted, where the
    structural check itself (exit 1) must refuse the store.

    Deferred imports keep :mod:`repro.testing` importable without the
    index layer loaded.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    @staticmethod
    def _read_manifest_envelope(directory: Path) -> dict:
        from repro.index.storage import read_json_gz

        return read_json_gz(directory / "MANIFEST", "store manifest")

    @staticmethod
    def _write_manifest_envelope(directory: Path, envelope: dict) -> Path:
        from repro.index.storage import atomic_write_json_gz, payload_crc32

        envelope["crc32"] = payload_crc32(envelope["manifest"])
        return atomic_write_json_gz(envelope, directory / "MANIFEST")

    def _segment_files(self, directory: Path) -> list[Path]:
        from repro.index.segments import SEGMENT_PATTERN

        return sorted(path for path in directory.iterdir()
                      if SEGMENT_PATTERN.match(path.name))

    # -- public API -----------------------------------------------------
    def orphan_segment(self, directory: str | Path) -> Path:
        """Plant an unreferenced segment file (``segment-orphan``).

        Copies an existing segment under a generation the manifest never
        issued — the residue of a crash the store failed to clean, or a
        manifest that lost a reference.
        """
        directory = Path(directory)
        segments = self._segment_files(directory)
        if not segments:
            raise ValidationError(f"{directory} holds no segment to copy")
        source = self._rng.choice(segments)
        orphan = directory / "seg-g999999-s0.gksindex"
        orphan.write_bytes(source.read_bytes())
        return orphan

    def regress_generation(self, directory: str | Path) -> Path:
        """Rewind the manifest generation to 0 (``manifest-generation``).

        The manifest CRC is resealed, so only the generation invariant
        — not a checksum — can notice the regression.
        """
        directory = Path(directory)
        envelope = self._read_manifest_envelope(directory)
        envelope["manifest"]["generation"] = 0
        return self._write_manifest_envelope(directory, envelope)

    def corrupt_wal_magic(self, directory: str | Path) -> Path:
        """Flip the WAL magic (``wal-consistency`` / structural refusal).

        Unlike a torn tail this cannot result from a crash: replay
        raises ``corrupted`` and the audit reports the log as
        non-replayable.
        """
        directory = Path(directory)
        path = directory / "wal.log"
        data = bytearray(path.read_bytes())
        if not data:
            raise ValidationError(f"{path} is empty")
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        return path

    def corrupt_segment_postings(self, directory: str | Path) -> Path:
        """Break a segment's posting order with every CRC resealed.

        Reuses :meth:`IndexCorruptor.corrupt_postings` on one segment,
        then rewrites the manifest's file CRC for that segment — the
        structural check passes end to end and only the deep payload
        audit (``postings-sorted``) can tell the store is wrong.
        """
        from repro.index.segments import file_crc32

        directory = Path(directory)
        segments = self._segment_files(directory)
        if not segments:
            raise ValidationError(f"{directory} holds no segment")
        victim = self._rng.choice(segments)
        IndexCorruptor(seed=self._rng.randrange(2 ** 31)) \
            .corrupt_postings(victim)
        envelope = self._read_manifest_envelope(directory)
        for record in envelope["manifest"].get("segments", ()):
            if record.get("file") == victim.name:
                record["crc32"] = file_crc32(victim)
        self._write_manifest_envelope(directory, envelope)
        return victim


class TornWriter:
    """Simulates a crash mid-write: the file keeps only a prefix.

    This is what a non-atomic ``save_index`` would leave behind after a
    power loss — the storage layer's atomic temp-file + rename protocol
    plus the embedded checksum must turn such remnants into a clean
    :class:`~repro.errors.StorageError` rather than a half-loaded index.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def tear(self, path: str | Path, fraction: float | None = None) -> Path:
        """Truncate *path* in place at a deterministic cut point.

        ``fraction`` pins the cut (0 < fraction < 1); omitted, a random
        cut inside the middle half of the file is chosen.
        """
        path = Path(path)
        data = path.read_bytes()
        if fraction is None:
            cut = self._rng.randrange(max(1, len(data) // 4),
                                      max(2, 3 * len(data) // 4))
        else:
            if not 0.0 < fraction < 1.0:
                raise ValidationError(f"fraction must be in (0, 1): {fraction}")
            cut = max(1, int(len(data) * fraction))
        path.write_bytes(data[:cut])
        return path

    def torn_copy(self, source: str | Path, destination: str | Path,
                  fraction: float | None = None) -> Path:
        """Write a torn copy of *source* at *destination*."""
        source, destination = Path(source), Path(destination)
        destination.write_bytes(source.read_bytes())
        return self.tear(destination, fraction=fraction)
