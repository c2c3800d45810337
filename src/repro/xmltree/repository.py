"""Multi-document XML repository (paper §2.4).

"The XML data could be spread over multiple files. … GKS search is
seamlessly expanded over multiple documents by prefixing Dewey ids with
corresponding document id."  A :class:`Repository` owns a list of documents
with consecutive document numbers and resolves any Dewey id back to its
node.  It is the unit the indexing engine and all experiments operate on;
the hybrid-query experiment (§7.6) merges two corpora into one repository,
and the scalability experiment (Fig. 10) replicates a corpus inside one.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from repro.errors import (DocumentLoadError,
                          IngestFailure,
                          ValidationError,
                          XMLSyntaxError)
from repro.obs.metrics import global_registry
from repro.obs.trace import DEFAULT_CLOCK
from repro.xmltree import dewey as dw
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.parser import (RecoveryPolicy, SalvageLog,
                                  parse_document)
from repro.xmltree.tree import XMLDocument

__all__ = ["IngestFailure", "Repository", "Source", "TextCheck",
           "ingest_document", "path_sources", "text_sources"]


def _ingest_counter(name: str, help: str):
    return global_registry().counter(f"gks_ingest_{name}_total", help=help)


class Source(NamedTuple):
    """One corpus item read but not yet ingested: its text (or the error
    that kept it from being read), the document's name and what
    quarantine calls it."""

    text: str | None
    name: str | None = None
    label: str | None = None
    error: DocumentLoadError | None = None


def text_sources(texts: Iterable[str]) -> list[Source]:
    """XML texts as sources, labelled by position."""
    return [Source(text, label=f"text[{offset}]")
            for offset, text in enumerate(texts)]


def path_sources(paths: Iterable[str | Path],
                 encoding: str = "utf-8") -> list[Source]:
    """Read corpus files (one document per file) as sources; an
    unreadable or undecodable file becomes a :class:`DocumentLoadError`
    naming it."""
    sources = []
    for path in map(Path, paths):
        try:
            text = path.read_text(encoding=encoding)
        # ValueError: undecodable bytes
        except (OSError, ValueError) as exc:
            sources.append(Source(None, path.name,
                                  error=_load_error(path, exc)))
        else:
            sources.append(Source(text, path.name))
    return sources


def _load_error(path: Path, exc: Exception) -> DocumentLoadError:
    error = DocumentLoadError(f"cannot read corpus file {path}: {exc}",
                              path=path)
    error.__cause__ = exc
    return error


class TextCheck:
    """The builder of an open whose index is already on disk: each text
    is only checked (the strict loop, no tree, no index) and enters the
    repository text-backed."""

    @staticmethod
    def add_document_unchecked(document: XMLDocument) -> None:
        if not document.parsed:
            document.stream(None, None)  # no consumers: the check alone


def ingest_document(text: str, doc_id: int, name: str | None = None,
                    attributes_as_children: bool = True,
                    policy: RecoveryPolicy = RecoveryPolicy.STRICT,
                    salvage_log: SalvageLog | None = None,
                    builder=None) -> XMLDocument:
    """Read one XML document bound for a repository — a corpus text, an
    added document or a recovered one — filing the read in
    ``gks_ingest_parse_seconds`` (beside ``gks_index_build_seconds``).

    With a *builder* (an ``IndexBuilder``, a ``ShardedBuilder`` or
    :class:`TextCheck`) the document is text-backed — its tree built on
    the first read of ``.root`` — and ``builder.add_document_unchecked``
    streams its text: one scan is the check and the index.  Without one,
    or under ``SALVAGE`` (only the parser repairs), it is parsed into a
    tree, which the builder replays.

    A document that does not parse raises, untimed, and the builder has
    taken it back.  It is counted as ingested only when it enters the
    repository: ``Repository.add(document, text=text)``.
    """
    started = DEFAULT_CLOCK()
    if builder is None or policy is RecoveryPolicy.SALVAGE:
        document = parse_document(
            text, doc_id=doc_id,
            attributes_as_children=attributes_as_children, name=name,
            policy=policy, salvage_log=salvage_log)
    else:
        document = XMLDocument(
            None, name, text=text, doc_id=doc_id,
            attributes_as_children=attributes_as_children)
    if builder is not None:
        builder.add_document_unchecked(document)
    global_registry().histogram(
        "gks_ingest_parse_seconds",
        help="Wall time of parsing one document.").observe(
            DEFAULT_CLOCK() - started)
    return document


class Repository:
    """An ordered collection of XML documents sharing one Dewey id space.

    Ingestion accepts a :class:`RecoveryPolicy`:

    * ``strict`` (default) — the first malformed document aborts the build;
    * ``skip_document`` — malformed (or unreadable) documents land in
      :attr:`quarantine` as :class:`IngestFailure` records and the rest of
      the corpus builds normally;
    * ``salvage`` — documents are repaired by the recovering parser where
      possible; the unsalvageable ones are quarantined.
    """

    def __init__(self, documents: Iterable[XMLDocument] = ()) -> None:
        self._documents: list[XMLDocument] = []
        self.ingest_failures: list[IngestFailure] = []
        #: CRC32 of the documents' UTF-8 texts in order (``None`` once
        #: one entered without its text)
        self.corpus_crc32: int | None = 0
        for document in documents:
            self.add(document)

    @property
    def quarantine(self) -> list[IngestFailure]:
        """The documents that did not survive ingestion."""
        return list(self.ingest_failures)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, document: XMLDocument,
            text: str | None = None) -> XMLDocument:
        """Add *document*; its doc number must equal its position.

        Given the *text* it was parsed from, the document and its bytes
        are counted once in ``gks_ingest_documents_total`` /
        ``gks_ingest_bytes_total`` — every way a text enters a repository
        (``parse``, ``GKSEngine.add_document``, store recovery) comes
        through here, and extends :attr:`corpus_crc32`.
        """
        expected = len(self._documents)
        if document.doc_id != expected:
            raise ValidationError(
                f"document {document.name!r} has doc id {document.doc_id}, "
                f"expected {expected}; use add_root()/parse to renumber")
        self._documents.append(document)
        if text is None:
            self.corpus_crc32 = None
        else:
            if self.corpus_crc32 is not None:
                self.corpus_crc32 = zlib.crc32(
                    text.encode("utf-8", "surrogatepass"), self.corpus_crc32)
            _ingest_counter("documents",
                            "Documents successfully ingested").inc()
            _ingest_counter("bytes",
                            "Bytes of document text ingested").inc(len(text))
        return document

    def add_root(self, root: XMLNode, name: str | None = None) -> XMLDocument:
        """Wrap *root* (renumbered if needed) as the next document."""
        doc_id = len(self._documents)
        if root.dewey != (doc_id,):
            document = XMLDocument(root, name=name).renumber(doc_id, name=name)
        else:
            document = XMLDocument(root, name=name)
        self._documents.append(document)
        self.corpus_crc32 = None
        return document

    def parse(self, text: str, name: str | None = None,
              attributes_as_children: bool = True,
              policy: RecoveryPolicy | str = RecoveryPolicy.STRICT,
              label: str | None = None) -> XMLDocument | None:
        """Parse *text* as the next document of the repository.

        Under ``skip_document`` (and under ``salvage`` when even the
        recovering parser finds nothing to keep) a malformed document is
        quarantined and ``None`` is returned instead of raising.  *label*
        names the document in quarantine reports when *name* is unset.
        """
        return self._ingest(Source(text, name, label),
                            RecoveryPolicy.coerce(policy), None,
                            attributes_as_children)

    def ingest(self, sources: Iterable[Source],
               policy: RecoveryPolicy | str = RecoveryPolicy.STRICT,
               builder=None) -> None:
        """Append *sources* in order through :func:`ingest_document`
        with *builder*.  Under a non-strict *policy* one that cannot be
        read or parsed is quarantined instead of aborting the ingest.
        """
        policy = RecoveryPolicy.coerce(policy)
        for source in sources:
            self._ingest(source, policy, builder)

    def _ingest(self, source: Source, policy: RecoveryPolicy, builder,
                attributes_as_children: bool = True) -> XMLDocument | None:
        text, name, error = source.text, source.name, source.error
        salvage_log = SalvageLog()
        if error is None:
            try:
                document = ingest_document(
                    text, len(self._documents), name,
                    attributes_as_children, policy, salvage_log, builder)
            except XMLSyntaxError as exc:
                error = exc
        if error is not None:
            if policy is RecoveryPolicy.STRICT:
                raise error
            self.ingest_failures.append(IngestFailure(
                name=source.label or name or f"text[{len(self._documents)}]",
                error=error, position=(error.position_text()
                                       if isinstance(error, XMLSyntaxError)
                                       else "")))
            _ingest_counter("quarantined_documents",
                            "Documents quarantined during ingestion").inc()
            return None
        self.add(document, text=text)
        if salvage_log:
            _ingest_counter(
                "salvage_repairs",
                "Markup repairs made by the salvaging parser"
            ).inc(len(salvage_log))
        return document

    @classmethod
    def from_texts(cls, texts: Iterable[str],
                   policy: RecoveryPolicy | str = RecoveryPolicy.STRICT,
                   ) -> "Repository":
        """Build a repository by parsing several XML strings.

        Under a non-strict *policy* malformed texts are quarantined on
        :attr:`quarantine` instead of aborting the whole build.
        """
        repository = cls()
        repository.ingest(text_sources(texts), policy)
        return repository

    @classmethod
    def from_paths(cls, paths: Iterable[str | Path],
                   encoding: str = "utf-8",
                   policy: RecoveryPolicy | str = RecoveryPolicy.STRICT,
                   ) -> "Repository":
        """Build a repository from corpus files on disk (one doc per file).

        Every file is parsed as XML.  An unreadable or undecodable file
        raises :class:`DocumentLoadError` naming the offending path
        (strict policy) or is quarantined alongside parse failures
        otherwise.
        """
        repository = cls()
        repository.ingest(path_sources(paths, encoding), policy)
        return repository

    def extend_replicated(self, times: int) -> "Repository":
        """Return a new repository with every document replicated *times*.

        ``times=1`` copies the repository as-is; ``times=3`` yields a corpus
        three times the size — the Fig. 10 scalability workload.
        """
        if times < 1:
            raise ValidationError(f"replication factor must be >= 1: {times}")
        replicated = Repository()
        replicated.corpus_crc32 = None
        for round_no in range(times):
            for document in self._documents:
                doc_id = len(replicated._documents)
                replicated._documents.append(
                    document.renumber(doc_id,
                                      name=f"{document.name}#{round_no}"))
        return replicated

    @staticmethod
    def merged(*repositories: "Repository") -> "Repository":
        """Concatenate repositories into one shared Dewey space (§7.6)."""
        merged = Repository()
        merged.corpus_crc32 = None
        for repository in repositories:
            for document in repository:
                doc_id = len(merged._documents)
                merged._documents.append(
                    document.renumber(doc_id, name=document.name))
        return merged

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[XMLDocument]:
        return iter(self._documents)

    def __len__(self) -> int:
        return len(self._documents)

    def __getitem__(self, doc_id: int) -> XMLDocument:
        return self._documents[doc_id]

    @property
    def documents(self) -> list[XMLDocument]:
        return list(self._documents)

    def node_at(self, dewey: Dewey) -> XMLNode | None:
        """Resolve a repository-wide Dewey id to its node."""
        doc_id = dw.document_of(dewey)
        if doc_id >= len(self._documents):
            return None
        return self._documents[doc_id].node_at(dewey)

    def tag_path(self, dewey: Dewey) -> tuple[str, ...] | None:
        """The labels from *dewey*'s document root down to it, from the
        document's label-path rows (``None`` where :meth:`node_at` is)."""
        doc_id = dw.document_of(dewey)
        if doc_id >= len(self._documents):
            return None
        return self._documents[doc_id].tag_path(dewey)

    def iter_nodes(self) -> Iterator[XMLNode]:
        """All element nodes of all documents, in global document order."""
        for document in self._documents:
            yield from document.root.iter_subtree()

    @property
    def total_nodes(self) -> int:
        return sum(len(document) for document in self._documents)

    @property
    def depth(self) -> int:
        """Maximum depth over all documents (the ``d`` of §4.2)."""
        if not self._documents:
            return 0
        return max(document.depth for document in self._documents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Repository docs={len(self._documents)}>"
