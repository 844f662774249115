"""Serialization of triples and benchmark splits.

Three formats are supported:

* **TSV** — one ``head<TAB>relation<TAB>tail`` line per triple; this is the
  format the public OpenBG benchmark releases use for train/dev/test files.
* **N-Triples-like** — ``<head> <relation> <tail> .`` lines with CURIEs
  expanded through the namespace table, approximating the RDF output the
  paper produces through Apache Jena.
* **Store directory** — the binary memory-mapped columnar layout
  (:mod:`repro.kg.mmap_backend`): interner tables plus ``int64`` column /
  index files under one directory, reopened zero-copy by
  :meth:`ColumnarBackend.open <repro.kg.backend.ColumnarBackend.open>`.  Unlike the text formats
  this round-trips the *indexes* too, so a bulk-loaded graph can be
  queried from disk without re-interning or re-sorting anything.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List

from repro.errors import SerializationError, StorageError
from repro.kg.namespaces import NAMESPACES
from repro.kg.triple import Triple

#: TSV field escaping: symbols may legally contain the characters TSV
#: uses as structure (tabs, newlines), so they are backslash-escaped on
#: write and restored on read.  Without this, a tab inside a symbol
#: silently mis-splits the row and a newline forges extra rows.
_TSV_ESCAPE_TABLE = str.maketrans({
    "\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r",
})
_TSV_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def escape_tsv_field(field: str) -> str:
    """Backslash-escape TSV structure characters inside one field.

    Public so other TSV emitters (the CLI's binding output) share the
    exact escaping :func:`write_tsv` uses.
    """
    return field.translate(_TSV_ESCAPE_TABLE)


def _unescape_tsv_field(field: str, where: str) -> str:
    if "\\" not in field:
        return field
    out: List[str] = []
    index, length = 0, len(field)
    while index < length:
        char = field[index]
        if char != "\\":
            out.append(char)
            index += 1
            continue
        if index + 1 >= length:
            raise StorageError(f"{where}: dangling backslash at end of field")
        escape = field[index + 1]
        replacement = _TSV_UNESCAPES.get(escape)
        if replacement is None:
            raise StorageError(f"{where}: invalid escape sequence '\\{escape}'")
        out.append(replacement)
        index += 2
    return "".join(out)


def write_tsv(triples: Iterable[Triple], path: str | Path) -> int:
    """Write triples as TSV; returns the number of lines written.

    Tabs, newlines, carriage returns and backslashes inside symbols are
    backslash-escaped so every triple stays exactly one three-field row.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for triple in triples:
            handle.write(f"{escape_tsv_field(triple.head)}\t"
                         f"{escape_tsv_field(triple.relation)}\t"
                         f"{escape_tsv_field(triple.tail)}\n")
            count += 1
    return count


def read_tsv(path: str | Path) -> List[Triple]:
    """Read triples from a TSV file written by :func:`write_tsv`.

    Raises :class:`~repro.errors.StorageError` (a
    :class:`~repro.errors.SerializationError`) on malformed rows —
    wrong field counts or invalid escape sequences — instead of
    guessing at a split.
    """
    path = Path(path)
    triples: List[Triple] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise StorageError(
                    f"{path}:{line_number}: expected 3 tab-separated fields, got {len(parts)}"
                )
            where = f"{path}:{line_number}"
            triples.append(Triple(*(_unescape_tsv_field(part, where)
                                    for part in parts)))
    return triples


def write_ntriples(triples: Iterable[Triple], path: str | Path) -> int:
    """Write triples in an N-Triples-like format with expanded URIs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for triple in triples:
            head = NAMESPACES.expand(triple.head)
            relation = NAMESPACES.expand(triple.relation)
            tail = NAMESPACES.expand(triple.tail)
            handle.write(f"<{head}> <{relation}> <{tail}> .\n")
            count += 1
    return count


def read_ntriples(path: str | Path) -> List[Triple]:
    """Read triples written by :func:`write_ntriples`, compacting URIs back."""
    path = Path(path)
    triples: List[Triple] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not line.endswith("."):
                raise SerializationError(f"{path}:{line_number}: missing terminating '.'")
            body = line[:-1].strip()
            parts = body.split(" ", 2)
            if len(parts) != 3:
                raise SerializationError(f"{path}:{line_number}: malformed statement")
            cleaned = []
            for part in parts:
                part = part.strip()
                if not (part.startswith("<") and part.endswith(">")):
                    raise SerializationError(f"{path}:{line_number}: expected <uri> terms")
                cleaned.append(NAMESPACES.compact(part[1:-1]))
            triples.append(Triple(*cleaned))
    return triples


def write_store_dir(triples: "Iterable[Triple] | TripleStore",
                    directory: str | Path) -> Path:
    """Persist triples as a memory-mapped store directory.

    Accepts either a :class:`~repro.kg.store.TripleStore` (saved via its
    backend) or any iterable of triples (bulk-loaded through an
    in-memory columnar backend first).  Returns the directory path.
    """
    from repro.kg.store import TripleStore

    if not isinstance(triples, TripleStore):
        triples = TripleStore(triples)
    return triples.save(directory)


def read_store_dir(directory: str | Path) -> "TripleStore":
    """Open a store directory as a disk-backed :class:`TripleStore`.

    The store reopens as a columnar store with a mapped base.  Raises
    :class:`~repro.errors.StorageError` when the directory is missing,
    truncated, corrupt, or written by an incompatible format version.
    """
    from repro.kg.store import TripleStore

    return TripleStore.open(directory)


def write_split_json(splits: Dict[str, List[Triple]], path: str | Path) -> None:
    """Write a benchmark split (train/dev/test) as a single JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        name: [triple.as_tuple() for triple in triples]
        for name, triples in splits.items()
    }
    path.write_text(json.dumps(payload, ensure_ascii=False, indent=1), encoding="utf-8")


def read_split_json(path: str | Path) -> Dict[str, List[Triple]]:
    """Read a benchmark split written by :func:`write_split_json`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: invalid JSON: {exc}") from exc
    result: Dict[str, List[Triple]] = {}
    for name, rows in payload.items():
        result[name] = [Triple(*row) for row in rows]
    return result
