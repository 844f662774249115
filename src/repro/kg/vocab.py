"""Vocabulary: a bidirectional mapping between symbols and integer ids.

KG embedding models and the neural substrate work on integer ids; the
construction pipeline works on string identifiers.  :class:`Vocabulary`
bridges the two with stable, insertion-ordered ids so that a graph built
twice from the same data produces identical id assignments.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List


class Vocabulary:
    """An append-only symbol table with O(1) lookups in both directions."""

    def __init__(self, symbols: Iterable[str] = ()) -> None:
        self._symbol_to_id: Dict[str, int] = {}
        self._id_to_symbol: List[str] = []
        for symbol in symbols:
            self.add(symbol)

    def add(self, symbol: str) -> int:
        """Add ``symbol`` if missing and return its id."""
        existing = self._symbol_to_id.get(symbol)
        if existing is not None:
            return existing
        new_id = len(self._id_to_symbol)
        self._symbol_to_id[symbol] = new_id
        self._id_to_symbol.append(symbol)
        return new_id

    def update(self, symbols: Iterable[str]) -> None:
        """Add every symbol in ``symbols``."""
        for symbol in symbols:
            self.add(symbol)

    def id_of(self, symbol: str) -> int:
        """Return the id of ``symbol``; raise ``KeyError`` if absent."""
        return self._symbol_to_id[symbol]

    def get(self, symbol: str, default: int | None = None) -> int | None:
        """Return the id of ``symbol`` or ``default`` when absent."""
        return self._symbol_to_id.get(symbol, default)

    def symbol_of(self, index: int) -> str:
        """Return the symbol with id ``index``."""
        return self._id_to_symbol[index]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._symbol_to_id

    def __len__(self) -> int:
        return len(self._id_to_symbol)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_symbol)

    def symbols(self) -> List[str]:
        """Return all symbols in id order (a copy)."""
        return list(self._id_to_symbol)
