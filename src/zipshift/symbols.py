"""Alphabets, words, and the transition factor map.

Words are plain tuples of symbol strings; which alphabet a word is over is
implied by the slot it is used in (left/right side of a point, row/column of
a matrix, and so on).  A mixed word -- a block straddling the -1|0 boundary
-- is a pair ``(a_part, aprime_part)`` of such tuples.
"""
from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .errors import InvalidWord, UndefinedWindow, UnknownSymbol

Word = tuple[str, ...]

# On str patterns, \s matches exactly the characters str.isspace accepts.
_forbidden_char = re.compile(r"[\s();*]").search


def _check_symbol(sym: str) -> None:
    if not isinstance(sym, str) or not sym:
        raise InvalidWord(f"symbol must be a non-empty string, got {sym!r}")
    if _forbidden_char(sym):
        raise InvalidWord(
            f"symbol {sym!r} may not contain whitespace, parentheses, ';' or '*'"
        )


class _Value:
    """The base of the result types: an immutable value, equal to a value of its own
    class with equal fields, hashed as the tuple of its fields and shown as
    ``Name(field=value, ...)``.  The fields are the names a class annotates, in order,
    unless it lists them in ``_fields``.  Each ``__init__`` fills ``__dict__`` directly,
    as pickle and copy do, since assigning or deleting an attribute raises AttributeError."""

    def __init_subclass__(cls) -> None:
        if "_fields" not in vars(cls):
            cls._fields = tuple(cls.__annotations__)
        get = attrgetter(*cls._fields)
        cls._key = get if len(cls._fields) > 1 else lambda value: (get(value),)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            key = type(self)._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(type(self)._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Alphabet:
    """An ordered set of distinct symbol names.

    Order matters: it fixes matrix row/column order, candidate sort order and
    every other deterministic tie-break in the package.
    """

    def __init__(self, symbols: Iterable[str]):
        syms = list(symbols)
        for s in syms:
            _check_symbol(s)
        if len(set(syms)) != len(syms):
            raise InvalidWord(f"alphabet symbols must be distinct: {syms}")
        if not syms:
            raise InvalidWord("alphabet must be non-empty")
        self.symbols: tuple[str, ...] = tuple(syms)
        self._index = {s: i for i, s in enumerate(syms)}

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, sym: object) -> bool:
        return sym in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.symbols)})"

    def index(self, sym: str) -> int:
        try:
            return self._index[sym]
        except KeyError:
            raise UnknownSymbol(f"{sym!r} is not in alphabet {list(self.symbols)}")

    def key(self, word: Iterable[str]) -> tuple[int, ...]:
        """Sort key for a word: the tuple of symbol indices."""
        try:
            return tuple(map(self._index.__getitem__, word))
        except KeyError as e:
            raise UnknownSymbol(f"{e.args[0]!r} is not in alphabet {list(self.symbols)}")

    def check_word(self, word: Word) -> None:
        for s in word:
            if s not in self._index:
                raise UnknownSymbol(
                    f"{s!r} is not in alphabet {list(self.symbols)}"
                )


class TransitionMap:
    """The factor map from admissible length-n words over A' onto A.

    ``table`` maps every admissible n-word (tuple over A') to an A-symbol.
    Ontoness and domain-equals-language are validated by the space that owns
    the map, since both need the ambient language.
    """

    def __init__(self, n: int, table: Mapping[Word, str]):
        if n < 1:
            raise InvalidWord(f"window length must be positive, got {n}")
        tbl: dict[Word, str] = {}
        for w, a in table.items():
            w = tuple(w)
            if len(w) != n:
                raise InvalidWord(
                    f"table key {w} has length {len(w)}, expected {n}"
                )
            tbl[w] = a
        if not tbl:
            raise InvalidWord("transition table must be non-empty")
        self.n = n
        self.table: dict[Word, str] = tbl

    def __call__(self, window: Word) -> str:
        try:
            return self.table[tuple(window)]
        except KeyError:
            raise UndefinedWindow(
                f"window {' '.join(window)!r} is not in the transition domain"
            )

    def domain(self) -> set[Word]:
        return set(self.table)

    def values_used(self) -> set[str]:
        return set(self.table.values())

    def phi_extend(self, word: Word) -> Word:
        """Apply the map to every length-n window of ``word``.

        The result has length ``len(word) - n + 1``.
        """
        word = tuple(word)
        if len(word) < self.n:
            raise InvalidWord(
                f"word of length {len(word)} is shorter than the window {self.n}"
            )
        return tuple(self(word[i : i + self.n]) for i in range(len(word) - self.n + 1))

    def phi_preimages(self, a: str, alphabet_a: Alphabet | None = None) -> list[Word]:
        """All domain words mapped to ``a``, in table-key sorted order.

        When ``alphabet_a`` is given, unknown symbols raise UnknownSymbol
        even if they simply have an empty fiber.
        """
        if alphabet_a is not None and a not in alphabet_a:
            raise UnknownSymbol(f"{a!r} is not in alphabet {list(alphabet_a.symbols)}")
        hits = [w for w, v in self.table.items() if v == a]
        if alphabet_a is None and not hits:
            raise UnknownSymbol(f"{a!r} is not a value of the transition map")
        return sorted(hits)

    def validate_onto(self, alphabet_a: Alphabet) -> None:
        missing = [a for a in alphabet_a if a not in self.values_used()]
        if missing:
            raise InvalidWord(
                f"transition map is not onto: {missing} never occur as values"
            )
        extra = self.values_used() - set(alphabet_a.symbols)
        if extra:
            raise UnknownSymbol(
                f"transition map values {sorted(extra)} are outside the A alphabet"
            )
