"""Exception hierarchy for the zipshift library.

Every library-raised error derives from ZipShiftError so callers (and the
CLI) can distinguish domain failures from programming errors.
"""
from __future__ import annotations


class ZipShiftError(Exception):
    """Base class for all domain errors raised by this package."""


class UnknownSymbol(ZipShiftError):
    """A symbol does not belong to the expected alphabet."""


class UndefinedWindow(ZipShiftError):
    """A length-n window fell outside the transition map's domain."""


class InvalidWord(ZipShiftError):
    """A word is malformed or inadmissible where admissibility is required."""


class NotFiniteType(ZipShiftError):
    """The operation needs a finite-type (or full) space presentation."""


class NotInSpace(ZipShiftError):
    """A point is not a member of the space it was used with."""


class InvalidCode(ZipShiftError):
    """A sliding block code's tables fail their consistency requirements."""


class Unrealizable(ZipShiftError):
    """An itinerary code has an empty rectangle intersection."""


class GeometryError(ZipShiftError):
    """Horseshoe construction parameters produce overlapping branches, or a
    built model fails the Markov identities or the stable-string chain."""


class EscapedSquare(ZipShiftError):
    """An iterate left the union of branch rectangles.

    The offending iteration index is stored on ``step`` (negative for
    backward steps).
    """

    def __init__(self, step: int):
        super().__init__(f"iterate {step} left all branch rectangles")
        self.step = step


class BadLetter(ZipShiftError):
    """A letter is outside the alphabet a horseshoe operation supports."""
