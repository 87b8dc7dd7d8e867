"""Sliding images: ``EpPoint._sliding``, ``EpPoint._mirrored`` and the maps
built on them (block inverse, code images)."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipshift import (
    Alphabet,
    BlockCodeSpec,
    EpPoint,
    TransitionMap,
    UnknownSymbol,
    ZipShiftError,
    apply_code,
    full_space,
    higher_block,
    parse_point,
    random_point,
)
from test_codes import two_block_tables

letters = st.sampled_from(["a", "b", "0", "1", "0'"])
words = st.lists(letters, min_size=1, max_size=4).map(tuple)
maybe_words = st.lists(letters, min_size=0, max_size=4).map(tuple)


def bound(x: EpPoint, reach: int, stride: int) -> int:
    transients = len(x.left_transient) + len(x.right_transient)
    periods = len(x.left_period) + len(x.right_period)
    return 3 * (transients + reach + stride * periods)


@settings(max_examples=300, deadline=None)
@given(words, maybe_words, maybe_words, words, st.integers(1, 3), st.integers(0, 3))
def test_sliding_matches_its_rule(lp, lt, rt, rp, stride, reach):
    """The rule reads only letters i*stride .. i*stride + reach, and reads
    them differently on each side of the seam; the point it builds agrees
    with it far past both transients, and the rule is asked from index -1
    outward first, then from index 0 on."""
    x = EpPoint(lp, lt, rt, rp)
    asked = []

    def rule(i: int) -> str:
        asked.append(i)
        return ("L" if i < 0 else "R") + ".".join(x.window(i * stride, reach + 1))

    y = x._sliding(rule, reach, stride)
    n_left = sum(1 for i in asked if i < 0)
    assert asked == list(range(-1, -n_left - 1, -1)) + list(range(len(asked) - n_left))
    top = bound(x, reach, stride)
    for i in range(-top, top + 1):
        assert y.letter(i) == rule(i)


@settings(max_examples=300, deadline=None)
@given(words, maybe_words, maybe_words, words)
def test_mirrored_is_an_involution(lp, lt, rt, rp):
    x = EpPoint(lp, lt, rt, rp)
    m = x._mirrored()
    assert m._mirrored() == x
    top = bound(x, 0, 1)
    for i in range(-top, top + 1):
        assert m.letter(i) == x.letter(-1 - i)


def test_block_inverse_with_dotted_symbols():
    """Block letters join symbols with '.', so a symbol holding '.' must not
    be cut on it, and a letter outside the block alphabets is refused."""
    space = full_space(
        Alphabet(["p", "q"]),
        Alphabet(["a.b", "c"]),
        TransitionMap(1, {("a.b",): "p", ("c",): "q"}),
    )
    _, forward, inverse = higher_block(space, 2)
    rng = random.Random(0)
    for _ in range(50):
        x = random_point(space, rng)
        assert inverse(forward(x)) == x
    with pytest.raises(UnknownSymbol):
        inverse(parse_point("(z)* ; (c.c)*"))


def test_code_image_fails_nearest_the_seam(ex21):
    """A table changed after construction leaves an image block without a
    seam letter; the error names the block nearest the seam (deeper blocks
    such as 31 31 fail on other points)."""
    plus, minus = two_block_tables(ex21)
    spec = BlockCodeSpec(
        ex21,
        Alphabet(sorted(set(minus.values()))),
        Alphabet(["".join(u) for u in ex21.language(2)]),
        2,
        plus,
        minus,
        window=2,
    )
    spec.psi_plus[("2", "3")] = "31"
    with pytest.raises(ZipShiftError, match="22 31"):
        apply_code(spec, parse_point("(b)* ; (2 3)*"))
