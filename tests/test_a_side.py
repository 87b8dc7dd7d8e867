"""The A-side and seam languages, read by subset walks on the window graph,
against the image-set enumeration they replaced.

The oracle lists every admissible A'-word long enough, applies phi and
reads off the A-words and seam blocks; minimal forbidden A-words come from
all A-words up to the cutoff, pruned to those with no forbidden factor.
Spaces are drawn small and unconstrained: full, finite-type and sofic, at
most 4 letters, window n of 1 or 2, letters unused by the language, A-side
collisions and unreachable presentation vertices all occur.
"""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from zipshift import (
    Alphabet,
    NotFiniteType,
    TransitionMap,
    UnknownSymbol,
    full_space,
    is_admissible,
    random_point,
    sft_space,
    sofic_space,
)


def _live(vertices, succ) -> set:
    """Vertices with a successor and a predecessor, repeatedly."""
    alive = set(vertices)
    while True:
        keep = {v for v in alive if succ(v) & alive and any(v in succ(u) for u in alive)}
        if keep == alive:
            return alive
        alive = keep


def admissible_n_words(letters, n, forbidden=(), presentation=None) -> list[tuple]:
    """The n-words (n <= 2) occurring in bi-infinite sequences, found apart
    from the package so that the drawn transition table covers them."""
    if presentation is not None:
        names, edges = presentation
        out = {v: {(d, c) for s, d, c in edges if s == v} for v in names}
        alive = _live(names, lambda v: {d for d, _c in out[v]})
        level = {(v, ()) for v in alive}
        for _ in range(n):
            level = {(d, w + (c,)) for v, w in level for d, c in out[v] if d in alive}
        return sorted({w for _v, w in level})

    def ok(w):
        return not any(w[i : i + len(f)] == f for f in forbidden for i in range(len(w) - len(f) + 1))

    # Forbidden words have at most 3 letters, so 2-blocks see every constraint.
    blocks = [u for u in itertools.product(letters, repeat=2) if ok(u)]
    alive = _live(blocks, lambda u: {v for v in blocks if v[0] == u[1] and ok(u + v[1:])})
    return sorted({u[:n] for u in alive})


@st.composite
def spaces(draw):
    letters = [str(i) for i in range(draw(st.integers(1, 4)))]
    n = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["full", "sft", "sofic"]))
    letter = st.sampled_from(letters)
    forbidden: set[tuple] = set()
    presentation = None
    if kind == "sft":
        word = st.lists(letter, min_size=2, max_size=3).map(tuple)
        forbidden = draw(st.sets(word, min_size=1, max_size=4))
    if kind == "sofic":
        names = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
        vertex = st.sampled_from(names)
        edges = draw(st.lists(st.tuples(vertex, vertex, letter), min_size=1, max_size=8))
        presentation = (names, edges)
    domain = admissible_n_words(letters, n, forbidden, presentation)
    assume(domain)  # an empty language is no space
    a_letters = draw(st.permutations("abc"))[: draw(st.integers(1, 3))]
    table = {w: draw(st.sampled_from(a_letters)) for w in domain}
    alphabet_a = Alphabet([a for a in a_letters if a in table.values()])
    alphabet_aprime = Alphabet(letters)
    tm = TransitionMap(n, table)
    if kind == "full":
        return full_space(alphabet_a, alphabet_aprime, tm)
    if kind == "sft":
        return sft_space(alphabet_a, alphabet_aprime, tm, forbidden)
    return sofic_space(alphabet_a, alphabet_aprime, tm, *presentation)


def images(space, k: int) -> set[tuple]:
    return {space.tm.phi_extend(u) for u in space.language(k + space.n - 1)}


def seam_blocks(space, j: int, k: int) -> set[tuple]:
    return {
        (space.tm.phi_extend(u)[:j], u[j : j + k])
        for u in space.language(j + max(k, space.n - 1))
    }


def minimal_forbidden(space) -> set[tuple]:
    cutoff = max(2, space.step_k + space.n)
    bad = {
        w
        for length in range(2, cutoff + 1)
        for w in itertools.product(space.alphabet_a.symbols, repeat=length)
        if w not in images(space, length)
    }

    def contains(big, small):
        return any(big[i : i + len(small)] == small for i in range(len(big) - len(small) + 1))

    return {w for w in bad if not any(v != w and contains(w, v) for v in bad)}


def index_key(alphabet):
    return lambda w: tuple(alphabet.index(c) for c in w)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces())
def test_a_side_matches_image_sets(space):
    a_key, ap_key = index_key(space.alphabet_a), index_key(space.alphabet_aprime)
    a_letters = space.alphabet_a.symbols
    for k in range(1, 5):
        want = images(space, k)
        for w in itertools.product(a_letters, repeat=k):
            assert space.admissible_a_word(w) == (w in want)
        assert space.language(k, "a") == sorted(want, key=a_key)
    with pytest.raises(UnknownSymbol):
        space.admissible_a_word(("z",))
    # Seam blocks, with a letter outside both alphabets on each side.
    for k in range(1, 5):
        pairs = set()
        for j in range(1, k):
            want = seam_blocks(space, j, k - j)
            pairs |= want
            for a in itertools.product(a_letters + ("z",), repeat=j):
                for u in itertools.product(space.alphabet_aprime.symbols + ("z",), repeat=k - j):
                    assert space.mixed_admissible(a, u) == ((a, u) in want)
        order = sorted(pairs, key=lambda p: (len(p[0]), a_key(p[0]), ap_key(p[1])))
        assert space.language(k, "mixed") == order
    if space.kind == "sofic":
        with pytest.raises(NotFiniteType):
            space.derived_a_forbidden()
    else:
        assert space.derived_a_forbidden() == minimal_forbidden(space)


def test_first_question_lists_no_long_words():
    """A membership question on a fresh wide space reads the A-side off the
    window graph: no A'-language longer than the graph's width is listed."""
    forbidden = ["0 4 2 4", "3 2 4 1", "3 3 0 2", "4 1 2 1", "4 3 3 2", "5 4 1 2"]
    letters = [str(i) for i in range(6)]
    pairs = list(itertools.product(letters, repeat=2))
    space = sft_space(
        Alphabet(["a", "b", "c"]),
        Alphabet(letters),
        TransitionMap(2, {w: "abc"[i % 3] for i, w in enumerate(pairs)}),
        {tuple(w.split()) for w in forbidden},
    )
    assert space.memory() == 3
    assert is_admissible(space, random_point(space, random.Random(0)))
    ell0 = max(space.n - 1, space.step_k, 1)
    assert max(space._lang_cache) <= max(space.n, ell0)
