from __future__ import annotations

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zipshift import (
    Alphabet,
    InvalidWord,
    NotFiniteType,
    TransitionMap,
    full_space,
    is_admissible,
    point_from_lift,
    sft_space,
)
from zipshift.space import _prune_superwords


def words(space, k, side="aprime"):
    return {" ".join(w) for w in space.language(k, side=side)}


def test_construction_basics(ex21, even, sigma_f):
    assert ex21.kind == "sft" and ex21.n == 1 and ex21.step_k == 1
    assert ex21.memory() == 1
    assert sigma_f.kind == "full" and sigma_f.step_k == 0
    assert even.kind == "sofic" and even.n == 2
    assert even.presentation_vertices == ("P", "Q")


def test_construction_rejections():
    a2 = Alphabet(["a", "b"])
    p2 = Alphabet(["1", "2"])
    with pytest.raises(InvalidWord):
        # not onto: b never occurs as a value
        full_space(a2, p2, TransitionMap(1, {("1",): "a", ("2",): "a"}))
    with pytest.raises(InvalidWord):
        # table misses an admissible window
        full_space(a2, p2, TransitionMap(1, {("1",): "a"}))
    with pytest.raises(InvalidWord):
        # table covers a word the forbidden set kills
        sft_space(
            a2,
            p2,
            TransitionMap(1, {("1",): "a", ("2",): "b"}),
            {("1", "2"), ("2", "2"), ("2", "1")},
        )
    with pytest.raises(InvalidWord):
        sft_space(a2, p2, TransitionMap(1, {("1",): "a", ("2",): "b"}), set())


def test_language_ex21(ex21):
    assert words(ex21, 1) == {"1", "2", "3"}
    assert words(ex21, 2) == {"1 2", "2 2", "2 3", "3 1", "3 2"}
    assert words(ex21, 2, side="a") == {"a b", "b a", "b b"}
    assert ex21.admissible_word(("3", "1", "2"))
    assert not ex21.admissible_word(("1", "1"))
    assert not ex21.admissible_word(("2", "1"))
    assert not ex21.admissible_a_word(("a", "a"))
    assert ex21.admissible_a_word(("b", "b", "a"))


def test_language_even(even):
    assert words(even, 2) == {"1 1", "1 0", "0 1", "0 0"}
    assert not even.admissible_word(("1", "0", "1"))
    assert even.admissible_word(("1", "0", "0", "1"))
    assert not even.admissible_word(("1", "0", "0", "0", "1"))
    assert even.admissible_word(("0", "0", "0", "0"))


@pytest.mark.parametrize(
    "name", ["ex21", "f3", "classical", "sigma_f", "sigma_g", "even", "five", "coding1", "coding2"]
)
def test_language_in_alphabet_order(request, name):
    """Languages are generated in order, not sorted: the order is still the
    one sorting by symbol indexes gives."""
    space = request.getfixturevalue(name)
    for k in range(1, 6):
        for side, alphabet in (("aprime", space.alphabet_aprime), ("a", space.alphabet_a)):
            got = space.language(k, side)
            assert got == sorted(set(got), key=lambda w: tuple(alphabet.index(c) for c in w))
            assert got == sorted(got, key=alphabet.key)


def test_language_full(sigma_f):
    assert len(sigma_f.language(3)) == 64
    assert sigma_f.admissible_word(("4", "4", "4"))


def test_mixed_admissible(ex21, even):
    assert ex21.mixed_admissible(("a",), ("2",))
    assert not ex21.mixed_admissible(("a",), ("1",))
    assert ex21.mixed_admissible(("b", "a"), ("2", "2"))
    assert not ex21.mixed_admissible(("a", "b"), ("1",))
    assert even.mixed_admissible(("b",), ("1",))
    assert not even.admissible_a_word(("c", "a"))
    assert even.mixed_admissible(("c", "b"), ("1",))


def test_derived_a_forbidden(ex21, f3):
    assert ex21.derived_a_forbidden() == {("a", "a")}
    assert f3.derived_a_forbidden() == set()


def test_matrices_ex21(ex21):
    ms = ex21.build_matrices()
    assert ms.k == 1 and ms.n_step == 1 and ms.m_step == 1
    assert ms.aprime_words == (("1",), ("2",), ("3",))
    assert ms.a_words == (("a",), ("b",))
    assert np.array_equal(ms.aprime_adj, np.array([[0, 1, 0], [0, 1, 1], [1, 1, 0]]))
    assert np.array_equal(ms.a_adj, np.array([[0, 1], [1, 1]]))
    assert np.array_equal(ms.t, np.array([[0, 1, 0], [1, 1, 1]]))


def test_matrices_full(sigma_f):
    ms = sigma_f.build_matrices()
    assert np.array_equal(ms.aprime_adj, np.ones((4, 4), dtype=ms.aprime_adj.dtype))


def test_matrices_sofic_rejected(even):
    with pytest.raises(NotFiniteType):
        even.build_matrices()


def test_count_periodic(ex21, sigma_f, classical):
    assert [ex21.count_periodic(m) for m in range(1, 6)] == [1, 3, 7, 11, 21]
    assert [sigma_f.count_periodic(m) for m in range(1, 4)] == [4, 16, 64]
    assert [classical.count_periodic(m) for m in range(1, 4)] == [2, 4, 8]


def test_irreducible(ex21, even, five):
    for space in (ex21, even, five):
        rep = space.is_irreducible()
        assert rep.is_irreducible
        assert rep.failing_pair is None
    wit = ex21.is_irreducible().witnesses
    assert wit is not None
    for (s, t), w in wit.items():
        assert w[0] == s and w[-1] == t
        assert ex21.admissible_word(w)


def test_reducible():
    space = sft_space(
        Alphabet(["a", "b"]),
        Alphabet(["1", "2"]),
        TransitionMap(1, {("1",): "a", ("2",): "b"}),
        {("2", "1")},
    )
    rep = space.is_irreducible()
    assert not rep.is_irreducible
    assert rep.failing_pair == ("2", "1")


def test_random_lift_deterministic(ex21, even):
    for space in (ex21, even):
        l1 = space.random_lift(random.Random(7))
        l2 = space.random_lift(random.Random(7))
        assert l1 == l2
        x = point_from_lift(space, l1)
        assert is_admissible(space, x)


_WITHOUT_NUMPY = """
import random, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from zipshift import (
    Alphabet, TransitionMap, is_admissible, periodic_points, preimages, random_point, sft_space,
)
ex21 = sft_space(
    Alphabet(["a", "b"]),
    Alphabet(["1", "2", "3"]),
    TransitionMap(1, {("1",): "a", ("2",): "b", ("3",): "b"}),
    {("1", "1"), ("1", "3"), ("2", "1"), ("3", "3")},
)
x = random_point(ex21, random.Random(0))
print(ex21.count_periodic(3), len(periodic_points(ex21, 3)))
print(bool(is_admissible(ex21, x)), len(preimages(ex21, x).points) > 0)
"""


def test_import_leaves_numpy_unloaded():
    """numpy is loaded by build_matrices alone, not by importing the package,
    and periodic points, admissibility and pre-images run without it."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cases = [
        ("import sys, zipshift; print('numpy' in sys.modules)", ["False"]),
        (_WITHOUT_NUMPY, ["7", "7", "True", "True"]),
    ]
    for script, want in cases:
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        ).stdout.split()
        assert out == want


def pairwise_prune(words: set) -> set:
    """The prune by comparing every pair of members."""

    def contains(big, small):
        return any(big[i : i + len(small)] == small for i in range(len(big) - len(small) + 1))

    return {w for w in words if not any(v != w and contains(w, v) for v in words)}


@given(st.sets(st.lists(st.sampled_from("abc"), min_size=1, max_size=5).map(tuple), max_size=12))
def test_prune_superwords_matches_pairwise(words):
    assert _prune_superwords(words) == pairwise_prune(words)

