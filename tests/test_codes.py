from __future__ import annotations

import random

import pytest

from zipshift import (
    Alphabet,
    BlockCodeSpec,
    InvalidCode,
    InvalidWord,
    apply_code,
    check_commutation,
    format_point,
    higher_block,
    higher_power,
    invert_code,
    is_admissible,
    parse_point,
    random_point,
    TransitionMap,
    full_space,
    shift,
    shift_k,
)


def two_block_tables(space):
    plus = {u: "".join(u) for u in space.language(2)}
    minus = {}
    for u in space.language(2):
        for a in space.alphabet_a:
            if space.mixed_admissible((a,), u):
                minus[(a,) + u] = a + space.tm((u[0],))
    return plus, minus


def two_block_spec(space):
    plus, minus = two_block_tables(space)
    target_a = Alphabet(sorted(set(minus.values())))
    target_aprime = Alphabet(["".join(u) for u in space.language(2)])
    return BlockCodeSpec(space, target_a, target_aprime, 1, plus, minus, window=2)


def projection_spec(sigma_f):
    target = Alphabet(["1", "2"])
    plus = {("1",): "1", ("2",): "2", ("3",): "1", ("4",): "2"}
    minus = {
        (a, w): a for a in ("a", "b") for w in ("1", "2", "3", "4")
    }
    return BlockCodeSpec(sigma_f, Alphabet(["a", "b"]), target, 1, plus, minus)


def test_two_block_spec_shape(ex21):
    spec = two_block_spec(ex21)
    assert spec.target.kind == "sofic"
    assert spec.target.alphabet_a.symbols == ("ab", "ba", "bb")
    assert spec.target.alphabet_aprime.symbols == ("12", "22", "23", "31", "32")


def test_apply_code(ex21):
    spec = two_block_spec(ex21)
    x = parse_point("(b)* ; (2 3)*")
    y = apply_code(spec, x)
    assert format_point(y) == "(bb)* ; (23 32)*"
    assert is_admissible(spec.target, y)


def test_check_commutation(ex21, sigma_f):
    assert check_commutation(two_block_spec(ex21), samples=60)
    assert check_commutation(projection_spec(sigma_f), samples=60)


def test_check_commutation_sample_count(ex21):
    """No sample count below zero; zero samples still screens the periodic
    points, which is where this corruption shows."""
    spec = two_block_spec(ex21)
    with pytest.raises(InvalidWord):
        check_commutation(spec, samples=-1)
    assert check_commutation(spec, samples=0)
    spec.psi_plus[("2", "3")] = "31"
    assert not check_commutation(spec, samples=0)


def test_corrupted_table_fails_with_witness(ex21):
    spec = two_block_spec(ex21)
    spec.psi_plus[("2", "3")] = "31"
    rep = check_commutation(spec, samples=60)
    assert not rep.ok
    assert rep.witness is not None


def test_incoherent_tables_rejected(ex21):
    plus, minus = two_block_tables(ex21)
    minus[("b", "2", "3")] = "ba"
    with pytest.raises(InvalidCode):
        BlockCodeSpec(
            ex21,
            Alphabet(["ab", "ba", "bb"]),
            Alphabet(["".join(u) for u in ex21.language(2)]),
            1,
            plus,
            minus,
            window=2,
        )


def test_invert_two_block(ex21):
    spec = two_block_spec(ex21)
    inv = invert_code(spec, max_window=2)
    assert inv
    assert inv.window == 1 and inv.m == 1
    rng = random.Random(2)
    for _ in range(20):
        x = random_point(ex21, rng)
        assert apply_code(inv, apply_code(spec, x)) == x
    y = apply_code(spec, parse_point("(b)* a ; 2 (2 3)*"))
    assert apply_code(spec, apply_code(inv, y)) == y


def test_invert_projection_not_found(sigma_f):
    spec = projection_spec(sigma_f)
    missing = invert_code(spec, max_window=2)
    assert not missing
    assert missing.max_window == 2
    with pytest.raises(InvalidWord, match="window bound must be >= 1, got 0"):
        invert_code(spec, max_window=0)


def test_higher_block_one_is_identity(ex21):
    space, fwd, inv = higher_block(ex21, 1)
    x = parse_point("(b)* ; (2 3)*")
    assert space.alphabet_aprime.symbols == ex21.alphabet_aprime.symbols
    assert fwd(x) == x and inv(x) == x


def test_higher_block_coding(coding1):
    space, fwd, inv = higher_block(coding1, 2)
    assert space.kind == "sft"
    assert space.alphabet_aprime.symbols == ("00", "01", "10", "11")
    assert space.alphabet_a.symbols == ("aa", "ab", "ba", "bb")
    x = parse_point("(a)* ; (0 1)*")
    assert format_point(fwd(x)) == "(aa)* ; (01 10)*"
    assert inv(fwd(x)) == x


def test_higher_block_round_trip(ex21, even, coding1):
    rng = random.Random(9)
    for src in (ex21, even, coding1):
        for N in (2, 3):
            space, fwd, inv = higher_block(src, N)
            for _ in range(15):
                x = random_point(src, rng)
                y = fwd(x)
                assert is_admissible(space, y)
                assert inv(y) == x
                assert fwd(shift(src, x)) == shift(space, y)


def test_higher_power(coding1, ex21):
    space, fwd = higher_power(coding1, 2)
    assert space.kind == "full"
    assert space.alphabet_aprime.symbols == ("00", "01", "10", "11")
    x = parse_point("(a)* ; (0 1)*")
    assert format_point(fwd(x)) == "(aa)* ; (01)*"
    rng = random.Random(4)
    for src, N in ((coding1, 2), (ex21, 2), (ex21, 3)):
        pspace, pfwd = higher_power(src, N)
        for _ in range(15):
            x = random_point(src, rng)
            y = pfwd(x)
            assert is_admissible(pspace, y)
            assert pfwd(shift_k(src, x, N)) == shift(pspace, y)


def test_block_names_stay_distinct_when_symbols_hold_the_joiner():
    """With A' = {a, a.b, b.a}, joining by "." names both a + b.a and a.b + a
    "a.b.a"; the recodings then join by a character no symbol holds."""
    letters = ["a", "a.b", "b.a"]
    space = full_space(Alphabet(["p"]), Alphabet(letters), TransitionMap(1, {(c,): "p" for c in letters}))
    rng = random.Random(5)
    for N in (2, 3):
        block, fwd, inv = higher_block(space, N)
        power, pfwd = higher_power(space, N)
        assert len(block.alphabet_aprime) == len(power.alphabet_aprime) == 3**N
        for _ in range(20):
            x = random_point(space, rng)
            assert inv(fwd(x)) == x
            assert is_admissible(power, pfwd(x))
