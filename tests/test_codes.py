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
from zipshift.cli import space_to_dict


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


PROJ_PLUS = {("1",): "1", ("2",): "2", ("3",): "1", ("4",): "2"}
PROJ_MINUS = {(a, w): a for a in ("a", "b") for w in ("1", "2", "3", "4")}


def projection_spec(sigma_f):
    return BlockCodeSpec(sigma_f, Alphabet(["a", "b"]), Alphabet(["1", "2"]), 1, PROJ_PLUS, PROJ_MINUS)


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


@pytest.mark.parametrize(
    "target_a, target_aprime, m, plus, minus, window, message",
    [
        ("ab", "12", 0, PROJ_PLUS, PROJ_MINUS, None, "target map arity must be >= 1, got 0"),
        ("ab", "12", 1, PROJ_PLUS, PROJ_MINUS, 0, "window must be >= 1, got 0"),
        (
            "ab", "12", 1, {k: v for k, v in PROJ_PLUS.items() if k != ("4",)}, PROJ_MINUS, None,
            "positive table domain mismatch: missing [('4',)], extra []",
        ),
        (
            "ab", "12", 1, {**PROJ_PLUS, ("9",): "1", ("1", "1"): "1"}, PROJ_MINUS, 1,
            "positive table domain mismatch: missing [], extra [('1', '1'), ('9',)]",
        ),
        ("ab", "12", 1, {**PROJ_PLUS, ("4",): "9"}, PROJ_MINUS, None, "positive table emits unknown letters ['9']"),
        ("ab", "123", 1, PROJ_PLUS, PROJ_MINUS, None, "positive table never emits ['3']"),
        (
            "ab", "12", 1, PROJ_PLUS, {k: v for k, v in PROJ_MINUS.items() if k != ("b", "4")}, None,
            "seam table domain mismatch: missing [('b', '4')], extra []",
        ),
        ("ab", "12", 1, PROJ_PLUS, {**PROJ_MINUS, ("b", "4"): "c"}, None, "seam table emits unknown letters ['c']"),
        (
            "abc", "12", 1, PROJ_PLUS, PROJ_MINUS, None,
            "derived image space is inconsistent: transition map is not onto: ['c'] never occur as values",
        ),
    ],
    ids=["m", "window", "plus-domain", "plus-extra", "plus-unknown", "plus-never", "minus-domain", "minus-unknown", "image"],
)
def test_code_spec_refusals(sigma_f, target_a, target_aprime, m, plus, minus, window, message):
    with pytest.raises(InvalidCode) as exc:
        BlockCodeSpec(sigma_f, Alphabet(target_a), Alphabet(target_aprime), m, plus, minus, window=window)
    assert str(exc.value) == message


def test_one_key_table_is_refused_without_listing_the_language(monkeypatch):
    """A positive table of one 20-letter key over the full space on {0, 1}
    is refused by reading its key and the first few 20-words, never the
    2^20 words of the source's language; the message names the three least
    missing words."""
    space = full_space(Alphabet(["a"]), Alphabet(["0", "1"]), TransitionMap(1, {("0",): "a", ("1",): "a"}))

    def spy(*args, **kwargs):
        raise AssertionError("the source's language was listed")

    monkeypatch.setattr(space, "language", spy)
    with pytest.raises(InvalidCode) as exc:
        BlockCodeSpec(space, Alphabet(["a"]), Alphabet(["x"]), 1, {("0",) * 20: "x"}, {})
    least = [("0",) * 19 + ("1",), ("0",) * 18 + ("1", "0"), ("0",) * 18 + ("1", "1")]
    assert str(exc.value) == f"positive table domain mismatch: missing {least}, extra []"


@pytest.mark.parametrize(
    "recode, message",
    [(higher_block, "block length must be >= 1, got 0"), (higher_power, "power must be >= 1, got 0")],
    ids=["block", "power"],
)
def test_recoding_refusals(ex21, recode, message):
    with pytest.raises(InvalidWord) as exc:
        recode(ex21, 0)
    assert type(exc.value) is InvalidWord and str(exc.value) == message


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


def recoded_spec(alphabet_a, alphabet_aprime, n, phi, kind, forbidden=None, vertices=None, edges=None):
    """A space spec, with its alphabets, forbidden words and edges written as
    one string each: symbols apart by spaces, words and edges by commas."""
    data = {"alphabet_a": alphabet_a.split(), "alphabet_a_prime": alphabet_aprime.split(), "n": n, "phi": phi}
    data["kind"] = kind
    if forbidden is not None:
        data["forbidden"] = sorted(forbidden.split(", "))
    if vertices is not None:
        data["graph"] = {"vertices": vertices.split(), "edges": [e.split() for e in edges.split(", ")]}
    return data


EX21_PHI = {"12": "ab", "22": "bb", "23": "bb", "31": "ba", "32": "bb"}
CODING1_PHI = {"00": "aa", "01": "ab", "10": "ba", "11": "bb"}
EVEN_A = "aa ab ba bb bc cb cc"

# (fixture, point, N-block space, its image of the point, N-th power, its image, N)
RECODINGS = [
    (
        "ex21", "(b)* a ; 2 3 1 2 (3 2)*",
        recoded_spec(
            "ab ba bb", "12 22 23 31 32", 1, EX21_PHI, "sft",
            forbidden="12 12, 12 31, 12 32, 22 12, 22 31, 22 32, 23 12, 23 22, 23 23, 31 22, 31 23, 31 31, "
            "31 32, 32 12, 32 31, 32 32",
        ),
        "(bb)* ba ab ; 23 31 12 (23 32)*",
        recoded_spec(
            "ab ba bb", "12 22 23 31 32", 1, EX21_PHI, "sft",
            forbidden="12 12, 22 12, 23 31, 23 32, 31 12, 31 31, 31 32, 32 12",
        ),
        "(bb)* ba ; 23 12 (32)*",
        2,
    ),
    (
        "even", "(c)* b ; 1 1 0 0 (1 1 0 0)*",
        recoded_spec(
            EVEN_A, "00 01 10 11", 2,
            {"00 00": "cc", "00 01": "cb", "01 10": "bb", "01 11": "ba", "10 00": "bc", "11 10": "ab", "11 11": "aa"},
            "sofic", vertices="q0 q1 q2 q3 q4",
            edges="q0 q0 11, q0 q1 11, q1 q2 10, q2 q3 00, q2 q4 00, q3 q0 01, q3 q1 01, q4 q2 00",
        ),
        "(cc)* cb ba ; (11 10 00 01)*",
        recoded_spec(
            EVEN_A, "00 01 10 11", 2,
            {
                "00 00": "cc", "00 01": "cc", "00 10": "cb", "00 11": "cb", "01 00": "bb", "01 10": "ba",
                "01 11": "ba", "10 00": "bc", "10 01": "bc", "11 00": "ab", "11 10": "aa", "11 11": "aa",
            },
            "sofic", vertices="P Q", edges="P P 00, P P 11, P Q 10, Q P 01, Q Q 00",
        ),
        "(cc)* cb ; (11 00)*",
        2,
    ),
    (
        "coding1", "(a b)* b ; 0 0 1 (1)*",
        recoded_spec(
            "aa ab ba bb", "00 01 10 11", 1, CODING1_PHI, "sft",
            forbidden="00 10, 00 11, 01 00, 01 01, 10 10, 10 11, 11 00, 11 01",
        ),
        "(ba ab)* bb ba ; 00 01 (11)*",
        recoded_spec("aa ab ba bb", "00 01 10 11", 1, CODING1_PHI, "full"),
        "(ba)* bb ; 00 (11)*",
        2,
    ),
    (
        "even", "(c)* b ; 1 1 0 0 (1 1 0 0)*",
        recoded_spec(
            "a b c", "0 1", 2, {"0 0": "c", "0 1": "b", "1 0": "b", "1 1": "a"},
            "sofic", vertices="q0 q1 q2 q3 q4",
            edges="q0 q0 1, q0 q1 1, q1 q2 1, q2 q3 0, q2 q4 0, q3 q0 0, q3 q1 0, q4 q2 0",
        ),
        "(c)* b ; (1 1 0 0)*",
        recoded_spec(
            "a b c", "0 1", 2, {"0 0": "c", "0 1": "b", "1 0": "b", "1 1": "a"},
            "sofic", vertices="P Q", edges="P P 1, P Q 0, Q P 0",
        ),
        "(c)* b ; (1 1 0 0)*",
        1,
    ),
]


@pytest.mark.parametrize("name, point, block_spec, block_image, power_spec, power_image, N", RECODINGS)
def test_block_and_power_recodings_by_value(request, name, point, block_spec, block_image, power_spec, power_image, N):
    """The N-block and N-th power recodings, pinned whole: the spec and
    transition table of each, and its image of one point with a seam
    transient.  At N = 1 the two coincide as spaces but not as
    presentations: a sofic power keeps the space's own vertices, while the
    block is presented by its window graph."""
    space = request.getfixturevalue(name)
    x = parse_point(point)
    (block, fwd, _inv), (power, pfwd) = higher_block(space, N), higher_power(space, N)
    for recoded, spec in ((block, block_spec), (power, power_spec)):
        assert space_to_dict(recoded) == spec
        assert sorted(recoded.tm.table.items()) == sorted((tuple(k.split()), v) for k, v in spec["phi"].items())
    assert (format_point(fwd(x)), format_point(pfwd(x))) == (block_image, power_image)


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


@pytest.mark.parametrize("recode", [higher_block, higher_power], ids=["block", "power"])
def test_block_names_refused_when_every_separator_joins_two_alike(recode):
    """With A' = {a, a.a, :|/+_~#@}, "." names both a + a.a and a.a + a
    "a.a.a", and the third symbol holds every fallback separator."""
    letters = ["a", "a.a", ":|/+_~#@"]
    space = full_space(Alphabet(["x"]), Alphabet(letters), TransitionMap(1, {(c,): "x" for c in letters}))
    with pytest.raises(InvalidWord) as exc:
        recode(space, 2)
    assert str(exc.value) == "every separator names two blocks alike"
