from __future__ import annotations

import sys

import pytest

from zipshift import (
    Alphabet,
    InvalidWord,
    TransitionMap,
    UndefinedWindow,
    UnknownSymbol,
)
from zipshift.symbols import _forbidden_char


def test_alphabet_order_and_lookup():
    a = Alphabet(["1", "2", "3"])
    assert list(a) == ["1", "2", "3"]
    assert len(a) == 3
    assert "2" in a and "x" not in a
    assert a.index("3") == 2
    assert a.key(("2", "1", "2")) == (1, 0, 1)


def test_alphabet_rejects_bad_symbols():
    with pytest.raises(InvalidWord):
        Alphabet(["1", "1"])
    with pytest.raises(InvalidWord):
        Alphabet([])
    with pytest.raises(InvalidWord):
        Alphabet(["a b"])
    with pytest.raises(InvalidWord):
        Alphabet(["(x)"])
    with pytest.raises(InvalidWord):
        Alphabet([""])


def test_forbidden_chars_are_whitespace_and_grammar_marks():
    """The symbol check's pattern refuses exactly the code points that
    str.isspace accepts, plus the point grammar's ( ) ; and *."""
    mismatches = [
        cp
        for cp in range(sys.maxunicode + 1)
        if bool(_forbidden_char(chr(cp))) != (chr(cp).isspace() or chr(cp) in "();*")
    ]
    assert mismatches == []
    for bad in ("a\u2028b", "x\u00a0", "\u3000"):
        with pytest.raises(InvalidWord, match="may not contain whitespace"):
            Alphabet([bad])


def test_alphabet_check_word():
    a = Alphabet(["a", "b"])
    a.check_word(("a", "b", "a"))
    with pytest.raises(UnknownSymbol):
        a.check_word(("a", "c"))
    with pytest.raises(UnknownSymbol):
        a.index("c")


def test_alphabet_key_refuses_unknown_letters():
    with pytest.raises(UnknownSymbol) as exc:
        Alphabet(["a"]).key(("b",))
    assert str(exc.value) == "'b' is not in alphabet ['a']"


def test_alphabet_equality_and_hash():
    assert Alphabet(["a", "b"]) == Alphabet(["a", "b"])
    assert Alphabet(["a", "b"]) != Alphabet(["b", "a"])
    assert hash(Alphabet(["a", "b"])) == hash(Alphabet(["a", "b"]))


TM = TransitionMap(1, {("1",): "a", ("2",): "b", ("3",): "b"})


def test_transition_map_call():
    assert TM(("1",)) == "a"
    assert TM(("2",)) == "b"
    assert TM(("3",)) == "b"
    with pytest.raises(UndefinedWindow):
        TM(("4",))


def test_transition_map_validates_keys():
    with pytest.raises(InvalidWord):
        TransitionMap(0, {(): "a"})
    with pytest.raises(InvalidWord):
        TransitionMap(2, {("1",): "a"})
    with pytest.raises(InvalidWord):
        TransitionMap(1, {})


def test_phi_extend():
    # sliding the window over 3 1 2 2 3 gives one letter per position
    assert TM.phi_extend(("3", "1", "2", "2", "3")) == ("b", "a", "b", "b", "b")
    assert TM.phi_extend(("1",)) == ("a",)
    with pytest.raises(InvalidWord):
        TransitionMap(2, {("0", "0"): "c"}).phi_extend(("0",))


def test_phi_extend_window_two():
    tm = TransitionMap(
        2, {("1", "1"): "a", ("1", "0"): "b", ("0", "1"): "b", ("0", "0"): "c"}
    )
    assert tm.phi_extend(("1", "0", "0", "1")) == ("b", "c", "b")


def test_phi_preimages():
    assert TM.phi_preimages("b") == [("2",), ("3",)]
    assert TM.phi_preimages("a") == [("1",)]
    with pytest.raises(UnknownSymbol):
        TM.phi_preimages("z")
    # an empty fiber is fine when the target alphabet vouches for the letter
    assert TM.phi_preimages("c", Alphabet(["a", "b", "c"])) == []
    with pytest.raises(UnknownSymbol):
        TM.phi_preimages("z", Alphabet(["a", "b"]))


def test_validate_onto():
    TM.validate_onto(Alphabet(["a", "b"]))
    with pytest.raises(InvalidWord):
        TM.validate_onto(Alphabet(["a", "b", "c"]))
    with pytest.raises(UnknownSymbol):
        TM.validate_onto(Alphabet(["a"]))
