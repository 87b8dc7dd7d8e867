"""The public result types behave as immutable values.

Each type is equal exactly to a value of its own class with equal fields,
hashes as the tuple of those fields, prints as ``Name(field=value, ...)``,
refuses assignment and deletion, and comes back whole from pickle and copy.
``LabelClassification.exact`` is carried along but left out of equality,
hash and repr.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from zipshift import (
    AdmissibilityReport,
    Alphabet,
    BlockCodeSpec,
    CommutationReport,
    ConjugacyReport,
    EpPoint,
    HomoclinicDatum,
    HomoclinicOrbit,
    IrreducibilityReport,
    ItineraryCode,
    LabelClassification,
    MatrixSet,
    MetricReport,
    NotFound,
    PeriodicPoint,
    PreimageResult,
    StableUnstableReport,
    TransitionMap,
    check_commutation,
    code_point,
    homoclinic_datum,
    homoclinic_orbits,
    invert_code,
    is_admissible,
    metrics,
    parse_point,
    periodic_point,
    preimages,
    sft_space,
    stable_unstable_membership,
    verify_conjugacy,
)
from zipshift.orbits import TailFlag

POINT = "EpPoint(left_period=('a', 'b', 'b'), left_transient=('b',), right_transient=(), right_period=('2', '3', '2'))"
PERIODIC = (
    "PeriodicPoint(word=('2', '3'), point=EpPoint(left_period=('b',), left_transient=(), "
    "right_transient=(), right_period=('2', '3')))"
)
DATUM = (
    f"HomoclinicDatum(periodic={PERIODIC}, point=EpPoint(left_period=('b',), left_transient=(), "
    "right_transient=('3', '2'), right_period=('2', '3')), n_back=1, n_fwd=2, k_back=0, k_fwd=0)"
)
CLASSIFICATION = (
    "LabelClassification(kind='left_closing', delay=None, length=4, multiplicity=2, variant=None, "
    "searched_to=None, witness_paths=(('2', (('2',), ('2',), ('2',), ('2',), ('1',))), "
    "('3', (('2',), ('3',), ('2',), ('2',), ('1',)))))"
)

# By type: the compared fields, in order, and the repr of the value built
# by the ``values`` fixture.
CASES = {
    "EpPoint": (("left_period", "left_transient", "right_transient", "right_period"), POINT),
    "MetricReport": (
        ("d", "d_plus", "d_minus", "d_pm"),
        "MetricReport(d=Fraction(1, 1), d_plus=Fraction(1, 1), d_minus=Fraction(1, 2), d_pm=Fraction(3, 4))",
    ),
    "AdmissibilityReport": (
        ("ok", "reason"),
        "AdmissibilityReport(ok=False, reason='window 1 1 at index 0 is not admissible')",
    ),
    "MatrixSet": (
        ("aprime_words", "aprime_adj", "a_words", "a_adj", "t", "k", "n_step", "m_step"),
        "MatrixSet(aprime_words=(('1',), ('2',), ('3',)), aprime_adj=((0, 1, 0), (0, 1, 1), (1, 1, 0)), "
        "a_words=(('a',), ('b',)), a_adj=((0, 1), (1, 1)), t=((0, 1, 0), (1, 1, 1)), k=1, n_step=1, m_step=1)",
    ),
    "IrreducibilityReport": (
        ("is_irreducible", "witnesses", "failing_pair"),
        "IrreducibilityReport(is_irreducible=False, witnesses=None, failing_pair=('2', '1'))",
    ),
    "LabelClassification": (
        ("kind", "delay", "length", "multiplicity", "variant", "searched_to", "witness_paths"),
        CLASSIFICATION,
    ),
    "PreimageResult": (
        ("classification", "points"),
        f"PreimageResult(classification={CLASSIFICATION}, points=(EpPoint(left_period=('a', 'b', 'b'), "
        "left_transient=(), right_transient=(), right_period=('2', '2', '3')), EpPoint(left_period=('a', 'b', 'b'), "
        "left_transient=(), right_transient=('3',), right_period=('2', '3', '2'))))",
    ),
    "PeriodicPoint": (("word", "point"), PERIODIC),
    "TailFlag": (("holds", "merge", "phase"), "TailFlag(holds=True, merge=2, phase=0)"),
    "StableUnstableReport": (
        ("s_global", "s_special", "u_global", "u_special"),
        "StableUnstableReport(s_global=TailFlag(holds=True, merge=2, phase=0), "
        "s_special=TailFlag(holds=False, merge=None, phase=None), u_global=TailFlag(holds=True, merge=0, phase=0), "
        "u_special=TailFlag(holds=True, merge=0, phase=0))",
    ),
    "HomoclinicDatum": (("periodic", "point", "n_back", "n_fwd", "k_back", "k_fwd"), DATUM),
    "HomoclinicOrbit": (("datum", "choices"), f"HomoclinicOrbit(datum={DATUM}, choices=())"),
    "CommutationReport": (("ok", "witness"), "CommutationReport(ok=True, witness=None)"),
    "NotFound": (("max_window",), "NotFound(max_window=2)"),
    "ItineraryCode": (("back", "fwd"), "ItineraryCode(back=('a', 'a'), fwd=('0', '1'))"),
    "ConjugacyReport": (("samples", "depth", "violations"), "ConjugacyReport(samples=5, depth=2, violations=())"),
}


def _projection(sigma_f):
    """The non-invertible code of sigma_f that merges 1 with 3 and 2 with 4."""
    plus = {("1",): "1", ("2",): "2", ("3",): "1", ("4",): "2"}
    minus = {(a, w): a for a in ("a", "b") for w in ("1", "2", "3", "4")}
    return BlockCodeSpec(sigma_f, Alphabet(["a", "b"]), Alphabet(["1", "2"]), 1, plus, minus)


@pytest.fixture(scope="module")
def values(ex21, sigma_f, model2, coding2):
    """By type: a value the library computed, and a value of the same type
    that differs from it in one field."""
    x = parse_point("(a b b)* b ; (2 3 2)*")
    p = periodic_point(ex21, ("2", "3"))
    y = parse_point("(b)* ; 3 2 (2 3)*")
    datum = homoclinic_datum(ex21, p, y)
    tails = stable_unstable_membership(ex21, p, y)
    result = preimages(ex21, x)
    spec = _projection(sigma_f)
    reducible = sft_space(
        Alphabet(["a"]), Alphabet(["1", "2"]), TransitionMap(1, {("1",): "a", ("2",): "a"}), {("2", "1")}
    )
    m = ex21.build_matrices()
    metric = metrics(parse_point("(b)* a b ; 1 (2 3)*"), parse_point("(b)* ; (2 3)*"))
    half = Fraction(1, 2)
    return {
        "EpPoint": (x, EpPoint(("a", "b", "b"), ("b",), (), ("2", "3"))),
        "MetricReport": (metric, MetricReport(metric.d, metric.d_plus, metric.d_minus, half)),
        "AdmissibilityReport": (is_admissible(ex21, parse_point("(b)* ; 1 1 (2 3)*")), AdmissibilityReport(True, None)),
        "MatrixSet": (m, MatrixSet(m.aprime_words, m.aprime_adj, m.a_words, m.a_adj, m.t, 1, 1, 2)),
        "IrreducibilityReport": (reducible.is_irreducible(), IrreducibilityReport(False, None, ("1", "2"))),
        "LabelClassification": (result.classification, LabelClassification("left_closing", length=4)),
        "PreimageResult": (result, PreimageResult(result.classification, result.points[:1])),
        "PeriodicPoint": (p, periodic_point(ex21, ("3", "2"))),
        "TailFlag": (tails.s_global, TailFlag(True, 2, 1)),
        "StableUnstableReport": (tails, StableUnstableReport(tails.s_global, tails.s_global, tails.u_global, tails.u_special)),
        "HomoclinicDatum": (datum, HomoclinicDatum(p, datum.point, 1, 2, 0, 1)),
        "HomoclinicOrbit": (homoclinic_orbits(ex21, datum)[0], HomoclinicOrbit(datum, ("2",))),
        "CommutationReport": (check_commutation(spec, samples=3), CommutationReport(False, x)),
        "NotFound": (invert_code(spec, max_window=2), NotFound(3)),
        "ItineraryCode": (code_point(model2, (Fraction(1, 10), Fraction(1, 10)), 2), ItineraryCode(("a", "b"), ("0", "1"))),
        "ConjugacyReport": (verify_conjugacy(model2, coding2, 2, 5), ConjugacyReport(5, 2, ("overlap",))),
    }


def _fields(v) -> tuple:
    return tuple(getattr(v, f) for f in CASES[type(v).__name__][0])


def test_every_public_value_type_is_covered():
    import zipshift

    assert {name for name in CASES if name != "TailFlag"} <= set(zipshift.__all__)
    assert len(CASES) == 16


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_shows_the_fields(values, name):
    v, other = values[name]
    assert type(v).__name__ == name
    assert repr(v) == CASES[name][1]
    assert repr(other) != repr(v)


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_by_class_and_fields(values, name):
    v, other = values[name]
    names, _ = CASES[name]
    key = _fields(v)
    by_position = type(v)(*key)
    by_keyword = type(v)(**dict(zip(names, key)))
    for w in (by_position, by_keyword):
        assert w == v and v == w
        assert not (w != v)
        assert w is not v
    assert other != v and v != other
    assert not (other == v)
    # A value never equals its field tuple, nor a value of another class.
    assert v != key and key != v
    assert v.__eq__(key) is NotImplemented
    assert v != object()


@pytest.mark.parametrize("name", sorted(CASES))
def test_hash_is_the_hash_of_the_fields(values, name):
    v, other = values[name]
    assert hash(v) == hash(_fields(v)) == hash(type(v)(*_fields(v)))
    assert hash(other) == hash(_fields(other))
    assert len({v, other, type(v)(*_fields(v))}) == 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_cannot_be_assigned_or_deleted(values, name):
    v, other = values[name]
    before = repr(v)
    for f in CASES[name][0]:
        with pytest.raises(AttributeError):
            setattr(v, f, getattr(other, f))
        with pytest.raises(AttributeError):
            delattr(v, f)
    with pytest.raises(AttributeError):
        v.not_a_field = 1
    assert repr(v) == before
    assert not hasattr(v, "not_a_field")


@pytest.mark.parametrize("name", sorted(CASES))
def test_pickle_and_copy_round_trip(values, name):
    v, _ = values[name]
    repr(v)  # a classification expands its witness paths on this first read
    clones = [pickle.loads(pickle.dumps(v, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(v), copy.deepcopy(v)]
    for clone in clones:
        assert type(clone) is type(v)
        assert clone == v and hash(clone) == hash(v) and repr(clone) == repr(v)
        assert vars(clone) == vars(v)


def test_unhashable_field_makes_an_unhashable_value(ex21):
    report = ex21.is_irreducible()
    assert isinstance(report.witnesses, dict)
    with pytest.raises(TypeError):
        hash(report)
    assert report == IrreducibilityReport(True, dict(report.witnesses), None)


def test_defaults(values):
    c = LabelClassification("branching")
    assert _fields(c) == ("branching", None, None, None, None, None, ())
    assert c.exact is False
    assert repr(c) == (
        "LabelClassification(kind='branching', delay=None, length=None, multiplicity=None, "
        "variant=None, searched_to=None, witness_paths=())"
    )
    assert _fields(TailFlag(False)) == (False, None, None)
    assert _fields(CommutationReport(True)) == (True, None)


def test_exact_is_left_out(values):
    c = values["LabelClassification"][0]
    assert c.exact is True
    loose = LabelClassification(*_fields(c), exact=False)
    assert loose.exact is False
    assert loose == c and hash(loose) == hash(c) and repr(loose) == repr(c)
    assert "exact" not in repr(c)

    orbit = values["HomoclinicOrbit"][0]
    fresh = HomoclinicOrbit(orbit.datum, orbit.choices)
    assert fresh == orbit and hash(fresh) == hash(orbit) and repr(fresh) == repr(orbit)
    with pytest.raises(TypeError):
        HomoclinicOrbit(orbit.datum, orbit.choices, ("3", "2"))


def test_equal_fields_of_two_classes_are_not_equal():
    assert AdmissibilityReport(True, None) != CommutationReport(True, None)
    assert hash(AdmissibilityReport(True, None)) == hash(CommutationReport(True, None))
    assert len({AdmissibilityReport(True, None), CommutationReport(True, None)}) == 2
