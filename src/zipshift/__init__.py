"""Symbolic dynamics over a pair of alphabets.

The shift studied here moves a bi-infinite sequence one step left while
translating the letter that crosses the seam from the right-hand alphabet
into the left-hand one through a finite-window transition map, so the map
is finitely many-to-one instead of invertible.  The package builds such
spaces (full, finite type, or sofic), walks orbits forward and backward,
applies and inverts sliding block codes, and realizes the dynamics
geometrically by a multi-fold planar horseshoe.

The names below load on first use (PEP 562): ``import zipshift`` imports no
submodule, and ``zipshift.X`` or ``from zipshift import X`` imports only the
module that defines X and the modules it needs.  Each name is resolved once
and then kept in the package namespace, so later reads are plain lookups.
The result types (points, reports, classifications) are plain immutable
classes, equal, hashed and shown by their fields.
"""

import importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "symbols": ("Alphabet", "TransitionMap", "Word"),
    "space": (
        "ZipShiftSpace", "full_space", "sft_space", "sofic_space", "MatrixSet",
        "IrreducibilityReport",
    ),
    "point": (
        "EpPoint", "parse_point", "format_point", "shift", "shift_k", "metrics", "MetricReport",
        "is_admissible", "AdmissibilityReport", "point_from_lift", "random_point",
    ),
    "graph": (
        "LabeledGraph", "build_labeled_graph", "backward", "export_dot", "presentation_graph",
        "spelled_language", "vertex_like",
    ),
    "preimage": (
        "preimages", "preimages_k", "PreimageResult", "LabelClassification", "canonical_lift",
    ),
    "orbits": (
        "PeriodicPoint", "periodic_point", "periodic_points", "orbit_points",
        "pre_periodic_points", "stable_unstable_membership", "StableUnstableReport",
        "heteroclinic_check", "HomoclinicDatum", "homoclinic_datum", "HomoclinicOrbit",
        "homoclinic_orbits", "letter_preimage_sum",
    ),
    "codes": (
        "BlockCodeSpec", "apply_code", "check_commutation", "CommutationReport", "invert_code",
        "NotFound", "higher_block", "higher_power",
    ),
    "horseshoe": (
        "HorseshoeModel", "build_model", "ItineraryCode", "code_point", "decode",
        "count_point_preimages", "coding_space", "verify_conjugacy", "ConjugacyReport",
        "stable_string",
    ),
    "errors": (
        "ZipShiftError", "UnknownSymbol", "UndefinedWindow", "InvalidWord", "NotFiniteType",
        "NotInSpace", "InvalidCode", "Unrealizable", "GeometryError", "EscapedSquare", "BadLetter",
    ),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
