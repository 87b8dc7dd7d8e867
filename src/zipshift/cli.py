"""Command line front end.

Spaces and block codes are described by small JSON files; results are
printed one record per line with tab-separated fields so the output is
stable across runs and easy to diff or pipe.  Points use the same text
grammar as :func:`zipshift.point.parse_point`, and every point printed
here can be parsed back into an equal value.

A space spec is an object with keys ``alphabet_a``, ``alphabet_a_prime``,
``n``, ``phi`` (word -> letter, words written with spaces), ``kind``
(full | sft | sofic), plus ``forbidden`` (sft only) or ``graph`` with
``vertices`` and ``edges`` (sofic only).  A code spec carries ``source``
(an inline space spec), ``target_a``, ``target_a_prime``, ``m``,
``psi_plus`` (keys like ``"1 2"``), ``psi_minus`` (keys like
``"a ; 1 2"``) and an optional ``window``.  The values of ``phi``,
``psi_plus`` and ``psi_minus`` are strings, and each table names a word
once (``"3"`` and ``" 3"`` are one word).  Unknown keys are rejected.

Exit status: 0 on success, 1 for domain errors (bad specs, inadmissible
points, failed checks; a diagnostic goes to stderr), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import TYPE_CHECKING, Callable

from .errors import NotInSpace, ZipShiftError
from .point import EpPoint, _letter_failure, format_point, is_admissible, metrics, parse_point, shift_k
from .space import ZipShiftSpace, full_space, sft_space, sofic_space
from .symbols import Alphabet, TransitionMap, Word

# Each command imports the modules it needs beyond the four above, so a
# process loads and compiles only what its subcommand uses.
if TYPE_CHECKING:
    from fractions import Fraction

    from .codes import BlockCodeSpec
    from .orbits import PeriodicPoint


class SpecError(ZipShiftError):
    """A spec file does not match the documented schema."""


def _parse_symbol_word(text: str) -> Word:
    word = tuple(text.split())
    if not word:
        raise SpecError(f"empty word in spec: {text!r}")
    return word


def _word_table(table: dict, name: str, word_of: Callable[[str], Word]) -> dict[Word, str]:
    """A spec table of words to letters, each key read by ``word_of``: every
    value must be a string, and no two keys may name one word."""
    keys: dict[Word, str] = {}
    for key, val in table.items():
        if not isinstance(val, str):
            raise SpecError(f"{name} value for {key!r} must be a string, not {val!r}")
        first = keys.setdefault(word_of(key), key)
        if first != key:
            raise SpecError(f"{name} keys {first!r} and {key!r} name one word")
    return {word: table[key] for word, key in keys.items()}


def _string_list(value: object, name: str) -> list[str]:
    """``value`` itself, checked to be a JSON list of strings."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise SpecError(f"{name} must be a list of strings")
    return value


def _load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad or too deeply nested JSON, or not UTF-8
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc


_SPACE_KEYS = ("alphabet_a", "alphabet_a_prime", "n", "phi", "kind", "forbidden", "graph")


def space_from_dict(data: object) -> ZipShiftSpace:
    """Build a space from a parsed spec object, rejecting schema drift."""
    if not isinstance(data, dict):
        raise SpecError("space spec must be a JSON object")
    unknown = sorted(set(data) - set(_SPACE_KEYS))
    if unknown:
        raise SpecError(f"unknown space spec keys: {', '.join(unknown)}")
    missing = sorted(k for k in _SPACE_KEYS[:5] if k not in data)
    if missing:
        raise SpecError(f"missing space spec keys: {', '.join(missing)}")

    kind = data["kind"]
    if kind not in ("full", "sft", "sofic"):
        raise SpecError(f"kind must be full, sft or sofic, not {kind!r}")
    alphabet_a = Alphabet(_string_list(data["alphabet_a"], "alphabet_a"))
    alphabet_aprime = Alphabet(_string_list(data["alphabet_a_prime"], "alphabet_a_prime"))
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SpecError(f"n must be a positive integer, not {n!r}")
    if not isinstance(data["phi"], dict):
        raise SpecError("phi must map words to letters")
    table = _word_table(data["phi"], "phi", _parse_symbol_word)
    for key in data["phi"]:
        if len(key.split()) != n:
            raise SpecError(f"phi key {key!r} is not a word of {n} letters")
    tm = TransitionMap(n, table)

    if kind != "sft" and "forbidden" in data:
        raise SpecError("forbidden is only valid for sft spaces")
    if kind != "sofic" and "graph" in data:
        raise SpecError("graph is only valid for sofic spaces")

    if kind == "full":
        return full_space(alphabet_a, alphabet_aprime, tm)
    if kind == "sft":
        if "forbidden" not in data:
            raise SpecError("sft specs need a forbidden word list")
        forbidden = {_parse_symbol_word(w) for w in _string_list(data["forbidden"], "forbidden")}
        return sft_space(alphabet_a, alphabet_aprime, tm, forbidden)
    graph = data.get("graph")
    if not isinstance(graph, dict) or set(graph) != {"vertices", "edges"}:
        raise SpecError("sofic specs need a graph object with vertices and edges")
    vertices = _string_list(graph["vertices"], "graph vertices")
    if not isinstance(graph["edges"], list):
        raise SpecError("graph edges must be a list of [src, dst, label] triples")
    edges = []
    for item in graph["edges"]:
        if not isinstance(item, list) or len(item) != 3 or not all(isinstance(s, str) for s in item):
            raise SpecError(f"graph edges must be [src, dst, label] triples, not {item!r}")
        edges.append(tuple(item))
    return sofic_space(alphabet_a, alphabet_aprime, tm, vertices, edges)


def space_to_dict(space: ZipShiftSpace) -> dict:
    """The spec object for a space, inverse to :func:`space_from_dict`."""
    data: dict = {
        "alphabet_a": list(space.alphabet_a.symbols),
        "alphabet_a_prime": list(space.alphabet_aprime.symbols),
        "n": space.n,
        "phi": {
            " ".join(w): space.tm(w)
            for w in sorted(space.tm.domain(), key=space.alphabet_aprime.key)
        },
        "kind": space.kind,
    }
    if space.kind == "sft":
        data["forbidden"] = sorted(" ".join(w) for w in space.forbidden)
    if space.kind == "sofic":
        data["graph"] = {
            "vertices": list(space.presentation_vertices or ()),
            "edges": [[s, d, c] for s, d, c in (space.presentation_edges or ())],
        }
    return data


_CODE_KEYS = ("source", "target_a", "target_a_prime", "m", "psi_plus", "psi_minus", "window")


def code_from_dict(data: object) -> BlockCodeSpec:
    from .codes import BlockCodeSpec

    if not isinstance(data, dict):
        raise SpecError("code spec must be a JSON object")
    unknown = sorted(set(data) - set(_CODE_KEYS))
    if unknown:
        raise SpecError(f"unknown code spec keys: {', '.join(unknown)}")
    missing = sorted(k for k in _CODE_KEYS[:6] if k not in data)
    if missing:
        raise SpecError(f"missing code spec keys: {', '.join(missing)}")
    source = space_from_dict(data["source"])
    target_a = Alphabet(_string_list(data["target_a"], "target_a"))
    target_aprime = Alphabet(_string_list(data["target_a_prime"], "target_a_prime"))
    m = data["m"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise SpecError(f"m must be a positive integer, not {m!r}")
    if not isinstance(data["psi_plus"], dict) or not isinstance(data["psi_minus"], dict):
        raise SpecError("psi_plus and psi_minus must be objects")
    psi_plus = _word_table(data["psi_plus"], "psi_plus", _parse_symbol_word)
    psi_minus = _word_table(data["psi_minus"], "psi_minus", _seam_word)
    window = data.get("window")
    if window is not None and (not isinstance(window, int) or isinstance(window, bool) or window < 1):
        raise SpecError(f"window must be a positive integer, not {window!r}")
    return BlockCodeSpec(source, target_a, target_aprime, m, psi_plus, psi_minus, window=window)


def _seam_word(key: str) -> Word:
    """A ``psi_minus`` key ``a ; w1 w2`` as the word (a, w1, w2)."""
    head, sep, tail = key.partition(";")
    if not sep:
        raise SpecError(f"psi_minus keys look like 'a ; w1 w2', not {key!r}")
    seam = head.split()
    if len(seam) != 1:
        raise SpecError(f"psi_minus key {key!r} needs a single letter before ';'")
    return (seam[0],) + _parse_symbol_word(tail)


def _point_arg(space: ZipShiftSpace, text: str) -> EpPoint:
    x = parse_point(text)
    report = is_admissible(space, x)
    if not report:
        raise NotInSpace(report.reason or f"point {text!r} is not in the space")
    return x


def _loose_point_arg(space: ZipShiftSpace, text: str) -> EpPoint:
    """Parse a point checking only alphabet membership, not whole-space admissibility."""
    x = parse_point(text)
    failure = _letter_failure(space, x)
    if failure is not None:
        raise NotInSpace(failure)
    return x


def _periodic_arg(space: ZipShiftSpace, text: str) -> PeriodicPoint:
    from .orbits import periodic_point

    x = _point_arg(space, text)
    p = periodic_point(space, x.right_period)
    if p.point != x:
        raise NotInSpace(f"point {text!r} is not periodic under the zip shift")
    return p


# -- space ----------------------------------------------------------------


def _cmd_space_validate(args: argparse.Namespace) -> int:
    space = space_from_dict(_load_json(args.spec))
    fields = [
        "ok",
        f"kind={space.kind}",
        f"n={space.n}",
        f"step={space.step_k}",
        f"alphabet_a={len(space.alphabet_a.symbols)}",
        f"alphabet_a_prime={len(space.alphabet_aprime.symbols)}",
    ]
    print("\t".join(fields))
    return 0


def _cmd_space_words(args: argparse.Namespace) -> int:
    space = space_from_dict(_load_json(args.spec))
    for word in space.language(args.k, side=args.side):
        print(" ".join(word))
    return 0


def _cmd_space_matrices(args: argparse.Namespace) -> int:
    space = space_from_dict(_load_json(args.spec))
    ms = space.build_matrices()
    print("\t".join(["meta", f"k={ms.k}", f"n_step={ms.n_step}", f"m_step={ms.m_step}"]))
    print("\t".join(["aprime_words"] + [" ".join(w) for w in ms.aprime_words]))
    for word, row in zip(ms.aprime_words, ms.aprime_adj):
        print("\t".join(["aprime_adj", " ".join(word)] + [str(v) for v in row]))
    print("\t".join(["a_words"] + [" ".join(w) for w in ms.a_words]))
    for word, row in zip(ms.a_words, ms.a_adj):
        print("\t".join(["a_adj", " ".join(word)] + [str(v) for v in row]))
    for word, row in zip(ms.a_words, ms.t):
        print("\t".join(["t", " ".join(word)] + [str(v) for v in row]))
    return 0


def _cmd_space_irreducible(args: argparse.Namespace) -> int:
    space = space_from_dict(_load_json(args.spec))
    report = space.is_irreducible()
    if report:
        print("irreducible\tyes")
    else:
        src, dst = report.failing_pair
        print(f"irreducible\tno\t{src}\t{dst}")
    return 0


# -- graph ----------------------------------------------------------------


def _cmd_graph_build(args: argparse.Namespace) -> int:
    from .graph import backward, export_dot
    from .preimage import labeled_graph_for

    space = space_from_dict(_load_json(args.spec))
    g = labeled_graph_for(space)
    if args.backward:
        g = backward(g)
    dot = export_dot(g)
    if args.dot == "-":
        sys.stdout.write(dot)
    else:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot)
        except OSError as exc:
            print(f"error: cannot write {args.dot}: {exc}", file=sys.stderr)
            return 1
        print(f"dot\t{args.dot}\tvertices={g.n_vertices()}\tedges={len(g.edges)}")
    return 0


# -- point ----------------------------------------------------------------


def _cmd_point_shift(args: argparse.Namespace) -> int:
    # The shift itself is a local symbol operation, so the point is only
    # checked against the alphabets; UndefinedWindow still surfaces when the
    # seam window has no transition image.
    space = space_from_dict(_load_json(args.spec))
    x = _loose_point_arg(space, args.point)
    print(format_point(shift_k(space, x, args.k)))
    return 0


def _cmd_point_preimages(args: argparse.Namespace) -> int:
    from .preimage import _check_search_bound, preimages, preimages_k

    space = space_from_dict(_load_json(args.spec))
    x = _point_arg(space, args.point)
    _check_search_bound(args.dmax)
    if args.classify:
        result = preimages(space, x, d_max=args.dmax)
        points: set[EpPoint] | tuple[EpPoint, ...] = result.points
        c = result.classification
        extras = []
        for name in ("delay", "length", "multiplicity", "variant", "searched_to"):
            value = getattr(c, name)
            if value is not None:
                extras.append(f"{name}={value}")
        print("\t".join([f"# kind={c.kind}"] + extras))
    else:
        points = preimages_k(space, x, args.depth)
    for line in sorted(format_point(y) for y in points):
        print(line)
    return 0


def _cmd_point_metrics(args: argparse.Namespace) -> int:
    space = space_from_dict(_load_json(args.spec))
    s = _point_arg(space, args.first)
    t = _point_arg(space, args.second)
    rep = metrics(s, t)
    print(f"d={rep.d}\td_plus={rep.d_plus}\td_minus={rep.d_minus}\td_pm={rep.d_pm}")
    return 0


# -- orbits ---------------------------------------------------------------


def _cmd_periodic(args: argparse.Namespace) -> int:
    space = space_from_dict(_load_json(args.spec))
    if args.count_only:
        print(space.count_periodic(args.m))
        return 0
    from .orbits import periodic_points

    points = periodic_points(space, args.m)
    for p in sorted(points, key=lambda p: space.alphabet_aprime.key(p.word)):
        print(f"{' '.join(p.word)}\t{format_point(p.point)}")
    return 0


def _cmd_preperiodic(args: argparse.Namespace) -> int:
    from .orbits import pre_periodic_points

    space = space_from_dict(_load_json(args.spec))
    p = _periodic_arg(space, args.point)
    points = pre_periodic_points(space, p, args.level)
    for line in sorted(format_point(y) for y in points):
        print(line)
    return 0


def _cmd_homoclinic(args: argparse.Namespace) -> int:
    from .orbits import homoclinic_datum, homoclinic_orbits, letter_preimage_sum

    space = space_from_dict(_load_json(args.spec))
    p = _periodic_arg(space, args.periodic)
    x = _point_arg(space, args.point)
    datum = homoclinic_datum(space, p, x)
    orbits = homoclinic_orbits(space, datum)
    bound = letter_preimage_sum(space, datum)
    print(
        "\t".join(
            [
                "datum",
                f"k_back={datum.k_back}",
                f"n_back={datum.n_back}",
                f"k_fwd={datum.k_fwd}",
                f"n_fwd={datum.n_fwd}",
            ]
        )
    )
    print(f"orbits\t{len(orbits)}\tbound={bound}")
    for orbit in orbits:
        print(f"orbit\t{' '.join(orbit.choices)}\t{format_point(orbit.point(space, -1))}")
    return 0


# -- code -----------------------------------------------------------------


def _cmd_code_check(args: argparse.Namespace) -> int:
    from .codes import check_commutation

    spec = code_from_dict(_load_json(args.codespec))
    report = check_commutation(spec, samples=args.samples, rng=random.Random(args.seed))
    if report:
        print(f"ok\tsamples={args.samples}")
        return 0
    witness = "" if report.witness is None else format_point(report.witness)
    print(f"error: code does not commute with the shifts; witness {witness}", file=sys.stderr)
    return 1


def _cmd_code_apply(args: argparse.Namespace) -> int:
    from .codes import apply_code

    spec = code_from_dict(_load_json(args.codespec))
    x = _point_arg(spec.source, args.point)
    print(format_point(apply_code(spec, x)))
    return 0


def _cmd_code_invert(args: argparse.Namespace) -> int:
    from .codes import invert_code

    spec = code_from_dict(_load_json(args.codespec))
    inverse = invert_code(spec, max_window=args.max_window, rng=random.Random(args.seed))
    if not inverse:
        print(f"error: no inverse found with window <= {args.max_window}", file=sys.stderr)
        return 1
    print(f"window\t{inverse.window}")
    print(f"m\t{inverse.m}")
    for word in sorted(inverse.psi_plus, key=inverse.source.alphabet_aprime.key):
        print(f"plus\t{' '.join(word)}\t{inverse.psi_plus[word]}")
    for key in sorted(inverse.psi_minus):
        print(f"minus\t{key[0]} ; {' '.join(key[1:])}\t{inverse.psi_minus[key]}")
    return 0


# -- horseshoe ------------------------------------------------------------


def _cmd_horseshoe_build(args: argparse.Namespace) -> int:
    from .horseshoe import build_model

    model = build_model(args.n, args.eps)
    print(f"delta\t{model.delta}")
    print(f"delta_prime\t{model.delta_prime}")
    for letter in model.letters:
        lo, hi = model.x_interval(letter)
        print(f"strip\t{letter}\t{lo}\t{hi}")
    for side in ("a", "b"):
        lo, hi = model.h_interval(side)
        print(f"h\t{side}\t{lo}\t{hi}")
    return 0


def _cmd_horseshoe_verify(args: argparse.Namespace) -> int:
    from .horseshoe import build_model, coding_space, verify_conjugacy

    model = build_model(args.n, args.eps)
    space = coding_space(model)
    report = verify_conjugacy(model, space, args.depth, args.samples, rng=random.Random(args.seed))
    print(f"samples={report.samples}\tdepth={report.depth}\tviolations={len(report.violations)}")
    for text in report.violations:
        print(f"violation: {text}", file=sys.stderr)
    return 0 if report else 1


def _cmd_horseshoe_stable_string(args: argparse.Namespace) -> int:
    from .horseshoe import build_model, stable_string

    model = build_model(2, args.eps)
    chain = stable_string(model, args.word)
    print("\t".join("".join(word) for word in chain))
    return 0


def _cmd_horseshoe_coding(args: argparse.Namespace) -> int:
    from .horseshoe import build_model, coding_space

    model = build_model(args.n, args.eps)
    space = coding_space(model)
    print(json.dumps(space_to_dict(space), indent=2))
    return 0


# -- parser ---------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    """An ``--eps`` value; a zero denominator is a usage error, as any other
    text that is not a fraction."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


# Every command once: its words, help line, handler and arguments as
# (flags, options) pairs, in help order.  A family's parser is made with its
# first command, so the table's order is also the order of the families.
_FAMILIES = {
    "space": "inspect a space spec",
    "graph": "labeled transition graphs",
    "point": "operate on single points",
    "code": "sliding block codes",
    "horseshoe": "folded planar model",
}
_SPEC = ("spec", {})
_SEED = ("--seed", dict(type=int, default=0, help="RNG seed (default 0)"))
_EPS = ("--eps", dict(type=_fraction, default="1/2"))
_FOLDS = ("-n", dict(type=int, required=True))
_COMMANDS = (
    ("space validate", "check a spec file and print a summary", _cmd_space_validate, [_SPEC]),
    ("space words", "list admissible words of a given length", _cmd_space_words, [
        _SPEC, ("-k", dict(type=int, required=True, help="word length")),
        ("--side", dict(choices=("a", "aprime"), default="aprime"))]),
    ("space matrices", "print the adjacency matrices", _cmd_space_matrices, [_SPEC]),
    ("space irreducible", "test irreducibility", _cmd_space_irreducible, [_SPEC]),
    ("graph build", "build the labeled graph and export DOT", _cmd_graph_build, [
        _SPEC, ("--backward", dict(action="store_true", help="reverse the edges")),
        ("--dot", dict(required=True, metavar="OUT", help="output path, - for stdout"))]),
    ("point shift", "apply the zip shift", _cmd_point_shift, [
        _SPEC, ("point", {}), ("-k", dict(type=int, default=1, help="number of steps (default 1)"))]),
    ("point preimages", "list the pre-images of a point", _cmd_point_preimages, [
        _SPEC, ("point", {}), ("--depth", dict(type=int, default=1, help="pre-image depth (default 1)")),
        ("--dmax", dict(type=int, default=32, help="path-search bound of --classify")),
        ("--classify", dict(action="store_true",
                            help="prepend a # line with the branch classification (depth 1 only)"))]),
    ("point metrics", "distances between two points", _cmd_point_metrics, [
        _SPEC, ("first", {}), ("second", {})]),
    ("periodic", "periodic points of a given period", _cmd_periodic, [
        _SPEC, ("-m", dict(type=int, required=True, help="period")),
        ("--count-only", dict(action="store_true"))]),
    ("preperiodic", "points falling onto a periodic orbit", _cmd_preperiodic, [
        _SPEC, ("point", dict(help="a periodic point")),
        ("--level", dict(type=int, required=True, help="periods to search back"))]),
    ("code check", "test commutation with the shifts", _cmd_code_check, [
        ("codespec", {}), ("--samples", dict(type=int, default=50)), _SEED]),
    ("code apply", "apply the code to a point", _cmd_code_apply, [("codespec", {}), ("point", {})]),
    ("code invert", "search for an inverse code", _cmd_code_invert, [
        ("codespec", {}), ("--max-window", dict(type=int, default=4)), _SEED]),
    ("homoclinic", "orbits doubly asymptotic to a cycle", _cmd_homoclinic, [
        _SPEC, ("--periodic", dict(required=True, metavar="POINT")),
        ("--point", dict(required=True, metavar="POINT"))]),
    ("horseshoe build", "print the model geometry", _cmd_horseshoe_build, [
        ("-n", dict(_FOLDS[1], help="number of folds")), ("--eps", dict(_EPS[1], help="gap parameter"))]),
    ("horseshoe verify", "cross-check the coding against the shift", _cmd_horseshoe_verify, [
        _FOLDS, _EPS, ("--depth", dict(type=int, required=True)),
        ("--samples", dict(type=int, required=True)), _SEED]),
    ("horseshoe stable-string", "fold-connected strip chain (two folds)", _cmd_horseshoe_stable_string, [
        ("word", dict(help="strip word like 00 or 10'1'")), _EPS]),
    ("horseshoe coding", "emit the coding space as a spec file", _cmd_horseshoe_coding, [_FOLDS, _EPS]),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zipshift",
        description="Work with two-alphabet shift spaces from JSON spec files.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    families = {}
    for words, help_line, handler, arguments in _COMMANDS:
        *family, name = words.split()
        subs = top
        if family:
            (word,) = family
            if word not in families:
                families[word] = top.add_parser(word, help=_FAMILIES[word]).add_subparsers(
                    dest="subcommand", required=True
                )
            subs = families[word]
        sub = subs.add_parser(name, help=help_line)
        for flags, options in arguments:
            sub.add_argument(flags, **options)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "classify", False) and args.depth != 1:
        parser.error("--classify needs --depth 1")
    try:
        status = args.handler(args)
        sys.stdout.flush()
    except ZipShiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout (``| head``): point it at devnull so the
        # flush at exit cannot fail again, and exit 1 with nothing on stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
