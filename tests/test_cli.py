from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys

import pytest

from zipshift import cli
from zipshift.cli import space_from_dict, space_to_dict

EX21 = {
    "alphabet_a": ["a", "b"],
    "alphabet_a_prime": ["1", "2", "3"],
    "n": 1,
    "phi": {"1": "a", "2": "b", "3": "b"},
    "kind": "sft",
    "forbidden": ["1 1", "1 3", "2 1", "3 3"],
}
SIGMA_F = {
    "alphabet_a": ["a", "b"],
    "alphabet_a_prime": ["1", "2", "3", "4"],
    "n": 1,
    "phi": {"1": "a", "2": "b", "3": "a", "4": "b"},
    "kind": "full",
}
SIGMA_G = {
    "alphabet_a": ["a"],
    "alphabet_a_prime": ["1", "2", "3", "4"],
    "n": 1,
    "phi": {"1": "a", "2": "a", "3": "a", "4": "a"},
    "kind": "full",
}
EVEN = {
    "alphabet_a": ["a", "b", "c"],
    "alphabet_a_prime": ["0", "1"],
    "n": 2,
    "phi": {"1 1": "a", "1 0": "b", "0 1": "b", "0 0": "c"},
    "kind": "sofic",
    "graph": {
        "vertices": ["P", "Q"],
        "edges": [["P", "P", "1"], ["P", "Q", "0"], ["Q", "P", "0"]],
    },
}
REDUCIBLE = {
    "alphabet_a": ["a"],
    "alphabet_a_prime": ["1", "2"],
    "n": 1,
    "phi": {"1": "a", "2": "a"},
    "kind": "sft",
    "forbidden": ["2 1"],
}
PROJ_CODE = {
    "source": SIGMA_F,
    "target_a": ["a", "b"],
    "target_a_prime": ["1", "2"],
    "m": 1,
    "psi_plus": {"1": "1", "2": "2", "3": "1", "4": "2"},
    "psi_minus": {
        "a ; 1": "a", "a ; 2": "a", "a ; 3": "a", "a ; 4": "a",
        "b ; 1": "b", "b ; 2": "b", "b ; 3": "b", "b ; 4": "b",
    },
}


def block2_code_dict():
    space = space_from_dict(EX21)
    plus = {" ".join(u): "".join(u) for u in space.language(2)}
    minus = {}
    for u in space.language(2):
        for a in space.alphabet_a:
            if space.mixed_admissible((a,), u):
                minus[f"{a} ; {' '.join(u)}"] = a + space.tm((u[0],))
    return {
        "source": EX21,
        "target_a": sorted(set(minus.values())),
        "target_a_prime": ["".join(u) for u in space.language(2)],
        "m": 1,
        "psi_plus": plus,
        "psi_minus": minus,
        "window": 2,
    }


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    paths = {}
    data = {
        "ex21": EX21,
        "sigma_f": SIGMA_F,
        "sigma_g": SIGMA_G,
        "even": EVEN,
        "proj": PROJ_CODE,
        "block2": block2_code_dict(),
        "bogus": dict(EX21, bogus=1),
        "reducible": REDUCIBLE,
    }
    for name, payload in data.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_space_validate(specs, capsys):
    rc, out, err = run(capsys, ["space", "validate", specs["ex21"]])
    assert rc == 0 and err == ""
    assert out == "ok\tkind=sft\tn=1\tstep=1\talphabet_a=2\talphabet_a_prime=3\n"
    rc, out, _ = run(capsys, ["space", "validate", specs["even"]])
    assert rc == 0
    assert out == "ok\tkind=sofic\tn=2\tstep=0\talphabet_a=3\talphabet_a_prime=2\n"


def test_space_words(specs, capsys):
    rc, out, _ = run(capsys, ["space", "words", specs["ex21"], "-k", "2"])
    assert rc == 0
    assert out.splitlines() == ["1 2", "2 2", "2 3", "3 1", "3 2"]
    rc, out, _ = run(capsys, ["space", "words", specs["ex21"], "-k", "2", "--side", "a"])
    assert rc == 0
    assert out.splitlines() == ["a b", "b a", "b b"]


def test_space_matrices(specs, capsys):
    rc, out, _ = run(capsys, ["space", "matrices", specs["ex21"]])
    assert rc == 0
    assert out.splitlines() == [
        "meta\tk=1\tn_step=1\tm_step=1",
        "aprime_words\t1\t2\t3",
        "aprime_adj\t1\t0\t1\t0",
        "aprime_adj\t2\t0\t1\t1",
        "aprime_adj\t3\t1\t1\t0",
        "a_words\ta\tb",
        "a_adj\ta\t0\t1",
        "a_adj\tb\t1\t1",
        "t\ta\t0\t1\t0",
        "t\tb\t1\t1\t1",
    ]


def test_space_matrices_needs_finite_type(specs, capsys):
    rc, out, err = run(capsys, ["space", "matrices", specs["even"]])
    assert rc == 1 and out == ""
    assert err == "error: matrix presentation needs a finite-type space\n"


def test_space_irreducible(specs, capsys):
    rc, out, _ = run(capsys, ["space", "irreducible", specs["ex21"]])
    assert rc == 0
    assert out == "irreducible\tyes\n"
    rc, out, _ = run(capsys, ["space", "irreducible", specs["reducible"]])
    assert rc == 0
    assert out == "irreducible\tno\t2\t1\n"


def test_graph_build(specs, capsys, tmp_path):
    target = tmp_path / "g.dot"
    rc, out, _ = run(capsys, ["graph", "build", specs["ex21"], "--dot", str(target)])
    assert rc == 0
    assert out == f"dot\t{target}\tvertices=3\tedges=5\n"
    dot = target.read_text()
    assert dot.startswith("digraph zipshift {")
    assert 'v1_2 -> v1_2 [label="2/b"];' in dot
    # "-" streams the same DOT to stdout instead of a file
    rc, out, _ = run(capsys, ["graph", "build", specs["ex21"], "--dot", "-"])
    assert rc == 0
    assert out == dot
    # --backward reverses every edge: the reducible space's edge 1 -> 2 prints as 2 -> 1
    rc, out, _ = run(capsys, ["graph", "build", specs["reducible"], "--backward", "--dot", "-"])
    assert rc == 0
    assert out.splitlines() == [
        "digraph zipshift {",
        "  rankdir=LR;",
        "  v0_1;",
        "  v1_2;",
        '  v0_1 -> v0_1 [label="1/a"];',
        '  v1_2 -> v0_1 [label="2/a"];',
        '  v1_2 -> v1_2 [label="2/a"];',
        "}",
    ]


def test_graph_build_into_an_unwritable_path_is_an_error_line(specs, capsys, tmp_path):
    target = tmp_path / "missing" / "g.dot"
    rc, out, err = run(capsys, ["graph", "build", specs["ex21"], "--dot", str(target)])
    assert rc == 1 and out == ""
    assert err == f"error: cannot write {target}: [Errno 2] No such file or directory: '{target}'\n"
    assert not target.parent.exists()


def test_point_shift(specs, capsys):
    rc, out, _ = run(
        capsys, ["point", "shift", specs["ex21"], "(b a)* b a b ; 3 1 2 2 (2 3)*"]
    )
    assert rc == 0
    assert out == "(a b)* b ; 1 2 2 (2 3)*\n"
    rc, out, _ = run(capsys, ["point", "shift", specs["ex21"], "(b)* ; (2 3)*", "-k", "2"])
    assert rc == 0
    assert out == "(b)* ; (2 3)*\n"


def test_point_preimages(specs, capsys):
    rc, out, _ = run(capsys, ["point", "preimages", specs["sigma_g"], "(a)* ; (1)*"])
    assert rc == 0
    assert out.splitlines() == [
        "(a)* ; (1)*",
        "(a)* ; 2 (1)*",
        "(a)* ; 3 (1)*",
        "(a)* ; 4 (1)*",
    ]


def test_point_preimages_runs_no_classification(specs, capsys, monkeypatch):
    """Without --classify the command lists the branches and never runs the
    path-search classification it would not print."""

    def no_classify(*args):
        raise AssertionError("the pre-image classification ran")

    monkeypatch.setattr("zipshift.preimage._classify", no_classify)
    rc, out, _ = run(capsys, ["point", "preimages", specs["sigma_g"], "(a)* ; (1)*", "--dmax", "5"])
    assert rc == 0
    assert out.splitlines() == [
        "(a)* ; (1)*",
        "(a)* ; 2 (1)*",
        "(a)* ; 3 (1)*",
        "(a)* ; 4 (1)*",
    ]


def test_point_preimages_classify(specs, capsys):
    rc, out, _ = run(
        capsys, ["point", "preimages", specs["sigma_f"], "(a)* ; (1)*", "--classify"]
    )
    assert rc == 0
    assert out.splitlines() == [
        "# kind=branching\tmultiplicity=2\tsearched_to=32",
        "(a)* ; (1)*",
        "(a)* ; 3 (1)*",
    ]


def test_point_preimages_depth(specs, capsys):
    rc, out, _ = run(
        capsys, ["point", "preimages", specs["sigma_f"], "(a)* ; (1)*", "--depth", "3"]
    )
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0] == "(a)* ; (1)*"
    assert lines[-1] == "(a)* ; 3 3 3 (1)*"


def test_point_metrics(specs, capsys):
    rc, out, _ = run(
        capsys, ["point", "metrics", specs["ex21"], "(b)* ; (2 3)*", "(b)* ; (3 2)*"]
    )
    assert rc == 0
    assert out == "d=1\td_plus=1\td_minus=0\td_pm=1/2\n"


def test_periodic(specs, capsys):
    rc, out, _ = run(capsys, ["periodic", specs["ex21"], "-m", "2"])
    assert rc == 0
    assert out.splitlines() == [
        "2 2\t(b)* ; (2)*",
        "2 3\t(b)* ; (2 3)*",
        "3 2\t(b)* ; (3 2)*",
    ]
    rc, out, _ = run(capsys, ["periodic", specs["ex21"], "-m", "3", "--count-only"])
    assert rc == 0
    assert out == "7\n"


def test_preperiodic(specs, capsys):
    rc, out, _ = run(capsys, ["preperiodic", specs["ex21"], "(b)* ; (2)*", "--level", "2"])
    assert rc == 0
    assert out.splitlines() == ["(b)* ; 2 3 (2)*", "(b)* ; 3 (2)*"]


def test_homoclinic(specs, capsys):
    rc, out, _ = run(
        capsys,
        [
            "homoclinic",
            specs["sigma_g"],
            "--periodic",
            "(a)* ; (1)*",
            "--point",
            "(a)* ; 2 (1)*",
        ],
    )
    assert rc == 0
    assert out.splitlines() == [
        "datum\tk_back=0\tn_back=1\tk_fwd=0\tn_fwd=1",
        "orbits\t1\tbound=0",
        "orbit\t\t(a)* ; 1 2 (1)*",
    ]


def test_code_check(specs, capsys):
    rc, out, err = run(capsys, ["code", "check", specs["proj"], "--samples", "40"])
    assert rc == 0 and err == ""
    assert out == "ok\tsamples=40\n"
    rc, out, _ = run(capsys, ["code", "check", specs["block2"], "--samples", "40"])
    assert rc == 0
    assert out == "ok\tsamples=40\n"


def test_code_apply(specs, capsys):
    rc, out, _ = run(capsys, ["code", "apply", specs["proj"], "(a b)* ; 3 (1 4)*"])
    assert rc == 0
    assert out == "(a b)* ; 1 (1 2)*\n"


def test_code_window_defaults_to_the_longest_key(specs, capsys, tmp_path):
    """A code spec without ``window`` reads its windows as long as its
    longest positive-table key, here 2 while the source's n is 1."""
    data = block2_code_dict()
    del data["window"]
    path = tmp_path / "block2_no_window.json"
    path.write_text(json.dumps(data))
    point = "(b)* a ; 2 (2 3)*"
    rc, out, err = run(capsys, ["code", "apply", str(path), point])
    assert rc == 0 and err == ""
    assert (rc, out) == run(capsys, ["code", "apply", specs["block2"], point])[:2]


def test_code_invert_not_found(specs, capsys):
    rc, out, err = run(capsys, ["code", "invert", specs["proj"], "--max-window", "2"])
    assert rc == 1 and out == ""
    assert err == "error: no inverse found with window <= 2\n"
    rc, out, err = run(capsys, ["code", "invert", specs["proj"], "--max-window", "0"])
    assert rc == 1 and out == "" and err == "error: window bound must be >= 1, got 0\n"


def test_code_invert(specs, capsys):
    rc, out, _ = run(capsys, ["code", "invert", specs["block2"]])
    assert rc == 0
    assert out.splitlines() == [
        "window\t1",
        "m\t1",
        "plus\t12\t1",
        "plus\t22\t2",
        "plus\t23\t2",
        "plus\t31\t3",
        "plus\t32\t3",
        "minus\tab ; 22\ta",
        "minus\tab ; 23\ta",
        "minus\tba ; 12\tb",
        "minus\tbb ; 22\tb",
        "minus\tbb ; 23\tb",
        "minus\tbb ; 31\tb",
        "minus\tbb ; 32\tb",
    ]


def test_horseshoe_build(capsys):
    rc, out, _ = run(capsys, ["horseshoe", "build", "-n", "2"])
    assert rc == 0
    assert out.splitlines() == [
        "delta\t9/2",
        "delta_prime\t4/9",
        "strip\t0\t0\t2/9",
        "strip\t1\t5/18\t1/2",
        "strip\t0'\t1/2\t13/18",
        "strip\t1'\t7/9\t1",
        "h\ta\t0\t4/9",
        "h\tb\t5/9\t1",
    ]
    rc, out, _ = run(capsys, ["horseshoe", "build", "-n", "1", "--eps", "1"])
    assert rc == 0
    assert out.splitlines() == [
        "delta\t3",
        "delta_prime\t1/3",
        "strip\t0\t0\t1/3",
        "strip\t1\t2/3\t1",
        "h\ta\t0\t1/3",
        "h\tb\t2/3\t1",
    ]


def test_horseshoe_verify(capsys):
    rc, out, err = run(
        capsys, ["horseshoe", "verify", "-n", "1", "--depth", "4", "--samples", "20"]
    )
    assert rc == 0 and err == ""
    assert out == "samples=20\tdepth=4\tviolations=0\n"


def test_negative_sample_counts_rejected(specs, capsys):
    rc, out, err = run(
        capsys, ["horseshoe", "verify", "-n", "2", "--depth", "3", "--samples", "-3"]
    )
    assert rc == 1 and out == ""
    assert err == "error: conjugacy checks need at least one sample, got -3\n"
    rc, out, err = run(capsys, ["code", "check", specs["block2"], "--samples", "-2"])
    assert rc == 1 and out == ""
    assert err == "error: sample count must be >= 0, got -2\n"


def test_search_bound_below_one_rejected(specs, capsys):
    for extra in (["--classify"], ["--depth", "2"]):
        argv = ["point", "preimages", specs["sigma_f"], "(a)* ; (1)*", "--dmax", "0", *extra]
        rc, out, err = run(capsys, argv)
        assert rc == 1 and out == ""
        assert err == "error: search bound must be >= 1, got 0\n"


def test_classify_needs_depth_one(specs, capsys):
    """--classify describes the depth-1 branches only, so with another depth
    it is refused as a usage error instead of being dropped."""
    argv = ["point", "preimages", specs["sigma_f"], "(a)* ; (1)*", "--depth", "2", "--classify"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: --classify needs --depth 1\n")


def test_horseshoe_stable_string(capsys):
    rc, out, _ = run(capsys, ["horseshoe", "stable-string", "00"])
    assert rc == 0
    assert out == "00\t10\t11\t01\n"
    rc, out, _ = run(capsys, ["horseshoe", "stable-string", "10'1'"])
    assert rc == 0
    assert out == "00'0'\t10'0'\t11'0'\t01'0'\t01'1'\t11'1'\t10'1'\t00'1'\n"


def test_horseshoe_coding_round_trip(capsys):
    rc, out, _ = run(capsys, ["horseshoe", "coding", "-n", "2"])
    assert rc == 0
    space = space_from_dict(json.loads(out))
    assert space.kind == "full"
    assert space.alphabet_aprime.symbols == ("0", "1", "0'", "1'")
    assert space_to_dict(space) == json.loads(out)


def test_unknown_spec_key(specs, capsys):
    rc, out, err = run(capsys, ["space", "validate", specs["bogus"]])
    assert rc == 1 and out == ""
    assert err == "error: unknown space spec keys: bogus\n"


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("space", dict(EVEN, graph=dict(EVEN["graph"], vertices=5)), "graph vertices must be a list of strings"),
        ("space", dict(EVEN, graph=dict(EVEN["graph"], vertices="PQ")), "graph vertices must be a list of strings"),
        (
            "space",
            dict(EVEN, graph=dict(EVEN["graph"], edges=5)),
            "graph edges must be a list of [src, dst, label] triples",
        ),
        ("space", dict(EX21, forbidden=[["0", "0"]]), "forbidden must be a list of strings"),
        ("code", dict(PROJ_CODE, target_a=5), "target_a must be a list of strings"),
        ("space", dict(SIGMA_G, phi={" ": "a"}), "empty word in spec: ' '"),
        ("space", None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
        ("space", "x", "{path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("space", [], "space spec must be a JSON object"),
        ("space", {k: v for k, v in EX21.items() if k not in ("n", "kind")}, "missing space spec keys: kind, n"),
        ("space", dict(EX21, kind="tree"), "kind must be full, sft or sofic, not 'tree'"),
        ("space", dict(EX21, n=True), "n must be a positive integer, not True"),
        ("space", dict(EX21, phi=["1"]), "phi must map words to letters"),
        ("space", dict(EX21, phi={"1 2": "a"}), "phi key '1 2' is not a word of 1 letters"),
        ("space", dict(SIGMA_F, forbidden=["1 1"]), "forbidden is only valid for sft spaces"),
        ("space", dict(EX21, graph=EVEN["graph"]), "graph is only valid for sofic spaces"),
        ("space", {k: v for k, v in EX21.items() if k != "forbidden"}, "sft specs need a forbidden word list"),
        ("space", dict(EVEN, graph={"vertices": ["P"]}), "sofic specs need a graph object with vertices and edges"),
        (
            "space",
            dict(EVEN, graph=dict(EVEN["graph"], edges=[["P", "P"]])),
            "graph edges must be [src, dst, label] triples, not ['P', 'P']",
        ),
        ("code", [], "code spec must be a JSON object"),
        ("code", dict(PROJ_CODE, extra=1), "unknown code spec keys: extra"),
        (
            "code",
            {k: v for k, v in PROJ_CODE.items() if k not in ("m", "psi_minus")},
            "missing code spec keys: m, psi_minus",
        ),
        ("code", dict(PROJ_CODE, m=0), "m must be a positive integer, not 0"),
        ("code", dict(PROJ_CODE, psi_minus=[]), "psi_plus and psi_minus must be objects"),
        ("code", dict(PROJ_CODE, psi_minus={"a 1": "a"}), "psi_minus keys look like 'a ; w1 w2', not 'a 1'"),
        (
            "code",
            dict(PROJ_CODE, psi_minus={"a b ; 1": "a"}),
            "psi_minus key 'a b ; 1' needs a single letter before ';'",
        ),
        ("code", dict(PROJ_CODE, window="2"), "window must be a positive integer, not '2'"),
        (
            "space",
            b"\xff\xfe{}",
            "{path} is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
        (
            "space",
            dict(EX21, alphabet_a=["a", "b", "7"], phi={"1": "a", "2": "b", "3": 7}),
            "phi value for '3' must be a string, not 7",
        ),
        ("space", dict(EX21, phi={"1": "a", "2": "b", "3": "a", " 3": "b"}), "phi keys '3' and ' 3' name one word"),
        ("code", dict(PROJ_CODE, psi_plus={"1": 1, "2": 2}), "psi_plus value for '1' must be a string, not 1"),
        (
            "code",
            dict(PROJ_CODE, psi_plus=dict(PROJ_CODE["psi_plus"], **{"4 ": "1"})),
            "psi_plus keys '4' and '4 ' name one word",
        ),
        (
            "code",
            dict(PROJ_CODE, psi_minus=dict(PROJ_CODE["psi_minus"], **{"a;1": "b"})),
            "psi_minus keys 'a ; 1' and 'a;1' name one word",
        ),
        (
            "code",
            dict(PROJ_CODE, psi_minus=dict(PROJ_CODE["psi_minus"], **{"a ; 1": None})),
            "psi_minus value for 'a ; 1' must be a string, not None",
        ),
    ],
    ids=[
        "vertices-int", "vertices-string", "edges-int", "forbidden-nested", "target-a-int",
        "empty-word", "unreadable", "invalid-json", "space-not-object", "space-missing-keys", "kind", "n", "phi",
        "phi-key", "forbidden-not-sft", "graph-not-sofic", "no-forbidden", "graph-keys", "edge-triples",
        "code-not-object", "code-unknown-keys", "code-missing-keys", "m", "table-types", "seam-key-shape",
        "seam-key-letter", "window", "not-utf8", "phi-value", "phi-twice", "psi-plus-value",
        "psi-plus-twice", "psi-minus-twice", "psi-minus-value",
    ],
)
def test_spec_schema_drift_is_an_error_line(tmp_path, capsys, command, payload, message):
    """A spec file off the schema is one error line and exit status 1.  A
    payload of None names a file that does not exist; a string or bytes
    value is written as it stands, anything else as JSON."""
    path = tmp_path / "spec.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    elif payload is not None:
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    verb = "validate" if command == "space" else "check"
    rc, out, err = run(capsys, [command, verb, str(path)])
    assert rc == 1 and out == ""
    assert err == "error: " + message.format(path=path) + "\n"


def test_deeply_nested_json_is_an_error_line(tmp_path, capsys):
    """JSON nested past the decoder's recursion limit is bad JSON too: one
    error line and exit status 1, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    rc, out, err = run(capsys, ["space", "validate", str(path)])
    assert rc == 1 and out == ""
    assert err.startswith(f"error: {path} is not valid JSON: ") and "recursion" in err
    assert err.count("\n") == 1


def test_inadmissible_point_rejected(specs, capsys):
    rc, _, err = run(capsys, ["point", "preimages", specs["ex21"], "(b)* ; (3 3)*"])
    assert rc == 1
    assert err == "error: window 3 3 at index 0 is not admissible\n"
    # every width-2 window of this point is admissible; no walk reads its right tail
    rc, _, err = run(capsys, ["point", "preimages", specs["even"], "(a)* ; (1 0)*"])
    assert rc == 1
    assert err == "error: right tail is not realizable by any walk\n"


def test_preperiodic_of_a_non_periodic_point_is_an_error_line(specs, capsys):
    rc, out, err = run(capsys, ["preperiodic", specs["ex21"], "(b)* ; 2 (2 3)*", "--level", "1"])
    assert rc == 1 and out == ""
    assert err == "error: point '(b)* ; 2 (2 3)*' is not periodic under the zip shift\n"


def test_loose_shift_still_checks_alphabets(specs, capsys):
    rc, _, err = run(capsys, ["point", "shift", specs["ex21"], "(b)* ; (9)*"])
    assert rc == 1
    assert err == "error: letter '9' at index 0 is not in A'\n"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["space"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["horseshoe", "build", "-n", "1"],
        ["horseshoe", "verify", "-n", "1", "--depth", "2", "--samples", "3"],
        ["horseshoe", "stable-string", "00"],
        ["horseshoe", "coding", "-n", "1"],
    ],
)
def test_zero_denominator_eps_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--eps", "1/0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --eps: invalid Fraction value: '1/0'\n")


def test_output_is_deterministic(specs, capsys):
    first = run(capsys, ["periodic", specs["ex21"], "-m", "4"])
    second = run(capsys, ["periodic", specs["ex21"], "-m", "4"])
    assert first == second
    first = run(capsys, ["code", "check", specs["block2"], "--samples", "30"])
    second = run(capsys, ["code", "check", specs["block2"], "--samples", "30"])
    assert first == second


def test_closed_stdout_is_a_quiet_exit_1(specs):
    """Reading one line of 65,536 and closing the pipe (``| head -1``) ends
    the command with status 1 and nothing on stderr, not a traceback."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "zipshift", "space", "words", specs["sigma_f"], "-k", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"1 1 1 1 1 1 1 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def _readme_section(title):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_list_names_every_command():
    listed = set()
    for line in _readme_section("Command line").splitlines():
        if line.startswith("zipshift "):
            words = line.split()[1:3]
            listed.add(" ".join(words if words[0] in cli._FAMILIES else words[:1]))
    commands = [row[0] for row in cli._COMMANDS]
    assert len(commands) == 18 and listed == set(commands)


def test_readme_examples_print_what_they_show(specs, capsys):
    files = {"ex21.json": specs["ex21"], "sigma_g.json": specs["sigma_g"], "reducible.json": specs["reducible"]}
    fenced = _readme_section("Command line").split("```")[1::2]
    (shown,) = [block for block in fenced if block.startswith("\n$ ")]
    examples = shown.strip("\n").split("\n\n")
    assert len(examples) == 4
    for example in examples:
        command, want = example.split("\n", 1)
        argv = [files.get(word, word) for word in shlex.split(command)[2:]]
        assert run(capsys, argv) == (0, want + "\n", "")
