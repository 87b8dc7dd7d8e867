"""The package and the command line load only the modules they use.

``import zipshift`` loads no submodule; each public name is resolved on
first use from the module that defines it, and each CLI command imports
only what its subcommand needs.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import zipshift

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
EX21 = {
    "alphabet_a": ["a", "b"],
    "alphabet_a_prime": ["1", "2", "3"],
    "n": 1,
    "phi": {"1": "a", "2": "b", "3": "b"},
    "kind": "sft",
    "forbidden": ["1 1", "1 3", "2 1", "3 3"],
}


def loaded_after(script: str) -> set[str]:
    """The zipshift submodules in sys.modules after a fresh interpreter runs
    ``script``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    tail = "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('zipshift.'))))"
    out = subprocess.run(
        [sys.executable, "-c", script + tail],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_import_loads_no_submodule():
    assert loaded_after("import zipshift") == set()


def test_point_preimages_leaves_codes_orbits_horseshoe_unloaded(tmp_path):
    spec = tmp_path / "ex21.json"
    spec.write_text(json.dumps(EX21))
    argv = ["point", "preimages", str(spec), "(b)* ; (2 3)*"]
    loaded = loaded_after(f"from zipshift import cli\nassert cli.main({argv!r}) == 0")
    assert {"zipshift.cli", "zipshift.preimage"} <= loaded
    assert not loaded & {"zipshift.codes", "zipshift.orbits", "zipshift.horseshoe"}


def test_horseshoe_verify_leaves_spaces_machinery_unloaded():
    argv = ["horseshoe", "verify", "-n", "2", "--depth", "3", "--samples", "20"]
    loaded = loaded_after(f"from zipshift import cli\nassert cli.main({argv!r}) == 0")
    assert "zipshift.horseshoe" in loaded
    assert not loaded & {"zipshift.preimage", "zipshift.graph", "zipshift.orbits", "zipshift.codes"}


def test_public_names_resolve_to_their_home():
    """Each name is the object its defining module holds, and ``from
    zipshift import X`` works for all of them."""
    for name in zipshift.__all__:
        obj = getattr(zipshift, name)
        home = importlib.import_module(f"zipshift.{zipshift._HOME[name]}")
        assert obj is getattr(home, name), name
        if not isinstance(obj, types.GenericAlias):  # Word is a type alias
            assert obj.__module__ == home.__name__, name
        scope: dict = {}
        exec(f"from zipshift import {name}", scope)
        assert scope[name] is obj, name


def test_dir_and_unknown_names():
    assert set(zipshift.__all__) <= set(dir(zipshift))
    assert len(set(zipshift.__all__)) == len(zipshift.__all__)
    with pytest.raises(AttributeError):
        zipshift.no_such_name
    with pytest.raises(ImportError):
        exec("from zipshift import no_such_name", {})


def test_public_name_resolves_once(monkeypatch):
    """The first read of a public name goes through the package's
    ``__getattr__`` and keeps what it found; the second read is a plain
    lookup of the same object, and ``dir`` and ``__all__`` do not change."""
    names, listed = dir(zipshift), list(zipshift.__all__)
    monkeypatch.delitem(zipshift.__dict__, "canonical_lift", raising=False)
    calls = []
    resolve = zipshift.__getattr__

    def counted(name):
        calls.append(name)
        return resolve(name)

    monkeypatch.setattr(zipshift, "__getattr__", counted)
    first = zipshift.canonical_lift
    second = zipshift.canonical_lift
    assert calls == ["canonical_lift"]
    assert first is second is importlib.import_module("zipshift.preimage").canonical_lift
    assert dir(zipshift) == names and zipshift.__all__ == listed
