"""Hostile workspaces keep the CLI contract.

Seeded hypothesis mutations of the three bundled workspaces (keys dropped
or retyped, lists shrunk, flags flipped, references swapped) are run
through every subcommand in-process.  No exception may escape `cli.main`,
the exit code stays in {0, 1, 2, 3}, and exits 0 and 1 write a report
that parses as JSON.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from commacat import acceptance, cli

WORKSPACES = ("arrow", "coherent_systems", "framed_modules")


def _bundled(name):
    with open(cli.bundled_workspace_path(name)) as fh:
        return json.load(fh)


BUNDLED = {name: _bundled(name) for name in WORKSPACES}


def _first(doc, section, test=lambda entry: True):
    return next((name for name, entry in doc.get(section, {}).items()
                 if test(entry)), "none")


def _argvs(doc, scan_range):
    """One argv per subcommand, naming entries of the unmutated workspace
    so that the mutations reach the commands."""
    ctx = _first(doc, "contexts")
    mor = _first(doc, "morphisms")
    obj = _first(doc, "objects", lambda e: "context" in e)
    table = _first(doc, "stability", lambda e: e.get("kind") != "geometry")
    geometry = _first(doc, "stability", lambda e: e.get("kind") == "geometry")
    return [["validate"], ["kernel", ctx, mor], ["cokernel", ctx, mor],
            ["image", ctx, mor], ["subobjects", ctx, obj], ["kclass", obj],
            ["hn", table, obj], ["jh", obj],
            ["scan-alpha", obj, geometry, scan_range], ["counterexample"],
            ["selftest"]]


def _paths(node, prefix=()):
    """The path of every value inside node, node itself first."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _names(node):
    """Every key and string value in node: the candidate references."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _names(value)
    elif isinstance(node, list):
        for value in node:
            yield from _names(value)
    elif isinstance(node, str):
        yield node


RETYPED = [None, True, False, 0, 1, -1, 2, 1.5, "x", "1/2", [], [0], {},
           [[1]], {"kind": "finvect"}]
MUTATIONS = ("drop", "retype", "shrink", "flip", "swap")


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(WORKSPACES))
    doc = json.loads(json.dumps(BUNDLED[name]))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))[1:]))
        *head, last = path
        parent = doc
        for step in head:
            parent = parent[step]
        value = parent[last]
        kind = draw(st.sampled_from(MUTATIONS))
        if kind == "drop":
            del parent[last]
        elif kind == "retype":
            parent[last] = draw(st.sampled_from(RETYPED))
        elif kind == "shrink" and isinstance(value, (list, dict)) and value:
            keep = draw(st.integers(0, len(value) - 1))
            parent[last] = (value[:keep] if isinstance(value, list)
                            else dict(list(value.items())[:keep]))
        elif kind == "flip":
            parent[last] = not value if isinstance(value, bool) else True
        elif kind == "swap":
            parent[last] = draw(st.sampled_from(sorted(set(_names(doc)))))
    scan_range = draw(st.sampled_from(["1/2:4", "0:4", "4:1", "2:2", "x"]))
    return name, doc, scan_range


@pytest.fixture
def no_battery(monkeypatch):
    # the battery reads nothing from the workspace but its seed, and
    # tests/test_acceptance.py runs it; the selftest command around it
    # still runs
    monkeypatch.setattr(acceptance, "run_all", lambda seed=0: [])


@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(mutated())
def test_mutated_workspaces_keep_the_exit_contract(no_battery, case):
    name, doc, scan_range = case
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "ws.json")
        with open(spec, "w") as fh:
            json.dump(doc, fh)
        for argv in _argvs(BUNDLED[name], scan_range):
            out = os.path.join(tmp, "report.json")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv + ["--spec", spec, "--out", out])
            assert code in (0, 1, 2, 3), argv
            if code in (0, 1):
                with open(out) as fh:
                    assert json.load(fh)["exit_code"] == code, argv
                os.remove(out)
