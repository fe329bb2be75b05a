"""End-to-end command runs: frozen report values on the bundled arrow
workspace, the exit-code contract, and byte determinism."""

import json
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "commacat.cli"]


def run_cli(*args, check_code=None):
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True)
    if check_code is not None:
        assert proc.returncode == check_code, proc.stderr + proc.stdout
    return proc


def run_report(*args, check_code=0):
    proc = run_cli(*args, check_code=check_code)
    return json.loads(proc.stdout)


def test_validate_bundled_arrow():
    doc = run_report("validate")
    assert doc["schema"] == "commacat-report/1"
    assert doc["exit_code"] == 0
    assert doc["spec_digest"].startswith("sha256:")
    functors = doc["results"]["functors"]
    assert {"left_embed", "right_embed"} <= set(functors)
    for report in functors.values():
        assert report["flag_mismatches"] == []


def test_kernel_frozen_values():
    doc = run_report("kernel", "arrow", "into_diagonal")
    res = doc["results"]
    assert res["carrier"]["a"] == {"dim": 1}
    assert res["carrier"]["b"] == {"dim": 0}
    assert res["class"] == [1, 0]
    assert res["universal_property_violations"] == []


def test_cokernel_frozen_values():
    doc = run_report("cokernel", "arrow", "through_sections")
    assert doc["results"]["class"] == [0, 1]


def test_image_factors_through():
    doc = run_report("image", "arrow", "into_diagonal")
    assert doc["exit_code"] == 0


def test_subobjects_count():
    doc = run_report("subobjects", "arrow", "identity_map")
    assert doc["results"]["count"] == 3
    doc = run_report("subobjects", "arrow", "zero_map")
    assert doc["results"]["count"] == 4


def test_kclass_decomposes():
    doc = run_report("kclass", "plane_collapse")
    res = doc["results"]
    assert res["class"] == [2, 1]
    assert res["decomposition"]["left_class"] == [2]
    assert res["decomposition"]["right_class"] == [1]
    assert res["decomposition"]["witness_violations"] == []


def test_hn_frozen_filtration():
    doc = run_report("hn", "Z", "zero_map")
    res = doc["results"]
    assert res["steps"] == [[0, 0], [1, 0], [1, 1]]
    assert res["factor_slopes"] == ["inf", "0"]
    assert res["factors_semistable"] == [True, True]


def test_jh_policy_independent():
    doc = run_report("jh", "identity_map")
    res = doc["results"]
    assert sorted(res["factor_classes"]) == [[0, 1], [1, 0]]
    assert res["policy_independent"] is True


def test_scan_alpha_frozen_wall():
    doc = run_report("scan-alpha", "system", "toy_curve", "1/2:4",
                     "--spec", bundled("coherent_systems"))
    res = doc["results"]
    assert res["walls"] == ["2"]
    assert res["grid_oracle_agrees"] is True
    assert res["candidates"] == ["2/3", "1", "4/3", "2"]


def test_counterexample_command():
    doc = run_report("counterexample")
    assert doc["results"]["right_exactness_witnessed"] is True
    assert doc["exit_code"] == 0


def test_reports_carry_no_float_tokens():
    for args in (("hn", "Z", "zero_map"),
                 ("scan-alpha", "system", "toy_curve", "1/2:4",
                  "--spec", bundled("coherent_systems"))):
        proc = run_cli(*args, check_code=0)
        doc = json.loads(proc.stdout)

        def sweep(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    sweep(v)
            elif isinstance(node, list):
                for v in node:
                    sweep(v)

        sweep(doc)


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli("hn", "Z", "plane_collapse", "--seed", "3", "--out", str(out1),
            check_code=0)
    run_cli("hn", "Z", "plane_collapse", "--seed", "3", "--out", str(out2),
            check_code=0)
    assert out1.read_bytes() == out2.read_bytes()


def test_wall_clock_stays_off_the_report(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("validate", "--out", str(out), check_code=0)
    doc = json.loads(out.read_text())
    assert doc["timing"]["unit"] == "logical-checks"
    assert "wall-clock" in proc.stderr


def test_exit_3_on_missing_spec():
    run_cli("validate", "--spec", "/nonexistent.json", check_code=3)


def test_exit_3_on_usage_error():
    proc = run_cli("no-such-command")
    assert proc.returncode == 3


def test_exit_3_on_unknown_name():
    run_cli("hn", "Z", "no_such_object", check_code=3)


def test_exit_2_on_exhausted_budget():
    run_cli("validate", "--budget", "0", check_code=2)


def test_exit_3_on_negative_budget():
    run_cli("validate", "--budget", "-1", check_code=3)


QUIVER = {"kind": "quiver", "vertices": 2, "arrows": [[0, 1]]}
VALIDATE = ("validate",)
# each case: edits to the bundled arrow workspace, as (path..., value),
# and the command run on the result
MALFORMED = {
    "max-vectors-not-a-number": ([("budget", "max_vectors", "big")],
                                 ("subobjects", "arrow", "identity_map")),
    "budget-not-an-object": ([("budget", [])], VALIDATE),
    "categories-as-a-list": ([("categories", [{"kind": "finvect"}])], VALIDATE),
    "object-entry-not-an-object": ([("objects", "line", 3)], VALIDATE),
    "dim-true": ([("objects", "line", "dim", True)], VALIDATE),
    "seed-not-an-integer": ([("seed", "x")], VALIDATE),
    "left-rank-not-an-integer": ([("stability", "Z", "left_rank", "x")],
                                 ("hn", "Z", "zero_map")),
    "vertices-as-a-string": ([("categories", "q", dict(QUIVER, vertices="2"))],
                             VALIDATE),
    "rep-dims-too-short": ([("categories", "q", QUIVER),
                            ("objects", "r", {"category": "q", "dims": [1],
                                              "maps": [[[1]]]})], VALIDATE),
    "name-not-a-string": ([("objects", "zero_map", "a", ["line"])], VALIDATE),
    "declare-not-an-object": ([("functors", "left_embed", "declare",
                                ["additive"])], VALIDATE),
    "flag-as-a-string": ([("contexts", "arrow", "assume_abelian", "no")],
                         VALIDATE),
    "tensor-dim-negative": ([("functors", "t", {"kind": "tensor",
                                                "category": "vect", "dim": -1})],
                            VALIDATE),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_exit_3_on_malformed_workspace(tmp_path, case):
    """A workspace of the wrong shape or types is refused at load: exit 3,
    one spec error line, no traceback."""
    edits, command = MALFORMED[case]
    with open(bundled("arrow")) as fh:
        doc = json.load(fh)
    for *path, key, value in edits:
        node = doc
        for step in path:
            node = node[step]
        node[key] = value
    spec = tmp_path / "malformed.json"
    spec.write_text(json.dumps(doc))
    proc = run_cli(*command, "--spec", str(spec), check_code=3)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("spec error:"), proc.stderr


def test_exit_1_on_false_declaration(tmp_path):
    """A workspace that overstates a functor's exactness must fail
    validation, carrying the witnessed violation in the report."""
    spec = {
        "schema": "commacat-workspace/1",
        "field_modulus": 2,
        "categories": {
            "vect": {"kind": "finvect"},
            "mods": {"kind": "quiver", "vertices": 2, "arrows": [[0, 1]]},
        },
        "functors": {
            "crush": {"kind": "arrow_cokernel", "category": "mods",
                      "target": "vect", "arrow": 0,
                      "declare": {"left_exact": True}},
            "carrier": {"kind": "identity", "category": "vect"},
        },
    }
    path = tmp_path / "faulty.json"
    path.write_text(json.dumps(spec))
    proc = run_cli("validate", "--spec", str(path))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["results"]["functors"]["crush"]["flag_mismatches"]


def test_exit_1_with_report_on_exactness_violation(tmp_path):
    """A construction the data refuses (here: an assume_abelian context
    whose object has no zero subobject) exits 1 with one stderr line and
    still writes its report, carrying the error."""
    spec = {
        "schema": "commacat-workspace/1",
        "field_modulus": 2,
        "categories": {"vect": {"kind": "finvect"}},
        "functors": {
            "shift": {"kind": "one_plus", "category": "vect"},
            "carrier": {"kind": "identity", "category": "vect"},
        },
        "contexts": {
            "broken": {"kind": "comma", "left": "shift", "right": "carrier",
                       "assume_abelian": True},
        },
        "objects": {
            "zero": {"category": "vect", "dim": 0},
            "line": {"category": "vect", "dim": 1},
            "x": {"context": "broken", "a": "zero", "b": "line",
                  "alpha": [[1]]},
        },
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "r.json"
    proc = run_cli("jh", "x", "--spec", str(path), "--out", str(out),
                   check_code=1)
    assert "Traceback" not in proc.stderr
    failures = [line for line in proc.stderr.splitlines()
                if line.startswith("construction failed:")]
    assert len(failures) == 1
    doc = json.loads(out.read_text())
    assert doc["exit_code"] == 1
    assert doc["error"]["type"] == "ExactnessViolation"
    assert "no zero subobject" in doc["error"]["message"]


def test_validate_records_a_context_whose_audit_raises(tmp_path):
    """A context whose audit cannot run (hom spaces over a non-additive
    leg) gets an error entry and counts as a failure; the other contexts
    are still audited and the report is written."""
    spec = {
        "schema": "commacat-workspace/1",
        "field_modulus": 2,
        "categories": {"vect": {"kind": "finvect"}},
        "functors": {
            "shift": {"kind": "one_plus", "category": "vect"},
            "carrier": {"kind": "identity", "category": "vect"},
        },
        "contexts": {
            "arrow": {"kind": "comma", "left": "carrier", "right": "carrier"},
            "broken": {"kind": "comma", "left": "shift", "right": "carrier",
                       "assume_abelian": True},
        },
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "r.json"
    proc = run_cli("validate", "--spec", str(path), "--out", str(out),
                   check_code=1)
    assert "Traceback" not in proc.stderr
    doc = json.loads(out.read_text())
    assert doc["exit_code"] == 1
    contexts = doc["results"]["contexts"]
    assert contexts["broken"]["error"]["type"] == "CapabilityError"
    assert "additive functor legs" in contexts["broken"]["error"]["message"]
    assert contexts["arrow"]["checks"] > 0
    assert contexts["arrow"]["violations"] == []
    assert doc["results"]["failures"] >= 1


def bundled(name):
    from commacat.cli import bundled_workspace_path
    return bundled_workspace_path(name)
