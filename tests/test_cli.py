"""End-to-end command runs: frozen report values on the bundled arrow
workspace, the exit-code contract, and byte determinism."""

import json
import re
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


# each name a subcommand looks up, set to one the workspace lacks, and
# the workspace it runs on
UNKNOWN_NAMES = {
    "kernel-context": (("kernel", "nowhere", "into_diagonal"), "arrow"),
    "cokernel-morphism": (("cokernel", "arrow", "nowhere"), "arrow"),
    "image-morphism": (("image", "arrow", "nowhere"), "arrow"),
    "subobjects-context": (("subobjects", "nowhere", "identity_map"), "arrow"),
    "subobjects-object": (("subobjects", "arrow", "nowhere"), "arrow"),
    "kclass-object": (("kclass", "nowhere"), "arrow"),
    "jh-object": (("jh", "nowhere"), "arrow"),
    "hn-stability-table": (("hn", "nowhere", "zero_map"), "arrow"),
    "scan-alpha-system": (("scan-alpha", "nowhere", "toy_curve", "1/2:4"),
                          "coherent_systems"),
    "scan-alpha-geometry": (("scan-alpha", "system", "nowhere", "1/2:4"),
                            "coherent_systems"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_NAMES))
def test_exit_3_on_each_unknown_name(tmp_path, case):
    """A name the workspace lacks: exit 3, one stderr line naming it, and
    no report."""
    args, workspace = UNKNOWN_NAMES[case]
    out = tmp_path / "r.json"
    proc = run_cli(*args, "--spec", bundled(workspace), "--out", str(out),
                   check_code=3)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("spec error: unknown "), proc.stderr
    assert lines[0].endswith("'nowhere'"), proc.stderr
    assert not out.exists() and proc.stdout == ""


@pytest.mark.parametrize("command", [("kclass", "zero_map"), ("jh", "zero_map")])
def test_exit_3_on_a_context_named_like_a_category(tmp_path, command):
    """An object's home name must say whether it lives in a category or a
    context; a workspace that gives both one name is refused at load."""
    with open(bundled("arrow")) as fh:
        doc = json.load(fh)
    doc["categories"]["arrow"] = {"kind": "finvect"}
    spec = tmp_path / "clash.json"
    spec.write_text(json.dumps(doc))
    proc = run_cli(*command, "--spec", str(spec), check_code=3)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("spec error:"), proc.stderr


# subcommand -> (its positional arguments, its help line)
HELP = {
    "validate": ((), "run the axiom suites"),
    "kernel": (("context", "morphism"), "compute a kernel with certificates"),
    "cokernel": (("context", "morphism"),
                 "compute a cokernel with certificates"),
    "image": (("context", "morphism"), "compute an image with certificates"),
    "subobjects": (("context", "object"), "enumerate every subobject"),
    "kclass": (("object",), "class vector and its split parts"),
    "hn": (("stability", "object"), "slope filtration with certificates"),
    "jh": (("object",), "composition series"),
    "scan-alpha": (("system", "geometry", "range"),
                   "wall finding over a weight range"),
    "counterexample": ((), "reproduce the non-additive-leg example"),
    "selftest": ((), "full acceptance suite"),
}


def _help(capsys, *argv):
    from commacat import cli
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([*argv, "--help"])
    return capsys.readouterr().out


def test_help_lists_every_subcommand_with_its_line(capsys):
    text = _help(capsys)
    for name, (_, line) in HELP.items():
        assert re.search(rf"^ +{re.escape(name)} +{re.escape(line)}$", text,
                         re.MULTILINE), (name, text)


@pytest.mark.parametrize("command", sorted(HELP))
def test_each_subcommand_help_keeps_its_arguments(capsys, command):
    text = " ".join(_help(capsys, command).split())
    positionals, _ = HELP[command]
    assert f"[--budget BUDGET] {' '.join(positionals)}".strip() in text, text
    for option, line in (("--spec SPEC", "workspace file (default: the "
                          "bundled arrow workspace)"),
                         ("--out OUT", "report path (default: stdout)"),
                         ("--seed SEED", ""),
                         ("--budget BUDGET", "max enumerable vectors per sweep")):
        assert f"{option} {line}".strip() in text, (option, text)
    if command == "scan-alpha":
        assert "range rational interval lo:hi, e.g. 1/2:4" in text, text


def test_exit_2_on_exhausted_budget():
    run_cli("validate", "--budget", "0", check_code=2)


def test_exit_2_on_a_quiver_with_too_many_dimension_vectors(tmp_path):
    """A 200-vertex path quiver has C(202, 2) dimension vectors of total
    <= 2, past a budget of 1,000, so the functor audit refuses its sweep
    within seconds instead of running through them."""
    n = 200
    spec = {
        "schema": "commacat-workspace/1",
        "field_modulus": 2,
        "categories": {"wide": {"kind": "quiver", "vertices": n,
                                "arrows": [[i, i + 1] for i in range(n - 1)]}},
        "functors": {"id": {"kind": "identity", "category": "wide"}},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run(CMD + ["validate", "--spec", str(path),
                                 "--budget", "1000"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "dimension-vector sweep" in proc.stderr


def test_exit_2_on_a_wide_path_quiver_at_the_default_budget(tmp_path):
    """At the default budget the dimension-vector guard counts each vector
    once per vertex, C(202, 2) * 200 for a 200-vertex path quiver, so the
    functor audit's per-vertex work is refused before it starts; counted
    once, its 20,301 vectors passed and the audit ran through them."""
    n = 200
    spec = {
        "schema": "commacat-workspace/1",
        "field_modulus": 2,
        "categories": {"path": {"kind": "quiver", "vertices": n,
                                "arrows": [[i, i + 1] for i in range(n - 1)]}},
        "functors": {"id": {"kind": "identity", "category": "path"}},
    }
    path = tmp_path / "path.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run(CMD + ["validate", "--spec", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "dimension-vector sweep exceeds vector budget" in proc.stderr


def test_exit_3_on_negative_budget():
    run_cli("validate", "--budget", "-1", check_code=3)


# each object-taking subcommand on a bundled object of total dimension 2
# or more, and the workspace it lives in
OBJECT_COMMANDS = {
    "subobjects": (("subobjects", "arrow", "identity_map"), "arrow"),
    "kclass": (("kclass", "plane_collapse"), "arrow"),
    "hn": (("hn", "Z", "zero_map"), "arrow"),
    "jh": (("jh", "identity_map"), "arrow"),
    "scan-alpha": (("scan-alpha", "system", "toy_curve", "1/2:4"),
                   "coherent_systems"),
    "kernel": (("kernel", "arrow", "into_diagonal"), "arrow"),
    "cokernel": (("cokernel", "arrow", "into_diagonal"), "arrow"),
    "image": (("image", "arrow", "into_diagonal"), "arrow"),
}


@pytest.mark.parametrize("command", sorted(OBJECT_COMMANDS))
def test_exit_2_on_object_above_max_total_dim(tmp_path, command):
    """budget.max_total_dim bounds every object a subcommand takes."""
    args, workspace = OBJECT_COMMANDS[command]
    with open(bundled(workspace)) as fh:
        doc = json.load(fh)
    doc["budget"]["max_total_dim"] = 1
    spec = tmp_path / "small.json"
    spec.write_text(json.dumps(doc))
    proc = run_cli(*args, "--spec", str(spec), check_code=2)
    assert proc.stderr.startswith("budget exhausted:"), proc.stderr
    assert "max_total_dim 1" in proc.stderr


QUIVER = {"kind": "quiver", "vertices": 2, "arrows": [[0, 1]]}
VALIDATE = ("validate",)
SCAN = ("scan-alpha", "system", "toy_curve", "1/2:4")
# each case: edits to a bundled workspace, as (path..., value), the
# command run on the result, and the workspace when it is not arrow
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
    "context-kind-a-list": ([("contexts", "arrow", "kind", ["comma"])],
                            VALIDATE),
    # a functor whose values cannot live in its source or target category
    "eval-vertex-without-target": (
        [("categories", "q", QUIVER),
         ("functors", "h", {"kind": "eval_vertex", "category": "q",
                            "vertex": 0})], VALIDATE),
    "hom-from-without-target": (
        [("categories", "q", QUIVER),
         ("objects", "r", {"category": "q", "dims": [1, 1],
                           "maps": [[[1]]]}),
         ("functors", "h", {"kind": "hom_from", "category": "q",
                            "object": "r"})], VALIDATE),
    "eval-vertex-on-finvect": ([("functors", "h", {"kind": "eval_vertex",
                                                   "category": "vect",
                                                   "vertex": 0})], VALIDATE),
    "tensor-on-a-quiver": (
        [("categories", "q", QUIVER),
         ("functors", "t", {"kind": "tensor", "category": "q", "dim": 2})],
        VALIDATE),
    # a vertex or arrow index that is not an integer
    "eval-vertex-a-float": (
        [("categories", "q", QUIVER),
         ("functors", "h", {"kind": "eval_vertex", "category": "q",
                            "target": "vect", "vertex": 0.0})], VALIDATE),
    "arrow-kernel-a-float": (
        [("categories", "q", QUIVER),
         ("functors", "h", {"kind": "arrow_kernel", "category": "q",
                            "target": "vect", "arrow": 0.0})], VALIDATE),
    "eval-vertex-false": (
        [("categories", "q", QUIVER),
         ("functors", "h", {"kind": "eval_vertex", "category": "q",
                            "target": "vect", "vertex": False})], VALIDATE),
    # an endofunctor kind with a target other than its source
    "tensor-into-another-category": (
        [("categories", "q", QUIVER),
         ("functors", "t", {"kind": "tensor", "category": "vect",
                            "target": "q", "dim": 2})], VALIDATE),
    "identity-into-another-category": (
        [("categories", "q", QUIVER),
         ("functors", "t", {"kind": "identity", "category": "vect",
                            "target": "q"})], VALIDATE),
    "one-plus-into-another-category": (
        [("categories", "q", QUIVER),
         ("functors", "t", {"kind": "one_plus", "category": "vect",
                            "target": "q"})], VALIDATE),
    "coefficients-a-number": ([("stability", "Z", "coefficients", 5)],
                              VALIDATE),
    "coefficients-null": ([("stability", "Z", "coefficients", None)],
                          VALIDATE),
    "weights-entry-a-float": ([("stability", "Z", "weights", ["1", 1.5])],
                              VALIDATE),
    "arrow-endpoint-a-float": ([("categories", "mods", "arrows", [[0, 1.0]])],
                               VALIDATE, "framed_modules"),
    "deg-entry-a-string": ([("stability", "toy_curve", "deg", ["x", 1])],
                           SCAN, "coherent_systems"),
    "deg-entry-a-fraction": ([("stability", "toy_curve", "deg", [1.5, 1])],
                             SCAN, "coherent_systems"),
    "deg-entry-a-bool": ([("stability", "toy_curve", "deg", [True, 1])],
                         SCAN, "coherent_systems"),
    "dim-gamma-zero": ([("stability", "toy_curve", "dim_gamma", [0])],
                       SCAN, "coherent_systems"),
    # a geometry whose rank does not match the scanned context's
    "geometry-right-rank-3": ([("stability", "toy_curve", "deg", [-1, 1, 2]),
                               ("stability", "toy_curve", "rk", [1, 1, 1])],
                              SCAN, "coherent_systems"),
    "geometry-left-rank-2": ([("stability", "toy_curve", "dim_gamma", [1, 1])],
                             SCAN, "coherent_systems"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_exit_3_on_malformed_workspace(tmp_path, case):
    """A workspace of the wrong shape or types is refused at load, and a
    geometry of the wrong rank by the scan: exit 3, one spec error line,
    no traceback."""
    edits, command, *workspace = MALFORMED[case]
    with open(bundled(workspace[0] if workspace else "arrow")) as fh:
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


def test_exit_3_on_a_left_rank_above_the_rank(tmp_path):
    """The left rank of a two-coefficient table may be at most 2."""
    with open(bundled("arrow")) as fh:
        doc = json.load(fh)
    doc["stability"]["Z"]["left_rank"] = 3
    spec = tmp_path / "left_rank.json"
    spec.write_text(json.dumps(doc))
    proc = run_cli("hn", "Z", "zero_map", "--spec", str(spec), check_code=3)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("spec error:"), proc.stderr
    assert "left_rank" in lines[0]


# a range is parsed with the workspace's rational grammar, so decimal
# spellings are refused like out-of-order ends
@pytest.mark.parametrize("scan_range", ["0:4", "4:1", "1/2:1/2", "0.5:4",
                                        "1e0:4"])
def test_exit_3_on_a_scan_range_outside_0_lo_hi(scan_range):
    proc = run_cli("scan-alpha", "system", "toy_curve", scan_range,
                   "--spec", bundled("coherent_systems"), check_code=3)
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


# comma(one_plus, identity) with assume_abelian, and x = (k^0, k^1, [[1]])
ONE_PLUS_WORKSPACE = {
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
        "x": {"context": "broken", "a": "zero", "b": "line", "alpha": [[1]]},
    },
}


def test_exit_1_with_report_on_exactness_violation(tmp_path):
    """A construction the data refuses (here: an assume_abelian context
    whose object has no zero subobject) exits 1 with one stderr line and
    still writes its report, carrying the error."""
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(ONE_PLUS_WORKSPACE))
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


@pytest.mark.parametrize("command", [("subobjects", "broken", "x"), ("jh", "x")],
                         ids=["subobjects", "jh"])
def test_exit_1_with_report_on_a_refused_capability(tmp_path, command):
    """Without assume_abelian the one_plus leg does not open the abelian
    interface; a command that needs it exits 1 and still writes its
    report, carrying the CapabilityError."""
    spec = json.loads(json.dumps(ONE_PLUS_WORKSPACE))
    del spec["contexts"]["broken"]["assume_abelian"]
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "r.json"
    proc = run_cli(*command, "--spec", str(path), "--out", str(out),
                   check_code=1)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("construction failed:"), proc.stderr
    doc = json.loads(out.read_text())
    assert doc["exit_code"] == 1
    assert doc["error"]["type"] == "CapabilityError"


def test_exit_1_with_report_on_a_failed_certificate(tmp_path, monkeypatch,
                                                   capsys):
    """A filtration check that fails raises CertificateFailure; cli.main
    exits 1 and writes a report carrying it instead of a traceback.

    The patched class index lists every member of each class above a
    stage twice, the best one too, so the greedy HN step of zero_map sees
    a tie for the maximal destabilizing subobject."""
    from commacat import cli, stability
    classes_above = stability.SubobjectLattice.classes_above
    monkeypatch.setattr(
        stability.SubobjectLattice, "classes_above",
        lambda self, i: [(c, members * 2)
                         for c, members in classes_above(self, i)])
    out = tmp_path / "r.json"
    assert cli.main(["hn", "Z", "zero_map", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("construction failed:")
    doc = json.loads(out.read_text())
    assert doc["exit_code"] == 1
    assert doc["error"] == {
        "type": "CertificateFailure",
        "message": "maximal destabilizing subobject is not unique; "
                   "the greedy invariant is broken"}


def test_kclass_reports_a_triple_that_does_not_split(tmp_path):
    """Over a non-additive leg the zero maps of the splitting sequence need
    not exist; kclass then exits 1 with one stderr line and a report
    carrying the error, not a traceback."""
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(ONE_PLUS_WORKSPACE))
    out = tmp_path / "r.json"
    proc = run_cli("kclass", "x", "--spec", str(path), "--out", str(out),
                   check_code=1)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("construction failed:"), proc.stderr
    doc = json.loads(out.read_text())
    assert doc["exit_code"] == 1
    assert doc["error"]["type"] == "ExactnessViolation"
    assert "no splitting sequence" in doc["error"]["message"]


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


OVER_DECLARED = pytest.mark.parametrize("flags, context", [
    ({"right_exact": True},
     {"kind": "comma", "left": "shift", "right": "carrier"}),
    ({"left_exact": True},
     {"kind": "comma", "left": "carrier", "right": "shift"}),
], ids=["left-leg", "right-leg"])


def _over_declared_workspace(tmp_path, flags, context):
    """A workspace whose one context has one_plus, declared with flags, as
    a leg."""
    spec = {
        "schema": "commacat-workspace/1",
        "field_modulus": 2,
        "categories": {"vect": {"kind": "finvect"}},
        "functors": {
            "shift": {"kind": "one_plus", "category": "vect", "declare": flags},
            "carrier": {"kind": "identity", "category": "vect"},
        },
        "contexts": {"over": context},
    }
    path = tmp_path / "over.json"
    path.write_text(json.dumps(spec))
    return path


@OVER_DECLARED
def test_validate_reports_an_over_declared_functor(tmp_path, flags, context):
    """one_plus declared exact opens the abelian interface on a square
    that is not linear.  The audit's first hom basis over its nonzero cone
    hom space is refused as a context error next to the functor's flag
    mismatch: validate exits 1 and writes its report."""
    path = _over_declared_workspace(tmp_path, flags, context)
    out = tmp_path / "r.json"
    proc = run_cli("validate", "--spec", str(path), "--out", str(out),
                   check_code=1)
    assert "Traceback" not in proc.stderr
    doc = json.loads(out.read_text())
    assert doc["exit_code"] == 1
    error = doc["results"]["contexts"]["over"]["error"]
    assert error == {"type": "CapabilityError", "message": "hom spaces need "
                     "additive functor legs or a trivial cone hom space"}, error
    (flag,) = flags
    mismatches = doc["results"]["functors"]["shift"]["flag_mismatches"]
    assert any(f"declared {flag}" in m for m in mismatches), mismatches


@OVER_DECLARED
def test_validate_reports_an_over_declared_functor_at_every_seed(
        tmp_path, capsys, flags, context):
    """Which check refuses the nonlinear square depends on the sampled
    audit data; at some seeds it is a linear combination of hom-basis
    elements.  Whichever refuses, validate exits 1 with its report."""
    from commacat import cli
    path = _over_declared_workspace(tmp_path, flags, context)
    for seed in range(31):
        out = tmp_path / f"r{seed}.json"
        assert cli.main(["validate", "--spec", str(path), "--out", str(out),
                         "--seed", str(seed)]) == 1, seed
        assert "Traceback" not in capsys.readouterr().err, seed
        assert json.loads(out.read_text())["exit_code"] == 1, seed


def bundled(name):
    from commacat.cli import bundled_workspace_path
    return bundled_workspace_path(name)
