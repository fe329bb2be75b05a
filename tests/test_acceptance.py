"""End-to-end acceptance battery, zero tolerance.

One PASS/FAIL line per criterion.  A red line here is a real regression;
fix the library, never the bound.
"""

import hashlib
import itertools
import json
import subprocess
import sys
import types

import pytest

from commacat import acceptance, cli, core
from commacat.acceptance import _arrow_context

KEYS = (
    "abelian-universality",
    "class-additivity",
    "hn-exhaustive",
    "hn-restriction",
    "composition-series",
    "counterexample",
    "cocomma-suite",
    "wall-scan",
)

# sha256 of the seed-0 selftest report: a change that alters a certified
# answer, a counter or the report layout changes it, and must say why
SELFTEST_SEED0_SHA256 = (
    "0e367cf3fc5eff66764b5e04c852f971a5ad78878065afa530798b01e29949f9")


@pytest.fixture(scope="module")
def selftest_report(tmp_path_factory):
    """The seed-0 selftest report, from one in-process CLI run: the
    criteria below read their verdicts from it, and the byte-identity test
    compares it with a run in a fresh interpreter."""
    out = tmp_path_factory.mktemp("selftest") / "seed0.json"
    code = cli.main(["selftest", "--seed", "0", "--out", str(out)])
    return code, out.read_bytes()


@pytest.fixture(scope="module")
def battery(selftest_report):
    _, blob = selftest_report
    return {c["key"]: c for c in json.loads(blob)["results"]["criteria"]}


def test_battery_covers_every_key(battery):
    assert tuple(battery) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_criterion(battery, key):
    res = battery[key]
    verdict = "PASS" if res["passed"] else "FAIL"
    print(f"[{verdict}] {key}: {res['work']}")
    assert res["passed"], f"{key} failed: {res['failures']}"


def test_a_slow_criterion_still_passes(monkeypatch):
    """The wall clock is reported, never judged: a clock that jumps
    1,000 s per read leaves the verdict alone."""
    clock = itertools.count(step=1000.0)
    monkeypatch.setattr(acceptance, "time",
                        types.SimpleNamespace(monotonic=lambda: next(clock)))
    res = acceptance.class_additivity(0)
    assert res.failures == ()
    assert res.elapsed >= 1000.0


def test_selftest_reports_are_byte_identical(selftest_report, tmp_path):
    # criterion 9: the full battery through the CLI, in process and in a
    # fresh interpreter, must not differ in a single byte
    code, first = selftest_report
    assert code == 0
    out = tmp_path / "second.json"
    proc = subprocess.run(
        [sys.executable, "-m", "commacat.cli", "selftest",
         "--seed", "0", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    second = out.read_bytes()
    verdict = "PASS" if first == second else "FAIL"
    print(f"[{verdict}] selftest-determinism: {len(first)} bytes")
    assert first == second
    assert hashlib.sha256(first).hexdigest() == SELFTEST_SEED0_SHA256


VERIFIERS = {name: getattr(core, name) for name in
             ("verify_kernel_universal", "verify_cokernel_universal")}


def _checked_pairs(monkeypatch, draw: bool):
    """The (source, target) pairs that abelian_universality(0) and
    verify_category hand to the kernel and cokernel verifiers.  With draw
    set, each verifier first draws from the rng it is handed, as the rank
    fallback does."""
    seen = []

    def wrap(verify):
        def wrapped(inst, m, obj, arrow, rng):
            seen.append((m.source, m.target))
            if draw:
                rng.random()
            return verify(inst, m, obj, arrow, rng)
        return wrapped

    for module in (acceptance, core):
        for name, verify in VERIFIERS.items():
            monkeypatch.setattr(module, name, wrap(verify))
    acceptance.abelian_universality(0)
    core.verify_category(_arrow_context(), samples=12, seed=3)
    return seen


def test_verifier_draws_do_not_move_the_sampled_morphisms(monkeypatch):
    assert _checked_pairs(monkeypatch, draw=True) == \
        _checked_pairs(monkeypatch, draw=False)
