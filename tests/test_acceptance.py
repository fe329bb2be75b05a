"""End-to-end acceptance battery, zero tolerance.

One PASS/FAIL line per criterion.  A red line here is a real regression;
fix the library, never the bound.
"""

import hashlib
import subprocess
import sys

import pytest

from commacat import acceptance

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
def battery():
    results = acceptance.run_all(seed=0)
    return {res.key: res for res in results}


def test_battery_covers_every_key(battery):
    assert tuple(battery) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_criterion(battery, key):
    res = battery[key]
    verdict = "PASS" if res.passed else "FAIL"
    print(f"[{verdict}] {key}: {res.details}")
    if res.budget_seconds:
        assert res.elapsed <= res.budget_seconds, (
            f"{key} took {res.elapsed:.1f}s, bound {res.budget_seconds:.0f}s")
    assert res.passed, f"{key} failed: {res.failures}"


def test_selftest_reports_are_byte_identical(tmp_path):
    # criterion 9: the full battery through the CLI, twice, must not
    # differ in a single byte
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "commacat.cli", "selftest",
             "--seed", "0", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    verdict = "PASS" if blobs[0] == blobs[1] else "FAIL"
    print(f"[{verdict}] selftest-determinism: {len(blobs[0])} bytes")
    assert blobs[0] == blobs[1]
    assert hashlib.sha256(blobs[0]).hexdigest() == SELFTEST_SEED0_SHA256
