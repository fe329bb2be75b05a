"""Self-tests of the benchmark: `python3 -m pytest perfbench`.

The in-process workloads run on a reduced item set; the selftest workload
has no smaller form, so its two tests take about a minute.
"""

import json
import os

import pytest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture
def small(monkeypatch):
    run.import_package()
    import workloads

    def make_work(workload, seed):
        if workload == "lattice":
            return workloads.Lattice(seed, bounds=((2, 3), (3, 2)))
        return workloads.Certify(seed, count=40)

    monkeypatch.setattr(run, "make_work", make_work)


def result_of(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_run(small, capsys, workload):
    result = result_of(capsys, workload, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run(small, capsys, workload):
    result = result_of(capsys, workload, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    # counts and ratios repeated exactly across the two traced passes
    assert result["correct"] and result["failed"] == 0
    self_s = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_s <= metrics["trace.wall_s"]
    if workload == "certify":
        assert metrics["core.subobject_leq.calls"] == 0
    else:
        assert metrics["core.subobject_leq.calls"] > 0


def test_lattice_oracle_catches_a_wrong_filtration(small):
    import workloads
    work = workloads.Lattice(0, bounds=((2, 2),))
    item = next(i for i in work.items if i[0].dim_total(i[1]) == 2)
    hn, jh, subs = work.run_item(item)
    assert work.check(item, (hn, jh, subs)) == []
    assert work.check(item, (hn[::-1] + ((0, 0),), jh, subs))


def test_sampler_scales_to_reference_speed():
    import time

    import speed
    sampler = speed.Sampler()
    with sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            speed.reference()
        t1 = time.perf_counter()
    probes = len(sampler.starts)
    assert probes >= 5
    # the loop ran the reference about `runs` times outside the probes, so
    # at reference speed the span lasts about `runs` reference times
    runs = 0.3 / speed.time_reference(10)
    assert 0.3 * runs < sampler.normalise(t0, t1) / speed.REFERENCE_S < 3 * runs
