"""commacat benchmark.

    python3 perfbench/run.py --workload lattice|certify|selftest|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Workloads (see BENCHMARK.json for why each was chosen):

  lattice   SubobjectLattice + dim-charge HN + canonical JH for every
            nonzero identity-identity arrow object of total dimension <= 5
            over F_2 and <= 4 over F_3 (376 objects), in seeded order.
  certify   kernel and cokernel of seeded random morphisms in ten glued
            contexts, each certified by verify_kernel_universal,
            verify_cokernel_universal and verify_induced_iso.
  selftest  `commacat selftest --seed N` in a fresh interpreter.

One pass runs the whole item set once, starting from cold functools.cache
state, as each CLI call does.  A run makes at least two passes, and more
while the next one is expected to end within --seconds.  Times are taken
at reference speed (speed.py): other tenants of a shared machine slow the
same code by a third or more for seconds to minutes at a time, so each
span is scaled by how fast a fixed reference loop ran during it.  Each
item's time is its median over the passes; setup_s is the median of five
fresh-interpreter set-ups per pass.

With --trace 0 the last line of stdout holds the end-to-end metrics;
failed items are counted in `failed` and printed as failed_ratio.  With
--trace 1 the run makes one untraced pass and two traced ones, and reports
the per-layer metrics of the first traced pass, the tracing overhead, and
whether every count and ratio repeated exactly in the second.  Each run
also writes a record to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("lattice", "certify", "selftest")
SETUP_PROBES = 5    # per pass, so that the samples span the run
SETUP_REFERENCE_RUNS = 4
MIN_PASSES = 2      # two selftest reports are compared byte for byte
CHILD_TIMEOUT_S = 170
UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
         "item_p95_ms": "ms", "run_s": "s", "peak_rss_mb": "MB"}


class Pass:
    """One cold pass over a workload's item set.

    `wall` is the pass's wall time, which paces the run; `run_s` and
    `item_s` are the pass's and each item's times at reference speed
    (speed.py) in a sampled pass, and wall times otherwise.
    """

    def __init__(self, wall, item_s, failures, rss_kb=0, extra=None,
                 run_s=None):
        self.wall = wall
        self.run_s = wall if run_s is None else run_s
        self.item_s = item_s
        self.failures = failures
        self.rss_kb = rss_kb
        self.extra = extra or {}


def import_package():
    if not os.path.isfile(os.path.join(SRC, "commacat", "__init__.py")):
        sys.exit(f"perfbench: no commacat sources under {SRC}; "
                 "run from the root of a commacat checkout")
    sys.path[:0] = [SRC, HERE]
    import commacat
    if not os.path.abspath(commacat.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported commacat from {commacat.__file__}, "
                 f"not from {SRC}")


def setup_seconds(workload: str, samples: list) -> None:
    """Append the times, at reference speed, from spawning an interpreter
    until it has imported commacat, loaded the bundled workspaces and built
    the workload's contexts.  The reference loop is timed just before and
    just after each spawn."""
    import speed
    for _ in range(SETUP_PROBES):
        before = speed.time_reference(SETUP_REFERENCE_RUNS)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, "setup", workload],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited {proc.returncode}")
        after = speed.time_reference(SETUP_REFERENCE_RUNS)
        samples.append(wall * speed.REFERENCE_S / ((before + after) / 2))


# -- passes -------------------------------------------------------------


def inprocess_pass(work, sites, sampled: bool = True) -> Pass:
    """Run every item once from cold caches.  With `sampled`, the pass runs
    under a speed.Sampler and its times are at reference speed."""
    import speed
    import tracing
    tracing.clear_caches(sites)
    gc.collect()
    spans, outcomes = [], []
    perf = time.perf_counter
    sampler = speed.Sampler()
    with sampler if sampled else contextlib.nullcontext():
        t0 = perf()
        for item in work.items:
            s = perf()
            try:
                outcome = (work.run_item(item), None)
            except Exception as exc:  # an item that raises is a failed item
                outcome = (None, f"{type(exc).__name__}: {exc}")
            spans.append((s, perf()))
            outcomes.append(outcome)
        t1 = perf()
    span_s = sampler.normalise if sampled else (lambda a, b: b - a)
    return Pass(t1 - t0, [span_s(s, e) for s, e in spans], [],
                extra={"outcomes": outcomes}, run_s=span_s(t0, t1))


def check_pass(work, p: Pass) -> None:
    for item, (result, error) in zip(work.items, p.extra.pop("outcomes")):
        problems = [error] if error else work.check(item, result)
        p.failures += problems[:1]
        p.extra.setdefault("results", []).append(result)


def selftest_pass(seed: int, mode: str, tmp: str, index: int) -> Pass:
    """One `commacat selftest` in a fresh interpreter; `mode` is measure,
    trace or plain (see child.py)."""
    report = os.path.join(tmp, f"report{index}.json")
    record_path = os.path.join(tmp, f"record{index}.json")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, CHILD, "selftest", record_path,
                           mode, str(seed), report],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    failures = []
    if proc.returncode != 0:
        failures.append(f"selftest exited {proc.returncode}: {proc.stderr[-500:]}")
    with open(record_path) as fh:
        record = json.load(fh)
    with open(report, "rb") as fh:
        report_bytes = fh.read()
    doc = json.loads(report_bytes)
    if not doc["results"]["all_passed"]:
        failures.append("selftest report says not all_passed")
    failed_keys = [c["key"] for c in doc["results"]["criteria"] if not c["passed"]]
    failures += [f"criterion {k} failed" for k in failed_keys]
    elapsed = [record["elapsed"][k] for k in sorted(record["elapsed"])]
    # run_s: the interpreter's start-up as measured here, plus main()
    run_s = wall - record["wall_s"] + record["run_s"]
    return Pass(wall, elapsed, failures, rss_kb=record["maxrss_kb"],
                extra={"record": record, "report": report_bytes}, run_s=run_s)


def check_reports(passes) -> None:
    """Selftest reports of one seed must be byte-identical."""
    for p in passes[1:]:
        if p.extra["report"] != passes[0].extra["report"]:
            p.failures.append("selftest report differs from the first "
                              "report of this seed")


def run_passes(make_pass, seconds: float, min_passes: int) -> list:
    passes = []
    spent = 0.0
    while len(passes) < min_passes or \
            spent + statistics.median(p.wall for p in passes) <= seconds:
        passes.append(make_pass(len(passes)))
        spent += passes[-1].wall
    return passes


# -- metrics ------------------------------------------------------------


def end_to_end(passes, setup_samples) -> dict:
    item_s = [statistics.median(times)
              for times in zip(*(p.item_s for p in passes))]
    q = statistics.quantiles([1000.0 * t for t in item_s], n=100,
                             method="inclusive")
    rss_kb = max(p.rss_kb for p in passes) or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": statistics.median(setup_samples),
            "items_per_s": statistics.median(len(p.item_s) / sum(p.item_s)
                                             for p in passes),
            "item_p50_ms": q[49],
            "item_p95_ms": q[94],
            "run_s": statistics.median(p.run_s for p in passes),
            "peak_rss_mb": rss_kb / 1024.0}


def read_commit():
    """HEAD of the checkout's git directory, or None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def context(args, passes, per_pass, describe) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": read_commit(),
            "items_per_pass": per_pass, "passes": len(passes),
            **describe}


def emit(args, ctx, metrics, units, passes, record_extra) -> None:
    attempted = sum(len(p.item_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = len(failures)
    print("context " + json.dumps(ctx, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:<40} {value:.6g} {units[name]}")
    print(f"{'failed_ratio':<40} {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for f in failures[:10]:
        print(f"failure: {f}")
    record = {"context": ctx, "metrics": metrics, "attempted": attempted,
              "failed": failed, "failures": failures[:50], **record_extra}
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def layer_units(metrics) -> dict:
    return {k: ("count" if k.endswith(".calls") else
                "ratio" if k.endswith(("_ratio", "_share")) else "s")
            for k in metrics}


def nondeterministic(a: dict, b: dict) -> list:
    import tracing
    return [k for k in a if tracing.is_work_count(k) and a[k] != b[k]]


# -- runs ---------------------------------------------------------------


def make_work(workload: str, seed: int):
    import workloads
    return {"lattice": workloads.Lattice,
            "certify": workloads.Certify}[workload](seed)


def measure(args) -> None:
    import tracing
    setup_samples = []
    sites = tracing.cache_sites()

    def probed(make_pass):
        def one(i):
            setup_seconds(args.workload, setup_samples)
            return make_pass(i)
        return one

    if args.workload == "selftest":
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            passes = run_passes(
                probed(lambda i: selftest_pass(args.seed, "measure", tmp, i)),
                args.seconds, MIN_PASSES)
        check_reports(passes)
        per_pass = len(passes[0].item_s)
        describe = {"criteria": per_pass}
    else:
        work = make_work(args.workload, args.seed)
        passes = run_passes(probed(lambda i: inprocess_pass(work, sites)),
                            args.seconds, MIN_PASSES)
        for p in passes:
            check_pass(work, p)
        per_pass = len(work.items)
        describe = work.describe(passes[0].extra["results"])
    metrics = end_to_end(passes, setup_samples)
    emit(args, context(args, passes, per_pass, describe), metrics, UNITS,
         passes, {"setup_samples_s": setup_samples,
                  "pass_walls_s": [p.wall for p in passes]})


def trace(args) -> None:
    import tracing
    sites = tracing.cache_sites()
    acceptance_s = None
    if args.workload == "selftest":
        with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
            ref, a, b = (selftest_pass(args.seed, "trace" if i else "plain",
                                       tmp, i) for i in range(3))
        check_reports([ref, a, b])
        walls = [p.extra["record"]["wall_s"] for p in (ref, a, b)]
        layers_a, layers_b = (p.extra["record"]["layers"] for p in (a, b))
        caches = a.extra["record"]["caches"]
        acceptance_s = ref.extra["record"]["elapsed"]
        describe = {"criteria": len(ref.item_s)}
        per_pass = len(ref.item_s)
    else:
        work = make_work(args.workload, args.seed)
        ref = inprocess_pass(work, sites, sampled=False)
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            traced = []
            for _ in range(2):
                tracer.reset()
                p = inprocess_pass(work, sites, sampled=False)
                traced.append((p, tracing.layer_metrics(tracer, sites),
                               tracing.cache_stats(sites)))
        finally:
            uninstall()
        (a, layers_a, caches), (b, layers_b, _) = traced
        for p in (ref, a, b):
            check_pass(work, p)
        walls = [p.wall for p in (ref, a, b)]
        describe = work.describe(ref.extra["results"])
        per_pass = len(work.items)
    drift = nondeterministic(layers_a, layers_b)
    print("caches " + json.dumps(caches, sort_keys=True))
    for key in tracing.ACCEPTANCE_CRITERIA:
        layers_a[f"acceptance.{key}.s"] = (acceptance_s or {}).get(key, 0.0)
    layers_a["trace.wall_s"] = walls[1]
    layers_a["trace.overhead_s"] = walls[1] - walls[0]
    layers_a["trace.overhead_share"] = (walls[1] - walls[0]) / walls[0]
    metrics = dict(sorted(layers_a.items()))
    b.failures += [f"{name} differs between the two traced passes: "
                   f"{layers_a[name]} != {layers_b[name]}" for name in drift]
    emit(args, context(args, [ref, a, b], per_pass, describe), metrics,
         layer_units(metrics), [ref, a, b],
         {"caches": caches, "untraced_wall_s": walls[0],
          "traced_walls_s": walls[1:], "nondeterministic": drift,
          "work_counts": {k: v for k, v in metrics.items()
                          if tracing.is_work_count(k)}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds",
                                 str(args.seconds), "--trace",
                                 str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)
    import_package()
    os.makedirs(RESULTS, exist_ok=True)
    (trace if args.trace else measure)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
