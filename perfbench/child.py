"""Fresh-interpreter helpers started by run.py.

    python3 perfbench/child.py setup <workload>
        import commacat, load the three bundled workspaces, build the
        workload's contexts, then print "ready".

    python3 perfbench/child.py selftest <record.json> <mode> <seed> <out>
        run `commacat selftest --seed <seed> --out <out>` through
        commacat.cli.main, as `python -m commacat.cli` does, and write a
        record: each criterion's seconds and those of main(), the wall
        time of main(), the peak RSS, and in trace mode the per-layer
        metrics.  Mode measure runs under a speed.Sampler and records
        times at reference speed; modes trace (with the tracer installed)
        and plain record wall times, at full precision where the CLI
        prints them rounded on stderr.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

BUNDLED = ("arrow", "framed_modules", "coherent_systems")


def setup(workload: str) -> None:
    from commacat import cli, workspace
    import workloads
    for name in BUNDLED:
        workspace.load_workspace(cli.bundled_workspace_path(name))
    workloads.build_contexts(workload)
    print("ready", flush=True)


def selftest(record_path: str, mode: str, seed: str, out: str) -> int:
    import contextlib
    from commacat import acceptance, cli
    import speed
    import tracing

    spans = {}

    def timed(fn):
        def criterion(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            spans[result.key] = (t0, time.perf_counter())
            return result
        return criterion

    acceptance.ALL_CRITERIA = tuple(timed(fn) for fn in acceptance.ALL_CRITERIA)
    trace = mode == "trace"
    tracer = sites = None
    if trace:
        sites = tracing.cache_sites()
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracing.clear_caches(sites)
    sampler = speed.Sampler()
    sampled = mode == "measure"
    with sampler if sampled else contextlib.nullcontext():
        t0 = time.perf_counter()
        code = cli.main(["selftest", "--seed", seed, "--out", out])
        t1 = time.perf_counter()
    span_s = sampler.normalise if sampled else (lambda a, b: b - a)
    record = {"exit_code": code, "wall_s": t1 - t0, "run_s": span_s(t0, t1),
              "elapsed": {k: span_s(a, b) for k, (a, b) in spans.items()},
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if trace:
        record["layers"] = tracing.layer_metrics(tracer, sites)
        record["caches"] = tracing.cache_stats(sites)
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        sys.exit(selftest(*sys.argv[2:6]))
