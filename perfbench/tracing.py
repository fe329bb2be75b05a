"""Spans around the public entry points of each commacat module.

The tracer works from outside the package: it rebinds module-level
functions (in every module that imported them) and class methods to thin
wrappers, and restores the originals afterwards.  Nothing in the package
knows it is being traced.

A span covers one call into an operation.  A call made while the same
operation is already the innermost open span is folded into that span, so
`calls` counts entries into an operation from outside it (one
`solve_through_mono` is one `core.solve`, not three).  Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

PACKAGE = "commacat"


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def cache_sites():
    """Every functools.cache site of the loaded package, found by scanning
    module and class attributes for `cache_info`, keyed by qualified name."""
    found = {}
    for mod in package_modules():
        holders = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                 if isinstance(v, type) and v.__module__ == mod.__name__]
        for ns in holders:
            for obj in ns.values():
                if callable(getattr(obj, "cache_info", None)) and \
                        callable(getattr(obj, "cache_clear", None)):
                    wrapped = getattr(obj, "__wrapped__", obj)
                    name = f"{wrapped.__module__}.{wrapped.__qualname__}"
                    found[name] = obj
    return dict(sorted(found.items()))


def clear_caches(sites) -> None:
    for site in sites.values():
        site.cache_clear()


def cache_stats(sites) -> dict:
    out = {}
    for name, site in sites.items():
        info = site.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses,
                     "currsize": info.currsize}
    return out


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.stack = []           # open spans: [name, child seconds]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = Counter()   # outcome counters recorded by hooks
        self.suspended = False

    def wrap(self, name, fn, hook=None):
        """A wrapper timing fn as operation `name`.

        hook(tracer, args, result), when given, runs after the span closes
        with tracing suspended; its time is charged to no span.
        """
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack = self.stack
            if self.suspended or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                self.incl_s[name] += dt
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                t1 = perf()
                self.suspended = True
                try:
                    hook(self, args, result)
                finally:
                    self.suspended = False
                    if stack:
                        stack[-1][1] += perf() - t1
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, name, fn):
        """A wrapper that only counts calls, for hot constructors."""
        def counted(*args, **kwargs):
            if not self.suspended:
                self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted


def _true_results(tracer, args, result):
    if result:
        tracer.counts["core.subobject_leq.true"] += 1


def _subobject_pairs(op, site):
    """Hook for glued subobject enumeration: on a cache miss, record the
    component pairs tried (left subobjects x right subobjects) and the
    pairs accepted (subobjects returned)."""
    def hook(tracer, args, result):
        misses = site.cache_info().misses
        if misses == tracer.counts[op + ".misses_seen"]:
            return
        tracer.counts[op + ".misses_seen"] = misses
        cat, x = args
        tracer.counts[op + ".tried"] += (len(cat.left.enumerate_subobjects(x.a))
                                         * len(cat.right.enumerate_subobjects(x.b)))
        tracer.counts[op + ".accepted"] += len(result)
    return hook


def _operations():
    """(operation, owner, attribute, hook) for every traced entry point."""
    from commacat import (cocomma, comma, core, functors, instances,
                          jordanholder, kgroup, linalg, stability, workspace)
    ops = [("linalg.rref", linalg, "rref"),
           ("linalg.solve", linalg, "solve"),
           ("linalg.mul", linalg.Matrix, "mul")]
    for cls in (instances.FinVect, instances.Rep):
        ops += [("instances.hom_basis", cls, "hom_basis"),
                ("instances.kernel_cokernel", cls, "kernel"),
                ("instances.kernel_cokernel", cls, "cokernel"),
                ("instances.subobjects", cls, "enumerate_subobjects")]
    ops += [("functors.apply", functors, "apply_on_object"),
            ("functors.apply", functors, "apply_on_morphism")]
    for prefix, cls in (("comma", comma.CommaCategory),
                        ("cocomma", cocomma.CoCommaCategory)):
        ops += [(f"{prefix}.hom_basis", cls, "hom_basis"),
                (f"{prefix}.mor", cls, "mor"),
                (f"{prefix}.mor", cls, "mor_from_flat"),
                (f"{prefix}.kernel_cokernel", cls, "kernel"),
                (f"{prefix}.kernel_cokernel", cls, "cokernel"),
                (f"{prefix}.subobjects", cls, "enumerate_subobjects")]
    ops.append(("core.subobject_leq", core, "subobject_leq"))
    ops += [("core.solve", core, name) for name in (
        "solve_right", "solve_left", "try_solve_right", "try_solve_left",
        "solve_through_mono", "try_through_mono", "solve_through_epi",
        "try_through_epi")]
    ops += [("core.verify", core, name) for name in (
        "verify_kernel_universal", "verify_cokernel_universal",
        "verify_induced_iso", "verify_biproduct", "verify_ses",
        "verify_category")]
    ops += [("stability.lattice", stability.SubobjectLattice, "__init__"),
            ("stability.hn", stability, "hn_filtration"),
            ("stability.hn", stability, "hn_type"),
            ("stability.hn_oracle", stability, "exhaustive_hn_search"),
            ("stability.scan", stability, "alpha_scan"),
            ("stability.scan", stability, "alpha_grid_probe"),
            ("jordanholder.jh", jordanholder, "jh_filtration")]
    ops += [("kgroup", kgroup, name) for name in (
        "cls", "decompose", "verify_additivity", "verify_factorization")]
    ops.append(("workspace.load", workspace, "load_workspace"))
    hooks = {"core.subobject_leq": _true_results,
             "comma.subobjects": _subobject_pairs(
                 "comma.subobjects", comma._comma_subobjects),
             "cocomma.subobjects": _subobject_pairs(
                 "cocomma.subobjects", cocomma._cocomma_subobjects)}
    return [(op, owner, attr, hooks.get(op)) for op, owner, attr in ops]


def install(tracer: Tracer):
    """Rebind every traced entry point; returns a function undoing it."""
    from commacat import linalg
    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for op, owner, attr, hook in _operations():
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(op, original, hook)
        if isinstance(owner, type):
            rebind(owner, attr, wrapper)
            continue
        # a module function: rebind it wherever the package imported it
        for mod in package_modules():
            if mod.__dict__.get(attr) is original:
                rebind(mod, attr, wrapper)
    rebind(linalg.Matrix, "__post_init__",
           tracer.count("linalg.matrix_new", linalg.Matrix.__post_init__))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


def layer_metrics(tracer: Tracer, sites) -> dict:
    """The per-layer metrics of one traced pass, by BENCHMARK.json name.

    `sites` must be the cache sites cleared at the start of the pass, so
    their miss counts belong to the pass.
    """
    c, s = tracer.calls, tracer.self_s

    def misses(site):
        return sites[site].cache_info().misses

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    spans = ("linalg.rref", "linalg.solve", "linalg.mul",
             "instances.hom_basis", "instances.kernel_cokernel",
             "instances.subobjects", "functors.apply",
             "core.subobject_leq", "core.solve", "core.verify",
             "stability.lattice", "stability.hn", "jordanholder.jh",
             "workspace.load")
    for op in spans:
        out[f"{op}.calls"] = c[op]
        out[f"{op}.self_s"] = s[op]
    out["linalg.rref.hit_ratio"] = ratio(
        c["linalg.rref"] - misses("commacat.linalg.rref"), c["linalg.rref"])
    out["linalg.matrix_new.calls"] = c["linalg.matrix_new"]
    for prefix, site in (("comma", "commacat.comma._comma_hom_basis"),
                         ("cocomma", "commacat.cocomma._cocomma_hom_basis")):
        for op in ("hom_basis", "mor", "kernel_cokernel", "subobjects"):
            out[f"{prefix}.{op}.calls"] = c[f"{prefix}.{op}"]
            out[f"{prefix}.{op}.self_s"] = s[f"{prefix}.{op}"]
        out[f"{prefix}.hom_basis.hit_ratio"] = ratio(
            c[f"{prefix}.hom_basis"] - misses(site), c[f"{prefix}.hom_basis"])
        out[f"{prefix}.subobjects.accept_ratio"] = ratio(
            tracer.counts[f"{prefix}.subobjects.accepted"],
            tracer.counts[f"{prefix}.subobjects.tried"])
    out["core.subobject_leq.true_ratio"] = ratio(
        tracer.counts["core.subobject_leq.true"], c["core.subobject_leq"])
    out["core.subobject_leq.incl_s"] = tracer.incl_s["core.subobject_leq"]
    out["stability.hn_oracle.self_s"] = s["stability.hn_oracle"]
    out["stability.scan.self_s"] = s["stability.scan"]
    out["kgroup.calls"] = c["kgroup"]
    out["kgroup.self_s"] = s["kgroup"]
    return out


# the selftest battery's criteria, reported as acceptance.<key>.s
ACCEPTANCE_CRITERIA = ("abelian-universality", "class-additivity",
                       "hn-exhaustive", "hn-restriction", "composition-series",
                       "counterexample", "cocomma-suite", "wall-scan")


def is_work_count(name: str) -> bool:
    """Counts and ratios, which must repeat exactly for a fixed seed."""
    return name.endswith(".calls") or name.endswith("_ratio")
