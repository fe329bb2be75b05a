"""Batch front end.

One command per invocation; the result is a structured report written to
--out (or stdout) that is byte-identical for identical (workspace, seed,
budget).  Wall-clock time is therefore never part of the report; it goes
to stderr, while the report's timing section carries deterministic work
counters.

Exit codes: 0 success, 1 a verification or validation check failed or
the data refused a construction (the report then carries an "error"
entry), 2 an enumeration budget was exhausted, 3 the workspace itself is
bad.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from importlib import resources

from . import acceptance
from .comma import CommaCategory, verify_comma_abelian
from .core import (
    image,
    solve_through_mono,
    verify_category,
    verify_cokernel_universal,
    verify_kernel_universal,
    verify_ses,
)
from .counterexample import run_counterexample
from .errors import (
    CapabilityError,
    ExactnessViolation,
    ForeignMorphism,
    SpecError,
)
from .functors import check_functor
from .jordanholder import jh_filtration
from .kgroup import cls, decompose
from .linalg import BudgetExceeded
from .stability import (
    alpha_grid_probe,
    alpha_scan,
    hn_filtration,
    is_semistable,
)
from .workspace import (
    Workspace,
    format_rational,
    load_workspace,
    serialize_morphism,
    serialize_object,
)

REPORT_SCHEMA = "commacat-report/1"


def default_workspace_path() -> str:
    with resources.as_file(resources.files("commacat")
                           .joinpath("workspaces/arrow.json")) as path:
        return str(path)


def bundled_workspace_path(name: str) -> str:
    with resources.as_file(resources.files("commacat")
                           .joinpath(f"workspaces/{name}.json")) as path:
        return str(path)


# -- command implementations ---------------------------------------------
# each returns (exit_code, results, timing)


def _cmd_validate(ws: Workspace, args, seed: int):
    failures = 0
    categories = {}
    checks = 0
    for name in sorted(ws.categories):
        rep = verify_category(ws.categories[name], samples=16, seed=seed)
        categories[name] = {"checks": rep.checks,
                            "violations": list(rep.violations)}
        checks += rep.checks
        failures += len(rep.violations)
    functors = {}
    for name in sorted(ws.functors):
        rep = check_functor(ws.functors[name], samples=24, seed=seed)
        entry = {
            "kind": rep.kind,
            "law_checks": rep.laws.checked,
            "law_violations": list(rep.laws.violations),
            "flag_mismatches": list(rep.flag_mismatches),
            "unwitnessed_negative_flags": list(rep.unwitnessed_negations),
            "observed": {
                "additivity_violations": list(rep.additivity.violations),
                "left_exactness_violations": list(rep.left_exact.violations),
                "right_exactness_violations": list(rep.right_exact.violations),
            },
        }
        checks += rep.laws.checked
        failures += len(rep.laws.violations) + len(rep.flag_mismatches)
        functors[name] = entry
    contexts = {}
    for name in sorted(ws.contexts):
        ctx = ws.contexts[name]
        if not (ctx.abelian_capable or ctx.assume_abelian):
            contexts[name] = {"skipped":
                              "declared functor flags do not open the "
                              "abelian interface"}
            continue
        try:
            rep = verify_comma_abelian(ctx, samples=12, seed=seed)
        except (CapabilityError, ExactnessViolation) as exc:
            # the audit could not run on this context; the others still do
            contexts[name] = {"error": {"type": type(exc).__name__,
                                        "message": str(exc)}}
            failures += 1
            continue
        contexts[name] = {"checks": rep.checks,
                          "violations": list(rep.violations)}
        checks += rep.checks
        failures += len(rep.violations)
    results = {
        "categories": categories,
        "functors": functors,
        "contexts": contexts,
        "stability_tables_validated": sorted(ws.stability) + sorted(ws.geometries),
        "failures": failures,
    }
    return (0 if failures == 0 else 1), results, {"checks": checks}


def _named_morphism(ws: Workspace, ctx_name: str, mor_name: str):
    if ctx_name not in ws.contexts:
        raise SpecError(f"unknown context {ctx_name!r}")
    if mor_name not in ws.morphisms:
        raise SpecError(f"unknown morphism {mor_name!r}")
    home, m = ws.morphisms[mor_name]
    if home != ctx_name:
        raise SpecError(f"morphism {mor_name!r} lives in context {home!r}, "
                        f"not {ctx_name!r}")
    return ws.contexts[ctx_name], m


def _cmd_kernel(ws: Workspace, args, seed: int):
    cat, m = _named_morphism(ws, args.context, args.morphism)
    kobj, kmor = cat.kernel(m)
    violations = verify_kernel_universal(cat, m, kobj, kmor,
                                         random.Random(seed))
    results = {
        "carrier": serialize_object(cat, kobj),
        "arrow": serialize_morphism(cat, kmor),
        "class": list(cls(cat, kobj)),
        "universal_property_violations": list(violations),
    }
    return (0 if not violations else 1), results, {"checks": 1}


def _cmd_cokernel(ws: Workspace, args, seed: int):
    cat, m = _named_morphism(ws, args.context, args.morphism)
    cobj, cmor = cat.cokernel(m)
    violations = verify_cokernel_universal(cat, m, cobj, cmor,
                                           random.Random(seed))
    results = {
        "carrier": serialize_object(cat, cobj),
        "arrow": serialize_morphism(cat, cmor),
        "class": list(cls(cat, cobj)),
        "universal_property_violations": list(violations),
    }
    return (0 if not violations else 1), results, {"checks": 1}


def _cmd_image(ws: Workspace, args, seed: int):
    cat, m = _named_morphism(ws, args.context, args.morphism)
    iobj, imono = image(cat, m)
    violations = []
    if not cat.is_mono(imono):
        violations.append("image arrow is not mono")
    through = solve_through_mono(cat, imono, m)
    if cat.compose(imono, through) != m:
        violations.append("the morphism does not factor through its image")
    if not cat.is_epi(through):
        violations.append("the factoring map onto the image is not epi")
    results = {
        "carrier": serialize_object(cat, iobj),
        "arrow": serialize_morphism(cat, imono),
        "class": list(cls(cat, iobj)),
        "factorization_violations": list(violations),
    }
    return (0 if not violations else 1), results, {"checks": 1}


def _cmd_subobjects(ws: Workspace, args, seed: int):
    if args.context not in ws.contexts:
        raise SpecError(f"unknown context {args.context!r}")
    home_name, home, x = ws.home_of(args.object)
    if home_name != args.context:
        raise SpecError(f"object {args.object!r} lives in {home_name!r}, "
                        f"not {args.context!r}")
    cat = ws.contexts[args.context]
    entries = []
    for s in cat.enumerate_subobjects(x):
        entries.append({
            "object": serialize_object(cat, s.obj),
            "mono": serialize_morphism(cat, s.mono),
            "class": list(cls(cat, s.obj)),
        })
    results = {"count": len(entries), "subobjects": entries}
    return 0, results, {"subobjects": len(entries)}


def _cmd_kclass(ws: Workspace, args, seed: int):
    home_name, home, x = ws.home_of(args.object)
    vec = cls(home, x)
    results = {"home": home_name, "class": list(vec)}
    if isinstance(home, CommaCategory):
        a_cls, b_cls, witness = decompose(home, x)
        violations = verify_ses(home, witness.sub, witness.quot)
        results["decomposition"] = {
            "left_class": list(a_cls),
            "right_class": list(b_cls),
            "witness_sub": serialize_morphism(home, witness.sub),
            "witness_quot": serialize_morphism(home, witness.quot),
            "witness_violations": list(violations),
        }
        if violations:
            return 1, results, {"checks": 1}
    return 0, results, {"checks": 1}


def _resolve_stability(ws: Workspace, name: str):
    if name not in ws.stability:
        raise SpecError(f"unknown stability table {name!r}")
    return ws.stability[name]


def _cmd_hn(ws: Workspace, args, seed: int):
    z = _resolve_stability(ws, args.stability)
    home_name, home, x = ws.home_of(args.object)
    if home.is_zero_object(x):
        raise SpecError("the zero object has no filtration")
    if len(z.coefficients) != home.class_rank:
        raise SpecError(
            f"stability table rank {len(z.coefficients)} does not match "
            f"the class rank {home.class_rank} of {home_name!r}")
    hn = hn_filtration(home, z, x)
    results = {
        "home": home_name,
        "steps": [list(home.class_vector(s.obj))
                  for s in hn.filtration.steps],
        "factor_classes": [list(c) for c in hn.factor_classes],
        "factor_slopes": [str(s) for s in hn.factor_slopes],
        "factors_semistable": [is_semistable(home, z, f)
                               for f in hn.filtration.factors],
    }
    return 0, results, {"steps": hn.length}


def _cmd_jh(ws: Workspace, args, seed: int):
    home_name, home, x = ws.home_of(args.object)
    filt = jh_filtration(home, x, "canonical")
    probe = jh_filtration(home, x, "random", seed=seed + 1)
    agree = probe.factor_multiset() == filt.factor_multiset()
    results = {
        "home": home_name,
        "length": filt.length,
        "steps": [list(home.class_vector(s.obj))
                  for s in filt.filtration.steps],
        "factor_classes": [list(c) for c in filt.factor_classes],
        "factor_multiset": [list(c) for c in filt.factor_multiset()],
        "policy_independent": agree,
    }
    return (0 if agree else 1), results, {"steps": filt.length}


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise SpecError("range must look like lo:hi, e.g. 1/2:4")
    try:
        lo, hi = Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"bad rational in range: {exc}") from exc
    return lo, hi


def _cmd_scan_alpha(ws: Workspace, args, seed: int):
    home_name, home, x = ws.home_of(args.system)
    if not isinstance(home, CommaCategory):
        raise SpecError("scan-alpha expects an object in a glued context")
    if args.geometry not in ws.geometries:
        raise SpecError(f"unknown geometry {args.geometry!r}")
    geometry = ws.geometries[args.geometry]
    lo, hi = _parse_range(args.range)
    report = alpha_scan(home, x, geometry, lo, hi)
    oracle = alpha_grid_probe(home, x, geometry, lo, hi)
    agree = tuple(report.walls) == oracle
    results = {
        "system": args.system,
        "range": [format_rational(lo), format_rational(hi)],
        "candidates": [format_rational(c) for c in report.candidates],
        "walls": [format_rational(w) for w in report.walls],
        "grid_oracle_walls": [format_rational(w) for w in oracle],
        "grid_oracle_agrees": agree,
        "certificates": [
            {
                "alpha": format_rational(c.alpha),
                "type_below": [list(v) for v in c.type_below],
                "type_at": [list(v) for v in c.type_at],
                "type_above": [list(v) for v in c.type_above],
                "is_wall": c.is_wall,
            }
            for c in report.certificates
        ],
    }
    return (0 if agree else 1), results, {"candidates": len(report.candidates)}


def _cmd_counterexample(ws: Workspace, args, seed: int):
    report = run_counterexample(seed=seed)
    results = {
        "right_exactness_witnessed": report.right_exactness_witnessed,
        "witnessed_violations":
            list(report.functor_report.right_exact.violations),
        "flag_mismatches": list(report.functor_report.flag_mismatches),
        "abelian_checks": report.abelian_report.checks,
        "abelian_violations": list(report.abelian_report.violations),
        "product_comparison": {
            "objects": report.equivalence.objects,
            "hom_checks": report.equivalence.hom_checks,
            "composition_checks": report.equivalence.composition_checks,
            "violations": list(report.equivalence.violations),
        },
        "clean": report.clean,
    }
    timing = {"checks": report.abelian_report.checks
              + report.equivalence.hom_checks
              + report.equivalence.composition_checks}
    return (0 if report.clean else 1), results, timing


def _cmd_selftest(ws: Workspace, args, seed: int):
    outcomes = acceptance.run_all(seed=seed)
    criteria = []
    all_passed = True
    checks = 0
    for r in outcomes:
        criteria.append({
            "key": r.key,
            "passed": r.passed,
            "work": dict(sorted(r.details.items())),
            "failures": list(r.failures),
        })
        all_passed = all_passed and r.passed
        checks += sum(v for v in r.details.values() if isinstance(v, int))
        print(f"{'PASS' if r.passed else 'FAIL'} {r.key} "
              f"({r.elapsed:.2f}s)", file=sys.stderr)
    results = {"criteria": criteria, "all_passed": all_passed}
    return (0 if all_passed else 1), results, {"checks": checks}


COMMANDS = {
    "validate": _cmd_validate,
    "kernel": _cmd_kernel,
    "cokernel": _cmd_cokernel,
    "image": _cmd_image,
    "subobjects": _cmd_subobjects,
    "kclass": _cmd_kclass,
    "hn": _cmd_hn,
    "jh": _cmd_jh,
    "scan-alpha": _cmd_scan_alpha,
    "counterexample": _cmd_counterexample,
    "selftest": _cmd_selftest,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse wants exit code 2; here 2 means budget exhaustion,
        # so a malformed invocation reports as a spec problem instead
        self.print_usage(sys.stderr)
        raise SpecError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="commacat",
                     description="comma-construction workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", help="workspace file "
                       "(default: the bundled arrow workspace)")
        p.add_argument("--out", help="report path (default: stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--budget", type=int, default=None,
                       help="max enumerable vectors per sweep")

    common(sub.add_parser("validate", help="run the axiom suites"))
    for name in ("kernel", "cokernel", "image"):
        p = sub.add_parser(name, help=f"compute a {name} with certificates")
        p.add_argument("context")
        p.add_argument("morphism")
        common(p)
    p = sub.add_parser("subobjects", help="enumerate every subobject")
    p.add_argument("context")
    p.add_argument("object")
    common(p)
    p = sub.add_parser("kclass", help="class vector and its split parts")
    p.add_argument("object")
    common(p)
    p = sub.add_parser("hn", help="slope filtration with certificates")
    p.add_argument("stability")
    p.add_argument("object")
    common(p)
    p = sub.add_parser("jh", help="composition series")
    p.add_argument("object")
    common(p)
    p = sub.add_parser("scan-alpha", help="wall finding over a weight range")
    p.add_argument("system")
    p.add_argument("geometry")
    p.add_argument("range", help="rational interval lo:hi, e.g. 1/2:4")
    common(p)
    common(sub.add_parser("counterexample",
                          help="reproduce the non-additive-leg example"))
    common(sub.add_parser("selftest", help="full acceptance suite"))
    return parser


def _write_report(doc: dict, out_path) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    t0 = time.monotonic()
    parser = build_parser()
    ws = None
    error = None
    try:
        args = parser.parse_args(argv)
        spec_path = args.spec or default_workspace_path()
        ws = load_workspace(spec_path, budget_override=args.budget,
                            seed_override=args.seed)
        seed = ws.seed
        code, results, timing = COMMANDS[args.command](ws, args, seed)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"not available in this context: {exc}", file=sys.stderr)
        return 1
    except (ExactnessViolation, ForeignMorphism) as exc:
        # a construction the data refused; the report records which one
        print(f"construction failed: {exc}", file=sys.stderr)
        if ws is None:
            return 1
        code, results, timing = 1, {}, {}
        error = {"type": type(exc).__name__, "message": str(exc)}
    doc = {
        "schema": REPORT_SCHEMA,
        "command": args.command,
        "arguments": {k: v for k, v in sorted(vars(args).items())
                      if k not in ("command", "spec", "out", "seed", "budget")
                      and v is not None},
        "spec_digest": ws.digest,
        "seed": seed,
        "budget": {"max_vectors": ws.budget.max_vectors,
                   "max_total_dim": ws.budget.max_total_dim},
        "exit_code": code,
        "results": results,
        "timing": {"unit": "logical-checks", **timing},
    }
    if error is not None:
        doc["error"] = error
    _write_report(doc, args.out)
    print(f"wall-clock: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
