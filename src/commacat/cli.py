"""Batch front end.

One command per invocation; the result is a structured report written to
--out (or stdout) that is byte-identical for identical (workspace, seed,
budget).  Wall-clock time is therefore never part of the report; it goes
to stderr, while the report's timing section carries deterministic work
counters.

Exit codes: 0 success, 1 a verification or validation check failed, or
the context or the data refused a construction (the report then carries
an "error" entry), 2 an enumeration budget was exhausted, 3 the
workspace or the invocation itself is bad.  Once the workspace has
loaded, exit 1 always writes a report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import acceptance
from .comma import CommaCategory, verify_comma_abelian
from .core import (
    image,
    solve_through_mono,
    verify_category,
    verify_cokernel_universal,
    verify_kernel_universal,
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
    SubobjectLattice,
    alpha_grid_probe,
    alpha_scan,
    hn_filtration,
)
from .workspace import (
    Workspace,
    bundled_workspace_path,
    format_rational,
    load_workspace,
    lookup,
    parse_rational,
    serialize_morphism,
    serialize_object,
)

REPORT_SCHEMA = "commacat-report/1"


def default_workspace_path() -> str:
    return bundled_workspace_path("arrow")


# -- command implementations ---------------------------------------------
# each returns (exit_code, results, timing)


def _cmd_validate(ws: Workspace, args, seed: int):
    failures = 0
    categories = {}
    checks = 0
    for name in sorted(ws.categories):
        rep = verify_category(ws.categories[name], samples=16, seed=seed)
        categories[name] = {"checks": rep.checked,
                            "violations": list(rep.violations)}
        checks += rep.checked
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
        contexts[name] = {"checks": rep.checked,
                          "violations": list(rep.violations)}
        checks += rep.checked
        failures += len(rep.violations)
    results = {
        "categories": categories,
        "functors": functors,
        "contexts": contexts,
        "stability_tables_validated": sorted(ws.stability) + sorted(ws.geometries),
        "failures": failures,
    }
    return (0 if failures == 0 else 1), results, {"checks": checks}


def _cmd_kernel_cokernel(ws: Workspace, args, seed: int):
    """The kernel or the cokernel of a named morphism, by args.command,
    with its universal-property certificate."""
    cat, m = ws.named_morphism(args.context, args.morphism)
    construct, verify = ((cat.kernel, verify_kernel_universal)
                         if args.command == "kernel"
                         else (cat.cokernel, verify_cokernel_universal))
    obj, arrow = construct(m)
    violations = verify(cat, m, obj, arrow, random.Random(seed))
    results = {
        "carrier": serialize_object(cat, obj),
        "arrow": serialize_morphism(cat, arrow),
        "class": list(cls(cat, obj)),
        "universal_property_violations": list(violations),
    }
    return (0 if not violations else 1), results, {"checks": 1}


def _cmd_image(ws: Workspace, args, seed: int):
    cat, m = ws.named_morphism(args.context, args.morphism)
    iobj, imono = image(cat, m)
    violations = []
    if not cat.is_mono(imono):
        violations.append("image arrow is not mono")
    # exact, and raises when m does not factor through its image
    through = solve_through_mono(cat, imono, m)
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
    cat = lookup(ws.contexts, args.context, "context")
    home_name, home, x = ws.home_of(args.object)
    if home_name != args.context:
        raise SpecError(f"object {args.object!r} lives in {home_name!r}, "
                        f"not {args.context!r}")
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
        # decompose verifies its witness with short_exact, which raises;
        # the always-empty field keeps the pinned report digests
        a_cls, b_cls, witness = decompose(home, x)
        results["decomposition"] = {
            "left_class": list(a_cls),
            "right_class": list(b_cls),
            "witness_sub": serialize_morphism(home, witness.sub),
            "witness_quot": serialize_morphism(home, witness.quot),
            "witness_violations": [],
        }
    return 0, results, {"checks": 1}


def _cmd_hn(ws: Workspace, args, seed: int):
    z = lookup(ws.stability, args.stability, "stability table")
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
        "steps": [list(home.subobject_class(s)) for s in hn.steps],
        "factor_classes": [list(c) for c in hn.factor_classes],
        "factor_slopes": [str(s) for s in hn.factor_slopes],
        # every factor is semistable: hn_filtration raises otherwise
        "factors_semistable": [True] * hn.length,
    }
    return 0, results, {"steps": hn.length}


def _cmd_jh(ws: Workspace, args, seed: int):
    home_name, home, x = ws.home_of(args.object)
    lat = None if home.is_zero_object(x) else SubobjectLattice(home, x)
    filt = jh_filtration(home, x, "canonical", lattice=lat)
    probe = jh_filtration(home, x, "random", seed=seed + 1, lattice=lat)
    agree = probe.factor_multiset() == filt.factor_multiset()
    results = {
        "home": home_name,
        "length": filt.length,
        "steps": [list(home.subobject_class(s)) for s in filt.steps],
        "factor_classes": [list(c) for c in filt.factor_classes],
        "factor_multiset": [list(c) for c in filt.factor_multiset()],
        "policy_independent": agree,
    }
    return (0 if agree else 1), results, {"steps": filt.length}


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise SpecError("range must look like lo:hi, e.g. 1/2:4")
    lo, hi = map(parse_rational, parts)
    if not 0 < lo < hi:
        raise SpecError(f"range {text} must satisfy 0 < lo < hi")
    return lo, hi


def _cmd_scan_alpha(ws: Workspace, args, seed: int):
    home_name, home, x = ws.home_of(args.system)
    if not isinstance(home, CommaCategory):
        raise SpecError("scan-alpha expects an object in a glued context")
    geometry = lookup(ws.geometries, args.geometry, "geometry")
    ranks = (home.left.class_rank, home.right.class_rank)
    if (len(geometry.dim_gamma), len(geometry.deg)) != ranks:
        raise SpecError(f"geometry {args.geometry!r} does not fit the class "
                        f"ranks {ranks} of {home_name!r}")
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
        "abelian_checks": report.abelian_report.checked,
        "abelian_violations": list(report.abelian_report.violations),
        "product_comparison": {
            "objects": report.equivalence.objects,
            "hom_checks": report.equivalence.hom_checks,
            "composition_checks": report.equivalence.composition_checks,
            "violations": list(report.equivalence.violations),
        },
        "clean": report.clean,
    }
    timing = {"checks": report.abelian_report.checked
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


# subcommand -> (its handler, its positional arguments, its help line)
COMMANDS = {
    "validate": (_cmd_validate, (), "run the axiom suites"),
    "kernel": (_cmd_kernel_cokernel, ("context", "morphism"),
               "compute a kernel with certificates"),
    "cokernel": (_cmd_kernel_cokernel, ("context", "morphism"),
                 "compute a cokernel with certificates"),
    "image": (_cmd_image, ("context", "morphism"),
              "compute an image with certificates"),
    "subobjects": (_cmd_subobjects, ("context", "object"),
                   "enumerate every subobject"),
    "kclass": (_cmd_kclass, ("object",), "class vector and its split parts"),
    "hn": (_cmd_hn, ("stability", "object"),
           "slope filtration with certificates"),
    "jh": (_cmd_jh, ("object",), "composition series"),
    "scan-alpha": (_cmd_scan_alpha, ("system", "geometry", "range"),
                   "wall finding over a weight range"),
    "counterexample": (_cmd_counterexample, (),
                       "reproduce the non-additive-leg example"),
    "selftest": (_cmd_selftest, (), "full acceptance suite"),
}
# the positional arguments whose meaning their name does not carry
_ARGUMENT_HELP = {"range": "rational interval lo:hi, e.g. 1/2:4"}


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
    for name, (_, positionals, help_line) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for arg in positionals:
            p.add_argument(arg, help=_ARGUMENT_HELP.get(arg))
        p.add_argument("--spec", help="workspace file "
                       "(default: the bundled arrow workspace)")
        p.add_argument("--out", help="report path (default: stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--budget", type=int, default=None,
                       help="max enumerable vectors per sweep")
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
        run = COMMANDS[args.command][0]
        code, results, timing = run(ws, args, seed)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2
    except (CapabilityError, ExactnessViolation, ForeignMorphism) as exc:
        # a construction the context or the data refused; the report
        # records which one
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
