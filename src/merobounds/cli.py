"""Command line front end.

Three subcommands:

* ``verify``  -- run the built-in self-check suites and print one
  deterministic PASS/FAIL line per check.
* ``table``   -- sweep computed values against sharp bounds over grids of
  pole locations, radii and lambda values, emitting CSV.
* ``check``   -- read functions from a CSV file (rows as produced by
  ``to_csv_row``) and test an asserted class membership.  Exit code 1 is
  reserved for genuine disproofs of univalence (a coefficient-sum
  violation or a detected collision); failed class inequalities only warn.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import Counter
from functools import cache

from .bounds import (BoundQuantity, check_bounds, gronwall_check, jenkins_bound, lemma1_check,
                     sharp_maximum)
from .criteria import (SUP_TOL, aksentiev_criterion, injectivity_oracle, univalence_criterion,
                       up_lambda_membership)
from .errors import (BadParameter, MeroboundsError, RadiusBeyondPole, check_inside_pole,
                     check_radius)
from .functions import (
    ClassKind,
    ClassSpec,
    build_fp,
    build_koebe_rotation,
    build_kp,
    f_over_z_series,
    from_csv_row,
    from_inverse_coefficients,
)
from .integrals import (
    QuadratureConfig,
    dirichlet_quadrature,
    dirichlet_series,
    l1_mean_quadrature,
    l1_mean_series,
)
from .series import DEFAULT_ORDER

P_GRID = (0.2, 0.35, 0.5, 0.65, 0.8)
R_GRID = tuple(k / 20.0 for k in range(1, 21))
LAMBDA_GRID = (0.25, 0.5, 1.0)

_TABLE_HEADER = "quantity,class,p,lambda,r,computed,bound,slack,sharp"

#: The classes whose extremal function ``table`` sweeps for each quantity:
#: U_P_LAMBDA has no f or f/z maximum, and the analytic class S is shown for L1 only.
_TABLE_CLASSES = {
    BoundQuantity.DIRICHLET_ZF: (ClassKind.SIGMA_P, ClassKind.U_P_LAMBDA),
    BoundQuantity.DIRICHLET_F: (ClassKind.SIGMA_P,),
    BoundQuantity.DIRICHLET_F_OVER_Z: (ClassKind.SIGMA_P,),
    BoundQuantity.L1: (ClassKind.SIGMA_P, ClassKind.U_P_LAMBDA, ClassKind.S),
}

#: The quantities whose series converge only inside the pole: ``table``
#: skips every radius r >= p for them.
_INSIDE_POLE = (BoundQuantity.DIRICHLET_F, BoundQuantity.DIRICHLET_F_OVER_Z)


def _fmt(x) -> str:
    """12 significant digits; scientific notation once |x| drops under 1e-4
    or reaches 1e12."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return "%.12g" % x


def _fmtc(z: complex) -> str:
    return "%.6g%+.6gi" % (z.real, z.imag)


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# ---- verify suites -------------------------------------------------------------

def _kp_member(p: float, order: int = DEFAULT_ORDER):
    return ClassSpec(ClassKind.SIGMA_P, p=p), build_kp(p, order)


def _fp_member(p: float, lam: float, order: int = DEFAULT_ORDER):
    return ClassSpec(ClassKind.U_P_LAMBDA, p=p, lam=lam), build_fp(p, lam, order)


def _worst(quantity: BoundQuantity, members, radii) -> float:
    """Largest relative gap between computed value and sharp bound over
    (class, function) members and radii."""
    reports = (report for spec, f in members for report in check_bounds(f, spec, quantity, radii))
    return max(_rel(report.computed, report.bound) for report in reports)


def _suite_sharpness():
    checks = []
    for name, quantity in (("zf", BoundQuantity.DIRICHLET_ZF), ("l1", BoundQuantity.L1)):
        for p in P_GRID:
            worst = _worst(quantity, [_kp_member(p)], R_GRID)
            checks.append((f"sharpness/{name}-kp p={_fmt(p)}", worst <= 1e-9,
                           f"max rel slack {_fmt(worst)}"))
        for p in P_GRID:
            worst = _worst(quantity, [_fp_member(p, lam) for lam in LAMBDA_GRID], R_GRID)
            checks.append((f"sharpness/{name}-fp p={_fmt(p)}", worst <= 1e-9,
                           f"max rel slack over lambda {_fmt(worst)}"))
    worst = _worst(BoundQuantity.L1, [(ClassSpec(ClassKind.S), build_koebe_rotation(0.0))],
                   R_GRID)
    checks.append(("sharpness/l1-koebe", worst <= 1e-9, f"max rel slack {_fmt(worst)}"))
    for name, quantity in (("f-over-z", BoundQuantity.DIRICHLET_F_OVER_Z),
                           ("f", BoundQuantity.DIRICHLET_F)):
        for p in P_GRID:
            worst = _worst(quantity, [_kp_member(p, order=128)],
                           [c * p for c in (0.2, 0.5, 0.8)])
            checks.append((f"sharpness/{name}-kp p={_fmt(p)}", worst <= 1e-8,
                           f"max rel slack {_fmt(worst)}"))
    zf = BoundQuantity.DIRICHLET_ZF
    margin = min(sharp_maximum(ClassSpec(ClassKind.SIGMA_P, p=p), zf, r)
                 - sharp_maximum(ClassSpec(ClassKind.U_P_LAMBDA, p=p, lam=1.0), zf, r)
                 for p in P_GRID for r in R_GRID)
    checks.append(("sharpness/class-nesting", margin > 1e-12,
                   f"min bound gap {_fmt(margin)}"))
    return checks


def _suite_oracles():
    checks = []
    radii = (0.25, 0.5, 0.75, 0.95)
    zf = (lambda f, r: dirichlet_quadrature(f.inv_series, r),
          lambda f, r: dirichlet_series(f.inv_series, r))
    l1 = (l1_mean_quadrature, l1_mean_series)
    cases = [*((f"zf-quadrature-kp p={_fmt(p)}", zf, build_kp(p), 1e-8) for p in P_GRID),
             *((f"l1-quadrature-kp p={_fmt(p)}", l1, build_kp(p), 1e-10) for p in P_GRID),
             ("l1-quadrature-koebe", l1, build_koebe_rotation(0.0), 1e-10)]
    for name, (quadrature, series), f, tolerance in cases:
        worst = max(_rel(quadrature(f, r).value, series(f, r).value) for r in radii)
        checks.append((f"oracles/{name}", worst <= tolerance, f"max rel gap {_fmt(worst)}"))
    dense = QuadratureConfig(radial_nodes=160, angular_nodes=256)
    for p in P_GRID:
        spec, f = _kp_member(p, order=128)
        r = 0.5 * p
        quad = dirichlet_quadrature(f_over_z_series(f), r, dense).value
        gap = _rel(quad, sharp_maximum(spec, BoundQuantity.DIRICHLET_F_OVER_Z, r))
        checks.append((f"oracles/f-over-z-quadrature-kp p={_fmt(p)}", gap <= 1e-8,
                       f"rel gap {_fmt(gap)} at r={_fmt(r)}"))
    for p in P_GRID:
        report = gronwall_check(build_kp(p))
        checks.append((f"oracles/gronwall-kp p={_fmt(p)}", report.sharp,
                       f"weighted sum {_fmt(report.computed)}"))
    for p in P_GRID:
        g = f_over_z_series(build_kp(p))
        worst = max(
            _rel(abs(g.coefficients[n - 1]), jenkins_bound(n, p))
            for n in range(2, 9))
        checks.append((f"oracles/coefficient-bound-kp p={_fmt(p)}", worst <= 1e-10,
                       f"max rel gap for n <= 8: {_fmt(worst)}"))
    return checks


def _criterion(name: str, verdict, holds: bool, detail: str, tolerance=None):
    """One criteria-suite check: the scan's ``holds`` must equal ``holds`` and,
    given a tolerance, its value must lie within it of the threshold.
    ``detail`` formats the scan's {value} and {threshold}."""
    ok = verdict.holds == holds and (
        tolerance is None or abs(verdict.value - verdict.threshold) <= tolerance)
    return (f"criteria/{name}", ok,
            detail.format(value=_fmt(verdict.value), threshold=_fmt(verdict.threshold)))


def _suite_criteria():
    kp = build_kp(0.5)
    inj, gron = injectivity_oracle(kp), gronwall_check(kp)
    sup = "sup {value} vs {threshold}"
    return [
        *(_criterion(f"membership-fp p={_fmt(p)}", up_lambda_membership(build_fp(p, 1.0), 1.0),
                     True, "sup ratio {value} vs {threshold}", tolerance=1e-9)
          for p in P_GRID),
        _criterion("membership-rejects-kp", up_lambda_membership(kp, 1.0), False,
                   "sup ratio {value} above {threshold}"),
        _criterion("second-derivative-lambda-0.49", univalence_criterion(build_fp(0.5, 0.49)),
                   True, sup),
        _criterion("second-derivative-lambda-0.50", univalence_criterion(build_fp(0.5, 0.5)),
                   True, "sup {value} meets {threshold}", tolerance=1e-12),
        _criterion("second-derivative-lambda-0.51", univalence_criterion(build_fp(0.5, 0.51)),
                   False, sup),
        _criterion("kp-fails-second-derivative", univalence_criterion(kp), False, sup),
        ("criteria/kp-still-injective", inj.holds and gron.sharp,
         f"quotient floor {_fmt(inj.value)}, coefficient sum {_fmt(gron.computed)}"),
        _criterion("collision-detected", injectivity_oracle(from_inverse_coefficients([0.0, 5.0])),
                   False, "quotient floor {value} below {threshold}"),
        *(_criterion(f"injectivity-fp p={_fmt(p)}", injectivity_oracle(build_fp(p, 1.0)), True,
                     "quotient floor {value}") for p in P_GRID),
    ]


def _suite_limits():
    p, r = 0.999, 0.5
    pole_class, analytic = ClassSpec(ClassKind.SIGMA_P, p=p), ClassSpec(ClassKind.S)
    checks = []
    for name, quantity, tolerance in (("zf", BoundQuantity.DIRICHLET_ZF, 2e-3),
                                      ("f-over-z", BoundQuantity.DIRICHLET_F_OVER_Z, 1e-2),
                                      ("f", BoundQuantity.DIRICHLET_F, 1e-2),
                                      ("l1", BoundQuantity.L1, 1e-5)):
        gap = _rel(sharp_maximum(pole_class, quantity, r), sharp_maximum(analytic, quantity, r))
        checks.append((f"limits/{name}-approaches-analytic-class", gap <= tolerance,
                       f"rel gap {_fmt(gap)} at p={_fmt(p)}"))
    return checks


_SUITES = {
    "sharpness": _suite_sharpness,
    "oracles": _suite_oracles,
    "criteria": _suite_criteria,
    "limits": _suite_limits,
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    total = 0
    for name in names:
        for check, ok, detail in _SUITES[name]():
            total += 1
            if not ok:
                failures += 1
            print(f"{'PASS' if ok else 'FAIL'} {check}: {detail}")
    print(f"verify: {total} checks, {failures} failed")
    return 0 if failures == 0 else 1


# ---- table ---------------------------------------------------------------------

def _cmd_table(args) -> int:
    quantities = [BoundQuantity(q.upper()) for q in args.quantity]
    try:  # the class specs and builders validate p, lambda and the order
        members = []
        for p in args.p:
            members.append(_kp_member(p, args.order))
            members.extend(_fp_member(p, lam, args.order) for lam in args.lam)
        members.append((ClassSpec(ClassKind.S), build_koebe_rotation(0.0, args.order)))
        for r in args.r:
            check_radius(r)
    except BadParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = []
    skipped = Counter()
    for quantity in quantities:
        for spec, f in members:
            if spec.kind not in _TABLE_CLASSES[quantity]:
                continue
            radii = []
            for r in args.r:
                if quantity in _INSIDE_POLE:
                    try:
                        check_inside_pole(r, spec.p)
                    except RadiusBeyondPole:
                        skipped[quantity.value] += 1
                        continue
                radii.append(r)
            rows.extend(check_bounds(f, spec, quantity, radii))

    for name in sorted(skipped):
        print(f"note: {name} requires r < p; skipped {skipped[name]} combinations",
              file=sys.stderr)
    if not rows:
        print("error: the sweep produced no rows", file=sys.stderr)
        return 2

    rows.sort(key=lambda rep: (rep.quantity, rep.class_spec.kind.value,
                               -1.0 if rep.class_spec.p is None else rep.class_spec.p,
                               -1.0 if rep.class_spec.lam is None else rep.class_spec.lam,
                               rep.r))
    lines = [_TABLE_HEADER]
    for rep in rows:
        spec = rep.class_spec
        lines.append(",".join([
            rep.quantity, spec.kind.value, _fmt(spec.p), _fmt(spec.lam), _fmt(rep.r),
            _fmt(rep.computed), _fmt(rep.bound), _fmt(rep.slack), _fmt(rep.sharp),
        ]))
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


# ---- check ---------------------------------------------------------------------

def _cmd_check(args) -> int:
    try:
        spec = ClassSpec(ClassKind(args.klass.upper()), p=args.p, lam=args.lam)
    except (ValueError, MeroboundsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.infile, newline="") as fh:
            raw = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        print(f"error: cannot read {args.infile}: {exc}", file=sys.stderr)
        return 2
    if not raw:
        print("error: no function rows in input", file=sys.stderr)
        return 2

    functions = []
    for i, row in enumerate(raw, start=1):
        try:
            f = from_csv_row(row)
            spec.match(f)
        except MeroboundsError as exc:
            print(f"error: row {i}: {exc}", file=sys.stderr)
            return 2
        functions.append(f)

    disproved = False
    for i, f in enumerate(functions, start=1):
        report = gronwall_check(f)
        if report.satisfied:
            sharp_note = " (sharp)" if report.sharp else ""
            print(f"row {i} PASS coefficient-sum: {_fmt(report.computed)} <= 1{sharp_note}")
        else:
            disproved = True
            print(f"row {i} FAIL coefficient-sum: {_fmt(report.computed)} > 1, "
                  "f cannot be univalent")
        if spec.kind is ClassKind.U_P_LAMBDA:
            lemma = lemma1_check(f, spec.lam, t=2.0, r=1.0)
            if lemma.satisfied:
                print(f"row {i} PASS tail-inequality: {_fmt(lemma.computed)} <= "
                      f"{_fmt(lemma.bound)}")
            else:
                print(f"row {i} WARN tail-inequality: {_fmt(lemma.computed)} > "
                      f"{_fmt(lemma.bound)}, class claim dubious")
            member = up_lambda_membership(f, spec.lam)
            if member.holds:
                print(f"row {i} PASS membership: sup ratio {_fmt(member.value)} <= "
                      f"{_fmt(member.threshold)}")
            else:
                print(f"row {i} WARN membership: sup ratio {_fmt(member.value)} > "
                      f"{_fmt(member.threshold)} near {_fmtc(member.witness)}")
        if spec.p is not None:
            crit = univalence_criterion(f)
            if crit.holds:
                near = " [at-threshold]" if abs(crit.value - crit.threshold) <= SUP_TOL else ""
                print(f"row {i} PASS univalence-criterion: sup {_fmt(crit.value)} <= "
                      f"{_fmt(crit.threshold)}{near}")
            else:
                print(f"row {i} INCONCLUSIVE univalence-criterion: sup "
                      f"{_fmt(crit.value)} > {_fmt(crit.threshold)}, "
                      "proves nothing either way")
        # a certificate already settles injectivity, so the grid scan is skipped
        if not report.satisfied:
            print(f"row {i} FAIL injectivity: implied by coefficient-sum")
            continue
        aksentiev = aksentiev_criterion(f)
        if aksentiev.holds:
            print(f"row {i} PASS injectivity: implied by Aksentiev, sup |U_f/z^2| "
                  f"{_fmt(aksentiev.value)} <= 1")
            continue
        collision = injectivity_oracle(f)
        if collision.holds:
            print(f"row {i} PASS injectivity: quotient floor {_fmt(collision.value)}")
        else:
            disproved = True
            print(f"row {i} FAIL injectivity: collision between "
                  f"{_fmtc(collision.witness)} and {_fmtc(collision.witness_partner)}")
    return 1 if disproved else 0


# ---- parser --------------------------------------------------------------------

@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; its defaults are tuples, so no call
    can change what the next one parses."""
    parser = argparse.ArgumentParser(
        prog="merobounds",
        description="Verify sharp integral and coefficient bounds for disk "
                    "functions with one simple pole.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the built-in check suites")
    verify.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    verify.set_defaults(func=_cmd_verify)

    table = sub.add_parser("table", help="sweep computed values against bounds")
    table.add_argument("--p", nargs="+", type=float, default=P_GRID)
    table.add_argument("--r", nargs="+", type=float, default=R_GRID)
    table.add_argument("--lambda", dest="lam", nargs="+", type=float,
                       default=LAMBDA_GRID)
    quantities = tuple(q.value.lower() for q in BoundQuantity)
    table.add_argument("--quantity", nargs="+", choices=quantities, default=quantities)
    table.add_argument("--order", type=int, default=DEFAULT_ORDER)
    table.add_argument("--out", default=None)
    table.set_defaults(func=_cmd_table)

    check = sub.add_parser("check", help="check functions from CSV rows")
    check.add_argument("--in", dest="infile", required=True)
    check.add_argument("--class", dest="klass", required=True,
                       choices=[k.value.lower() for k in ClassKind])
    check.add_argument("--p", type=float, default=None)
    check.add_argument("--lambda", dest="lam", type=float, default=None)
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())
