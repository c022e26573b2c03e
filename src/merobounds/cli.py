"""Command line front end.

Three subcommands:

* ``verify``  -- run the built-in self-check suites and print one
  deterministic PASS/FAIL line per check.
* ``table``   -- sweep computed values against sharp bounds over grids of
  pole locations, radii and lambda values, emitting CSV.
* ``check``   -- read functions from a CSV file (rows as produced by
  ``to_csv_row``) and test an asserted class membership.  Exit code 1 says
  f cannot be univalent, certified by a coefficient-sum violation but not
  by a collision that the grid scan detects; failed class inequalities only warn.

``main`` hands the arguments after a command name straight to that
command's parser.  The top-level parser reads the whole line only when it
is empty, starts with an option, names no command or leaves arguments
over, so each help text and usage error is the one a top-level parse
gives.  ``table`` judges one stack of the z/f and L1 rows of kp, fp and the
Koebe map over all radii, then one stack of the f and f/z rows of each kp
below its pole, so a sweep over one pole makes two judged passes.
``check`` writes its lines once every row is judged, and exits 1 iff one
reads FAIL.  A command checks each input before the value it guards is
formed, and ``main`` alone turns the first MeroboundsError raised into an
``error:`` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import sys
from functools import cache
from operator import itemgetter

from .bounds import (BoundQuantity, _judge, gronwall_check, jenkins_bound, lemma1_check,
                     sharp_maxima)
from .criteria import (SUP_TOL, _row_verdicts, injectivity_oracle, univalence_criterion,
                       up_lambda_membership)
from .errors import BadParameter, MeroboundsError, check_radii
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
from .integrals import INSIDE_POLE, Method, dirichlet_quadrature, values

P_GRID = (0.2, 0.35, 0.5, 0.65, 0.8)
R_GRID = tuple(k / 20.0 for k in range(1, 21))
LAMBDA_GRID = (0.25, 0.5, 1.0)

_TABLE_HEADER = "quantity,class,p,lambda,r,computed,bound,slack,sharp"

#: The text of False and True, read by index.
_BOOL_TEXT = ("false", "true")

#: The classes whose extremal function ``table`` sweeps for each quantity:
#: U_P_LAMBDA has no f or f/z maximum, and the analytic class S is shown for L1 only.
_TABLE_CLASSES = {
    BoundQuantity.DIRICHLET_ZF: (ClassKind.SIGMA_P, ClassKind.U_P_LAMBDA),
    BoundQuantity.DIRICHLET_F: (ClassKind.SIGMA_P,),
    BoundQuantity.DIRICHLET_F_OVER_Z: (ClassKind.SIGMA_P,),
    BoundQuantity.L1: (ClassKind.SIGMA_P, ClassKind.U_P_LAMBDA, ClassKind.S),
}


def _fmt(x) -> str:
    """12 significant digits; scientific notation once |x| drops under 1e-4
    or reaches 1e12."""
    if x is None:
        return ""
    return "%.12g" % x


def _fmtc(z: complex) -> str:
    return "%.6g%+.6gi" % (z.real, z.imag)


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# ---- verify suites -------------------------------------------------------------

def _kp_member(p: float):
    return ClassSpec(ClassKind.SIGMA_P, p=p), build_kp(p)


def _fp_member(p: float, lam: float):
    return ClassSpec(ClassKind.U_P_LAMBDA, p=p, lam=lam), build_fp(p, lam)


def _worst(quantity: BoundQuantity, members, radii) -> float:
    """Largest relative gap between computed value and sharp bound over
    (class, function) members and radii, judged in one stacked pass."""
    specs, fs = zip(*members)
    computed, bound = _judge(fs, specs, (quantity,), radii)[:2]
    return max(map(_rel, computed.ravel().tolist(), bound.ravel().tolist()))


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
            worst = _worst(quantity, [_kp_member(p)],
                           [c * p for c in (0.2, 0.5, 0.8)])
            checks.append((f"sharpness/{name}-kp p={_fmt(p)}", worst <= 1e-8,
                           f"max rel slack {_fmt(worst)}"))
    zf = BoundQuantity.DIRICHLET_ZF
    margin = min(a - b for p in P_GRID for a, b in zip(
        sharp_maxima(ClassSpec(ClassKind.SIGMA_P, p=p), zf, R_GRID),
        sharp_maxima(ClassSpec(ClassKind.U_P_LAMBDA, p=p, lam=1.0), zf, R_GRID)))
    checks.append(("sharpness/class-nesting", margin > 1e-12,
                   f"min bound gap {_fmt(margin)}"))
    return checks


def _suite_oracles():
    checks = []
    radii = (0.25, 0.5, 0.75, 0.95)
    zf, l1 = BoundQuantity.DIRICHLET_ZF, BoundQuantity.L1
    cases = [*((f"zf-quadrature-kp p={_fmt(p)}", zf, build_kp(p), 1e-8) for p in P_GRID),
             *((f"l1-quadrature-kp p={_fmt(p)}", l1, build_kp(p), 1e-10) for p in P_GRID),
             ("l1-quadrature-koebe", l1, build_koebe_rotation(0.0), 1e-10)]
    for name, quantity, f, tolerance in cases:
        quadrature = values(f, (quantity,), radii, Method.QUADRATURE)[0][0].tolist()
        series = values(f, (quantity,), radii)[0][0].tolist()
        worst = max(map(_rel, quadrature, series))
        checks.append((f"oracles/{name}", worst <= tolerance, f"max rel gap {_fmt(worst)}"))
    for p in P_GRID:
        spec, f = _kp_member(p)
        r = 0.5 * p
        quad = dirichlet_quadrature(f_over_z_series(f, 128), r).value
        gap = _rel(quad, sharp_maxima(spec, BoundQuantity.DIRICHLET_F_OVER_Z, (r,))[0])
        checks.append((f"oracles/f-over-z-quadrature-kp p={_fmt(p)}", gap <= 1e-8,
                       f"rel gap {_fmt(gap)} at r={_fmt(r)}"))
    for p in P_GRID:
        report = gronwall_check(build_kp(p))
        checks.append((f"oracles/gronwall-kp p={_fmt(p)}", report.sharp,
                       f"weighted sum {_fmt(report.computed)}"))
    for p in P_GRID:
        g = f_over_z_series(build_kp(p), 7)
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
        gap = _rel(*(sharp_maxima(spec, quantity, (r,))[0] for spec in (pole_class, analytic)))
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
    # each list is read as a set in first-seen order, so a repeated value adds no rows
    ps, rs, lams, names = (list(dict.fromkeys(values))
                           for values in (args.p, args.r, args.lam, args.quantity))
    quantities = [BoundQuantity(q.upper()) for q in names]
    # the class specs and builders validate p and lambda
    members = []
    for p in ps:
        members.append(_kp_member(p))
        members.extend(_fp_member(p, lam) for lam in lams)
    members.append((ClassSpec(ClassKind.S), build_koebe_rotation(0.0)))
    check_radii(rs)
    # a stack, (quantities, radii, members), is judged in one pass, and the first to fail
    # raises: first the z/f and L1 rows of every member that has one, over all radii, then
    # the f and f/z rows of each kp below its pole, in --p order (only SIGMA_P has f and
    # f/z maxima).  Every member's z/f has length 3, so any members stack; each prints
    # the quantities that _TABLE_CLASSES gives its class.
    outside = [q for q in quantities if q not in INSIDE_POLE]
    inside = [q for q in quantities if q in INSIDE_POLE]
    stacks = [(outside, rs, [(spec, f) for spec, f in members
                             if any(spec.kind in _TABLE_CLASSES[q] for q in outside)])]
    stacks += [(inside, [r for r in rs if r < spec.p], [(spec, f)])
               for spec, f in members if inside and spec.kind is ClassKind.SIGMA_P]
    # the z/f and L1 stack skips no radius, and each kp the same radii for f as for f/z
    skipped = sum(len(rs) - len(radii) for _, radii, _ in stacks)
    stacks = [stack for stack in stacks if stack[1] and stack[2]]
    if not stacks:
        raise BadParameter("the sweep produced no rows")
    judged = [_judge([f for _, f in stack_members], [spec for spec, _ in stack_members],
                     stack_quantities, radii) for stack_quantities, radii, stack_members in stacks]

    if skipped:
        for name in sorted(q.value for q in inside):
            print(f"note: {name} requires r < p; skipped {skipped} combinations", file=sys.stderr)

    text_r = {r: "%.12g" % r for r in rs}
    rows = []  # (quantity, class, p, lambda, r, CSV line), sorted on the key before the line
    for (stack_quantities, radii, stack_members), arrays in zip(stacks, judged):
        computed, bound, slack, sharp = (arrays[k].tolist() for k in (0, 1, 2, 4))
        for m, (spec, _) in enumerate(stack_members):
            p, lam = -1.0 if spec.p is None else spec.p, -1.0 if spec.lam is None else spec.lam
            for j, quantity in enumerate(stack_quantities):
                if spec.kind not in _TABLE_CLASSES[quantity]:
                    continue
                head = (quantity.value, spec.kind.value, p, lam)
                line = ",".join((quantity.value, spec.kind.value, _fmt(spec.p), _fmt(spec.lam),
                                 "%s,%.12g,%.12g,%.12g,%s"))  # the block's prefix baked in
                rows += [(*head, r, line % (text_r[r], c, b, d, _BOOL_TEXT[ok]))
                         for r, c, b, d, ok in zip(radii, computed[m][j], bound[m][j],
                                                   slack[m][j], sharp[m][j])]
    rows.sort()  # rows that tie on the key are the same row
    lines = [_TABLE_HEADER, *map(itemgetter(5), rows)]
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

def _check_row(f, spec) -> list[tuple[str, str, str]]:
    """The (status, check, detail) records of one row's ``check`` lines, in
    the order they are written."""
    report = gronwall_check(f)
    member, aksentiev, crit = _row_verdicts(f, spec.lam, report.satisfied)
    total = _fmt(report.computed)
    records = [("PASS", "coefficient-sum", f"{total} <= 1" + (" (sharp)" if report.sharp else ""))
               if report.satisfied else
               ("FAIL", "coefficient-sum", f"{total} > 1, f cannot be univalent")]
    if spec.kind is ClassKind.U_P_LAMBDA:
        lemma = lemma1_check(f, spec.lam, t=2.0, r=1.0)
        tail, bound = _fmt(lemma.computed), _fmt(lemma.bound)
        records.append(("PASS", "tail-inequality", f"{tail} <= {bound}") if lemma.satisfied else
                       ("WARN", "tail-inequality", f"{tail} > {bound}, class claim dubious"))
        ratio, threshold = _fmt(member.value), _fmt(member.threshold)
        records.append(("PASS", "membership", f"sup ratio {ratio} <= {threshold}")
                       if member.holds else
                       ("WARN", "membership",
                        f"sup ratio {ratio} > {threshold} near {_fmtc(member.witness)}"))
    if crit is not None:
        sup, threshold = _fmt(crit.value), _fmt(crit.threshold)
        at_threshold = crit.holds and abs(crit.value - crit.threshold) <= SUP_TOL
        near = " [at-threshold]" if at_threshold else ""
        records.append(("PASS", "univalence-criterion", f"sup {sup} <= {threshold}{near}")
                       if crit.holds else
                       ("INCONCLUSIVE", "univalence-criterion",
                        f"sup {sup} > {threshold}, proves nothing either way"))
    # a certificate already settles injectivity, so the grid scan is skipped
    if not report.satisfied:
        return [*records, ("FAIL", "injectivity", "implied by coefficient-sum")]
    if aksentiev.holds:
        return [*records, ("PASS", "injectivity", "implied by Aksentiev, sup |U_f/z^2| "
                           f"{_fmt(aksentiev.value)} <= 1")]
    collision = injectivity_oracle(f)
    if collision.holds:
        return [*records, ("PASS", "injectivity", f"quotient floor {_fmt(collision.value)}")]
    return [*records, ("FAIL", "injectivity", f"collision between {_fmtc(collision.witness)} "
                       f"and {_fmtc(collision.witness_partner)}")]


def _cmd_check(args) -> int:
    spec = ClassSpec(ClassKind(args.klass.upper()), p=args.p, lam=args.lam)
    try:
        with open(args.infile, newline="") as fh:
            raw = [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        print(f"error: cannot read {args.infile}: {exc}", file=sys.stderr)
        return 2
    if not raw:
        raise BadParameter("no function rows in input")

    functions = []
    for i, row in enumerate(raw, start=1):
        try:
            f = from_csv_row(row)
            spec.match(f)
        except MeroboundsError as exc:
            print(f"error: row {i}: {exc}", file=sys.stderr)
            return 2
        functions.append(f)

    # every row is judged before any line is written, so an error leaves stdout empty
    records = [(i, *record) for i, f in enumerate(functions, start=1)
               for record in _check_row(f, spec)]
    sys.stdout.write("".join(f"row {i} {status} {check}: {detail}\n"
                             for i, status, check, detail in records))
    return 1 if any(status == "FAIL" for _, status, _, _ in records) else 0


# ---- parser --------------------------------------------------------------------

@cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The one top-level parser of the process, and beside it the parser of
    each command by name; their defaults are tuples, so no call can change
    what the next one parses."""
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
    # accepted and ignored: the f and f/z sums need no truncation order
    table.add_argument("--order", type=int, help=argparse.SUPPRESS)
    table.add_argument("--out", default=None)
    table.set_defaults(func=_cmd_table)

    check = sub.add_parser("check", help="check functions from CSV rows")
    check.add_argument("--in", dest="infile", required=True)
    check.add_argument("--class", dest="klass", required=True,
                       choices=[k.value.lower() for k in ClassKind])
    check.add_argument("--p", type=float, default=None)
    check.add_argument("--lambda", dest="lam", type=float, default=None)
    check.set_defaults(func=_cmd_check)
    return parser, sub.choices


def main(argv=None) -> int:
    """Run one command line, parsed as the module docstring says, and return
    its exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    try:
        if command is not None:
            args, extra = command.parse_known_args(argv[1:])
        if command is None or extra:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return args.func(args)
    except MeroboundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
