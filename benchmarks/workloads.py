"""Seeded inputs, program calls and output checks for the three workloads.

Every workload is a closed loop with one caller: call n + 1 is made only
after call n has returned.  Call n takes its inputs from
``Workload.inputs(n)``, a pure function of the seed and n, so one seed
always gives the same inputs whatever the speed of the machine.

The parameters that decide whether a unit can fail (the pole, and for
table-sweep also the series order) lie on a Kronecker sequence
``frac(shift + n * alpha)`` whose shift comes from the seed.  Every prefix
of such a sequence covers its range evenly, so the share of failing inputs
a run meets hardly depends on the seed or on how many calls fit into the
run.  Everything else (orders, lambda, perturbations, radii) is drawn from
a generator seeded by ``(seed, n)``.

A call's output is split into units (a checked row, a table row, a
two-route comparison).  ``check`` returns one failure kind per failed unit.
Each workload lists in ``KNOWN_DEFECTS`` the kinds that the program is
known to produce; any other kind makes the run incorrect.

A run draws ``POOL`` calls (n = 0 .. POOL - 1) and repeats that pool in
whole passes, so the units it counts are the same on every run of a seed.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PLASTIC = 1.324717957244746  # real root of x**3 = x + 1; gives a 2-D Kronecker lattice

LOG_POLE_RANGE = (math.log(0.02), math.log(0.98))


def _log_uniform_pole(u: float) -> float:
    lo, hi = LOG_POLE_RANGE
    return math.exp(lo + u * (hi - lo))


def _mu(p: float) -> float:
    return ((1.0 - p) / (1.0 + p)) ** 2


def extremal_kp(p: float) -> list[complex]:
    """z/f coefficients b1, b2 of the extremal univalent function with pole p."""
    return [-(1.0 / p + p), 1.0]


def extremal_fp(p: float, lam: float) -> list[complex]:
    """z/f coefficients b1, b2 of the residual-class extremal function."""
    m = lam * _mu(p)
    return [-(1.0 / p + m * p), m]


def pole_times(p: float, h: np.ndarray) -> np.ndarray:
    """z/f coefficients b1..bN of (1 - z/p) * h(z), where h(0) = 1.

    The product vanishes at p by construction, so the declared pole is a
    root of z/f up to rounding.
    """
    return np.convolve([1.0, -1.0 / p], h)[1:]


def _random_tail(rng: np.random.Generator, degree: int) -> np.ndarray:
    """Complex coefficients 1..degree decaying like 2**-k."""
    k = np.arange(1, degree + 1)
    return (rng.standard_normal(degree) + 1j * rng.standard_normal(degree)) * 0.5**k


def perturbed_member(p: float, order: int, rng: np.random.Generator,
                     scale: float = 0.05) -> np.ndarray:
    """(1 - z/p) * h(z) with h = 1 + a small random tail, order >= 2."""
    h = np.concatenate([[1.0], scale * _random_tail(rng, order - 1)])
    return pole_times(p, h)


def not_univalent(p: float, order: int, rng: np.random.Generator) -> np.ndarray:
    """(1 - z/p) * h(z) scaled so that sum_{n>=2} (n-1)|b_n|**2 lies in [1.5, 3).

    The area theorem bounds that sum by 1 for every univalent function, so
    these rows are certified not univalent.
    """
    tail = _random_tail(rng, order - 1)
    b = pole_times(p, np.concatenate([[0.0], tail]))
    base = gronwall_sum(b)
    scale = math.sqrt(rng.uniform(1.5, 3.0) / base)
    return pole_times(p, np.concatenate([[1.0], scale * tail]))


def gronwall_sum(b: np.ndarray) -> float:
    """sum_{n>=2} (n-1)|b_n|**2 over z/f coefficients b1..bN."""
    return float(np.sum(np.arange(1, len(b)) * np.abs(np.asarray(b)[1:]) ** 2))


def csv_row(pole: float, b, order: int) -> str:
    """One function in the row form the program reads: pole, order, then
    Re b_n, Im b_n for n = 1..order, zero-padded past len(b)."""
    padded = np.zeros(order, dtype=np.complex128)
    padded[: len(b)] = b
    fields = [repr(pole), str(order)]
    for c in padded:
        fields += [repr(float(c.real)), repr(float(c.imag))]
    return ",".join(fields)


@dataclass(frozen=True)
class Call:
    """The inputs of one call together with what its checker expects."""

    units: int
    argv: tuple = ()
    csv_text: str = ""
    rows: tuple = ()      # check-batch: expected verdict of each row
    pole: float = 0.0
    inv: tuple = ()       # routes: z/f coefficients b1..bN
    radii: tuple = ()


@dataclass(frozen=True)
class CliOutcome:
    code: int | None
    stdout: str
    error: BaseException | None = None


def run_cli(cli: ModuleType, argv: list[str]) -> CliOutcome:
    """Call ``cli.main`` in-process with stdout and stderr captured.

    ``cli.main`` is looked up at call time so that a tracer can wrap it.
    An exception that escapes it is returned, never swallowed.
    """
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # an escaped exception is a counted failure
        return CliOutcome(None, out.getvalue(), exc)
    return CliOutcome(code, out.getvalue())


class Workload:
    name = ""
    unit = ""
    KNOWN_DEFECTS: frozenset = frozenset()
    POOL = 0

    def __init__(self, seed: int, program: dict[str, ModuleType], workdir: Path):
        self.seed = seed
        self.program = program
        self.workdir = workdir
        self.shift = np.random.default_rng([seed]).random(2)

    def _rng(self, n: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, n])

    def _lattice(self, n: int, dims: int) -> np.ndarray:
        alpha = [GOLDEN] if dims == 1 else [1.0 / PLASTIC, 1.0 / PLASTIC**2]
        return np.mod(self.shift[:dims] + n * np.asarray(alpha), 1.0)

    def inputs(self, n: int) -> Call:
        raise NotImplementedError

    def prepare(self, call: Call):
        """Untimed step that hands the inputs to the program's entry point."""
        return list(call.argv)

    def invoke(self, prepared):
        return run_cli(self.program["cli"], prepared)

    def check(self, call: Call, outcome) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class CheckBatch(Workload):
    """``check --class u_p_lambda`` on a two-row CSV sharing one pole.

    Poles are log-uniform over (0.02, 0.98).  Row 1 is the extremal kp on
    even calls and fp on odd ones; row 2 is a perturbed member on calls
    0, 1 mod 4 and a certified non-univalent row on calls 2, 3 mod 4.
    Both pairings therefore see the whole pole range in every run.
    """

    name = "check-batch"
    unit = "checked row"
    #: The injectivity tolerance is absolute, so below p = 0.1 (the bottom of
    #: its documented calibration range) univalent extremals are disproved.
    SMALL_POLE = 0.1
    KNOWN_DEFECTS = frozenset({"false disproof at p < 0.1"})
    #: 224 rows, about 24 s of calls; a multiple of 4 so that every row
    #: pairing meets the whole pole range.
    POOL = 112

    def __init__(self, seed, program, workdir):
        super().__init__(seed, program, workdir)
        self.csv_path = workdir / f"check-batch-{os.getpid()}.csv"

    def inputs(self, n):
        rng = self._rng(n)
        p = _log_uniform_pole(float(self._lattice(n, 1)[0]))
        lam = float(rng.uniform(0.1, 1.0))
        orders = rng.integers(2, 65, size=2)
        if n % 2 == 0:
            first = ("univalent", csv_row(p, extremal_kp(p), int(orders[0])))
        else:
            first = ("univalent", csv_row(p, extremal_fp(p, lam), int(orders[0])))
        if n % 4 < 2:
            b = perturbed_member(p, int(orders[1]), rng)
            second = ("perturbed", csv_row(p, b, int(orders[1])))
        else:
            b = not_univalent(p, int(orders[1]), rng)
            second = ("not univalent", csv_row(p, b, int(orders[1])))
        rows = (first, second)
        return Call(
            units=len(rows),
            argv=("check", "--class", "u_p_lambda", "--p", repr(p), "--lambda", repr(lam)),
            csv_text="".join(text + "\n" for _, text in rows),
            rows=tuple(kind for kind, _ in rows),
            pole=p,
        )

    def prepare(self, call):
        self.csv_path.write_text(call.csv_text)
        return [*call.argv, "--in", str(self.csv_path)]

    def check(self, call, outcome):
        if outcome.error is not None:
            return [f"raised {type(outcome.error).__name__}"] * call.units
        if outcome.code not in (0, 1):
            return [f"exit code {outcome.code}"] * call.units
        verdicts: dict[int, set[str]] = {}
        for line in outcome.stdout.splitlines():
            parts = line.split()
            if len(parts) >= 4 and parts[0] == "row" and parts[1].isdigit():
                verdicts.setdefault(int(parts[1]), set()).add(f"{parts[2]} {parts[3]}")
        any_fail = any(v.startswith("FAIL") for vs in verdicts.values() for v in vs)
        if any_fail != (outcome.code == 1):
            return [f"exit code {outcome.code} disagrees with verdicts"] * call.units
        failures = []
        for i, expected in enumerate(call.rows, start=1):
            seen = verdicts.get(i, set())
            failed = any(v.startswith("FAIL") for v in seen)
            if not any(v.endswith("injectivity:") for v in seen):
                failures.append("no verdict")
            elif expected == "univalent" and failed:
                failures.append("false disproof at p < 0.1" if call.pole < self.SMALL_POLE
                                else "false disproof")
            elif expected == "not univalent" and not failed:
                failures.append("missed disproof")
        return failures

    def close(self):
        self.csv_path.unlink(missing_ok=True)


class TableSweep(Workload):
    """``table --p P --order N`` with the default radius and lambda grids.

    (P, N) lies on a 2-D Kronecker lattice over [0.2, 0.8] x [64, 512]; the
    pole range is the span of the command's own default pole grid.
    """

    name = "table-sweep"
    unit = "table row"
    ORDERS = (64, 512)
    POLES = (0.2, 0.8)
    F_ROUTE = ("DIRICHLET_F", "DIRICHLET_F_OVER_Z")
    #: The f-route reciprocal series overflows (NaN rows, or BadParameter
    #: escaping the command) at small p and high order, and its truncation
    #: misreports sharpness for r close to p.
    KNOWN_DEFECTS = frozenset({"non-finite f-route row", "f-route row not sharp",
                               "raised BadParameter"})
    #: About 25 s of calls.  A call that raises fails all of its ~190 rows,
    #: so the pool must be large enough that the number of such calls in it
    #: (about 5) varies little between seeds.
    POOL = 720

    def __init__(self, seed, program, workdir):
        super().__init__(seed, program, workdir)
        cli = program["cli"]
        self.radii = tuple(cli.R_GRID)
        self.lambdas = tuple(cli.LAMBDA_GRID)

    def expected_rows(self, p: float) -> int:
        """Rows the default sweep prints for one pole: DIRICHLET_ZF and L1 for
        kp and each fp at every radius, L1 for the Koebe map, and the two
        f-route quantities for kp at every radius below the pole."""
        per_quantity = len(self.radii) * (1 + len(self.lambdas))
        inside = sum(1 for r in self.radii if r < p)
        return 2 * per_quantity + len(self.radii) + 2 * inside

    def inputs(self, n):
        u, v = self._lattice(n, 2)
        p = self.POLES[0] + float(u) * (self.POLES[1] - self.POLES[0])
        lo, hi = self.ORDERS
        order = lo + min(int(v * (hi - lo + 1)), hi - lo)
        return Call(units=self.expected_rows(p),
                    argv=("table", "--p", repr(p), "--order", str(order)), pole=p)

    def check(self, call, outcome):
        if outcome.error is not None:
            return [f"raised {type(outcome.error).__name__}"] * call.units
        if outcome.code != 0:
            return [f"exit code {outcome.code}"] * call.units
        try:
            rows = list(csv.DictReader(io.StringIO(outcome.stdout)))
            parsed = [(row["quantity"], float(row["computed"]), float(row["bound"]),
                       row["sharp"]) for row in rows]
        except (KeyError, TypeError, ValueError):
            return ["unreadable output"] * call.units
        failures = []
        for quantity, computed, bound, sharp in parsed:
            prefix = "f-route row" if quantity in self.F_ROUTE else "row"
            if not (math.isfinite(computed) and math.isfinite(bound)):
                failures.append(f"non-finite {prefix}")
            elif sharp != "true" or abs(computed - bound) > 1e-9 * abs(bound):
                failures.append(f"{prefix} not sharp")
        if len(parsed) != call.units:
            failures += ["missing or extra row"] * min(call.units, abs(call.units - len(parsed)))
        return failures[: call.units]


class Routes(Workload):
    """Library calls: both Dirichlet routes and both L1 routes of one seeded
    (1 - z/p) * h(z) at three radii.  Every function is used once per pass."""

    name = "routes"
    unit = "two-route comparison"
    RADII = 3
    #: the tolerances of the ``verify`` oracles suite
    DIRICHLET_RTOL = 1e-8
    L1_RTOL = 1e-10
    POOL = 512  # about 5 s of calls; a function recurs only in the next pass

    def inputs(self, n):
        rng = self._rng(n)
        p = _log_uniform_pole(float(self._lattice(n, 1)[0]))
        order = int(rng.integers(2, 65))
        b = perturbed_member(p, order, rng, scale=0.5)
        radii = tuple(float(r) for r in np.sort(rng.uniform(0.1, 0.99, self.RADII)))
        return Call(units=2 * self.RADII, pole=p, inv=tuple(complex(c) for c in b), radii=radii)

    def prepare(self, call):
        f = self.program["functions"].from_inverse_coefficients(call.inv, pole=call.pole)
        return f, call.radii

    def invoke(self, prepared):
        f, radii = prepared
        integrals = self.program["integrals"]
        try:
            return [(integrals.dirichlet_series(f.inv_series, r).value,
                     integrals.dirichlet_quadrature(f.inv_series, r).value,
                     integrals.l1_mean_series(f, r).value,
                     integrals.l1_mean_quadrature(f, r).value)
                    for r in radii]
        except Exception as exc:  # an escaped exception is a counted failure
            return exc

    def check(self, call, outcome):
        if isinstance(outcome, Exception):
            return [f"raised {type(outcome).__name__}"] * call.units
        failures = []
        for d_series, d_quad, l_series, l_quad in outcome:
            if not _close(d_series, d_quad, self.DIRICHLET_RTOL):
                failures.append("dirichlet routes disagree")
            if not _close(l_series, l_quad, self.L1_RTOL):
                failures.append("l1 routes disagree")
        return failures


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * abs(a)


WORKLOADS = {w.name: w for w in (CheckBatch, TableSweep, Routes)}
