"""Acceptance gate: one test per release criterion, at the stated tolerance.

Each test prints a single PASS line with the measured figure of merit, so
a verbose run reads as a checklist.  Tolerances and grids here are
contractual; do not loosen them to make a failure go away.
"""

import contextlib
import csv
import io
import math
import time

import numpy as np
import pytest

from merobounds.bounds import BoundQuantity, gronwall_check, lemma1_check, sharp_maxima
from merobounds.cli import LAMBDA_GRID, P_GRID, R_GRID, main
from merobounds.criteria import DiskGrid, injectivity_oracle, univalence_criterion
from merobounds.errors import BadParameter, RadiusBeyondPole
from merobounds.functions import (
    ClassKind,
    ClassSpec,
    build_fp,
    build_koebe_rotation,
    build_kp,
    from_inverse_coefficients,
    mu,
)
from merobounds.integrals import (
    dirichlet_quadrature,
    dirichlet_series,
    l1_mean_quadrature,
    l1_mean_series,
    values,
)
from pointwise import u_functional


def maximum_at(class_spec, quantity, r):
    """``sharp_maxima`` at the one radius r."""
    return sharp_maxima(class_spec, quantity, (r,))[0]


def rel(value, reference):
    return abs(value - reference) / abs(reference)


def test_criterion_01_zf_dirichlet_sharpness():
    start = time.perf_counter()
    worst = 0.0
    for p in P_GRID:
        f = build_kp(p)
        for r in R_GRID:
            closed = math.pi * r * r * ((1.0 / p + p) ** 2 + 2.0 * r * r)
            worst = max(worst, rel(dirichlet_series(f.inv_series, r).value, closed))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    print(f"PASS criterion 01: zf Dirichlet sharpness, max rel err {worst:.3e} "
          f"in {elapsed:.3f}s")


def test_criterion_02_quadrature_agrees_with_series():
    start = time.perf_counter()
    worst = 0.0
    for p in P_GRID:
        f = build_kp(p)
        for r in R_GRID:
            series = dirichlet_series(f.inv_series, r).value
            quad = dirichlet_quadrature(f.inv_series, r).value
            worst = max(worst, rel(quad, series))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 10.0
    print(f"PASS criterion 02: quadrature oracle agreement, max rel err {worst:.3e} "
          f"in {elapsed:.3f}s")


def test_criterion_03_integral_means():
    worst_series = 0.0
    for p in P_GRID:
        f = build_kp(p)
        for r in R_GRID:
            closed = 1.0 + (1.0 / p + p) ** 2 * r * r + r**4
            worst_series = max(worst_series,
                               abs(l1_mean_series(f, r).value - closed))
    for theta in (0.0, math.pi / 3.0, math.pi):
        k = build_koebe_rotation(theta)
        for r in R_GRID:
            closed = 1.0 + 4.0 * r * r + r**4
            worst_series = max(worst_series, abs(l1_mean_series(k, r).value - closed))
    worst_quad = 0.0
    for r in (0.25, 0.5, 0.75, 1.0):
        worst_quad = max(
            worst_quad,
            abs(l1_mean_quadrature(build_kp(0.5), r).value
                - l1_mean_series(build_kp(0.5), r).value),
            abs(l1_mean_quadrature(build_koebe_rotation(math.pi / 3.0), r).value
                - l1_mean_series(build_koebe_rotation(math.pi / 3.0), r).value))
    assert worst_series <= 1e-12
    assert worst_quad <= 1e-10
    print(f"PASS criterion 03: integral means, series err {worst_series:.3e}, "
          f"quadrature err {worst_quad:.3e}")


def test_criterion_04_residual_class_sharpness():
    worst = 0.0
    for p in P_GRID:
        m = mu(p)
        for lam in LAMBDA_GRID:
            f = build_fp(p, lam)
            for r in R_GRID:
                zf_closed = math.pi * r * r * ((1.0 / p + lam * m * p) ** 2
                                               + 2.0 * (lam * m) ** 2 * r * r)
                l1_closed = (1.0 + r * r * (1.0 / p + lam * m * p) ** 2
                             + (lam * m) ** 2 * r**4)
                worst = max(worst,
                            rel(dirichlet_series(f.inv_series, r).value, zf_closed),
                            rel(l1_mean_series(f, r).value, l1_closed))
    assert worst <= 1e-10
    print(f"PASS criterion 04: residual-class sharpness, max rel err {worst:.3e}")


def test_criterion_05_inside_pole_closed_forms():
    worst = 0.0
    for p in P_GRID:
        f = build_kp(p)
        for c in (0.1, 0.5, 0.9):
            r = c * p
            f_over_z, f_itself = values(f, (BoundQuantity.DIRICHLET_F_OVER_Z,
                                            BoundQuantity.DIRICHLET_F), (r,))[0][:, 0]
            worst = max(
                worst,
                rel(f_over_z,
                    maximum_at(ClassSpec(ClassKind.SIGMA_P, p=p),
                                  BoundQuantity.DIRICHLET_F_OVER_Z, r)),
                rel(f_itself,
                    maximum_at(ClassSpec(ClassKind.SIGMA_P, p=p),
                                  BoundQuantity.DIRICHLET_F, r)))
    assert worst <= 1e-8
    f = build_kp(0.5)
    with pytest.raises(RadiusBeyondPole):
        values(f, (BoundQuantity.DIRICHLET_F_OVER_Z,), (0.5,))
    with pytest.raises(RadiusBeyondPole):
        values(f, (BoundQuantity.DIRICHLET_F,), (0.7,))
    with pytest.raises(RadiusBeyondPole):
        maximum_at(ClassSpec(ClassKind.SIGMA_P, p=0.5), BoundQuantity.DIRICHLET_F, 0.5)
    print(f"PASS criterion 05: inside-pole closed forms, "
          f"max rel err {worst:.3e}; r >= p rejected")


def test_criterion_06_limits_toward_the_analytic_class():
    p, r = 0.999, 0.5
    sigma, s = ClassSpec(ClassKind.SIGMA_P, p=p), ClassSpec(ClassKind.S)
    zf_gap = rel(maximum_at(sigma, BoundQuantity.DIRICHLET_ZF, r),
                 maximum_at(s, BoundQuantity.DIRICHLET_ZF, r))
    fz_gap = rel(maximum_at(sigma, BoundQuantity.DIRICHLET_F_OVER_Z, r),
                 maximum_at(s, BoundQuantity.DIRICHLET_F_OVER_Z, r))
    f_gap = rel(maximum_at(sigma, BoundQuantity.DIRICHLET_F, r),
                maximum_at(s, BoundQuantity.DIRICHLET_F, r))
    assert zf_gap <= 2e-3
    assert fz_gap <= 1e-2
    assert f_gap <= 1e-2
    print(f"PASS criterion 06: p->1 limits, gaps {zf_gap:.3e} / {fz_gap:.3e} / "
          f"{f_gap:.3e}")


def perturbed_member(rng):
    """Random residual-class member: tail scaled to 0.6 of the class level."""
    p = rng.uniform(0.2, 0.8)
    lam = float(rng.choice(LAMBDA_GRID))
    tail = rng.standard_normal(9) + 1j * rng.standard_normal(9)  # b_2 .. b_10
    grid = DiskGrid(pole=p)

    def assemble(t):
        b1 = -(1.0 + np.dot(t, p ** np.arange(2, 11))) / p
        return from_inverse_coefficients(np.concatenate(([b1], t)), pole=p)

    z = grid.points()
    probe = assemble(tail)
    sup = float(np.max(np.abs(u_functional(probe, z)) / np.abs(z) ** 2))
    scale = 0.6 * lam * mu(p) / sup
    return assemble(tail * scale), p, lam


def test_criterion_07_weighted_tail_inequality():
    t_values = (-1.0, 0.0, 0.5, 1.0, 2.0)
    worst_eq = 0.0
    for p in P_GRID:
        for lam in LAMBDA_GRID:
            f = build_fp(p, lam)
            for t in t_values:
                for r in (0.25, 0.7, 1.0):
                    report = lemma1_check(f, lam, t, r)
                    worst_eq = max(worst_eq, abs(report.slack) / report.bound)
    assert worst_eq <= 1e-12

    rng = np.random.default_rng(20260819)
    min_slack = math.inf
    for _ in range(200):
        f, p, lam = perturbed_member(rng)
        for t in t_values:
            for r in (0.5, 1.0):
                min_slack = min(min_slack, lemma1_check(f, lam, t, r).slack)
    assert min_slack >= 0.0

    with pytest.raises(BadParameter):
        lemma1_check(build_fp(0.5, 1.0), 1.0, 2.5, 0.5)
    print(f"PASS criterion 07: tail inequality, extremal |slack|/bound {worst_eq:.3e}, "
          f"200 perturbed members min slack {min_slack:.3e}, t=2.5 rejected")


def test_criterion_08_criteria_suite(tmp_path):
    for p in P_GRID:
        assert univalence_criterion(build_fp(p, 0.49)).holds
        assert not univalence_criterion(build_fp(p, 0.51)).holds
    kp = build_kp(0.5)
    assert not univalence_criterion(kp).holds
    start = time.perf_counter()
    scan = injectivity_oracle(kp)
    elapsed = time.perf_counter() - start
    assert scan.holds
    assert elapsed < 60.0
    gron = gronwall_check(kp)
    assert gron.satisfied and gron.sharp

    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerow(["", "2", "0", "0", "1.2", "0"])
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["check", "--in", str(bad), "--class", "s"])
    assert code == 1
    assert "FAIL" in buffer.getvalue()
    print(f"PASS criterion 08: criteria suite, injectivity scan {elapsed:.3f}s, "
          f"b2=1.2 disproved with exit 1")


def test_criterion_09_monotone_nesting():
    margin = min(
        maximum_at(ClassSpec(ClassKind.SIGMA_P, p=p), BoundQuantity.DIRICHLET_ZF, r)
        - maximum_at(ClassSpec(ClassKind.U_P_LAMBDA, p=p, lam=lam),
                        BoundQuantity.DIRICHLET_ZF, r)
        for p in P_GRID for r in R_GRID for lam in LAMBDA_GRID)
    assert margin > 1e-12
    print(f"PASS criterion 09: nesting margin {margin:.3e}")


def test_criterion_10_verify_is_deterministic():
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["verify", "--suite", "all"])
        assert code == 0
        outputs.append(buffer.getvalue())
    assert outputs[0] == outputs[1]
    print(f"PASS criterion 10: verify --suite all deterministic over two runs "
          f"({len(outputs[0].splitlines())} lines)")
