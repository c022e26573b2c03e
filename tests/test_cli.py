import csv
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from merobounds import cli, criteria
from merobounds.bounds import BoundQuantity, gronwall_check
from merobounds.cli import LAMBDA_GRID, P_GRID, R_GRID, _fmt, _fmtc, main
from merobounds.criteria import DiskGrid, aksentiev_criterion
from merobounds.errors import BadParameter
from merobounds.functions import (ClassKind, build_fp, build_koebe_rotation, build_kp,
                                  from_csv_row, from_inverse_coefficients, mu, to_csv_row)
from merobounds.integrals import INSIDE_POLE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


# --- formatting ---

def test_fmt_uses_scientific_below_the_threshold():
    assert _fmt(5e-5) == "5e-05"
    assert _fmt(0.0001234) == "0.0001234"
    assert _fmt(0.2) == "0.2"
    assert _fmt(999999999999.0) == "999999999999"
    assert _fmt(1e12) == "1e+12"


def test_fmt_keeps_twelve_significant_digits():
    assert _fmt(25.918139392115793) == "25.9181393921"


def test_fmt_special_values():
    assert _fmt(None) == ""


# --- verify ---

def test_verify_limits_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "limits")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "verify: 4 checks, 0 failed"


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--suite", "criteria")
    _, second, _ = run_cli(capsys, "verify", "--suite", "criteria")
    assert first == second


def test_verify_all_matches_the_golden_output(capsys):
    # tests/data/verify_all.txt holds the stdout of the reference
    # implementation; every verdict and printed figure must stay identical
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    golden = (Path(__file__).parent / "data" / "verify_all.txt").read_text()
    assert code == 0
    assert out == golden


def test_check_matches_the_golden_output(capsys):
    # tests/data/check_rows.csv holds seven rows with pole 0.5: fp(0.5, 1),
    # fp(0.5, 0.5), the order-1 row 1 - 2z, a perturbed member, the two
    # rows (1 - 2z)(1 - s mu p z + c z^40) with (s, c) = (0.8, 2e-4) and
    # (0.4, 5e-6), whose membership and criterion sups sit just above mu(p)
    # on |z| = 1, and (1 - 2z)(1 - z/0.309375), whose second root lies on
    # the injectivity grid.  Row 7 fails the coefficient sum, so the exit
    # code is 1, and its injectivity verdict comes from that sum.  Rows 1-6
    # have sup |U_f/z^2| <= 1, so Aksentiev's theorem settles theirs.
    data = Path(__file__).parent / "data"
    code, out, _ = run_cli(capsys, "check", "--in", str(data / "check_rows.csv"),
                           "--class", "u_p_lambda", "--p", "0.5", "--lambda", "1.0")
    assert code == 1
    assert out == (data / "check_rows.txt").read_text()


@pytest.mark.parametrize("rows, argv, golden", [
    # the seven rows above as members of Sigma(0.5): no membership lines
    ("check_rows.csv", ("--class", "sigma_p", "--p", "0.5"), "check_rows_sigma_p.txt"),
    # pole-less rows, one per injectivity branch: z/f = 1 + 5z**2 fails the
    # coefficient sum, the Koebe map passes Aksentiev's certificate, and the
    # scan_fold_pass.csv row reaches the grid scan, whose PASS is wrong
    ("check_rows_s.csv", ("--class", "s"), "check_rows_s.txt"),
])
def test_check_matches_the_golden_output_of_each_class(capsys, rows, argv, golden):
    data = Path(__file__).parent / "data"
    code, out, _ = run_cli(capsys, "check", "--in", str(data / rows), *argv)
    assert code == 1
    assert out == (data / golden).read_text()


def test_grids_cover_the_documented_ranges():
    assert P_GRID == (0.2, 0.35, 0.5, 0.65, 0.8)
    assert len(R_GRID) == 20 and R_GRID[0] == 0.05 and R_GRID[-1] == 1.0
    assert LAMBDA_GRID == (0.25, 0.5, 1.0)


# --- table ---

def test_table_emits_the_documented_header(capsys):
    code, out, _ = run_cli(capsys, "table", "--p", "0.5", "--r", "0.25",
                           "--quantity", "dirichlet_zf")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,class,p,lambda,r,computed,bound,slack,sharp"
    # one sigma_p row plus one per lambda on the default lambda grid
    assert len(lines) == 1 + 1 + len(LAMBDA_GRID)
    assert all(line.endswith(",true") for line in lines[1:])


def test_table_matches_the_golden_output(capsys):
    # every quantity x class row, mixed lambda, r = 1 and both f-route
    # skip notes; the data files hold the reference implementation's output
    code, out, err = run_cli(capsys, "table", "--p", "0.35", "0.8",
                             "--r", "0.1", "0.3", "0.5", "0.7", "1.0",
                             "--lambda", "0.5", "1.0")
    data = Path(__file__).parent / "data"
    assert code == 0
    assert out == (data / "table_sweep.txt").read_text()
    assert err == (data / "table_sweep_stderr.txt").read_text()


def test_table_default_matches_the_golden_output(capsys):
    # all 5 poles x 20 radii x 3 lambdas of the default grids, every row sharp
    code, out, err = run_cli(capsys, "table")
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "table_default.txt").read_text()
    assert err == ("note: DIRICHLET_F requires r < p; skipped 55 combinations\n"
                   "note: DIRICHLET_F_OVER_Z requires r < p; skipped 55 combinations\n")


def test_table_f_route_sweep_near_one_matches_the_golden_output(capsys):
    # the f and f/z rows of kp at poles 0.95 and 0.99, whose Stein sums take
    # the most doublings of any golden sweep; every row is sharp
    code, out, err = run_cli(capsys, "table", "--p", "0.95", "0.99",
                             "--quantity", "dirichlet_f", "dirichlet_f_over_z")
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "table_near_one.txt").read_text()
    assert err == ("note: DIRICHLET_F requires r < p; skipped 3 combinations\n"
                   "note: DIRICHLET_F_OVER_Z requires r < p; skipped 3 combinations\n")
    rows = out.splitlines()[1:]
    assert len(rows) == 74 and all(row.endswith(",true") for row in rows)


def test_table_output_does_not_depend_on_the_argument_order(capsys):
    # the golden sweep with every argument list reversed
    code, out, err = run_cli(capsys, "table", "--p", "0.8", "0.35",
                             "--r", "1.0", "0.7", "0.5", "0.3", "0.1",
                             "--lambda", "1.0", "0.5")
    data = Path(__file__).parent / "data"
    assert code == 0
    assert out == (data / "table_sweep.txt").read_text()
    assert err == (data / "table_sweep_stderr.txt").read_text()


def test_table_default_runs_one_stein_pass_per_pole(capsys, monkeypatch):
    # the f and f/z rows of each kp share one Stein pass over its radii
    from merobounds import integrals

    calls = []
    stein_sums = integrals._stein_sums

    def counted(f, radii):
        calls.append(len(radii))
        return stein_sums(f, radii)

    monkeypatch.setattr(integrals, "_stein_sums", counted)
    code, _, _ = run_cli(capsys, "table")
    assert code == 0
    assert len(calls) == len(P_GRID)
    assert sum(calls) == sum(r < p for p in P_GRID for r in R_GRID)


def test_table_f_route_rows_are_finite_and_sharp_at_any_order(capsys):
    # at p = 0.2 the f/z coefficients grow like 5^n, past the float range
    # before n = 450, so no truncation at these orders could serve
    args = ("table", "--p", "0.2", "--quantity", "dirichlet_f", "dirichlet_f_over_z")
    for order in ("400", "512"):
        code, out, _ = run_cli(capsys, *args, "--order", order)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 6
        assert all(row[5] != "nan" and row[8] == "true" for row in rows)


def _table_rows_at_a_pole_near_one(capsys):
    code, out, _ = run_cli(capsys, "table", "--p", "0.9999",
                           "--quantity", "dirichlet_f", "dirichlet_f_over_z")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2 * sum(r < 0.9999 for r in R_GRID)
    return rows


def test_table_f_route_rows_at_a_pole_near_one_are_sharp(capsys):
    # the f and f/z maxima lost up to 1.6e-8 of their value at p = 0.9999,
    # so most of these rows read sharp=false
    rows = _table_rows_at_a_pole_near_one(capsys)
    assert all(row[8] == "true" for row in rows if float(row[4]) <= 0.9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the Stein sum of kp at p = 0.9999, r = 0.95 is 2.2e-13 relative above the "
    "exact sum over its stored z/f, whose roots p and 1/p nearly coincide; "
    "that is 3e-8 absolute, beyond SATISFACTION_TOL"))
def test_table_f_route_rows_at_a_pole_near_one_are_sharp_at_r_095(capsys):
    rows = _table_rows_at_a_pole_near_one(capsys)
    assert all(row[8] == "true" for row in rows if float(row[4]) > 0.9)


def test_table_order_leaves_the_output_unchanged(capsys):
    # the option is accepted and ignored
    assert run_cli(capsys, "table", "--order", "512") == run_cli(capsys, "table")


def test_table_z_over_f_rows_do_not_depend_on_the_order(capsys):
    tables = []
    for order in ("64", "128", "512"):
        code, out, _ = run_cli(capsys, "table", "--p", "0.35", "--order", order,
                               "--quantity", "dirichlet_zf", "l1")
        assert code == 0
        tables.append(out.splitlines()[1:])
    assert len(tables[0]) == 2 * len(R_GRID) * (1 + len(LAMBDA_GRID)) + len(R_GRID)
    assert tables[0] == tables[1] == tables[2]


def test_table_rows_are_sorted_and_stable(capsys):
    args = ("table", "--p", "0.65", "0.2", "--r", "0.75", "0.25", "--lambda", "1.0",
            "--quantity", "l1")
    code, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert code == 0
    assert first == second
    rows = [line.split(",") for line in first.strip().splitlines()[1:]]
    keys = [(r[0], r[1], float(r[2]) if r[2] else -1.0, float(r[4])) for r in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("repeated, once", [
    (("--quantity", "l1", "l1"), ("--quantity", "l1")),
    (("--r", "0.5", "0.5"), ("--r", "0.5")),
    (("--lambda", "1", "1.0"), ("--lambda", "1")),
    (("--p", "0.5", "0.5"), ("--p", "0.5")),
    # the note counts each skipped radius once
    (("--r", "0.25", "0.75", "0.75", "0.25", "--quantity", "dirichlet_f", "l1", "dirichlet_f"),
     ("--r", "0.25", "0.75", "--quantity", "dirichlet_f", "l1")),
], ids=["quantity", "r", "lambda", "p", "skipped"])
def test_table_reads_a_repeated_value_once(capsys, repeated, once):
    base = ("table", "--p", "0.5", "--quantity", "l1")
    assert run_cli(capsys, *base, *repeated) == run_cli(capsys, *base, *once)


def test_table_f_route_skips_radii_beyond_the_pole(capsys):
    code, out, err = run_cli(capsys, "table", "--p", "0.5", "--r", "0.25", "0.75",
                             "--quantity", "dirichlet_f")
    assert code == 0
    assert "skipped 1 combinations" in err
    assert len(out.strip().splitlines()) == 2  # header plus the r=0.25 row


def test_table_empty_sweep_is_an_error(capsys, monkeypatch):
    # the empty stack list is refused before any stack is judged and before
    # the note lines, so stderr holds the one error line
    def no_judge(*args):
        raise AssertionError("_judge called on an empty sweep")

    monkeypatch.setattr(cli, "_judge", no_judge)
    for p, r in (("0.3", "0.5"), ("0.5", "0.6")):
        assert run_cli(capsys, "table", "--p", p, "--r", r, "--quantity", "dirichlet_f") == (
            2, "", "error: the sweep produced no rows\n")


def test_table_refuses_a_sharp_bound_beyond_the_float_range(capsys):
    # at p = 1e-200 the closed form of the sigma_p maximum overflows inside
    # the sweep, after every member has been built
    code, out, err = run_cli(capsys, "table", "--p", "1e-200")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceeds the float range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message, stacks", [
    # the z/f and L1 stack fails at the L1 maximum of kp(1e-160), before any f stack
    (("--p", "1e-160", "0.2", "--r", "1e-200", "0.5", "--quantity", "l1", "dirichlet_f"),
     "sharp maximum of L1 over class SIGMA_P at p = 1e-160, r = 1e-200 "
     "exceeds the float range", [9]),
    # the z/f and L1 stack comes before the f/z stack of kp(0.2), whose lead
    # underflows at r = 1e-300
    (("--p", "0.2", "1e-155", "--r", "0.1", "1e-300",
      "--quantity", "dirichlet_f_over_z", "l1", "dirichlet_zf"),
     "sharp maximum of L1 over class SIGMA_P at p = 1e-155, r = 0.1 "
     "exceeds the float range", [9]),
    # the z/f maximum of kp(0.5) rounds to 0 and its L1 maximum to 1, so the
    # z/f and L1 stack passes, but the lead of its f maximum underflows
    (("--p", "0.5", "--r", "5e-324"),
     "sharp maximum of DIRICHLET_F over class SIGMA_P at p = 0.5, r = 5e-324 "
     "cannot be formed in floats, since a term of its closed form underflows", [5, 1]),
    # the z/f and L1 stack fails at p = 1e-160 before the Stein pass of
    # kp(0.9999999) meets the root of its z/f
    (("--p", "0.9999999", "1e-160", "--r", "0.99999989"),
     "sharp maximum of DIRICHLET_ZF over class SIGMA_P at p = 1e-160, r = 0.99999989 "
     "exceeds the float range", [9]),
])
def test_table_raises_the_error_of_the_first_failing_stack(capsys, monkeypatch, argv, message,
                                                           stacks):
    # each stack is judged once, in first-seen order, and the first error shows:
    # ``stacks`` holds the member count of each judged stack, so no stack after
    # the failing one runs, and no block is judged again on its own
    judge, judged = cli._judge, []

    def counted(fs, *args):
        judged.append(len(fs))
        return judge(fs, *args)

    monkeypatch.setattr(cli, "_judge", counted)
    code, out, err = run_cli(capsys, "table", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert judged == stacks


@pytest.mark.parametrize("command, patched", [
    (("check", "--in", str(Path(__file__).parent / "data" / "check_rows.csv"),
      "--class", "sigma_p", "--p", "0.5"), "_row_verdicts"),
    (("table", "--p", "0.5"), "_judge"),
])
def test_main_alone_turns_an_error_into_exit_2(capsys, monkeypatch, command, patched):
    def boom(*args):
        raise BadParameter("boom")

    def bug(*args):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, patched, boom)
    assert run_cli(capsys, *command) == (2, "", "error: boom\n")
    # an error the package did not raise deliberately is no usage error
    monkeypatch.setattr(cli, patched, bug)
    with pytest.raises(RuntimeError, match="bug"):
        main(list(command))


@pytest.mark.parametrize("argv, calls", [
    (("--p", "0.5"), 2),  # the z/f and L1 rows of kp, fp and the Koebe map; f and f/z
    ((), 6),  # one stack of z/f and L1 rows, and the f and f/z rows of each pole
    (("--p", "0.5", "--quantity", "l1"), 1),
    (("--quantity", "dirichlet_zf"), 1),  # no Koebe member
    (("--p", "0.3", "0.5", "--quantity", "dirichlet_f"), 2),  # each pole cuts its own radii
    (("--p", "0.33", "0.34", "--quantity", "dirichlet_f"), 2),  # even where the cuts coincide
    (("--quantity", "l1", "dirichlet_f_over_z", "dirichlet_f", "dirichlet_zf"), 6),
])
def test_table_judges_each_stack_of_blocks_once(capsys, monkeypatch, argv, calls):
    judge, judged = cli._judge, []

    def counted(*args):
        judged.append(args)
        return judge(*args)

    monkeypatch.setattr(cli, "_judge", counted)
    assert run_cli(capsys, "table", *argv)[0] == 0
    assert len(judged) == calls
    names = argv[argv.index("--quantity") + 1:] if "--quantity" in argv else [
        q.value.lower() for q in BoundQuantity]
    requested = [BoundQuantity(name.upper()) for name in names]
    # each stack is judged over its side's quantities, in --quantity order
    for _, _, quantities, _ in judged:
        inside = quantities[0] in INSIDE_POLE
        assert list(quantities) == [q for q in requested if (q in INSIDE_POLE) == inside]
    has_koebe = any(spec.kind is ClassKind.S for _, specs, *_ in judged for spec in specs)
    assert has_koebe == (BoundQuantity.L1 in requested)


def test_table_of_two_poles_prints_the_rows_of_each_pole_once(capsys):
    # kp(0.33) and kp(0.34) keep the same radii below the pole, each in a stack
    # of its own; the output is the rows of each one-pole table, the Koebe map's
    # once, in table's (quantity, class, p, lambda, r) order
    code, out, _ = run_cli(capsys, "table", "--p", "0.33", "0.34")
    assert code == 0
    header, *rows = out.splitlines()
    alone = {line for p in ("0.33", "0.34")
             for line in run_cli(capsys, "table", "--p", p)[1].splitlines()[1:]}

    def key(line):
        quantity, klass, p, lam, r = line.split(",")[:5]
        return quantity, klass, float(p or -1), float(lam or -1), float(r)

    assert header == "quantity,class,p,lambda,r,computed,bound,slack,sharp"
    assert rows == sorted(alone, key=key)


@pytest.mark.parametrize("quantities, rows", [
    (("dirichlet_zf",), 400), (("l1", "dirichlet_f"), 465), (("dirichlet_f_over_z",), 45)])
def test_table_sweeps_a_subset_of_quantities_as_the_default_does(capsys, quantities, rows):
    # a stack judged over fewer quantities gives each row the bits of the default sweep
    code, out, _ = run_cli(capsys, "table", "--quantity", *quantities)
    assert code == 0
    default = (Path(__file__).parent / "data" / "table_default.txt").read_text().splitlines()
    names = tuple(q.upper() + "," for q in quantities)
    want = [default[0], *(line for line in default[1:] if line.startswith(names))]
    assert len(want) == 1 + rows
    assert out.splitlines() == want


def test_table_prints_no_note_when_nothing_is_skipped(capsys):
    code, out, err = run_cli(capsys, "table", "--p", "0.5", "--r", "0.3")
    assert code == 0
    assert err == ""
    assert len(out.splitlines()) == 1 + 2 * (1 + len(LAMBDA_GRID)) + 1 + 2


def test_table_writes_a_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "table", "--p", "0.5", "--r", "0.5",
                           "--quantity", "l1", "--out", str(target))
    assert code == 0
    assert out == ""
    content = target.read_text().splitlines()
    assert content[0].startswith("quantity,")
    assert len(content) == 1 + 2 + len(LAMBDA_GRID)  # sigma_p + S + lambdas


def test_table_unwritable_path_fails(capsys):
    code, _, err = run_cli(capsys, "table", "--p", "0.5", "--r", "0.5",
                           "--out", "/nonexistent-dir/t.csv")
    assert code == 2
    assert "cannot write" in err


@pytest.mark.parametrize("argv", [
    ("table", "--p", "1.5"),
    ("table", "--r", "0.0"),
    ("table", "--r", "1.2"),
    ("table", "--lambda", "0.0"),
    ("table", "--order", "1.5"),
    ("table", "--p", "nan"),
    ("table", "--r", "nan"),
    ("table", "--lambda", "nan"),
])
def test_table_validates_numeric_arguments(argv, capsys):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err


# --- check ---

def test_check_accepts_extremal_members(tmp_path, capsys):
    path = write_rows(tmp_path / "f.csv",
                      [to_csv_row(build_kp(0.5)), to_csv_row(build_fp(0.5, 1.0))])
    code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "sigma_p",
                           "--p", "0.5")
    assert code == 0
    assert "row 1 PASS coefficient-sum: 1 <= 1 (sharp)" in out
    assert out.count("PASS injectivity") == 2
    assert "INCONCLUSIVE univalence-criterion" in out


def test_check_runs_class_inequalities_for_residual_class(tmp_path, capsys):
    path = write_rows(tmp_path / "f.csv", [to_csv_row(build_fp(0.5, 0.5))])
    code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "u_p_lambda",
                           "--p", "0.5", "--lambda", "0.5")
    assert code == 0
    assert "PASS tail-inequality" in out
    assert "PASS membership" in out
    assert "[at-threshold]" in out  # sup |(z/f)''| = 2 * 0.5 * mu lands on mu


def test_check_order_one_row_has_an_empty_tail(tmp_path, capsys):
    # z/f = 1 - 2z, a Moebius map in every U_p(lambda): the n >= 2 tail is empty
    path = write_rows(tmp_path / "f.csv", [["0.5", "1", "-2.0", "0"]])
    code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "u_p_lambda",
                           "--p", "0.5", "--lambda", "1.0")
    assert code == 0
    assert "row 1 PASS tail-inequality: 0 <= " in out


def test_check_flags_a_membership_violation_without_failing(tmp_path, capsys):
    # kp satisfies every univalence check but is not in the residual class
    path = write_rows(tmp_path / "f.csv", [to_csv_row(build_kp(0.5))])
    code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "u_p_lambda",
                           "--p", "0.5", "--lambda", "1.0")
    assert code == 0
    assert "WARN membership" in out


def test_check_disproves_univalence_via_coefficient_sum(tmp_path, capsys):
    # pole residual forces b1 = -2.6 once b2 = 1.2; the weighted sum is then 1.44
    path = write_rows(tmp_path / "f.csv",
                      [["0.5", "2", "-2.6", "0", "1.2", "0"]])
    code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "sigma_p",
                           "--p", "0.5")
    assert code == 1
    assert "FAIL coefficient-sum: 1.44 > 1" in out


def test_check_fails_an_overflowing_coefficient_sum_without_warnings(tmp_path, capsys):
    # z/f = 1 + 1e200 z^2: the weighted sum 1e400 overflows to inf, which
    # exceeds 1 as the true sum does; the overflow once escaped as a warning
    path = write_rows(tmp_path / "f.csv", [["", "2", "0.0", "0.0", "1e200", "0.0"]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "s")
    assert not caught
    assert code == 1
    assert out.splitlines()[0] == "row 1 FAIL coefficient-sum: inf > 1, f cannot be univalent"


def test_check_warns_of_an_overflowing_tail_sum_without_warnings(tmp_path, capsys):
    # z/f = 1 - 2z - 2**699 z^2 + 2**700 z^3 vanishes at the pole 0.5; its
    # weighted tail sum overflows to inf, which exceeds the tail bound
    row = ["0.5", "3", "-2.0", "0.0", repr(-2.0**699), "0.0", repr(2.0**700), "0.0"]
    path = write_rows(tmp_path / "f.csv", [row])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "u_p_lambda",
                               "--p", "0.5", "--lambda", "1.0")
    assert not caught
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "row 1 FAIL coefficient-sum: inf > 1, f cannot be univalent"
    assert lines[1].startswith("row 1 WARN tail-inequality: inf > ")


def _data_rows(name):
    with open(Path(__file__).parent / "data" / name, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


@pytest.mark.parametrize("row, argv", [
    *(pytest.param(row, ("--class", "u_p_lambda", "--p", "0.5", "--lambda", "1"),
                   id=f"u_p_lambda-row{i}")
      for i, row in enumerate(_data_rows("check_rows.csv"), start=1)),
    *(pytest.param(row, ("--class", "sigma_p", "--p", "0.5"), id=f"sigma_p-row{i}")
      for i, row in enumerate(_data_rows("check_rows.csv"), start=1)),
    *(pytest.param(row, ("--class", "s"), id=f"s-row{i}")
      for i, row in enumerate(_data_rows("check_rows_s.csv"), start=1)),
    # z/f = 1 + 1.5e308 (1 + i) z + 0.6 z**3, whose one FAIL is the scan's collision
    pytest.param(["", "3", "1.5e308", "1.5e308", "0", "0", "0.6", "0"], ("--class", "s"),
                 id="s-overflow"),
])
def test_check_exits_1_iff_a_line_reads_fail(row, argv, tmp_path, capsys):
    code, out, err = run_cli(capsys, "check", "--in", write_rows(tmp_path / "f.csv", [row]),
                             *argv)
    assert err == ""
    assert code == int(any(line.split()[2] == "FAIL" for line in out.splitlines()))


def test_check_writes_no_line_before_an_error(capsys):
    # lambda mu(0.5) = 1e-160 / 9 squares below the normal float range, so the
    # first row's tail bound cannot be formed, and no line of that row is written
    data = Path(__file__).parent / "data"
    assert run_cli(capsys, "check", "--class", "u_p_lambda", "--lambda", "1e-160",
                   "--p", "0.5", "--in", str(data / "check_rows.csv")) == (
        2, "", "error: weighted tail bound at t = 2.0, r = 1.0 cannot be formed in floats, "
        "since it underflows\n")


def test_check_scans_an_overflowing_image_without_warnings(tmp_path, capsys):
    # z/f = 1 + 1.5e308 (1 + i) z + 0.6 z**3 overflows on the outer grid
    # radii, which once escaped the scan as a warning; near 0, f is nearly
    # the constant 1 / b1, so the scan finds a collision there
    path = write_rows(tmp_path / "f.csv", [["", "3", "1.5e308", "1.5e308", "0", "0", "0.6", "0"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "s")
    assert code == 1
    assert out == ("row 1 PASS coefficient-sum: 0.72 <= 1\n"
                   "row 1 FAIL injectivity: collision between 0.0309375+0i and "
                   "0.0307885+0.00303241i\n")


def test_check_disproves_univalence_via_collision(tmp_path, capsys):
    # z/f = 1 + 5z^2 has coefficient sum 25, which settles injectivity
    path = write_rows(tmp_path / "f.csv", [["", "2", "0", "0", "5", "0"]])
    code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "s")
    assert code == 1
    assert "row 1 FAIL injectivity: implied by coefficient-sum" in out
    # z/f = 1 + b3 z^3 maps the adjacent outer grid points z1, z2 to one
    # image when b3 z1 z2 (z1 + z2) = 1; its coefficient sum 2|b3|^2 is
    # about 0.53, so only the scan can disprove it
    z = DiskGrid().points()
    z1, z2 = z[-64], z[-63]
    f = from_inverse_coefficients([0.0, 0.0, 1.0 / (z1 * z2 * (z1 + z2))])
    path = write_rows(tmp_path / "g.csv", [to_csv_row(f)])
    code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "s")
    assert code == 1
    assert "row 1 PASS coefficient-sum" in out
    assert f"row 1 FAIL injectivity: collision between {_fmtc(z1)} and {_fmtc(z2)}" in out


def test_check_skips_the_scan_on_a_settled_row(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("injectivity_oracle called on a settled row")

    monkeypatch.setattr(cli, "injectivity_oracle", no_scan)
    # fp(0.5, 0.5) has |U_f / z^2| = 0.5 mu(0.5) < 1; the second row's
    # coefficient sum is 1.44
    path = write_rows(tmp_path / "f.csv", [to_csv_row(build_fp(0.5, 0.5)),
                                           ["0.5", "2", "-2.6", "0", "1.2", "0"]])
    code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "sigma_p",
                           "--p", "0.5")
    assert code == 1
    assert ("row 1 PASS injectivity: implied by Aksentiev, sup |U_f/z^2| 0.0555555555556 <= 1"
            in out)
    assert "row 2 FAIL injectivity: implied by coefficient-sum" in out


@pytest.mark.parametrize("p", [0.02, 0.05])
def test_check_certifies_extremals_at_small_poles(p, tmp_path, capsys, monkeypatch):
    # the grid scan's absolute tolerance disproves kp and fp below p = 0.1;
    # their U_f / z^2 is the constant -1 and -lam mu(p)
    def no_scan(*args, **kwargs):
        raise AssertionError("injectivity_oracle called on a certified row")

    monkeypatch.setattr(cli, "injectivity_oracle", no_scan)
    path = write_rows(tmp_path / "f.csv", [to_csv_row(build_kp(p)),
                                           to_csv_row(build_fp(p, 0.7))])
    code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "u_p_lambda",
                           "--p", repr(p), "--lambda", "0.7")
    assert code == 0
    assert "row 1 PASS injectivity: implied by Aksentiev, sup |U_f/z^2| 1 <= 1" in out
    assert (f"row 2 PASS injectivity: implied by Aksentiev, sup |U_f/z^2| "
            f"{_fmt(0.7 * mu(p))} <= 1") in out


@pytest.mark.parametrize("f, argv", [
    (build_kp(0.5), ("--class", "sigma_p", "--p", "0.5")),
    (build_fp(0.3, 0.7), ("--class", "u_p_lambda", "--p", "0.3", "--lambda", "0.7")),
    (build_fp(0.5, 1.0), ("--class", "u_p_lambda", "--p", "0.5", "--lambda", "1")),
    (build_koebe_rotation(1.0), ("--class", "s")),
    (from_inverse_coefficients([]), ("--class", "s")),
    # z/f = 1 + 0.6 z^3: coefficient sum 0.72, sup |U_f/z^2| = 1.2, so the scan decides
    (from_inverse_coefficients([0.0, 0.0, 0.6]), ("--class", "s")),
    # z/f = (1 - 2z)(1 - 0.9z)(1 + 0.5z): coefficient sum 1.74
    (from_inverse_coefficients(np.convolve(np.convolve([1.0, -2.0], [1.0, -0.9]),
                                           [1.0, 0.5])[1:], pole=0.5),
     ("--class", "sigma_p", "--p", "0.5")),
    # z/f = 1 + 1.2 z^2: coefficient sum 1.44, and no threshold rides on its stack
    (from_inverse_coefficients([0.0, 1.2]), ("--class", "s")),
])
def test_check_prints_aksentiev_only_where_the_coefficient_sum_holds(
        f, argv, tmp_path, capsys, monkeypatch):
    # check asks for Aksent'ev's verdict, prints it and skips the scan on its
    # strength only on a row whose coefficient sum holds: elsewhere a row
    # without --lambda would sample U_f/z^2 for a verdict nobody reads
    scans, oracle = [], cli.injectivity_oracle
    asked, verdicts = [], criteria._circle_verdicts

    def counted(*args, **kwargs):
        scans.append(args)
        return oracle(*args, **kwargs)

    row = to_csv_row(f)
    g = from_csv_row(row)
    summed, certificate = gronwall_check(g).satisfied, aksentiev_criterion(g)
    monkeypatch.setattr(cli, "injectivity_oracle", counted)
    monkeypatch.setattr(criteria, "_circle_verdicts",
                        lambda g, checks: asked.extend(checks) or verdicts(g, checks))
    _, out, _ = run_cli(capsys, "check", "--in", write_rows(tmp_path / "f.csv", [row]), *argv)
    lines = out.splitlines()
    assert (f"row 1 PASS injectivity: implied by Aksentiev, sup |U_f/z^2| "
            f"{_fmt(certificate.value)} <= 1" in lines) == (summed and certificate.holds)
    assert ("row 1 FAIL injectivity: implied by coefficient-sum" in lines) == (not summed)
    assert len(scans) == (summed and not certificate.holds)
    assert ((criteria._U_ROW, 1.0, 0.0) in asked) == summed


#: a perturbed member (1 - z/p) h(z) of order 37 with pole p = 0.0836...,
#: row k = 342 of the default_rng(7) stream of perturbed members that
#: benchmarks/workloads.py draws, written by its csv_row: it is not univalent
#: on |z| <= 0.97, yet its grid-scan floor sits just above COLLISION_TOL
SCAN_FALSE_PASS = Path(__file__).parent / "data" / "scan_false_pass.csv"
SCAN_FALSE_PASS_POLE = "0.08363477025623639"


def test_scan_false_pass_row_has_a_collision_inside_the_grid():
    fields = SCAN_FALSE_PASS.read_text().strip().split(",")
    assert fields[0] == SCAN_FALSE_PASS_POLE and fields[1] == "37"
    values = [float(x) for x in fields[2:]]
    with mp.workdps(40):
        b = [mp.mpf(1)] + [mp.mpc(re, im) for re, im in zip(values[::2], values[1::2])]

        def f(z):
            return z / mp.polyval(b[::-1], z)

        z1 = mp.mpf("0.97")
        z2 = mp.findroot(lambda z: f(z) - f(z1),
                         mp.mpc(0.93853520003093812, -0.21757664868833617))
        assert abs(z2) < 0.97 and abs(z1 - z2) > 0.2
        assert abs(f(z1) - f(z2)) < mp.mpf("1e-35")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the grid scan reads PASS: its quotient floor 2.28e-4 lies above the absolute "
    "COLLISION_TOL = 1e-4, though f(z1) = f(z2) at |z1| = 0.97, |z2| = 0.9634"))
def test_check_fails_the_scan_false_pass_row(capsys):
    code, _, _ = run_cli(capsys, "check", "--in", str(SCAN_FALSE_PASS),
                         "--class", "sigma_p", "--p", SCAN_FALSE_PASS_POLE)
    assert code == 1


#: z/f = 1 + 0.6 z**3, with no pole: its coefficient sum (0.72) holds and
#: sup |U_f/z**2| = 1.2 gives no certificate, so the grid scan decides, and it
#: steps over the fold of f next to the critical point 1.2**(-1/3) = 0.941
SCAN_FOLD_PASS = Path(__file__).parent / "data" / "scan_fold_pass.csv"


def test_scan_fold_pass_row_has_a_collision_inside_the_grid():
    assert SCAN_FOLD_PASS.read_text() in (SCAN_FOLD_PASS.parent / "check_rows_s.csv").read_text()
    fields = SCAN_FOLD_PASS.read_text().strip().split(",")
    assert fields[:2] == ["", "3"]
    values = [float(x) for x in fields[2:]]
    assert values == [0.0, 0.0, 0.0, 0.0, 0.6, 0.0]
    with mp.workdps(40):
        b = mp.mpf(values[4])

        def f(z):
            return z / (1 + b * z**3)

        # f' = (1 - 2b z**3) / (1 + b z**3)**2 vanishes inside the grid's radius
        critical = mp.cbrt(1 / (2 * b))
        assert 0.94 < critical < 0.99 and abs(mp.diff(f, critical)) < mp.mpf("1e-35")
        z1 = mp.mpf("0.93")
        z2 = mp.findroot(lambda z: f(z) - f(z1), mp.mpf("0.95"))
        assert z1 < critical < z2 < 0.99
        assert abs(z2 - mp.mpf("0.95215902260138")) < mp.mpf("1e-14")
        assert abs(f(z1) - f(z2)) < mp.mpf("1e-35")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the grid scan reads PASS: its quotient floor 1.56e-3 lies above COLLISION_TOL = 1e-4, "
    "though f(0.93) = f(0.9522) across the critical point 0.941"))
def test_check_fails_the_scan_fold_pass_row(capsys):
    code, _, _ = run_cli(capsys, "check", "--in", str(SCAN_FOLD_PASS), "--class", "s")
    assert code == 1


def test_check_s_class_skips_pole_criteria(tmp_path, capsys):
    path = write_rows(tmp_path / "f.csv", [to_csv_row(build_koebe_rotation(0.0))])
    code, out, _ = run_cli(capsys, "check", "--in", path, "--class", "s")
    assert code == 0
    assert "univalence-criterion" not in out
    assert "membership" not in out


@pytest.mark.parametrize("argv,needle", [
    (("check", "--in", "/nonexistent.csv", "--class", "s"), "cannot read"),
    (("check", "--in", "IN", "--class", "sigma_p"), "error:"),       # missing --p
    (("check", "--in", "IN", "--class", "s", "--p", "0.5"), "error:"),
    (("check", "--in", "IN", "--class", "sigma_p", "--p", "nan"), "outside (0, 1)"),
])
def test_check_rejects_bad_invocations(argv, needle, tmp_path, capsys):
    path = write_rows(tmp_path / "f.csv", [to_csv_row(build_koebe_rotation(0.0))])
    argv = [path if a == "IN" else a for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert needle in err


def test_check_rejects_malformed_rows(tmp_path, capsys):
    path = write_rows(tmp_path / "f.csv", [["0.5", "2", "abc", "0", "1", "0"]])
    code, _, err = run_cli(capsys, "check", "--in", path, "--class", "sigma_p",
                           "--p", "0.5")
    assert code == 2
    assert "row 1" in err


def test_check_rejects_pole_mismatch(tmp_path, capsys):
    path = write_rows(tmp_path / "f.csv", [to_csv_row(build_kp(0.6))])
    code, _, err = run_cli(capsys, "check", "--in", path, "--class", "sigma_p",
                           "--p", "0.5")
    assert code == 2
    assert "does not match" in err


def test_check_rejects_pole_row_for_analytic_class(tmp_path, capsys):
    path = write_rows(tmp_path / "f.csv", [to_csv_row(build_kp(0.5))])
    code, _, err = run_cli(capsys, "check", "--in", path, "--class", "s")
    assert code == 2
    assert "forbids" in err


def test_check_rejects_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, _, err = run_cli(capsys, "check", "--in", str(path), "--class", "s")
    assert code == 2
    assert "no function rows" in err


@pytest.mark.parametrize("content", [
    b"0.5,1,\xff,0\n",  # not UTF-8
    b"0.5,1," + b"1" * 200_000 + b",0\n",  # a field over csv's 131,072 characters
], ids=["undecodable", "oversized-field"])
def test_check_reports_an_unreadable_file_as_a_usage_error(content, tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "check", "--in", str(path), "--class", "s")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {path}: ")


# --- argparse plumbing ---

def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0


def test_unknown_quantity_is_a_usage_error(capsys):
    assert main(["table", "--quantity", "volume"]) == 2


def top_level_main(argv):
    """``main`` as it was before the command parsers read their own
    arguments: one parse of the whole command line by the top-level parser."""
    try:
        args = cli._build_parser()[0].parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    return args.func(args)


@pytest.mark.parametrize("argv", [
    [], ["nope"], ["-h"], ["table", "-h"],
    ["table", "--bogus", "1"], ["table", "--p", "0.5", "--bogus"], ["table", "--p", "x"],
    ["check", "--class", "s"], ["verify", "--suite", "nope"],
], ids=" ".join)
def test_usage_errors_and_help_keep_their_text(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv)
    captured = capsys.readouterr()
    want = top_level_main(argv)
    assert (code, captured.out, captured.err) == (want, *capsys.readouterr())


def test_leftover_arguments_are_the_top_level_parser_error(capsys):
    # the table parser reads --bogus 1 as two unknown arguments; the error
    # names them with the top-level usage, as a single top-level parse does
    code, out, err = run_cli(capsys, "table", "--bogus", "1")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["usage: merobounds [-h] {verify,table,check} ...",
                                "merobounds: error: unrecognized arguments: --bogus 1"]


def test_cached_parser_behaves_like_a_fresh_one(capsys):
    assert cli._build_parser() is cli._build_parser()
    argv = ("table", "--r", "0.5", "--quantity", "l1", "--lambda", "1.0")
    code, narrow, _ = run_cli(capsys, *argv, "--p", "0.35")
    assert code == 0 and narrow.count("\n") == 4   # header, kp, fp and S rows
    assert main(list(argv)) == 0
    cached = capsys.readouterr().out
    args = cli._build_parser.__wrapped__()[0].parse_args(argv)
    assert args.func(args) == 0
    assert cached == capsys.readouterr().out
    defaults = cli._build_parser()[0].parse_args(["table"])
    assert (defaults.p, defaults.r, defaults.lam) == (P_GRID, R_GRID, LAMBDA_GRID)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "merobounds", "verify", "--suite", "limits"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.endswith("verify: 4 checks, 0 failed\n")
