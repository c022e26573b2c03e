import csv
import subprocess
import sys
from pathlib import Path

import pytest

from merobounds import cli
from merobounds.cli import LAMBDA_GRID, P_GRID, R_GRID, _fmt, _fmtc, main
from merobounds.criteria import DiskGrid
from merobounds.errors import BadParameter
from merobounds.functions import (build_fp, build_koebe_rotation, build_kp,
                                  from_inverse_coefficients, mu, to_csv_row)


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
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"


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
                             "--lambda", "0.5", "1.0", "--order", "128")
    data = Path(__file__).parent / "data"
    assert code == 0
    assert out == (data / "table_sweep.txt").read_text()
    assert err == (data / "table_sweep_stderr.txt").read_text()


def test_table_default_matches_the_golden_output(capsys):
    # all 5 poles x 20 radii x 3 lambdas of the default grids, 12 rows of
    # them f-route rows near the pole that truncation leaves not sharp
    code, out, err = run_cli(capsys, "table")
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "table_default.txt").read_text()
    assert err == ("note: DIRICHLET_F requires r < p; skipped 55 combinations\n"
                   "note: DIRICHLET_F_OVER_Z requires r < p; skipped 55 combinations\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_table_keeps_the_known_f_route_overflow_behaviour(capsys):
    # an open defect, pinned so that a change to it is deliberate: at p = 0.2
    # the f/z series overflows its squared moduli at order 400, printing NaN
    # in all 6 f-route rows, and its reciprocal recurrence at order 512, raising
    args = ("table", "--p", "0.2", "--quantity", "dirichlet_f", "dirichlet_f_over_z")
    code, out, _ = run_cli(capsys, *args, "--order", "400")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 6 and all(row[5] == row[7] == "nan" for row in rows)
    with pytest.raises(BadParameter, match="must be finite"):
        main([*args, "--order", "512"])


def test_table_z_over_f_rows_do_not_depend_on_the_order(capsys):
    # z/f is stored exactly; --order sizes only the f/z series, whose f-route
    # rows overflow at this pole and order 512 (an open defect), so they are
    # left out of the sweep
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


def test_table_f_route_skips_radii_beyond_the_pole(capsys):
    code, out, err = run_cli(capsys, "table", "--p", "0.5", "--r", "0.25", "0.75",
                             "--quantity", "dirichlet_f")
    assert code == 0
    assert "skipped 1 combinations" in err
    assert len(out.strip().splitlines()) == 2  # header plus the r=0.25 row


def test_table_empty_sweep_is_an_error(capsys):
    code, _, err = run_cli(capsys, "table", "--p", "0.3", "--r", "0.5",
                           "--quantity", "dirichlet_f")
    assert code == 2
    assert "no rows" in err


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
    ("table", "--order", "1"),
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


# --- argparse plumbing ---

def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0


def test_unknown_quantity_is_a_usage_error(capsys):
    assert main(["table", "--quantity", "volume"]) == 2


def test_cached_parser_behaves_like_a_fresh_one(capsys):
    assert cli._build_parser() is cli._build_parser()
    argv = ("table", "--r", "0.5", "--quantity", "l1", "--lambda", "1.0")
    code, narrow, _ = run_cli(capsys, *argv, "--p", "0.35")
    assert code == 0 and narrow.count("\n") == 4   # header, kp, fp and S rows
    assert main(list(argv)) == 0
    cached = capsys.readouterr().out
    args = cli._build_parser.__wrapped__().parse_args(argv)
    assert args.func(args) == 0
    assert cached == capsys.readouterr().out
    defaults = cli._build_parser().parse_args(["table"])
    assert (defaults.p, defaults.r, defaults.lam) == (P_GRID, R_GRID, LAMBDA_GRID)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "merobounds", "verify", "--suite", "limits"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.endswith("verify: 4 checks, 0 failed\n")
