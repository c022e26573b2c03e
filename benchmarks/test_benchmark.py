"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest benchmarks -q
"""

import json
from pathlib import Path

import pytest

import run
from reference import NOMINAL_S, HostGauge
from spans import LAYERS, Tracer
from workloads import WORKLOADS, CliOutcome, gronwall_sum

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def program():
    return run.load_program(ROOT)


def make(name, program, tmp_path, seed=5):
    return WORKLOADS[name](seed, program, tmp_path)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_identical_inputs(name, program, tmp_path):
    def inputs(seed):
        w = make(name, program, tmp_path, seed)
        return b"".join(repr(w.inputs(n)).encode() for n in range(16))

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_check_batch_rows_are_what_they_claim(program, tmp_path):
    w = make("check-batch", program, tmp_path)
    from_csv_row = program["functions"].from_csv_row
    for n in range(16):
        call = w.inputs(n)
        for kind, line in zip(call.rows, call.csv_text.splitlines()):
            f = from_csv_row(line.split(","))  # raises if the pole is not a root of z/f
            assert f.pole == call.pole
            b = f.inv_series.coefficients[1:]
            assert (gronwall_sum(b) > 1.0) == (kind == "not univalent")


def _first_call(w, want):
    n = next(n for n in range(64) if want(w.inputs(n)))
    call = w.inputs(n)
    return call, w.invoke(w.prepare(call))


def test_check_batch_flags_a_corrupted_verdict(program, tmp_path):
    w = make("check-batch", program, tmp_path)
    call, outcome = _first_call(w, lambda c: "not univalent" in c.rows and c.pole > 0.1)
    assert w.check(call, outcome) == []
    hidden = CliOutcome(0, outcome.stdout.replace("FAIL", "PASS"))
    assert w.check(call, hidden) == ["missed disproof"]
    w.close()


def test_table_sweep_flags_corrupted_rows(program, tmp_path):
    w = make("table-sweep", program, tmp_path)
    call, outcome = _first_call(w, lambda c: True)
    assert set(w.check(call, outcome)) <= w.KNOWN_DEFECTS
    lines = outcome.stdout.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("DIRICHLET_ZF,"))
    row = lines[i].split(",")
    assert row[-1] == "true"
    not_sharp = row[:-1] + ["false"]
    nan = row[:5] + ["nan"] + row[6:]
    for bad, kind in ((not_sharp, "row not sharp"), (nan, "non-finite row")):
        corrupted = CliOutcome(0, "\n".join([*lines[:i], ",".join(bad), *lines[i + 1:]]) + "\n")
        assert kind in w.check(call, corrupted)
        assert not set(w.check(call, corrupted)) <= w.KNOWN_DEFECTS
    truncated = CliOutcome(0, "\n".join(lines[:-1]) + "\n")
    assert "missing or extra row" in w.check(call, truncated)


def test_routes_flags_a_perturbed_route(program, tmp_path):
    w = make("routes", program, tmp_path)
    call, outcome = _first_call(w, lambda c: True)
    assert w.check(call, outcome) == []
    d_series, d_quad, l_series, l_quad = outcome[0]
    outcome[0] = (d_series, d_quad * (1 + 1e-6), l_series, l_quad)
    assert w.check(call, outcome) == ["dirichlet routes disagree"]
    assert w.check(call, ValueError("boom")) == ["raised ValueError"] * call.units


@pytest.mark.parametrize("name, scans", [("table-sweep", 0), ("routes", 0), ("check-batch", 2)])
def test_traced_run_counts_injectivity_scans(name, scans, program, tmp_path):
    w = make(name, program, tmp_path)
    pool = [w.inputs(n) for n in range(2)]
    original = program["cli"].main
    with Tracer(program) as tracer:
        window = run.measure(w, pool, 0, 1, run.Ledger(), tracer)
    w.close()
    assert program["cli"].main is original
    assert window.passes == 1 and len(window.latencies) == len(pool)
    assert tracer.summary()["criteria.injectivity_oracle"]["calls"] == scans * len(pool)


def test_ledger_counts_the_pool_once_and_flags_a_changed_repeat():
    ledger = run.Ledger()
    for _ in range(3):  # three passes over a pool of two calls
        ledger.record(0, 2, ["false disproof"])
        ledger.record(1, 2, [])
    assert (ledger.attempted, ledger.failed, ledger.changed) == (4, 1, 0)
    ledger.record(1, 2, ["missed disproof"])
    assert (ledger.attempted, ledger.failed, ledger.changed) == (4, 1, 1)


def test_timings_are_divided_by_the_slowdown_around_them():
    gauge = HostGauge()
    # ten rotations at nominal speed, then ten at half speed
    gauge.samples = list(NOMINAL_S) * 10 + list(2 * NOMINAL_S) * 10
    window = run.Window(gauge, latencies=[0.1, 0.2], rotations=[0, 19], good=[1, 1])
    assert window.scaled_latencies().tolist() == pytest.approx([0.1, 0.1])
    assert window.scaled_goodput() == pytest.approx(10.0)
    assert gauge.overall() == pytest.approx(1.5)


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    summary = {layer: dict.fromkeys(("calls", "self_ms", *extra), 0) for layer, extra in LAYERS.items()}
    printed = run.per_layer(summary, 1, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in printed.items()]
