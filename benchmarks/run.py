"""Benchmark of merobounds: three seeded, closed-loop, single-caller workloads.

Run from the root of a checkout that holds ``src/merobounds``:

    python3 benchmarks/run.py --workload check-batch --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` and called in-process through its
public API only: ``merobounds.cli.main(argv)`` with stdout captured for
``check-batch`` and ``table-sweep``, and the ``integrals`` functions for
``routes``.  A run repeats the workload's seeded pool of calls in whole
passes for about ``--seconds``; ``attempted`` and ``failed`` count the
pool's units once.  Timings are scaled to nominal host speed by the host
gauge of ``reference.py``.  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` it runs half the time
untraced and half traced and prints the per-layer metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(seed, sample counts, versions, failure kinds) is printed above it and
written to ``.bench_out/``.

NumPy, and the modules that import it, are imported inside functions, so
that a set-up probe (a fresh interpreter running this file) times the
program's import of NumPy as part of set-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
MODULES = ("cli", "criteria", "bounds", "functions", "integrals", "series")
WORKLOAD_NAMES = ("check-batch", "table-sweep", "routes")

#: Set-up is measured this many times, each in a fresh process.
SETUP_PROBES = 9
#: Reference-kernel rotations timed by each set-up probe, after a warm-up one.
SETUP_ROTATIONS = 3
#: A timed window makes at least this many calls, so that at least ten
#: latency samples lie beyond p90.
MIN_CALLS = 100
#: Fewer suffice for the per-layer counts of a traced run.
MIN_TRACED_CALLS = 10
#: Host-gauge time kept to about this share of the time spent in calls.
GAUGE_SHARE = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "failed_share": "share",
    "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    pass


def load_program(root: Path) -> dict:
    """Import merobounds from ``root/src`` and return its modules by name."""
    src = (root / "src").resolve()
    if not (src / "merobounds" / "__init__.py").is_file():
        raise ProgramMissing(f"no merobounds package under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"merobounds.{name}") for name in MODULES}
    where = Path(modules["cli"].__file__).resolve()
    if src not in where.parents:
        raise ProgramMissing(f"merobounds was imported from {where}, not from {src}")
    return modules


@dataclass
class Window:
    """What one timed stretch of calls produced."""

    gauge: "HostGauge"
    latencies: list = field(default_factory=list)  # seconds per call
    rotations: list = field(default_factory=list)  # gauge rotations done before each call
    good: list = field(default_factory=list)  # correct units per call
    attempted: int = 0
    kinds: Counter = field(default_factory=Counter)
    passes: int = 0

    def scaled_latencies(self):
        """Each call's latency divided by the host's slowdown around it."""
        import numpy as np

        local = self.gauge.local()
        at = np.minimum(self.rotations, local.size - 1)
        return np.asarray(self.latencies) / local[at]

    @property
    def goodput(self) -> float:
        """Correct units per second spent inside the program, unscaled."""
        return sum(self.good) / sum(self.latencies)

    def scaled_goodput(self) -> float:
        return sum(self.good) / float(self.scaled_latencies().sum())

    def scaled_throughput(self) -> float:
        """Attempted units per scaled second inside the program."""
        return self.attempted / float(self.scaled_latencies().sum())


class Ledger:
    """The failures of each pool call on its first run.  Every later run of
    the call must fail the same way, so ``attempted`` and ``failed`` are the
    same on every run of a seed, however many passes fit into it."""

    def __init__(self):
        self.first: dict[int, tuple[int, list[str]]] = {}
        self.changed = 0

    def record(self, index: int, units: int, failures: list[str]) -> None:
        seen = self.first.setdefault(index, (units, sorted(failures)))
        self.changed += seen[1] != sorted(failures)

    @property
    def attempted(self) -> int:
        return sum(units for units, _ in self.first.values())

    @property
    def failed(self) -> int:
        return sum(len(failures) for _, failures in self.first.values())

    @property
    def kinds(self) -> Counter:
        return Counter(kind for _, failures in self.first.values() for kind in failures)


def measure(workload, pool: list, seconds: float, min_calls: int, ledger: Ledger,
            tracer=None) -> Window:
    """Call the program on ``pool`` in a closed loop, in whole passes, until
    about ``seconds`` have passed and at least ``min_calls`` calls were made.
    Only the call itself is timed; preparing inputs and checking outputs
    are not.  Between calls the host gauge times its kernels, for about
    ``GAUGE_SHARE`` of the time spent in calls."""
    from reference import HostGauge

    window = Window(HostGauge())
    gauge = window.gauge
    gauge.rotate()
    busy = 0.0
    start = time.perf_counter()
    while True:
        for index, call in enumerate(pool):
            prepared = workload.prepare(call)
            if tracer is not None:
                tracer.begin_call()
            t0 = time.perf_counter()
            outcome = workload.invoke(prepared)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_call()
            failures = workload.check(call, outcome)
            ledger.record(index, call.units, failures)
            window.latencies.append(elapsed)
            window.rotations.append(gauge.rotations)
            window.good.append(call.units - len(failures))
            window.attempted += call.units
            window.kinds.update(failures)
            busy += elapsed
            if gauge.busy < GAUGE_SHARE * busy:
                gauge.sample()
        window.passes += 1
        # stop when another pass would end further past ``seconds`` than
        # half a pass
        spent = time.perf_counter() - start
        if len(window.latencies) >= min_calls and spent * (1 + 0.5 / window.passes) >= seconds:
            gauge.rotate()  # so that the last calls have a rotation after them
            return window


def make_pool(workload) -> list:
    return [workload.inputs(n) for n in range(workload.POOL)]


def setup_once(root: Path, workload_name: str, seed: int) -> tuple[float, float]:
    """Import the program, generate the seeded pool and make its first call
    once; return the seconds that took, and the host's slowdown measured
    right after it."""
    t0 = time.perf_counter()
    program = load_program(root)
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, program, _out_dir(root))
    try:
        workload.invoke(workload.prepare(make_pool(workload)[0]))
    finally:
        workload.close()
    setup = time.perf_counter() - t0
    from reference import HostGauge

    HostGauge().rotate()  # warm-up
    gauge = HostGauge()
    for _ in range(SETUP_ROTATIONS):
        gauge.rotate()
    return setup, gauge.overall()


def probe_setup(root: Path, workload_name: str, seed: int) -> tuple[list, list]:
    """Measure set-up in ``SETUP_PROBES`` fresh interpreters, one at a time;
    return the raw set-up times and the same divided by each probe's
    slowdown."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=120, check=True)
        setup, slowdown = map(float, done.stdout.split()[-2:])
        raw.append(setup)
        scaled.append(setup / slowdown)
    return raw, scaled


def _out_dir(root: Path) -> Path:
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    return out


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def end_to_end(window: Window, ledger: Ledger, setup: list[float]) -> dict[str, float]:
    """The end-to-end metrics, with timings scaled to nominal host speed
    (``setup`` is scaled already)."""
    deciles = statistics.quantiles(window.scaled_latencies(), n=10)
    return {
        "setup_s": statistics.median(setup),
        "units_per_s": window.scaled_goodput(),
        "call_p50_ms": deciles[4] * 1e3,
        "call_p90_ms": deciles[8] * 1e3,
        # Jeffreys estimate (failed + 1/2) / (attempted + 1): the failure
        # share, kept above 0 so that runs without failures still compare.
        "failed_share": (ledger.failed + 0.5) / (ledger.attempted + 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(summary: dict, units: int, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures per attempted unit of the traced window."""
    from spans import LAYERS

    metrics = {}
    for layer, stats in summary.items():
        metrics[f"{layer}.calls"] = (stats["calls"] / units, "calls/unit")
        metrics[f"{layer}.self_ms"] = (stats["self_ms"] / units, "ms/unit")
        for stat in LAYERS[layer]:
            if stat == "repeat_share":
                metrics[f"{layer}.{stat}"] = (stats[stat], "share")
            else:
                metrics[f"{layer}.{stat}"] = (stats[stat] / units, f"{stat}/unit")
    metrics["trace.overhead_share"] = (overhead, "share")
    return metrics


def run(args, root: Path) -> dict:
    program = load_program(root)
    raw_setup, setup = ([], []) if args.trace else probe_setup(root, args.workload, args.seed)
    from spans import Tracer
    from workloads import WORKLOADS

    from reference import HostGauge

    out = _out_dir(root)
    workload = WORKLOADS[args.workload](args.seed, program, out)
    ledger = Ledger()
    try:
        pool = make_pool(workload)
        workload.invoke(workload.prepare(pool[0]))  # warm-up, not measured
        HostGauge().rotate()
        if not args.trace:
            window = measure(workload, pool, args.seconds, MIN_CALLS, ledger)
            windows = [window]
            metrics = {name: (value, END_TO_END_UNITS[name])
                       for name, value in end_to_end(window, ledger, setup).items()}
        else:
            plain = measure(workload, pool, args.seconds / 2, MIN_TRACED_CALLS, ledger)
            with Tracer(program) as tracer:
                traced = measure(workload, pool, args.seconds / 2, MIN_TRACED_CALLS,
                                 ledger, tracer)
            windows = [plain, traced]
            tracer.write(out / f"spans-{args.workload}.npz")
            overhead = 1.0 - traced.scaled_throughput() / plain.scaled_throughput()
            metrics = per_layer(tracer.summary(), traced.attempted, overhead)
    finally:
        workload.close()

    kinds = ledger.kinds
    window_kinds = sum((w.kinds for w in windows), Counter())
    import numpy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "unit": workload.unit,
        "pool": {"calls": len(pool), "attempted": ledger.attempted, "failed": ledger.failed,
                 "failure_kinds": dict(kinds), "changed_on_repeat": ledger.changed},
        "samples": {"calls": [len(w.latencies) for w in windows],
                    "passes": [w.passes for w in windows],
                    "gauge_rotations": [w.gauge.rotations for w in windows],
                    "setup_s": len(setup)},
        "host_slowdown": [w.gauge.overall() for w in windows],
        "unscaled": {"setup_s": statistics.median(raw_setup) if raw_setup else None,
                     "units_per_s": [w.goodput for w in windows],
                     "call_p50_ms": [statistics.median(w.latencies) * 1e3 for w in windows],
                     "call_p90_ms": [statistics.quantiles(w.latencies, n=10)[8] * 1e3
                                     for w in windows]},
        "known_defects": sorted(workload.KNOWN_DEFECTS),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": blas_threads(),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    print(f"units: {workload.unit}; pool of {len(pool)} calls: attempted {ledger.attempted}, "
          f"failed {ledger.failed} {dict(kinds)}")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    return {
        "correct": (ledger.attempted >= 1 and ledger.changed == 0
                    and set(window_kinds) <= workload.KNOWN_DEFECTS),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    root = Path.cwd()
    try:
        if args.setup_probe:
            print(*setup_once(root, args.workload, args.seed))
            return 0
        result = run(args, root)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
