#!/usr/bin/env python3
"""koopcar benchmark: the `train`, `adapt` and `compare` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 3 --seconds 30 --trace 0

Each workload is one closed loop: a single caller in this process drives
koopcar only through `koopcar.cli.main`, waits for each call to return, then
issues the next. Inputs are made in set-up, also through the CLI, from the
seed alone; the timed region receives only files.

- `--trace 0` prints the end-to-end metrics: `items_per_s` (the workload's
  work items per second, from the median time of its timed operation),
  `setup_s` (median of several set-ups, import time included), both at a
  reference machine speed (see `Calibrator`), and `peak_rss_mb`. The readable
  summary also gives the wall-clock figures.
- `--trace 1` alternates untraced and traced operations and prints the
  per-layer metrics of `tracing.PER_LAYER`, per traced operation.

Every operation's outputs are checked against `reference.json` outside the
timed region; a failed call or check counts in `failed`. The last line of
stdout is the JSON result; the lines above it are a readable summary and the
environment record. `--record` stores the outputs as the reference instead
(see README.md). The process exits 1 without a result when the koopcar
sources are missing or set-up fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import PER_LAYER, Tracer  # noqa: E402

# Inputs depend on the seed only through `seed % N_VARIANTS`, so that the
# reference outputs of every input set can be stored with the benchmark.
N_VARIANTS = 16
SETUP_REPS = 3
MIN_REPS = 3
MIN_TRACED = 2

# Drift ranges of the evaluation suite (koopcar.evaluation.scenario_suite).
DM_RANGE = (-170.0, 160.0)
DIZ_RANGE = (-158.0, 142.0)

SIZES = {
    "full": {"train_duration": 1200, "train_epochs": 2, "ckpt_duration": 300,
             "ckpt_epochs": 3, "drift_duration": 120,
             "compare_scenario": ["--scenario", "suite"]},
    # For the smoke test only: same code paths, a few seconds per run.
    "tiny": {"train_duration": 30, "train_epochs": 1, "ckpt_duration": 30,
             "ckpt_epochs": 1, "drift_duration": 10,
             "compare_scenario": ["--scenario", "mixed",
                                  "--scenario-duration", "10"]},
}

# Output-check tolerances (rtol, atol): |got - ref| <= atol + rtol * |ref|.
# README.md ("Output checks") gives the float64 reason for each: they admit a
# reordered summation of the same arithmetic and reject a wrong gradient or
# solver, as measured on mutated copies of the program.
TOL_TRAIN = (1e-8, 0.0)
TOL_ADAPT = (3e-8, 1e-12)
TOL_COMPARE = (1e-9, 1e-12)
# FFRLS (lambda = 0.95) amplifies a one-ulp change of its input ~1e11-fold
# over 4,800 steps, so its whole-run RMSE is checked for magnitude only; its
# first ADAPT_PREFIX steps, before that growth, are checked at TOL_ADAPT.
TOL_FFRLS_RUN = (1.0, 0.0)
ADAPT_PREFIX = 500
# Printed values carry 4 decimals: allow half a unit in the last place.
PRINT_ATOL = 0.5e-4

UNIT_SCALE = (3.6, 3.6, 180.0 / math.pi)   # km/h, km/h, deg/s
CHANNELS = ("Vx", "Vy", "wr")
ADAPT_MODES = (("SWLS", ["--mode", "SWLS", "--window", "100"]),
               ("RLS", ["--mode", "RLS"]),
               ("FFRLS", ["--mode", "FFRLS", "--forgetting", "0.95"]))

END_TO_END = (("items_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# On a shared host the speed of this process drifts by up to ~30% within
# minutes (measured), far more than a 30 s run can average out. Every CLI
# call's time is therefore also reported rescaled to a reference machine speed:
# wall time x CAL_REF_S / (mean calibration-unit time right before and after).
CAL_REF_S = 5.0e-3
CAL_UNITS = 20


class Calibrator:
    """A fixed mix of interpreter, libm and small-array numpy work, timed."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((17, 17))
        self.np = np
        self.gram = a @ a.T + 17.0 * np.eye(17)
        self.vec = rng.standard_normal(17)
        self.x = rng.standard_normal((64, 32))
        self.w = 0.1 * rng.standard_normal((32, 32))
        self.samples: list[float] = []

    def unit(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(6000):
            acc += math.atan2(acc * 1e-3 + 0.5, 1.0 + i * 1e-5) * math.sin(i * 1e-3)
        v = self.vec
        for _ in range(150):
            v = np.linalg.solve(self.gram, v + 1.0)
        for _ in range(80):
            acc += float(np.tanh(self.x @ self.w).sum())
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median time of CAL_UNITS calibration units, in seconds."""
        self.samples.append(statistics.median(self.unit() for _ in range(CAL_UNITS)))
        return self.samples[-1]


def load_koopcar() -> tuple[dict, float]:
    """Import koopcar from this checkout's sources; return modules and seconds."""
    src = ROOT / "src"
    if not (src / "koopcar" / "__init__.py").is_file():
        sys.exit(f"perfbench: no koopcar sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import koopcar
    from koopcar import (_kernels, adapt, cli, evaluation, koopman, scenarios,
                         vehicle)
    elapsed = time.perf_counter() - t0
    return ({"koopcar": koopcar, "_kernels": _kernels, "adapt": adapt,
             "cli": cli, "evaluation": evaluation, "koopman": koopman,
             "scenarios": scenarios, "vehicle": vehicle}, elapsed)


def within(got: float, ref: float, rtol: float, atol: float) -> bool:
    return abs(got - ref) <= atol + rtol * abs(ref)


class Session:
    """Runs CLI calls in-process and tallies attempted and failed operations."""

    def __init__(self, kc: dict, reference: dict, record: bool):
        self.kc = kc
        self.reference = reference
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cal = Calibrator()
        self._cal_before = None

    def cli(self, argv: list[str]) -> tuple[bool, str, tuple[float, float]]:
        """One operation: (exit code was 0, captured output, times).

        `times` is (wall seconds, seconds at reference speed), the latter
        scaled by the calibration samples taken right before and after.
        """
        before = self._cal_before or self.cal.sample()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            rc = self.kc["cli"].main([str(a) for a in argv])
            wall = time.perf_counter() - t0
        self._cal_before = self.cal.sample()
        scaled = wall * CAL_REF_S / (0.5 * (before + self._cal_before))
        out = buf.getvalue()
        self.attempted += 1
        if rc != 0:
            self.fail(f"koopcar {argv[0]} exited {rc}: {out.strip()[-300:]}")
        return rc == 0, out, (wall, scaled)

    def fail(self, problem: str) -> None:
        """Mark the operation just attempted as failed."""
        self.failed += 1
        self.problems.append(problem)

    def check(self, key: str, values, tol: tuple[float, float]) -> bool:
        """Compare a nested list/dict of floats with the stored reference."""
        if self.record:
            self.reference[key] = values
            return True
        if key not in self.reference:
            self.fail(f"{key}: no reference values")
            return False
        bad = _mismatches(values, self.reference[key], *tol)
        if bad:
            self.fail(f"{key}: {bad[0]} ({len(bad)} values off)")
        return not bad


def _mismatches(got, ref, rtol, atol, path="") -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        return [m for k in ref for m in _mismatches(got[k], ref[k], rtol, atol, f"{path}/{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: lengths differ"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                for m in _mismatches(g, r, rtol, atol, f"{path}[{i}]")]
    if not within(got, ref, rtol, atol):
        return [f"{path}: got {got!r}, reference {ref!r}"]
    return []


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up, one timed operation, and the check of its outputs."""

    name = ""
    item_label = ""

    def __init__(self, session: Session, size: str, variant: int):
        self.s = session
        self.cfg = SIZES[size]
        self.seed = variant
        self.key = f"{size}/{self.name}/{variant}"

    def setup(self, d: Path) -> list:
        """Make the inputs in `d`; return the `Session.cli` result of each call."""
        raise NotImplementedError

    def items(self, d: Path) -> int:
        raise NotImplementedError

    def op(self, d: Path, first: bool) -> dict[str, tuple[float, float]]:
        """Run the timed operation once; return its times per part."""
        raise NotImplementedError

    def summary(self, d: Path, parts: dict[str, list[tuple]]) -> list[tuple]:
        """Extra wall-clock figures for the readable summary."""
        return []


def _simulate(s: Session, out: Path, duration, *extra):
    return s.cli(["simulate", "--scenario", "mixed", "--duration", duration,
                  *extra, "--out", out])


def _train_checkpoint(s: Session, d: Path, seed: int, epochs: int,
                      accel: str, out: str):
    return s.cli(["train", "--data", d / "ckpt.csv", "--seed", seed,
                  "--epochs", epochs, "--accel-loss", accel,
                  "--out", d / out, "--log", d / (out + ".log.csv")])


class TrainWorkload(Workload):
    """`koopcar train` on a mixed trajectory at the desk defaults, ALDK loss on."""

    name = "train"
    item_label = "train_pairs_per_s"

    def setup(self, d):
        return [_simulate(self.s, d / "train.csv", self.cfg["train_duration"])]

    def items(self, d):
        with open(d / "train.csv", "r", encoding="utf-8") as fh:
            pairs = sum(1 for line in fh if line.strip()) - 2
        n_train = min(max(int(round(pairs * 0.7)), 1), pairs - 1)
        return self.cfg["train_epochs"] * n_train

    def op(self, d, first):
        ok, _, wall = self.s.cli([
            "train", "--data", d / "train.csv", "--seed", self.seed,
            "--epochs", self.cfg["train_epochs"], "--hidden", "32,32",
            "--feature-dim", 12, "--batch-size", 256, "--accel-loss", "on",
            "--out", d / "model.json", "--log", d / "model.log.csv"])
        if ok:
            _, rows = _read_csv(d / "model.log.csv")
            history = [[float(v) for v in row[1:]] for row in rows]
            self.s.check(self.key, history, TOL_TRAIN)
        return {"train": wall}


def _rmse(rows) -> list[float]:
    """Per-channel RMSE, in report units, of `pred_*,true_*` prediction rows."""
    sums = [0.0, 0.0, 0.0]
    for row in rows:
        for c in range(3):
            err = (float(row[c]) - float(row[c + 3])) * UNIT_SCALE[c]
            sums[c] += err * err
    return [math.sqrt(v / len(rows)) for v in sums]


class AdaptWorkload(Workload):
    """Three `koopcar adapt` runs (SWLS with history, RLS, FFRLS) on a drift trajectory."""

    name = "adapt"
    item_label = "adapt_steps_per_s"

    def drift(self) -> tuple[float, float]:
        rng = random.Random(self.seed)
        return (round(rng.uniform(*DM_RANGE), 1), round(rng.uniform(*DIZ_RANGE), 1))

    def setup(self, d):
        dm, diz = self.drift()
        return [_simulate(self.s, d / "ckpt.csv", self.cfg["ckpt_duration"]),
                _train_checkpoint(self.s, d, self.seed, self.cfg["ckpt_epochs"],
                                  "on", "aldk.json"),
                _simulate(self.s, d / "drift.csv", self.cfg["drift_duration"],
                          "--dm", dm, "--dIz", diz)]

    def steps(self, d) -> int:
        with open(d / "drift.csv", "r", encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip()) - 2

    def items(self, d):
        return len(ADAPT_MODES) * self.steps(d)

    def op(self, d, first):
        walls = {}
        for mode, flags in ADAPT_MODES:
            argv = ["adapt", "--checkpoint", d / "aldk.json",
                    "--data", d / "drift.csv", *flags]
            if mode == "SWLS":
                argv += ["--history", d / "history.csv"]
            if first:   # full-precision predictions for the reference check
                argv += ["--out", d / f"pred_{mode}.csv"]
            ok, out, walls[mode] = self.s.cli(argv)
            if not ok:
                continue
            key = f"{self.key}/{mode}"
            run_tol = TOL_FFRLS_RUN if mode == "FFRLS" else TOL_ADAPT
            if first:
                _, rows = _read_csv(d / f"pred_{mode}.csv")
                self.s.check(key + "/rmse", _rmse(rows), run_tol)
                self.s.check(f"{key}/rmse_first_{ADAPT_PREFIX}",
                             _rmse(rows[:ADAPT_PREFIX]), TOL_ADAPT)
            elif not self.s.record:
                printed = [float(line.split("rmse")[1].split()[0])
                           for line in out.splitlines()
                           if line.lstrip().startswith(tuple(c + ": max" for c in CHANNELS))]
                self.s.check(key + "/rmse", printed, (run_tol[0], run_tol[1] + PRINT_ATOL))
        return walls

    def summary(self, d, parts):
        steps = self.steps(d)
        return [(f"adapt_{mode.lower()}_steps_per_s",
                 steps / statistics.median(w for w, _ in parts[mode]), "1/s")
                for mode, _ in ADAPT_MODES]


class CompareWorkload(Workload):
    """`koopcar compare` of PHYS-BASELINE, DK and ALDK over the scenario suite."""

    name = "compare"
    item_label = "compare_snapshots_per_s"

    def setup(self, d):
        return [_simulate(self.s, d / "ckpt.csv", self.cfg["ckpt_duration"]),
                _train_checkpoint(self.s, d, self.seed, self.cfg["ckpt_epochs"],
                                  "on", "aldk.json"),
                _train_checkpoint(self.s, d, self.seed, self.cfg["ckpt_epochs"],
                                  "off", "dk.json")]

    def _scenarios(self):
        ev, sc = self.s.kc["evaluation"], self.s.kc["scenarios"]
        flags = self.cfg["compare_scenario"]
        if flags[1] == "suite":
            return ev.scenario_suite()
        return [sc.make_scenario(flags[1], duration=float(flags[3]))]

    def items(self, d):
        return sum(s.n_samples() for s in self._scenarios())

    def op(self, d, first):
        reports = d / "reports"
        reports.mkdir(exist_ok=True)
        ok, _, wall = self.s.cli([
            "compare", "--checkpoint-dk", d / "dk.json",
            "--checkpoint-aldk", d / "aldk.json",
            "--methods", "PHYS-BASELINE,DK,ALDK", *self.cfg["compare_scenario"],
            "--seed", self.seed, "--out", reports / "run"])
        if ok:
            table = {}
            for scenario in self._scenarios():
                _, rows = _read_csv(reports / f"run_{scenario.name}.metrics.csv")
                table[scenario.name] = {f"{m}/{c}": [float(mx), float(rm)]
                                        for m, c, mx, rm in rows}
            self.s.check(self.key, table, TOL_COMPARE)
        return {"compare": wall}

    def summary(self, d, parts):
        return [("compare_s", statistics.median(w for w, _ in parts["compare"]), "s")]


WORKLOADS = {w.name: w for w in (TrainWorkload, AdaptWorkload, CompareWorkload)}


# ---------------------------------------------------------------------------
# environment record


def _blas_threads() -> int | str:
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    import ctypes
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(kc: dict, size: str, variant: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"backend": kc["koopcar"].backend_name(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas_name, "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "size": size,
            "variant": variant,
            "op_counts": "computed from shapes and file sizes, not measured"}


# ---------------------------------------------------------------------------
# measurement


def _median_op(ops: list[dict[str, tuple[float, float]]], scaled: bool) -> float:
    """Median over operations of their (wall or reference-speed) seconds."""
    return statistics.median(sum(t[scaled] for t in op.values()) for op in ops)


def _file_digests(d: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.is_file()}


def set_up(wl: Workload, d: Path, import_s: float):
    """Set up SETUP_REPS times into the same directory; inputs must not change.

    Returns the (wall, reference-speed) seconds of every set-up; the one-off
    import time is added to each and scaled like the set-up's CLI calls.
    """
    times, digests = [], None
    for _ in range(SETUP_REPS):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        calls = wl.setup(d)
        if not all(ok for ok, _, _ in calls):
            sys.exit("perfbench: set-up failed: " + "; ".join(wl.s.problems))
        wall = sum(t[0] for _, _, t in calls)
        scaled = sum(t[1] for _, _, t in calls)
        times.append((import_s + wall, (import_s + wall) * scaled / wall))
        now = _file_digests(d)
        if digests is not None and now != digests:
            wl.s.fail("set-up inputs differ between set-ups of one seed")
        digests = now
    return times


def measure(wl: Workload, d: Path, seconds: float, trace: bool):
    """Timed loop: alternate untraced and (with `trace`) traced operations.

    Returns (untraced, traced, tracer or None); an operation's entry maps each
    part to its (wall, reference-speed) seconds.
    """
    untraced, traced = [], []
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()   # start every operation from the same heap state
        untraced.append(wl.op(d, first=False))
        if tracer is not None:
            tracer.run_id = len(traced)
            gc.collect()
            with tracer.installed(wl.s.kc):
                traced.append(wl.op(d, first=False))
        enough = len(traced) >= MIN_TRACED if trace else len(untraced) >= MIN_REPS
        if enough and time.perf_counter() >= deadline:
            return untraced, traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json")
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the reference")
    args = parser.parse_args(argv)

    kc, import_s = load_koopcar()
    reference = (json.loads(args.reference.read_text(encoding="utf-8"))
                 if args.reference.exists() else {})
    variant = args.seed % N_VARIANTS
    session = Session(kc, reference, args.record)
    wl = WORKLOADS[args.workload](session, args.size, variant)
    work = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        d = work / "inputs"
        setup_times = set_up(wl, d, import_s)
        wl.op(d, first=True)          # warm-up, checked at full precision
        untraced, traced, tracer = measure(wl, d, args.seconds, bool(args.trace))
        env = environment(kc, args.size, variant)
        env["calibration_unit_ms"] = 1e3 * statistics.median(session.cal.samples)
        if args.record:
            args.reference.write_text(json.dumps(reference, indent=1, sort_keys=True)
                                      + "\n", encoding="utf-8")
        if tracer is not None:
            overhead = _median_op(traced, False) - _median_op(untraced, False)
            layer = tracer.layer_metrics(len(traced), overhead)
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in PER_LAYER}
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json", env)
        else:
            items = wl.items(d)
            values = {"items_per_s": items / _median_op(untraced, True),
                      "setup_s": statistics.median(t[1] for t in setup_times),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            print(f"workload={args.workload} seed={args.seed} variant={variant} "
                  f"operations_timed={len(untraced)} items_per_op={items}")
            print(f"  at reference speed (calibration unit {CAL_REF_S * 1e3:g} ms; "
                  f"this run {env['calibration_unit_ms']:.3f} ms):")
            for name, unit in END_TO_END[:2]:
                print(f"  {name:<28s} {values[name]:.6g} {unit}")
            print("  wall clock:")
            parts = {k: [op[k] for op in untraced] for k in untraced[0]}
            named = [(wl.item_label, items / _median_op(untraced, False), "1/s"),
                     *wl.summary(d, parts),
                     ("setup_s", statistics.median(t[0] for t in setup_times), "s"),
                     ("peak_rss_mb", values["peak_rss_mb"], "MB"),
                     ("error_rate", session.failed / max(session.attempted, 1),
                      "failed/attempted")]
            for name, value, unit in named:
                print(f"  {name:<28s} {value:.6g} {unit}")
        for problem in session.problems:
            print(f"  check failed: {problem}")
        print(json.dumps({"env": env}))
        print(json.dumps({"correct": session.failed == 0,
                          "attempted": session.attempted,
                          "failed": session.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
