"""Benchmark-side tracing of koopcar at its module boundaries.

`Tracer.installed()` replaces module attributes where koopcar's own callers
look them up (for example `koopcar.koopman.adam_step`, which `train` calls by
that name) with wrappers that record a span per call, then restores every
original on exit. Nothing inside the program changes.

A span is `[name, start, end, parent, run_id]`, with `parent` the index of the
enclosing span or -1. Spans stay in memory and are written once by `dump`.
A span's self time is its duration minus the durations of its direct
children; calls are strictly nested in this single-threaded program, so the
children never overlap.

Operation counts (dense FLOPs, RK4 right-hand-side evaluations, CSV bytes)
are computed from argument shapes and file sizes, not measured.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from collections import defaultdict

# (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("mlp.dense_forward.calls", "count"),
    ("mlp.dense_forward.self_s", "s"),
    ("mlp.dense_forward.flops", "flop"),
    ("mlp.dense_backward.calls", "count"),
    ("mlp.dense_backward.self_s", "s"),
    ("mlp.dense_backward.flops", "flop"),
    ("koopman.loss_grad.calls", "count"),
    ("koopman.loss_grad.self_s", "s"),
    ("koopman.holdout_eval.calls", "count"),
    ("koopman.holdout_eval.self_s", "s"),
    ("koopman.train.self_s", "s"),
    ("mlp.adam_step.calls", "count"),
    ("mlp.adam_step.self_s", "s"),
    ("vehicle.from_csv.self_s", "s"),
    ("vehicle.from_csv.bytes", "B"),
    ("adapt.update.swls.self_s", "s"),
    ("adapt.update.swls.p50_us", "us"),
    ("adapt.update.swls.p99_us", "us"),
    ("adapt.update.rls.self_s", "s"),
    ("adapt.update.rls.p50_us", "us"),
    ("adapt.update.rls.p99_us", "us"),
    ("adapt.update.ffrls.self_s", "s"),
    ("adapt.update.ffrls.p50_us", "us"),
    ("adapt.update.ffrls.p99_us", "us"),
    ("adapt.window_gram.calls", "count"),
    ("adapt.window_gram.self_s", "s"),
    ("adapt.adapt_run.self_s", "s"),
    ("adapt.write_estimate_history.self_s", "s"),
    ("vehicle.simulate_path.self_s", "s"),
    ("vehicle.simulate_path.steps", "count"),
    ("vehicle.simulate_path.us_per_step", "us"),
    ("vehicle.one_step_batch.self_s", "s"),
    ("vehicle.one_step_batch.rows", "count"),
    ("vehicle.one_step_batch.us_per_row", "us"),
    ("vehicle.rk4_rhs_evals", "count"),
    ("scenarios.run_scenario.self_s", "s"),
    ("evaluation.write_report_files.self_s", "s"),
    ("evaluation.write_report_files.bytes", "B"),
    ("evaluation.metrics.self_s", "s"),
    ("evaluation.run_comparison.self_s", "s"),
    ("koopman.one_step_predictions.self_s", "s"),
    ("koopman.checkpoint_io.self_s", "s"),
    ("io.csv_bytes_written", "B"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p and os.path.exists(p))


def _dense_flops(args, per_mac):
    """Multiply-adds of a dense pass: rows x sum(out*in) over the layers."""
    shapes, rows = args[1], args[5].shape[0]
    return per_mac * rows * int((shapes[:, 0] * shapes[:, 1]).sum())


class Tracer:
    """Records spans and computed counts while installed; see module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []

    # --- recording ---------------------------------------------------------
    def _wrap(self, name, fn, after=None):
        """`name` is a string, or a callable of the call's args giving one."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1,
                          self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, key, value):
        self.counts[key] += value

    # counters evaluated after a traced call returns
    def _after_forward(self, args, kwargs, result):
        self._count("mlp.dense_forward.flops", _dense_flops(args, 2))

    def _after_backward(self, args, kwargs, result):
        self._count("mlp.dense_backward.flops", _dense_flops(args, 4))

    def _after_from_csv(self, args, kwargs, result):
        self._count("vehicle.from_csv.bytes", _file_bytes(args[-1]))

    def _after_simulate(self, args, kwargs, result):
        steps, substeps = args[1].shape[0], args[4]
        fail = result[2]
        done = steps if fail < 0 else fail
        self._count("vehicle.simulate_path.steps", done)
        self._count("vehicle.rk4_rhs_evals", 4 * substeps * max(done - 1, 0))

    def _after_one_step(self, args, kwargs, result):
        rows = args[0].shape[0]
        self._count("vehicle.one_step_batch.rows", rows)
        valid = int((args[0][:, 0] > 0.1).sum())
        self._count("vehicle.rk4_rhs_evals", 4 * args[4] * valid)

    def _after_reports(self, args, kwargs, result):
        written = _file_bytes(*args[1:4])
        self._count("evaluation.write_report_files.bytes", written)
        self._count("io.csv_bytes_written", written)

    def _after_csv_write(self, args, kwargs, result):
        self._count("io.csv_bytes_written", _file_bytes(args[0]))

    @staticmethod
    def _loss_name(args, kwargs):
        want_grad = kwargs["want_grad"] if "want_grad" in kwargs else args[9]
        return "koopman.loss_grad" if want_grad else "koopman.holdout_eval"

    @staticmethod
    def _update_name(args, kwargs):
        return "adapt.update." + args[0].config.mode.lower()

    # --- installation ------------------------------------------------------
    @contextlib.contextmanager
    def installed(self, koopcar_modules):
        """Patch the boundaries listed below; restore the originals on exit."""
        kc = koopcar_modules
        Trajectory = kc["vehicle"].Trajectory
        AdapterState = kc["adapt"].AdapterState
        saved = []

        def patch(owner, attr, name, after=None):
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, original.__func__, after)))
            else:
                setattr(owner, attr, self._wrap(name, original, after))

        patch(kc["cli"], "main", "cli.main")
        patch(kc["koopman"], "train", "koopman.train")
        patch(kc["koopman"], "_loss_and_grad", self._loss_name)
        patch(kc["koopman"], "adam_step", "mlp.adam_step")
        patch(kc["koopman"], "save_checkpoint", "koopman.checkpoint_io")
        patch(kc["koopman"], "load_checkpoint", "koopman.checkpoint_io")
        patch(kc["koopman"], "write_training_log", "koopman.checkpoint_io",
              self._after_csv_write)
        patch(kc["_kernels"], "dense_forward", "mlp.dense_forward", self._after_forward)
        patch(kc["_kernels"], "dense_backward", "mlp.dense_backward", self._after_backward)
        patch(kc["_kernels"], "simulate_path", "vehicle.simulate_path", self._after_simulate)
        patch(kc["_kernels"], "one_step_batch", "vehicle.one_step_batch", self._after_one_step)
        patch(Trajectory, "from_csv", "vehicle.from_csv", self._after_from_csv)
        patch(kc["adapt"], "update", self._update_name)
        patch(AdapterState, "window_gram", "adapt.window_gram")
        patch(kc["adapt"], "adapt_run", "adapt.adapt_run")
        patch(kc["adapt"], "write_estimate_history", "adapt.write_estimate_history",
              self._after_csv_write)
        patch(kc["adapt"], "one_step_predictions", "koopman.one_step_predictions")
        patch(kc["scenarios"], "run_scenario", "scenarios.run_scenario")
        patch(kc["evaluation"], "run_scenario", "scenarios.run_scenario")
        patch(kc["evaluation"], "run_comparison", "evaluation.run_comparison")
        patch(kc["evaluation"], "metrics", "evaluation.metrics")
        patch(kc["evaluation"], "one_step_predictions", "koopman.one_step_predictions")
        patch(kc["evaluation"], "write_report_files", "evaluation.write_report_files",
              self._after_reports)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- reduction ---------------------------------------------------------
    def layer_metrics(self, n_ops: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics per traced operation (totals divided by `n_ops`)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            if name.startswith("adapt.update."):
                durations[name].append((end - start) * 1e6)

        values: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = calls.get(base, 0) / n_ops
            elif field == "self_s":
                values[metric] = self_s.get(base, 0.0) / n_ops
            elif field in ("p50_us", "p99_us"):
                samples = durations.get(base, [])
                if len(samples) >= 2:
                    cuts = statistics.quantiles(samples, n=100, method="inclusive")
                    values[metric] = cuts[49] if field == "p50_us" else cuts[98]
                else:
                    values[metric] = 0.0
            else:
                values[metric] = self.counts.get(metric, 0.0) / n_ops
        for base, per in (("vehicle.simulate_path", "steps"),
                          ("vehicle.one_step_batch", "rows")):
            n = values[f"{base}.{per}"]
            values[f"{base}.us_per_{per[:-1]}"] = (
                values[f"{base}.self_s"] / n * 1e6 if n else 0.0)
        values["trace.overhead_s"] = overhead_s
        return values

    def dump(self, path, env: dict) -> None:
        """Write every span once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env,
                       "fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fh)
