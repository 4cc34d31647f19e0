"""Comparison harness: six modeling approaches on shared trajectories.

Each method produces one-step-ahead predictions over the same simulated
trajectory; reports collect per-channel max |error| and RMSE in km/h for
velocities and deg/s for yaw rate. Report files are deterministic given
the config.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .adapt import AdapterConfig, adapt_run
# unused here, but perfbench's tracer patches `one_step_predictions` by name
from .koopman import KoopmanModel, one_step_predictions
from .scenarios import Scenario, make_scenario, run_scenario
from .vehicle import (VALIDITY_FLOOR, ModelValidityError, Trajectory,
                      VehicleParams)

MS_TO_KMH = 3.6
RAD_TO_DEG = 180.0 / np.pi
CHANNEL_NAMES = ("Vx", "Vy", "wr")
CHANNEL_UNITS = ("km/h", "km/h", "deg/s")
_UNIT_SCALE = np.array([MS_TO_KMH, MS_TO_KMH, RAD_TO_DEG])

REPORT_TABLE_HEADER = "method,channel,max,rmse"
SUITE_DURATION = 120.0   # s, each nominal and perturbed `mixed` run of the suite


@dataclass(frozen=True)
class ChannelMetrics:
    """Per-channel max |error| and RMSE; velocities in km/h, yaw rate in deg/s."""
    max_abs: tuple[float, float, float]
    rmse: tuple[float, float, float]

    def __post_init__(self):
        for mx, rm in zip(self.max_abs, self.rmse):
            if rm > mx + 1e-12:
                raise ValueError("RMSE cannot exceed the max error")


def metrics(predicted: np.ndarray, truth: np.ndarray) -> ChannelMetrics:
    """Error statistics between aligned (K, 3) predicted and true state series."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape:
        raise ValueError("predicted/truth length mismatch")
    if predicted.shape[0] < 1:
        raise ValueError("need at least one sample")
    bad = np.flatnonzero(~np.isfinite(predicted).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite prediction at row {bad[0]}")
    err = (predicted - truth) * _UNIT_SCALE
    return ChannelMetrics(
        max_abs=tuple(np.abs(err).max(axis=0)),
        rmse=tuple(np.sqrt(np.mean(err * err, axis=0))))


def error_series(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-step signed errors in report units (km/h, km/h, deg/s)."""
    return (np.asarray(predicted) - np.asarray(truth)) * _UNIT_SCALE


# ---------------------------------------------------------------------------
# methods

@dataclass(frozen=True)
class MethodSpec:
    """One comparison entry: the physics baseline without a model, else the
    model run through `adapt_run` with `adapter`, by default frozen."""
    name: str
    model: KoopmanModel | None = None
    adapter: AdapterConfig = AdapterConfig(mode="frozen")

    def __post_init__(self):
        if self.model is None and self.adapter.mode != "frozen":
            raise ValueError(f"{self.name}: an adapter needs a model")


def baseline_params() -> VehicleParams:
    """Assumed params for the physics baseline: the default plant with its
    resistances unmodeled."""
    return replace(VehicleParams(), drag=0.0, roll=0.0)


def physics_baseline(params_assumed: VehicleParams,
                     trajectory: Trajectory) -> np.ndarray:
    """One-step-ahead predictions from the physical model under assumed params.

    Raises ModelValidityError at the first source row whose Vx is at or below
    the validity floor (or not a number), where the model does not apply.
    """
    states = trajectory.states[:-1]
    inputs = trajectory.inputs[:-1]
    invalid = np.flatnonzero(~(states[:, 0] > VALIDITY_FLOOR))
    if invalid.size:
        k = int(invalid[0])
        raise ModelValidityError(
            f"physics baseline: Vx={states[k, 0]:.4g} m/s at row {k} "
            f"(t={trajectory.t[k]:.3f} s) is at or below the "
            f"{VALIDITY_FLOOR} m/s validity floor")
    return _kernels.one_step_batch(states, inputs[:, 0], inputs[:, 1],
                                   trajectory.dt, 1, params_assumed)


def run_method(spec: MethodSpec, trajectory: Trajectory) -> np.ndarray:
    """One-step-ahead predictions for steps 1..K-1 of the trajectory: the
    physics baseline under `baseline_params()` without a model, else
    `adapt_run`.

    A data-driven method raises ValueError when the trajectory's sample time
    is not the model's dt.
    """
    if spec.model is None:
        return physics_baseline(baseline_params(), trajectory)
    return adapt_run(spec.model, trajectory, spec.adapter).predictions


# ---------------------------------------------------------------------------
# comparison reports

@dataclass
class MethodResult:
    name: str
    metrics: ChannelMetrics
    errors: np.ndarray   # (K-1, 3) `error_series` of the predictions


@dataclass
class ComparisonReport:
    scenario_name: str
    trajectory_sha: str
    results: list[MethodResult] = field(default_factory=list)


def _trajectory_sha(tr: Trajectory) -> str:
    h = hashlib.sha256()
    for arr in (tr.t, tr.states, tr.inputs, tr.accels):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def run_comparison(methods: list[MethodSpec], scenario: Scenario) -> ComparisonReport:
    """Evaluate every method on one shared trajectory, the scenario simulated
    once.

    Raises ValueError, naming the method and the scenario, when a method's
    predictions are not finite.
    """
    names = [m.name for m in methods]
    if len(set(names)) != len(names):
        raise ValueError("method names must be unique in a comparison")
    trajectory = run_scenario(scenario)
    truth = trajectory.states[1:]
    report = ComparisonReport(scenario_name=scenario.name,
                              trajectory_sha=_trajectory_sha(trajectory))
    for spec in methods:
        preds = run_method(spec, trajectory)
        try:
            scores = metrics(preds, truth)
        except ValueError as exc:
            raise ValueError(f"{spec.name} on {scenario.name}: {exc}") from None
        report.results.append(MethodResult(
            name=spec.name, metrics=scores, errors=error_series(preds, truth)))
    return report


def scenario_suite(base_duration: float = SUITE_DURATION) -> list[Scenario]:
    """Canonical evaluation scenarios: nominal, mass/inertia perturbed,
    low-friction slalom, and an aggressive-cornering stand-in for extreme
    road geometry (the plant is planar, so geometry is emulated by inputs).
    """
    return [
        make_scenario("mixed", duration=base_duration),
        make_scenario("mixed", duration=base_duration, dm=160.0),
        make_scenario("mixed", duration=base_duration, dm=-170.0),
        make_scenario("mixed", duration=base_duration, dIz=142.0),
        make_scenario("mixed", duration=base_duration, dIz=-158.0),
        make_scenario("slalom"),
        make_scenario("aggressive"),
    ]


# ---------------------------------------------------------------------------
# report output

def format_report_table(report: ComparisonReport) -> str:
    """Aligned human-readable table, one row per method, Max/RMSE per channel.
    The first column is as wide as the longest method name, at least 16."""
    rows = [("Estimation Error",
             [f"{name} ({unit})" for name, unit in zip(CHANNEL_NAMES, CHANNEL_UNITS)]),
            ("", ["Max/RMSE"] * 3)]
    rows += [(res.name, [f"{mx:.3f}/{rm:.3f}"
                         for mx, rm in zip(res.metrics.max_abs, res.metrics.rmse)])
             for res in report.results]
    width = max(len(label) for label, _ in rows)
    lines = [f"Scenario: {report.scenario_name}  "
             f"[traj {report.trajectory_sha if report.results else '-'}]"]
    lines += [f"{label:<{width}s}" + "".join(f"  {cell:>18s}" for cell in cells)
              for label, cells in rows]
    return "\n".join(lines) + "\n"


def write_report_files(report: ComparisonReport, table_path, machine_path,
                       series_path) -> None:
    """Write the aligned table, the machine-readable rows, and the error series
    as one `.npy` array: a (3,) float64 field per method, row i for step i+1."""
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(format_report_table(report))
    with open(machine_path, "w", encoding="utf-8") as fh:
        fh.write(REPORT_TABLE_HEADER + "\n")
        for res in report.results:
            for ci, name in enumerate(CHANNEL_NAMES):
                fh.write("%s,%s,%.17g,%.17g\n"
                         % (res.name, name, res.metrics.max_abs[ci],
                            res.metrics.rmse[ci]))
    series = np.zeros(len(report.results[0].errors) if report.results else 0,
                      [(res.name, np.float64, (3,)) for res in report.results])
    for res in report.results:
        series[res.name] = res.errors
    with open(series_path, "wb") as fh:   # np.save given a path appends ".npy"
        np.save(fh, series, allow_pickle=False)
