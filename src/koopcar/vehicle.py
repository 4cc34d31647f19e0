"""Planar four-wheel vehicle simulator.

State is x = [Vx, Vy, wr] (longitudinal velocity, lateral velocity, yaw rate),
input is u = [T, delta_f] (total driving torque, front steering angle). The
model uses magic-formula lateral tires on static normal loads, an even torque
split across four wheels, and lumped rolling/aero resistance. Body-frame
sensor accelerations accompany every emitted snapshot: ax = dVx - Vy*wr and
ay = dVy + Vx*wr, so [ax + Vy*wr, ay - Vx*wr] recovers the velocity
derivatives exactly.

The tire model, the planar dynamics and RK4 are `_kernels.rk4_stepper`,
which reads a `VehicleParams` by its field names; this module holds the
parameter sets, the trajectory container and its CSV format, and
`run_schedule`, which checks an input schedule and runs it through
`_kernels.simulate_path`.

All operations are pure; trajectories are deterministic functions of the
scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from ._kernels import GRAVITY, VALIDITY_FLOOR

MAX_STEER = math.pi / 4

TRAJECTORY_HEADER = "t,Vx,Vy,wr,T,delta_f,ax,ay"
_TRAJECTORY_ROW = ",".join(["%.17g"] * 8) + "\n"

ROW_BLOCK = 1024  # rows formatted per block by `write_rows`


@dataclass(frozen=True)
class MagicFormulaParams:
    """Shape factors of the lateral-force curve."""
    b_stiff: float = 10.0
    c_shape: float = 1.9
    d_peak_scale: float = 1.0
    e_curv: float = 0.97

    def __post_init__(self):
        for name in ("b_stiff", "c_shape"):
            if not 0 < getattr(self, name) < math.inf:   # NaN fails too
                raise ValueError(f"tire {name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not (0 < self.d_peak_scale <= 1.2):
            raise ValueError("d_peak_scale must be in (0, 1.2]")
        if not -math.inf < self.e_curv < 1:
            raise ValueError("tire e_curv must be finite and < 1, "
                             f"got {self.e_curv}")


@dataclass(frozen=True)
class VehicleParams:
    """Plant parameters; defaults follow a ~2 t four-wheel-driven passenger car."""
    m: float = 2070.0          # mass [kg]
    Iz: float = 3658.0         # yaw inertia [kg m^2]
    lf: float = 1.315          # c.g. to front axle [m]
    lr: float = 1.355          # c.g. to rear axle [m]
    wB: float = 1.715          # track width [m]
    rw: float = 0.325          # wheel radius [m]
    mu: float = 0.85           # road adhesion coefficient
    tire: MagicFormulaParams = field(default_factory=MagicFormulaParams)
    drag: float = 0.38         # CdA*rho/2 lump [N s^2/m^2]
    roll: float = 0.015        # rolling resistance coefficient
    max_torque: float = 4000.0

    def __post_init__(self):
        for name in ("m", "Iz", "lf", "lr", "wB", "rw"):
            if not 0 < getattr(self, name) < math.inf:   # NaN fails too
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not (0 < self.mu <= 1.2):
            raise ValueError("mu must be in (0, 1.2]")
        for name in ("drag", "roll"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, "
                                 f"got {getattr(self, name)}")
        if not 0 < self.max_torque < math.inf:
            raise ValueError("max_torque must be positive and finite, "
                             f"got {self.max_torque}")

    def perturbed(self, dm: float = 0.0, dIz: float = 0.0) -> "VehicleParams":
        """Copy with mass/inertia deltas (robustness-test knobs)."""
        return replace(self, m=self.m + dm, Iz=self.Iz + dIz)


@dataclass(frozen=True)
class VehicleState:
    Vx: float
    Vy: float = 0.0
    wr: float = 0.0


class ModelValidityError(ValueError):
    """Raised when the state leaves the model's validity region (Vx at the floor)."""


def _check_state(vx, vy, wr):
    if not (math.isfinite(vx) and math.isfinite(vy) and math.isfinite(wr)):
        raise ValueError("non-finite vehicle state")
    if vx <= VALIDITY_FLOOR:
        raise ModelValidityError(
            f"Vx={vx:.4g} m/s at or below the {VALIDITY_FLOOR} m/s validity floor")


def equilibrium_torque(vx: float, params: VehicleParams) -> float:
    """Driving torque that balances rolling + aero resistance at speed vx."""
    return params.rw * (params.roll * params.m * GRAVITY + params.drag * vx * vx)


@dataclass
class Trajectory:
    """Columnar snapshot sequence: t, states (K,3), inputs (K,2), accels (K,2)."""
    t: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    accels: np.ndarray

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def dt(self) -> float:
        """The sample interval (0.0 for one snapshot); raises ValueError
        unless every interval is within 1e-9 s of the first."""
        if len(self) < 2:
            return 0.0
        steps = np.diff(self.t)
        off = np.flatnonzero(~(np.abs(steps - steps[0]) <= 1e-9))   # NaN is off
        if off.size:
            k = off[0]
            raise ValueError(f"snapshots are not uniformly spaced: {steps[k]:g} s "
                             f"after t={self.t[k]:g} s, against dt={steps[0]:g} s")
        return float(steps[0])

    def to_csv(self, path) -> None:
        """Write the columnar text format (17 significant digits, exact round-trip)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(TRAJECTORY_HEADER + "\n")
            write_rows(fh, _TRAJECTORY_ROW,
                       (self.t, self.states, self.inputs, self.accels))

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        """Read the format written by `to_csv`; blank lines are skipped and a
        malformed row is named by its file line number (`row N`).

        The body streams from the open file into the parser; its lines are
        read again one by one only when that parse fails."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != TRAJECTORY_HEADER:
                raise ValueError(f"unexpected trajectory header: {header!r}")
            body = fh.tell()
            if all(line.isspace() for line in iter(fh.readline, "")):
                raise ValueError("empty trajectory file")
            fh.seek(body)
            try:
                arr = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:   # a malformed or whitespace-only line
                arr = None
            if arr is None or arr.shape[1] != 8:
                fh.seek(body)
                arr = _scan_rows(fh)
        return cls(t=arr[:, 0], states=arr[:, 1:4], inputs=arr[:, 4:6],
                   accels=arr[:, 6:8])


def write_rows(fh, fmt: str, columns, first_index: int | None = None) -> None:
    """Write `fmt % row` for each row of the side-by-side `columns` (1-D or
    2-D arrays with equal row counts); with `first_index` each row starts
    with its integer index, counted from there.

    Rows are formatted `ROW_BLOCK` at a time by one `%` over `fmt` repeated
    once per row, so memory stays bounded for any length. The index column
    travels as exact floats, which `%d` prints as the integers they are.
    """
    n = columns[0].shape[0]
    for s in range(0, n, ROW_BLOCK):
        e = min(s + ROW_BLOCK, n)
        parts = [c[s:e] for c in columns]
        if first_index is not None:
            parts.insert(0, np.arange(first_index + s, first_index + e,
                                      dtype=np.float64))
        flat = np.column_stack(parts).ravel().tolist()
        fh.write((fmt * (e - s)) % tuple(flat))


def _scan_rows(lines) -> np.ndarray:
    """Per-line parse of trajectory body lines (file line 2 onward, any
    iterable of strings) that names the first malformed row by its file line
    number."""
    rows = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"row {lineno}: expected 8 columns, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"row {lineno}: {exc}") from None
    return np.array(rows)


def run_schedule(x0: VehicleState, torques: np.ndarray, steers: np.ndarray,
                 dt: float, params: VehicleParams) -> Trajectory:
    """Simulate a zero-order-hold input schedule sampled at dt, one RK4 step
    per sample.

    Raises ValueError for dt <= 0 and naming the first step with a
    non-finite input, a torque beyond params.max_torque or a steering angle
    beyond MAX_STEER, and ModelValidityError where Vx falls to the validity
    floor or becomes NaN.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    _check_state(x0.Vx, x0.Vy, x0.wr)
    n = torques.shape[0]
    if steers.shape[0] != n:
        raise ValueError("torque and steering schedules must have equal length")
    bad = np.flatnonzero(~(np.isfinite(torques) & np.isfinite(steers)))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"non-finite input at step {k} (t={k * dt:.3f} s): "
                         f"T={float(torques[k])}, delta_f={float(steers[k])}")
    if n and max(torques.max(), -torques.min()) > params.max_torque:
        k = int(np.flatnonzero(np.abs(torques) > params.max_torque)[0])
        raise ValueError(f"torque beyond max_torque at step {k} (t={k * dt:.3f} s): "
                         f"|T|={abs(float(torques[k]))} > {params.max_torque}")
    if n and max(steers.max(), -steers.min()) > MAX_STEER:
        k = int(np.flatnonzero(np.abs(steers) > MAX_STEER)[0])
        raise ValueError(f"steering angle beyond MAX_STEER at step {k} "
                         f"(t={k * dt:.3f} s): |delta_f|={abs(float(steers[k]))} "
                         f"> {MAX_STEER}")
    states, accels, fail = _kernels.simulate_path(
        x0, torques, steers, dt, 1, params)
    if fail >= 0:
        raise ModelValidityError(
            f"Vx hit the validity floor or became NaN at t={fail * dt:.3f} s "
            f"(step {fail})")
    t = np.arange(n) * dt
    return Trajectory(t=t, states=states,
                      inputs=np.column_stack((torques, steers)), accels=accels)
