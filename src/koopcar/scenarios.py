"""Scenario library: named input programs and plant configurations.

A scenario pairs a vehicle parameter set with a deterministic time-indexed
(T, delta_f) schedule. Scenarios round-trip through a flat key=value config
file (see `scenario_to_config` / `scenario_from_config`; schema in README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .vehicle import (Trajectory, VehicleParams, VehicleState,
                      equilibrium_torque, run_schedule)


def _chirp(t: np.ndarray, amp: float, f0: float, f1: float, span: float) -> np.ndarray:
    """Linear-frequency sweep f0 -> f1 over `span` seconds."""
    return amp * np.sin(2.0 * math.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * span)))


@dataclass(frozen=True)
class InputProgram:
    """Named input schedule; `args` parameterize the generator `kind`."""
    kind: str
    args: tuple[tuple[str, float], ...] = ()

    @classmethod
    def make(cls, kind: str, **args: float) -> "InputProgram":
        return cls(kind=kind, args=tuple(sorted((k, float(v)) for k, v in args.items())))

    def arg_dict(self) -> dict[str, float]:
        return dict(self.args)

    def sample(self, t: np.ndarray, params: VehicleParams) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate (torques, steers) on the time grid."""
        gen = _PROGRAMS.get(self.kind)
        if gen is None:
            raise ValueError(f"unknown input program {self.kind!r}; "
                             f"known: {sorted(_PROGRAMS)}")
        torque, steer = gen(t, self.arg_dict(), params)
        return torque, steer


def _prog_constant(t, a, params):
    torque = np.full_like(t, a.get("torque", 0.0))
    steer = np.full_like(t, a.get("steer", 0.0))
    return torque, steer


def _prog_equilibrium(t, a, params):
    """Torque holding the given speed exactly, zero steering."""
    vx = a.get("speed", 15.0)
    return np.full_like(t, equilibrium_torque(vx, params)), np.zeros_like(t)


def _prog_mixed(t, a, params):
    """Rich excitation: a meandering speed target tracked by feedforward torque
    with a chirp on top, and slow multi-tone + chirp steering whose amplitude
    is scheduled so the quasi-steady lateral-acceleration request reaches
    ay_max at every speed (deep tire saturation when ay_max nears mu*g).

    Steering content is kept slow on purpose: the lateral excursions sweep the
    nonlinear tire range widely while jerk stays small, which is what makes
    the learned-model comparisons well conditioned. Emulates a long varied
    drive (straights, large- and small-curvature cornering) purely through
    the input channels.
    """
    span = float(t[-1]) if t[-1] > 0 else 1.0
    v_mid = a.get("v_mid", 14.0)
    v_span = a.get("v_span", 2.5)
    ay_max = a.get("ay_max", 12.0)
    torque_chirp = a.get("torque_chirp", 120.0)
    w1, w2 = 2.0 * math.pi / 97.0, 2.0 * math.pi / 31.0
    v_target = v_mid + v_span * (0.6 * np.sin(w1 * t) + 0.4 * np.sin(w2 * t + 1.3))
    dv_target = v_span * (0.6 * w1 * np.cos(w1 * t) + 0.4 * w2 * np.cos(w2 * t + 1.3))
    torque = (equilibrium_torque(v_target, params)
              + params.rw * params.m * dv_target
              + _chirp(t, torque_chirp, 0.01, 0.3, span))
    wave = (0.5 * np.sin(2.0 * math.pi * t / 31.0)
            + 0.25 * np.sin(2.0 * math.pi * t / 113.0 + 0.7)
            + 0.15 * np.sin(2.0 * math.pi * t / 53.0 + 1.9)
            + _chirp(t, 0.10, 0.004, 0.02, span))
    steer_cap = ay_max * (params.lf + params.lr) / (v_target * v_target)
    return torque, steer_cap * wave


def _prog_slalom(t, a, params):
    """Sinusoidal steering with a fixed period plus a torque ramp to build speed."""
    period = a.get("period", 100.0)
    s_amp = a.get("steer_amp", 0.015)
    v0 = a.get("speed0", 5.556)
    v1 = a.get("speed1", 25.0)
    steer = s_amp * np.sin(2.0 * math.pi * t / period)
    span = float(t[-1]) if t[-1] > 0 else 1.0
    v_target = v0 + (v1 - v0) * np.minimum(t / span, 1.0)
    accel_force = params.m * (v1 - v0) / span
    torque = equilibrium_torque(v_target, params) + params.rw * accel_force
    return torque, steer


def _prog_step_steer(t, a, params):
    """Hold speed, step the steering at step_time."""
    vx = a.get("speed", 15.0)
    steer = np.where(t >= a.get("step_time", 5.0), a.get("steer", 0.03), 0.0)
    return np.full_like(t, equilibrium_torque(vx, params)), steer


def _prog_constant_radius(t, a, params):
    """Fixed steering, slowly increasing speed (quasi-steady cornering sweep)."""
    v0 = a.get("speed0", 8.0)
    v1 = a.get("speed1", 22.0)
    span = float(t[-1]) if t[-1] > 0 else 1.0
    v_target = v0 + (v1 - v0) * np.minimum(t / span, 1.0)
    accel_force = params.m * (v1 - v0) / span
    torque = equilibrium_torque(v_target, params) + params.rw * accel_force
    return torque, np.full_like(t, a.get("steer", 0.025))


_PROGRAMS = {
    "constant": _prog_constant,
    "equilibrium": _prog_equilibrium,
    "mixed": _prog_mixed,
    "slalom": _prog_slalom,
    "step_steer": _prog_step_steer,
    "constant_radius": _prog_constant_radius,
}


@dataclass(frozen=True)
class Scenario:
    name: str
    duration: float
    dt: float
    initial_state: VehicleState
    input_program: InputProgram
    params: VehicleParams = field(default_factory=VehicleParams)
    substeps: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.duration < self.dt:
            raise ValueError("duration must cover at least one sample interval")

    def n_samples(self) -> int:
        """Snapshot count including t=0."""
        return int(round(self.duration / self.dt)) + 1

    def time_grid(self) -> np.ndarray:
        return np.arange(self.n_samples()) * self.dt


def run_scenario(scenario: Scenario) -> Trajectory:
    """Simulate the scenario; one snapshot per sample interval including t=0."""
    t = scenario.time_grid()
    torques, steers = scenario.input_program.sample(t, scenario.params)
    return run_schedule(scenario.initial_state, torques, steers, scenario.dt,
                        scenario.params, scenario.substeps)


# ---------------------------------------------------------------------------
# built-in library

def _nominal_params(mu: float = 0.85) -> VehicleParams:
    return VehicleParams(mu=mu)


def make_scenario(name: str, duration: float | None = None,
                  dm: float = 0.0, dIz: float = 0.0,
                  dt: float = 0.025) -> Scenario:
    """Instantiate a library scenario, optionally perturbing mass/inertia."""
    builders = {
        "mixed": lambda d: Scenario(
            name="mixed", duration=d or 1400.0, dt=dt,
            initial_state=VehicleState(Vx=14.0),
            input_program=InputProgram.make("mixed", v_mid=14.0, v_span=2.5,
                                            ay_max=12.0),
            params=_nominal_params(0.85)),
        "slalom": lambda d: Scenario(
            name="slalom", duration=d or 200.0, dt=dt,
            initial_state=VehicleState(Vx=5.556),
            input_program=InputProgram.make("slalom", period=100.0,
                                            steer_amp=0.015, speed0=5.556, speed1=25.0),
            params=_nominal_params(0.6)),
        "step_steer": lambda d: Scenario(
            name="step_steer", duration=d or 30.0, dt=dt,
            initial_state=VehicleState(Vx=15.0),
            input_program=InputProgram.make("step_steer", speed=15.0,
                                            step_time=5.0, steer=0.03),
            params=_nominal_params(0.85)),
        "constant_radius": lambda d: Scenario(
            name="constant_radius", duration=d or 60.0, dt=dt,
            initial_state=VehicleState(Vx=8.0),
            input_program=InputProgram.make("constant_radius", steer=0.025,
                                            speed0=8.0, speed1=22.0),
            params=_nominal_params(0.85)),
        "aggressive": lambda d: Scenario(
            name="aggressive", duration=d or 90.0, dt=dt,
            initial_state=VehicleState(Vx=10.0),
            input_program=InputProgram.make("mixed", v_mid=10.0, v_span=3.0,
                                            ay_max=16.0, torque_chirp=250.0),
            params=_nominal_params(0.85)),
    }
    try:
        scenario = builders[name](duration)
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; known: {sorted(builders)}") from None
    if dm or dIz:
        scenario = replace(scenario, params=scenario.params.perturbed(dm, dIz),
                           name=f"{scenario.name}_dm{dm:+g}_dIz{dIz:+g}")
    return scenario


SCENARIO_NAMES = ("mixed", "slalom", "step_steer", "constant_radius", "aggressive")


# ---------------------------------------------------------------------------
# flat key=value config round-trip

def _params_to_config(obj, prefix: str, cfg: dict[str, str]) -> None:
    """`prefix<field>` keys for every parameter field; nested parameter
    sets (the tire) add their own `<field>.` level."""
    for f in fields(obj):
        val = getattr(obj, f.name)
        if is_dataclass(val):
            _params_to_config(val, f"{prefix}{f.name}.", cfg)
        else:
            cfg[prefix + f.name] = "%.17g" % val


def _params_from_config(cls, prefix: str, cfg: dict[str, str]):
    """Inverse of `_params_to_config`; a missing key keeps the field default."""
    kwargs = {}
    for f in fields(cls):
        key = prefix + f.name
        if is_dataclass(f.default_factory):
            kwargs[f.name] = _params_from_config(f.default_factory, key + ".", cfg)
        elif key in cfg:
            kwargs[f.name] = float(cfg[key])
    return cls(**kwargs)


def scenario_to_config(s: Scenario) -> dict[str, str]:
    cfg = {
        "scenario.name": s.name,
        "scenario.duration": "%.17g" % s.duration,
        "scenario.dt": "%.17g" % s.dt,
        "scenario.substeps": str(s.substeps),
        "initial.Vx": "%.17g" % s.initial_state.Vx,
        "initial.Vy": "%.17g" % s.initial_state.Vy,
        "initial.wr": "%.17g" % s.initial_state.wr,
        "input.kind": s.input_program.kind,
    }
    for key, val in s.input_program.args:
        cfg[f"input.{key}"] = "%.17g" % val
    _params_to_config(s.params, "params.", cfg)
    return cfg


def scenario_from_config(cfg: dict[str, str]) -> Scenario:
    def f(key, default=None):
        if key in cfg:
            return float(cfg[key])
        if default is None:
            raise ValueError(f"scenario config missing required key {key!r}")
        return default

    args = {k.split(".", 1)[1]: float(v) for k, v in cfg.items()
            if k.startswith("input.") and k != "input.kind"}
    return Scenario(
        name=cfg.get("scenario.name", "custom"),
        duration=f("scenario.duration"),
        dt=f("scenario.dt"),
        initial_state=VehicleState(Vx=f("initial.Vx"), Vy=f("initial.Vy", 0.0),
                                   wr=f("initial.wr", 0.0)),
        input_program=InputProgram.make(cfg.get("input.kind", "constant"), **args),
        params=_params_from_config(VehicleParams, "params.", cfg),
        substeps=int(f("scenario.substeps", 1.0)))
