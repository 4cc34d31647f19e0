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
    """Named input schedule: the generator `kind` gives (torques, steers) on a
    time grid, and `args` hold every one of its keyword arguments (build one
    with `make`; the defaults are in the generator's signature)."""
    kind: str
    args: tuple[tuple[str, float], ...] = ()

    @classmethod
    def make(cls, kind: str, **args: float) -> "InputProgram":
        """Program `kind` with `args` over the defaults in its generator's
        signature; ValueError for an unknown kind. The generator rejects an
        argument it does not take when it is sampled."""
        if kind not in _PROGRAMS:
            raise ValueError(f"unknown input program {kind!r}; "
                             f"known: {', '.join(_PROGRAMS)}")
        args = {**_PROGRAMS[kind].__kwdefaults__, **args}
        return cls(kind=kind, args=tuple(sorted((k, float(v)) for k, v in args.items())))

    def arg_dict(self) -> dict[str, float]:
        return dict(self.args)

    def sample(self, t: np.ndarray, params: VehicleParams) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate (torques, steers) on the time grid."""
        return _PROGRAMS[self.kind](t, params, **self.arg_dict())


def _prog_constant(t, params, *, torque=0.0, steer=0.0):
    return np.full_like(t, torque), np.full_like(t, steer)


def _prog_equilibrium(t, params, *, speed=15.0):
    """Torque holding the given speed exactly, zero steering."""
    return np.full_like(t, equilibrium_torque(speed, params)), np.zeros_like(t)


def _prog_mixed(t, params, *, v_mid=14.0, v_span=2.5, ay_max=12.0, torque_chirp=120.0):
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


def _speed_ramp(t, params, speed0, speed1):
    """Torque for a linear speed ramp speed0 -> speed1 over the time grid:
    the equilibrium torque of the target speed plus the ramp's inertial force."""
    span = float(t[-1]) if t[-1] > 0 else 1.0
    v_target = speed0 + (speed1 - speed0) * np.minimum(t / span, 1.0)
    accel_force = params.m * (speed1 - speed0) / span
    return equilibrium_torque(v_target, params) + params.rw * accel_force


def _prog_slalom(t, params, *, period=100.0, steer_amp=0.015, speed0=5.556, speed1=25.0):
    """Sinusoidal steering with a fixed period plus a torque ramp to build speed."""
    steer = steer_amp * np.sin(2.0 * math.pi * t / period)
    return _speed_ramp(t, params, speed0, speed1), steer


def _prog_step_steer(t, params, *, speed=15.0, step_time=5.0, steer=0.03):
    """Hold speed, step the steering at step_time."""
    steers = np.where(t >= step_time, steer, 0.0)
    return np.full_like(t, equilibrium_torque(speed, params)), steers


def _prog_constant_radius(t, params, *, speed0=8.0, speed1=22.0, steer=0.025):
    """Fixed steering, slowly increasing speed (quasi-steady cornering sweep)."""
    return _speed_ramp(t, params, speed0, speed1), np.full_like(t, steer)


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

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not math.isfinite(self.duration):
            raise ValueError(f"duration must be finite, got {self.duration}")
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
                        scenario.params)


# ---------------------------------------------------------------------------
# built-in library

# name -> (default duration [s], initial Vx [m/s], mu, program kind,
#          the program arguments it sets other than their defaults)
_LIBRARY = {
    "mixed": (1400.0, 14.0, 0.85, "mixed", {}),
    "slalom": (200.0, 5.556, 0.6, "slalom", {}),
    "step_steer": (30.0, 15.0, 0.85, "step_steer", {}),
    "constant_radius": (60.0, 8.0, 0.85, "constant_radius", {}),
    "aggressive": (90.0, 10.0, 0.85, "mixed",
                   dict(v_mid=10.0, v_span=3.0, ay_max=16.0, torque_chirp=250.0)),
}

SCENARIO_NAMES = tuple(_LIBRARY)
DEFAULT_DT = 0.025   # s, the sample interval of a named scenario


def make_scenario(name: str, duration: float | None = None,
                  dm: float = 0.0, dIz: float = 0.0,
                  dt: float = DEFAULT_DT) -> Scenario:
    """Instantiate a library scenario, optionally perturbing mass/inertia."""
    try:
        default_duration, vx0, mu, kind, args = _LIBRARY[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"known: {sorted(_LIBRARY)}") from None
    params = VehicleParams(mu=mu)
    if dm or dIz:
        params = params.perturbed(dm, dIz)
        name = f"{name}_dm{dm:+g}_dIz{dIz:+g}"
    return Scenario(name=name, dt=dt,
                    duration=default_duration if duration is None else duration,
                    initial_state=VehicleState(Vx=vx0),
                    input_program=InputProgram.make(kind, **args),
                    params=params)


# ---------------------------------------------------------------------------
# flat key=value config round-trip

def _params_to_config(obj, prefix: str, cfg: dict[str, str]) -> None:
    """`prefix<field>` keys for every field of a state or parameter set;
    nested parameter sets (the tire) add their own `<field>.` level."""
    for f in fields(obj):
        val = getattr(obj, f.name)
        if is_dataclass(val):
            _params_to_config(val, f"{prefix}{f.name}.", cfg)
        else:
            cfg[prefix + f.name] = "%.17g" % val


def _params_from_config(cls, prefix: str, values: dict[str, float]):
    """Inverse of `_params_to_config`; a missing key keeps the field default."""
    kwargs = {}
    for f in fields(cls):
        key = prefix + f.name
        if is_dataclass(f.default_factory):
            kwargs[f.name] = _params_from_config(f.default_factory, key + ".", values)
        elif key in values:
            kwargs[f.name] = values[key]
    return cls(**kwargs)


def scenario_to_config(s: Scenario) -> dict[str, str]:
    cfg = {"scenario.name": s.name, "scenario.duration": "%.17g" % s.duration,
           "scenario.dt": "%.17g" % s.dt}
    _params_to_config(s.initial_state, "initial.", cfg)
    cfg["input.kind"] = s.input_program.kind
    cfg.update((f"input.{key}", "%.17g" % val) for key, val in s.input_program.args)
    _params_to_config(s.params, "params.", cfg)
    return cfg


class ConfigError(ValueError):
    """A scenario config key that is missing or not read, or not a number."""


def scenario_from_config(cfg: dict[str, str]) -> Scenario:
    """Inverse of `scenario_to_config`. Raises ConfigError, naming the key,
    for a key it does not read, a value that is not a number or a missing
    required key; ValueError for a scenario that cannot be simulated."""
    try:
        program = InputProgram.make(cfg.get("input.kind", "constant"))
    except ValueError as exc:
        raise ConfigError(f"key 'input.kind': {exc}") from None
    # the keys read are those the inverse writes for this input program
    known = scenario_to_config(replace(make_scenario("mixed"), input_program=program))
    values = {}
    for key, text in cfg.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r} for a custom scenario "
                              f"of input program {program.kind!r}")
        if key not in ("scenario.name", "input.kind"):
            try:
                values[key] = float(text)
            except ValueError:
                raise ConfigError(f"key {key!r}: {text!r} is not a number") from None
    for key in ("scenario.duration", "scenario.dt", "initial.Vx"):
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    args = {k[len("input."):]: v for k, v in values.items() if k.startswith("input.")}
    return Scenario(
        name=cfg.get("scenario.name", "custom"),
        duration=values["scenario.duration"], dt=values["scenario.dt"],
        initial_state=_params_from_config(VehicleState, "initial.", values),
        input_program=InputProgram.make(program.kind, **args),
        params=_params_from_config(VehicleParams, "params.", values))
