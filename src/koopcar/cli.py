"""Command-line entry point: simulate | train | compare | adapt | inspect.

Config resolution precedence: command-line flags > config file > defaults.
Config files are flat `key = value` lines ('#' comments allowed; schema in
README); a key the subcommand does not read is a usage error. Every
subcommand echoes its fully resolved configuration before doing any work.
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import adapt as adapt_mod
from . import evaluation as ev
from . import koopman as km
from . import scenarios as sc
from .vehicle import Trajectory


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def read_config_file(path) -> dict[str, str]:
    cfg: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, val = text.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def resolve(defaults: dict, file_cfg: dict, flag_cfg: dict) -> dict[str, str]:
    """flags > file > defaults; values normalized to strings."""
    out = {k: str(v) for k, v in defaults.items()}
    out.update({k: str(v) for k, v in file_cfg.items()})
    out.update({k: str(v) for k, v in flag_cfg.items() if v is not None})
    return out


def _config(args, defaults: dict, prefixes: tuple[str, ...] = ()) -> dict[str, str]:
    """Resolve a subcommand's config from its parsed flags (every argparse
    dest but `command`, `func` and `config`), its config file and `defaults`,
    and echo it. A file key that is neither a default, a flag dest nor under
    one of `prefixes` is a usage error."""
    flags = {k: v for k, v in vars(args).items()
             if k not in ("command", "func", "config")}
    file_cfg = read_config_file(args.config) if args.config else {}
    for key in file_cfg:
        if key not in defaults and key not in flags and not key.startswith(prefixes):
            raise UsageError(f"{args.config}: unknown key {key!r} "
                             f"for {args.command}")
    cfg = resolve(defaults, file_cfg, flags)
    print(f"[{args.command}] resolved config:")
    for key in sorted(cfg):
        print(f"  {key} = {cfg[key]}")
    return cfg


def _flag_on(value: str) -> bool:
    return value.strip().lower() in ("1", "true", "yes", "on")


# ---------------------------------------------------------------------------
# simulate

_SCENARIO_PREFIXES = ("scenario.", "initial.", "input.", "params.")
_NAMED_SCENARIO_KEYS = ("scenario", "duration", "dt", "dm", "dIz")


def cmd_simulate(args) -> int:
    cfg = _config(args, {"scenario": "mixed", "dm": 0.0, "dIz": 0.0},
                  prefixes=_SCENARIO_PREFIXES)
    if "out" not in cfg:
        raise UsageError("an output path is required (--out)")

    if "input.kind" in cfg or "scenario.duration" in cfg:
        file_cfg = read_config_file(args.config)
        given = [f"--{k}" for k in _NAMED_SCENARIO_KEYS if getattr(args, k) is not None]
        given += [f"{args.config}: key {k!r}" for k in _NAMED_SCENARIO_KEYS if k in file_cfg]
        if given:
            raise UsageError(f"{', '.join(given)}: set only a named scenario, "
                             f"but the config describes a custom one "
                             f"(input.kind or scenario.duration)")
        # the keys scenario_from_config reads are those its inverse writes;
        # input.* names are the program's own arguments and stay free-form
        known = sc.scenario_to_config(sc.make_scenario("mixed"))
        for key in cfg:
            if key.startswith(("scenario.", "initial.", "params.")) and key not in known:
                raise UsageError(f"{args.config}: unknown key {key!r} "
                                 f"for a custom scenario")
        scenario = sc.scenario_from_config(cfg)
    else:
        for key in cfg:
            if key.startswith(_SCENARIO_PREFIXES):
                raise UsageError(f"{args.config}: key {key!r} needs a custom "
                                 f"scenario (input.kind or scenario.duration)")
        name = cfg["scenario"]
        if name not in sc.SCENARIO_NAMES:
            raise UsageError(f"unknown scenario {name!r}; "
                             f"known: {', '.join(sc.SCENARIO_NAMES)}")
        scenario = sc.make_scenario(
            name,
            duration=float(cfg["duration"]) if "duration" in cfg else None,
            dm=float(cfg["dm"]), dIz=float(cfg["dIz"]),
            dt=float(cfg["dt"]) if "dt" in cfg else 0.025)
    trajectory = sc.run_scenario(scenario)
    trajectory.to_csv(cfg["out"])
    print(f"wrote {len(trajectory)} snapshots to {cfg['out']}")
    return 0


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    defaults = {"epochs": 200, "batch_size": 256, "learning_rate": 1e-3,
                "hidden": "32,32", "feature_dim": 12, "accel_loss": "on",
                "holdout_fraction": 0.3, "warm_start": "on",
                "w_linear": 1.0, "w_recon": 1.0, "w_pred": 1.0, "w_accel": 1.0,
                "squared_norms": "on"}
    cfg = _config(args, defaults)
    if cfg.get("seed", "") in ("", "None"):
        raise UsageError("a seed is required (--seed or 'seed' in the config file)")
    for key in ("data", "out"):
        if key not in cfg:
            raise UsageError(f"'{key}' is required for train")

    trajectory = Trajectory.from_csv(cfg["data"])
    pairs = km.PairBatch.from_trajectory(trajectory)
    w_accel = float(cfg["w_accel"]) if _flag_on(cfg["accel_loss"]) else 0.0
    weights = km.LossWeights(linear=float(cfg["w_linear"]),
                             recon=float(cfg["w_recon"]),
                             pred=float(cfg["w_pred"]), accel=w_accel)
    config = km.TrainConfig(
        seed=int(cfg["seed"]), dt=pairs.dt, epochs=int(cfg["epochs"]),
        batch_size=int(cfg["batch_size"]),
        learning_rate=float(cfg["learning_rate"]), weights=weights,
        hidden=tuple(int(h) for h in cfg["hidden"].split(",") if h),
        feature_dim=int(cfg["feature_dim"]),
        holdout_fraction=float(cfg["holdout_fraction"]),
        warm_start=_flag_on(cfg["warm_start"]),
        squared_norms=_flag_on(cfg["squared_norms"]))
    dims = km.KoopmanDims(p=config.feature_dim)
    init_model = km.load_checkpoint(cfg["resume"]) if cfg.get("resume") else None
    result = km.train(pairs, dims, config, init_model=init_model)
    result.model.meta["config_echo"] = {k: cfg[k] for k in sorted(cfg)}
    km.save_checkpoint(result.model, cfg["out"])
    log_path = cfg.get("log") or (cfg["out"] + ".log.csv")
    km.write_training_log(log_path, result.history)
    print(f"trained {config.epochs} epochs on {len(pairs)} pairs; "
          f"best holdout {result.best_holdout:.6g} at epoch {result.best_epoch}")
    print(f"wrote checkpoint to {cfg['out']} and log to {log_path}")
    return 0


# ---------------------------------------------------------------------------
# compare

def _build_methods(cfg: dict[str, str]) -> list[ev.MethodSpec]:
    names = [n.strip() for n in cfg["methods"].split(",") if n.strip()]
    models: dict[str, km.KoopmanModel] = {}

    def model_for(method: str) -> km.KoopmanModel:
        key = "checkpoint.dk" if method == "DK" else "checkpoint.aldk"
        if key not in cfg:
            raise UsageError(f"method {method} needs a checkpoint path ({key})")
        if key not in models:
            path = cfg[key]
            if not Path(path).exists():
                raise FileNotFoundError(f"method {method}: missing checkpoint {path}")
            models[key] = km.load_checkpoint(path)
        return models[key]

    window = int(cfg["window"])
    lam = float(cfg["forgetting"])
    eps = None if cfg.get("eps_reg", "auto") == "auto" else float(cfg["eps_reg"])
    specs = []
    for name in names:
        upper = name.upper()
        if upper.startswith("PHYS"):
            plant = sc.make_scenario("mixed").params
            specs.append(ev.MethodSpec(name=name,
                                       assumed_params=ev.baseline_params(plant)))
        elif upper in ("DK", "ALDK"):
            specs.append(ev.MethodSpec(name=name, model=model_for(upper)))
        elif upper.startswith("ALDK-"):
            mode = upper.split("-", 1)[1]
            if mode not in ("RLS", "FFRLS", "SWLS"):
                raise UsageError(f"unknown method {name!r}")
            specs.append(ev.MethodSpec(
                name=name, model=model_for("ALDK"),
                adapter=adapt_mod.AdapterConfig(
                    mode=mode, window=window,
                    forgetting=lam if mode == "FFRLS" else 1.0,
                    eps_reg=eps)))
        else:
            raise UsageError(f"unknown method {name!r}; "
                             f"known: {', '.join(ev.METHOD_NAMES)}")
    return specs


def _compare_once(cfg, scenario_list, out_prefix, tag="",
                  trajectories=None) -> dict[str, ev.ComparisonReport]:
    """One comparison per scenario; `trajectories`, when given, holds each
    scenario's simulated run so it is not simulated again."""
    methods = _build_methods(cfg)
    reports = {}
    for scenario, trajectory in zip(
            scenario_list, trajectories or [None] * len(scenario_list)):
        report = ev.run_comparison(methods, scenario, trajectory)
        stem = f"{out_prefix}_{scenario.name}{tag}"
        ev.write_report_files(report, stem + ".table.txt",
                              stem + ".metrics.csv", stem + ".series.csv")
        if _flag_on(cfg.get("timings", "off")):
            ev.write_timing_sidecar(report, stem + ".timing.csv")
        print(ev.format_report_table(report))
        reports[scenario.name] = report
    return reports


def cmd_compare(args) -> int:
    defaults = {"methods": "PHYS-BASELINE,ALDK,ALDK-RLS,ALDK-FFRLS,ALDK-SWLS",
                "scenario": "suite", "window": 100, "forgetting": 0.95,
                "eps_reg": "auto", "timings": "off"}
    cfg = _config(args, defaults)
    if "out" not in cfg:
        raise UsageError("an output prefix is required (--out)")

    duration = (float(cfg["scenario_duration"])
                if "scenario_duration" in cfg else 120.0)
    if cfg["scenario"] == "suite":
        scenario_list = ev.scenario_suite(base_duration=duration)
    else:
        if cfg["scenario"] not in sc.SCENARIO_NAMES:
            raise UsageError(f"unknown scenario {cfg['scenario']!r}; "
                             f"known: suite, {', '.join(sc.SCENARIO_NAMES)}")
        scenario_list = [sc.make_scenario(cfg["scenario"], duration=duration)]

    if cfg.get("sweep_window"):
        windows = [int(w) for w in cfg["sweep_window"].split(",") if w]
        trajectories = [sc.run_scenario(s) for s in scenario_list]
        summary_rows = []
        for m_len in windows:
            sweep_cfg = dict(cfg)
            sweep_cfg["window"] = str(m_len)
            reports = _compare_once(sweep_cfg, scenario_list, cfg["out"],
                                    tag=f"_M{m_len}", trajectories=trajectories)
            for scen_name, report in reports.items():
                for res in report.results:
                    if res.name.upper() == "ALDK-SWLS":
                        for ci, ch in enumerate(ev.CHANNEL_NAMES):
                            summary_rows.append(
                                (m_len, scen_name, ch, res.metrics.rmse[ci]))
        with open(f"{cfg['out']}_sweep.csv", "w", encoding="utf-8") as fh:
            fh.write("M,scenario,channel,rmse\n")
            for m_len, scen, ch, rmse in summary_rows:
                fh.write("%d,%s,%s,%.17g\n" % (m_len, scen, ch, rmse))
        print(f"wrote window sweep summary to {cfg['out']}_sweep.csv")
    else:
        _compare_once(cfg, scenario_list, cfg["out"])
    return 0


# ---------------------------------------------------------------------------
# adapt

def cmd_adapt(args) -> int:
    cfg = _config(args, {"mode": "SWLS", "window": 100, "forgetting": 0.95,
                         "eps_reg": "auto"})
    for key in ("checkpoint", "data"):
        if key not in cfg:
            raise UsageError(f"'{key}' is required for adapt")
    model = km.load_checkpoint(cfg["checkpoint"])
    trajectory = Trajectory.from_csv(cfg["data"])
    eps = None if cfg["eps_reg"] == "auto" else float(cfg["eps_reg"])
    config = adapt_mod.AdapterConfig(
        mode=cfg["mode"], window=int(cfg["window"]),
        forgetting=float(cfg["forgetting"]), eps_reg=eps)
    result = adapt_mod.adapt_run(model, trajectory, config,
                                 diagnostics=bool(cfg.get("history")))
    m = ev.metrics(result.predictions, result.truth)
    for ci, (name, unit) in enumerate(zip(ev.CHANNEL_NAMES, ev.CHANNEL_UNITS)):
        print(f"  {name}: max {m.max_abs[ci]:.4f} {unit}, "
              f"rmse {m.rmse[ci]:.4f} {unit}")
    if cfg.get("out"):
        adapt_mod.write_predictions(cfg["out"], result)
        print(f"wrote predictions to {cfg['out']}")
    if cfg.get("history"):
        adapt_mod.write_estimate_history(cfg["history"], result)
        print(f"wrote estimate history to {cfg['history']}")
    return 0


# ---------------------------------------------------------------------------
# inspect

def cmd_inspect(args) -> int:
    model = km.load_checkpoint(args.checkpoint)
    print(f"checkpoint: {args.checkpoint}")
    print(f"  dims: n={model.dims.n} m={model.dims.m} p={model.dims.p} "
          f"(lifted {model.dims.lifted}); dt={model.dt}")
    enc = " -> ".join(str(s.in_dim) for s in model.enc_specs)
    print(f"  encoder: {enc} -> {model.enc_specs[-1].out_dim} "
          f"({model.enc_specs[0].activation} hidden)")
    dec = " -> ".join(str(s.in_dim) for s in model.dec_specs)
    print(f"  decoder: {dec} -> {model.dec_specs[-1].out_dim}")
    print(f"  |A|_F = {np.linalg.norm(model.A):.6g}, "
          f"|B|_F = {np.linalg.norm(model.B):.6g}")
    print(f"  loss weights: linear={model.weights.linear} "
          f"recon={model.weights.recon} pred={model.weights.pred} "
          f"accel={model.weights.accel}")
    for ch, lo, hi in zip(km.CHANNELS, model.normalizer.lo, model.normalizer.hi):
        print(f"  range {ch}: [{lo:.6g}, {hi:.6g}]")
    for key, val in sorted(model.meta.items()):
        if key != "config_echo":
            print(f"  meta {key} = {val}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="koopcar",
                     description="Deep Koopman vehicle-dynamics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a trajectory CSV")
    p_sim.add_argument("--scenario", help=f"one of {', '.join(sc.SCENARIO_NAMES)}")
    p_sim.add_argument("--duration", type=float)
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--dm", type=float, help="mass delta [kg]")
    p_sim.add_argument("--dIz", type=float, help="yaw-inertia delta [kg m^2]")
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", help="train a lifted-space model")
    p_train.add_argument("--data", help="trajectory CSV")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--batch-size", dest="batch_size", type=int)
    p_train.add_argument("--learning-rate", dest="learning_rate", type=float)
    p_train.add_argument("--hidden", help="comma-separated hidden widths")
    p_train.add_argument("--feature-dim", dest="feature_dim", type=int)
    p_train.add_argument("--accel-loss", dest="accel_loss",
                         choices=("on", "off"),
                         help="include the acceleration loss term")
    p_train.add_argument("--log", help="training log CSV path")
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_train.set_defaults(func=cmd_train)

    p_cmp = sub.add_parser("compare", help="run the method comparison")
    p_cmp.add_argument("--methods", help="comma list, e.g. ALDK,ALDK-SWLS")
    p_cmp.add_argument("--scenario", help="'suite' or a scenario name")
    p_cmp.add_argument("--scenario-duration", dest="scenario_duration", type=float)
    p_cmp.add_argument("--checkpoint-dk", dest="checkpoint.dk",
                       metavar="CHECKPOINT_DK")
    p_cmp.add_argument("--checkpoint-aldk", dest="checkpoint.aldk",
                       metavar="CHECKPOINT_ALDK")
    p_cmp.add_argument("--window", type=int)
    p_cmp.add_argument("--forgetting", type=float)
    p_cmp.add_argument("--sweep-window", dest="sweep_window",
                       help="comma list of window lengths")
    p_cmp.add_argument("--timings", choices=("on", "off"),
                       help="write wall-clock sidecar files")
    p_cmp.set_defaults(func=cmd_compare)

    p_adapt = sub.add_parser("adapt", help="stream one adaptation run")
    p_adapt.add_argument("--checkpoint")
    p_adapt.add_argument("--data")
    p_adapt.add_argument("--mode", choices=adapt_mod.MODES)
    p_adapt.add_argument("--window", type=int)
    p_adapt.add_argument("--forgetting", type=float)
    p_adapt.add_argument("--history", help="estimate-history dump path")
    p_adapt.set_defaults(func=cmd_adapt)

    p_ins = sub.add_parser("inspect", help="summarize a checkpoint")
    p_ins.add_argument("checkpoint")
    p_ins.set_defaults(func=cmd_inspect)

    for p in (p_sim, p_train, p_cmp, p_adapt):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path (prefix for compare)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
