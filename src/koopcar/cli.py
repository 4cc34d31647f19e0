"""Command-line entry point: simulate | train | compare | adapt | inspect.

Config resolution precedence: command-line flags > config file > defaults.
Config files are flat `key = value` lines ('#' comments allowed; schema in
README). Every key is a flag of its subcommand, spelled as the flag's dest,
and its value is parsed by that flag's own argparse argument; a key the
subcommand does not read is a usage error. The directory of every file a
subcommand will write must exist (else exit 2, before any input is read).
Every subcommand echoes its fully resolved configuration before doing any work.
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import os
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
    def __init__(self, *args, **kwargs):   # a flag is spelt out in full
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _options(parser: _Parser) -> dict[str, str]:
    """dest -> option string of each setting: every option but --help, --config."""
    return {a.dest: a.option_strings[0] for a in parser._actions
            if a.option_strings and a.dest not in ("help", "config")}


def read_config_file(path) -> dict[str, str]:
    """The file's settings; a key given twice is a usage error."""
    cfg, lines = {}, {}   # key -> value, key -> line number
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            key, eq, val = line.split("#", 1)[0].partition("=")
            key = key.strip()
            if eq:
                if key in lines:
                    raise UsageError(f"{path}: key {key!r} is given twice, on "
                                     f"lines {lines[key]} and {lineno}")
                cfg[key], lines[key] = val.strip(), lineno
            elif key:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
    return cfg


def _config(first: argparse.Namespace, argv: list[str]) -> argparse.Namespace:
    """Parse the config file's settings, then the command line `argv` (`first`
    is its plain parse), into one namespace with the subcommand's own parser.
    Adds `given`, each setting the file or a flag gave named as in messages,
    and `prefixed`, the file's custom-scenario keys (simulate only)."""
    parser, path = first.parser, first.config
    options = _options(parser)
    settings = read_config_file(path) if path else {}
    tokens = {}
    for key, value in settings.items():
        if key in options:   # the `=` keeps a value such as -170 a value
            tokens[key] = f"{options[key]}={value}"
        elif not (first.command == "simulate" and key.startswith(
                ("scenario.", "initial.", "input.", "params."))):
            raise UsageError(f"{path}: unknown key {key!r} for {first.command}")
    args = argparse.Namespace(command=first.command)
    for key, token in tokens.items():
        try:
            parser.parse_args([token], args)
        except UsageError as exc:
            raise UsageError(f"{path}: key {key!r}: {exc}") from None
    parser.parse_args(argv, args)   # the flags last, so that they win
    flags = vars(parser.parse_args(argv, argparse.Namespace(**dict.fromkeys(options))))
    args.given = {key: f"{path}: key {key!r}" for key in tokens}
    args.given.update((d, options[d]) for d in options if flags[d] is not None)
    args.prefixed = {k: v for k, v in settings.items() if k not in tokens}
    return args


def _require(args, *keys: str) -> None:
    for key in keys:
        if getattr(args, key) in (None, ""):
            raise UsageError(f"{key!r} is required for {args.command} "
                             f"(--{key} or {key!r} in the config file)")


def _check_output_dirs(args) -> None:
    """Raise FileNotFoundError, naming the setting, for each output path in
    `args.outputs` whose directory does not exist, and IsADirectoryError for
    one that is a directory: before any input is read, so that a mistyped
    path fails at once, not after the run has finished. compare's `out` is a
    prefix of the files it writes, so a directory there is a valid prefix."""
    for key in args.outputs:
        path = getattr(args, key) or ""
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise FileNotFoundError(f"{args.given[key]}: output directory "
                                    f"{folder} does not exist")
        if args.command != "compare" and os.path.isdir(path):
            raise IsADirectoryError(f"{args.given[key]}: {path} is a directory")


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _echo(args) -> dict[str, str]:
    """Print the settings that have a value and the custom-scenario keys;
    return them as strings, sorted by key."""
    echo = {d: _text(getattr(args, d)) for d in _options(args.parser)
            if getattr(args, d) is not None}
    echo = dict(sorted({**echo, **args.prefixed}.items()))
    print(f"[{args.command}] resolved config:",
          *(f"  {key} = {value}" for key, value in echo.items()), sep="\n")
    return echo


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    _echo(args)
    _require(args, "out")

    if "input.kind" in args.prefixed or "scenario.duration" in args.prefixed:
        given = [args.given[k] for k in ("scenario", "duration", "dt", "dm", "dIz")
                 if k in args.given]
        if given:
            raise UsageError(f"{', '.join(given)}: set only a named scenario, "
                             f"but the config describes a custom one "
                             f"(input.kind or scenario.duration)")
        try:
            scenario = sc.scenario_from_config(args.prefixed)
        except sc.ConfigError as exc:
            raise UsageError(f"{args.config}: {exc}") from None
    else:
        if args.prefixed:
            raise UsageError(f"{args.config}: key {next(iter(args.prefixed))!r} needs "
                             f"a custom scenario (input.kind or scenario.duration)")
        scenario = sc.make_scenario(args.scenario, duration=args.duration,
                                    dm=args.dm, dIz=args.dIz, dt=args.dt)
    trajectory = sc.run_scenario(scenario)
    trajectory.to_csv(args.out)
    print(f"wrote {len(trajectory)} snapshots to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    init_model = km.load_checkpoint(args.resume) if args.resume else None
    if init_model is not None:   # resuming keeps the checkpoint's network
        saved = {"hidden": init_model.hidden, "feature_dim": init_model.p}
        for key, value in saved.items():
            if key in args.given and getattr(args, key) != value:
                raise ValueError(f"{args.given[key]}: {key} = {_text(getattr(args, key))}"
                                 f", but {args.resume} has {key} = {_text(value)}")
            setattr(args, key, value)
    echo = _echo(args)
    _require(args, "seed", "data", "out")

    pairs = km.PairBatch.from_trajectory(Trajectory.from_csv(args.data))
    weights = km.LossWeights(linear=args.w_linear, recon=args.w_recon, pred=args.w_pred,
                             accel=args.w_accel if args.accel_loss == "on" else 0.0)
    config = km.TrainConfig(
        seed=args.seed, epochs=args.epochs, batch_size=args.batch_size,
        learning_rate=args.learning_rate, weights=weights, hidden=args.hidden,
        feature_dim=args.feature_dim, holdout_fraction=args.holdout_fraction)
    result = km.train(pairs, config, init_model=init_model)
    meta = result.model.meta
    meta["config_echo"] = echo
    km.save_checkpoint(result.model, args.out)
    log_path = args.log or (args.out + ".log.csv")
    km.write_training_log(log_path, result.history)
    print(f"trained {config.epochs} epochs on {len(pairs)} pairs; "
          f"best holdout {meta['best_holdout']:.6g} at epoch {meta['best_epoch']}")
    print(f"wrote checkpoint to {args.out} and log to {log_path}")
    return 0


# ---------------------------------------------------------------------------
# compare

def _adapter_config(args, mode: str, window: int) -> adapt_mod.AdapterConfig:
    return adapt_mod.AdapterConfig(
        mode=mode, window=window, forgetting=args.forgetting,
        eps_reg=None if args.eps_reg == "auto" else args.eps_reg)


# The methods of `compare`, matched case-insensitively: name -> (checkpoint
# key, adapter mode). The physics baseline has no checkpoint; a method without
# an adapter mode keeps `MethodSpec`'s frozen default, the trained A and B.
METHODS = {"PHYS-BASELINE": (None, None),
           "DK": ("checkpoint.dk", None),
           "ALDK": ("checkpoint.aldk", None),
           "ALDK-RLS": ("checkpoint.aldk", "RLS"),
           "ALDK-FFRLS": ("checkpoint.aldk", "FFRLS"),
           "ALDK-SWLS": ("checkpoint.aldk", "SWLS")}


def _method_names(args) -> list[str]:
    """The `--methods` list, each name known and named once."""
    names = [n.strip() for n in args.methods.split(",") if n.strip()]
    if not names:
        raise UsageError(f"{args.given['methods']}: {args.methods!r} names no method; "
                         f"known: {', '.join(METHODS)}")
    for i, name in enumerate(names):
        if name.upper() not in METHODS:
            raise UsageError(f"unknown method {name!r}; "
                             f"known: {', '.join(METHODS)}")
        if name.upper() in (n.upper() for n in names[:i]):
            raise UsageError(f"method {name!r} is named twice; names match in any case")
    return names


def _build_methods(args) -> list[ev.MethodSpec]:
    """The method specs in `--methods` order. ALDK-SWLS gives one spec per
    `--window` length, named `<name>-M<m>` when there are several; each
    checkpoint is read once, and every length is checked before any scenario
    runs."""
    names, windows = _method_names(args), args.window
    modes = [METHODS[name.upper()][1] for name in names]
    if len(windows) != 1:
        given = args.given["window"]
        if not windows:
            raise UsageError(f"{given}: names no window length")
        for i, m_len in enumerate(windows):
            if m_len in windows[:i]:
                raise UsageError(f"{given}: window length {m_len} is named twice")
        if "SWLS" not in modes:
            raise UsageError(f"{given}: only ALDK-SWLS reads the window, but "
                             f"{args.given['methods']} does not name it")
    models: dict[str, km.KoopmanModel] = {}

    def spec(name: str, window: int) -> ev.MethodSpec:
        key, mode = METHODS[name.upper()]
        if key is None:
            return ev.MethodSpec(name=name)
        if mode == "SWLS" and len(windows) > 1:
            name += f"-M{window}"
        adapter = {} if mode is None else {"adapter": _adapter_config(args, mode, window)}
        method, path = key.split(".")[1].upper(), getattr(args, key)
        if path is None:
            raise UsageError(f"method {method} needs a checkpoint path ({key})")
        if key not in models:
            if not Path(path).exists():
                raise FileNotFoundError(f"method {method}: missing checkpoint {path}")
            models[key] = km.load_checkpoint(path)
        return ev.MethodSpec(name=name, model=models[key], **adapter)

    return [spec(name, m_len) for name, mode in zip(names, modes)
            for m_len in (windows if mode == "SWLS" else windows[:1])]


def cmd_compare(args) -> int:
    """One comparison, and one report set, per scenario."""
    _echo(args)
    _require(args, "out")

    scenario_list = (ev.scenario_suite(base_duration=args.scenario_duration)
                     if args.scenario == "suite" else
                     [sc.make_scenario(args.scenario, duration=args.scenario_duration)])
    methods = _build_methods(args)
    for scenario in scenario_list:
        report = ev.run_comparison(methods, scenario)
        stem = f"{args.out}_{scenario.name}"
        ev.write_report_files(report, stem + ".table.txt",
                              stem + ".metrics.csv", stem + ".series.npy")
        print(ev.format_report_table(report))
    return 0


# ---------------------------------------------------------------------------
# adapt

def cmd_adapt(args) -> int:
    _echo(args)
    _require(args, "checkpoint", "data")
    model = km.load_checkpoint(args.checkpoint)
    config = _adapter_config(args, args.mode, args.window)
    result = adapt_mod.adapt_run(model, Trajectory.from_csv(args.data), config,
                                 diagnostics=bool(args.history))
    m = ev.metrics(result.predictions, result.truth)
    for ci, (name, unit) in enumerate(zip(ev.CHANNEL_NAMES, ev.CHANNEL_UNITS)):
        print(f"  {name}: max {m.max_abs[ci]:.4f} {unit}, "
              f"rmse {m.rmse[ci]:.4f} {unit}")
    if args.out:
        adapt_mod.write_predictions(args.out, result)
        print(f"wrote predictions to {args.out}")
    if args.history:
        adapt_mod.write_estimate_history(args.history, result)
        print(f"wrote estimate history to {args.history}")
    return 0


# ---------------------------------------------------------------------------
# inspect

def cmd_inspect(args) -> int:
    model = km.load_checkpoint(args.checkpoint)
    print(f"checkpoint: {args.checkpoint}")
    print(f"  dims: n={km.N_STATES} m={km.N_INPUTS} p={model.p} "
          f"(lifted {model.lifted}); dt={model.dt}")
    print(f"  encoder: {' -> '.join(map(str, model.enc_widths))}")
    print(f"  decoder: {' -> '.join(map(str, model.dec_widths))}")
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

def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(w) for w in text.split(",") if w)


def auto_or_float(text: str):
    return text if text == "auto" else float(text)


def _add_adapter_args(p: _Parser) -> None:
    p.add_argument("--forgetting", type=float,
                   default=adapt_mod.AdapterConfig.forgetting, help="FFRLS lambda")
    p.add_argument("--eps-reg", type=auto_or_float, default="auto",
                   help="SWLS ridge: 'auto' or a number (0: min-norm lstsq)")


def build_parser() -> _Parser:
    parser = _Parser(prog="koopcar",
                     description="Deep Koopman vehicle-dynamics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a trajectory CSV")
    p_sim.add_argument("--scenario", choices=sc.SCENARIO_NAMES, default="mixed")
    p_sim.add_argument("--duration", type=float, help="the scenario's own by default")
    p_sim.add_argument("--dt", type=float, default=sc.DEFAULT_DT)
    p_sim.add_argument("--dm", type=float, default=0.0, help="mass delta [kg]")
    p_sim.add_argument("--dIz", type=float, default=0.0, help="yaw-inertia delta [kg m^2]")
    p_sim.set_defaults(func=cmd_simulate, outputs=("out",))

    tc = km.TrainConfig
    p_train = sub.add_parser("train", help="train a lifted-space model")
    p_train.add_argument("--data", help="trajectory CSV")
    p_train.add_argument("--epochs", type=int, default=tc.epochs)
    p_train.add_argument("--batch-size", type=int, default=tc.batch_size)
    p_train.add_argument("--learning-rate", type=float, default=tc.learning_rate)
    p_train.add_argument("--hidden", type=int_list, default=tc.hidden,
                         help="comma-separated hidden widths")
    p_train.add_argument("--feature-dim", type=int, default=tc.feature_dim)
    p_train.add_argument("--accel-loss", choices=("on", "off"), default="on",
                         help="include the acceleration loss term")
    p_train.add_argument("--log", help="training log CSV path")
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_train.add_argument("--holdout-fraction", type=float, default=tc.holdout_fraction)
    for term in ("linear", "recon", "pred", "accel"):
        p_train.add_argument(f"--w-{term}", type=float,
                             default=getattr(km.LossWeights, term))
    p_train.set_defaults(func=cmd_train, outputs=("out", "log"))

    p_cmp = sub.add_parser("compare", help="run the method comparison")
    p_cmp.add_argument("--methods", default="PHYS-BASELINE,ALDK,ALDK-RLS,ALDK-FFRLS,"
                       "ALDK-SWLS", help="comma list, e.g. ALDK,ALDK-SWLS")
    p_cmp.add_argument("--scenario", choices=("suite", *sc.SCENARIO_NAMES),
                       default="suite")
    p_cmp.add_argument("--scenario-duration", type=float, default=ev.SUITE_DURATION)
    p_cmp.add_argument("--checkpoint-dk", dest="checkpoint.dk")
    p_cmp.add_argument("--checkpoint-aldk", dest="checkpoint.aldk")
    p_cmp.add_argument("--window", type=int_list,
                       default=(adapt_mod.AdapterConfig.window,),
                       help="SWLS window lengths, a comma list")
    _add_adapter_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare, outputs=("out",))

    p_adapt = sub.add_parser("adapt", help="stream one adaptation run")
    p_adapt.add_argument("--checkpoint")
    p_adapt.add_argument("--data")
    p_adapt.add_argument("--mode", choices=adapt_mod.MODES,
                         default=adapt_mod.AdapterConfig.mode)
    p_adapt.add_argument("--window", type=int, default=adapt_mod.AdapterConfig.window)
    _add_adapter_args(p_adapt)
    p_adapt.add_argument("--history", help="estimate-history dump path")
    p_adapt.set_defaults(func=cmd_adapt, outputs=("out", "history"))

    p_ins = sub.add_parser("inspect", help="summarize a checkpoint")
    p_ins.add_argument("checkpoint")
    p_ins.set_defaults(func=cmd_inspect)

    for p in (p_sim, p_train, p_cmp, p_adapt):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path (prefix for compare)")
        p.set_defaults(parser=p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        if "config" in args:   # every subcommand but inspect
            args = _config(args, argv[1:])
            _check_output_dirs(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return exc.code if isinstance(exc.code, int) else 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
