import argparse
import json
import shlex

import numpy as np
import pytest

from koopcar import evaluation, scenarios
from koopcar.adapt import AdapterConfig, adapt_run, write_predictions
from koopcar.cli import build_parser, main, read_config_file
from koopcar.koopman import load_checkpoint
from koopcar.vehicle import TRAJECTORY_HEADER, Trajectory


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared CLI artifacts: a short trajectory and a tiny checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    traj = root / "traj.csv"
    assert run_cli("simulate", "--scenario", "mixed", "--duration", "30",
                   "--out", str(traj)) == 0
    ckpt = root / "model.json"
    assert run_cli("train", "--data", str(traj), "--seed", "5",
                   "--epochs", "3", "--hidden", "8", "--feature-dim", "2",
                   "--out", str(ckpt)) == 0
    return {"root": root, "traj": traj, "ckpt": ckpt}


# ---------------------------------------------------------------------------
# The exit-code contract, one row per way a command must fail. cli.main turns
# a UsageError into exit 1 and any other exception into exit 2, and the
# console script is sys.exit(main()), so each row checks the installed
# command's exit code too. In argv, TRAJ and CKPT name the module's trajectory
# and checkpoint, OUT the output path and CFG a config file. A text `edit` is
# CFG's content; a function `edit` changes a copy of the checkpoint's JSON,
# which CKPT then names. A row is run by `test_exit_code` unless it names
# another `test`: the rows of a reject test folded into the table keep that
# test's name and ids. DIR names an existing directory. A new CLI check lands
# here as a row.

def fails(row_id, argv, code, message, edit=None, test="test_exit_code"):
    return test, pytest.param(argv, edit, code, message, id=row_id)


def config_value(command, settings, key, value):
    """A bad value is a usage error naming its key in a file, its flag on
    the command line."""
    flag = "--" + key.replace("_", "-")
    return [fails(f"{command}-{key}-file",
                  f"{command} --config CFG {settings} --out OUT", 1,
                  f"CFG: key '{key}': argument {flag}: invalid",
                  edit=f"{key} = {value}\n"),
            fails(f"{command}-{key}-flag",
                  f"{command} {settings} {flag} {value} --out OUT", 1,
                  f"argument {flag}: invalid")]


def reverse_channels(doc):
    doc["channels"].reverse()


def snapshots(k):
    """A trajectory file of k snapshots 0.025 s apart at a constant 15 m/s."""
    return TRAJECTORY_HEADER + "\n" + "".join(f"{0.025 * i!r},15,0,0,100,0,0,0\n"
                                              for i in range(k))


CUSTOM = ("scenario.duration = 2\nscenario.dt = 0.025\ninitial.Vx = 15\n"
          "input.kind = constant\n")
CUSTOM_300 = CUSTOM + "input.torque = 300\n"
EQUILIBRIUM = ("scenario.duration = 1.0\nscenario.dt = 0.025\ninitial.Vx = 15.0\n"
               "input.kind = equilibrium\ninput.speed = 15.0\n")
STEP_STEER = "simulate --scenario step_steer --duration 2"
TRAIN = "train --data TRAJ --seed 1 --epochs 1"
COMPARE = "compare --scenario step_steer --scenario-duration 2"
TRAIN_SETTINGS = "--data TRAJ --seed 5 --epochs 1 --hidden 8 --feature-dim 2"
COMPARE_SETTINGS = ("--methods PHYS-BASELINE,ALDK-SWLS --checkpoint-aldk CKPT "
                    "--scenario step_steer --scenario-duration 2")
ADAPT_SETTINGS = "--checkpoint CKPT --data TRAJ"
ADAPT = "adapt " + ADAPT_SETTINGS
KNOWN = "known: PHYS-BASELINE, DK, ALDK, ALDK-RLS, ALDK-FFRLS, ALDK-SWLS"

FAILURES = [
    # simulate. Custom-scenario keys beside a named scenario, and named-
    # scenario settings beside a custom one, would be dropped without a word.
    fails("named-scenario-custom-key", f"{STEP_STEER} --config CFG --out OUT", 1,
          "CFG: key 'params.mu' needs a custom scenario",
          edit="params.mu = 0.3\nparams.mass = 1900\n"),
    *(fails(line, "simulate --config CFG --out OUT", 1,
            f"CFG: unknown key '{line.split(' = ')[0]}'", edit=f"{EQUILIBRIUM}{line}\n",
            test="test_simulate_custom_scenario_rejects_unread_keys")
      for line in ("scenario.substeps = 4", "params.mass = 1900", "initial.vx = 3.0")),
    *(fails(row_id, "simulate --config CFG --out OUT", 1, f"CFG: {message}",
            edit=edit, test="test_simulate_checks_input_program_keys")
      for row_id, edit, message in [
          ("unread-argument", f"{CUSTOM}input.torqeu = 300\n",
           "unknown key 'input.torqeu'"),
          ("not-a-number", f"{CUSTOM}input.torque = 3OO\n",
           "key 'input.torque': '3OO' is not a number"),
          ("unknown-program", CUSTOM.replace("= constant", "= coast"),
           "key 'input.kind': unknown input program 'coast'")]),
    fails("custom-scenario-named-flags", "simulate --config CFG --duration 5 "
          "--dm 500 --dt 0.05 --scenario slalom --out OUT", 1,
          "--scenario, --duration, --dt, --dm: set only a named scenario",
          edit=CUSTOM_300),
    fails("custom-scenario-named-key", "simulate --config CFG --out OUT", 1,
          "CFG: key 'dIz': set only a named scenario", edit=CUSTOM_300 + "dIz = 5\n"),
    fails("custom-scenario-without-dt", "simulate --config CFG --out OUT", 1,
          "CFG: missing required key 'scenario.dt'",
          edit=CUSTOM.replace("scenario.dt = 0.025\n", "")),
    *(fails(f"{flag}-{value}", f"{STEP_STEER} --{flag} {value} --out OUT", 2,
            f"error: {message}", test="test_simulate_rejects_degenerate_scenario")
      for flag, value, message in [
          ("duration", "0", "duration must cover at least one sample interval"),
          ("duration", "nan", "duration must be finite, got nan"),
          ("duration", "inf", "duration must be finite, got inf"),
          ("dIz", "nan", "Iz must be positive and finite, got nan"),
          ("dm", "inf", "m must be positive and finite, got inf")]),
    fails("compare-duration-0", "compare --methods PHYS-BASELINE --scenario-duration 0 "
          "--out OUT", 2, "duration must cover at least one sample interval"),
    *(fails(f"{key}-{value}", "simulate --config CFG --out OUT", 2,
            f"error: {key.replace('.', ' ')} must be",
            edit=f"{CUSTOM_300}params.{key} = {value}\n",
            test="test_simulate_rejects_bad_plant_parameter")
      for key, value in [("drag", "nan"), ("roll", "-1"), ("max_torque", "nan"),
                         ("tire.b_stiff", "inf")]),
    fails("torque-beyond-max_torque", "simulate --config CFG --out OUT", 2,
          "max_torque at step 0",   # below the ~127 N m that holds 15 m/s
          edit=f"scenario.name = custom_eq\n{EQUILIBRIUM}params.max_torque = 50.0\n"),
    fails("steering-beyond-max_steer", "simulate --config CFG --out OUT", 2,
          "MAX_STEER at step 0 (t=0.000 s)",
          edit=("scenario.duration = 1.0\nscenario.dt = 0.025\ninitial.Vx = 15.0\n"
                "input.kind = constant\ninput.torque = 300.0\ninput.steer = 1.0\n")),
    fails("simulate-without-out", "simulate --scenario slalom", 1,
          "'out' is required for simulate"),
    # train
    fails("train-without-seed", "train --data TRAJ --out OUT", 1,
          "'seed' is required for train"),
    fails("train-seed-negative", "train --data TRAJ --seed -1 --epochs 1 --out OUT", 2,
          "error: seed must be non-negative, got -1"),
    *(fails(value, f"{TRAIN} --learning-rate {value} --out OUT", 2,
            f"learning_rate must be positive and finite, got {float(value)}",
            test="test_train_rejects_bad_learning_rate")
      for value in ("nan", "inf", "0", "-1")),
    fails("feature-dim-0", f"{TRAIN} --feature-dim 0 --out OUT", 2,
          "feature_dim and hidden widths must be >= 1, got 0 and (32, 32)"),
    fails("hidden-width-0", f"{TRAIN} --hidden 32,0 --out OUT", 2,
          "feature_dim and hidden widths must be >= 1, got 12 and (32, 0)"),
    fails("holdout-fraction-1.5", f"{TRAIN} --holdout-fraction 1.5 --out OUT", 2,
          "error: holdout_fraction must be in (0, 1), got 1.5"),
    fails("batch-size-0", f"{TRAIN} --batch-size 0 --out OUT", 2,
          "error: batch_size must be >= 1 and epochs >= 0, got 0 and 1"),
    # a trajectory file the reader or the command cannot use
    fails("trajectory-header", "train --data CFG --seed 1 --out OUT", 2,
          "error: unexpected trajectory header: 't,x'", edit="t,x\n0,1\n"),
    fails("train-three-snapshots", "train --data CFG --seed 1 --out OUT", 2,
          "error: need at least 4 pairs to train", edit=snapshots(3)),
    fails("adapt-one-snapshot", "adapt --checkpoint CKPT --data CFG --out OUT", 2,
          "error: trajectory too short to adapt over", edit=snapshots(1)),
    # every run trains on squared norms from the least-squares start
    *(fails(f"{key}-{where}", f"{TRAIN} {argv} --out OUT", 1, message, edit=edit)
      for key, value in [("warm_start", "off"), ("squared_norms", "on")]
      for where, argv, message, edit in [
          ("flag", f"--{key.replace('_', '-')} {value}",
           f"unrecognized arguments: --{key.replace('_', '-')}", None),
          ("file", "--config CFG", f"CFG: unknown key '{key}' for train",
           f"{key} = {value}\n")]),
    # compare
    fails("compare-missing-checkpoint", "compare --methods ALDK --checkpoint-aldk "
          "/nonexistent/ghost.json --scenario step_steer --seed 3 --out OUT", 2,
          "error: method ALDK: missing checkpoint"),
    *(fails(name, f"compare --methods aldk-swls,{name} "
            "--checkpoint-aldk CKPT --scenario step_steer --out OUT", 1,
            f"unknown method {name!r}; {KNOWN}",
            test="test_compare_unknown_method_is_usage_error")
      for name in ("PHYS", "physics", "ALDK-LMS")),
    fails("compare-dk-without-checkpoint", f"{COMPARE} --methods DK --out OUT", 1,
          "usage error: method DK needs a checkpoint path (checkpoint.dk)"),
    fails("compare-unknown-scenario", "compare --methods ALDK --checkpoint-aldk CKPT "
          "--scenario marsroad --seed 3 --out OUT", 1,
          "argument --scenario: invalid choice: 'marsroad'"),
    fails("compare-no-method", f"{COMPARE} --methods , --out OUT", 1,
          f"--methods: ',' names no method; {KNOWN}"),
    fails("compare-no-method-empty", f"{COMPARE} --methods '' --out OUT", 1,
          f"--methods: '' names no method; {KNOWN}"),
    fails("compare-method-twice",
          f"{COMPARE} --methods PHYS-BASELINE,PHYS-BASELINE --out OUT", 1,
          "method 'PHYS-BASELINE' is named twice"),
    fails("compare-method-twice-any-case",
          f"{COMPARE} --methods PHYS-BASELINE,phys-baseline --out OUT", 1,
          "method 'phys-baseline' is named twice"),
    # a window sweep needs a window length and a method that reads the window
    fails("compare-sweep-no-window", f"compare {COMPARE_SETTINGS} --window , "
          "--out OUT", 1, "--window: names no window length"),
    fails("compare-sweep-no-window-file", f"compare {COMPARE_SETTINGS} --config CFG "
          "--out OUT", 1, "CFG: key 'window': names no window length",
          edit="window = ,\n"),
    fails("compare-sweep-no-swls",
          f"{COMPARE} --methods PHYS-BASELINE --window 0,5 --out OUT", 1,
          "--window: only ALDK-SWLS reads the window, but --methods "
          "does not name it"),
    fails("compare-sweep-window-twice",
          f"compare {COMPARE_SETTINGS} --window 25,50,25 --out OUT", 1,
          "--window: window length 25 is named twice"),
    # --window takes the sweep's lengths, so compare has no second setting
    fails("compare-sweep-window-flag",
          f"compare {COMPARE_SETTINGS} --sweep-window 20,40 --out OUT", 1,
          "unrecognized arguments: --sweep-window"),
    fails("compare-sweep-window-key", f"compare {COMPARE_SETTINGS} --config CFG "
          "--out OUT", 1, "CFG: unknown key 'sweep_window' for compare",
          edit="sweep_window = 20\n"),
    # every window length is checked before the first report is written
    *(fails(row_id, f"{command} --out OUT", 2, "error: window length must be >= 1, got 0")
      for row_id, command in [
          ("compare-sweep-window-0", f"compare {COMPARE_SETTINGS} --window 5,0"),
          ("compare-window-0", f"compare {COMPARE_SETTINGS} --window 0"),
          ("adapt-window-0", f"{ADAPT} --window 0")]),
    fails("adapt-forgetting-1.5", f"{ADAPT} --mode FFRLS --forgetting 1.5 --out OUT", 2,
          "error: forgetting factor must be in (0, 1], got 1.5"),
    # adapt and inspect: a checkpoint value the writer would not emit
    *(fails(value, f"{ADAPT} --eps-reg {value} --out OUT", 2,
            f"eps_reg must be non-negative and finite, got {float(value)}",
            test="test_adapt_rejects_bad_eps_reg")
      for value in ("nan", "inf", "-1")),
    *(fails(mode, f"{ADAPT} --mode {mode} --out OUT", 2,
            "normalizer channel 0 has min nan",
            edit=lambda doc: doc["normalizer_min"].__setitem__(0, float("nan")),
            test="test_adapt_rejects_nan_normalizer_checkpoint")
      for mode in ("SWLS", "frozen")),
    *(fails(row_id, f"{ADAPT} --out OUT", 2, message, edit=edit,
            test="test_adapt_rejects_layers_train_does_not_write")
      for row_id, message, edit in [
          ("relu", "checkpoint CKPT: encoder layer 0 is ",
           lambda doc: doc["encoder"][0].update(activation="relu")),
          ("linear-hidden", "checkpoint CKPT: decoder layer 0 is ",
           lambda doc: doc["decoder"][0].update(activation="linear")),
          ("tanh-head", "checkpoint CKPT: decoder layer 1 is ",
           lambda doc: doc["decoder"][1].update(activation="tanh")),
          ("bias-free", "checkpoint CKPT: encoder layer 1 is ",
           lambda doc: doc.update(   # the head's 2 biases cut from its block
               encoder=[doc["encoder"][0], {**doc["encoder"][1], "bias": False}],
               theta_encoder=doc["theta_encoder"][:-2])),
          ("empty", "checkpoint CKPT: decoder has no layers",
           lambda doc: doc.update(decoder=[]))]),
    # a layer list that is not a list of objects is named, not read as a key
    fails("inspect-encoder-object", "inspect CKPT", 2,
          "error: checkpoint CKPT: encoder is {'a': 1}, not a list of layer objects",
          edit=lambda doc: doc.update(encoder={"a": 1})),
    fails("inspect-decoder-numbers", "inspect CKPT", 2,
          "error: checkpoint CKPT: decoder is [3, 2], not a list of layer objects",
          edit=lambda doc: doc.update(decoder=[3, 2])),
    fails("inspect-dt-negative", "inspect CKPT", 2,
          "model dt must be positive and finite, got -0.025",
          edit=lambda doc: doc.update(dt=-0.025)),
    fails("inspect-loss-weight-nan", "inspect CKPT", 2,
          "loss weight accel must be non-negative and finite, got nan",
          edit=lambda doc: doc["loss_weights"].update(accel=float("nan"))),
    fails("inspect-channels-reordered", "inspect CKPT", 2,
          "checkpoint CKPT: channels is ['delta_f', 'T', 'wr', 'Vy', 'Vx'], not ",
          edit=reverse_channels),
    fails("adapt-channels-reordered", f"{ADAPT} --out OUT", 2,
          "checkpoint CKPT: channels is ['delta_f', 'T', 'wr', 'Vy', 'Vx'], not ",
          edit=reverse_channels),
    fails("inspect-other-loss", "inspect CKPT", 2,
          "checkpoint CKPT: squared_norms is False, not True",
          edit=lambda doc: doc.update(squared_norms=False)),
    fails("checkpoint-nan-A", f"{ADAPT} --out OUT", 2,
          "error: checkpoint CKPT: non-finite model parameters",
          edit=lambda doc: doc["A_row_major"].__setitem__(0, float("nan"))),
    fails("checkpoint-missing-key", ADAPT, 2,
          "error: checkpoint CKPT: missing key 'normalizer_max'",
          edit=lambda doc: doc.pop("normalizer_max")),
    # a nested entry is named with the object that holds it
    fails("inspect-loss-weight-missing", "inspect CKPT", 2,
          "error: checkpoint CKPT: missing key 'accel' in loss_weights",
          edit=lambda doc: doc["loss_weights"].pop("accel")),
    fails("inspect-layer-in-missing", "inspect CKPT", 2,
          "error: checkpoint CKPT: missing key 'in' in encoder layer 0",
          edit=lambda doc: doc["encoder"][0].pop("in")),
    fails("inspect-meta-list", "inspect CKPT", 2,
          "error: checkpoint CKPT: meta is [1, 2], not a JSON object",
          edit=lambda doc: doc.update(meta=[1, 2])),
    # every reader error names the file, so of two checkpoints the bad one is
    # known; here CFG is a checkpoint file of the given text
    fails("inspect-not-json", "inspect CFG", 2,
          "error: checkpoint CFG: Expecting value: line 1 column 1 (char 0)",
          edit="not json\n"),
    fails("compare-dk-not-json", "compare --methods DK,ALDK --checkpoint-dk CFG "
          "--checkpoint-aldk CKPT --scenario step_steer --scenario-duration 2 "
          "--out OUT", 2,
          "error: checkpoint CFG: Expecting value: line 1 column 1 (char 0)",
          edit="not json\n"),
    fails("inspect-top-level-list", "inspect CFG", 2,
          "error: checkpoint CFG: top level is a list, not a JSON object",
          edit="[]\n"),
    # the writer emits dt as a JSON number, and the reader takes nothing else
    fails("inspect-dt-true", "inspect CKPT", 2,
          "error: checkpoint CKPT: dt is True, not a number",
          edit=lambda doc: doc.update(dt=True)),
    fails("inspect-dt-string", "inspect CKPT", 2,
          "error: checkpoint CKPT: dt is '0.025', not a number",
          edit=lambda doc: doc.update(dt="0.025")),
    # so are the weights and the parameter and normalizer entries; a value of
    # the wrong type or length is named by its key and entry
    *(fails(f"inspect-{row_id}", "inspect CKPT", 2, f"error: checkpoint CKPT: {message}",
            edit=edit)
      for row_id, message, edit in [
          ("loss-weight-string", "loss_weights['accel'] is '1', not a number",
           lambda doc: doc["loss_weights"].update(accel="1")),
          ("loss-weight-true", "loss_weights['accel'] is True, not a number",
           lambda doc: doc["loss_weights"].update(accel=True)),
          ("normalizer-string", "normalizer_min[0] is 'a', not a number",
           lambda doc: doc["normalizer_min"].__setitem__(0, "a")),
          ("normalizer-short", "normalizer_max has 4 entries, not 5",
           lambda doc: doc["normalizer_max"].pop()),
          ("theta-string", "theta_encoder[0] is 'a', not a number",
           lambda doc: doc["theta_encoder"].__setitem__(0, "a")),
          ("theta-not-a-list", "theta_encoder is 'abc', not a list of 50 numbers",
           lambda doc: doc.update(theta_encoder="abc")),
          ("normalizer-min-above-max",
           "normalizer channel 1 has min 2.0 and max 1.0; the min must not exceed the max",
           lambda doc: doc.update(normalizer_min=[0.0, 2.0, 0.0, 0.0, 0.0],
                                  normalizer_max=[1.0] * 5)),
          # a JSON integer past the float range names the file
          ("theta-huge-int", "int too large to convert to float",
           lambda doc: doc["theta_encoder"].__setitem__(0, 10 ** 400)),
          ("final-epoch-string",
           "meta['final_epoch'] is 'x', not a non-negative integer",
           lambda doc: doc["meta"].update(final_epoch="x"))]),
    # a missing output directory fails before any input is read
    *(fails(row_id, argv, 2, f"error: {setting}: output directory /nonexistent/dir "
            "does not exist", edit=edit)
      for row_id, argv, setting, edit in [
          ("simulate-out-dir", f"{STEP_STEER} --out /nonexistent/dir/s.csv", "--out",
           None),
          ("train-out-dir", f"train {TRAIN_SETTINGS} --out /nonexistent/dir/m.json",
           "--out", None),
          ("train-log-dir", f"train {TRAIN_SETTINGS} --config CFG --out OUT",
           "CFG: key 'log'", "log = /nonexistent/dir/l.csv\n"),
          ("compare-out-dir", f"{COMPARE} --methods PHYS-BASELINE "
           "--out /nonexistent/dir/cmp", "--out", None),
          ("adapt-history-dir", f"{ADAPT} --out OUT --history /nonexistent/dir/h.csv",
           "--history", None)]),
    # so does an output file path that is a directory; the --log row writes
    # no checkpoint at OUT either
    *(fails(row_id, argv, 2, f"error: {setting}: DIR is a directory")
      for row_id, argv, setting in [
          ("simulate-out-is-dir", f"{STEP_STEER} --out DIR", "--out"),
          ("train-log-is-dir", f"train {TRAIN_SETTINGS} --log DIR --out OUT", "--log"),
          ("adapt-history-is-dir", f"{ADAPT} --history DIR --out OUT", "--history")]),
    # a prefix of a flag, which a config file may not use either
    *(fails(f"abbreviated-{flag}", f"{command} --out OUT", 1,
            "unrecognized arguments: --")
      for flag, command in [
          ("dur", "simulate --scenario step_steer --dur 2"),
          ("epoch", "train --data TRAJ --seed 1 --epoch 1 --hidden 8"),
          ("learn", "train --data TRAJ --seed 1 --epochs 1 --hidden 8 --learn 0.5"),
          ("scenario-dur", "compare --methods PHYS-BASELINE --scenario step_steer "
                           "--scenario-dur 2"),
          ("forget", "adapt --checkpoint CKPT --data TRAJ --mode FFRLS --forget 0.9")]),
    # a key given twice would let the last value win without a word
    fails("config-key-twice", "simulate --scenario step_steer --config CFG --out OUT", 1,
          "CFG: key 'duration' is given twice, on lines 1 and 3",
          edit="duration = 2\ndt = 0.025\nduration = 3\n"),
    fails("config-line-without-equals",
          "simulate --scenario step_steer --config CFG --out OUT", 1,
          "CFG:2: expected 'key = value'", edit="duration = 2\ndt 0.025\n"),
    # compare writes no wall-clock sidecar and takes no setting for one
    fails("compare-timings-file", f"compare {COMPARE_SETTINGS} --config CFG --out OUT",
          1, "CFG: unknown key 'timings' for compare", edit="timings = on\n"),
    fails("compare-timings-flag", f"compare {COMPARE_SETTINGS} --timings on --out OUT",
          1, "unrecognized arguments: --timings"),
    # --help is no failure: it prints the usage to stdout and exits 0
    *(fails(f"{row_id}-help", argv, 0, "usage: koopcar", test="test_help_exits_zero")
      for row_id, argv in [("koopcar", "--help"), ("train", "train --help")]),
    *(row for args in [
        ("train", "--data TRAJ --seed 5 --hidden 8 --feature-dim 2", "epochs", "abc"),
        ("train", TRAIN_SETTINGS, "learning_rate", "fast"),
        ("train", TRAIN_SETTINGS, "accel_loss", "ture"),
        ("compare", COMPARE_SETTINGS, "window", "1.5"),
        ("compare", COMPARE_SETTINGS, "forgetting", "abc"),
        ("adapt", ADAPT_SETTINGS, "window", "1.5"),
        ("adapt", ADAPT_SETTINGS, "forgetting", "x"),
        ("adapt", ADAPT_SETTINGS, "mode", "swls")] for row in config_value(*args)),
]


def rows(test):
    return [row for name, row in FAILURES if name == test]


def assert_exit(workdir, tmp_path, capsys, argv, edit, code, message):
    paths = {"TRAJ": workdir["traj"], "CKPT": workdir["ckpt"],
             "OUT": tmp_path / "out", "CFG": tmp_path / "run.cfg", "DIR": tmp_path}
    if callable(edit):
        doc = json.loads(workdir["ckpt"].read_text())
        edit(doc)
        paths["CKPT"] = tmp_path / "edited.json"
        paths["CKPT"].write_text(json.dumps(doc))
    elif edit:
        paths["CFG"].write_text(edit)
    assert main([str(paths.get(arg, arg)) for arg in shlex.split(argv)]) == code
    err = capsys.readouterr().err
    for name, path in paths.items():
        message = message.replace(name, str(path))
    assert message in err, err
    assert not list(tmp_path.glob("out*"))


ROW = "argv, edit, code, message"


@pytest.mark.parametrize(ROW, rows("test_exit_code"))
def test_exit_code(workdir, tmp_path, capsys, argv, edit, code, message):
    assert_exit(workdir, tmp_path, capsys, argv, edit, code, message)


@pytest.mark.parametrize(ROW, rows("test_simulate_custom_scenario_rejects_unread_keys"))
def test_simulate_custom_scenario_rejects_unread_keys(workdir, tmp_path, capsys, argv,
                                                      edit, code, message):
    assert_exit(workdir, tmp_path, capsys, argv, edit, code, message)


@pytest.mark.parametrize(ROW, rows("test_simulate_checks_input_program_keys"))
def test_simulate_checks_input_program_keys(workdir, tmp_path, capsys, argv, edit,
                                            code, message):
    assert_exit(workdir, tmp_path, capsys, argv, edit, code, message)


@pytest.mark.parametrize(ROW, rows("test_simulate_rejects_degenerate_scenario"))
def test_simulate_rejects_degenerate_scenario(workdir, tmp_path, capsys, argv, edit,
                                              code, message):
    assert_exit(workdir, tmp_path, capsys, argv, edit, code, message)


@pytest.mark.parametrize(ROW, rows("test_simulate_rejects_bad_plant_parameter"))
def test_simulate_rejects_bad_plant_parameter(workdir, tmp_path, capsys, argv, edit,
                                              code, message):
    assert_exit(workdir, tmp_path, capsys, argv, edit, code, message)


@pytest.mark.parametrize(ROW, rows("test_train_rejects_bad_learning_rate"))
def test_train_rejects_bad_learning_rate(workdir, tmp_path, capsys, argv, edit,
                                         code, message):
    assert_exit(workdir, tmp_path, capsys, argv, edit, code, message)


@pytest.mark.parametrize(ROW, rows("test_compare_unknown_method_is_usage_error"))
def test_compare_unknown_method_is_usage_error(workdir, tmp_path, capsys, argv, edit,
                                               code, message):
    assert_exit(workdir, tmp_path, capsys, argv, edit, code, message)


@pytest.mark.parametrize(ROW, rows("test_adapt_rejects_bad_eps_reg"))
def test_adapt_rejects_bad_eps_reg(workdir, tmp_path, capsys, argv, edit, code,
                                   message):
    assert_exit(workdir, tmp_path, capsys, argv, edit, code, message)


@pytest.mark.parametrize(ROW, rows("test_adapt_rejects_nan_normalizer_checkpoint"))
def test_adapt_rejects_nan_normalizer_checkpoint(workdir, tmp_path, capsys, argv,
                                                 edit, code, message):
    assert_exit(workdir, tmp_path, capsys, argv, edit, code, message)


@pytest.mark.parametrize(ROW, rows("test_adapt_rejects_layers_train_does_not_write"))
def test_adapt_rejects_layers_train_does_not_write(workdir, tmp_path, capsys, argv,
                                                   edit, code, message):
    assert_exit(workdir, tmp_path, capsys, argv, edit, code, message)


@pytest.mark.parametrize(ROW, rows("test_help_exits_zero"))
def test_help_exits_zero(capsys, argv, edit, code, message):
    assert main(shlex.split(argv)) == code
    assert message in capsys.readouterr().out


def test_every_row_is_run():
    assert {name for name, _ in FAILURES} <= set(globals())


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_contracted_format(workdir):
    text = workdir["traj"].read_text().splitlines()
    assert text[0] == TRAJECTORY_HEADER
    assert len(text) == 1 + 30 * 40 + 1  # header + duration/dt + 1 snapshots


def test_simulate_deterministic_files(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("simulate", "--scenario", "slalom", "--duration", "10",
                       "--seed", "9", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_unknown_scenario_is_usage_error(tmp_path, capsys):
    code = run_cli("simulate", "--scenario", "moonroad",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 1
    err = capsys.readouterr().err
    assert "moonroad" in err and "slalom" in err  # lists known names


def test_simulate_custom_scenario_config(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("\n".join([
        "scenario.name = custom_eq",
        "scenario.duration = 1.0",
        "scenario.dt = 0.025",
        "initial.Vx = 15.0",
        "input.kind = equilibrium",
        "input.speed = 15.0",
    ]) + "\n")
    out = tmp_path / "custom.csv"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 0
    tr = Trajectory.from_csv(out)
    assert len(tr) == 41
    assert np.all(tr.states == tr.states[0])


# ---------------------------------------------------------------------------
# train

def test_train_outputs_checkpoint_and_log(workdir):
    model = load_checkpoint(workdir["ckpt"])
    assert model.p == 2
    log = (workdir["root"] / "model.json.log.csv").read_text().splitlines()
    assert log[0] == ("epoch,loss_total,loss_linear,loss_recon,loss_pred,"
                      "loss_accel,holdout_total")
    assert len(log) == 4  # header + 3 epochs
    assert log[1].split(",")[0] == "1"


def test_train_accel_flag_changes_only_weight(workdir, tmp_path):
    out_on = tmp_path / "on.json"
    out_off = tmp_path / "off.json"
    for path, flag in ((out_on, "on"), (out_off, "off")):
        assert run_cli("train", "--data", str(workdir["traj"]), "--seed", "5",
                       "--epochs", "2", "--hidden", "8", "--feature-dim", "2",
                       "--accel-loss", flag, "--out", str(path)) == 0
    doc_on = json.loads(out_on.read_text())
    doc_off = json.loads(out_off.read_text())
    assert doc_on["loss_weights"]["accel"] == 1.0
    assert doc_off["loss_weights"]["accel"] == 0.0
    echo_on = doc_on["meta"]["config_echo"]
    echo_off = doc_off["meta"]["config_echo"]
    diff = {k for k in echo_on if echo_on[k] != echo_off.get(k)}
    assert diff == {"accel_loss", "out"}


def test_train_resume_continues_epoch_counter(workdir, tmp_path):
    resumed = tmp_path / "resumed.json"
    log = tmp_path / "resumed.log.csv"
    assert run_cli("train", "--data", str(workdir["traj"]), "--seed", "6",
                   "--epochs", "2", "--resume", str(workdir["ckpt"]),
                   "--log", str(log), "--out", str(resumed)) == 0
    rows = log.read_text().splitlines()
    assert rows[1].split(",")[0] == "4"  # continues after the 3 logged epochs
    assert rows[2].split(",")[0] == "5"


def test_train_resume_rejects_other_sample_time(workdir, tmp_path, capsys):
    coarse = tmp_path / "coarse.csv"
    assert run_cli("simulate", "--scenario", "mixed", "--duration", "20",
                   "--dt", "0.05", "--out", str(coarse)) == 0
    capsys.readouterr()
    out = tmp_path / "resumed.json"
    assert run_cli("train", "--data", str(coarse), "--seed", "6",
                   "--epochs", "1", "--resume", str(workdir["ckpt"]),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "0.05" in err and "0.025" in err
    assert not out.exists()


@pytest.mark.parametrize("given", [("--hidden", "64,64"), ("--feature-dim", "20"),
                                   ("hidden = 64,64",), ("feature_dim = 20",)],
                         ids=["hidden-flag", "feature_dim-flag", "hidden-file",
                              "feature_dim-file"])
def test_train_resume_rejects_other_architecture(workdir, tmp_path, capsys, given):
    # the resumed run trained the checkpoint's 8/2 network and recorded the
    # given one in its echo
    cfg = tmp_path / "arch.cfg"
    cfg.write_text(given[0] + "\n" if len(given) == 1 else "")
    flags = given if len(given) == 2 else ()
    out = tmp_path / "resumed.json"
    assert run_cli("train", "--data", str(workdir["traj"]), "--seed", "6",
                   "--epochs", "1", "--resume", str(workdir["ckpt"]),
                   "--config", str(cfg), *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    key = "hidden" if "hidden" in given[0] else "feature_dim"
    value, saved = ("64,64", "8") if key == "hidden" else ("20", "2")
    assert f"{key} = {value}" in err and f"{key} = {saved}" in err
    assert str(cfg) in err if not flags else flags[0] in err
    assert not out.exists()


def test_train_resume_records_checkpoint_architecture(workdir, tmp_path):
    common = ["train", "--data", str(workdir["traj"]), "--seed", "6",
              "--epochs", "1", "--resume", str(workdir["ckpt"])]
    for name, flags in (("plain", ()), ("same", ("--hidden", "8", "--feature-dim", "2"))):
        out = tmp_path / f"{name}.json"
        assert run_cli(*common, *flags, "--out", str(out)) == 0
        echo = json.loads(out.read_text())["meta"]["config_echo"]
        assert (echo["hidden"], echo["feature_dim"]) == ("8", "2")
        assert load_checkpoint(out).p == 2


def test_train_reports_malformed_dataset_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(TRAJECTORY_HEADER + "\n0,1,2,3,4,5,6,7\nnot,a,row\n")
    code = run_cli("train", "--data", str(bad), "--seed", "1",
                   "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert "row 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# compare

def test_compare_runs_selected_methods_in_order(workdir, tmp_path):
    prefix = tmp_path / "cmp"
    assert run_cli("compare", "--methods", "ALDK,PHYS-BASELINE,ALDK-SWLS",
                   "--checkpoint-aldk", str(workdir["ckpt"]),
                   "--scenario", "step_steer", "--scenario-duration", "20",
                   "--seed", "3", "--out", str(prefix)) == 0
    rows = (tmp_path / "cmp_step_steer.metrics.csv").read_text().splitlines()
    assert rows[0] == "method,channel,max,rmse"
    methods = [r.split(",")[0] for r in rows[1:]]
    assert methods == (["ALDK"] * 3 + ["PHYS-BASELINE"] * 3 + ["ALDK-SWLS"] * 3)


def test_compare_needs_no_seed(workdir, tmp_path):
    common = ["compare", "--methods", "PHYS-BASELINE,ALDK-SWLS",
              "--checkpoint-aldk", str(workdir["ckpt"]),
              "--scenario", "step_steer", "--scenario-duration", "5"]
    (tmp_path / "none").mkdir()   # an existing directory is a valid prefix
    assert run_cli(*common, "--out", str(tmp_path / "none") + "/") == 0
    assert run_cli(*common, "--seed", "3", "--out", str(tmp_path / "seed3")) == 0
    for ext in ("table.txt", "metrics.csv", "series.npy"):
        assert ((tmp_path / "none" / f"_step_steer.{ext}").read_bytes()
                == (tmp_path / f"seed3_step_steer.{ext}").read_bytes())


def test_compare_method_names_match_in_any_case(workdir, tmp_path):
    common = ["--checkpoint-aldk", str(workdir["ckpt"]), "--scenario", "step_steer",
              "--scenario-duration", "5", "--window", "20,40"]
    for tag, methods in (("upper", "PHYS-BASELINE,ALDK-SWLS"),
                         ("lower", "phys-baseline,aldk-swls")):
        assert run_cli("compare", "--methods", methods, *common,
                       "--out", str(tmp_path / tag)) == 0

    def lowered(text):   # the names as given; the -M<m> suffix keeps its case
        return text.replace("PHYS-BASELINE", "phys-baseline").replace(
            "ALDK-SWLS", "aldk-swls")

    for ext in ("table.txt", "metrics.csv"):
        upper = (tmp_path / f"upper_step_steer.{ext}").read_text()
        lower = (tmp_path / f"lower_step_steer.{ext}").read_text()
        assert lower == lowered(upper)
    upper, lower = (np.load(tmp_path / f"{tag}_step_steer.series.npy",
                            allow_pickle=False) for tag in ("upper", "lower"))
    assert lower.dtype.names == tuple(map(lowered, upper.dtype.names))
    for name in upper.dtype.names:
        assert np.array_equal(lower[lowered(name)], upper[name])
    assert list(report_blocks(tmp_path / "lower_step_steer.metrics.csv")) == [
        "phys-baseline", "aldk-swls-M20", "aldk-swls-M40"]


def report_blocks(path):
    """method -> the lines of a metrics file, the method column cut."""
    blocks = {}
    for line in path.read_text().splitlines()[1:]:
        method, rest = line.split(",", 1)
        blocks.setdefault(method, []).append(rest)
    return blocks


def test_compare_window_sweep_adds_one_swls_row_per_length(workdir, tmp_path, capsys):
    assert run_cli("compare", "--methods", "ALDK,ALDK-SWLS,PHYS-BASELINE",
                   "--checkpoint-aldk", str(workdir["ckpt"]),
                   "--scenario", "step_steer", "--scenario-duration", "15",
                   "--window", "25,50", "--out", str(tmp_path / "sw")) == 0
    assert "  window = 25,50\n" in capsys.readouterr().out
    # one report set for the scenario, whatever the number of lengths
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"sw_step_steer.{ext}" for ext in ("metrics.csv", "series.npy", "table.txt")]
    assert list(report_blocks(tmp_path / "sw_step_steer.metrics.csv")) == [
        "ALDK", "ALDK-SWLS-M25", "ALDK-SWLS-M50", "PHYS-BASELINE"]


def test_compare_window_sweep_simulates_each_scenario_once(
        workdir, tmp_path, monkeypatch):
    calls = []
    simulate = scenarios.run_scenario

    def counting(scenario):
        calls.append(scenario.name)
        return simulate(scenario)

    monkeypatch.setattr(scenarios, "run_scenario", counting)
    monkeypatch.setattr(evaluation, "run_scenario", counting)
    common = ["compare", "--methods", "PHYS-BASELINE,ALDK-SWLS",
              "--checkpoint-aldk", str(workdir["ckpt"]),
              "--scenario", "suite", "--scenario-duration", "5", "--seed", "3"]
    assert run_cli(*common, "--window", "25,50", "--out", str(tmp_path / "sw")) == 0
    names = [s.name for s in evaluation.scenario_suite(base_duration=5.0)]
    assert calls == names
    for m_len in (25, 50):
        assert run_cli(*common, "--window", str(m_len),
                       "--out", str(tmp_path / f"plain{m_len}")) == 0
    # each length's SWLS row and series field are a plain run's at that length
    for name in names:
        swept = report_blocks(tmp_path / f"sw_{name}.metrics.csv")
        swept_series = np.load(tmp_path / f"sw_{name}.series.npy", allow_pickle=False)
        assert list(swept) == ["PHYS-BASELINE", "ALDK-SWLS-M25", "ALDK-SWLS-M50"]
        assert list(swept_series.dtype.names) == list(swept)
        for m_len in (25, 50):
            plain = report_blocks(tmp_path / f"plain{m_len}_{name}.metrics.csv")
            plain_series = np.load(tmp_path / f"plain{m_len}_{name}.series.npy",
                                   allow_pickle=False)
            assert swept[f"ALDK-SWLS-M{m_len}"] == plain["ALDK-SWLS"]
            assert swept["PHYS-BASELINE"] == plain["PHYS-BASELINE"]
            assert np.array_equal(swept_series[f"ALDK-SWLS-M{m_len}"],
                                  plain_series["ALDK-SWLS"])
            assert np.array_equal(swept_series["PHYS-BASELINE"],
                                  plain_series["PHYS-BASELINE"])


def test_compare_window_is_read_only_by_swls(workdir, tmp_path):
    # RLS reads no window, so a length SWLS rejects changes nothing for it
    for window in ("0", "100"):
        assert run_cli("compare", "--methods", "ALDK-RLS",
                       "--checkpoint-aldk", str(workdir["ckpt"]),
                       "--scenario", "step_steer", "--scenario-duration", "2",
                       "--window", window, "--out", str(tmp_path / f"w{window}")) == 0
    for ext in ("table.txt", "metrics.csv", "series.npy"):
        assert ((tmp_path / f"w0_step_steer.{ext}").read_bytes()
                == (tmp_path / f"w100_step_steer.{ext}").read_bytes())


# ---------------------------------------------------------------------------
# adapt + inspect

def test_adapt_writes_history_and_metrics(workdir, tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    assert run_cli("adapt", "--checkpoint", str(workdir["ckpt"]),
                   "--data", str(workdir["traj"]), "--mode", "SWLS",
                   "--window", "50", "--history", str(hist)) == 0
    out = capsys.readouterr().out
    assert "rmse" in out
    lines = hist.read_text().splitlines()
    assert lines[0] == "k,frob_dA,frob_dB,cond_gram"


def test_adapt_ffrls_constant_input_finishes_finite(workdir, tmp_path, capsys):
    # a constant regressor leaves all but one direction unexcited; the P-form
    # covariance overflowed there near step 1,010
    k = 1100
    Trajectory(t=0.025 * np.arange(k), states=np.tile([10.0, 0.0, 0.0], (k, 1)),
               inputs=np.tile([100.0, 0.0], (k, 1)),
               accels=np.zeros((k, 2))).to_csv(tmp_path / "const.csv")
    out = tmp_path / "pred.csv"
    assert run_cli("adapt", "--checkpoint", str(workdir["ckpt"]),
                   "--data", str(tmp_path / "const.csv"), "--mode", "FFRLS",
                   "--forgetting", "0.5", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (k - 1, 6)
    assert np.isfinite(rows).all()
    # every step after the first, which the seed estimate predicts
    assert np.abs(rows[1:, :3] - rows[1:, 3:]).max() < 1e-3


def test_adapt_eps_reg_zero_runs_the_streaming_adapter(workdir, tmp_path):
    # --eps-reg 0 is the command line's one path into `init`/`update`
    out, want = tmp_path / "pred.csv", tmp_path / "want.csv"
    assert run_cli("adapt", "--checkpoint", str(workdir["ckpt"]),
                   "--data", str(workdir["traj"]), "--eps-reg", "0",
                   "--window", "30", "--out", str(out)) == 0
    write_predictions(want, adapt_run(load_checkpoint(workdir["ckpt"]),
                                      Trajectory.from_csv(workdir["traj"]),
                                      AdapterConfig(window=30, eps_reg=0.0)))
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("mode", ["SWLS", "RLS", "FFRLS"])
def test_adapt_history_never_changes_the_predictions(workdir, tmp_path, mode):
    outs = []
    for history in ([], ["--history", str(tmp_path / "hist.csv")]):
        outs.append(tmp_path / f"pred{len(history)}.csv")
        assert run_cli("adapt", "--checkpoint", str(workdir["ckpt"]),
                       "--data", str(workdir["traj"]), "--mode", mode,
                       "--forgetting", "0.95", "--out", str(outs[-1]),
                       *history) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (tmp_path / "hist.csv").exists()


def test_adapt_rejects_sample_time_mismatch(workdir, tmp_path, capsys):
    coarse = tmp_path / "coarse.csv"
    assert run_cli("simulate", "--scenario", "mixed", "--duration", "5",
                   "--dt", "0.05", "--out", str(coarse)) == 0
    assert run_cli("adapt", "--checkpoint", str(workdir["ckpt"]),
                   "--data", str(coarse), "--mode", "SWLS") == 2
    assert "sample time" in capsys.readouterr().err


def test_adapt_rejects_gapped_trajectory(workdir, tmp_path, capsys):
    # every tenth snapshot dropped: the first interval is still the model's dt
    lines = workdir["traj"].read_text().splitlines()
    gapped = tmp_path / "gapped.csv"
    gapped.write_text("\n".join(lines[:1] + [line for k, line in
                                              enumerate(lines[1:], 1)
                                              if k % 10]) + "\n")
    out = tmp_path / "pred.csv"
    assert run_cli("adapt", "--checkpoint", str(workdir["ckpt"]),
                   "--data", str(gapped), "--mode", "SWLS",
                   "--out", str(out)) == 2
    assert "not uniformly spaced" in capsys.readouterr().err
    assert not out.exists()


def test_compare_rejects_sample_time_mismatch(tmp_path, capsys):
    coarse = tmp_path / "coarse.csv"
    assert run_cli("simulate", "--scenario", "mixed", "--duration", "10",
                   "--dt", "0.05", "--out", str(coarse)) == 0
    ckpt = tmp_path / "coarse.json"
    assert run_cli("train", "--data", str(coarse), "--seed", "5",
                   "--epochs", "1", "--hidden", "8", "--feature-dim", "2",
                   "--out", str(ckpt)) == 0
    capsys.readouterr()
    assert run_cli("compare", "--methods", "ALDK",
                   "--checkpoint-aldk", str(ckpt), "--scenario", "step_steer",
                   "--scenario-duration", "5", "--seed", "3",
                   "--out", str(tmp_path / "cmp")) == 2
    assert "sample time" in capsys.readouterr().err


def test_inspect_summarizes_checkpoint(workdir, tmp_path, capsys):
    assert run_cli("inspect", str(workdir["ckpt"])) == 0
    out = capsys.readouterr().out
    assert "dims: n=3 m=2 p=2" in out
    assert "  encoder: 3 -> 8 -> 2\n  decoder: 2 -> 8 -> 3\n" in out
    assert "range Vx" in out
    # a network without hidden layers is its widths; no activation label
    ckpt = tmp_path / "linear.json"
    assert run_cli("train", "--data", str(workdir["traj"]), "--seed", "5",
                   "--epochs", "1", "--hidden", "", "--feature-dim", "2",
                   "--out", str(ckpt)) == 0
    capsys.readouterr()
    assert run_cli("inspect", str(ckpt)) == 0
    out = capsys.readouterr().out
    assert "  encoder: 3 -> 2\n  decoder: 2 -> 3\n" in out
    assert "hidden" not in out


# ---------------------------------------------------------------------------
# config machinery

def test_forgetting_default_is_the_adapter_config_default():
    parser = build_parser()
    for command in ("compare", "adapt"):
        args = parser.parse_args([command])
        assert args.forgetting == AdapterConfig.forgetting == 0.95


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nepochs = 7\n\nhidden = 16,16  # inline\n")
    parsed = read_config_file(cfg)
    assert parsed == {"epochs": "7", "hidden": "16,16"}


def test_resolution_precedence(workdir, tmp_path):
    # flag > config file > default, read back from the checkpoint's echo
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"data = {workdir['traj']}\nseed = 5\nepochs = 1\n"
                   "hidden = 8\nfeature_dim = 2\nbatch_size = 64\n")
    out = tmp_path / "precedence.json"
    assert run_cli("train", "--config", str(cfg), "--epochs", "2",
                   "--out", str(out)) == 0
    echo = json.loads(out.read_text())["meta"]["config_echo"]
    assert echo["epochs"] == "2"              # the flag over the file
    assert echo["batch_size"] == "64"         # the file over the default
    assert echo["learning_rate"] == "0.001"   # the default
    assert "log" not in echo and "resume" not in echo   # unset, no default


def test_unknown_config_key_is_usage_error(workdir, tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"data = {workdir['traj']}\nseed = 5\nepochs = 1\n"
                   "hidden = 8\nfeature_dim = 2\nlearning_rat = 0.01\n")
    out = tmp_path / "typo.json"
    assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "'learning_rat'" in err and str(cfg) in err
    assert not out.exists()
    # keys of another subcommand are unknown too; flag dests are known
    cfg.write_text("window = 50\n")
    assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 1
    cfg.write_text(f"checkpoint.aldk = {workdir['ckpt']}\neps_reg = 1e-6\n"
                   "scenario_duration = 5\n")
    assert run_cli("compare", "--config", str(cfg), "--methods", "ALDK-SWLS",
                   "--scenario", "step_steer", "--out", str(tmp_path / "c")) == 0


def test_flag_overrides_config_file(workdir, tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"data = {workdir['traj']}\nseed = 5\nepochs = 1\n"
                   "hidden = 8\nfeature_dim = 2\n")
    out = tmp_path / "override.json"
    assert run_cli("train", "--config", str(cfg), "--epochs", "2",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["config_echo"]["epochs"] == "2"


def test_echoes_resolved_config(workdir, tmp_path, capsys):
    run_cli("simulate", "--scenario", "slalom", "--duration", "5",
            "--out", str(tmp_path / "echo.csv"))
    out = capsys.readouterr().out
    assert "[simulate] resolved config:" in out
    assert "scenario = slalom" in out


def test_config_keys_are_the_flag_dests(tmp_path, capsys):
    # drift guard: a config file sets exactly what the flags set (the custom
    # scenario keys of simulate aside); the last eight keys were file-only
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    dests = {command: {a.dest for a in parser._actions if a.option_strings}
             - {"help", "config"} for command, parser in action.choices.items()}
    candidates = set().union(*dests.values()) | {
        "holdout_fraction", "warm_start", "w_linear", "w_recon", "w_pred",
        "w_accel", "squared_norms", "eps_reg"}
    cfg = tmp_path / "probe.cfg"
    for command in ("simulate", "train", "compare", "adapt"):
        accepted = set()
        for key in sorted(candidates):
            cfg.write_text(f"{key} = 1\nnot_a_key = 1\n")
            assert run_cli(command, "--config", str(cfg)) == 1
            err = capsys.readouterr().err
            assert "unknown key" in err, err
            if "'not_a_key'" in err:
                accepted.add(key)
        assert accepted == dests[command], command


def test_config_negative_value_is_a_value(tmp_path):
    # a file value is handed to argparse as --dm=-170, never as an option
    cfg = tmp_path / "drift.cfg"
    cfg.write_text("scenario = step_steer\nduration = 2\ndm = -170\n")
    by_file, by_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(by_file)) == 0
    assert run_cli("simulate", "--scenario", "step_steer", "--duration", "2",
                   "--dm", "-170", "--out", str(by_flag)) == 0
    assert by_file.read_bytes() == by_flag.read_bytes()
