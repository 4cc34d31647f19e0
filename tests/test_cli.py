import json

import numpy as np
import pytest

from koopcar import evaluation, scenarios
from koopcar.cli import main, read_config_file, resolve
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


def test_simulate_requires_out(capsys):
    assert run_cli("simulate", "--scenario", "slalom") == 1


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


def test_simulate_rejects_torque_beyond_max_torque(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("\n".join([
        "scenario.name = custom_eq",
        "scenario.duration = 1.0",
        "scenario.dt = 0.025",
        "initial.Vx = 15.0",
        "input.kind = equilibrium",
        "input.speed = 15.0",
        "params.max_torque = 50.0",   # below the ~127 N m that holds 15 m/s
    ]) + "\n")
    out = tmp_path / "custom.csv"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 2
    assert "max_torque at step 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_steering_beyond_max_steer(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("\n".join([
        "scenario.duration = 1.0",
        "scenario.dt = 0.025",
        "initial.Vx = 15.0",
        "input.kind = constant",
        "input.torque = 300.0",
        "input.steer = 1.0",          # beyond MAX_STEER = pi/4
    ]) + "\n")
    out = tmp_path / "custom.csv"
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == 2
    assert "MAX_STEER at step 0 (t=0.000 s)" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train

def test_train_outputs_checkpoint_and_log(workdir):
    model = load_checkpoint(workdir["ckpt"])
    assert model.dims.p == 2
    log = (workdir["root"] / "model.json.log.csv").read_text().splitlines()
    assert log[0] == ("epoch,loss_total,loss_linear,loss_recon,loss_pred,"
                      "loss_accel,holdout_total")
    assert len(log) == 4  # header + 3 epochs
    assert log[1].split(",")[0] == "1"


def test_train_requires_seed(workdir, capsys):
    code = run_cli("train", "--data", str(workdir["traj"]),
                   "--out", str(workdir["root"] / "nope.json"))
    assert code == 1
    assert "seed" in capsys.readouterr().err


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
    assert run_cli(*common, "--out", str(tmp_path / "none")) == 0
    assert run_cli(*common, "--seed", "3", "--out", str(tmp_path / "seed3")) == 0
    for ext in ("table.txt", "metrics.csv", "series.csv"):
        assert ((tmp_path / f"none_step_steer.{ext}").read_bytes()
                == (tmp_path / f"seed3_step_steer.{ext}").read_bytes())


def test_compare_missing_checkpoint_is_runtime_error(tmp_path, capsys):
    code = run_cli("compare", "--methods", "ALDK",
                   "--checkpoint-aldk", str(tmp_path / "ghost.json"),
                   "--scenario", "step_steer", "--seed", "3",
                   "--out", str(tmp_path / "x"))
    assert code == 2
    assert "ALDK" in capsys.readouterr().err


def test_compare_requires_known_scenario(workdir, tmp_path):
    assert run_cli("compare", "--methods", "ALDK",
                   "--checkpoint-aldk", str(workdir["ckpt"]),
                   "--scenario", "marsroad", "--seed", "3",
                   "--out", str(tmp_path / "x")) == 1


def test_compare_timings_write_sidecars_only(workdir, tmp_path):
    methods = ["PHYS-BASELINE", "ALDK", "ALDK-SWLS"]
    for timings in ("off", "on"):
        (tmp_path / timings).mkdir()
        assert run_cli("compare", "--methods", ",".join(methods),
                       "--checkpoint-aldk", str(workdir["ckpt"]),
                       "--scenario", "suite", "--scenario-duration", "5",
                       "--seed", "3", "--timings", timings,
                       "--out", str(tmp_path / timings / "cmp")) == 0
    off = sorted(p.name for p in (tmp_path / "off").iterdir())
    on = sorted(p.name for p in (tmp_path / "on").iterdir())
    stems = sorted(name[:-len(".table.txt")] for name in off
                   if name.endswith(".table.txt"))
    assert len(stems) == 7 and len(off) == 3 * 7
    assert on == sorted(off + [stem + ".timing.csv" for stem in stems])
    for name in off:
        assert (tmp_path / "on" / name).read_bytes() == (
            tmp_path / "off" / name).read_bytes()
    for stem in stems:
        rows = (tmp_path / "on" / (stem + ".timing.csv")).read_text().splitlines()
        assert rows[0] == "method,runtime_s"
        assert [r.split(",")[0] for r in rows[1:]] == methods
        assert all(float(r.split(",")[1]) >= 0.0 for r in rows[1:])


def test_compare_window_sweep_emits_summary(workdir, tmp_path):
    prefix = tmp_path / "sw"
    assert run_cli("compare", "--methods", "ALDK-SWLS",
                   "--checkpoint-aldk", str(workdir["ckpt"]),
                   "--scenario", "step_steer", "--scenario-duration", "15",
                   "--sweep-window", "25,50", "--seed", "3",
                   "--out", str(prefix)) == 0
    assert (tmp_path / "sw_step_steer_M25.metrics.csv").exists()
    assert (tmp_path / "sw_step_steer_M50.metrics.csv").exists()
    summary = (tmp_path / "sw_sweep.csv").read_text().splitlines()
    assert summary[0] == "M,scenario,channel,rmse"
    assert len(summary) == 1 + 2 * 3  # two windows x three channels


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
    assert run_cli(*common, "--sweep-window", "25,50",
                   "--out", str(tmp_path / "sw")) == 0
    assert len(calls) == 7
    for m_len in (25, 50):
        plain = tmp_path / f"plain{m_len}"
        assert run_cli(*common, "--window", str(m_len), "--out", str(plain)) == 0
        names = sorted(p.name[len(plain.name):] for p in tmp_path.iterdir()
                       if p.name.startswith(plain.name + "_"))
        assert len(names) == 3 * 7
        for name in names:
            stem, ext = name.split(".", 1)
            swept = tmp_path / f"sw{stem}_M{m_len}.{ext}"
            assert swept.read_bytes() == (tmp_path / (plain.name + name)).read_bytes()


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


def test_inspect_summarizes_checkpoint(workdir, capsys):
    assert run_cli("inspect", str(workdir["ckpt"])) == 0
    out = capsys.readouterr().out
    assert "dims: n=3 m=2 p=2" in out
    assert "range Vx" in out


# ---------------------------------------------------------------------------
# config machinery

def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nepochs = 7\n\nhidden = 16,16  # inline\n")
    parsed = read_config_file(cfg)
    assert parsed == {"epochs": "7", "hidden": "16,16"}


def test_resolution_precedence():
    resolved = resolve({"a": "1", "b": "1"}, {"b": "2", "c": "2"},
                       {"c": "3", "d": None})
    assert resolved == {"a": "1", "b": "2", "c": "3"}


def test_unknown_config_key_is_usage_error(workdir, tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(f"data = {workdir['traj']}\nseed = 5\nepochs = 1\n"
                   "hidden = 8\nfeature_dim = 2\nlearning_rat = 0.01\n")
    out = tmp_path / "typo.json"
    assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "'learning_rat'" in err and str(cfg) in err
    assert not out.exists()
    # keys of another subcommand are unknown too; flag dests and defaults are known
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
