import re

import numpy as np
import pytest

from koopcar import adapt
from koopcar.adapt import AdapterConfig, adapt_run
from koopcar.evaluation import (ChannelMetrics, ComparisonReport, MethodResult,
                                MethodSpec, baseline_params, error_series,
                                format_report_table, metrics,
                                physics_baseline, run_comparison, run_method,
                                scenario_suite, write_report_files)
from koopcar.koopman import one_step_predictions
from koopcar.scenarios import (InputProgram, Scenario, make_scenario,
                               run_scenario)
from koopcar.vehicle import (MagicFormulaParams, ModelValidityError,
                             Trajectory, VehicleParams, VehicleState)
from dataclasses import replace


# ---------------------------------------------------------------------------
# metrics

def test_metrics_zero_for_perfect_prediction():
    truth = np.random.default_rng(0).normal(size=(20, 3))
    m = metrics(truth, truth)
    assert m.max_abs == (0.0, 0.0, 0.0)
    assert m.rmse == (0.0, 0.0, 0.0)


def test_metrics_constant_error_collapses_max_and_rmse():
    truth = np.zeros((10, 3))
    pred = truth + np.array([0.5, -0.2, 0.1])
    m = metrics(pred, truth)
    for ci, scale in enumerate((3.6, 3.6, 180.0 / np.pi)):
        expect = abs([0.5, -0.2, 0.1][ci]) * scale
        assert abs(m.max_abs[ci] - expect) < 1e-12
        assert abs(m.rmse[ci] - expect) < 1e-12


def test_metrics_direct_arithmetic_oracle():
    # errors [3, 4] on one channel: max 4, rmse sqrt(12.5)
    truth = np.zeros((2, 3))
    pred = np.zeros((2, 3))
    pred[0, 0] = 3.0 / 3.6  # cancel the km/h conversion
    pred[1, 0] = 4.0 / 3.6
    m = metrics(pred, truth)
    assert abs(m.max_abs[0] - 4.0) < 1e-12
    assert abs(m.rmse[0] - np.sqrt(12.5)) < 1e-12


def test_metrics_unit_conversion_exact():
    truth = np.zeros((5, 3))
    pred = truth.copy()
    pred[:, 0] += 1.0  # 1 m/s constant error
    assert metrics(pred, truth).max_abs[0] == 3.6


def test_metrics_validation():
    with pytest.raises(ValueError):
        metrics(np.zeros((3, 3)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        metrics(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        ChannelMetrics(max_abs=(1.0, 1.0, 1.0), rmse=(2.0, 0.5, 0.5))


def test_rmse_never_exceeds_max():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pred = rng.normal(size=(50, 3))
        truth = rng.normal(size=(50, 3))
        m = metrics(pred, truth)
        for ci in range(3):
            assert m.rmse[ci] <= m.max_abs[ci] + 1e-12


# ---------------------------------------------------------------------------
# physics baseline

def test_baseline_with_true_params_is_nearly_exact(short_mixed):
    plant = make_scenario("mixed").params
    preds = physics_baseline(plant, short_mixed)
    m = metrics(preds, short_mixed.states[1:])
    assert max(m.rmse) < 1e-9  # identical model, identical integrator


def test_baseline_params_drop_resistances():
    assumed = baseline_params()
    assert assumed.drag == 0.0 and assumed.roll == 0.0
    assert assumed.m == VehicleParams().m


def test_softer_tires_only_hurt_lateral_channels():
    plant = VehicleParams(mu=0.85)
    soft = replace(plant, tire=MagicFormulaParams(b_stiff=9.0))  # -10%
    straight = run_scenario(Scenario(
        name="straight", duration=20.0, dt=0.025,
        initial_state=VehicleState(15.0),
        input_program=InputProgram.make("equilibrium", speed=15.0),
        params=plant))
    exact = physics_baseline(plant, straight)
    softer = physics_baseline(soft, straight)
    assert np.array_equal(exact[:, 0], softer[:, 0])  # Vx untouched
    cornering = run_scenario(make_scenario("step_steer"))
    err = physics_baseline(soft, cornering) - cornering.states[1:]
    assert np.abs(err[:, 1]).max() > 0.0
    assert np.abs(err[:, 2]).max() > 0.0


def test_heavier_assumed_mass_degrades_vx(short_mixed):
    plant = make_scenario("mixed").params
    matched = metrics(physics_baseline(plant, short_mixed),
                      short_mixed.states[1:])
    heavy = metrics(physics_baseline(plant.perturbed(dm=160.0), short_mixed),
                    short_mixed.states[1:])
    assert heavy.rmse[0] > matched.rmse[0]


def _with_vx(tr, rows, value):
    states = tr.states.copy()
    states[rows, 0] = value
    return Trajectory(t=tr.t, states=states, inputs=tr.inputs, accels=tr.accels)


def test_baseline_rejects_first_row_at_validity_floor(short_mixed):
    plant = make_scenario("mixed").params
    low = _with_vx(short_mixed, [200, 123], 0.1)
    with pytest.raises(ModelValidityError, match=r"row 123 \(t=3\.075 s\)"):
        physics_baseline(plant, low)
    with pytest.raises(ModelValidityError, match="row 7"):
        physics_baseline(plant, _with_vx(short_mixed, [7], np.nan))
    # the last snapshot is only a target, never a source row
    last = _with_vx(short_mixed, [len(short_mixed) - 1], 0.05)
    assert physics_baseline(plant, last).shape == (len(short_mixed) - 1, 3)


def test_run_method_rejects_sample_time_mismatch(quick_model):
    coarse = run_scenario(make_scenario("mixed", duration=5.0, dt=0.05))
    for spec in (MethodSpec(name="ALDK", model=quick_model),
                 MethodSpec(name="ALDK", model=quick_model,
                            adapter=AdapterConfig(mode="SWLS", window=20))):
        with pytest.raises(ValueError, match="sample time"):
            run_method(spec, coarse)
    phys = MethodSpec(name="PHYS-BASELINE")
    assert run_method(phys, coarse).shape == (len(coarse) - 1, 3)


def test_run_method_dispatches_on_the_spec_not_its_name(quick_model, short_mixed):
    # the name is only a label: no model runs the physics baseline under
    # `baseline_params()`, a model without an adapter is the frozen run, the
    # trained A and B bit for bit
    phys = run_method(MethodSpec(name="ALDK"), short_mixed)
    assert np.array_equal(phys, physics_baseline(baseline_params(), short_mixed))
    plain = run_method(MethodSpec(name="PHYS-X", model=quick_model), short_mixed)
    frozen = adapt_run(quick_model, short_mixed, AdapterConfig(mode="frozen"))
    assert np.array_equal(plain, frozen.predictions)
    assert np.array_equal(plain, one_step_predictions(
        quick_model, short_mixed.states[:-1], short_mixed.inputs[:-1]))


def test_method_spec_adapter_needs_a_model(quick_model):
    for mode in ("SWLS", "RLS", "FFRLS"):
        with pytest.raises(ValueError, match="^m1: an adapter needs a model$"):
            MethodSpec(name="m1", adapter=AdapterConfig(mode=mode))
    MethodSpec(name="m1", adapter=AdapterConfig(mode="frozen"))
    MethodSpec(name="m1", model=quick_model, adapter=AdapterConfig(mode="SWLS"))


def test_metrics_rejects_non_finite_predictions():
    truth = np.zeros((5, 3))
    pred = truth.copy()
    pred[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite prediction at row 3"):
        metrics(pred, truth)


def test_comparison_names_method_and_scenario_of_nan_predictions(
        monkeypatch, quick_model):
    # a NaN max and RMSE would pass `ChannelMetrics`' `rmse > max` test
    monkeypatch.setattr(adapt, "one_step_predictions",
                        lambda model, states, inputs: np.full_like(states, np.nan))
    scenario = make_scenario("mixed", duration=5.0)
    with pytest.raises(ValueError, match=r"^ALDK on mixed: non-finite "
                                         r"prediction at row 0$"):
        run_comparison(comparison_methods(quick_model), scenario)


# ---------------------------------------------------------------------------
# comparisons

def comparison_methods(model):
    return [
        MethodSpec(name="PHYS-BASELINE"),
        MethodSpec(name="ALDK", model=model),
        MethodSpec(name="ALDK-SWLS", model=model,
                   adapter=AdapterConfig(mode="SWLS", window=100)),
    ]


def test_identical_specs_give_identical_rows(quick_model):
    scenario = make_scenario("mixed", duration=20.0)
    methods = [MethodSpec(name="ALDK", model=quick_model),
               MethodSpec(name="ALDK-2", model=quick_model)]
    report = run_comparison(methods, scenario)
    assert report.results[0].metrics == report.results[1].metrics


def test_method_names_must_be_unique(quick_model):
    methods = [MethodSpec(name="ALDK", model=quick_model)] * 2
    with pytest.raises(ValueError):
        run_comparison(methods, make_scenario("mixed", duration=5.0))


def test_comparison_shares_one_trajectory_and_orders_rows(quick_model):
    scenario = make_scenario("mixed", duration=30.0)
    report = run_comparison(comparison_methods(quick_model), scenario)
    names = [r.name for r in report.results]
    assert names == ["PHYS-BASELINE", "ALDK", "ALDK-SWLS"]
    for res in report.results:
        for ci in range(3):
            assert res.metrics.rmse[ci] <= res.metrics.max_abs[ci] + 1e-12


def test_report_files_are_deterministic(tmp_path, quick_model):
    scenario = make_scenario("mixed", duration=20.0)
    outs = []
    for tag in ("a", "b"):
        report = run_comparison(comparison_methods(quick_model), scenario)
        paths = [tmp_path / f"{tag}.table.txt", tmp_path / f"{tag}.metrics.csv",
                 tmp_path / f"{tag}.series.npy"]
        write_report_files(report, *paths)
        outs.append([p.read_bytes() for p in paths])
    assert outs[0] == outs[1]


def test_report_series_is_one_field_per_method(tmp_path, quick_model):
    scenario = make_scenario("mixed", duration=10.0)
    methods = comparison_methods(quick_model)
    # a series path without the .npy suffix is written exactly as given
    paths = [tmp_path / "r.table.txt", tmp_path / "r.metrics.csv",
             tmp_path / "r.series"]
    write_report_files(run_comparison(methods, scenario), *paths)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "r.metrics.csv", "r.series", "r.table.txt"]
    series = np.load(paths[2], allow_pickle=False)
    tr = run_scenario(scenario)
    assert series.shape == (len(tr) - 1,)
    rows = paths[1].read_text().splitlines()[1:]
    assert list(series.dtype.names) == [row.split(",")[0] for row in rows[::3]]
    for spec in methods:
        assert series.dtype[spec.name] == np.dtype((np.float64, (3,)))
        errors = error_series(run_method(spec, tr), tr.states[1:])
        assert series[spec.name].tobytes() == errors.tobytes()


def test_report_table_columns_line_up_past_16_characters():
    scores = ChannelMetrics(max_abs=(1.0, 2.0, 3.0), rmse=(0.5, 1.0, 1.5))
    report = ComparisonReport("step_steer", "0" * 16, [
        MethodResult(name, scores, np.zeros((1, 3)))
        for name in ("ALDK", "ALDK-SWLS-M100000")])   # the second is 17 wide
    header, sub, *rows = format_report_table(report).splitlines()[1:]
    ends = [header.index(label) + len(label)
            for label in ("Vx (km/h)", "Vy (km/h)", "wr (deg/s)")]
    assert [m.end() for m in re.finditer(r"\S+", sub)] == ends
    for row in rows:
        assert [m.end() for m in re.finditer(r"\S+", row)][1:] == ends


def test_report_table_layout(quick_model):
    report = run_comparison(comparison_methods(quick_model),
                            make_scenario("mixed", duration=10.0))
    table = format_report_table(report)
    assert "Max/RMSE" in table
    assert "PHYS-BASELINE" in table and "ALDK-SWLS" in table
    assert "Vx (km/h)" in table and "wr (deg/s)" in table


def test_error_series_alignment(quick_model):
    tr = run_scenario(make_scenario("mixed", duration=10.0))
    preds = run_method(MethodSpec(name="ALDK", model=quick_model), tr)
    series = error_series(preds, tr.states[1:])
    assert series.shape == (len(tr) - 1, 3)


# ---------------------------------------------------------------------------
# scenario suite

def test_suite_contains_distinct_scenarios():
    suite = scenario_suite()
    assert len(suite) >= 6
    assert len(set(suite)) == len(suite)


def test_suite_slalom_period_is_100s():
    suite = scenario_suite()
    slalom = next(s for s in suite if s.name == "slalom")
    assert slalom.input_program.arg_dict()["period"] == 100.0
    t = slalom.time_grid()
    _, steer = slalom.input_program.sample(t, slalom.params)
    k = int(round(100.0 / slalom.dt))
    assert np.allclose(steer[:-k], steer[k:], atol=1e-12)
    assert slalom.params.mu == 0.6


def test_suite_mass_variants_differ_only_in_mass():
    suite = scenario_suite()
    nominal = suite[0]
    heavy = next(s for s in suite if "+160" in s.name)
    assert heavy.params.m == nominal.params.m + 160.0
    assert heavy.params.Iz == nominal.params.Iz
    assert heavy.params.tire == nominal.params.tire
    assert heavy.input_program == nominal.input_program
