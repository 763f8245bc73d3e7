import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fisherctl import ControlGrid, get_model, measure, propagate, tr_inv
from fisherctl.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, SWEEP_COLUMNS, main


def read_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


def run(argv):
    return main(argv)


class TestSweep:
    def test_csv_schema_and_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--model", "xxz", "--t-grid", "0.4,0.8,1.2",
                    "--max-iters", "8", "--steps-per-unit", "20",
                    "--seed", "1", "--out", str(out), "--reproducible"])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert tuple(rows[0].keys()) == SWEEP_COLUMNS
        assert [float(r["t"]) for r in rows] == [0.4, 0.8, 1.2]

    def test_reproducible_outputs_identical(self, tmp_path):
        args = ["sweep", "--model", "xxz", "--t-grid", "0.5,1.0",
                "--max-iters", "6", "--steps-per-unit", "15",
                "--seed", "3", "--reproducible"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_timestamp_header_by_default(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run(["sweep", "--model", "xxz", "--t-grid", "0.5", "--max-iters", "3",
             "--steps-per-unit", "12", "--out", str(out)])
        assert out.read_text().startswith("# generated ")

    def test_zero_init_never_worse_than_uncontrolled(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--model", "xxz", "--t-grid", "0.5,0.9,1.3",
                    "--init", "zeros", "--max-iters", "12",
                    "--steps-per-unit", "25", "--out", str(out), "--reproducible"])
        assert code == 0
        for row in read_csv(out):
            unc = float(row["tr_inv_uncontrolled"])
            ctl = float(row["tr_inv_controlled"])
            assert ctl <= unc + 1e-9

    def test_oracle_column_for_exchange_model(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run(["sweep", "--model", "xxz", "--t-grid", "0.5,1.0",
             "--max-iters", "3", "--steps-per-unit", "12",
             "--out", str(out), "--reproducible"])
        from fisherctl.oracles import oracle_xxz_trinv

        for row in read_csv(out):
            t = float(row["t"])
            assert float(row["tr_inv_oracle"]) == pytest.approx(
                oracle_xxz_trinv(1.0, 1.2, 0.1, t), rel=1e-9)

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run(["sweep", "--model", "zz", "--t-grid", "0.5:1.0:2",
                    "--max-iters", "4", "--steps-per-unit", "12",
                    "--format", "json", "--out", str(out), "--reproducible"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["model"] == "zz"
        assert len(payload["records"]) == 2
        assert payload["records"][0]["tr_inv_oracle"] is None  # no closed form

    def test_infinity_serialized_as_inf(self, tmp_path):
        # exact divergence point of the noisy exchange model
        t_div = (math.pi / 2) / 4.4
        out = tmp_path / "sweep.csv"
        run(["sweep", "--model", "xxz", "--t-grid", f"{t_div:.12f}",
             "--init", "zeros", "--max-iters", "2", "--steps-per-unit", "40",
             "--out", str(out), "--reproducible"])
        row = read_csv(out)[0]
        assert row["tr_inv_uncontrolled"] == "inf"
        assert row["tr_inv_oracle"] == "inf"

    def test_unknown_model_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--model", "nosuch", "--t-grid", "1.0"])
        assert exc.value.code == 2

    def test_empty_t_grid_exits_2(self):
        assert run(["sweep", "--model", "xxz", "--t-grid", ""]) == EXIT_CONFIG

    def test_decreasing_t_grid_exits_2(self):
        assert run(["sweep", "--model", "xxz", "--t-grid", "1.0,0.5",
                    "--max-iters", "2"]) == EXIT_CONFIG

    def test_unwritable_output_exits_3(self):
        code = run(["sweep", "--model", "xxz", "--t-grid", "0.5",
                    "--max-iters", "2", "--steps-per-unit", "12",
                    "--out", "/nonexistent-dir/x.csv"])
        assert code == EXIT_IO

    def test_warm_start_runs_sequentially(self, tmp_path):
        out = tmp_path / "warm.csv"
        code = run(["sweep", "--model", "xxz", "--t-grid", "0.5,0.7",
                    "--max-iters", "5", "--steps-per-unit", "15",
                    "--warm-start", "--out", str(out), "--reproducible"])
        assert code == 0
        assert len(read_csv(out)) == 2
        # the warm start sets init_scheme "user" with its user_controls
        assert all(int(row["iters"]) > 0 for row in read_csv(out))

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "model": "xxz",
            "t_grid": [0.5, 1.0],
            "steps_per_unit": 15,
            "grape": {"max_iters": 4},
            "format": "csv",
        }))
        out = tmp_path / "out.csv"
        code = run(["sweep", "--config", str(cfg), "--t-grid", "0.6",
                    "--out", str(out), "--reproducible"])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1 and float(rows[0]["t"]) == 0.6

    @pytest.mark.parametrize("name", ["magfield", "zz", "xxz"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_config_noise_boolean(self, tmp_path, name, flag):
        # true means the model's default rates, false the noiseless variant
        from fisherctl import get_model
        from fisherctl.cli import _build_parser, _run_config_from

        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": name, "t_grid": [0.5], "noise": flag}))
        config = _run_config_from(_build_parser().parse_args(["sweep", "--config", str(cfg)]))
        model = get_model(config.model, noise=config.noise, rates=config.rates)
        expected = get_model(name, noise=flag)
        assert [rate for _, rate in model.noise.channels] == \
            [rate for _, rate in expected.noise.channels]
        assert bool(model.noise) is flag

    @pytest.mark.parametrize("spec", ["-0.1", "nan", "inf", "nan,0.1", "0.1,-0.2", "abc"])
    def test_bad_noise_flag_exits_2(self, tmp_path, capsys, spec):
        # never a silent noiseless run, never a traceback
        out = tmp_path / "x.csv"
        code = run(["sweep", "--model", "xxz", f"--noise={spec}", "--t-grid", "0.5",
                    "--max-iters", "2", "--steps-per-unit", "12", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", [-0.5, "nan", [0.1, -0.1], [0.1, float("nan")],
                                      float("inf"), [0.1, "x"], {"rate": 0.1},
                                      [True, 0.1], ["0.1", "0.1"]])
    def test_bad_noise_config_exits_2(self, tmp_path, capsys, spec):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "xxz", "t_grid": [0.5], "noise": spec}))
        code = run(["sweep", "--config", str(cfg), "--max-iters", "2",
                    "--steps-per-unit", "12", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, rates", [("0", None), ("0,0", None), (0.3, (0.3,)),
                                             ([0.1, 0.0], (0.1, 0.0)), ("0.2,0.1", (0.2, 0.1))])
    def test_good_noise_specs(self, tmp_path, spec, rates):
        from fisherctl.cli import _build_parser, _run_config_from

        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "xxz", "t_grid": [0.5], "noise": spec}))
        config = _run_config_from(_build_parser().parse_args(["sweep", "--config", str(cfg)]))
        assert config.rates == rates and config.noise is (rates is not None)

    def test_steps_per_unit_floor(self):
        assert run(["sweep", "--model", "xxz", "--t-grid", "0.5",
                    "--steps-per-unit", "5"]) == EXIT_CONFIG

    def test_zero_rate_leaves_oracle_column_empty(self, tmp_path):
        # the exchange-model information matrix has a closed form only at
        # equal rates; (0.1, 0) used to read back as (0.1, 0.1)
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--model", "xxz", "--noise", "0.1,0", "--t-grid", "1.0",
                    "--max-iters", "2", "--steps-per-unit", "12",
                    "--out", str(out), "--reproducible"]) == 0
        assert read_csv(out)[0]["tr_inv_oracle"] == ""

    @pytest.mark.parametrize("noise, filled", [("0.2", False), ("0", True)])
    def test_field_oracle_column_only_where_exact(self, tmp_path, noise, filled):
        # the noisy field-model closed form is the factorized approximation
        from fisherctl.oracles import oracle_magfield_cfim

        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--model", "magfield", "--noise", noise, "--t-grid", "0.5,1.0",
                    "--max-iters", "2", "--steps-per-unit", "12",
                    "--out", str(out), "--reproducible"]) == 0
        for row in read_csv(out):
            if filled:
                expected = tr_inv(oracle_magfield_cfim(1.0, math.pi / 4, math.pi / 4, 0.0,
                                                       float(row["t"])))
                assert float(row["tr_inv_oracle"]) == pytest.approx(expected, rel=1e-11)
            else:
                assert row["tr_inv_oracle"] == ""


class TestOptimize:
    def test_single_iteration_emits_initial_pulse(self, tmp_path, capsys):
        out = tmp_path / "pulse.json"
        code = run(["optimize", "--model", "xxz", "--t", "0.5",
                    "--max-iters", "1", "--init", "zeros",
                    "--steps-per-unit", "12", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["steps"] == 6
        assert np.asarray(payload["amplitudes"]).shape == (6, 6)

    def test_summary_reports_evaluations(self, tmp_path, capsys):
        out = tmp_path / "pulse.json"
        assert run(["optimize", "--model", "xxz", "--t", "0.5", "--max-iters", "4",
                    "--seed", "1", "--steps-per-unit", "12", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("iterations:"))
        iters = int(lines[at].split()[1])
        assert lines[at + 1].startswith("evaluations: ")
        assert int(lines[at + 1].split()[1]) >= iters + 1
        assert "evaluations" not in json.loads(out.read_text())

    def test_summary_reports_termination(self, tmp_path, capsys):
        out = tmp_path / "pulse.json"
        assert run(["optimize", "--model", "xxz", "--t", "0.5", "--max-iters", "2",
                    "--seed", "1", "--steps-per-unit", "12", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("evaluations:"))
        assert lines[at + 1] == "termination: max_iters"
        assert "termination" not in json.loads(out.read_text())

    def test_replay_round_trip(self, tmp_path, capsys):
        out = tmp_path / "pulse.json"
        assert run(["optimize", "--model", "xxz", "--t", "0.8",
                    "--max-iters", "10", "--seed", "4",
                    "--steps-per-unit", "20", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["amplitude_bound"] is None
        capsys.readouterr()
        assert run(["optimize", "--replay", str(out)]) == 0
        text = capsys.readouterr().out
        stored, reeval = None, None
        for line in text.splitlines():
            if line.startswith("stored objective"):
                stored = float(line.split(":")[1])
            if line.startswith("re-evaluated objective"):
                reeval = float(line.split(":")[1])
        assert stored is not None and abs(stored - reeval) < 1e-9

    def test_replay_keeps_the_amplitude_bound(self, tmp_path, capsys):
        out = tmp_path / "pulse.json"
        assert run(["optimize", "--model", "xxz", "--t", "0.5",
                    "--max-iters", "5", "--seed", "2", "--amplitude-bound", "0.05",
                    "--steps-per-unit", "20", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["amplitude_bound"] == 0.05
        assert np.max(np.abs(payload["amplitudes"])) <= 0.05
        assert run(["optimize", "--replay", str(out)]) == 0
        # pulse files written before the bound was recorded lack the key
        del payload["amplitude_bound"]
        out.write_text(json.dumps(payload))
        assert run(["optimize", "--replay", str(out)]) == 0

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda text, payload: "{not json", id="not-json"),
        pytest.param(lambda text, payload: json.dumps(
            {k: v for k, v in payload.items() if k != "x_true"}), id="missing-key"),
        pytest.param(lambda text, payload: json.dumps(
            dict(payload, amplitudes=payload["amplitudes"][0])), id="amplitudes-1d"),
        pytest.param(lambda text, payload: json.dumps(
            dict(payload, amplitudes=[["a", "b"], ["c", "d"]])), id="amplitudes-text"),
        pytest.param(lambda text, payload: json.dumps(
            dict(payload, objective_name="variance")), id="unknown-objective"),
        pytest.param(lambda text, payload: json.dumps(dict(
            payload, amplitude_bound=0.5,
            amplitudes=[[1.0] * len(row) for row in payload["amplitudes"]])),
            id="over-bound"),
        pytest.param(lambda text, payload: json.dumps(
            dict(payload, amplitude_bound="wide")), id="bound-text"),
        # each was read by float() and replayed
        pytest.param(lambda text, payload: json.dumps(dict(payload, t=True)), id="t-bool"),
        pytest.param(lambda text, payload: json.dumps(dict(payload, t="1")), id="t-text"),
        pytest.param(lambda text, payload: json.dumps(
            dict(payload, x_true=[True, 1.2])), id="x-true-bool"),
        pytest.param(lambda text, payload: json.dumps(
            dict(payload, x_true=["1", "1.2"])), id="x-true-text"),
        # each was read as the number 1 and replayed into a mismatch
        pytest.param(lambda text, payload: json.dumps(
            dict(payload, rates=[True, 0.1])), id="rates-bool"),
        pytest.param(lambda text, payload: json.dumps(dict(
            payload, amplitudes=[[True] + row[1:] for row in payload["amplitudes"]])),
            id="amplitude-bool"),
        pytest.param(lambda text, payload: json.dumps(
            dict(payload, final_objective=True)), id="final-objective-bool"),
    ])
    def test_replay_malformed_pulse_file_exits_2(self, tmp_path, capsys, mutate):
        out = tmp_path / "pulse.json"
        assert run(["optimize", "--model", "xxz", "--t", "0.2", "--max-iters", "1",
                    "--init", "zeros", "--steps-per-unit", "20",
                    "--out", str(out)]) == 0
        text = out.read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(mutate(text, json.loads(text)))
        capsys.readouterr()
        assert run(["optimize", "--replay", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("change", ["one fewer", "one more"])
    def test_replay_refuses_x_true_of_the_wrong_length(self, tmp_path, capsys, change):
        out = tmp_path / "pulse.json"
        assert run(["optimize", "--model", "xxz", "--t", "0.2", "--max-iters", "1",
                    "--init", "zeros", "--steps-per-unit", "20", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        x = payload["x_true"]
        payload["x_true"] = x[:-1] if change == "one fewer" else x + [5.0]
        out.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["optimize", "--replay", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "takes 2 parameter values" in err

    def test_replay_noise_must_be_a_boolean(self, tmp_path, capsys):
        # "false" is a truthy string: it would replay a noiseless pulse on
        # the noisy model and end in a numerical mismatch
        out = tmp_path / "pulse.json"
        assert run(["optimize", "--model", "xxz", "--noise", "0", "--t", "0.5",
                    "--max-iters", "3", "--seed", "1", "--steps-per-unit", "20",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["noise"] is False
        out.write_text(json.dumps(dict(payload, noise="false")))
        capsys.readouterr()
        assert run(["optimize", "--replay", str(out)]) == EXIT_CONFIG
        assert "pulse file noise must be true or false, got 'false'" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [-1, 0])
    def test_replay_refuses_a_bad_bound_by_name(self, tmp_path, capsys, bound):
        out = tmp_path / "pulse.json"
        assert run(["optimize", "--model", "xxz", "--t", "0.2", "--max-iters", "1",
                    "--init", "zeros", "--steps-per-unit", "20", "--out", str(out)]) == 0
        out.write_text(json.dumps(dict(json.loads(out.read_text()), amplitude_bound=bound)))
        capsys.readouterr()
        assert run(["optimize", "--replay", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"amplitude_bound must be positive and finite, got {float(bound)}" in err
        assert "exceed" not in err

    def test_replay_parses_an_infinite_stored_objective(self, tmp_path, capsys):
        # optimize writes a non-finite objective as "inf"; replay reads it
        # back rather than refusing it as a malformed pulse-file number
        out = tmp_path / "pulse.json"
        assert run(["optimize", "--model", "xxz", "--t", "0.2", "--max-iters", "1",
                    "--init", "zeros", "--steps-per-unit", "20", "--out", str(out)]) == 0
        out.write_text(json.dumps(dict(json.loads(out.read_text()), final_objective="inf")))
        capsys.readouterr()
        assert run(["optimize", "--replay", str(out)]) != EXIT_CONFIG
        assert "stored objective:      inf" in capsys.readouterr().out

    @pytest.mark.parametrize("stored", ["inf", "nan"])
    def test_replay_flags_a_non_finite_stored_objective(self, tmp_path, capsys, stored):
        # inf > inf and every comparison with nan are false: such a stored
        # objective once matched any finite re-evaluated one
        out = tmp_path / "pulse.json"
        assert run(["optimize", "--model", "xxz", "--t", "0.3", "--max-iters", "2",
                    "--steps-per-unit", "20", "--out", str(out)]) == 0
        out.write_text(json.dumps(dict(json.loads(out.read_text()), final_objective=stored)))
        capsys.readouterr()
        assert run(["optimize", "--replay", str(out)]) == EXIT_NUMERICAL
        assert "MISMATCH" in capsys.readouterr().err

    def test_band_for_noiseless_exchange_model(self, tmp_path, capsys):
        # below the uncontrolled 1/(2T^2), at or above the probe-optimal
        # 3/(8T^2) less a small synthesis slack
        out = tmp_path / "pulse.json"
        t = 1.0
        assert run(["optimize", "--model", "xxz", "--noise", "0", "--t", str(t),
                    "--max-iters", "600", "--seed", "11", "--update", "bfgs",
                    "--steps-per-unit", "60", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        tr = float(payload["final_tr_inv"])
        assert tr <= 1.0 / (2 * t * t) * (1 + 1e-6)
        assert tr >= 3.0 / (8 * t * t) * (1 - 0.15)


class TestOracle:
    @pytest.mark.parametrize("model, row", [
        ("zz", "1e+200,0.25,0.25,0.25,0.25,,singular"),
        ("xxz", "1e+200,0.25,0.25,0.25,0.25,,,,singular"),
        ("magfield", "1e+200,0.396326072386,0.396326072386,0.103673927614,0.103673927614"
                     ",,,,,,0.5,0.5,factorized; singular"),
    ])
    def test_overflowing_prefactor_is_singular_without_a_warning(self, tmp_path, capsys,
                                                                 model, row):
        # 4 t^2 overflows at t = 1e200: inf times a zero entry was a nan and
        # a numpy RuntimeWarning on stderr before the table
        out = tmp_path / "oracle.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["oracle", "--model", model, "--t-grid", "1e200",
                        "--out", str(out), "--reproducible"]) == 0
        assert out.read_text().splitlines()[-1] == row
        assert capsys.readouterr().err == ""

    def test_exchange_row_at_long_time(self, tmp_path):
        # e^{2 gamma t} would overflow here; the information has decayed away
        out = tmp_path / "oracle.csv"
        assert run(["oracle", "--model", "xxz", "--t-grid", "4000",
                    "--out", str(out), "--reproducible"]) == 0
        (row,) = read_csv(out)
        assert row["tr_inv"] == "inf"

    def test_exchange_noiseless_trinv_column(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = run(["oracle", "--model", "xxz", "--noise", "0,0",
                    "--t-grid", "0.5,1.0", "--out", str(out), "--reproducible"])
        assert code == 0
        for row in read_csv(out):
            t = float(row["t"])
            assert float(row["tr_inv"]) == pytest.approx(1 / (2 * t * t), rel=1e-10)

    @pytest.mark.parametrize("rates, exact", [((0.1, 0.1), True), ((0.1, 0.0), False)])
    def test_exchange_row_note_marks_approximate_probabilities(self, rates, exact):
        # the closed-form probabilities are exact at equal rates only: at
        # (0.1, 0), T = 1 they are 0.015 off, and the note says so
        from fisherctl.cli import _oracle_row

        model = get_model("xxz", rates=rates)
        row = _oracle_row("xxz", model.true_values, rates, 1.0)
        grid = ControlGrid.zeros(len(model.control_hams), 100, 1.0)
        p = measure(propagate(model, model.true_values, grid).final_state, model.default_povm)
        gap = np.max(np.abs([row[k] for k in ("p_pp", "p_pm", "p_mp", "p_mm")] - p))
        if exact:
            assert row["note"] == "" and gap < 1e-12
        else:
            assert row["note"] == "unequal rates" and gap > 1e-2

    def test_zz_probabilities_sum_to_one(self, tmp_path):
        out = tmp_path / "oracle.csv"
        run(["oracle", "--model", "zz", "--t-grid", "1.0", "--out", str(out),
             "--reproducible"])
        row = read_csv(out)[0]
        total = sum(float(row[k]) for k in ("p_pp", "p_pm", "p_mp", "p_mm"))
        assert abs(total - 1.0) < 1e-12

    def test_magfield_eigenvalue_columns(self, tmp_path):
        out = tmp_path / "oracle.csv"
        run(["oracle", "--model", "magfield", "--t-grid", "0.5:2.0:4",
             "--out", str(out), "--reproducible"])
        for row in read_csv(out):
            t = float(row["t"])
            assert float(row["lam_plus"]) == pytest.approx(
                0.5 * (1 + math.exp(-0.2 * t)), rel=1e-10)
            assert float(row["lam_minus"]) == pytest.approx(
                0.5 * (1 - math.exp(-0.2 * t)), rel=1e-10)

    @pytest.mark.parametrize("spec", ["nan", "-0.1", "inf", "abc"])
    def test_bad_noise_exits_2(self, tmp_path, capsys, spec):
        code = run(["oracle", "--model", "magfield", f"--noise={spec}",
                    "--t-grid", "0.5", "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_singular_row_flagged(self, tmp_path):
        # gamma = 0 at a divergence point hits the removable singularity
        t_div = (math.pi / 2) / 4.4
        out = tmp_path / "oracle.csv"
        code = run(["oracle", "--model", "xxz", "--noise", "0,0",
                    "--t-grid", f"{t_div:.12f}", "--out", str(out),
                    "--reproducible"])
        assert code == 0
        assert read_csv(out)[0]["note"] == "singular"


    def test_zero_rate_honoured(self, tmp_path):
        # engine propagation at rates (0.1, 0), not (0.1, 0.1)
        out = tmp_path / "oracle.csv"
        assert run(["oracle", "--model", "zz", "--noise", "0.1,0", "--t-grid", "0.5,1.0",
                    "--out", str(out), "--reproducible"]) == 0
        model = get_model("zz", rates=(0.1, 0.0))
        for row in read_csv(out):
            t = float(row["t"])
            traj = propagate(model, model.true_values, ControlGrid.zeros(6, 100, t),
                             deriv_method=None)
            engine = measure(traj.final_state, model.default_povm)
            table = [float(row[k]) for k in ("p_pp", "p_pm", "p_mp", "p_mm")]
            assert np.max(np.abs(engine - table)) < 1e-9

    def test_noisy_field_rows_marked_factorized(self, tmp_path):
        out = tmp_path / "oracle.csv"
        for noise, note in (("0.2", "factorized"), ("0", "")):
            assert run(["oracle", "--model", "magfield", "--noise", noise,
                        "--t-grid", "0.5,1.0", "--out", str(out), "--reproducible"]) == 0
            rows = read_csv(out)
            assert [row["note"] for row in rows] == [note, note]
            assert all(float(row["tr_inv"]) > 0 for row in rows)

    @pytest.mark.parametrize("params", ["1,2", "1,2,3,4", "1,nan,0.5", "1,inf,0.5", "1,x,2"])
    def test_bad_params_exit_2(self, tmp_path, capsys, params):
        out = tmp_path / "o.csv"
        code = run(["oracle", "--model", "magfield", f"--params={params}",
                    "--t-grid", "0.5", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestInputChecks:
    """Malformed input ends in exit 2 with a message, never in a traceback or
    a run on values that make no sense."""

    @pytest.mark.parametrize("command", ["sweep", "oracle"])
    @pytest.mark.parametrize("grid", ["0.5,nan", "0.5,inf", "-1", "0", "0.5:inf:3",
                                      "nan:1:2", "1.0,0.5", "0.5,0.5"])
    def test_bad_times_exit_2(self, tmp_path, capsys, command, grid):
        out = tmp_path / "x.csv"
        argv = [command, "--model", "xxz", f"--t-grid={grid}", "--out", str(out)]
        if command == "sweep":
            argv += ["--max-iters", "2", "--steps-per-unit", "12"]
        assert run(argv) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t", ["nan", "inf", "-0.5", "0"])
    def test_bad_optimize_time_exits_2(self, tmp_path, capsys, t):
        out = tmp_path / "pulse.json"
        assert run(["optimize", "--model", "xxz", f"--t={t}", "--max-iters", "1",
                    "--out", str(out)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload", [
        pytest.param([1, 2], id="list-file"),
        pytest.param({"model": "heisenberg"}, id="model-unknown"),
        pytest.param({"grape": [1]}, id="grape-list"),
        pytest.param({"grape": {"max_iters": "abc"}}, id="max-iters-text"),
        pytest.param({"grape": {"max_iters": 2.5}}, id="max-iters-real"),
        pytest.param({"max_iters": True}, id="max-iters-bool"),
        pytest.param({"steps_per_unit": "x"}, id="steps-text"),
        pytest.param({"steps_per_unit": 20.0}, id="steps-real"),
        pytest.param({"t_grid": 5}, id="t-grid-number"),
        pytest.param({"t_grid": [0.5, "1.0"]}, id="t-grid-text-entry"),
        pytest.param({"t_grid": []}, id="t-grid-empty"),
        pytest.param({"seed": 1.5}, id="seed-real"),
        pytest.param({"seed": False}, id="seed-bool"),
        pytest.param({"seed": -1}, id="seed-negative"),
        pytest.param({"grape": {"step_size": "big"}}, id="step-size-text"),
        pytest.param({"grape": {"convergence_tol": [1e-6]}}, id="tol-list"),
        pytest.param({"grape": {"init_amplitude": None}}, id="init-amplitude-null"),
        pytest.param({"amplitude_bound": "wide"}, id="bound-text"),
        pytest.param({"amplitude_bound": -1}, id="bound-negative"),
        pytest.param({"grape": {"amplitude_bound": 0}}, id="bound-zero"),
        pytest.param({"out": 5}, id="out-number"),
        pytest.param({"objective": "variance"}, id="objective-unknown"),
        pytest.param({"objective": ["f0"]}, id="objective-list"),
        pytest.param({"grape": {"step_size": 10 ** 400}}, id="step-size-huge"),
        # a string is truthy: "no" would turn fixed steps on
        pytest.param({"update": "gradient", "grape": {"fixed_step": "no"}},
                     id="fixed-step-string"),
        pytest.param({"grape": {"fixed_step": True}}, id="fixed-step-under-bfgs"),
        # a string is truthy: "no" would turn the mode on
        pytest.param({"reproducible": "no"}, id="reproducible-string"),
        pytest.param({"reproducible": None}, id="reproducible-null"),
        pytest.param({"warm_start": 1}, id="warm-start-number"),
        pytest.param({"warm_start": "false"}, id="warm-start-string"),
        # a misspelt key would otherwise leave its default in place
        pytest.param({"max_iterz": 3}, id="unknown-key"),
        pytest.param({"grape": {"max_iterz": 3, "step_sise": 5}}, id="unknown-grape-keys"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, payload):
        if isinstance(payload, dict):
            payload = dict({"model": "xxz", "t_grid": [0.5], "steps_per_unit": 12,
                            "grape": {"max_iters": 2}, "out": str(tmp_path / "x.csv")},
                           **payload)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        assert run(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_config_keys_are_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "xxz", "t_grid": "0.3", "max_iter": 2,
                                   "grape": {"max_iterz": 3, "step_sise": 5}}))
        assert run(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: unknown config keys: max_iter, grape.max_iterz, grape.step_sise\n")

    @pytest.mark.parametrize("payload, key", [
        ({"reproducible": "no"}, "reproducible"),
        ({"warm_start": 0}, "warm_start"),
        ({"update": "gradient", "grape": {"fixed_step": "yes"}}, "grape.fixed_step"),
    ])
    def test_config_boolean_error_names_its_key(self, tmp_path, capsys, payload, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict({"model": "xxz", "t_grid": [0.5]}, **payload)))
        assert run(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {key} must be true or false")

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b"\xff\xfe{")
        assert run(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["-1", "0", "nan", "inf"])
    def test_bad_amplitude_bound_flag_exits_2(self, tmp_path, capsys, bound):
        out = tmp_path / "pulse.json"
        assert run(["optimize", "--model", "xxz", "--t", "0.5", "--max-iters", "1",
                    f"--amplitude-bound={bound}", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "amplitude_bound must be" in err and "exceed" not in err
        assert not out.exists()


class TestExitCodes:
    def test_all_points_failing_exits_4(self, tmp_path, monkeypatch):
        import fisherctl.cli as cli_mod
        from fisherctl.errors import PropagationError

        def broken(*args, **kwargs):
            raise PropagationError("injected")

        monkeypatch.setattr(cli_mod, "optimize", broken)
        out = tmp_path / "x.csv"
        code = run(["sweep", "--model", "xxz", "--t-grid", "0.5,1.0",
                    "--max-iters", "2", "--steps-per-unit", "12",
                    "--out", str(out), "--reproducible"])
        assert code == 4
        rows = read_csv(out)  # rows are still written, flagged as failed
        assert len(rows) == 2
        assert all(r["tr_inv_controlled"] == "nan" for r in rows)

    @pytest.mark.parametrize("argv", [
        pytest.param(["optimize", "--t", "1e20", "--max-iters", "1"], id="optimize-1e20"),
        pytest.param(["optimize", "--t", "1e308", "--max-iters", "1"], id="optimize-1e308"),
        pytest.param(["sweep", "--t-grid", "1e308", "--max-iters", "1"], id="sweep-1e308"),
        pytest.param(["sweep", "--t-grid", "0.5,1e20", "--max-iters", "1"], id="sweep-0.5-1e20"),
        pytest.param(["oracle", "--t-grid", "1e308"], id="oracle-1e308"),
    ])
    def test_time_too_long_to_grid_exits_2(self, tmp_path, argv):
        # each ended in a traceback: an array dimension beyond numpy's, an
        # infinite step count, or the sine of an infinite phase (after a
        # numpy overflow warning, hence a fresh process)
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "fisherctl", argv[0], "--model", "xxz",
                               *argv[1:], "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_grid_too_large_to_allocate_exits_2(self, capsys):
        # 1e17 steps: numpy refuses the 4 EiB grid at once
        assert run(["optimize", "--model", "xxz", "--t", "1e15"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and "Traceback" not in err


class TestFieldComponentSweep:
    def test_controlled_point_reaches_analytic_optimum(self, tmp_path):
        # noiseless field components at T = 1: the controlled precision
        # limit lands within 5% of 3/(4 T^2)
        out = tmp_path / "mf.csv"
        code = run(["sweep", "--model", "magfield-xyz", "--noise", "0",
                    "--t-grid", "1.0", "--update", "bfgs", "--seed", "5",
                    "--max-iters", "400", "--steps-per-unit", "100",
                    "--out", str(out), "--reproducible"])
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["tr_inv_controlled"]) == pytest.approx(0.75, rel=0.05)
        assert float(row["tr_inv_uncontrolled"]) >= float(row["tr_inv_controlled"])


class TestValidate:
    def test_validate_passes(self, capsys):
        assert run(["validate"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_broken_derivative_kernel_fails(self, capsys, monkeypatch):
        # skew the Taylor derivative action that noisy steps use
        import fisherctl.dynamics as dyn

        kernel = dyn._frechet_action
        monkeypatch.setattr(dyn, "_frechet_action", lambda *args: 1.001 * kernel(*args))
        assert run(["validate"]) != 0
        out = capsys.readouterr().out
        assert "[FAIL] exact state derivatives vs finite differences" in out

    def test_broken_noiseless_derivative_fails(self, capsys, monkeypatch):
        # skew the Taylor derivative action on noiseless steps alone, whose
        # generators are antisymmetric in the Hermitian basis: the noisy
        # check passes and the noiseless one fails
        import fisherctl.dynamics as dyn

        kernel = dyn._frechet_action

        def skewed(a, e, w, *plan):
            noiseless = np.abs(a + a.swapaxes(1, 2)).max() < 1e-12
            return (1.001 if noiseless else 1.0) * kernel(a, e, w, *plan)

        monkeypatch.setattr(dyn, "_frechet_action", skewed)
        assert run(["validate"]) != 0
        out = capsys.readouterr().out
        assert "[FAIL] exact state derivatives vs finite differences" in out
        assert "noise=False" in out


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fisherctl", "oracle", "--model", "zz",
             "--t-grid", "1.0", "--reproducible"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0].startswith("t,")

    def test_closed_pipe_exits_3_without_traceback(self):
        # the reader takes one line of a table far larger than the pipe
        # buffer and closes its end
        proc = subprocess.Popen(
            [sys.executable, "-m", "fisherctl", "oracle", "--model", "xxz",
             "--t-grid", "0.5:2:2000", "--reproducible"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline().startswith("t,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_IO
        assert err.startswith("output error:") and len(err.splitlines()) == 1

    def test_console_script(self):
        proc = subprocess.run(["fisherctl", "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        for sub in ("sweep", "optimize", "oracle", "validate"):
            assert sub in proc.stdout

    def test_console_script_target(self):
        # what the installed script runs, without installing it
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        module, func = re.search(r'^\[project\.scripts\]\nfisherctl = "([\w.]+):(\w+)"',
                                 text, re.M).groups()
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {func}; sys.exit({func}(sys.argv[1:]))",
             "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        for sub in ("sweep", "optimize", "oracle", "validate"):
            assert sub in proc.stdout


def blas_env(**blas):
    """This process's environment with ``blas`` as its only BLAS thread
    variables."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return dict(env, **blas)


def run_entry_point(argv, env):
    """Run ``fisherctl.__main__.main(argv)`` in a fresh process; return its
    exit code and the ``OPENBLAS_NUM_THREADS`` and OS thread count it ends
    with (no count off Linux)."""
    code = ("import json, os, sys\n"
            "from fisherctl.__main__ import main\n"
            "code = main(sys.argv[1:])\n"
            "tasks = '/proc/self/task'\n"
            "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'),\n"
            "    len(os.listdir(tasks)) if os.path.isdir(tasks) else None]), file=sys.stderr)\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env)
    blas, threads = json.loads(proc.stderr.splitlines()[-1])
    return proc.returncode, blas, threads


class TestBlasThreads:
    ORACLE = ["oracle", "--model", "zz", "--t-grid", "1.0", "--reproducible"]

    @pytest.mark.parametrize("blas, expected", [
        pytest.param({}, "1", id="default"),
        pytest.param({"OPENBLAS_NUM_THREADS": "2"}, "2", id="openblas-kept"),
        pytest.param({"OMP_NUM_THREADS": "2"}, None, id="omp-kept"),
    ])
    def test_entry_point_sets_one_thread_unless_chosen(self, blas, expected):
        code, openblas, _ = run_entry_point(self.ORACLE, blas_env(**blas))
        assert (code, openblas) == (0, expected)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
    def test_entry_point_process_has_one_thread(self):
        # no idle BLAS worker beside the main thread
        code, _, threads = run_entry_point(self.ORACLE, blas_env())
        assert (code, threads) == (0, 1)

    def test_thread_count_never_reaches_the_numbers(self, tmp_path):
        # the benchmark's sweep (C8): byte-identical under one and two threads
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"sweep-{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "fisherctl", "sweep", "--model", "xxz",
                 "--t-grid", "0.5:2.0:4", "--max-iters", "8", "--seed", "101",
                 "--reproducible", "--out", str(out)],
                capture_output=True, text=True, env=blas_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
