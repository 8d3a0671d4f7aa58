import csv
import json
from pathlib import Path

import numpy as np
import pytest

from prosrs.cli import cost_ratio, main

RUN_HEADER = "iteration,event,zoom_level,best_y,true_f_best,algo_time_s,eval_time_s"


def read_lines(path):
    return Path(path).read_text().splitlines()


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestOptimize:
    def test_produces_expected_files(self, tmp_path):
        code = run_cli(
            "optimize", "--problem", "Dropwave2", "--n-par", "4", "--iterations", "6",
            "--repeats", "3", "--seed", "5", "--out", tmp_path,
        )
        assert code == 0
        for seed in (5, 6, 7):
            assert (tmp_path / f"Dropwave2_prosrs_seed{seed}.csv").exists()
            assert (tmp_path / f"Dropwave2_prosrs_seed{seed}.json").exists()
        assert (tmp_path / "Dropwave2_prosrs_aggregate.csv").exists()

    def test_csv_schema(self, tmp_path):
        run_cli(
            "optimize", "--problem", "Dropwave2", "--iterations", "4",
            "--seed", "0", "--out", tmp_path,
        )
        lines = read_lines(tmp_path / "Dropwave2_prosrs_seed0.csv")
        assert lines[0] == RUN_HEADER
        # one initial-design row (m_doe = n_par = 4) plus one row per iteration
        assert len(lines) == 1 + 1 + 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "doe"

    def test_summary_contents(self, tmp_path):
        run_cli(
            "optimize", "--problem", "Dropwave2", "--iterations", "4",
            "--seed", "9", "--out", tmp_path,
        )
        summary = json.loads((tmp_path / "Dropwave2_prosrs_seed9.json").read_text())
        assert summary["seed"] == 9
        assert summary["algo"] == "prosrs"
        assert len(summary["x_best"]) == 2
        assert summary["config"]["n_iterations"] == 4
        assert summary["n_evaluations"] == 4 + 4 * 4

    def test_repeat_files_are_reproducible(self, tmp_path):
        args = (
            "optimize", "--problem", "Dropwave2", "--iterations", "5", "--seed", "3",
            "--timing", "zero",
        )
        run_cli(*args, "--out", tmp_path / "a")
        run_cli(*args, "--out", tmp_path / "b")
        for name in ("Dropwave2_prosrs_seed3.csv", "Dropwave2_prosrs_seed3.json",
                     "Dropwave2_prosrs_aggregate.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_random_algo_dispatch(self, tmp_path):
        code = run_cli(
            "optimize", "--problem", "Dropwave2", "--algo", "random",
            "--iterations", "5", "--out", tmp_path,
        )
        assert code == 0
        lines = read_lines(tmp_path / "Dropwave2_random_seed0.csv")
        assert len(lines) == 1 + 5  # no design rows
        assert all(line.split(",")[1] == "normal" for line in lines[1:])

    def test_aggregate_recomputable_from_per_run_files(self, tmp_path):
        run_cli(
            "optimize", "--problem", "Dropwave2", "--iterations", "6",
            "--repeats", "4", "--seed", "0", "--out", tmp_path,
        )
        curves = []
        for seed in range(4):
            with open(tmp_path / f"Dropwave2_prosrs_seed{seed}.csv") as f:
                rows = list(csv.DictReader(f))
            curve = {}
            for row in rows:
                curve[int(row["iteration"])] = float(row["true_f_best"])
            curves.append(curve)
        with open(tmp_path / "Dropwave2_prosrs_aggregate.csv") as f:
            agg = list(csv.DictReader(f))
        assert [int(r["iteration"]) for r in agg] == list(range(0, 7))
        for row in agg:
            vals = np.array([c[int(row["iteration"])] for c in curves])
            assert abs(vals.mean() - float(row["mean_objective"])) <= 1e-12
            assert abs(vals.std() - float(row["std_objective"])) <= 1e-12

    def test_plugin_objective(self, tmp_path):
        code = run_cli(
            "optimize", "--problem", "plugin_objectives:quadratic",
            "--n-par", "2", "--iterations", "5", "--out", tmp_path,
        )
        assert code == 0
        lines = read_lines(tmp_path / "plugin_objectives_quadratic_prosrs_seed0.csv")
        assert lines[0].split(",")[4] == "noisy_y_best"

    def test_missing_problem_is_config_error(self, tmp_path, capsys):
        assert run_cli("optimize", "--out", tmp_path) == 2
        assert "problem" in capsys.readouterr().err

    def test_unknown_problem_is_config_error(self, tmp_path, capsys):
        assert run_cli("optimize", "--problem", "Nope", "--out", tmp_path) == 2
        assert "valid names" in capsys.readouterr().err

    def test_plugin_that_is_not_callable_is_config_error(self, tmp_path, capsys):
        assert run_cli("optimize", "--problem", "math:pi", "--out", tmp_path / "out") == 2
        assert "math:pi" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_plugin_factory_that_does_not_take_the_seed_is_config_error(self, tmp_path, capsys):
        code = run_cli(
            "optimize", "--problem", "os:getcwd", "--iterations", "2", "--out", tmp_path / "out",
        )
        assert code == 2
        assert "os:getcwd" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_type_error_inside_a_factory_propagates(self, tmp_path):
        with pytest.raises(TypeError, match="inside the factory"):
            run_cli(
                "optimize", "--problem", "plugin_objectives:raises_type_error",
                "--iterations", "2", "--out", tmp_path / "out",
            )
        assert not (tmp_path / "out").exists()

    def test_evaluator_failure_exit_code_and_partial_flush(self, tmp_path, capsys):
        code = run_cli(
            "optimize", "--problem", "plugin_objectives:broken",
            "--n-par", "2", "--iterations", "8", "--out", tmp_path,
        )
        assert code == 3
        assert "evaluation failed" in capsys.readouterr().err
        partial = read_lines(tmp_path / "plugin_objectives_broken_prosrs_seed0.csv")
        assert partial[0].startswith("iteration,")
        assert len(partial) > 1  # batches before the NaN were flushed

    def test_pool_too_small_for_batch_fails_before_evaluating(self, tmp_path, capsys):
        # Any evaluation of this objective raises, which would exit with 3.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config": {"n_candidates_per_dim": 5}}))
        code = run_cli(
            "optimize", "--problem", "plugin_objectives:unevaluable", "--n-par", "12",
            "--iterations", "3", "--config", cfg, "--out", tmp_path / "out",
        )
        assert code == 2
        assert "n_par" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"rhoo": 0.5}, "rhoo"),
            ({"s_init": {"gamma": 0.0, "p": 1.0}}, "s_init"),
            ({"s_init": {"gamma": 0.0, "p": 1.0, "sigma": 0.1, "tau": 1}}, "s_init"),
            ({"s_init": [0, 1, 0.1]}, "s_init"),
            ({"s_init": {"gamma": 0.0, "p": 1.0, "sigma": -0.1}}, "sigma"),
            ([1], "error"),
            ({"rho": "0.5"}, "rho"),
            ({"n_candidates_per_dim": 4.5}, "n_candidates_per_dim"),
            ({"s_init": {"gamma": 0, "p": 1, "sigma": True}}, "sigma must be a number"),
            ({"s_init": {"gamma": "a", "p": 1, "sigma": 0.1}}, "gamma must be a number"),
            ({"s_init": {"gamma": 0, "p": None, "sigma": 0.1}}, "p must be a number"),
            ({"m_doe": 1}, "m_doe"),
        ],
    )
    def test_bad_run_parameters_fail_before_evaluating(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config": config}))
        code = run_cli(
            "optimize", "--problem", "plugin_objectives:unevaluable",
            "--iterations", "3", "--config", cfg, "--out", tmp_path / "out",
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["optimize", "bench-suite"])
    def test_random_search_without_iterations_fails_before_evaluating(
        self, tmp_path, capsys, command
    ):
        code = run_cli(
            command, "--problem", "Dropwave2", "--algo", "random",
            "--iterations", "0", "--out", tmp_path / "out",
        )
        assert code == 2
        assert "n_iterations" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {
            "problem": "Rastrigin2",
            "seed": 4,
            "repeats": 1,
            "out": str(tmp_path / "ignored"),
            "config": {"n_par": 2, "n_iterations": 3, "rho": 0.5,
                       "s_init": {"gamma": 0.0, "p": 1.0, "sigma": 0.1}},
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli("optimize", "--config", cfg_path, "--out", tmp_path / "real")
        assert code == 0
        summary = json.loads((tmp_path / "real" / "Rastrigin2_prosrs_seed4.json").read_text())
        assert summary["config"]["rho"] == 0.5
        assert summary["config"]["n_par"] == 2
        assert summary["config"]["n_iterations"] == 3
        assert not (tmp_path / "ignored").exists()

    def test_bad_config_file_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("optimize", "--problem", "Dropwave2", "--config", bad) == 2


class TestBenchSuite:
    def test_subset_run_and_summary(self, tmp_path):
        code = run_cli(
            "bench-suite", "--problem", "Dropwave2,Rastrigin2", "--n-par", "2",
            "--iterations", "3", "--repeats", "2", "--out", tmp_path,
        )
        assert code == 0
        assert (tmp_path / "Dropwave2" / "Dropwave2_prosrs_seed0.csv").exists()
        assert (tmp_path / "Rastrigin2" / "Rastrigin2_prosrs_seed1.csv").exists()
        lines = read_lines(tmp_path / "suite_summary.csv")
        assert lines[0] == "problem,algo,repeats,median_final,mean_final,std_final"
        assert len(lines) == 3

    def test_timing_columns_are_zero_by_default(self, tmp_path):
        run_cli(
            "bench-suite", "--problem", "Dropwave2", "--iterations", "2",
            "--out", tmp_path,
        )
        with open(tmp_path / "Dropwave2" / "Dropwave2_prosrs_seed0.csv") as f:
            rows = list(csv.DictReader(f))
        assert all(r["algo_time_s"] == "0.0" and r["eval_time_s"] == "0.0" for r in rows)


class TestTiming:
    """``--timing real`` writes wall times and ``--timing zero`` writes 0.0;
    optimize defaults to real (bench-suite's zero default is checked in
    TestBenchSuite)."""

    @pytest.mark.parametrize(
        "command, flags, file_values, zero",
        [
            ("optimize", (), None, False),
            ("optimize", ("--timing", "zero"), None, True),
            ("optimize", (), {"timing": "zero"}, True),
            ("optimize", ("--timing", "real"), {"timing": "zero"}, False),
            ("bench-suite", ("--timing", "real"), None, False),
            ("bench-suite", (), {"timing": "real"}, False),
        ],
        ids=["optimize-default", "optimize-flag", "optimize-file", "optimize-flag-wins",
             "bench-suite-flag", "bench-suite-file"],
    )
    def test_timing_columns(self, tmp_path, command, flags, file_values, zero):
        config = ()
        if file_values is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(file_values))
            config = ("--config", tmp_path / "cfg.json")
        code = run_cli(
            command, "--problem", "Dropwave2", "--iterations", "3", *flags, *config,
            "--out", tmp_path / "out",
        )
        assert code == 0
        run_dir = tmp_path / "out" / ("Dropwave2" if command == "bench-suite" else "")
        with open(run_dir / "Dropwave2_prosrs_seed0.csv") as f:
            values = [r[k] for r in csv.DictReader(f) for k in ("algo_time_s", "eval_time_s")]
        if zero:
            assert set(values) == {"0.0"}
        else:
            assert any(float(v) > 0 for v in values)

    @pytest.mark.parametrize("command", ["optimize", "bench-suite"])
    def test_bad_timing_flag_is_rejected(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--problem", "Dropwave2", "--timing", "wall",
                    "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert "--timing" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def file_tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestJobs:
    """``--jobs 2`` runs the repeats in worker processes; the files must not change."""

    @pytest.mark.parametrize(
        "args, n_files",
        [
            (("bench-suite", "--problem", "Dropwave2,SixHumpCamel2", "--repeats", "2"), 11),
            (("optimize", "--problem", "Dropwave2", "--repeats", "3",
              "--timing", "zero"), 7),
        ],
        ids=["bench-suite", "optimize"],
    )
    def test_two_jobs_write_the_same_tree_as_one(self, tmp_path, args, n_files):
        args = (*args, "--n-par", "2", "--iterations", "4", "--seed", "3")
        assert run_cli(*args, "--jobs", "1", "--out", tmp_path / "one") == 0
        assert run_cli(*args, "--jobs", "2", "--out", tmp_path / "two") == 0
        one = file_tree(tmp_path / "one")
        assert len(one) == n_files
        assert file_tree(tmp_path / "two") == one

    def test_evaluator_failure_writes_the_same_files_as_one_job(self, tmp_path, capsys):
        # The plug-in fails on seed 1 of 3, and it runs before Dropwave2.
        args = (
            "bench-suite", "--problem", "plugin_objectives:broken_at_seed_1,Dropwave2",
            "--n-par", "2", "--iterations", "8", "--repeats", "3",
        )
        trees, errors = [], []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run_cli(*args, "--jobs", jobs, "--out", out) == 3
            errors.append(capsys.readouterr().err)
            trees.append(file_tree(out))
        assert trees[0] == trees[1]
        assert errors[0] == errors[1] and "evaluation failed" in errors[0]
        # The run before the failing one, then the failing run's partial log.
        slug = "plugin_objectives_broken_at_seed_1"
        assert sorted(str(p) for p in trees[0]) == [
            f"{slug}/{slug}_prosrs_seed0.csv",
            f"{slug}/{slug}_prosrs_seed0.json",
            f"{slug}/{slug}_prosrs_seed1.csv",
        ]

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("command", ["optimize", "bench-suite"])
    def test_zero_jobs_fail_before_evaluating(self, tmp_path, capsys, command, how):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 0}))
        jobs = ("--jobs", "0") if how == "flag" else ("--config", cfg)
        code = run_cli(
            command, "--problem", "plugin_objectives:unevaluable", "--iterations", "3",
            *jobs, "--out", tmp_path / "out",
        )
        assert code == 2
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestModelError:
    def test_constant_landscape_error_is_noise_floor(self):
        from prosrs.benchmarks import BenchmarkProblem
        from prosrs.cli import model_error_trial
        from prosrs.problem import BoxDomain

        level, noise = 5.0, 0.1
        problem = BenchmarkProblem(
            "Const2", 2, BoxDomain(np.zeros(2), np.ones(2)), noise,
            lambda X: np.full(len(np.atleast_2d(X)), level), level, None,
        )
        err = model_error_trial(problem, n=20, base_seed=0, repeat=0, n_mc=2000)
        assert err <= 5.0 * noise / level

    def test_row_grid(self, tmp_path):
        code = run_cli(
            "model-error", "--problem", "Dropwave2,Rastrigin2", "--n-values", "10,15",
            "--repeats", "2", "--n-mc", "500", "--out", tmp_path,
        )
        assert code == 0
        with open(tmp_path / "model_error.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["function"] for r in rows] == ["Dropwave2", "Dropwave2",
                                                 "Rastrigin2", "Rastrigin2"]
        assert [r["n"] for r in rows] == ["10", "15", "10", "15"]
        for r in rows:
            assert float(r["mean_rel_l2_error"]) > 0
            assert float(r["std_rel_l2_error"]) >= 0


    @pytest.mark.parametrize(
        "bad",
        [("--n-values", "50,1"), ("--n-values", ""), ("--n-mc", "0")],
        ids=["n-below-2", "no-n", "no-mc-points"],
    )
    def test_bad_sizes_fail_before_any_trial(self, tmp_path, monkeypatch, capsys, bad):
        from prosrs import cli

        calls = []
        monkeypatch.setattr(cli, "model_error_trial", lambda *a, **k: calls.append(a) or 1.0)
        code = run_cli(
            "model-error", "--problem", "Ackley10,Dropwave2", "--n-values", "50",
            "--repeats", "2", *bad, "--out", tmp_path / "out",
        )
        assert code == 2
        assert calls == []
        assert "n-" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def loop_rows(path):
    """The rows of a run CSV after the initial design (iteration >= 1)."""
    with open(path) as f:
        return [row for row in csv.DictReader(f) if int(row["iteration"]) >= 1]


class TestCostProfile:
    """optimize's timed run summaries hold the late/early cost ratio of the
    run CSV's loop rows."""

    def test_ratio_reported_for_long_runs(self, tmp_path):
        code = run_cli(
            "optimize", "--problem", "Rastrigin2", "--n-par", "2",
            "--iterations", "75", "--out", tmp_path,
        )
        assert code == 0
        rows = loop_rows(tmp_path / "Rastrigin2_prosrs_seed0.csv")
        assert len(rows) == 75
        summary = json.loads((tmp_path / "Rastrigin2_prosrs_seed0.json").read_text())
        assert summary["late_over_early_median_ratio"] > 0
        assert summary["late_over_early_median_ratio"] == cost_ratio(
            [float(row["algo_time_s"]) for row in rows]
        )

    def test_single_iteration_single_row(self, tmp_path):
        code = run_cli(
            "optimize", "--problem", "Rastrigin2", "--iterations", "1",
            "--out", tmp_path,
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "Rastrigin2_prosrs_aggregate.csv", "Rastrigin2_prosrs_seed0.csv",
            "Rastrigin2_prosrs_seed0.json",
        ]
        assert read_lines(tmp_path / "Rastrigin2_prosrs_seed0.csv")[0] == RUN_HEADER
        assert len(loop_rows(tmp_path / "Rastrigin2_prosrs_seed0.csv")) == 1
        summary = json.loads((tmp_path / "Rastrigin2_prosrs_seed0.json").read_text())
        assert summary["config"]["n_iterations"] == 1
        assert summary["late_over_early_median_ratio"] is None

    def test_restart_design_rows_log_algorithm_time(self, tmp_path):
        # Restarts make design rows the majority of rows 20-70. Each design
        # row logs the algorithm's time since the previous barrier, the first
        # one after a restart the restart's design too, so the early median
        # is positive and the ratio finite.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config": {
            "c_fail": 1, "r_resolution": 0.9, "rho": 0.9, "sigma_crit": 0.9,
            "n_candidates_per_dim": 20,
        }}))
        code = run_cli(
            "optimize", "--problem", "Dropwave2", "--n-par", "1", "--iterations", "90",
            "--config", cfg, "--out", tmp_path / "out",
        )
        assert code == 0
        with open(tmp_path / "out" / "Dropwave2_prosrs_seed0.csv") as f:
            all_rows = list(csv.DictReader(f))
        rows = [row for row in all_rows if int(row["iteration"]) >= 1]
        design = [row for row in all_rows if row["event"] == "doe"]
        assert len(rows) == 90
        assert sum(row["event"] == "doe" for row in rows[19:70]) > 25
        assert all(float(row["algo_time_s"]) > 0 for row in design)
        ratio = cost_ratio([float(row["algo_time_s"]) for row in rows])
        assert np.isfinite(ratio) and ratio > 0

        def reject(token):
            raise ValueError(f"not valid JSON: {token}")

        text = (tmp_path / "out" / "Dropwave2_prosrs_seed0.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        assert summary["config"]["n_iterations"] == 90
        assert summary["late_over_early_median_ratio"] == ratio

    def test_evaluator_failure_flushes_the_partial_log(self, tmp_path, capsys):
        code = run_cli(
            "optimize", "--problem", "plugin_objectives:broken",
            "--n-par", "2", "--iterations", "8", "--out", tmp_path,
        )
        assert code == 3
        assert "evaluation failed" in capsys.readouterr().err
        partial = read_lines(tmp_path / "plugin_objectives_broken_prosrs_seed0.csv")
        assert partial[0] == RUN_HEADER.replace("true_f_best", "noisy_y_best")
        assert len(partial) > 1  # batches before the NaN were flushed
        assert not (tmp_path / "plugin_objectives_broken_prosrs_seed0.json").exists()

    @pytest.mark.parametrize(
        "argv, has_ratio",
        [
            (("optimize", "--timing", "zero"), False),
            (("bench-suite",), False),
            (("bench-suite", "--timing", "real"), True),
        ],
        ids=["optimize-zero", "bench-suite-default", "bench-suite-real"],
    )
    def test_ratio_key_only_with_wall_times(self, tmp_path, argv, has_ratio):
        code = run_cli(*argv, "--problem", "Dropwave2", "--iterations", "2", "--out", tmp_path)
        assert code == 0
        [path] = tmp_path.rglob("Dropwave2_prosrs_seed0.json")
        summary = json.loads(path.read_text())
        assert ("late_over_early_median_ratio" in summary) == has_ratio
        assert summary.get("late_over_early_median_ratio") is None

    def test_cost_profile_command_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("cost-profile", "--problem", "Rastrigin2", "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def run_unevaluated(tmp_path, monkeypatch, command, file_values):
    """Run ``command`` with ``file_values`` as its config file, on a problem
    that must not be evaluated, and return the exit code."""
    from prosrs import cli

    def unevaluable_trial(*args, **kwargs):
        raise RuntimeError("model-error must not run a trial")

    monkeypatch.setattr(cli, "model_error_trial", unevaluable_trial)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_values))
    problem = "Dropwave2" if command == "model-error" else "plugin_objectives:unevaluable"
    return run_cli(command, "--problem", problem, "--config", cfg, "--out", tmp_path / "out")


class TestSettings:
    """Each command reads the settings it lists, from flags or the config file."""

    @pytest.mark.parametrize(
        "command, file_values, key",
        [
            ("optimize", {"iteratons": 2}, "iteratons"),
            ("optimize", {"repeat": 3}, "repeat"),
            ("optimize", {"n_mc": 5}, "n_mc"),
            ("bench-suite", {"n_mc": 5}, "n_mc"),
            ("model-error", {"config": {"rho": 0.5}}, "config"),
            ("bench-suite", {"n_values": [10]}, "n_values"),
            ("model-error", {"timing": "real"}, "timing"),
        ],
    )
    def test_unread_file_key_fails_before_evaluating(
        self, tmp_path, monkeypatch, capsys, command, file_values, key
    ):
        assert run_unevaluated(tmp_path, monkeypatch, command, file_values) == 2
        assert f"does not read config file keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, file_values, key",
        [
            ("optimize", {"config": {"n_par": 2.5}}, "n_par"),
            ("optimize", {"repeats": 1.7}, "repeats"),
            ("optimize", {"seed": "4"}, "seed"),
            ("optimize", {"seed": -1}, "seed"),
            ("model-error", {"n_mc": 2.5}, "n_mc"),
            ("model-error", {"n_values": [10.9]}, "n_values"),
            ("optimize", {"out": 5}, "out"),
            ("optimize", {"problem": 5}, "problem"),
            ("optimize", {"algo": "Random"}, "algo"),
            ("optimize", {"timing": True}, "timing"),
            ("optimize", {"timing": "wall"}, "timing"),
            # A null is a given value, not an absent one.
            ("optimize", {"seed": None, "repeats": None, "n_par": None}, "n_par"),
            ("optimize", {"seed": None}, "seed"),
            ("optimize", {"repeats": None}, "repeats"),
            ("optimize", {"config": {"n_par": None}}, "n_par"),
            ("bench-suite", {"config": {"n_iterations": None}}, "n_iterations"),
            ("model-error", {"n_values": None}, "n_values"),
        ],
    )
    def test_file_values_are_checked_not_cast(
        self, tmp_path, monkeypatch, capsys, command, file_values, key
    ):
        assert run_unevaluated(tmp_path, monkeypatch, command, file_values) == 2
        assert f"{key} (--" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("model-error", "--n-par", "4"),
            ("model-error", "--iterations", "5"),
            ("model-error", "--algo", "random"),
            ("model-error", "--timing", "zero"),
            ("bench-suite", "--n-values", "10"),
        ],
        ids=["model-error-n-par", "model-error-iterations", "model-error-algo",
             "model-error-timing", "bench-suite-n-values"],
    )
    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path, capsys, argv):
        # Cheap settings, so a parser that took the flag would finish quickly.
        cheap = {
            "model-error": ("--n-values", "2", "--n-mc", "1", "--repeats", "1"),
            "bench-suite": ("--iterations", "1"),
        }[argv[0]]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--problem", "Dropwave2", *cheap, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
