"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.optimize import minimize

from oracles import max_zoom_level, training_loss
from selection_oracle import oracle_select

from prosrs.benchmarks import (
    BenchmarkProblem,
    benchmark_objective,
    make_benchmark,
)
from prosrs.cli import cost_ratio, main as cli_main, model_error_trial
from prosrs.engine import run_prosrs, run_random_search
from prosrs.problem import (
    BoxDomain,
    EvalDataset,
    ExploitState,
    default_config,
)
from prosrs.srs import select_batch
from prosrs.surrogate import RbfSurrogate, fit_rbf, predict_batch
from prosrs.zoomtree import ZoomNode, restart_condition, update_state


def report(num, desc, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def benchmark_run(problem, algo, seed, n_par, n_iterations):
    cfg = default_config(problem.dimension, n_par, n_iterations=n_iterations, seed=seed)
    runner = run_prosrs if algo == "prosrs" else run_random_search
    return runner(benchmark_objective(problem, seed), cfg)


def test_criterion_01_zoom_level_bound():
    bound = max_zoom_level(0.4, 0.01)
    assert bound == 6 == math.ceil(math.log(0.01) / math.log(0.4))
    observed = 0
    zoom_ins = 0
    camel = make_benchmark("SixHumpCamel2")
    for seed in range(25):
        res = benchmark_run(camel, "prosrs", seed, n_par=4, n_iterations=40)
        observed = max(observed, max(log.zoom_level for log in res.logs))
        zoom_ins += sum(log.event == "zoom_in" for log in res.logs)
    levy = make_benchmark("Levy10")
    for seed in range(25):
        res = benchmark_run(levy, "prosrs", seed, n_par=12, n_iterations=25)
        observed = max(observed, max(log.zoom_level for log in res.logs))
        zoom_ins += sum(log.event == "zoom_in" for log in res.logs)
    report(
        1,
        "max zoom level over 50 runs within ceil(log_0.4 0.01) = 6",
        zoom_ins > 0 and observed <= bound,
        f"max observed {observed}, {zoom_ins} zoom-ins",
    )


def test_criterion_02_state_machine_tables():
    domain2 = BoxDomain(np.zeros(2), np.ones(2))
    cfg2 = default_config(2, 1)  # c_fail = 2, delta_gamma = 2

    def node(state, counter=0, domain=domain2):
        n = ZoomNode(domain, state, 0.02)
        n.fail_counter = counter
        return n

    # (state, counter, n_eff, failed, config, expected state, expected counter)
    table = [
        # exploration phase: p decays by n_eff^(-1/d), everything else frozen
        (ExploitState(0.0, 1.0, 0.1), 0, 16, True, cfg2, ExploitState(0.0, 0.25, 0.1), 0),
        (ExploitState(0.0, 1.0, 0.1), 0, 16, False, cfg2, ExploitState(0.0, 0.25, 0.1), 0),
        (ExploitState(-2.0, 0.5, 0.05), 1, 4, True, cfg2, ExploitState(-2.0, 0.25, 0.05), 1),
        (ExploitState(0.0, 0.1, 0.1), 0, 4, True, cfg2, ExploitState(0.0, 0.05, 0.1), 0),
        # failure-counting phase below p = 0.1
        (ExploitState(0.0, 0.05, 0.1), 0, 4, True, cfg2, ExploitState(0.0, 0.05, 0.1), 1),
        (ExploitState(0.0, 0.05, 0.1), 1, 4, True, cfg2, ExploitState(-2.0, 0.05, 0.05), 0),
        (ExploitState(0.0, 0.05, 0.1), 1, 4, False, cfg2, ExploitState(0.0, 0.05, 0.1), 0),
        (ExploitState(-2.0, 0.09, 0.05), 1, 9, True, cfg2, ExploitState(-4.0, 0.09, 0.025), 0),
        (ExploitState(0.0, 0.0, 0.1), 0, 100, False, cfg2, ExploitState(0.0, 0.0, 0.1), 0),
    ]
    # longer streaks with c_fail = 4
    domain8 = BoxDomain(np.zeros(8), np.ones(8))
    cfg8 = default_config(8, 2)
    assert cfg8.c_fail == 4
    for counter in range(3):
        table.append(
            (ExploitState(0.0, 0.05, 0.1), counter, 2, True, cfg8,
             ExploitState(0.0, 0.05, 0.1), counter + 1)
        )
    table.append(
        (ExploitState(0.0, 0.05, 0.1), 3, 2, True, cfg8,
         ExploitState(-2.0, 0.05, 0.05), 0)
    )

    ok = True
    for state, counter, n_eff, failed, cfg, want_state, want_counter in table:
        n = node(state, counter, domain2 if cfg is cfg2 else domain8)
        update_state(n, n_eff, failed, cfg)
        if n.state != want_state or n.fail_counter != want_counter:
            ok = False
            break
    report(2, "state-update table matches hand enumeration exactly", ok)


def test_criterion_03_fit_first_order_optimality():
    rng = np.random.default_rng(2024)
    worst = np.inf
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 31))
        d = int(rng.integers(1, 5))
        X = rng.uniform(0, 1, size=(n, d))
        y = 5.0 * rng.standard_normal(n)
        data = EvalDataset(X, y)
        gamma = float(-2.0 * rng.integers(0, 3))
        # Unused draw: it keeps the 100 datasets those of earlier versions.
        rng.integers(1 << 31)
        model = fit_rbf(data, BoxDomain(np.zeros(d), np.ones(d)), gamma)
        base = training_loss(model, data)
        for j in range(n):
            for delta in (1e-4, -1e-4):
                c = model.coefficients.copy()
                c[j] += delta
                increase = training_loss(replace(model, coefficients=c), data) - base
                worst = min(worst, increase)
                if increase < -1e-10:
                    ok = False
    report(
        3,
        "coefficient perturbations never reduce the fit loss (100 datasets)",
        ok,
        f"worst increase {worst:.3e}",
    )


def test_criterion_04_selection_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    mismatches = 0
    for trial in range(1000):
        d = int(rng.integers(1, 4))
        t = int(rng.integers(2, 9))
        n_par = int(rng.integers(1, min(t, 4) + 1))
        dom = BoxDomain(np.zeros(d), np.ones(d))
        n_centers = int(rng.integers(2, 6))
        model = RbfSurrogate(
            rng.uniform(0, 1, size=(n_centers, d)),
            rng.normal(size=n_centers),
            0.0, 0.0, dom,
        )
        pts = rng.uniform(0, 1, size=(t, d))
        # Unused draws, the evaluated points of earlier versions, whose
        # spread was measured apart from the model: they keep the 1000 pools
        # those of earlier versions. Spread is now to the model's centres.
        rng.uniform(0, 1, size=(int(rng.integers(1, 4)), d))
        weights = np.sort(rng.uniform(0.3, 1.0, size=n_par))
        g = predict_batch(model, pts)
        idx = select_batch(pts, model, weights)
        if idx != oracle_select(pts, g, model.centers, weights):
            mismatches += 1
    report(
        4,
        "batch selection equals exhaustive oracle on 1000 random pools",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_05_restart_threshold_is_strict():
    cfg1 = default_config(1, 1)  # r = 0.01
    root1 = BoxDomain(np.array([0.0]), np.array([100.0]))

    def child(sides, npts, root):
        # The child domain and its evaluation count, restart_condition's
        # first two arguments.
        sides = np.atleast_1d(np.asarray(sides, dtype=float))
        lo = root.lower + 1.0
        return BoxDomain(lo, lo + sides), npts

    checks = []
    # n = 1: threshold at side < r * 100 = 1.0, strictly
    checks.append(restart_condition(*child([1.0], 1, root1), root1, cfg1) is False)
    checks.append(restart_condition(*child([1.0 - 1e-12], 1, root1), root1, cfg1) is True)
    checks.append(restart_condition(*child([1.0 + 1e-12], 1, root1), root1, cfg1) is False)
    # n = 4 in 1-D: factor 0.25, threshold at side < 4.0
    checks.append(restart_condition(*child([4.0], 4, root1), root1, cfg1) is False)
    checks.append(restart_condition(*child([4.0 - 1e-9], 4, root1), root1, cfg1) is True)
    # all dimensions must pass: one fine and one coarse dimension -> no restart
    cfg2 = default_config(2, 1)
    root2 = BoxDomain(np.zeros(2), np.full(2, 100.0))
    checks.append(restart_condition(*child([0.5, 50.0], 1, root2), root2, cfg2) is False)
    checks.append(restart_condition(*child([0.5, 0.5], 1, root2), root2, cfg2) is True)
    report(5, "restart trigger flips exactly at the strict inequality", all(checks))


def test_criterion_06_desk_scale_optimization_performance():
    camel = make_benchmark("SixHumpCamel2")

    # Independent oracle for the global minimum: coarse grid + local refinement.
    g1 = np.linspace(-3, 3, 301)
    g2 = np.linspace(-2, 2, 201)
    xx, yy = np.meshgrid(g1, g2)
    grid = np.column_stack([xx.ravel(), yy.ravel()])
    vals = camel.true_mean(grid)
    start = grid[int(np.argmin(vals))]
    refined = minimize(
        lambda x: camel.true_mean(x), start, method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5000},
    )
    f_min = float(refined.fun)
    assert abs(f_min - camel.known_min_value) <= 1e-4

    n_iter = 40
    curves = {"prosrs": [], "random": []}
    for seed in range(20):
        for algo in curves:
            res = benchmark_run(camel, algo, seed, n_par=4, n_iterations=n_iter)
            curve = {}
            for log in res.logs:
                curve[log.iteration] = float(camel.true_mean(log.best_x_so_far))
            curves[algo].append([curve[k] for k in range(1, n_iter + 1)])
    med_pro = np.median(np.array(curves["prosrs"]), axis=0) - f_min
    med_rnd = np.median(np.array(curves["random"]), axis=0) - f_min
    final_ok = med_pro[-1] <= 0.1
    dominated = bool(np.all(med_pro[9:] <= med_rnd[9:]))
    report(
        6,
        "median regret <= 0.1 and below random search from iteration 10 on",
        final_ok and dominated,
        f"final median regret {med_pro[-1]:.4f} vs random {med_rnd[-1]:.4f}",
    )


def test_criterion_07_convergence_in_probability_proxy():
    x_opt = 0.37

    def quad(x):
        X = np.atleast_2d(np.asarray(x, dtype=float))
        v = (X[:, 0] - x_opt) ** 2
        return float(v[0]) if np.asarray(x).ndim == 1 else v

    problem = BenchmarkProblem(
        "Quadratic1", 1, BoxDomain(np.array([-1.0]), np.array([1.0])), 0.05,
        quad, 0.0, np.array([x_opt]),
    )
    milestones = (10, 40, 160)
    hits = {m: 0 for m in milestones}
    for seed in range(50):
        res = benchmark_run(problem, "prosrs", seed, n_par=1, n_iterations=160)
        best = np.inf
        reached = {}
        for log in res.logs:
            best = min(best, float(np.abs(log.proposed_x[:, 0] - x_opt).min()))
            for m in milestones:
                if log.iteration <= m:
                    reached[m] = best
        for m in milestones:
            hits[m] += reached[m] <= 0.05
    fracs = [hits[m] / 50 for m in milestones]
    ok = fracs[0] <= fracs[1] <= fracs[2] and fracs[2] >= 0.95
    report(
        7,
        "fraction of seeds within 0.05 of the minimizer grows to >= 0.95",
        ok,
        f"fractions at N=10/40/160: {fracs}",
    )


def test_criterion_08_regression_error_decreases_with_data():
    ok = True
    details = []
    for name in ("Griewank10", "Levy10"):
        problem = make_benchmark(name)
        wins = 0
        means = {10: [], 100: []}
        for rep in range(10):
            e10 = model_error_trial(problem, 10, base_seed=0, repeat=rep, n_mc=100_000)
            e100 = model_error_trial(problem, 100, base_seed=0, repeat=rep, n_mc=100_000)
            means[10].append(e10)
            means[100].append(e100)
            wins += e100 < e10
        mean10 = float(np.mean(means[10]))
        mean100 = float(np.mean(means[100]))
        details.append(f"{name}: n=10 {mean10:.3f} n=100 {mean100:.3f} wins {wins}/10")
        if not (wins >= 8 and mean100 < mean10):
            ok = False
    report(8, "relative L2 error at n=100 beats n=10 in >= 8/10 repeats", ok,
           "; ".join(details))


def test_criterion_09_flat_cost_trend():
    problem = make_benchmark("Rastrigin2")
    res = benchmark_run(problem, "prosrs", seed=0, n_par=4, n_iterations=200)
    algo_times = [log.algo_time_s for log in res.logs if log.iteration >= 1]
    assert len(algo_times) == 200
    ratio = cost_ratio(algo_times)
    report(
        9,
        "median algorithm time, last 50 iterations <= 5x iterations 20-70",
        ratio <= 5.0,
        f"ratio {ratio:.2f}",
    )


def test_criterion_10_bench_suite_determinism(tmp_path):
    args = [
        "bench-suite", "--n-par", "2", "--iterations", "3", "--repeats", "2",
        "--seed", "0",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    same_layout = files_a == files_b and len(files_a) > 12
    identical = same_layout and all(
        (out_a / rel).read_bytes() == (out_b / rel).read_bytes() for rel in files_a
    )
    report(
        10,
        "two identically seeded bench-suite runs are byte-identical",
        identical,
        f"{len(files_a)} files compared",
    )
