"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single "criterion N: PASS/FAIL" line (run pytest with -s
to see them on success). The heavy benchmark criteria (1-3) regenerate data
per seed and are wall-clock bounded where a budget is stated.
"""

import math
import time

import numpy as np
import pytest

from htlreg.data import (
    Dataset,
    DomainTag,
    generate_synthetic,
    kin_analog_spec,
    save_csv,
)
from htlreg.evaluation import default_query_grid, stability_probe
from htlreg.experiment import parse_config, run_experiment
from htlreg.pipeline import KSSpec, htl_fit, select_transformation
from htlreg.ridge import (
    gram,
    krr_fit,
    krr_stability_coeffs,
    linear_kernel,
    polynomial_kernel,
    rbf_kernel,
)
from htlreg.smoothing import KSPredictor, SmoothingKernel
from htlreg.transform import (
    AuxiliaryEstimator,
    QuantizedFamily,
    apply_H,
    estimate_sigma2,
    eval_G,
    loglinear,
    non_transfer,
    offset,
    scale,
)


def report_line(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert passed, f"criterion {number} failed: {detail}"


# the shipped truths: doppler + x, and 5 * doppler
OFFSET_TRUTH = {"transformation": {"family": "offset", "alpha": 1.0},
                "w": {"slope": 1.0}}
SCALE_TRUTH = {"transformation": {"family": "scale", "alpha": 0.0},
               "w": {"intercept": 5.0}}


def _doppler_cv_config(truth, tf_section, out_dir):
    return parse_config({
        "experiment_kind": "synthetic",
        "data": {"noise_variance": 0.01, "truth": truth},
        "sizes": {"n_so": 5000, "n_ta": 100, "n_test": 1000},
        "methods": {
            "source": {"method": "ks", "kernel": "epanechnikov",
                       "bandwidth": [0.001, 0.002, 0.005, 0.01, 0.02,
                                     0.05, 0.1],
                       "cv_folds": 10},
            "target": {"method": "ks", "kernel": "epanechnikov",
                       "bandwidth": [0.01, 0.02, 0.05, 0.1, 0.2, 0.4],
                       "cv_folds": 10},
            "baselines": ["only_target"],
        },
        "transformations": [tf_section],
        "seeds": list(range(20)),
        "output_dir": str(out_dir),
    })


def test_criterion_01_offset_doppler_transfer_wins(tmp_path):
    start = time.perf_counter()
    config = _doppler_cv_config(
        OFFSET_TRUTH, {"family": "offset", "alpha": 1.0}, tmp_path
    )
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    mean = {a["method"]: a["mean_mse"] for a in result["aggregates"]}
    ratio = mean["htl_offset(alpha=1)"] / mean["only_target"]
    report_line(
        1,
        ratio < 0.8 and elapsed < 60.0 and not result["errors"],
        f"HTL/only-target MSE ratio {ratio:.3f} (< 0.8), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_scale_doppler_transfer_wins(tmp_path):
    start = time.perf_counter()
    config = _doppler_cv_config(
        SCALE_TRUTH,
        {"family": "scale", "alpha": 0.0, "aux_bound_B": 25.0},
        tmp_path,
    )
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    mean = {a["method"]: a["mean_mse"] for a in result["aggregates"]}
    ratio = mean["htl_scale(alpha=0)"] / mean["only_target"]
    report_line(
        2,
        ratio < 0.9 and elapsed < 60.0 and not result["errors"],
        f"HTL/only-target MSE ratio {ratio:.3f} (< 0.9), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_03_rate_improvement(tmp_path):
    config = parse_config({
        "experiment_kind": "rate_sweep",
        "data": {"noise_variance": 0.01, "truth": OFFSET_TRUTH,
                 "n_ta_grid": [25, 50, 100, 200, 400, 800]},
        "sizes": {"n_so": 10000},
        "methods": {
            # fixed small source bandwidth (the CV-selected scale from the
            # criterion-1 runs); the compared stages both use the rate rule
            "source": {"method": "ks", "kernel": "epanechnikov",
                       "bandwidth": 0.002},
            "target": {"method": "ks", "kernel": "epanechnikov",
                       "bandwidth": {"alpha": 1.0, "c": 1.0}},
            "baselines": ["only_target"],
        },
        "transformations": [{"family": "offset", "alpha": 1.0}],
        "seeds": list(range(20)),
        "output_dir": str(tmp_path),
    })
    result = run_experiment(config)
    slopes = {name: fit["slope"] for name, fit in result["rate_fits"].items()}
    gap = slopes["htl_offset(alpha=1)"] - slopes["only_target"]
    report_line(
        3,
        gap <= -0.1 and not result["errors"],
        f"slope HTL {slopes['htl_offset(alpha=1)']:.3f} vs only-target "
        f"{slopes['only_target']:.3f}, gap {gap:.3f} (<= -0.1)",
    )


def test_criterion_04_stability_bound_never_violated():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    kernels = list(SmoothingKernel)
    ks_ok = 0
    for case in range(100):
        n = int(rng.integers(10, 40))
        base = Dataset(features=rng.uniform(size=(n, 1)),
                       labels=rng.normal(size=n))
        kernel = kernels[case % len(kernels)]
        h = float(rng.uniform(0.05, 0.5))
        delta = rng.normal(size=n) * float(rng.uniform(0.1, 2.0))
        fit_fn = lambda ds: KSPredictor(ds, kernel, h)
        weights = fit_fn(base).weights
        grid = default_query_grid([0.0], [1.0], seed=case)
        observed, bound = stability_probe(fit_fn, base, delta, weights, grid)
        ks_ok += observed <= bound * (1 + 1e-9) + 1e-15

    krr_ok = 0
    for case in range(100):
        n = int(rng.integers(10, 40))
        base = Dataset(features=rng.uniform(size=(n, 1)),
                       labels=rng.normal(size=n))
        lam = float(rng.uniform(0.01, 1.0))
        ell = float(rng.uniform(0.2, 1.0))
        delta = rng.normal(size=n) * float(rng.uniform(0.1, 2.0))
        fit_fn = lambda ds: krr_fit(ds, rbf_kernel(ell), lam)
        coeffs = krr_stability_coeffs(fit_fn(base))
        grid = default_query_grid([0.0], [1.0], seed=1000 + case)
        observed, bound = stability_probe(fit_fn, base, delta, coeffs, grid)
        krr_ok += observed <= bound * (1 + 1e-9)
    elapsed = time.perf_counter() - start
    report_line(
        4,
        ks_ok == 100 and krr_ok == 100 and elapsed < 10.0,
        f"KS {ks_ok}/100, KRR {krr_ok}/100 bounds held, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_05_unbiased_auxiliary_estimators():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    n_draws = 100_000
    half_width = 0.5  # bounded centered noise
    failures = []
    for tf, anchor_low, anchor_high in [
        (offset(2.0), -1.0, 1.0),
        (scale(0.5), 0.2, 1.5),  # keeps |a + alpha| >= 0.7
    ]:
        est = AuxiliaryEstimator(tf)
        for _ in range(10):
            a = float(rng.uniform(anchor_low, anchor_high))
            w_true = float(rng.uniform(-1.0, 1.0))
            y_clean = eval_G(tf, a, w_true)
            eps = rng.uniform(-half_width, half_width, size=n_draws)
            labels = apply_H(est, np.full(n_draws, a), y_clean + eps)
            se = labels.std(ddof=1) / math.sqrt(n_draws)
            if abs(labels.mean() - w_true) >= 4 * se:
                failures.append((tf.label, a, w_true))
    elapsed = time.perf_counter() - start
    report_line(
        5,
        not failures and elapsed < 5.0,
        f"20/20 anchors within 4 standard errors, {elapsed:.1f}s (< 5s)"
        if not failures else f"failed anchors: {failures}",
    )


def test_criterion_06_selection_correctness():
    true_alpha = 1.0
    family = QuantizedFamily(L_alpha=2.0, K=4)
    nearest = family.alphas[np.argmin(np.abs(family.alphas - true_alpha))]
    hits = 0
    dominance = 0
    runs = 20
    for seed in range(runs):
        config = parse_config({
            "experiment_kind": "selection",
            "data": {"noise_variance": 0.01, "truth": {
                "transformation": {"family": "offset", "alpha": true_alpha},
                "w": {"slope": 1.0}}},
            "sizes": {"n_so": 2000, "n_ta": 100, "n_val": 50},
            "methods": {
                "source": {"method": "ks", "kernel": "epanechnikov",
                           "bandwidth": 0.005},
                "target": {"method": "ks", "kernel": "epanechnikov",
                           "bandwidth": {"alpha": 1.0}},
            },
            "selection_family": {"L_alpha": 2.0, "K": 4},
            "seeds": [seed],
            "output_dir": "/tmp/htlreg_acc6_unused",
        })
        from htlreg.experiment import _synthetic_cells

        [(_, data)] = _synthetic_cells(config, seed)
        so_spec = KSSpec(SmoothingKernel.EPANECHNIKOV, bandwidth=0.005)
        result = select_transformation(
            f_so_hat=so_spec.fit(data.source),
            target=data.target,
            validation=data.validation,
            family=family,
            w_spec=KSSpec(SmoothingKernel.EPANECHNIKOV, bandwidth=0.215),
        )
        hits += abs(result.chosen.alpha - nearest) < 1e-12
        mses = [m for _, m in result.per_candidate_validation_mse]
        chosen_mse = result.per_candidate_validation_mse[result.chosen_index][1]
        dominance += chosen_mse == min(mses)
    report_line(
        6,
        hits >= 18 and dominance == runs,
        f"nearest-grid-point picks {hits}/{runs} (>= 18), "
        f"argmin dominance {dominance}/{runs} (= {runs})",
    )


def _brute_force_ks(train_x, train_y, kernel, h, query):
    """Plain-loop re-implementation of the weight formula."""
    def K(u):
        if kernel is SmoothingKernel.BOXCAR:
            return 1.0 if u <= 1.0 else 0.0
        if kernel is SmoothingKernel.EPANECHNIKOV:
            return 1.0 - u * u if u <= 1.0 else 0.0
        if kernel is SmoothingKernel.TRUNCATED_GAUSSIAN:
            return math.exp(-0.5 * u * u) if u <= 1.0 else 0.0
        return math.exp(-0.5 * u * u)

    vals = []
    dists = []
    for xi in train_x:
        dist = math.sqrt(sum((float(q) - float(v)) ** 2
                             for q, v in zip(query, xi)))
        dists.append(dist)
        vals.append(K(dist / h))
    total = sum(vals)
    if total == 0.0:
        return float(train_y[dists.index(min(dists))])
    return sum(v * y for v, y in zip(vals, train_y)) / total


def _dense_krr_oracle(kernel, xs, ys, lam, queries):
    """Dense linear-solve oracle with its own Gram computation."""
    n = len(xs)
    K = np.array([[_kval(kernel, a, b) for b in xs] for a in xs])
    coef = np.linalg.solve(K + n * lam * np.eye(n), ys)
    Kq = np.array([[_kval(kernel, q, b) for b in xs] for q in queries])
    return Kq @ coef


def _kval(kernel, a, b):
    if kernel.shape.value == "rbf":
        return math.exp(-float(np.sum((a - b) ** 2)) /
                        (2.0 * kernel.lengthscale**2))
    if kernel.shape.value == "linear":
        return float(np.dot(a, b))
    return (float(np.dot(a, b)) + kernel.offset) ** kernel.degree


def test_criterion_07_oracle_equivalence():
    rng = np.random.default_rng(123)
    kernels = list(SmoothingKernel)
    ks_max_err = 0.0
    for case in range(100):
        n = int(rng.integers(2, 15))
        d = int(rng.integers(1, 4))
        xs = rng.uniform(size=(n, d))
        ys = rng.normal(size=n)
        kernel = kernels[case % len(kernels)]
        h = float(rng.uniform(0.05, 1.0))
        p = KSPredictor(Dataset(features=xs, labels=ys), kernel, h)
        for _ in range(3):
            q = rng.uniform(size=d)
            expected = _brute_force_ks(xs, ys, kernel, h, q)
            ks_max_err = max(ks_max_err, abs(p.predict_one(q) - expected))

    krr_max_err = 0.0
    rkhs_kernels = [rbf_kernel(0.6), linear_kernel(), polynomial_kernel(2, 1.0)]
    for case in range(100):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 3))
        xs = rng.normal(size=(n, d))
        ys = rng.normal(size=n)
        lam = float(rng.uniform(0.05, 1.0))
        kernel = rkhs_kernels[case % 3]
        p = krr_fit(Dataset(features=xs, labels=ys), kernel, lam)
        queries = rng.normal(size=(4, d))
        expected = _dense_krr_oracle(kernel, xs, ys, lam, queries)
        krr_max_err = max(krr_max_err,
                          float(np.abs(p.predict(queries) - expected).max()))
    report_line(
        7,
        ks_max_err <= 1e-12 and krr_max_err <= 1e-9,
        f"KS max |diff| {ks_max_err:.2e} (<= 1e-12), "
        f"KRR max |diff| {krr_max_err:.2e} (<= 1e-9), 100 cases each",
    )


def test_criterion_08_identity_reductions():
    # non-transfer pipeline == direct target fit
    rng = np.random.default_rng(5)
    spec = kin_analog_spec()
    source = generate_synthetic(spec, 150, DomainTag.SOURCE, seed=0)
    target = generate_synthetic(spec, 60, DomainTag.TARGET, seed=1)
    tf = non_transfer()
    w_spec = KSSpec(SmoothingKernel.TRUNCATED_GAUSSIAN, bandwidth=0.8)
    pipeline = htl_fit(KSSpec(bandwidth=0.8).fit(source), target,
                       AuxiliaryEstimator(tf), w_spec)
    direct = w_spec.fit(target)
    queries = rng.uniform(size=(100, 8))
    reduction_gap = float(np.abs(pipeline.predict(queries)
                                 - direct.predict(queries)).max())

    # lam = 0 KRR interpolates through well-separated points
    xs = np.array([0.05, 0.28, 0.5, 0.73, 0.95])
    ys = np.sin(5.0 * xs) + 0.3 * xs
    p = krr_fit(Dataset(features=xs.reshape(-1, 1), labels=ys),
                rbf_kernel(0.3), lam=0.0)
    interp_gap = float(np.abs(p.predict(xs.reshape(-1, 1)) - ys).max())
    report_line(
        8,
        reduction_gap <= 1e-12 and interp_gap <= 1e-6,
        f"non-transfer reduction gap {reduction_gap:.2e} (<= 1e-12), "
        f"interpolation gap {interp_gap:.2e} (<= 1e-6)",
    )


def test_criterion_09_calibration_formula_fidelity():
    rng = np.random.default_rng(9)
    max_rel = 0.0
    for _ in range(1000):
        beta = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
        sigma2 = float(rng.uniform(0.0, 0.2))
        a = float(rng.uniform(0.3, 1.5)) * float(rng.choice([-1.0, 1.0]))
        y = float(rng.uniform(-1.0, 1.0))
        est = AuxiliaryEstimator(loglinear(beta), sigma2=sigma2)
        got = apply_H(est, a, y)
        oracle = math.exp(y / (beta * a) + sigma2 * a * a)
        max_rel = max(max_rel, abs(got - oracle) / abs(oracle))
    pooled = estimate_sigma2([[1.0, 3.0], [2.0, 4.0]])
    report_line(
        9,
        max_rel <= 1e-12 and pooled == 2.0,
        f"calibrated estimator max rel diff {max_rel:.2e} (<= 1e-12) over "
        f"1000 inputs; pooled-variance worked example = {pooled} (= 2)",
    )


def test_criterion_10_csv_transfer_table_shaped_report(tmp_path):
    # externally-collected benchmark tables are out of reach; the structural
    # substitute is an 8-d synthetic analog driven through the CSV path
    spec = kin_analog_spec()
    source = generate_synthetic(spec, 400, DomainTag.SOURCE, seed=0)
    target = generate_synthetic(spec, 200, DomainTag.TARGET, seed=1)
    save_csv(source, tmp_path / "kin_source.csv")
    save_csv(target, tmp_path / "kin_target.csv")
    config = parse_config({
        "experiment_kind": "csv_transfer",
        "data": {"source_csv": str(tmp_path / "kin_source.csv"),
                 "target_csv": str(tmp_path / "kin_target.csv"),
                 "label_column": "y", "n_ta": [40, 80]},
        "sizes": {"n_so": 300},
        "methods": {
            "source": {"method": "krr", "kernel": {"shape": "rbf"},
                       "lambda": [0.001, 0.01, 0.1], "cv_folds": 5},
            "target": {"method": "krr", "kernel": {"shape": "rbf"},
                       "lambda": [0.001, 0.01, 0.1], "cv_folds": 5},
            "baselines": ["only_target", "only_source", "combined"],
        },
        "transformations": [{"family": "offset", "alpha": 1.0}],
        "seeds": [0, 1, 2],
        "output_dir": str(tmp_path / "out"),
    })
    result = run_experiment(config)
    methods = {"only_target", "only_source", "combined", "htl_offset(alpha=1)"}
    got_methods = {r["method"] for r in result["rows"]}
    cells = {(a["method"], a["n_ta"]) for a in result["aggregates"]}
    shaped = (
        not result["errors"]
        and got_methods == methods
        and cells == {(m, n) for m in methods for n in (40, 80)}
        and all("mean_mse" in a and "std_mse" in a for a in result["aggregates"])
        and (tmp_path / "out" / "report.json").exists()
        and (tmp_path / "out" / "per_seed.csv").exists()
    )
    report_line(
        10,
        shaped,
        f"{len(result['rows'])} rows over methods x n_ta x seeds, "
        f"{len(result['aggregates'])} aggregate cells with mean +- std",
    )
