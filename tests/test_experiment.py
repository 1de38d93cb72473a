import json
import math
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from htlreg import experiment, pipeline, ridge, smoothing
from htlreg.cli import build_parser, main as cli_main
from htlreg.data import Dataset, DomainTag, load_csv
from htlreg.experiment import (
    ConfigError,
    cv_folds_indices,
    grid_search_cv,
    load_config,
    parse_config,
    run_experiment,
)
from htlreg.pipeline import (
    BandwidthRule,
    KRRSpec,
    KSSpec,
    HTLPredictor,
    LambdaRule,
    construct_auxiliary,
)
from htlreg.ridge import (
    ConditioningError,
    linear_kernel,
    median_heuristic,
    median_heuristic_sq,
    polynomial_kernel,
    rbf_kernel,
)
from htlreg.smoothing import KSPredictor, SmoothingKernel
from htlreg.transform import AuxiliaryEstimator, loglinear, non_transfer, offset, scale

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BOXCAR = SmoothingKernel.BOXCAR
LINEAR = ridge.RKHSKernel(ridge.KernelShape.LINEAR)


def offset_truth():
    """A fresh copy of the offset benchmark's truth: doppler + x."""
    return {"transformation": {"family": "offset", "alpha": 1.0},
            "w": {"slope": 1.0}}


def base_config(**overrides):
    cfg = {
        "experiment_kind": "synthetic",
        "data": {"noise_variance": 0.01, "truth": offset_truth()},
        "sizes": {"n_so": 200, "n_ta": 40, "n_test": 100},
        "methods": {
            "source": {"method": "ks", "kernel": "epanechnikov",
                       "bandwidth": 0.02},
            "target": {"method": "ks", "kernel": "epanechnikov",
                       "bandwidth": 0.15},
            "baselines": ["only_target"],
        },
        "transformations": [{"family": "offset", "alpha": 1.0}],
        "seeds": [0],
        "output_dir": "out",
    }
    cfg.update(overrides)
    return cfg


def _selection(cfg, **family):
    """Turn a base config into a selection run over the given family section,
    without the transformations, baselines and test sample a selection run
    rejects."""
    cfg.update(experiment_kind="selection", selection_family=family)
    del cfg["transformations"], cfg["methods"]["baselines"], cfg["sizes"]["n_test"]
    cfg["sizes"]["n_val"] = 20


def _target(cfg, section):
    cfg["methods"]["target"] = section


def _kind(cfg, kind, **data):
    """Turn a base config into a rate_sweep run, which keeps its truth, or a
    csv_transfer run, whose only data is ``data``; n_so is the only size of
    either."""
    if kind == "rate_sweep":
        data = {**cfg["data"], **data}
    cfg.update(experiment_kind=kind, data=data, sizes={"n_so": cfg["sizes"]["n_so"]})


class TestConfigParsing:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="experiment_kind"):
            parse_config(base_config(experiment_kind="bogus"))

    def test_missing_methods(self):
        cfg = base_config()
        del cfg["methods"]
        with pytest.raises(ConfigError, match="config.methods"):
            parse_config(cfg)

    def test_empty_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(base_config(seeds=[]))

    def test_unknown_baseline(self):
        cfg = base_config()
        cfg["methods"]["baselines"] = ["cdm"]
        with pytest.raises(ConfigError, match="unknown baseline"):
            parse_config(cfg)

    @pytest.mark.parametrize("method", ["ks", "krr"])
    def test_a_method_without_its_hyperparameter_names_the_key(self, method):
        key = "bandwidth" if method == "ks" else "lambda"
        cfg = base_config()
        _target(cfg, {"method": method})
        with pytest.raises(ConfigError, match=rf"^missing required key "
                                              rf"config\.methods\.target\.{key}$"):
            parse_config(cfg)

    @pytest.mark.parametrize("section, candidates, folds", [
        ({"bandwidth": 0.1}, [KSSpec(BOXCAR, bandwidth=0.1)], 10),
        ({"bandwidth": [0.1]}, [KSSpec(BOXCAR, bandwidth=0.1)], 10),
        ({"bandwidth": [0.1, 0.3, 0.2], "cv_folds": 4},
         [KSSpec(BOXCAR, bandwidth=h) for h in (0.1, 0.3, 0.2)], 4),
        ({"bandwidth": {"alpha": 0.5}}, [KSSpec(BOXCAR, rule=BandwidthRule(alpha=0.5))],
         10),
        ({"lambda": 0.01}, [KRRSpec(LINEAR, lam=0.01)], 10),
        ({"lambda": [0.01]}, [KRRSpec(LINEAR, lam=0.01)], 10),
        ({"lambda": [0.01, 1, 0.1], "cv_folds": 3},
         [KRRSpec(LINEAR, lam=lam) for lam in (0.01, 1.0, 0.1)], 3),
        ({"lambda": {"beta": 2.0, "c": 0.1}},
         [KRRSpec(LINEAR, rule=LambdaRule(beta=2.0, c=0.1))], 10),
    ])
    def test_each_hyperparameter_shape_parses_to_its_specs(self, section, candidates,
                                                           folds):
        # a number, a list of one or more numbers, or a rule object
        method, kernel = (("ks", "boxcar") if "bandwidth" in section
                          else ("krr", {"shape": "linear"}))
        cfg = base_config()
        _target(cfg, {"method": method, "kernel": kernel, **section})
        assert parse_config(cfg).target_method == experiment.MethodConfig(
            tuple(candidates), folds)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "experiment_kind": oops\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_a_byte_order_mark_is_read_past(self, tmp_path):
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        text = (CONFIGS / "selection.json").read_text(encoding="utf-8")
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_config(marked) == load_config(plain)

    @pytest.mark.parametrize("name", ["offset_doppler", "scale_doppler",
                                      "rate_sweep", "selection"])
    def test_two_parses_of_one_config_compare_equal(self, name):
        # the truth's w and input sampler are values, not closures
        first, second = (load_config(CONFIGS / f"{name}.json") for _ in range(2))
        assert first.synthetic is not None
        assert first == second

    def test_a_decode_error_after_a_byte_order_mark_counts_the_mark(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xef\xbb\xbf{\xff}")
        with pytest.raises(ConfigError, match="invalid start byte at byte 4$"):
            load_config(path)

    @pytest.mark.parametrize("literal, got", [("NaN", "nan"), ("1e999", "inf")])
    def test_non_finite_literal_names_key(self, tmp_path, literal, got):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()).replace(
            '"noise_variance": 0.01', f'"noise_variance": {literal}'))
        with pytest.raises(ConfigError, match=f"^config.data.noise_variance: "
                                              f"expected a finite number, got {got}$"):
            load_config(path)

    def test_relative_paths_resolved_against_config(self, tmp_path):
        (tmp_path / "src.csv").write_text("x0,y\n0,1\n1,2\n2,1\n")
        (tmp_path / "ta.csv").write_text("x0,y\n0,1\n1,2\n2,1\n3,0\n")
        cfg = base_config(
            experiment_kind="csv_transfer",
            data={"source_csv": "src.csv", "target_csv": "ta.csv",
                  "label_column": "y", "n_ta": [2]},
        )
        del cfg["sizes"]  # n_so: every row of the 3-row source
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        parsed = load_config(path)
        assert parsed.data["source_csv"] == str(tmp_path / "src.csv")

    def test_integral_floats_parse_as_ints(self):
        cfg = base_config(seeds=[1.0])
        cfg["sizes"]["n_ta"] = 40.0
        _target(cfg, {"method": "ks", "bandwidth": [0.1, 0.2],
                      "cv_folds": 5.0})
        parsed = parse_config(cfg)
        assert (parsed.n_ta_sizes, parsed.target_method.cv_folds, parsed.seeds) == (
            (40,), 5, (1,))
        assert all(type(n) is int for n in parsed.n_ta_sizes)

    def test_each_family_reads_its_own_keys(self):
        cfg = base_config(transformations=[
            {"family": "offset", "alpha": 1.0},
            {"family": "scale", "alpha": 0.5, "aux_bound_B": 25},
            {"family": "non_transfer"},
            {"family": "loglinear", "beta": 2.0, "sigma2": 0},
            {"family": "loglinear", "beta": -1.0, "sigma2": 0.01,
             "aux_bound_B": 3.0},
        ])
        assert parse_config(cfg).transformations == (
            AuxiliaryEstimator(offset(1.0)),
            AuxiliaryEstimator(scale(0.5, aux_bound_B=25.0)),
            AuxiliaryEstimator(non_transfer()),
            AuxiliaryEstimator(loglinear(2.0), sigma2=0.0),
            AuxiliaryEstimator(loglinear(-1.0, aux_bound_B=3.0), sigma2=0.01),
        )

    def test_one_candidate_grid_needs_no_folds(self):
        cfg = base_config()
        cfg["sizes"]["n_ta"] = 5
        _target(cfg, {"method": "ks", "bandwidth": [0.1], "cv_folds": 10})
        assert parse_config(cfg).target_method.candidates == (KSSpec(
            SmoothingKernel.TRUNCATED_GAUSSIAN, bandwidth=0.1),)

    def test_missing_csv_rejected_at_parse_time(self, tmp_path):
        cfg = base_config(
            experiment_kind="csv_transfer",
            data={"source_csv": str(tmp_path / "none.csv"),
                  "target_csv": str(tmp_path / "none2.csv"), "n_ta": [2]},
            sizes={"n_so": 2},
        )
        with pytest.raises(ConfigError, match="no such file"):
            parse_config(cfg)

    def test_csv_feature_counts_must_match(self, tmp_path):
        cfg = _csv_transfer_config(tmp_path)
        (tmp_path / "ta.csv").write_text(
            "x0,y\n" + "".join(f"{i / 80},{i % 3}\n" for i in range(80)))
        with pytest.raises(ConfigError, match=r"^config\.data\.target_csv: 1 "
                                              r"feature columns differ from the "
                                              r"source CSV's 2$"):
            parse_config(cfg)

    def test_a_csv_that_is_not_utf8_names_the_key_and_the_byte(self, tmp_path):
        cfg = _csv_transfer_config(tmp_path)
        path = tmp_path / "ta.csv"
        text = path.read_bytes()
        cut = text.index(b"\n", len(text) // 2) + 1
        path.write_bytes(text[:cut] + b"\xff" + text[cut:])
        with pytest.raises(ConfigError, match=(
                rf"^config\.data\.target_csv: {re.escape(str(path))}: not UTF-8 "
                rf"text: invalid start byte at byte {cut}$")):
            parse_config(cfg)

    def test_csv_n_so_beyond_the_source_rows_fails_at_parse_time(self, tmp_path):
        cfg = _csv_transfer_config(tmp_path)  # a 120-row source CSV
        cfg["sizes"]["n_so"] = 121
        with pytest.raises(ConfigError, match=r"^config\.sizes\.n_so: 121 rows "
                                              r"exceed the 120 of the source CSV$"):
            parse_config(cfg)
        cfg["sizes"]["n_so"] = 120
        assert parse_config(cfg).n_so == 120
        del cfg["sizes"]["n_so"]  # every row
        assert parse_config(cfg).n_so == 120

    @pytest.mark.parametrize("edit, argv, key", [
        (lambda c: c.update(outputdir="x"), [], "outputdir"),
        (lambda c: c["sizes"].update(n_tset=100), [], "n_tset"),
        (lambda c: c["methods"].update(baseline=["combined"]), [], "baseline"),
        (lambda c: c["methods"]["source"].update(cv_fold=5), [], "cv_fold"),
        (lambda c: c["methods"]["target"].update(lambda_=0.1), [], "lambda_"),
        (lambda c: c["transformations"][0].update(aux_bound=3.0), [],
         "aux_bound"),
        (lambda c: c["methods"].update(target={
            "method": "ks", "bandwidth": [0.1, 0.2], "cv_folds": 1}),
         [], "cv_folds"),
        (lambda c: c["methods"]["target"].update(bandwidth=0.0), [],
         "bandwidth"),
        (lambda c: c["methods"].update(target={
            "method": "ks", "bandwidth": [0.1, -0.2]}), [],
         "config.methods.target.bandwidth"),
        (lambda c: c["methods"].update(target={
            "method": "krr", "lambda": -1.0}), [], "lambda"),
        (lambda c: c["methods"].update(target={
            "method": "krr", "lambda": [0.1, -0.1]}), [],
         "config.methods.target.lambda"),
        (lambda c: c.update(seeds=[0, -1]), [], "seeds"),
        (lambda c: None, ["--seeds", "-1"], "--seeds"),
        (lambda c: c.update(transformations=[{"family": "loglinear", "beta": 1.0}]),
         [], "missing required key config.transformations[0].sigma2"),
        (lambda c: c["transformations"][0].update(estimator_mode="calibrated"),
         [], "config.transformations[0].estimator_mode: not a key of the "
         "'offset' family"),
        (lambda c: c.update(transformations=[{
            "family": "loglinear", "beta": 1.0, "sigma2": -1}]), [],
         "config.transformations[0]: sigma2 must be >= 0"),
        (lambda c: _target(c, {"method": "ks", "bandwidth": {"alpha": 2.0}}),
         [], "config.methods.target.bandwidth"),
        (lambda c: _target(c, {"method": "krr", "lambda": {"p": 1.5}}),
         [], "config.methods.target.lambda"),
        (lambda c: c["transformations"][0].update(aux_bound_B=0), [],
         "aux_bound_B"),
        (lambda c: c["transformations"][0].update(lipschitz_L=-1), [],
         "config.transformations[0].lipschitz_L: not a key of the 'offset' family"),
        (lambda c: _target(c, {"method": "krr", "lambda": 0.1, "kernel": {
            "shape": "rbf", "lengthscale": -1}}), [], "lengthscale"),
        (lambda c: _target(c, {"method": "krr", "lambda": 0.1, "kernel": {
            "shape": "polynomial", "degree": 0}}), [], "degree"),
        (lambda c: c["sizes"].update(n_so="abc"), [], "config.sizes"),
        (lambda c: _selection(c, L_alpha=2.0, K=0), [], "selection_family"),
        (lambda c: _target(c, {"method": "krr", "lambda": 0.1, "kernel": {
            "shape": "rbf", "lenghtscale": 0.5}}), [], "lenghtscale"),
        (lambda c: _target(c, {"method": "ks", "bandwidth": {"alpah": 0.5}}),
         [], "alpah"),
        (lambda c: _selection(c, L_alpha=2.0, Kk=3), [], "Kk"),
        (lambda c: (c["sizes"].update(n_ta=5), _target(
            c, {"method": "ks", "bandwidth": [0.1, 0.2], "cv_folds": 10})), [],
         "cv_folds"),
        (lambda c: c["data"].update(slop=3), [], "slop"),
        (lambda c: c["data"].update(noise_variance=-1), [], "config.data"),
        (lambda c: None, ["--seeds", "-1,2"], "--seeds"),
        (lambda c: c["sizes"].update(n_ta=40.9), [], "config.sizes.n_ta"),
        (lambda c: c["sizes"].update(n_test=True), [], "config.sizes.n_test"),
        (lambda c: _target(c, {"method": "ks", "bandwidth": [0.1, 0.2],
                               "cv_folds": 3.9}), [], "target.cv_folds"),
        (lambda c: c.update(seeds=[1.7]), [], "config.seeds"),
        (lambda c: c.update(seeds=[0, True]), [], "config.seeds"),
        (lambda c: _kind(c, "rate_sweep", n_ta_grid=[25, 50.5, 100]), [],
         "config.data.n_ta_grid"),
        (lambda c: _kind(c, "csv_transfer", source_csv="s.csv",
                         target_csv="t.csv", n_ta=[20, 40.9]), [],
         "config.data.n_ta"),
        (lambda c: None, ["--seeds="], "--seeds"),
        (lambda c: None, ["--seeds", ""], "--seeds"),
        (lambda c: (_selection(c, L_alpha=2.0, K=2), c.update(
            transformations=[{"family": "offset", "alpha": 1.0}])), [],
         "config.transformations"),
        (lambda c: (_selection(c, L_alpha=2.0, K=2), c["methods"].update(
            baselines=["only_target", "combined"])), [],
         "config.methods.baselines"),
        (lambda c: c.update(selection_family={"L_alpha": 2.0, "K": 4}), [],
         "config.selection_family"),
        (lambda c: c.update(seeds=[0, 3, 3]), [],
         "config.seeds: seed 3 appears more than once"),
        (lambda c: None, ["--seeds", "0,0"],
         "--seeds: seed 0 appears more than once"),
        (lambda c: _kind(c, "rate_sweep", n_ta_grid=[25, 50, 50, 100]), [],
         "config.data.n_ta_grid: size 50 appears more than once"),
        (lambda c: _kind(c, "csv_transfer", source_csv="s.csv",
                         target_csv="t.csv", n_ta=[10, 20, 20]), [],
         "config.data.n_ta: size 20 appears more than once"),
        (lambda c: c["sizes"].update(n_val=30), [], "config.sizes.n_val"),
        (lambda c: c["data"].update(noise_variance=math.nan), [],
         "config.data.noise_variance: expected a finite number, got nan"),
        (lambda c: c["data"]["truth"]["w"].update(slope=math.nan), [],
         "config.data.truth.w.slope: expected a finite number, got nan"),
        (lambda c: _target(c, {"method": "krr", "lambda": 0.1, "kernel": {
            "shape": "rbf", "lengthscale": math.nan}}), [],
         "config.methods.target.kernel.lengthscale"),
        (lambda c: c["transformations"][0].update(alpha=math.nan), [],
         "config.transformations[0].alpha"),
        (lambda c: _selection(c, L_alpha=math.nan, K=2), [],
         "config.selection_family.L_alpha"),
        (lambda c: c["methods"]["source"].update(bandwidth=math.inf), [],
         "config.methods.source.bandwidth: expected a finite number, got inf"),
        (lambda c: _target(c, {"method": "ks", "bandwidth": [0.1, -math.inf]}),
         [], "config.methods.target.bandwidth[1]"),
        (lambda c: c["data"]["truth"]["w"].update(slope="nan"), [],
         "config.data.truth.w.slope: expected a number, got 'nan'"),
        (lambda c: c["data"]["truth"]["w"].update(slope=10 ** 400), [],
         "config.data.truth.w.slope: expected a number"),
        (lambda c: c["transformations"][0].update(alpha="nan"), [],
         "config.transformations[0].alpha: expected a number, got 'nan'"),
        (lambda c: _target(c, {"method": "ks", "bandwidth": ["inf", 0.1]}),
         [], "config.methods.target.bandwidth[0]: expected a number, got 'inf'"),
        (lambda c: _target(c, {"method": "ks", "bandwidth": [True, 0.1]}),
         [], "config.methods.target.bandwidth[0]: expected a number, got True"),
        (lambda c: c["methods"]["source"].update(bandwidth="0.02"), [],
         "config.methods.source.bandwidth: expected a number, a list of numbers or a "
         "rule object, got '0.02'"),
        (lambda c: c.update(transformations=[{
            "family": "loglinear", "beta": 1.0, "sigma2": "0.01"}]), [],
         "config.transformations[0].sigma2: expected a number, got '0.01'"),
        (lambda c: c["transformations"][0].update(assume_noiseless=False), [],
         "config.transformations[0].assume_noiseless: not a key of the "
         "'offset' family"),
        (lambda c: _target(c, {"method": "ks", "bandwidth": {"alpha": "1"}}),
         [], "config.methods.target.bandwidth.alpha: expected a number, "
         "got '1'"),
        (lambda c: _target(c, {"method": "ks", "bandwidth": {"c": True}}),
         [], "config.methods.target.bandwidth.c: expected a number, got True"),
        (lambda c: _target(c, {"method": "krr", "lambda": {"beta": "1"}}),
         [], "config.methods.target.lambda.beta: expected a number"),
        (lambda c: _target(c, {"method": "krr", "lambda": 0.1, "kernel": {
            "shape": "rbf", "lengthscale": True}}), [],
         "config.methods.target.kernel.lengthscale: expected a number, got True"),
        (lambda c: _target(c, {"method": "krr", "lambda": 0.1, "kernel": {
            "shape": "polynomial", "offset": "1"}}), [],
         "config.methods.target.kernel.offset: expected a number, got '1'"),
        (lambda c: _target(c, {"method": "krr", "lambda": 0.1, "kernel": {
            "shape": "polynomial", "degree": "2"}}), [],
         "config.methods.target.kernel.degree: expected an integer, got '2'"),
        (lambda c: _target(c, {"method": "krr", "lambda": 0.1, "kernel": {
            "shape": "polynomial", "degree": True}}), [],
         "config.methods.target.kernel.degree: expected an integer, got True"),
        (lambda c: _selection(c, L_alpha="2", K=2), [],
         "config.selection_family.L_alpha: expected a number, got '2'"),
        (lambda c: _selection(c, L_alpha=2.0, K=True), [],
         "config.selection_family.K: expected an integer, got True"),
        (lambda c: _selection(c, L_alpha=2.0, L_a=1.0, K=4), [],
         "config.selection_family: unknown key 'L_a'"),
        (lambda c: c["sizes"].update(n_so="5000"), [],
         "config.sizes.n_so: expected an integer, got '5000'"),
        (lambda c: c.update(seeds=["1"]), [],
         "config.seeds[0]: expected an integer, got '1'"),
        (lambda c: None, ["--seeds", "a"], "--seeds"),
        (lambda c: c.update(output_dir=5), [],
         "config.output_dir: expected a string, got 5"),
        (lambda c: _kind(c, "csv_transfer", source_csv=5, target_csv="t.csv",
                         n_ta=[10]), [],
         "config.data.source_csv: expected a string, got 5"),
        (lambda c: c.update(data=[1]), [], "config.data: expected an object"),
        (lambda c: c.update(sizes=[1]), [], "config.sizes: expected an object"),
        (lambda c: c["methods"].update(source=[1]), [],
         "config.methods.source: expected an object"),
        (lambda c: c.update(transformations={"family": "offset", "alpha": 1.0}),
         [], "config.transformations: expected a list"),
        (lambda c: c["methods"].update(baselines="only_target"), [],
         "config.methods.baselines: expected a list, got 'only_target'"),
        (lambda c: c["methods"]["source"].update(method=["ks"]), [],
         "config.methods.source.method"),
        (lambda c: c["transformations"][0].update(family=["offset"]), [],
         "config.transformations[0].family"),
        (lambda c: _kind(c, "rate_sweep", n_ta_grid=5), [],
         "config.data.n_ta_grid: expected a list, got 5"),
        (lambda c: _kind(c, "csv_transfer", source_csv="s.csv",
                         target_csv="t.csv", label_column="zzz", n_ta=[10]), [],
         "config.data.source_csv: "),
        (lambda c: _kind(c, "csv_transfer", source_csv="s.csv",
                         target_csv="t.csv", label_column=True, n_ta=[10]), [],
         "config.data.label_column: expected a string, got True"),
        (lambda c: _kind(c, "csv_transfer", source_csv="s.csv",
                         target_csv="t.csv", label_column=1, n_ta=[10]), [],
         "config.data.label_column: expected a string, got 1"),
        (lambda c: (_kind(c, "csv_transfer", source_csv="s.csv", target_csv="t.csv",
                          n_ta=[10]), c["sizes"].update(n_so=-5)), [],
         "config.sizes.n_so: expected a positive sample size, got -5"),
        (lambda c: (_kind(c, "csv_transfer", source_csv="s.csv", target_csv="t.csv",
                          n_ta=[10]), c["sizes"].update(n_so=0)), [],
         "config.sizes.n_so: expected a positive sample size, got 0"),
        (lambda c: _kind(c, "csv_transfer", source_csv="s.csv", target_csv="t.csv",
                         n_ta=10), [], "config.data.n_ta: expected a list, got 10"),
        (lambda c: _kind(c, "csv_transfer", source_csv="s.csv", target_csv="t.csv",
                         n_ta=[]), [], "config.data.n_ta: expected 1 or more sizes"),
        (lambda c: _kind(c, "rate_sweep", n_ta_grid=[25, 50]), [],
         "config.data.n_ta_grid: expected 3 or more sizes, got [25, 50]"),
        (lambda c: _kind(c, "rate_sweep", n_ta_grid=[25, 0, 100]), [],
         "config.data.n_ta_grid[1]: expected a positive sample size, got 0"),
        (lambda c: _target(c, {"method": "krr", "lambda": 0.1, "kernel": "rbf"}),
         [], "config.methods.target.kernel: expected an object, got 'rbf'"),
        (lambda c: _target(c, {"method": "krr", "lambda": 0.1, "kernel": {
            "shape": "rbf", "lengthscale": None}}), [],
         "config.methods.target.kernel.lengthscale: expected a number, got None"),
        (lambda c: _target(c, {"method": "ks", "bandwidth": []}), [],
         "config.methods.target.bandwidth: expected at least one value"),
        (lambda c: _target(c, {"method": "krr", "lambda": []}), [],
         "config.methods.target.lambda: expected at least one value"),
        (lambda c: c["methods"]["source"].update(method="knn"), [],
         "config.methods.source.method: expected 'ks' or 'krr', got 'knn'"),
        (lambda c: c["transformations"][0].update(family="affine"), [],
         "config.transformations[0].family: unknown family 'affine'"),
        (lambda c: c["transformations"][0].update(estimator_mode="direct_inverse"),
         [], "config.transformations[0].estimator_mode: not a key of the "
         "'offset' family"),
        (lambda c: c.update(transformations=[{
            "family": "loglinear", "beta": 1.0, "sigma2": 0.01,
            "estimator_mode": "calibrated"}]), [],
         "config.transformations[0].estimator_mode: not a key of the "
         "'loglinear' family"),
        (lambda c: (_kind(c, "rate_sweep", n_ta_grid=[25, 50, 100]),
                    c["sizes"].update(n_test=100)), [],
         "config.sizes.n_test: not a key of a 'rate_sweep' run"),
        (lambda c: (_selection(c, L_alpha=2.0, K=2), c["sizes"].update(n_test=100)),
         [], "config.sizes.n_test: not a key of a 'selection' run"),
        (lambda c: (_kind(c, "csv_transfer", source_csv="s.csv", target_csv="t.csv",
                          n_ta=[10]), c["sizes"].update(n_so=20, n_test=100)), [],
         "config.sizes.n_test: not a key of a 'csv_transfer' run"),
        (lambda c: (_kind(c, "rate_sweep", n_ta_grid=[25, 50, 100]),
                    c["sizes"].update(n_ta=40)), [],
         "config.sizes.n_ta: not a key of a 'rate_sweep' run"),
        (lambda c: (_kind(c, "csv_transfer", source_csv="s.csv", target_csv="t.csv",
                          n_ta=[10]), c["sizes"].update(n_so=20, n_ta=10)), [],
         "config.sizes.n_ta: not a key of a 'csv_transfer' run"),
        (lambda c: c["sizes"].update(n_val=0), [],
         "config.sizes.n_val: not a key of a 'synthetic' run"),
        (lambda c: c["methods"]["target"].update(cv_folds=500), [],
         "config.methods.target.cv_folds: only a list of bandwidth values is "
         "cross-validated, got 0.15"),
        (lambda c: _target(c, {"method": "krr", "lambda": {"p": 0.5},
                               "cv_folds": 5}), [],
         "config.methods.target.cv_folds: only a list of lambda values is "
         "cross-validated, got {'p': 0.5}"),
        (lambda c: (_selection(c, L_alpha=2.0, K=2), c["methods"].update(
            baselines=[])), [],
         "config.methods.baselines: not a key of a 'selection' run"),
        (lambda c: c["methods"].update(baselines=["only_target", "only_target"]),
         [], "config.methods.baselines: baseline only_target appears more than once"),
        (lambda c: c["transformations"].append(
            {"family": "offset", "alpha": 1.0, "aux_bound_B": 5.0}), [],
         "config.transformations[1]: method htl_offset(alpha=1) appears more "
         "than once"),
        (lambda c: c["transformations"][0].update(sigma2=0.5), [],
         "config.transformations[0].sigma2: not a key of the 'offset' family"),
        (lambda c: c.update(transformations=[{
            "family": "loglinear", "beta": 1.0, "sigma2": 0.0,
            "assume_noiseless": True}]), [],
         "config.transformations[0].assume_noiseless: not a key of the "
         "'loglinear' family"),
        (lambda c: c["transformations"].append(
            {"family": "scale", "alpha": 0.0, "sigma2": 0.0}), [],
         "config.transformations[1].sigma2: not a key of the 'scale' family"),
        (lambda c: c["transformations"].append(
            {"family": "non_transfer", "sigma2": 0.01}), [],
         "config.transformations[1].sigma2: not a key of the 'non_transfer' family"),
        (lambda c: c["transformations"].append(
            {"family": "non_transfer", "alpha": 1.0}), [],
         "config.transformations[1].alpha: not a key of the 'non_transfer' family"),
        (lambda c: c.update(transformations=[{
            "family": "scale", "alpha": 0.0, "lipschitz_L": 1.0}]), [],
         "config.transformations[0].lipschitz_L: not a key of the 'scale' family"),
        (lambda c: c.update(transformations=[{
            "family": "loglinear", "beta": 1.0, "sigma2": 0.01,
            "lipschitz_L": 1.0}]), [],
         "config.transformations[0].lipschitz_L: not a key of the "
         "'loglinear' family"),
        (lambda c: c.update(transformations=[{"family": "offset"}]), [],
         "missing required key config.transformations[0].alpha"),
        (lambda c: (c["methods"].update(baselines=[]), c.update(transformations=[])),
         [], "config.methods.baselines: a run needs at least one method"),
        (lambda c: (_kind(c, "rate_sweep", n_ta_grid=[25, 50, 100]),
                    c["methods"].update(baselines=[]), c.pop("transformations")),
         [], "config.methods.baselines: a run needs at least one method"),
        (lambda c: c["methods"]["source"].update(kernel=["boxcar"]), [],
         "config.methods.source.kernel: expected a string, got ['boxcar']"),
        (lambda c: c["methods"]["source"].update(kernel="box"), [],
         "config.methods.source.kernel: expected one of 'boxcar', 'epanechnikov', "
         "'truncated_gaussian', 'gaussian', got 'box'"),
        (lambda c: _target(c, {"method": "krr", "lambda": 0.1, "kernel": {"shape": 5}}),
         [], "config.methods.target.kernel.shape: expected 'rbf', 'linear' or "
         "'polynomial', got 5"),
        (lambda c: c["data"].pop("truth"), [], "missing required key config.data.truth"),
        (lambda c: (_kind(c, "rate_sweep", n_ta_grid=[25, 50, 100]),
                    c["data"].pop("truth")), [],
         "missing required key config.data.truth"),
        (lambda c: (_selection(c, L_alpha=2.0, K=2), c["data"].pop("truth")), [],
         "missing required key config.data.truth"),
        (lambda c: c["data"].update(truth=[1]), [],
         "config.data.truth: expected an object, got [1]"),
        (lambda c: c["data"]["truth"].update(source="doppler"), [],
         "config.data.truth: unknown key 'source'"),
        (lambda c: c["data"]["truth"].pop("w"), [],
         "missing required key config.data.truth.w"),
        (lambda c: c["data"]["truth"]["w"].update(frequency=2.0), [],
         "config.data.truth.w: unknown key 'frequency'"),
        (lambda c: c["data"]["truth"]["transformation"].update(aux_bound_B=3.0), [],
         "config.data.truth.transformation.aux_bound_B: not a key of a truth's "
         "'offset' family"),
        (lambda c: c["data"]["truth"]["transformation"].pop("alpha"), [],
         "missing required key config.data.truth.transformation.alpha"),
        (lambda c: c["data"]["truth"]["transformation"].update(family="loglinear"),
         [], "config.data.truth.transformation.family: expected 'offset' or "
         "'scale', got 'loglinear'"),
        (lambda c: c["data"]["truth"]["transformation"].update(family="non_transfer"),
         [], "config.data.truth.transformation.family: expected 'offset' or "
         "'scale', got 'non_transfer'"),
        (lambda c: c["data"]["truth"]["transformation"].update(alpha="1"), [],
         "config.data.truth.transformation.alpha: expected a number, got '1'"),
        (lambda c: c["data"]["truth"]["w"].update(intercept=math.inf), [],
         "config.data.truth.w.intercept: expected a finite number, got inf"),
        (lambda c: c["data"].update(slope=1.0), [],
         "config.data.slope: not a key of a 'synthetic' run"),
        (lambda c: c.update(experiment_kind="synthetic_offset"), [],
         "config.experiment_kind: 'synthetic_offset' not one of"),
        (lambda c: (_selection(c, L_alpha=2.0, K=2), c["data"].update(true_alpha=1.0)),
         [], "config.data.true_alpha: not a key of a 'selection' run"),
        (lambda c: c["sizes"].update(n_test=1), [],
         "config.sizes.n_test: r_squared needs 2 or more test rows, got 1"),
        (lambda c: c["data"].update(noise_variance=0.0, truth={
            "transformation": {"family": "offset", "alpha": 0.0},
            "w": {"intercept": 2.0}}), [],
         "config.data.truth: a constant target with noise_variance 0 gives every "
         "test row one label"),
        (lambda c: c["data"].update(noise_variance=0.0, truth={
            "transformation": {"family": "scale", "alpha": 1.0}, "w": {}}), [],
         "config.data.truth: a constant target with noise_variance 0 gives every "
         "test row one label"),
        (lambda c: _target(c, {"method": "ks", "bandwidth_grid": [0.1, 0.2]}), [],
         "config.methods.target: unknown key 'bandwidth_grid'"),
        (lambda c: _target(c, {"method": "ks", "bandwidth_rule": {"alpha": 1.0}}), [],
         "config.methods.target: unknown key 'bandwidth_rule'"),
        (lambda c: _target(c, {"method": "krr", "lambda_grid": [0.1, 1.0]}), [],
         "config.methods.target: unknown key 'lambda_grid'"),
        (lambda c: _target(c, {"method": "krr", "lambda_rule": {"p": 0.5}}), [],
         "config.methods.target: unknown key 'lambda_rule'"),
        (lambda c: c["methods"]["target"].update(bandwidth="0.1"), [],
         "config.methods.target.bandwidth: expected a number, a list of numbers or "
         "a rule object, got '0.1'"),
        (lambda c: c["methods"]["target"].update(bandwidth=True), [],
         "config.methods.target.bandwidth: expected a number, a list of numbers or "
         "a rule object, got True"),
        (lambda c: c["methods"]["target"].update(bandwidth=None), [],
         "config.methods.target.bandwidth: expected a number, a list of numbers or "
         "a rule object, got None"),
        (lambda c: _target(c, {"method": "krr", "lambda": False}), [],
         "config.methods.target.lambda: expected a number, a list of numbers or "
         "a rule object, got False"),
    ])
    def test_invalid_config_fails_at_parse_time_naming_the_key(
        self, tmp_path, capsys, edit, argv, key
    ):
        for name in ("s.csv", "t.csv"):  # the CSV cases' inputs
            (tmp_path / name).write_text(
                "x0,y\n" + "".join(f"{i / 30},{i % 3}\n" for i in range(30)))
        cfg = base_config()
        edit(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out"), *argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out").exists()


class TestCvFolds:
    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for case in range(50):
            n = int(rng.integers(4, 80))
            folds = int(rng.integers(2, min(n, 10) + 1))
            parts = cv_folds_indices(n, folds, seed=case)
            merged = np.concatenate(parts)
            assert len(merged) == n
            assert sorted(merged.tolist()) == list(range(n))

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="folds"):
            cv_folds_indices(3, 5, seed=0)

    def test_fewer_than_two_folds(self):
        with pytest.raises(ValueError, match="folds must be >= 2"):
            cv_folds_indices(10, 1, seed=0)


def _noisy_linear_data(n=60, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(size=(n, 1))
    ys = 2.0 * xs[:, 0] + noise * rng.normal(size=n)
    return Dataset(features=xs, labels=ys, domain_tag=DomainTag.TARGET)


def _reference_cv_scores(data, candidates, folds, seed):
    """Mean fold MSEs from one ``spec.fit(train).predict`` per candidate and
    fold, on training rows taken by ``np.delete``."""
    parts = cv_folds_indices(data.n, folds, seed)
    scores = np.zeros(len(candidates))
    for test_idx in parts:
        train = Dataset(features=np.delete(data.features, test_idx, axis=0),
                        labels=np.delete(data.labels, test_idx),
                        domain_tag=data.domain_tag)
        y_test = data.labels[test_idx]
        for j, spec in enumerate(candidates):
            pred = spec.fit(train).predict(data.features[test_idx])
            scores[j] += float(np.mean((y_test - pred) ** 2))
    return scores / len(parts)


def _fold_window_pairs(data, folds, seed, bandwidths):
    """(bandwidths, folds) window pairs of each fold's training call: what
    picks its moment or pair path."""
    x = data.features[:, 0]
    parts = cv_folds_indices(data.n, folds, seed)
    return np.array([[smoothing._windows(np.sort(np.delete(x, r)), x[r], h)[1].sum()
                      for r in parts] for h in bandwidths])


def _has_tied_empty_window(data, parts, h):
    """Whether some row has no point outside its fold within h, and two
    such points tie for its nearest."""
    x = data.features[:, 0]
    for rows in parts:
        gaps = np.abs(x[rows, None] - np.delete(x, rows)[None, :])
        nearest = gaps.min(axis=1)
        if ((nearest > h) & ((gaps == nearest[:, None]).sum(axis=1) > 1)).any():
            return True
    return False


class TestGridSearchCv:
    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty candidate grid"):
            grid_search_cv(_noisy_linear_data(), [], folds=5, seed=0)

    def test_single_candidate(self):
        data = _noisy_linear_data()
        spec = KSSpec(bandwidth=0.1)
        best, scores = grid_search_cv(data, [spec], folds=5, seed=0)
        assert best is spec and len(scores) == 1

    def test_noiseless_krr_prefers_small_lambda(self):
        data = _noisy_linear_data(noise=0.0)
        grid = [KRRSpec(rbf_kernel(0.5), lam=1e-6), KRRSpec(rbf_kernel(0.5), lam=1.0)]
        best, scores = grid_search_cv(data, grid, folds=5, seed=1)
        assert best.lam == 1e-6
        assert scores[0] < scores[1]

    def test_ks_fast_path_matches_generic(self):
        data = _noisy_linear_data(n=50, noise=0.1)
        # a shuffled dyadic grid with every third point repeated: below the
        # 1/32 spacing, a query without a training twin takes the nearest
        # label, mostly on an exact tie between its left and right neighbours
        rng = np.random.default_rng(6)
        xs = rng.permutation(np.r_[np.arange(33), np.arange(0, 33, 3)]) / 32
        repeated = Dataset(features=xs.reshape(-1, 1),
                           labels=rng.normal(size=len(xs)))
        parts = cv_folds_indices(repeated.n, 5, seed=3)
        for test_idx in parts:
            train_x = np.delete(xs, test_idx)
            assert not np.isin(xs[test_idx], train_x).all()
        # the larger samples have labels 10 + N(0, 0.01^2), so a prediction's
        # last bits still show in its fold's mean squared error
        # 2,000 rows on a 1/128 grid: every value repeats across folds, 0.0
        # and -0.0 among them, and some points lie exactly h = 1/8 from a
        # query; at h = 1/8 and 0.3 each fold's window pairs reach the moment
        # floor, at 1/64 none does
        grid = rng.integers(-64, 65, size=2000) / 128
        zeros = np.flatnonzero(grid == 0)
        grid[zeros[::2]] = -0.0
        assert np.signbit(grid[zeros]).any() and not np.signbit(grid[zeros]).all()
        dense = Dataset(features=grid.reshape(-1, 1),
                        labels=10.0 + 0.01 * rng.normal(size=2000))
        pairs = _fold_window_pairs(dense, 5, 3, (1 / 64, 1 / 8, 0.3))
        assert (pairs[0] < smoothing._MOMENT_MIN_PAIRS).all()
        assert (pairs[1:] >= smoothing._MOMENT_MIN_PAIRS).all()
        # fold 0 and 100 rows of each other fold in a cluster, so fold 0 takes
        # the moment path while the others sum pairs; the rest sit on integer
        # points with empty windows, each falling back to its nearest point
        # outside its fold, often tied at distance 1 left and right
        split = cv_folds_indices(1500, 5, seed=3)
        cluster = np.r_[split[0], *[rows[:100] for rows in split[1:]]]
        spread = np.setdiff1d(np.arange(1500), cluster)
        mixed_x = np.empty(1500)
        mixed_x[cluster] = rng.uniform(0.0, 0.01, size=len(cluster))
        mixed_x[spread] = 10.0 + rng.permutation(len(spread))
        mixed = Dataset(features=mixed_x.reshape(-1, 1),
                        labels=10.0 + 0.01 * rng.normal(size=1500))
        pairs = _fold_window_pairs(mixed, 5, 3, (0.05,))[0]
        assert pairs[0] >= smoothing._MOMENT_MIN_PAIRS > pairs[1:].max()
        assert _has_tied_empty_window(mixed, split, 0.05)
        samples = ((data, (0.02, 0.1, 0.5)), (repeated, (0.01, 0.05, 0.2)),
                   (dense, (1 / 64, 1 / 8, 0.3)), (mixed, (0.05, 0.5, 1.0)))
        for moment_floor in (smoothing._MOMENT_MIN_PAIRS, 0):
            with mock.patch.object(smoothing, "_MOMENT_MIN_PAIRS", moment_floor):
                for kernel in SmoothingKernel:
                    for sample, hs in samples:
                        candidates = [KSSpec(kernel, bandwidth=h) for h in hs]
                        _, fast = grid_search_cv(sample, candidates, folds=5, seed=3)
                        generic = _reference_cv_scores(sample, candidates, 5, seed=3)
                        assert np.array_equal(fast, generic)

    def test_krr_fast_path_matches_generic(self, monkeypatch):
        data = _noisy_linear_data(n=40, noise=0.1)
        # duplicated rows make the lambda = 0 Gram system singular, so the
        # fast path must take krr_fit's jittered, residual-checked solve;
        # their zero distances must drop out of the median heuristic
        duplicated = Dataset(features=np.vstack([data.features] * 2),
                             labels=np.concatenate([data.labels] * 2),
                             domain_tag=DomainTag.TARGET)
        # folds of 27 and 28 distinct rows hold an odd and an even number of
        # pairs, i.e. one middle distance or two different ones
        distinct = Dataset(features=data.features[:37], labels=data.labels[:37],
                           domain_tag=DomainTag.TARGET)
        # half the rows repeated: zero distances of either parity drop out
        half_duplicated = Dataset(
            features=np.vstack([data.features, data.features[:20]]),
            labels=np.concatenate([data.labels, data.labels[:20]]),
            domain_tag=DomainTag.TARGET)
        # the first fold trains on equal rows: no positive distance, so the
        # median heuristic falls back to 1.0
        flat_features = np.zeros((20, 1))
        flat_features[cv_folds_indices(20, 4, seed=4)[0], 0] = [0.2, 0.5, 0.9, 1.4, 2.0]
        flat = Dataset(features=flat_features, labels=data.labels[:20],
                       domain_tag=DomainTag.TARGET)
        lengthscales = []

        def recording(sq):
            lengthscales.append(median_heuristic_sq(sq))
            return lengthscales[-1]

        monkeypatch.setattr(ridge, "median_heuristic_sq", recording)
        cases = (
            (data, rbf_kernel(0.4), (0.01, 0.1, 1.0)),
            (duplicated, rbf_kernel(0.4), (0.0,)),
            (distinct, rbf_kernel(None), (0.01, 1.0)),
            (half_duplicated, rbf_kernel(None), (0.0, 0.1)),
            (flat, rbf_kernel(None), (0.01, 1.0)),
            (data, linear_kernel(), (0.01, 1.0)),
            (data, polynomial_kernel(2, 1.0), (0.01, 1.0)),
        )
        pair_parities = set()
        for data, kernel, lams in cases:
            candidates = [KRRSpec(kernel, lam=v) for v in lams]
            parts = cv_folds_indices(data.n, 4, seed=4)
            generic = _reference_cv_scores(data, candidates, 4, seed=4)
            lengthscales.clear()
            _, fast = grid_search_cv(data, candidates, folds=4, seed=4)
            shared_fit = lengthscales.copy()
            assert np.array_equal(fast, generic)
            if kernel != rbf_kernel(None):
                assert shared_fit == []
                continue
            # one heuristic per fold, shared by every lambda
            X_trains = [np.delete(data.features, test_idx, axis=0)
                        for test_idx in parts]
            assert shared_fit == [median_heuristic(X) for X in X_trains]
            if data is flat:
                assert shared_fit[0] == 1.0
            else:
                pair_parities |= {np.count_nonzero(pdist(X)) % 2 for X in X_trains}
        assert pair_parities == {0, 1}

    def test_many_folds_keep_the_memory_of_few(self):
        # a grid CV builds the position maps of its folds a group at a time,
        # so 1,000 folds of 5,000 points trace no more than twice 10 folds'
        # peak; one map of every fold at once would hold 5 million points
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, 5000)
        data = Dataset(features=x.reshape(-1, 1),
                       labels=np.sin(6 * x) + 0.1 * rng.normal(size=len(x)))
        data.sorted_1d  # cached before either call is traced
        grid = [KSSpec(SmoothingKernel.EPANECHNIKOV, bandwidth=h)
                for h in (0.01, 0.05, 0.2)]
        peaks = []
        for folds in (10, 1000):
            tracemalloc.start()
            try:
                grid_search_cv(data, grid, folds=folds, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    def test_windowed_grid_predicts_every_fold_in_one_pass(self, monkeypatch):
        # a 1-D compact-kernel bandwidth grid fits no fold on its own: one
        # predict_sorted_1d call serves every fold and bandwidth
        data = _noisy_linear_data(n=60, noise=0.1)
        grids = [[KSSpec(kernel, bandwidth=h) for h in (0.02, 0.1, 0.5)]
                 for kernel in SmoothingKernel if kernel.compact]
        generic = [_reference_cv_scores(data, grid, 5, seed=2) for grid in grids]
        passes = []
        one_pass = smoothing.predict_sorted_1d

        def counted(*args):
            passes.append(args)
            return one_pass(*args)

        def fold_fit(*args):
            raise AssertionError("a fold was fit on its own")

        monkeypatch.setattr(smoothing, "predict_sorted_1d", counted)
        monkeypatch.setattr(smoothing, "ks_predict", fold_fit)
        monkeypatch.setattr(experiment, "ks_predict", fold_fit)
        monkeypatch.setattr(Dataset, "without", fold_fit)
        for grid, want in zip(grids, generic):
            passes.clear()
            _, scores = grid_search_cv(data, grid, folds=5, seed=2)
            assert len(passes) == 1 and np.array_equal(scores, want)

    @pytest.mark.parametrize("candidates", [
        [KSSpec(bandwidth=0.1), KRRSpec(rbf_kernel(0.4), lam=0.1)],
        [KSSpec(bandwidth=0.1), KSSpec(rule=BandwidthRule())],
        [KSSpec(SmoothingKernel.BOXCAR, bandwidth=0.1),
         KSSpec(SmoothingKernel.EPANECHNIKOV, bandwidth=0.1)],
        [KRRSpec(rbf_kernel(0.4), lam=0.1), KRRSpec(rbf_kernel(0.5), lam=0.1)],
    ], ids=["ks_and_krr", "fixed_and_rule", "two_ks_kernels", "two_rbf_kernels"])
    def test_mixed_grid_uses_generic_path(self, monkeypatch, candidates):
        def shared_fit(*args):
            raise AssertionError("a grid over more than one value was shared")

        monkeypatch.setattr(experiment, "ks_cv_predict", shared_fit)
        monkeypatch.setattr(experiment, "ks_predict", shared_fit)
        monkeypatch.setattr(experiment, "krr_path", shared_fit)
        data = _noisy_linear_data(n=30)
        best, scores = grid_search_cv(data, candidates, folds=3, seed=5)
        assert best in candidates
        assert np.array_equal(scores, _reference_cv_scores(data, candidates, 3, 5))


class TestRunExperiment:
    def test_single_method_single_seed(self, tmp_path):
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["transformations"] = []
        report = run_experiment(parse_config(cfg))
        assert len(report["rows"]) == 1
        assert report["rows"][0]["method"] == "only_target"
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "per_seed.csv").exists()
        assert (tmp_path / "out" / "plot_series.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(base_config(output_dir=str(tmp_path / "out"),
                                       seeds=[0, 1]))
        run_experiment(cfg)
        first = (tmp_path / "out" / "report.json").read_bytes()
        first_csv = (tmp_path / "out" / "per_seed.csv").read_bytes()
        run_experiment(cfg)
        assert (tmp_path / "out" / "report.json").read_bytes() == first
        assert (tmp_path / "out" / "per_seed.csv").read_bytes() == first_csv

    def test_baseline_parity_with_non_transfer(self, tmp_path):
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["transformations"] = [{"family": "non_transfer"}]
        report = run_experiment(parse_config(cfg))
        rows = {r["method"]: r for r in report["rows"]}
        assert rows["only_target"]["mse"] == pytest.approx(
            rows["htl_non_transfer"]["mse"], abs=1e-12
        )
        assert rows["only_target"]["r_squared"] == pytest.approx(
            rows["htl_non_transfer"]["r_squared"], abs=1e-12
        )

    def test_aggregates_recomputable_from_rows(self, tmp_path):
        cfg = parse_config(base_config(output_dir=str(tmp_path / "out"),
                                       seeds=[0, 1, 2]))
        report = run_experiment(cfg)
        for agg in report["aggregates"]:
            values = [r["mse"] for r in report["rows"]
                      if r["method"] == agg["method"]]
            assert agg["mean_mse"] == pytest.approx(np.mean(values), abs=1e-12)
            assert agg["std_mse"] == pytest.approx(np.std(values, ddof=1),
                                                   abs=1e-12)

    def test_all_builtin_baselines_run(self, tmp_path):
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["methods"]["baselines"] = ["only_target", "only_source", "combined"]
        report = run_experiment(parse_config(cfg))
        methods = {r["method"] for r in report["rows"]}
        assert {"only_target", "only_source", "combined",
                "htl_offset(alpha=1)"} <= methods
        assert not report["errors"]

    @pytest.mark.parametrize("error", [ValueError, ConditioningError])
    def test_partial_failure_recorded(self, tmp_path, monkeypatch, error):
        def exploding(*args):
            raise error("synthetic failure")

        monkeypatch.setattr(pipeline, "construct_auxiliary", exploding)
        cfg = base_config(output_dir=str(tmp_path / "out"))
        report = run_experiment(parse_config(cfg))
        assert report["errors"] == [{"method": "htl_offset(alpha=1)", "seed": 0,
                                     "error": "synthetic failure",
                                     "type": error.__name__}]
        # the healthy method still produced its row
        assert any(r["method"] == "only_target" for r in report["rows"])

    @pytest.mark.parametrize("selection", [False, True])
    def test_programming_error_propagates(self, tmp_path, monkeypatch,
                                          selection):
        def broken_fit(spec, train):
            raise TypeError("a defect, not a method failure")

        monkeypatch.setattr(KSSpec, "fit", broken_fit)
        cfg = base_config(output_dir=str(tmp_path / "out"))
        if selection:
            _selection(cfg, L_alpha=2.0, K=2)
        with pytest.raises(TypeError, match="a defect"):
            run_experiment(parse_config(cfg))

    def test_selection_failure_recorded(self, tmp_path, monkeypatch):
        def failing_fit(spec, train):
            raise ValueError("fit failed")

        monkeypatch.setattr(KSSpec, "fit", failing_fit)
        cfg = base_config(output_dir=str(tmp_path / "out"))
        _selection(cfg, L_alpha=2.0, K=2)
        report = run_experiment(parse_config(cfg))
        assert report["errors"] == [{"seed": 0, "error": "fit failed",
                                     "type": "ValueError"}]

    def test_selection_source_cv_failure_recorded(self, tmp_path, monkeypatch):
        def failing_cv(*args):
            raise ValueError("cv failed")

        monkeypatch.setattr(experiment, "grid_search_cv", failing_cv)
        cfg = base_config(output_dir=str(tmp_path / "out"))
        _selection(cfg, L_alpha=2.0, K=2)
        cfg["methods"]["source"] = {"method": "ks", "kernel": "epanechnikov",
                                    "bandwidth": [0.1, 0.3], "cv_folds": 3}
        report = run_experiment(parse_config(cfg))
        assert report["errors"] == [{"seed": 0, "error": "cv failed",
                                     "type": "ValueError"}]
        assert report["rows"] == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_selection_candidate_with_overflowing_mse_is_a_method_error(
            self, tmp_path, capsys):
        # the overflow is reported once, by the error naming the candidate:
        # numpy warns of nothing on the way
        cfg = base_config(output_dir=str(tmp_path / "out"))
        _selection(cfg, L_alpha=1e308, K=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["select", "--config", str(cfg_path)]) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        labels = [m.label for m in parse_config(cfg).selection_family.members]
        [error] = report["errors"]
        assert error["type"] == "ValueError"
        assert any(f"candidate {label}:" in error["error"] for label in labels)
        assert report["rows"] == []
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("error", [ValueError, ConditioningError])
    def test_failed_source_cv_runs_once_and_fails_each_user(self, tmp_path,
                                                            monkeypatch, error):
        calls = []

        def failing_cv(data, *args):
            calls.append(data.domain_tag)
            raise error("cv failed")

        monkeypatch.setattr(experiment, "grid_search_cv", failing_cv)
        cfg = base_config(output_dir=str(tmp_path / "out"))
        cfg["methods"]["baselines"] = ["only_target", "only_source"]
        cfg["methods"]["source"] = {"method": "ks", "kernel": "epanechnikov",
                                    "bandwidth": [0.1, 0.3], "cv_folds": 3}
        report = run_experiment(parse_config(cfg))
        assert calls == [DomainTag.SOURCE]
        assert [r["method"] for r in report["rows"]] == ["only_target"]
        assert [e["method"] for e in report["errors"]] == [
            "only_source", "htl_offset(alpha=1)"]

    def test_a_run_whose_methods_never_read_the_source_never_fits_it(
            self, tmp_path, monkeypatch):
        cv_tags, fit_tags = [], []
        search, fit = experiment.grid_search_cv, KSSpec.fit

        def recording_cv(data, *args):
            cv_tags.append(data.domain_tag)
            return search(data, *args)

        def recording_fit(spec, train):
            fit_tags.append(train.domain_tag)
            return fit(spec, train)

        monkeypatch.setattr(experiment, "grid_search_cv", recording_cv)
        monkeypatch.setattr(KSSpec, "fit", recording_fit)
        cfg = base_config(output_dir=str(tmp_path / "out"), seeds=[0, 1])
        cfg["methods"]["baselines"] = ["only_target", "combined"]
        cfg["methods"]["source"] = {"method": "ks", "kernel": "epanechnikov",
                                    "bandwidth": [0.1, 0.3], "cv_folds": 3}
        cfg["transformations"] = []
        report = run_experiment(parse_config(cfg))
        assert not report["errors"]
        assert [r["method"] for r in report["rows"]] == ["only_target", "combined"] * 2
        assert cv_tags == []
        assert fit_tags and DomainTag.SOURCE not in fit_tags

    def test_zero_risk_rejects_the_rate_fit(self, tmp_path, monkeypatch):
        excess_risk = experiment.excess_risk_mc

        def exact_only_target(pred, *args, **kwargs):
            if isinstance(pred, HTLPredictor):
                return excess_risk(pred, *args, **kwargs)
            return 0.0

        monkeypatch.setattr(experiment, "excess_risk_mc", exact_only_target)
        cfg = base_config(output_dir=str(tmp_path / "out"))
        _kind(cfg, "rate_sweep", n_ta_grid=[20, 40, 80])
        report = run_experiment(parse_config(cfg))
        assert list(report["rate_fits"]) == ["htl_offset(alpha=1)"]
        assert report["errors"] == [{
            "method": "only_target", "stage": "rate_fit",
            "error": "risks must be positive for a log-log fit",
            "type": "ValueError"}]

    def test_a_method_scored_at_fewer_than_three_sizes_gets_no_rate_fit(
            self, tmp_path, monkeypatch):
        excess_risk = experiment.excess_risk_mc
        failed = []

        def first_only_target_fails(pred, *args, **kwargs):
            if not isinstance(pred, HTLPredictor) and not failed:
                failed.append(pred)
                raise ValueError("risk failed")
            return excess_risk(pred, *args, **kwargs)

        monkeypatch.setattr(experiment, "excess_risk_mc", first_only_target_fails)
        cfg = base_config(output_dir=str(tmp_path / "out"))
        _kind(cfg, "rate_sweep", n_ta_grid=[20, 40, 80])
        report = run_experiment(parse_config(cfg))
        assert list(report["rate_fits"]) == ["htl_offset(alpha=1)"]
        assert [e["error"] for e in report["errors"]] == ["risk failed"]

    def test_a_non_finite_metric_is_an_error(self):
        test = Dataset(features=[[0.0], [1.0]], labels=[0.0, 1.0])

        class Infinite:
            def predict(self, X):
                return np.full(len(X), np.inf)

        data = experiment.SeedData(source=test, target=test, test=test, validation=None)
        with pytest.raises(ValueError, match="non-finite metric"):
            experiment._score(Infinite(), data, None)

    @pytest.mark.parametrize("kind", ["rate_sweep", "selection"])
    def test_a_seed_draws_its_monte_carlo_sample_once(self, tmp_path, monkeypatch,
                                                      kind):
        seeds = []
        draw = experiment.mc_sample

        def counting(truth, sampler, n_mc, seed):
            seeds.append(seed)
            return draw(truth, sampler, n_mc, seed)

        monkeypatch.setattr(experiment, "mc_sample", counting)
        cfg = base_config(output_dir=str(tmp_path / "out"), seeds=[0, 1])
        if kind == "rate_sweep":  # only_target and one HTL method, 3 sizes
            _kind(cfg, "rate_sweep", n_ta_grid=[20, 40, 80])
            draws = [experiment.child_seed(s, experiment._EXCESS) for s in (0, 1)]
        else:  # no selection row is scored by excess risk
            _selection(cfg, L_alpha=2.0, K=2)
            draws = []
        report = run_experiment(parse_config(cfg))
        assert not report["errors"]
        assert seeds == draws
        assert sum("excess_risk" in row for row in report["rows"]) == 6 * len(draws)

    def test_one_candidate_grid_runs_as_the_fixed_value(self, tmp_path,
                                                        monkeypatch):
        calls = []

        def counting_cv(*args):
            calls.append(1)
            return grid_search_cv(*args)

        monkeypatch.setattr(experiment, "grid_search_cv", counting_cv)
        reports = []
        for grid in (False, True):
            cfg = base_config(output_dir=str(tmp_path / f"out{grid}"), seeds=[0, 1])
            cfg["methods"]["baselines"] = ["only_target", "only_source", "combined"]
            for stage in ("source", "target"):
                section = cfg["methods"][stage]
                if grid:
                    section["bandwidth"] = [section["bandwidth"]]
            reports.append(run_experiment(parse_config(cfg)))
        assert calls == []
        assert reports[0]["rows"] == reports[1]["rows"]
        assert len(reports[0]["rows"]) == 4 * 2 and not reports[0]["errors"]

    def test_a_selection_seed_draws_no_test_sample(self, tmp_path, monkeypatch):
        tags = []
        generate = experiment.generate_synthetic

        def recording(spec, n, tag, seed):
            tags.append(tag)
            return generate(spec, n, tag, seed)

        monkeypatch.setattr(experiment, "generate_synthetic", recording)
        cfg = base_config(output_dir=str(tmp_path / "out"))
        _selection(cfg, L_alpha=2.0, K=2)
        report = run_experiment(parse_config(cfg))
        assert not report["errors"] and len(report["rows"]) == 1
        assert len(tags) == 3
        assert set(tags) == {DomainTag.SOURCE, DomainTag.TARGET, DomainTag.VALIDATION}

    def test_csv_size_error_names_the_key_set(self, tmp_path):
        cfg = _csv_transfer_config(tmp_path)
        cfg["data"]["n_ta"] = [20, 80]
        with pytest.raises(ConfigError, match=r"^config\.data\.n_ta: largest size 80 "
                                              r"leaves 0 of the 80 target rows to "
                                              r"test, and r_squared needs 2 or more$"):
            run_experiment(parse_config(cfg))
        assert not (tmp_path / "out").exists()

    def test_a_one_row_test_set_fails_at_parse_time(self):
        # R² of one row is undefined, so every method would fail at scoring
        cfg = base_config()
        cfg["sizes"]["n_test"] = 2
        assert parse_config(cfg).n_test == 2
        cfg["sizes"]["n_test"] = 1
        with pytest.raises(ConfigError, match=r"^config\.sizes\.n_test: r_squared "
                                              r"needs 2 or more test rows, got 1$"):
            parse_config(cfg)

    @pytest.mark.parametrize("noise, truth", [
        (0.0, {"transformation": {"family": "offset", "alpha": 0.0},
               "w": {"slope": 1.0}}),
        (0.0, {"transformation": {"family": "scale", "alpha": 0.0},
               "w": {"intercept": 5.0}}),
        (0.01, {"transformation": {"family": "offset", "alpha": 0.0}, "w": {}}),
        (0.01, {"transformation": {"family": "scale", "alpha": 1.0}, "w": {}}),
    ])
    def test_noise_or_a_truth_that_varies_gives_distinct_test_labels(self, noise,
                                                                     truth):
        # only a constant truth with no noise is rejected, as
        # test_invalid_config_fails_at_parse_time_naming_the_key checks
        cfg = base_config()
        cfg["data"].update(noise_variance=noise, truth=truth)
        config = parse_config(cfg)
        test = experiment._synthetic_cells(config, 0)[0][1].test
        assert config.synthetic.noise_variance_target == noise
        assert len(np.unique(test.labels)) > 1

    def test_a_csv_target_that_leaves_one_test_row_fails_at_parse_time(
            self, tmp_path):
        cfg = _csv_transfer_config(tmp_path)  # an 80-row target CSV
        cfg["data"]["n_ta"] = [20, 78]
        assert parse_config(cfg).n_ta_sizes == (20, 78)
        cfg["data"]["n_ta"] = [20, 79]
        with pytest.raises(ConfigError, match=r"^config\.data\.n_ta: largest size 79 "
                                              r"leaves 1 of the 80 target rows to "
                                              r"test, and r_squared needs 2 or more$"):
            parse_config(cfg)

    def test_csv_transfer_shape(self, tmp_path):
        report = run_experiment(parse_config(_csv_transfer_config(tmp_path)))
        assert not report["errors"]
        # methods x n_ta x seeds rows; aggregates per (method, n_ta)
        assert len(report["rows"]) == 2 * 2 * 2
        assert len(report["aggregates"]) == 2 * 2
        for agg in report["aggregates"]:
            assert "mean_mse" in agg and "std_mse" in agg

    @pytest.mark.parametrize("kind", ["csv_transfer", "selection"])
    def test_cells_of_a_seed_share_the_source_and_auxiliary_fits(
        self, tmp_path, monkeypatch, kind
    ):
        if kind == "csv_transfer":
            cfg = _csv_transfer_config(tmp_path)
            cfg["methods"]["baselines"] = ["only_target", "only_source"]
            cfg["transformations"] = [{"family": "offset", "alpha": 1.0},
                                      {"family": "offset", "alpha": 0.5}]
            aux_per_seed = 2 * 2  # HTL methods x n_ta values
        else:
            cfg = base_config(output_dir=str(tmp_path / "out"), seeds=[0, 1])
            _selection(cfg, L_alpha=2.0, K=2)
            aux_per_seed = 5  # family members
        cfg["methods"]["source"] = {"method": "ks", "kernel": "epanechnikov",
                                    "bandwidth": [0.1, 0.3], "cv_folds": 3}
        source_cvs, aux_builds, source_fits = [], [], []
        fit = KSSpec.fit

        def counting_fit(spec, train):
            source_fits.append(train.domain_tag is DomainTag.SOURCE)
            return fit(spec, train)

        def counting_cv(data, *args):
            source_cvs.append(data.domain_tag is DomainTag.SOURCE)
            return grid_search_cv(data, *args)

        def counting_aux(*args):
            aux_builds.append(1)
            return construct_auxiliary(*args)

        monkeypatch.setattr(experiment, "grid_search_cv", counting_cv)
        monkeypatch.setattr(KSSpec, "fit", counting_fit)
        monkeypatch.setattr(pipeline, "construct_auxiliary", counting_aux)
        report = run_experiment(parse_config(cfg))
        assert not report["errors"]
        seeds = 2
        assert sum(source_cvs) == seeds
        assert sum(source_fits) == seeds
        assert len(aux_builds) == aux_per_seed * seeds

    @pytest.mark.parametrize("kind", ["rate_sweep", "selection"])
    def test_a_seed_predicts_the_source_once_per_distinct_query(
        self, tmp_path, monkeypatch, kind
    ):
        cfg = base_config(output_dir=str(tmp_path / "out"), seeds=[0, 1])
        if kind == "rate_sweep":
            _kind(cfg, "rate_sweep", n_ta_grid=[20, 40, 80])
            cfg["methods"]["baselines"] = ["only_target", "only_source"]
            cfg["transformations"] = [{"family": "offset", "alpha": 1.0},
                                      {"family": "offset", "alpha": 0.5}]
            per_seed = 3 + 1  # target rows of each cell, the Monte Carlo sample
        else:
            _selection(cfg, L_alpha=2.0, K=3)
            per_seed = 2  # target rows, validation rows
        # id(source fit) -> (the fit, kept alive so its id stays unique; queries)
        queries: dict[int, tuple[KSPredictor, list[np.ndarray]]] = {}
        predict = KSPredictor.predict

        def recording_predict(self, X):
            if self.train.domain_tag is DomainTag.SOURCE:
                queries.setdefault(id(self), (self, []))[1].append(np.array(X))
            return predict(self, X)

        monkeypatch.setattr(KSPredictor, "predict", recording_predict)
        report = run_experiment(parse_config(cfg))
        assert not report["errors"]
        assert len(queries) == 2  # one source fit per seed
        for _, seen in queries.values():
            keys = [(q.shape, q.tobytes()) for q in seen]
            assert len(keys) == per_seed
            assert len(set(keys)) == per_seed

    def test_a_cell_predicts_its_equal_target_specs_in_one_pass(self, tmp_path,
                                                                monkeypatch):
        # only_target and two HTL methods resolve to the one bandwidth rule:
        # each cell predicts all three at the Monte Carlo sample in one call
        cfg = base_config(output_dir=str(tmp_path / "out"), seeds=[0, 1])
        _kind(cfg, "rate_sweep", n_ta_grid=[20, 40, 80])
        _target(cfg, {"method": "ks", "kernel": "epanechnikov",
                      "bandwidth": {"alpha": 1.0}})
        cfg["transformations"] = [{"family": "offset", "alpha": 1.0},
                                  {"family": "non_transfer"}]
        calls = []
        predict = smoothing.predict_sorted_1d

        def spy(xs, rows, ranks, queries, *args):
            calls.append((len(xs), len(queries), len(rows)))
            return predict(xs, rows, ranks, queries, *args)

        monkeypatch.setattr(smoothing, "predict_sorted_1d", spy)
        report = run_experiment(parse_config(cfg))
        assert not report["errors"]
        at_sample = [call for call in calls if call[1] == 2000]
        # per seed: the source once, each cell's target stage once
        assert sorted(at_sample) == sorted(
            [(200, 2000, 1)] * 2 + [(n, 2000, 3) for n in (20, 40, 80)] * 2)
        risk = {(r["method"], r["seed"], r["n_ta"]): r["excess_risk"]
                for r in report["rows"]}
        for (method, seed, n_ta), value in risk.items():
            if method == "htl_non_transfer":
                assert value == risk["only_target", seed, n_ta]

    @pytest.mark.parametrize("failing", ["only_target", "htl_offset(alpha=1)"])
    def test_a_failing_row_of_a_shared_fit_fails_its_method_alone(
            self, tmp_path, monkeypatch, failing):
        # only_target and the HTL method share one KRR fit with equal lambda;
        # the ridge solve fails on one method's labels only
        cfg = base_config(output_dir=str(tmp_path / "out"))
        _target(cfg, {"method": "krr", "kernel": {"shape": "rbf"}, "lambda": 0.01})
        config = parse_config(cfg)
        target = experiment._synthetic_cells(config, 0)[0][1].target
        healthy = {r["method"]: r for r in run_experiment(config)["rows"]}
        shared = []
        fit_samples, solve = KRRSpec.fit_samples, ridge.ridge_path

        def counting_fit_samples(spec, samples):
            shared.append(len(samples))
            return fit_samples(spec, samples)

        def failing_solve(K, y, lams):
            if np.array_equal(y, target.labels) == (failing == "only_target"):
                raise ConditioningError("synthetic failure")
            return solve(K, y, lams)

        monkeypatch.setattr(KRRSpec, "fit_samples", counting_fit_samples)
        monkeypatch.setattr(ridge, "ridge_path", failing_solve)
        report = run_experiment(config)
        assert shared == [2]
        assert report["errors"] == [{"method": failing, "seed": 0,
                                     "error": "synthetic failure",
                                     "type": "ConditioningError"}]
        [row] = report["rows"]
        assert row == healthy[row["method"]] and row["method"] != failing

    @pytest.mark.parametrize("source_fails", [False, True])
    def test_a_combined_resolve_that_raises_fails_at_its_own_row(
            self, tmp_path, monkeypatch, source_fails):
        # combined is resolved and fit when its row is scored, after
        # only_source's and before the HTL method's, so its error sits there
        cfg = base_config(output_dir=str(tmp_path / "out"), seeds=[0, 1])
        cfg["methods"]["baselines"] = ["only_target", "only_source", "combined"]
        healthy = run_experiment(parse_config(cfg))["rows"]
        resolve, report = experiment.MethodConfig.resolve, experiment.metric_report
        events = []

        def failing_resolve(method, train, seed):
            if train.n == 200 + 40:
                events.append("pooled")
                raise ValueError("pooled resolve failed")
            if source_fails and train.domain_tag is DomainTag.SOURCE:
                raise ValueError("source resolve failed")
            return resolve(method, train, seed)

        def recording_report(pred, test):
            events.append("score")
            return report(pred, test)

        monkeypatch.setattr(experiment.MethodConfig, "resolve", failing_resolve)
        monkeypatch.setattr(experiment, "metric_report", recording_report)
        got = run_experiment(parse_config(cfg))
        # the pooled resolve runs inside the third row's score, combined's
        assert events == ["score", "score", "score", "pooled", "score"] * 2
        failed = (["only_source", "combined", "htl_offset(alpha=1)"] if source_fails
                  else ["combined"])
        assert [(e["method"], e["seed"], e["error"]) for e in got["errors"]] == [
            (name, seed, f"{name_error} resolve failed") for seed in (0, 1)
            for name, name_error in zip(failed, ("source", "pooled", "source")
                                        if source_fails else ("pooled",))]
        assert got["rows"] == [r for r in healthy if r["method"] not in failed]

    def test_a_grid_cv_selection_member_scores_as_its_htl_method(self):
        # selection.json with offset_doppler.json's bandwidth grid: each member
        # is the htl_offset(alpha) pipeline, its bandwidth cross-validated on
        # its own auxiliary sample, not on the target labels
        raw = json.loads((CONFIGS / "selection.json").read_text(encoding="utf-8"))
        grid = json.loads((CONFIGS / "offset_doppler.json").read_text(encoding="utf-8"))
        raw["methods"]["target"] = grid["methods"]["target"]
        raw["seeds"] = [0, 1, 2]
        config = parse_config(raw)
        _, errors, _, selections = experiment._run_cells(
            config, experiment._synthetic_cells)
        assert not errors
        for seed, result in zip(config.seeds, selections):
            [(_, data)] = experiment._synthetic_cells(config, seed)
            f_so_hat = config.source_method.resolve(
                data.source, experiment.child_seed(seed, experiment._CV_SOURCE)
            ).fit(data.source)
            cv_seed = experiment.child_seed(seed, experiment._CV_TARGET)
            want = []
            for tf in config.selection_family.members:
                aux, _ = construct_auxiliary(data.target, f_so_hat,
                                             AuxiliaryEstimator(tf))
                w_hat = config.target_method.resolve(aux, cv_seed).fit(aux)
                pred = HTLPredictor(f_so_hat, w_hat, tf).predict(
                    data.validation.features)
                want.append((tf.label, float(np.mean(
                    (data.validation.labels - pred) ** 2))))
            assert result.per_candidate_validation_mse == tuple(want)


def _numeric_leaves(value, where="config", keys=()):
    """(key path, keys from the root) of every number in a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_leaves(item, f"{where}.{key}", keys + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numeric_leaves(item, f"{where}[{i}]", keys + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield where, keys


_SHIPPED_LEAVES = [
    pytest.param(path.name, where, keys, id=f"{path.stem}:{where}")
    for path in sorted(CONFIGS.glob("*.json"))
    for where, keys in _numeric_leaves(json.loads(path.read_text(encoding="utf-8")))
]


@pytest.fixture(scope="module")
def shipped_dir(tmp_path_factory):
    """A directory for copies of the shipped configs, holding the kin CSVs
    that csv_transfer.json names."""
    out = tmp_path_factory.mktemp("shipped")
    for domain, n, seed in (("source", 1000, 0), ("target", 500, 1)):
        assert cli_main(["synth", "--dataset", "kin_analog", "--n", str(n),
                         "--domain", domain, "--seed", str(seed),
                         "--out", str(out / f"kin_{domain}.csv")]) == 0
    return out


@pytest.mark.parametrize("literal", [math.nan, math.inf])
@pytest.mark.parametrize("name, where, keys", _SHIPPED_LEAVES)
def test_a_non_finite_number_in_a_shipped_config_names_its_path(
        shipped_dir, name, where, keys, literal):
    raw = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    parent = raw
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = literal
    path = shipped_dir / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert where in str(info.value)


def _csv_transfer_config(tmp_path):
    """A csv_transfer config over two generated 2-d CSVs, n_ta 20 and 40."""
    rng = np.random.default_rng(0)
    for name, rows in (("src.csv", 120), ("ta.csv", 80)):
        xs = rng.uniform(size=(rows, 2))
        ys = xs[:, 0] + 0.1 * rng.normal(size=rows)
        lines = ["x0,x1,y"] + [f"{a},{b},{c}" for (a, b), c in zip(xs, ys)]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    return base_config(
        experiment_kind="csv_transfer",
        data={"source_csv": str(tmp_path / "src.csv"),
              "target_csv": str(tmp_path / "ta.csv"),
              "label_column": "y", "n_ta": [20, 40]},
        sizes={"n_so": 100},
        seeds=[0, 1],
        output_dir=str(tmp_path / "out"),
    )


class TestCli:
    def test_synth_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = cli_main(["synth", "--dataset", "doppler_offset", "--n", "30",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        ds = load_csv(out, "y")
        assert ds.n == 30 and ds.dim == 1

    @pytest.mark.parametrize("flag, value", [
        ("--n", "0"), ("--n", "-3"), ("--noise", "-1"), ("--noise", "nan"),
        ("--noise", "inf"),
    ])
    def test_synth_rejects_a_bad_size_or_noise_naming_the_flag(
        self, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "sub" / "d.csv"
        args = {"--n": "30", "--noise": "0.01", flag: value}
        code = cli_main(["synth", "--dataset", "doppler_offset",
                         *(item for pair in args.items() for item in pair),
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {flag}: ")
        assert not (tmp_path / "sub").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "expected a nonnegative integer, got -1"),
        ("--out", "", "{tmp} is a directory, expected a file path"),
        ("--out", "file/d.csv", "{tmp}/file exists and is not a directory"),
    ])
    def test_synth_rejects_a_bad_seed_or_output_path(self, tmp_path, capsys,
                                                     flag, value, message):
        (tmp_path / "file").write_text("kept\n")
        args = {"--out": str(tmp_path / "d.csv"), flag: str(tmp_path / value)
                if flag == "--out" else value}
        code = cli_main(["synth", "--dataset", "doppler_offset", "--n", "30",
                         *(item for pair in args.items() for item in pair)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"config error: {flag}: {message.format(tmp=tmp_path)}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_run_verb(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(seeds=[0])))
        code = cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["experiment_kind"] == "synthetic"

    def test_seeds_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(seeds=[0])))
        code = cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out"),
                         "--seeds", "5,6"])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert sorted({r["seed"] for r in report["rows"]}) == [5, 6]
        assert report["config"]["seeds"] == [5, 6]

    def test_calls_in_one_process_share_no_flags(self, tmp_path):
        # the parser is built once per process: a later call with another
        # verb and without --out or --seeds takes neither from an earlier one
        run_cfg = base_config(seeds=[0], output_dir=str(tmp_path / "run_out"))
        select_cfg = base_config(seeds=[1], output_dir=str(tmp_path / "select_out"))
        _selection(select_cfg, L_alpha=2.0, K=1)
        for name, cfg in (("run.json", run_cfg), ("select.json", select_cfg)):
            (tmp_path / name).write_text(json.dumps(cfg))
        assert cli_main(["run", "--config", str(tmp_path / "run.json"),
                         "--out", str(tmp_path / "flag_out"), "--seeds", "5"]) == 0
        assert cli_main(["select", "--config", str(tmp_path / "select.json")]) == 0
        assert cli_main(["run", "--config", str(tmp_path / "run.json")]) == 0
        seeds = {}
        for out in ("flag_out", "select_out", "run_out"):
            report = json.loads((tmp_path / out / "report.json").read_text())
            seeds[out] = ({row["seed"] for row in report["rows"]},
                          report["config"]["seeds"])
        assert seeds == {"flag_out": ({5}, [5]), "select_out": ({1}, [1]),
                         "run_out": ({0}, [0])}
        assert build_parser() is build_parser()

    def test_shipped_configs_parse(self, tmp_path):
        for domain, n, seed in (("source", 1000, 0), ("target", 500, 1)):
            assert cli_main(["synth", "--dataset", "kin_analog", "--n", str(n),
                             "--domain", domain, "--seed", str(seed),
                             "--out", str(tmp_path / f"kin_{domain}.csv")]) == 0
        paths = sorted(CONFIGS.glob("*.json"))
        assert len(paths) == 5
        for path in paths:
            copy = tmp_path / path.name
            copy.write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
            config = load_config(copy)
            raw = json.loads(copy.read_text(encoding="utf-8"))
            assert len(config.transformations) == len(raw.get("transformations", []))

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(experiment_kind="bogus")))
        code = cli_main(["run", "--config", str(cfg_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("make", ["directory", "latin-1 text", "nothing"])
    def test_unreadable_config_is_a_config_error_naming_it(self, tmp_path,
                                                           capsys, make):
        path = tmp_path / "cfg.json"
        if make == "directory":
            path.mkdir()
        elif make == "latin-1 text":
            path.write_bytes(json.dumps(base_config(output_dir="caf\xe9"),
                                        ensure_ascii=False).encode("latin-1"))
        assert cli_main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and "Traceback" not in err

    @pytest.mark.parametrize("via", ["--out", "config.output_dir"])
    def test_output_path_that_is_a_file_fails_before_any_seed(
            self, tmp_path, capsys, monkeypatch, via):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")

        def no_seed(*args):
            pytest.fail("a seed ran")

        monkeypatch.setattr(experiment, "_run_cells", no_seed)
        cfg_path = tmp_path / "cfg.json"
        argv = ["run", "--config", str(cfg_path)]
        if via == "--out":
            cfg_path.write_text(json.dumps(base_config()))
            argv += ["--out", str(blocker / "sub")]
        else:
            cfg_path.write_text(json.dumps(base_config(output_dir=str(blocker))))
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == (
            f"config error: {via}: {blocker} exists and is not a directory\n")
        assert blocker.read_text() == "kept\n"

    def test_kind_enforced_by_verb(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()))
        code = cli_main(["rate", "--config", str(cfg_path)])
        assert code == 1

    @pytest.mark.parametrize("target", ["ks_rule", "krr"])
    def test_a_constant_noiseless_rate_sweep_runs(self, tmp_path, target):
        # f_ta = 1 with no noise: a smoother of constant labels predicts the
        # constant exactly, so only_target's risks are all 0 and its rate fit
        # alone fails; a KRR target stage has positive risks and fits both.
        # The config runs either way, so parsing does not reject it
        cfg = json.loads((CONFIGS / "rate_sweep.json").read_text())
        cfg["data"].update(noise_variance=0.0, n_ta_grid=[25, 50, 100], truth={
            "transformation": {"family": "offset", "alpha": 0.0},
            "w": {"intercept": 1.0}})
        cfg.update(sizes={"n_so": 2000}, seeds=[0, 1])
        if target == "krr":
            _target(cfg, {"method": "krr", "kernel": {"shape": "rbf",
                                                      "lengthscale": 0.1},
                          "lambda": 1e-3})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["rows"]) == 12
        only_target = [r["excess_risk"] for r in report["rows"]
                       if r["method"] == "only_target"]
        if target == "krr":
            assert code == 0 and not report["errors"]
            assert sorted(report["rate_fits"]) == ["htl_offset(alpha=1)", "only_target"]
            assert all(risk > 0 for risk in only_target)
        else:
            assert code == 2
            assert only_target == [0.0] * 6
            assert report["errors"] == [{
                "method": "only_target", "stage": "rate_fit",
                "error": "risks must be positive for a log-log fit",
                "type": "ValueError"}]
            assert list(report["rate_fits"]) == ["htl_offset(alpha=1)"]

    def test_partial_failure_exit_code(self, tmp_path, monkeypatch):
        def exploding(*args):
            raise ValueError("boom")

        monkeypatch.setattr(pipeline, "construct_auxiliary", exploding)
        cfg = base_config(seeds=[0])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
