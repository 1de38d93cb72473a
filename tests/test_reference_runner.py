"""The experiment runner against Algorithm 1 run literally
(``reference_runner.py``).

Every fast path the runner takes for these configs claims the bits of the
literal fit: the one-pass fold CV of a 1-D compact-kernel bandwidth grid,
the per-fold ``ks_predict`` of any other bandwidth grid, the ridge path of a
lambda grid, a cell's shared target-stage fits over label rows, and the
memoized source stage. So rows, errors and every selection candidate's
validation MSE are compared by exact equality. No compared path claims only
float summation order: both runners predict each smoother through
``ks_predict``'s one choice of the dense, windowed or moment path, so no
tolerance is needed.
"""

import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htlreg import experiment, smoothing
from htlreg.cli import main as cli_main
from htlreg.experiment import parse_config

from reference_runner import reference_run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped(name: str, seeds=None) -> dict:
    raw = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    if seeds is not None:
        raw["seeds"] = seeds
    return raw


def grid_cv_selection() -> dict:
    """selection.json with offset_doppler.json's target stage: a bandwidth
    grid resolved by 10-fold CV, on each member's own auxiliary sample."""
    raw = shipped("selection.json", [0, 1, 2])
    raw["methods"]["target"] = shipped("offset_doppler.json")["methods"]["target"]
    return raw


def runner_run(config):
    make_cells = (experiment._csv_cells if config.experiment_kind == "csv_transfer"
                  else experiment._synthetic_cells)
    rows, errors, _, selections = experiment._run_cells(config, make_cells)
    return rows, errors, [r.per_candidate_validation_mse for r in selections]


def assert_same_run(config):
    want = reference_run(config)
    got = runner_run(config)
    assert got[0] == want[0]  # rows
    assert got[1] == want[1]  # errors
    assert got[2] == want[2]  # each selection's (label, validation MSE) rows
    return got


@pytest.mark.parametrize("name, seeds", [
    ("offset_doppler.json", [0, 1]),
    ("scale_doppler.json", [0, 1]),
    ("rate_sweep.json", [0, 1, 2]),
    ("selection.json", [0, 1, 2]),
])
def test_a_shipped_synthetic_config_runs_as_algorithm_1(name, seeds):
    rows, errors, _ = assert_same_run(parse_config(shipped(name, seeds)))
    assert rows and not errors


def test_grid_cv_selection_runs_as_algorithm_1():
    rows, errors, selections = assert_same_run(parse_config(grid_cv_selection()))
    assert len(rows) == 3 and not errors
    assert all(len(mses) == 9 for mses in selections)


def test_an_overflowing_selection_fails_as_algorithm_1():
    raw = shipped("selection.json", [0])
    raw["selection_family"] = {"L_alpha": 1e308, "K": 1}
    rows, errors, _ = assert_same_run(parse_config(raw))
    assert not rows and "non-finite validation MSE" in errors[0]["error"]


def small_csv_transfer(tmp_path) -> dict:
    """csv_transfer.json at two seeds over small kin_analog CSVs written to
    ``tmp_path``."""
    for domain, n, seed in (("source", 150, 0), ("target", 120, 1)):
        assert cli_main(["synth", "--dataset", "kin_analog", "--n", str(n),
                         "--domain", domain, "--seed", str(seed),
                         "--out", str(tmp_path / f"kin_{domain}.csv")]) == 0
    raw = shipped("csv_transfer.json", [0, 1])
    raw["sizes"]["n_so"] = 100
    raw["data"]["n_ta"] = [10, 20, 40]
    return raw


def test_csv_transfer_runs_as_algorithm_1(tmp_path):
    # the shipped methods and transformations
    raw = small_csv_transfer(tmp_path)
    rows, errors, _ = assert_same_run(parse_config(raw, base_dir=tmp_path))
    assert len(rows) == 2 * 3 * 5 and not errors


def test_a_gaussian_bandwidth_grid_runs_as_algorithm_1():
    # 1-D data with a kernel that is not compact: each fold is fit on its own
    raw = shipped("offset_doppler.json", [0, 1])
    raw["sizes"] = {"n_so": 400, "n_ta": 60, "n_test": 200}
    for stage in ("source", "target"):
        raw["methods"][stage]["kernel"] = "gaussian"
    rows, errors, _ = assert_same_run(parse_config(raw))
    assert len(rows) == 2 * 4 and not errors


def test_an_8d_bandwidth_grid_runs_as_algorithm_1(tmp_path):
    # a KS bandwidth grid at both stages: 8-D data, so each fold is fit on
    # its own
    raw = small_csv_transfer(tmp_path)
    for stage in ("source", "target"):
        raw["methods"][stage] = {"method": "ks", "kernel": "epanechnikov",
                                 "bandwidth_grid": [0.5, 1.0, 2.0], "cv_folds": 5}
    rows, errors, _ = assert_same_run(parse_config(raw, base_dir=tmp_path))
    assert len(rows) == 2 * 3 * 5 and not errors


KS_KERNELS = ("boxcar", "epanechnikov", "truncated_gaussian", "gaussian")
FAMILIES = (
    {"family": "offset", "alpha": 1.0},
    {"family": "offset", "alpha": 0.5, "aux_bound_B": 25.0},
    {"family": "scale", "alpha": 0.5, "aux_bound_B": 25.0},
    {"family": "non_transfer"},
    {"family": "loglinear", "beta": 1.0, "sigma2": 0.01},
)
# the shipped truths: doppler + x, and 5 * doppler
TRUTHS = (
    {"transformation": {"family": "offset", "alpha": 1.0}, "w": {"slope": 1.0}},
    {"transformation": {"family": "scale", "alpha": 0.0}, "w": {"intercept": 5.0}},
)


@st.composite
def subroutine(draw, smallest):
    """A KS or KRR stage: a fixed value, a rule, or a grid cross-validated
    with 2 to ``smallest`` folds."""
    if draw(st.booleans()):
        raw = {"method": "ks", "kernel": draw(st.sampled_from(KS_KERNELS))}
        keys, values = ("bandwidth", "bandwidth_grid", "bandwidth_rule"), [0.02, 0.05, 0.2]
        rule = {"alpha": draw(st.sampled_from([0.5, 1.0])), "c": 0.5}
    else:
        raw = {"method": "krr", "kernel": draw(st.sampled_from([
            {"shape": "rbf"}, {"shape": "rbf", "lengthscale": 0.2}, {"shape": "linear"},
            {"shape": "polynomial", "degree": 2, "offset": 1.0}]))}
        keys, values = ("lambda", "lambda_grid", "lambda_rule"), [1e-3, 0.01, 0.1]
        rule = {"beta": 1.0, "p": 0.5, "c": 0.1}
    fixed, grid, rule_key = keys
    form = draw(st.sampled_from(keys))
    if form == fixed:
        raw[fixed] = draw(st.sampled_from(values))
    elif form == rule_key:
        raw[rule_key] = rule
    else:
        raw[grid] = draw(st.lists(st.sampled_from(values), min_size=2, max_size=3,
                                  unique=True))
        raw["cv_folds"] = draw(st.integers(2, smallest))
    return raw


@st.composite
def small_config(draw):
    """A one-seed config of any synthetic kind and either shipped truth, at
    small sizes."""
    kind = draw(st.sampled_from(["synthetic", "rate_sweep", "selection"]))
    n_so = draw(st.integers(12, 60))
    # a rate sweep draws three or more target sizes, any other kind one
    n_ta = draw(st.lists(st.integers(6, 30), min_size=3, max_size=3, unique=True))
    raw = {"experiment_kind": kind, "seeds": [draw(st.integers(0, 99))],
           "data": {"noise_variance": 0.01, "truth": draw(st.sampled_from(TRUTHS))},
           "sizes": {"n_so": n_so}}
    if kind == "rate_sweep":
        raw["data"]["n_ta_grid"] = n_ta
    else:
        n_ta = n_ta[:1]
        raw["sizes"]["n_ta"] = n_ta[0]
        raw["sizes"]["n_test" if kind != "selection" else "n_val"] = 40
    raw["methods"] = {"source": draw(subroutine(n_so)),
                      "target": draw(subroutine(min(n_ta)))}
    if kind == "selection":
        raw["selection_family"] = {"L_alpha": 2.0, "K": draw(st.integers(1, 2))}
        return raw
    raw["methods"]["baselines"] = draw(st.lists(
        st.sampled_from(["only_target", "only_source", "combined"]), unique=True))
    raw["transformations"] = draw(st.lists(
        st.sampled_from(FAMILIES), unique_by=lambda t: (t["family"], t.get("alpha")),
        min_size=0 if raw["methods"]["baselines"] else 1, max_size=3))
    return raw


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(raw=small_config(), block_pairs=st.sampled_from([smoothing._BLOCK_PAIRS, 64]),
       moment_floor=st.sampled_from([smoothing._MOMENT_MIN_PAIRS, 0]))
def test_a_small_drawn_config_runs_as_algorithm_1(raw, block_pairs, moment_floor):
    # 64 block pairs put each fold's map of a few dozen points in a group of
    # its own or of two; a moment floor of 0 sends every boxcar and
    # epanechnikov window through the prefix moments
    with mock.patch.object(smoothing, "_BLOCK_PAIRS", block_pairs), \
            mock.patch.object(smoothing, "_MOMENT_MIN_PAIRS", moment_floor):
        assert_same_run(parse_config(raw))
