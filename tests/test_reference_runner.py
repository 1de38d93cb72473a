"""The experiment runner against Algorithm 1 run literally
(``reference_runner.py``).

Every fast path the runner takes for these configs claims the bits of the
literal fit: the one-pass fold CV of a bandwidth grid, the ridge path of a
lambda grid, a cell's shared target-stage fits over label rows, and the
memoized source stage. So rows, errors and every selection candidate's
validation MSE are compared by exact equality. No compared path claims only
float summation order: both runners predict each smoother through
``ks_predict``'s one choice of the dense, windowed or moment path, so no
tolerance is needed.
"""

import json
from pathlib import Path

import pytest

from htlreg import experiment
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


def test_csv_transfer_runs_as_algorithm_1(tmp_path):
    # the shipped methods and transformations over small kin_analog CSVs
    for domain, n, seed in (("source", 150, 0), ("target", 120, 1)):
        assert cli_main(["synth", "--dataset", "kin_analog", "--n", str(n),
                         "--domain", domain, "--seed", str(seed),
                         "--out", str(tmp_path / f"kin_{domain}.csv")]) == 0
    raw = shipped("csv_transfer.json", [0, 1])
    raw["sizes"]["n_so"] = 100
    raw["data"]["n_ta"] = [10, 20, 40]
    rows, errors, _ = assert_same_run(parse_config(raw, base_dir=tmp_path))
    assert len(rows) == 2 * 3 * 5 and not errors
