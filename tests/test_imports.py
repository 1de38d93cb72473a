"""Import hygiene: scipy loads only on the paths that use it.

Each test runs in a fresh interpreter, since this process has long since
imported scipy (for the test oracles, if nothing else).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import htlreg
from htlreg.ridge import krr_fit, rbf_kernel
from htlreg.smoothing import KSPredictor, SmoothingKernel

REPO = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.linalg", "scipy.spatial")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object last."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(htlreg.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=REPO, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# builds ``train`` and ``queries`` in the child and, through exec, here
SAMPLE = """
import numpy as np
from htlreg.data import Dataset
rng = np.random.default_rng(5)
train = Dataset(features=rng.uniform(size=(30, 2)), labels=rng.normal(size=30))
queries = rng.uniform(size=(7, 2))
"""


@pytest.mark.parametrize("config", ["offset_doppler", "scale_doppler",
                                    "rate_sweep", "selection"])
def test_1d_kernel_smoothing_run_never_loads_scipy_linalg_or_spatial(
    config, tmp_path
):
    out = run_fresh(f"""
import json, sys
from htlreg.cli import main
code = main(["run", "--config", "configs/{config}.json", "--seeds", "0",
             "--out", {str(tmp_path / "out")!r}])
print(json.dumps({{"code": code,
                   "loaded": [m for m in {HEAVY!r} if m in sys.modules]}}))
""")
    assert out == {"code": 0, "loaded": []}
    assert (tmp_path / "out" / "report.json").exists()


def test_krr_and_dense_smoothing_load_scipy_on_first_use():
    out = run_fresh(f"""
import json, sys
{SAMPLE}
from htlreg.ridge import krr_fit, rbf_kernel
from htlreg.smoothing import KSPredictor, SmoothingKernel
cold = [m for m in {HEAVY!r} if m in sys.modules]
krr = krr_fit(train, rbf_kernel(None), 0.01).predict(queries)
ks = KSPredictor(train, SmoothingKernel.GAUSSIAN, 0.2).predict(queries)
print(json.dumps({{"cold": cold, "krr": [v.hex() for v in krr],
                   "ks": [v.hex() for v in ks]}}))
""")
    ns = {}
    exec(SAMPLE, ns)
    train, queries = ns["train"], ns["queries"]
    krr = krr_fit(train, rbf_kernel(None), 0.01).predict(queries)
    ks = KSPredictor(train, SmoothingKernel.GAUSSIAN, 0.2).predict(queries)
    assert out["cold"] == []
    assert np.array_equal([float.fromhex(v) for v in out["krr"]], krr)
    assert np.array_equal([float.fromhex(v) for v in out["ks"]], ks)
