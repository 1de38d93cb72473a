"""Benchmark of htlreg over four paper workloads.

One *op* is one in-process ``htlreg.cli.main`` call for a single experiment
seed (the ``run``, ``rate`` or ``select`` verb with ``--seeds <s> --out <tmp>``).
Ops run one after another in one process: a closed loop with one client.
BLAS and OpenMP are pinned to one thread.

Untraced run (``--trace 0``) prints the end-to-end metrics:

* ``seed_s_p50``  median wall time of one op, after one untimed warm-up op;
* ``setup_s``     median over cold starts, spread over the measured window,
                  of the time from spawning a fresh interpreter until the
                  benchmark is ready (import htlreg, generate the workload's
                  inputs, ``load_config``);
* ``peak_rss_mb`` ``ru_maxrss`` of the workload process.

Traced run (``--trace 1``) pairs each op with a traced rerun of the same seed,
wrapping htlreg's public functions from outside (see ``tracer.py``), and
prints per-op layer self times and work counts plus ``trace.overhead_frac``.

Every op is checked: exit code 0, no ``errors`` in ``report.json``, finite
metrics, every method row present, and -- where ``reference.json`` covers the
inputs -- rows equal to the recorded reference up to float summation order.

Usage, from the repository root:

    python3 bench/run.py --workload ks_cv_offset --seed 0 --seconds 23 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 23 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pinned before numpy loads here or in any child process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
SPANS_DIR = BENCH_DIR / "spans"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_STARTS = 7        # cold starts per run; setup_s is their median
MIN_SAMPLES = 5         # timed ops per untraced run, even past --seconds
REL_TOL = 1e-9          # reference rows may differ by float summation order
ABS_TOL = 1e-15


@dataclass(frozen=True)
class Workload:
    verb: str
    config: str
    op_s: float          # nominal seconds per op; sizes the traced run
    csv: bool = False


# Shipped configs at paper sizes; BENCHMARK.json says why each is here.
# scale_doppler.json is left out: it exercises the same layers as
# offset_doppler.json.
WORKLOADS = {
    "ks_cv_offset": Workload("run", "configs/offset_doppler.json", 2.4),
    "ks_rate_sweep": Workload("rate", "configs/rate_sweep.json", 2.3),
    "krr_cv_csv": Workload("run", "configs/csv_transfer.json", 0.7, csv=True),
    "ks_select": Workload("select", "configs/selection.json", 0.04),
}


# ---------------------------------------------------------------------------
# set-up


def import_htlreg():
    """Import htlreg from this checkout's src/, never from elsewhere."""
    if not (SRC / "htlreg" / "__init__.py").is_file():
        raise SystemExit(f"bench: no htlreg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import htlreg
    import htlreg.cli
    import htlreg.experiment
    if Path(htlreg.__file__).resolve().parent != SRC / "htlreg":
        raise SystemExit(f"bench: imported htlreg from {htlreg.__file__}")
    return htlreg


@dataclass
class Prepared:
    cli: object
    config_path: Path
    config: object
    exp_seeds: tuple


def prepare(name: str, seed: int, work: Path) -> Prepared:
    """Everything before the first op: import, inputs, load_config."""
    htlreg = import_htlreg()
    wl = WORKLOADS[name]
    config_path = ROOT / wl.config
    if wl.csv:
        # The config names kin_source.csv / kin_target.csv next to itself;
        # generate them (README sizes) beside a copy of it in the work dir.
        shutil.copyfile(config_path, work / config_path.name)
        config_path = work / config_path.name
        for domain, n, stream in (("source", 1000, 0), ("target", 500, 1)):
            argv = ["synth", "--dataset", "kin_analog", "--n", str(n),
                    "--domain", domain, "--seed", str(2 * seed + stream),
                    "--out", str(work / f"kin_{domain}.csv")]
            with contextlib.redirect_stdout(io.StringIO()):
                if htlreg.cli.main(argv) != 0:
                    raise RuntimeError(f"synth failed: {argv}")
    config = htlreg.experiment.load_config(config_path)
    return Prepared(htlreg.cli, config_path, config, tuple(config.seeds))


def cold_start_s(name: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter until it is ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return t1 - t0


def setup_probe(name: str, seed: int) -> int:
    work = make_work_dir()
    try:
        prepare(name, seed, work)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def make_work_dir() -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=WORK_DIR))


# ---------------------------------------------------------------------------
# ops and their checks


@dataclass
class OpResult:
    seconds: float
    problems: list
    report: bytes


def run_op(prep: Prepared, verb: str, exp_seed: int, out: Path) -> OpResult:
    argv = [verb, "--config", str(prep.config_path), "--seeds", str(exp_seed),
            "--out", str(out)]
    problems: list[str] = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code = prep.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op
            code = None
            problems.append(f"raised {exc!r}")
        seconds = time.perf_counter() - t0
    if code != 0:
        problems.append(f"exit code {code}: {sink.getvalue()[-500:]}")
    report = b""
    try:
        report = (out / "report.json").read_bytes()
    except OSError as exc:
        problems.append(f"no report.json: {exc}")
    shutil.rmtree(out, ignore_errors=True)
    return OpResult(seconds, problems, report)


def expected_keys(config) -> set:
    """(method, n_ta) of every row one seed of this config must produce."""
    if config.experiment_kind == "selection":
        return {(None, None)}
    methods = list(config.baselines) + [
        f"htl_{t.transformation.label}" for t in config.transformations]
    if config.experiment_kind == "rate_sweep":
        sizes = [int(v) for v in config.data["n_ta_grid"]]
    elif config.experiment_kind == "csv_transfer":
        n_ta = config.data.get("n_ta", config.n_ta)
        sizes = [int(v) for v in (n_ta if isinstance(n_ta, list) else [n_ta])]
    else:
        sizes = [None]
    return {(m, n) for m in methods for n in sizes}


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL)
    return a == b


def check_report(raw: bytes, config, exp_seed: int, reference) -> list[str]:
    try:
        report = json.loads(raw)
    except ValueError as exc:
        return [f"unreadable report.json: {exc}"]
    problems = []
    if report.get("errors"):
        problems.append(f"errors: {report['errors']}")
    rows = report.get("rows", [])
    for row in rows:
        if row.get("seed") != exp_seed:
            problems.append(f"row for seed {row.get('seed')}, ran {exp_seed}")
        bad = [k for k, v in row.items()
               if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            problems.append(f"non-finite {bad} in {row}")
    have = {(r.get("method"), r.get("n_ta")) for r in rows}
    missing = expected_keys(config) - have
    if missing:
        problems.append(f"missing rows {sorted(missing, key=str)}")
    if reference is not None:
        if len(rows) != len(reference) or any(
                row.keys() != ref.keys()
                or not all(_close(row[k], ref[k]) for k in ref)
                for row, ref in zip(rows, reference)):
            problems.append("rows differ from reference.json")
    return problems


def reference_rows(name: str, seed: int) -> dict:
    """Recorded rows per experiment seed for these inputs ({} if none)."""
    if not REFERENCE.is_file():
        return {}
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get(name, {}).get(input_key(name, seed), {})


def input_key(name: str, seed: int) -> str:
    # Synthetic workloads generate their data inside the op from the
    # experiment seed alone; only the CSV workload's inputs depend on --seed.
    return f"csv_seed_{seed}" if WORKLOADS[name].csv else "synthetic"


def exp_seed_of(prep: Prepared, seed: int, i: int) -> int:
    """Op i of a run cycles through the config's shipped seed list."""
    return prep.exp_seeds[(seed + i) % len(prep.exp_seeds)]


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                found[Path(path).name] = fn()
                break
    return found


def _openblas_versions() -> dict:
    import numpy
    import scipy
    out = {}
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out[mod.__name__] = f"{blas.get('name')} {blas.get('version')}"
        except (KeyError, TypeError):
            out[mod.__name__] = "unknown"
    return out


def host_probe_s() -> float:
    """Time of a fixed interpreter-and-numpy kernel that uses no htlreg code.

    Run between ops, its median tracks how fast the host ran this process
    during the window (steal time misses contention on a shared core).
    """
    import numpy as np
    a = np.arange(20000, dtype=float)[::-1]
    t0 = time.perf_counter()
    for _ in range(3):
        total = 0
        for i in range(3000):
            total += i * i
        np.exp(np.sort(a) / 20000.0).sum()
    return time.perf_counter() - t0


def steal_seconds() -> float | None:
    """Host-wide CPU steal time from /proc/stat, in seconds."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def machine_facts() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_versions(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# runs


def load_metric_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _metrics(values: dict, spec: list) -> dict:
    names = [m["name"] for m in spec]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(values)} != BENCHMARK.json {names}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def _cpu_seconds() -> float:
    """CPU time of this process and of its ended children (the cold starts)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Window:
    """CPU time, wall time and host steal over a measured span."""

    def __init__(self):
        self.wall0, self.cpu0 = time.perf_counter(), _cpu_seconds()
        self.steal0 = steal_seconds()

    def close(self) -> dict:
        steal = steal_seconds()
        return {
            "wall_s": time.perf_counter() - self.wall0,
            "cpu_s": _cpu_seconds() - self.cpu0,
            "steal_s": (None if steal is None or self.steal0 is None
                        else steal - self.steal0),
        }


def op_problems(res: OpResult, prep: Prepared, exp_seed: int,
                reference: dict) -> list[str]:
    return res.problems or check_report(
        res.report, prep.config, exp_seed, reference.get(str(exp_seed)))


def run_untraced(name, seed, seconds, prep, work) -> tuple[dict, dict]:
    verb = WORKLOADS[name].verb
    reference = reference_rows(name, seed)
    failures = []
    probes = []

    def op(i: int) -> float:
        # checked right away, outside the timing, so no report is kept
        exp_seed = exp_seed_of(prep, seed, i)
        res = run_op(prep, verb, exp_seed, work / "op")
        problems = op_problems(res, prep, exp_seed, reference)
        if problems:
            failures.append({"exp_seed": exp_seed, "problems": problems})
        probes.append(host_probe_s())
        return res.seconds

    warmup_s = op(0)
    times, setup = [], []
    window = Window()
    start = time.perf_counter()
    # The cold starts are spread over the window, between ops, so that
    # setup_s samples the host as long as seed_s_p50 does.
    while time.perf_counter() < start + seconds or len(times) < MIN_SAMPLES:
        due = start + (len(setup) + 0.5) * seconds / SETUP_STARTS
        if len(setup) < SETUP_STARTS and time.perf_counter() >= due:
            setup.append(cold_start_s(name, seed))
        times.append(op(len(times) + 1))
    while len(setup) < SETUP_STARTS:
        setup.append(cold_start_s(name, seed))
    host = window.close()
    values = {
        "seed_s_p50": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    q1, _, q3 = statistics.quantiles(times, n=4)
    diag = {
        "samples": len(times),
        "seed_s_q1": q1,
        "seed_s_q3": q3,
        "seed_s_tail": _tail(times),
        "warmup_s": warmup_s,
        "setup_samples_s": setup,
        "host_probe_s_p50": statistics.median(probes),
        "reference_checked": bool(reference),
        "ops_attempted": len(times) + 1,
        "ops_failed": len(failures),
        "failures": failures[:5],
        "window": host,
    }
    return values, diag


def _tail(times) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 20:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    ordered = sorted(times)
    return {f"p{pct}": ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]}


def traced_ops(name: str, seconds: float) -> int:
    """Fixed op count for the traced run, so its work counts repeat exactly."""
    return max(2, round(seconds / (2.2 * WORKLOADS[name].op_s)))


def run_traced(name, seed, seconds, prep, work) -> tuple[dict, dict]:
    from tracer import Tracer

    verb = WORKLOADS[name].verb
    reference = reference_rows(name, seed)
    failures = []

    def check(res: OpResult, exp_seed: int, untraced: bytes | None = None):
        problems = op_problems(res, prep, exp_seed, reference)
        if not problems and untraced is not None and res.report != untraced:
            problems = ["traced report.json differs from untraced"]
        if problems:
            failures.append({"exp_seed": exp_seed, "problems": problems})

    warm_seed = exp_seed_of(prep, seed, 0)
    check(run_op(prep, verb, warm_seed, work / "op"), warm_seed)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    n_ops = traced_ops(name, seconds)
    window = Window()
    clean = True
    for i in range(1, n_ops + 2):
        # the extra last op retraces op 1's seed to check the counts repeat
        exp_seed = exp_seed_of(prep, seed, 1 if i > n_ops else i)
        plain = run_op(prep, verb, exp_seed, work / "op")
        tracer.install()
        tracer.op = i
        try:
            traced = run_op(prep, verb, exp_seed, work / "op")
        finally:
            tracer.op = None
            clean = tracer.uninstall() and clean
        if i <= n_ops:
            plain_s += plain.seconds
            traced_s += traced.seconds
        check(plain, exp_seed)
        check(traced, exp_seed, plain.report)
    host = window.close()
    counts_repeat = tracer.op_counts(1) == tracer.op_counts(n_ops + 1)
    values = tracer.layer_metrics(range(1, n_ops + 1))
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"{name}-seed{seed}.json"
    spans_path.write_text(json.dumps(
        {"workload": name, "seed": seed, **tracer.span_table()}) + "\n",
        encoding="utf-8")
    diag = {
        "traced_ops": n_ops,
        "counts_repeat": counts_repeat,
        "wrappers_removed": clean,
        "reference_checked": bool(reference),
        "ops_attempted": 2 * (n_ops + 1) + 1,
        "ops_failed": len(failures),
        "failures": failures[:5],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "window": host,
    }
    return values, diag


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_htlreg()
    spec = load_metric_spec()
    work = make_work_dir()
    try:
        prep = prepare(name, seed, work)
        facts = machine_facts()
        if trace:
            values, diag = run_traced(name, seed, seconds, prep, work)
            metrics = _metrics(values, spec["per_layer"])
            correct = (diag["ops_failed"] == 0 and diag["counts_repeat"]
                       and diag["wrappers_removed"])
        else:
            values, diag = run_untraced(name, seed, seconds, prep, work)
            metrics = _metrics(values, spec["end_to_end"])
            correct = diag["ops_failed"] == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    for key, m in metrics.items():
        extra = ""
        if key == "seed_s_p50":
            extra = f"  (samples {diag['samples']})"
        elif key == "setup_s":
            extra = f"  (median of {SETUP_STARTS} cold starts)"
        print(f"  {key:48s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  ops_attempted {diag['ops_attempted']}  "
          f"ops_failed {diag['ops_failed']}")
    print("diagnostics " + json.dumps({"machine": facts, **diag}))
    print(json.dumps({"correct": bool(correct),
                      "attempted": diag["ops_attempted"],
                      "failed": diag["ops_failed"],
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(ln for ln in lines[:-1]
                        if not ln.startswith("diagnostics ")), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=23.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
