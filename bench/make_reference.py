"""Record the report rows that bench/run.py checks each op against.

Runs one op per shipped experiment seed of every workload, through the same
code path as the benchmark, and writes ``bench/reference.json``:
``{workload: {input key: {experiment seed: rows}}}``. The synthetic workloads
generate their data from the experiment seed alone, so one input key covers
every ``--seed``; the CSV workload's inputs depend on ``--seed``, and its
reference covers ``--seed`` 0 to CSV_SEEDS - 1.

Regenerate only when a change is meant to alter results, and say why:

    python3 bench/make_reference.py
"""

import json
import shutil

import run

CSV_SEEDS = 10


def main() -> int:
    table = {}
    for name, wl in run.WORKLOADS.items():
        table[name] = {}
        for seed in range(CSV_SEEDS if wl.csv else 1):
            work = run.make_work_dir()
            try:
                prep = run.prepare(name, seed, work)
                rows = {}
                for exp_seed in prep.exp_seeds:
                    res = run.run_op(prep, wl.verb, exp_seed, work / "op")
                    problems = res.problems or run.check_report(
                        res.report, prep.config, exp_seed, None)
                    if problems:
                        raise RuntimeError(f"{name} seed {exp_seed}: {problems}")
                    rows[str(exp_seed)] = json.loads(res.report)["rows"]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table[name][run.input_key(name, seed)] = rows
            print(f"{name} {run.input_key(name, seed)}: {len(rows)} seeds",
                  flush=True)
    run.REFERENCE.write_text(json.dumps(table, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
