"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py

Runs every workload once per default seed, then once per held-out seed,
each run in its own process with tracing off.  Per workload and end-to-end
metric it reports the median and the spread (distance between the first and
third quartile as a share of the median) of each set, and a verdict:

* ``ok`` when both spreads are within the metric's bound in BENCHMARK.json
  and the two medians differ by at most the bound (either way),
* ``FAIL`` when both spreads are within the bound but the medians differ by
  more,
* ``unresolved`` when a set's spread is above the bound: the runs are too
  noisy to tell a change of that size from none.  ``setup_s`` is judged by
  its medians alone, never ``unresolved``.

A workload passes when every metric is ``ok``, every run was correct and
the share of failed operations is the same in both sets.  The table also
goes to ``perfbench/out/steady.json``.  Exit code 0 when everything passed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from run import BENCH, DEFAULT_SEEDS, HELD_OUT_SEEDS, OUT, ROOT, WORKLOADS


def one_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(metric: dict, first: list, second: list) -> dict:
    bound = metric["bound"]
    med1, med2 = statistics.median(first), statistics.median(second)
    change = (med2 - med1) / med1
    spreads = (spread(first), spread(second))
    # set-up time is judged by its medians alone: its bound is there to show
    # work moved into set-up, and a run samples it only a few times
    if metric["name"] != "setup_s" and max(spreads) > bound:
        verdict = "unresolved"
    else:
        verdict = "ok" if abs(change) <= bound else "FAIL"
    return {"median": (med1, med2), "spread": spreads, "change": change,
            "bound": bound, "verdict": verdict}


def main() -> int:
    report, all_ok = {}, True
    for workload in WORKLOADS:
        sets = [[one_run(workload, s) for s in seeds]
                for seeds in (DEFAULT_SEEDS, HELD_OUT_SEEDS)]
        shares = [Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        rows = {m["name"]: compare(m, *([r["metrics"][m["name"]]["value"] for r in runs]
                                        for runs in sets))
                for m in BENCH["end_to_end"]}
        ok = correct and shares[0] == shares[1] and \
            all(r["verdict"] == "ok" for r in rows.values())
        all_ok &= ok
        report[workload] = {"ok": ok, "correct": correct,
                            "failed_share": [str(s) for s in shares], "metrics": rows}
        print(f"{workload}: {'PASS' if ok else 'FAIL'} correct={correct} "
              f"failed share {shares[0]} vs {shares[1]}")
        for name, r in rows.items():
            print(f"  {name:14s} median {r['median'][0]:12.6g} -> {r['median'][1]:12.6g}"
                  f"  spread {r['spread'][0]:.4f} / {r['spread'][1]:.4f}"
                  f"  change {r['change']:+.4f}  bound {r['bound']}  {r['verdict']}",
                  flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
