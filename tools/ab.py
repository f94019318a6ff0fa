"""Paired benchmark runs of a parent commit against this checkout, with an
A/A control, written as a ``BENCH_<tag>.json`` skeleton.

    python tools/ab.py --workload theory-fuzz --seeds 0-9 --tag my-change
    python tools/ab.py --workload theory-fuzz --seeds 100-109 --tag my-change
    python tools/ab.py --self-test

The parent (``--parent``, default ``HEAD``) is taken twice with ``git
archive`` into a temporary directory; nothing is written under ``.git``
and nothing is fetched.  The change is the working tree this script lives
in.  Each pair runs ``perfbench/run.py --workload W --seed S --trace 0`` in
fresh processes, reading only what ``perfbench/`` prints and records:

* an A/B pair, parent against change;
* an A/A pair, the parent against its second copy.

Pair i takes seed ``seeds[i % len(seeds)]`` and runs its four processes in
the order ``ORDERS[i % 4]``, so that both blocks see the same drift of the
host, each side runs first within its block equally often, and over four
pairs each side takes each of the four places once.  Each end-to-end metric of
``BENCHMARK.json`` gets its per-run figures, each side's median and
quartiles, the per-pair ratios (change / parent, and copy / parent for the
A/A block) and the wins, and two verdicts:

* ``claim_stands``: every change run read ``correct: true`` and the
  change failed no more operations than the parent, at least ten pairs
  ran, the change wins at least nine tenths of them, the median A/B
  ratio lies outside the A/A block's interquartile band of ratios on the
  better side, and the change wins more pairs than the parent copy wins
  in the A/A block;
* ``parent_iqr_rule``: the benchmark's own rule, under the same
  correctness and failure conditions: at least nine tenths of the pairs
  won and medians apart, on the better side, by more than the parent's
  interquartile range.

The A/A band stands in for the parent's interquartile range because the
host's drift between pairs widens that range while the pairing cancels it.
In simulated sets (lognormal noise of 5% per run, and a host level that
drifts by 15% between pairs), identical sides make ``claim_stands`` hold
in about one set in three hundred, the band and win rules without the
nine tenths in one in twelve; a 15% gain makes it hold in 99 sets of 100,
the parent-IQR rule in 14.

Each run's highest round seed comes from ``round_seeds`` in its result
record (``perfbench/out/result-*.json``), and a run that failed keeps the
tail of its stderr.  Results are merged into ``BENCH_<tag>.json`` under the
set's name (workload and seeds), so several invocations fill one file.

Runs take the benchmark's own length (``run_seconds`` of
``BENCHMARK.json``).  ``--self-test`` checks the rules on seeded synthetic
pairs, then runs two tiny pairs (0.01 s rounds) of one tree (four copies
of ``HEAD``) against itself and checks that every run is correct and
nothing is claimed.  Exit code 0 when the runs (or the self-test) passed,
1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_PAIRS = 10
SIDES = ("parent", "change", "aa_first", "aa_second")
# the A/B and the A/A pair side by side, each block's order and the blocks'
# order alternating, so a drift of the host with the period of a pair
# favours no side
ORDERS = (SIDES, SIDES[::-1], ("change", "parent", "aa_second", "aa_first"),
          ("aa_first", "aa_second", "parent", "change"))
CLAIM_RULE = (
    "A claim on a metric stands (claim_stands) when every change run is correct, the "
    "change fails no more operations than the parent, at least ten pairs ran, the change "
    "wins at least nine tenths of them, the median of the per-pair ratios change / parent "
    "lies outside the A/A block's interquartile band of ratios (parent copy / parent) on "
    "the better side, and the change wins more pairs than the parent copy wins in the A/A "
    "block (ties count for neither). parent_iqr_rule reports the benchmark's own rule, "
    "under the same correctness and failure conditions: nine tenths of the pairs won and "
    "medians apart, on the better side, by more than the parent's interquartile range.")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="theory-fuzz")
    p.add_argument("--seeds", default="0-9", help="FIRST-LAST or a comma list")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--parent", default="HEAD", help="git revision of the parent")
    p.add_argument("--tag", default=None, help="write BENCH_<tag>.json at the repo root")
    p.add_argument("--self-test", action="store_true")
    return p.parse_args(argv)


def seed_list(text: str) -> list:
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def archive(rev: str, dest: Path) -> str:
    """Extract ``rev`` of this repository into ``dest``; returns its sha."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                         stdout=subprocess.PIPE, text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                         check=True, stdout=subprocess.PIPE).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def one_run(tree: Path, workload: str, seed: int, seconds=None) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    run = {"exit": proc.returncode, "correct": False, "metrics": {}}
    if len(lines) >= 2 and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        run.update(machine=json.loads(lines[-2]), correct=result["correct"],
                   attempted=result["attempted"], failed=result["failed"],
                   metrics={k: m["value"] for k, m in result["metrics"].items()})
        record = tree / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
        run["highest_round_seed"] = max(json.loads(record.read_text())["round_seeds"])
    if proc.returncode != 0:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def judge(parent: list, change: list, aa_first: list, aa_second: list, lower: bool, *,
          change_correct: list, failed: tuple) -> dict:
    """Figures and verdicts for one metric over paired runs (lists in pair
    order).  ``change_correct`` holds each change run's ``correct`` and
    ``failed`` the operations that failed, summed over the parent's and
    over the change's runs; neither verdict holds unless every change run
    is correct and the change failed no more operations than the parent."""
    def better(a, b):   # a reads better than b
        return a < b if lower else a > b

    ratio = [c / p if p else 1.0 for p, c in zip(parent, change)]
    aa_ratio = [c / p if p else 1.0 for p, c in zip(aa_first, aa_second)]
    wins = sum(better(c, p) for p, c in zip(parent, change))
    aa_wins = sum(better(c, p) for p, c in zip(aa_first, aa_second))
    n = len(parent)
    r, band = spread(ratio), spread(aa_ratio)
    outside = r["median"] < band["q1"] if lower else r["median"] > band["q3"]
    par, chg = spread(parent), spread(change)
    out = {
        "parent_runs": parent, "change_runs": change,
        "aa_first_runs": aa_first, "aa_second_runs": aa_second,
        "parent": par, "change": chg, "aa_first": spread(aa_first),
        "aa_second": spread(aa_second), "ratio": r, "aa_ratio": band,
        "change_better_in": f"{wins}/{n}", "aa_second_better_in": f"{aa_wins}/{n}",
        "ties": sum(p == c for p, c in zip(parent, change)),
    }
    sound = all(change_correct) and failed[1] <= failed[0]
    most = sound and 10 * wins >= 9 * n
    out["claim_stands"] = n >= MIN_PAIRS and most and outside and wins > aa_wins
    out["parent_iqr_rule"] = (most and better(chg["median"], par["median"])
                              and abs(chg["median"] - par["median"]) > par["iqr"])
    return out


def run_pairs(trees: dict, workload: str, seeds: list, pairs: int, seconds=None) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        for side in ORDERS[i % 4]:
            run = one_run(trees[side], workload, seed, seconds)
            run["seed"] = seed
            runs[side].append(run)
            print(f"pair {i} seed {seed} {side}: exit {run['exit']} "
                  f"wall_s {run['metrics'].get('wall_s', float('nan')):.4f}", flush=True)
    out = {"workload": workload, "seeds": seeds, "pairs": pairs,
           "seconds": BENCH["run_seconds"] if seconds is None else seconds,
           "correct": {s: all(r["correct"] for r in runs[s]) for s in SIDES},
           "failed_per_run": {s: [r.get("failed") for r in runs[s]] for s in SIDES},
           "attempted_per_run": {s: [r.get("attempted") for r in runs[s]] for s in SIDES},
           "highest_round_seed": {s: [r.get("highest_round_seed") for r in runs[s]]
                                  for s in SIDES},
           "metrics": {}}
    failures = {s: [r for r in runs[s] if r["exit"] != 0] for s in SIDES}
    if any(failures.values()):
        out["failed_runs"] = {s: [{k: r.get(k) for k in ("seed", "exit", "stderr_tail")}
                                  for r in f] for s, f in failures.items() if f}
    if all(r["metrics"] for s in SIDES for r in runs[s]):
        health = dict(change_correct=[r["correct"] for r in runs["change"]],
                      failed=tuple(sum(r["failed"] for r in runs[s])
                                   for s in ("parent", "change")))
        for m in BENCH["end_to_end"]:
            out["metrics"][m["name"]] = judge(
                *([r["metrics"][m["name"]] for r in runs[s]] for s in SIDES),
                lower=m["better"] == "lower", **health)
    first = next((r for s in SIDES for r in runs[s] if "machine" in r), {})
    out["machine"] = {k: v for k, v in first.get("machine", {}).items() if k != "git_sha"}
    return out


def cpu_name() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def write_bench(path: Path, parent_sha: str, set_name: str, result: dict) -> None:
    """Merge ``result`` into the BENCH file at ``path`` as the set ``set_name``."""
    bench = json.loads(path.read_text()) if path.exists() else {"tag": path.stem[6:]}
    bench.update(
        parent_commit=parent_sha,
        machine={"cpu": cpu_name(), **result["machine"]},
        method=("tools/ab.py: perfbench/run.py --workload W --seed S --trace 0 in fresh "
                "processes, parent and parent copy from git archive, change from the "
                "working tree; pair i takes the set's seed i mod its length and runs its "
                "four processes in the order ORDERS[i % 4]: " +
                "; ".join(" ".join(order) for order in ORDERS)),
        claim_rule=CLAIM_RULE)
    bench.setdefault("sets", {})[set_name] = {k: v for k, v in result.items() if k != "machine"}
    path.write_text(json.dumps(bench, indent=2) + "\n")


def self_test() -> int:
    problems = []
    rng = random.Random(20261021)
    sound = {"change_correct": [True] * MIN_PAIRS, "failed": (0, 0)}

    def simulated(shift: float) -> dict:
        """A set whose host level drifts between pairs, with noise per run."""
        levels = [rng.gauss(0.0, 0.15) for _ in range(MIN_PAIRS)]
        draw = lambda: [0.2 * rng.lognormvariate(level, 0.05) for level in levels]
        parent, aa_first, aa_second = draw(), draw(), draw()
        return judge(parent, [v * shift for v in draw()], aa_first, aa_second, lower=True,
                     **sound)

    null = sum(simulated(1.0)["claim_stands"] for _ in range(200))
    gain = sum(simulated(0.85)["claim_stands"] for _ in range(200))
    if null > 2:
        problems.append(f"identical sides claimed a change in {null} of 200 simulated sets")
    if gain < 190:
        problems.append(f"a 15% gain was claimed in only {gain} of 200 simulated sets")
    same = [0.2] * MIN_PAIRS
    if judge(same, same, same, same, lower=True, **sound)["claim_stands"]:
        problems.append("identical figures claimed a change")
    faster = [0.1] * MIN_PAIRS
    for broken in ({"change_correct": [True] * 9 + [False], "failed": (0, 0)},
                   {"change_correct": [True] * MIN_PAIRS, "failed": (0, 1)}):
        verdict = judge(same, faster, same, same, lower=True, **broken)
        if verdict["claim_stands"] or verdict["parent_iqr_rule"]:
            problems.append(f"a faster change claimed a gain with {broken}")
    if not judge(same, faster, same, same, lower=True, **sound)["claim_stands"]:
        problems.append("a change faster in every pair claimed nothing")
    with tempfile.TemporaryDirectory(prefix="ab-self-test-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for tree in trees.values():
            archive("HEAD", tree)
        result = run_pairs(trees, "theory-fuzz", [0], 2, 0.01)
        bench = Path(tmp) / "BENCH_self-test.json"
        write_bench(bench, "HEAD", "theory-fuzz seeds 0", result)
        written = json.loads(bench.read_text())
    if not {"tag", "parent_commit", "machine", "method", "claim_rule", "sets"} <= set(written):
        problems.append(f"BENCH skeleton has only {sorted(written)}")
    if not all(result["correct"].values()):
        problems.append(f"a run was not correct: {result.get('failed_runs')}")
    names = {m["name"] for m in BENCH["end_to_end"]}
    if set(result["metrics"]) != names:
        problems.append(f"metrics {sorted(result['metrics'])}, want {sorted(names)}")
    claimed = [k for k, m in result["metrics"].items() if m["claim_stands"]]
    if claimed:
        problems.append(f"one tree against itself claimed {claimed}")
    for problem in problems:
        print(f"self-test failed: {problem}", file=sys.stderr)
    print(f"self-test: {null}/200 null and {gain}/200 gain sets claimed; "
          f"{'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_test:
        return self_test()
    if args.pairs < 1:
        print("error: --pairs must be >= 1", file=sys.stderr)
        return 1
    seeds = seed_list(args.seeds)
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        parent_sha = archive(args.parent, Path(tmp) / "parent")
        archive(parent_sha, Path(tmp) / "parent-copy")
        trees = {"parent": Path(tmp) / "parent", "change": ROOT,
                 "aa_first": Path(tmp) / "parent", "aa_second": Path(tmp) / "parent-copy"}
        result = run_pairs(trees, args.workload, seeds, args.pairs)
    set_name = f"{args.workload} seeds {args.seeds}"
    for name, m in result["metrics"].items():
        print(f"{set_name} {name}: parent {m['parent']['median']:.6g} change "
              f"{m['change']['median']:.6g} ratio {m['ratio']['median']:.4f} (A/A band "
              f"{m['aa_ratio']['q1']:.4f}-{m['aa_ratio']['q3']:.4f}) wins "
              f"{m['change_better_in']} vs A/A {m['aa_second_better_in']}: claim "
              f"{'stands' if m['claim_stands'] else 'does not stand'}")
    if args.tag:
        path = ROOT / f"BENCH_{args.tag}.json"
        write_bench(path, parent_sha, set_name, result)
        print(f"wrote {path}")
    return 0 if all(result["correct"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
