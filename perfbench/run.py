"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload desk-image --seed 0 --trace 0
    python3 perfbench/run.py --workload all

Untraced (``--trace 0``): set-up is sampled in fresh child processes, then
whole rounds run back to back, one caller in a closed loop, until
``--seconds`` (default: ``run_seconds`` in BENCHMARK.json) have passed; the
outputs are checked afterwards.  Traced (``--trace 1``): one round each
untraced, with spans and with counters, on the same seed; the three must
write byte-identical outputs.  Results also go
to ``perfbench/out/``.  Exit code 0 when every check passed, 1 when one
failed, 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("desk-image", "desk-nli", "theory-fuzz", "cli-files")
DEFAULT_SEEDS = tuple(range(10))
HELD_OUT_SEEDS = tuple(range(100, 110))
SETUP_SAMPLES = 7
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEEDS[0])
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """Pin BLAS to one thread (within the nproc cap); must run before numpy
    loads.  The benchmark is one caller in a closed loop, and a second BLAS
    thread made peak memory vary from run to run."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def git_sha() -> str:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info(blas_threads: int) -> dict:
    import numpy

    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": blas_threads, "nproc": NPROC}


def sample_setup(args) -> float:
    """Wall time of a fresh process that imports the package and warms the
    workload up, exactly as this process did before its first round."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_untraced(workload, args):
    # set-up samples are spread over the run so that one slow spell of a
    # shared machine cannot move all of them
    setup, rounds, walls = [], [], []
    while not rounds or sum(walls) < args.seconds:
        if len(setup) < SETUP_SAMPLES and sum(walls) >= len(setup) * args.seconds / SETUP_SAMPLES:
            setup.append(sample_setup(args))
        t0 = time.perf_counter()
        rnd = workload.round(args.seed + len(rounds))
        walls.append(time.perf_counter() - t0)
        rounds.append(rnd)
        if len(rounds) == 1:
            # one round is what a single sweep or CLI pipeline costs a user;
            # later rounds would make the peak depend on how many fit
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_SAMPLES:
        setup.append(sample_setup(args))
    problems = []
    for rnd in rounds:
        workload.collect(rnd)
        problems += workload.check(rnd)
        workload.cleanup(rnd)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        # wall time per round over the whole timed loop, the reciprocal of
        # rounds per second: the host's speed drifts by up to 1.8 times over
        # seconds to minutes, and over ten runs the mean of a run's rounds
        # spread less than their median or their fastest
        "wall_s": (statistics.fmean(walls), "s"),
        "peak_rss_mib": (peak_mib, "MiB"),
        "written_bytes": (statistics.median(r.written_bytes for r in rounds), "bytes"),
    }
    detail = {"setup_samples_s": setup, "round_wall_s": walls,
              "round_seeds": [r.seed for r in rounds]}
    return rounds, problems, metrics, detail


def run_traced(workload, args):
    from tracing import CallCounter, SpanTracer

    t0 = time.perf_counter()
    plain = workload.round(args.seed)
    plain_wall = time.perf_counter() - t0
    with SpanTracer() as tracer:
        t0 = time.perf_counter()
        traced = workload.round(args.seed)
        traced_wall = time.perf_counter() - t0
    with CallCounter() as counter:
        counted = workload.round(args.seed)
    rounds = [plain, traced, counted]
    for rnd in rounds:
        workload.collect(rnd)
    problems = workload.check(plain)
    for label, rnd in (("traced", traced), ("counted", counted)):
        if rnd.digests != plain.digests:
            diff = sorted(k for k in plain.digests.keys() | rnd.digests.keys()
                          if plain.digests.get(k) != rnd.digests.get(k))
            problems.append(f"{label} round wrote different outputs: {diff}")
    for rnd in rounds:
        workload.cleanup(rnd)
    OUT.mkdir(exist_ok=True)
    tracer.save(str(OUT / f"spans-{args.workload}-seed{args.seed}.npz"))
    values = tracer.times() | counter.metrics()
    values["trace.overhead_s"] = traced_wall - plain_wall
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in BENCH["per_layer"]}
    detail = {"plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "spans": len(tracer.starts), "outputs": plain.digests}
    return rounds, problems, metrics, detail


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if results[name] is None:
            print(f"{name}: no result (exit {proc.returncode})")
            continue
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "semcorrupt" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "reference.py").is_file():
        print(f"error: {ROOT} needs src/semcorrupt and tests/reference.py",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work = OUT / f"work-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, work)
        workload.cleanup(workload.round(args.seed, tiny=True))
        if args.setup_only:
            return 0
        runner = run_traced if args.trace else run_untraced
        rounds, problems, metrics, detail = runner(workload, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine_info(blas_threads), **detail,
              "problems": problems, **result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("git_sha", "python", "numpy",
                                              "blas_threads", "nproc")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
