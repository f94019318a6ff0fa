"""The benchmark's workloads: one timed round each, plus output checks.

A round is a fixed list of operations; the runner times whole rounds, so
every run attempts the same mix.  ``round`` is the only timed call.
``collect`` (reads written files back) and ``check`` run afterwards, outside
the timed region.  Checks use the independent oracles in
``tests/reference.py`` and properties of the methods, never a stored copy of
an earlier output.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from semcorrupt import cli
from semcorrupt.corruptions import CorruptionSpec, Grid, apply
from semcorrupt.families import CONTENT_VOCAB, synthetic_image_task, synthetic_nli_task
from semcorrupt.harness import (
    default_feature_spec,
    desk_image_experiment,
    desk_nli_experiment,
    generate_task,
    load_dataset,
    load_model,
    predictor_table_csv,
    run_experiment,
    save_dataset,
    save_model,
    verify_theory,
)
from semcorrupt.learner import featurize

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = 8               # generated examples compared against the oracles
TINY_N = 48               # examples per split in a warm-up round


def _load_reference():
    spec = importlib.util.spec_from_file_location(
        "semcorrupt_reference", ROOT / "tests" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load_reference()


@dataclass
class Round:
    seed: int
    attempted: int
    failed: int
    detail: object = None
    digests: dict = field(default_factory=dict)   # output name -> sha256
    written_bytes: int = 0


class Workload:
    def collect(self, rnd: Round) -> None:
        """Record what the round wrote that ``round`` did not (untimed)."""

    def cleanup(self, rnd: Round) -> None:
        """Remove what the round left on disk."""


def _sample_indices(n: int, seed: int) -> list:
    stream = ref.RefStream(ref.ref_derive_seed(seed, 99))
    return sorted({stream.below(n) for _ in range(SAMPLES)})


def _write_outputs(rnd: Round, work: Path, outputs: dict) -> None:
    for name, text in outputs.items():
        data = text.encode()
        (work / name).write_bytes(data)
        rnd.digests[name] = hashlib.sha256(data).hexdigest()
        rnd.written_bytes += len(data)


class DeskWorkload(Workload):
    """``run_experiment(*desk_<task>_experiment((seed,)))`` plus the two CSV
    files ``semcorrupt report`` writes; one (method, seed) cell per
    operation."""

    def __init__(self, task: str, work: Path):
        self.task = task
        self.work = work
        self.preset = desk_image_experiment if task == "image" else desk_nli_experiment
        # the image benchmark's margin is 10 points, the text one's 5
        self.margin = 0.10 if task == "image" else 0.05

    def round(self, seed: int, tiny: bool = False) -> Round:
        config, methods = self.preset((seed,))
        if tiny:
            config = replace(config, n_train=TINY_N, n_eval=TINY_N,
                             cfg_main=replace(config.cfg_main, epochs=1),
                             cfg_aux=replace(config.cfg_aux, epochs=1))
        result = run_experiment(config, methods)
        failed = sum(len(o.errors) for o in result.outcomes.values())
        rnd = Round(seed, len(methods), failed, result)
        _write_outputs(rnd, self.work, {"summary.csv": result.to_csv(),
                                        "per_seed.csv": result.per_seed_csv()})
        return rnd

    def check(self, rnd: Round) -> list:
        result = rnd.detail
        problems = [f"{label} seed {rnd.seed}: {o.errors or 'no result'}"
                    for label, o in result.outcomes.items()
                    if o.errors or len(o.per_seed) != 1]
        if problems:
            return problems
        flipped = {label: o.per_seed[0][1]["test_flipped"]
                   for label, o in result.outcomes.items()}
        erm = flipped["erm"].accuracy
        for m in result.methods:
            if m.name == "erm" or m.corruption.kind == "identity":
                continue
            margin = flipped[m.label].accuracy - erm
            if margin < self.margin:
                problems.append(f"seed {rnd.seed}: {m.label} beats erm on test_flipped "
                                f"by {margin:.3f} < {self.margin}")
        if self.task == "image":
            wg_pr = flipped["jtt6+pr8"].worst_group
            wg_id = flipped["jtt6+id"].worst_group
            if wg_pr < wg_id:
                problems.append(f"seed {rnd.seed}: jtt6+pr8 worst group {wg_pr:.3f} "
                                f"< jtt6+id {wg_id:.3f}")
        checker = self._check_image_oracles if self.task == "image" else self._check_nli_oracles
        return problems + checker(result.config)

    @staticmethod
    def _split_seeds(config):
        # run_experiment draws train from derive_seed(seed, 1), flipped from (seed, 3)
        seed = config.seeds[0]
        return ((ref.ref_derive_seed(seed, 1), config.n_train, False),
                (ref.ref_derive_seed(seed, 3), config.n_eval, True))

    def _check_image_oracles(self, config) -> list:
        problems = []
        shuffle = CorruptionSpec("patch_randomize", 8, 7)
        for split_seed, n, flip in self._split_seeds(config):
            ds = synthetic_image_task(config.rho_train, n, split_seed, flip)
            p_same = 1.0 - config.rho_train if flip else config.rho_train
            for i in _sample_indices(n, split_seed):
                y, z, img = ref.ref_image_example(split_seed, i, p_same)
                got = ds.covariates[i].values
                if (ds.labels[i], ds.nuisances[i]) != (y, z) or \
                        got.tobytes() != np.array(img)[:, :, None].tobytes():
                    problems.append(f"image example {i} of split seed {split_seed} "
                                    "differs from ref_image_example")
                shuffled = apply(shuffle, ds.covariates[i], i).values
                if not np.array_equal(np.sort(shuffled, axis=None), np.sort(got, axis=None)):
                    problems.append(f"patch_randomize changed the pixel multiset of example {i}")
        return problems

    def _check_nli_oracles(self, config) -> list:
        problems = []
        shuffle = CorruptionSpec("ngram_randomize", 1, 7)
        fs = default_feature_spec("nli")
        for split_seed, n, flip in self._split_seeds(config):
            ds = synthetic_nli_task(config.rho_train, n, split_seed, flip)
            for i in _sample_indices(n, split_seed):
                y, z, premise, hyp = ref.ref_nli_example(split_seed, i, config.rho_train, flip)
                pair = ds.covariates[i]
                if (ds.labels[i], ds.nuisances[i], pair.premise.tokens,
                        pair.hypothesis.tokens) != (y, z, premise, hyp):
                    problems.append(f"nli example {i} of split seed {split_seed} "
                                    "differs from ref_nli_example")
                content = tuple(t for t in hyp if 1 <= t <= CONTENT_VOCAB)
                if int(ref.ref_ordered_subsequence(content, premise)) != ds.labels[i]:
                    problems.append(f"nli example {i}: label is not the "
                                    "ordered-subsequence relation")
                want = np.zeros(2 * fs.buckets)
                for part, toks in enumerate((premise, hyp)):
                    for k in range(1, fs.ngram + 1):
                        for s in range(len(toks) - k + 1):
                            want[part * fs.buckets
                                 + ref.ref_ngram_bucket(toks[s:s + k], fs.buckets)] += 1.0
                if not np.array_equal(featurize(fs, [pair])[0], want):
                    problems.append(f"nli example {i}: n-gram buckets differ "
                                    "from ref_ngram_bucket")
                out = apply(shuffle, pair, i)
                if sorted(out.premise.tokens) != sorted(premise) or \
                        sorted(out.hypothesis.tokens) != sorted(hyp):
                    problems.append(f"ngram_randomize changed the tokens of example {i}")
        return problems


class TheoryWorkload(Workload):
    """``semcorrupt verify-theory --fuzz 2000 --seed 7 --table``: the six
    fixed checks and the fuzz loop of ``verify_theory``, and the predictor
    table CSV; every fixed check and every fuzz draw is one operation.

    The inputs do not depend on the workload seed.  ``fuzz_bound_checks``
    counts a violation on about one fuzz seed in thirty (a posterior below
    the engine's floor), so a seeded fuzz would fail on some runs and not on
    others.  Fuzz seed 7 is one of those seeds: its one violation is counted
    in ``failed`` on every round, at the same share of ``attempted``."""

    FUZZ = 2000
    TINY_FUZZ = 20
    FUZZ_SEED = 7
    INPUTS = ((-1, -1), (-1, 1), (1, -1), (1, 1))

    def __init__(self, work: Path):
        self.work = work

    def round(self, seed: int, tiny: bool = False) -> Round:
        draws = self.TINY_FUZZ if tiny else self.FUZZ
        report = verify_theory(draws, self.FUZZ_SEED)
        table = predictor_table_csv()
        fixed = [c for c in report.checks if c.name != "fuzz-bound"]
        fuzz = next(c for c in report.checks if c.name == "fuzz-bound")
        counted = re.match(r"(\d+) draws, (\d+) violations", fuzz.detail)
        violations = int(counted.group(2)) if counted else int(not fuzz.passed)
        lines = [c.line() for c in report.checks]
        rnd = Round(seed, len(fixed) + draws,
                    violations + sum(not c.passed for c in fixed),
                    (fixed, fuzz, counted, draws, table))
        _write_outputs(rnd, self.work, {"theory.txt": "\n".join(lines) + "\n",
                                        "predictors.csv": table})
        return rnd

    def check(self, rnd: Round) -> list:
        fixed, fuzz, counted, draws, table = rnd.detail
        problems = [c.line() for c in fixed if not c.passed]
        if counted is None or int(counted.group(1)) != draws:
            problems.append(f"fuzz-bound did not report {draws} draws: {fuzz.detail}")
        rows = table.splitlines()[1:]
        if len(rows) != 16:
            problems.append(f"predictor table has {len(rows)} rows, want 16")
        for line in rows:
            index, outputs, *accs = line.split(",")
            preds = dict(zip(self.INPUTS, (int(v) for v in outputs.split())))
            low = ref.ref_flip_accuracy(preds, 0.0)
            high = ref.ref_flip_accuracy(preds, 1.0)
            want = (low, high, min(low, high))
            if any(abs(float(a) - w) > 1e-12 for a, w in zip(accs, want)):
                problems.append(f"predictor {index}: {accs} vs closed form {want}")
        return problems


@dataclass(frozen=True)
class CliTask:
    n: int               # examples per generated split
    train: tuple         # training flags shared by train and scam
    corruption: tuple    # (kind, param) for the corrupt command
    scam: tuple          # method flags for the scam command
    margin: float        # flipped-split accuracy scam must add over train


class CliWorkload(Workload):
    """``gen -> corrupt -> train -> scam -> eval`` for both tasks through
    ``semcorrupt.cli.main`` on files under a fresh directory; every command
    is one operation."""

    TASKS = {
        "image": CliTask(
            n=1000,
            train=("--epochs", "10", "--batch", "64", "--lr", "0.02", "--wd", "0.001"),
            corruption=("freq_filter", 30),
            scam=("--method", "nurd", "--kind", "roi_mask", "--param", "16",
                  "--aux-epochs", "30", "--aux-lr", "0.1"),
            margin=0.10),
        "nli": CliTask(
            n=1200,
            train=("--epochs", "40", "--batch", "32", "--lr", "0.2", "--wd", "0.0001"),
            corruption=("ngram_randomize", 1),
            scam=("--method", "jtt", "--kind", "ngram_randomize", "--param", "1",
                  "--lambda-up", "6", "--aux-epochs", "40", "--aux-lr", "0.2"),
            margin=0.10),
    }
    CORRUPTION_SEED = 7

    def __init__(self, work: Path):
        self.work = work

    def _commands(self, base: Path, task: str, seed: int, tiny: bool):
        spec = self.TASKS[task]
        n = TINY_N if tiny else spec.n
        train, scam = list(spec.train), list(spec.scam)
        if tiny:
            train += ["--epochs", "1"]
            scam += ["--aux-epochs", "1"]
        d = base / task
        gen = ["gen", "--task", task, "--rho", "0.9", "--n", str(n)]
        fit = ["--in", str(d / "train"), "--seed", str(seed), *train]
        kind, param = spec.corruption
        return [
            [*gen, "--seed", str(2 * seed), "--out", str(d / "train")],
            [*gen, "--seed", str(2 * seed + 1), "--flip", "--out", str(d / "flipped")],
            ["corrupt", "--in", str(d / "train"), "--kind", kind, "--param", str(param),
             "--seed", str(self.CORRUPTION_SEED), "--out", str(d / "corrupted")],
            ["train", *fit, "--out", str(d / "erm.bin")],
            ["scam", *fit, *scam, "--corruption-seed", str(self.CORRUPTION_SEED),
             "--out", str(d / "scam.bin")],
            ["eval", "--model", str(d / "erm.bin"), "--in", str(d / "flipped"), "--json"],
            ["eval", "--model", str(d / "scam.bin"), "--in", str(d / "flipped"), "--json"],
        ]

    def round(self, seed: int, tiny: bool = False) -> Round:
        base = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work))
        codes, evals = [], []
        for task in self.TASKS:
            for argv in self._commands(base, task, seed, tiny):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                codes.append(code)
                if argv[0] == "eval":
                    evals.append(out.getvalue())
        return Round(seed, len(codes), sum(c != 0 for c in codes),
                     {"base": base, "codes": codes, "evals": evals, "tiny": tiny})

    def collect(self, rnd: Round) -> None:
        base = rnd.detail["base"]
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            data = path.read_bytes()
            rnd.digests[str(path.relative_to(base))] = hashlib.sha256(data).hexdigest()
            rnd.written_bytes += len(data)
        for i, text in enumerate(rnd.detail["evals"]):
            rnd.digests[f"eval-{i}.json"] = hashlib.sha256(text.encode()).hexdigest()

    def check(self, rnd: Round) -> list:
        base, codes = rnd.detail["base"], rnd.detail["codes"]
        if any(codes):
            return [f"seed {rnd.seed}: command exit codes {codes}"]
        problems = []
        evals = iter(rnd.detail["evals"])
        for task, spec in self.TASKS.items():
            d = base / task
            n = TINY_N if rnd.detail["tiny"] else spec.n
            generated = generate_task(task, 0.9, n, 2 * rnd.seed)
            loaded = load_dataset(str(d / "train"))
            if not _same_dataset(generated, loaded):
                problems.append(f"{task}: reloaded dataset differs from the generated one")
            corruption = CorruptionSpec(*spec.corruption, self.CORRUPTION_SEED)
            corrupted = [apply(corruption, c, i) for i, c in enumerate(generated.covariates)]
            if not _same_covariates(corrupted, load_dataset(str(d / "corrupted")).covariates):
                problems.append(f"{task}: reloaded corrupted dataset differs from apply()")
            save_dataset(loaded, str(d / "resaved"))
            for name in ("meta.json", "data.bin", "labels.csv"):
                if (d / "train" / name).read_bytes() != (d / "resaved" / name).read_bytes():
                    problems.append(f"{task}: save_dataset(load_dataset()) changed {name}")
            for model in ("erm.bin", "scam.bin"):
                loaded_model = load_model(str(d / model))
                save_model(loaded_model, str(d / f"resaved-{model}"))
                if (d / model).read_bytes() != (d / f"resaved-{model}").read_bytes():
                    problems.append(f"{task}: save_model(load_model()) changed {model}")
                if not np.all(np.isfinite(loaded_model.get_flat())):
                    problems.append(f"{task}: {model} has non-finite parameters")
            erm = json.loads(next(evals))["accuracy"]
            scam = json.loads(next(evals))["accuracy"]
            if not rnd.detail["tiny"] and scam - erm < spec.margin:
                problems.append(f"{task} seed {rnd.seed}: scam model beats train model on "
                                f"the flipped split by {scam - erm:.3f} < {spec.margin}")
        return problems

    def cleanup(self, rnd: Round) -> None:
        shutil.rmtree(rnd.detail["base"], ignore_errors=True)


def _same_covariates(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    if isinstance(a[0], Grid):
        return all(x.values.tobytes() == y.values.tobytes() for x, y in zip(a, b))
    return a == b


def _same_dataset(a, b) -> bool:
    return (a.n_classes == b.n_classes and a.provenance == b.provenance
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("labels", "nuisances", "groups"))
            and _same_covariates(a.covariates, b.covariates))


def make(name: str, work: Path):
    os.makedirs(work, exist_ok=True)
    if name == "desk-image":
        return DeskWorkload("image", work)
    if name == "desk-nli":
        return DeskWorkload("nli", work)
    if name == "theory-fuzz":
        return TheoryWorkload(work)
    return CliWorkload(work)
