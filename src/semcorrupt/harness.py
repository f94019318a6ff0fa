"""Experiment orchestration: metrics, benchmark loop, theory checks, I/O.

The theory verifier re-derives every number the exact engine promises
(predictor table, matched joints, bound inequalities) and reports one
pass/fail line per check.  The benchmark loop runs each method over several
seeds, records per-seed failures without aborting the sweep, and emits
deterministic CSV.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import pairwise
from typing import Callable

import numpy as np

from .corruptions import (GRID_CHUNK, CorruptionSpec, Grid, SentencePair, grid_rows,
                          grid_values, pair_rows)
from .errors import ConfigError
from .exact import (
    BINARY_INPUTS,
    FiniteCorruption,
    corruption_bound,
    cond_indep_gap,
    enumerate_binary_predictors,
    nuisance_randomize,
    predictor_accuracy,
)
from .families import (
    Dataset,
    flip_noise_family,
    negated_coordinate_family,
    synthetic_image_task,          # the task generators are called by name
    synthetic_nli_task,            # through TASKS
    xor_sign_family,
)
from .learner import (FeatureSpec, LinearModel, TrainConfig, featurize, layer_widths,
                      predict, train)
from .rng import Stream, derive_seed
from .scams import (
    FeatureStore,
    run_dfl,                       # the run_* routines are called by name
    run_jtt,                       # through METHODS
    run_nurd,
    run_poe,
    select_corruption,
)

# ---------------------------------------------------------------------------
# metrics

@dataclass(frozen=True)
class MetricsRecord:
    accuracy: float
    n: int
    group_accuracies: tuple | None = None   # ((group, acc, count), ...)
    worst_group: float | None = None


def evaluate(model: LinearModel, dataset: Dataset, feature_spec: FeatureSpec) -> MetricsRecord:
    """Overall accuracy plus per-group and worst-group when the dataset
    carries group annotations."""
    return score_features(model, featurize(feature_spec, dataset.covariates), dataset)


def score_features(model: LinearModel, X: np.ndarray, dataset: Dataset) -> MetricsRecord:
    """:func:`evaluate` on the dataset's features ``X``; ConfigError when
    they are not as wide as the model's input."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if X.shape[1] != model.n_features:
        raise ConfigError(f"the dataset has {X.shape[1]} features, "
                          f"the model takes {model.n_features}")
    preds = predict(model, X)
    hits = preds == dataset.labels
    acc = float(hits.mean())
    if dataset.groups is None:
        return MetricsRecord(acc, len(dataset))
    rows = []
    for g in np.unique(dataset.groups):
        sel = dataset.groups == g
        rows.append((int(g), float(hits[sel].mean()), int(sel.sum())))
    worst = min(r[1] for r in rows)
    return MetricsRecord(acc, len(dataset), tuple(rows), worst)


# ---------------------------------------------------------------------------
# benchmark loop

@dataclass(frozen=True)
class Method:
    """A debiasing method: label format over the :class:`MethodSpec` and its
    corruption's label, ``scams.run_*`` routine name (None: plain training),
    hyperparameter field and validation scheme.  The routine is looked up by
    name at call time, so one rebound at module level is the one run."""

    label: str
    routine: str | None = None
    param: str | None = None
    scheme: str | None = None      # balanced | challenge | iid (worst group)


METHODS = {
    "erm": Method("erm"),
    "nurd": Method("nurd+{1}", "run_nurd", scheme="balanced"),
    "jtt": Method("jtt{0.lambda_up}+{1}", "run_jtt", "lambda_up", "iid"),
    "poe": Method("poe+{1}", "run_poe", scheme="challenge"),
    "dfl": Method("dfl{0.gamma:g}+{1}", "run_dfl", "gamma", "challenge"),
}
# the value of a method's hyperparameter when its MethodSpec leaves it None
PARAM_DEFAULTS = {"lambda_up": 6, "gamma": 2.0}


@dataclass(frozen=True)
class MethodSpec:
    """One benchmark entry: a :data:`METHODS` name plus its corruption and
    the hyperparameter its method takes, None meaning its
    :data:`PARAM_DEFAULTS` value.  Any other hyperparameter must stay None,
    even at that value: the method would train as if it were unset."""

    name: str
    corruption: CorruptionSpec | None = None
    lambda_up: int | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.name not in METHODS:
            raise ConfigError(f"unknown method {self.name!r}")
        needs = METHODS[self.name].routine is not None
        if needs != (self.corruption is not None):
            raise ConfigError(f"{self.name} {'needs a' if needs else 'takes no'} corruption")
        for f in fields(self)[2:]:
            if f.name != METHODS[self.name].param:
                if getattr(self, f.name) is not None:
                    raise ConfigError(f"{self.name} takes no {f.name}")
            elif getattr(self, f.name) is None:
                object.__setattr__(self, f.name, PARAM_DEFAULTS[f.name])

    @property
    def label(self) -> str:
        tag = None if self.corruption is None else self.corruption.label
        return METHODS[self.name].label.format(self, tag)


@dataclass(frozen=True)
class ExperimentConfig:
    task: str                      # a TASKS name
    rho_train: float
    n_train: int
    n_eval: int
    seeds: tuple
    cfg_main: TrainConfig
    cfg_aux: TrainConfig
    hidden: int = 0

    @property
    def feature(self) -> FeatureSpec:
        return default_feature_spec(self.task)


@dataclass(frozen=True)
class Task:
    """A task: its generator's name (looked up at call time), features and desk preset."""

    generator: str
    feature: FeatureSpec
    preset: Callable | None = None


def _task_entry(task: str) -> Task:
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    return TASKS[task]


def generate_task(task: str, rho: float, n: int, seed: int, flip: bool = False) -> Dataset:
    return globals()[_task_entry(task).generator](rho, n, seed, flip)


def default_feature_spec(task: str) -> FeatureSpec:
    return _task_entry(task).feature


def run_method(method: MethodSpec, store: FeatureStore, cfg_main: TrainConfig,
               cfg_aux: TrainConfig, hidden: int = 0):
    """Train one method on the dataset of ``store``, a :class:`FeatureStore`
    that shares features and batch plans with other methods on it; returns
    ``(model, info)`` like the ``run_*`` routines, with the main model's
    per-epoch losses in ``info["losses"]`` and the store's feature spec
    recorded on the model."""
    entry = METHODS[method.name]
    if entry.routine is None:
        X = store.clean()
        model = LinearModel(X.shape[1], store.dataset.n_classes, hidden, seed=cfg_main.seed)
        info = {"losses": train(model, X, store.dataset.labels, cfg_main, plan=store.plan)}
    else:
        run = globals()[entry.routine]
        params = () if entry.param is None else (getattr(method, entry.param),)
        model, info = run(store, method.corruption, cfg_main, cfg_aux, *params, hidden)
    model.feature_spec = store.feature_spec
    return model, info


_SELECT_TRAIN_TAG = 20
_SELECT_VAL_TAG = 21


def select_corruption_for(config: ExperimentConfig, method: MethodSpec,
                          candidates, seed: int = 0):
    """Choose a corruption for ``method`` by its :data:`METHODS` scheme:
    accuracy on a balanced set (label and nuisance independent) of
    ``n_eval`` examples or, for ``challenge``, ``max(64, n_eval // 4)``; or
    worst-group accuracy on an in-distribution set of ``n_eval`` (``iid``).
    The identity corruption always competes, and ties keep the earliest
    candidate, so a corruption is only ever chosen when it strictly helps."""
    scheme = METHODS[method.name].scheme
    if scheme is None:
        raise ConfigError("corruption selection needs a corruption-driven method")
    store = FeatureStore(generate_task(config.task, config.rho_train, config.n_train,
                                       derive_seed(seed, _SELECT_TRAIN_TAG)), config.feature)
    rho, n_val = {"balanced": (0.5, config.n_eval),
                  "challenge": (0.5, max(64, config.n_eval // 4)),
                  "iid": (config.rho_train, config.n_eval)}[scheme]
    val = generate_task(config.task, rho, n_val, derive_seed(seed, _SELECT_VAL_TAG))
    cfg_main = replace(config.cfg_main, seed=derive_seed(seed, 10))
    cfg_aux = replace(config.cfg_aux, seed=derive_seed(seed, 11))
    X_val = featurize(config.feature, val.covariates)

    def score(spec: CorruptionSpec) -> float:
        candidate = replace(method, corruption=spec)
        model, _ = run_method(candidate, store, cfg_main, cfg_aux, config.hidden)
        rec = score_features(model, X_val, val)
        if scheme == "iid" and rec.worst_group is not None:
            return rec.worst_group
        return rec.accuracy

    return select_corruption(candidates, score)


SPLITS = ("test_iid", "test_flipped", "test_balanced")


@dataclass
class MethodOutcome:
    per_seed: list = field(default_factory=list)   # (seed, {split: MetricsRecord})
    errors: list = field(default_factory=list)     # (seed, message)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    methods: tuple
    outcomes: dict

    def summary(self) -> dict:
        """method label -> split -> metric -> (mean, stddev, stderr, k)."""
        out = {}
        for m in self.methods:
            per_split = {}
            rows = self.outcomes[m.label].per_seed
            for split in SPLITS:
                metrics = {}
                accs = [r[1][split].accuracy for r in rows]
                if accs:
                    metrics["accuracy"] = _stats(accs)
                    wgs = [r[1][split].worst_group for r in rows
                           if r[1][split].worst_group is not None]
                    if wgs:
                        metrics["worst_group"] = _stats(wgs)
                per_split[split] = metrics
            out[m.label] = per_split
        return out

    def to_csv(self) -> str:
        lines = ["method,split,metric,mean,stddev,stderr,seeds"]
        summ = self.summary()
        for m in self.methods:
            for split in SPLITS:
                for metric in ("accuracy", "worst_group"):
                    if metric in summ[m.label][split]:
                        mean, sd, se, k = summ[m.label][split][metric]
                        lines.append(
                            f"{m.label},{split},{metric},"
                            f"{mean:.6f},{sd:.6f},{se:.6f},{k}"
                        )
        return "\n".join(lines) + "\n"

    def per_seed_csv(self) -> str:
        lines = ["method,seed,split,accuracy,worst_group"]
        for m in self.methods:
            for seed, rec in self.outcomes[m.label].per_seed:
                for split in SPLITS:
                    r = rec[split]
                    wg = "" if r.worst_group is None else f"{r.worst_group:.6f}"
                    lines.append(f"{m.label},{seed},{split},{r.accuracy:.6f},{wg}")
        return "\n".join(lines) + "\n"


def _stats(values) -> tuple:
    k = len(values)
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if k > 1 else 0.0
    return mean, sd, sd / math.sqrt(k) if k else 0.0, k


def _eval_split(config: ExperimentConfig, split: str, seed: int) -> Dataset:
    """Evaluation split ``split`` of ``seed``: in distribution, flipped, or
    with label and nuisance independent."""
    tag, rho, flip = {"test_iid": (2, config.rho_train, False),
                      "test_flipped": (3, config.rho_train, True),
                      "test_balanced": (4, 0.5, False)}[split]
    return generate_task(config.task, rho, config.n_eval, derive_seed(seed, tag), flip)


def _train_cell(method: MethodSpec, store: FeatureStore, cfg_main: TrainConfig,
                cfg_aux: TrainConfig, hidden: int):
    """One (method, seed) cell: its model, or the ``"Type: message"`` error
    the sweep records for it."""
    try:
        return run_method(method, store, cfg_main, cfg_aux, hidden)[0]
    except Exception as exc:   # record and move on
        return f"{type(exc).__name__}: {exc}"


def _forked_map(fn: Callable, items: list, died) -> list:
    """``[fn(item) for item in items]``, computed in forked worker processes,
    one per usable CPU: worker ``k`` maps items ``k``, ``k + workers``, ...
    on what it inherits through the fork (shared copy-on-write) and sends
    its results back through a pipe, pickled.  Each item of a worker that
    dies before sending them reads as ``died``.  Every worker is reaped,
    and every pipe closed, before this returns or raises."""
    workers = min(len(items), len(os.sched_getaffinity(0)))
    shares = [range(k, len(items), workers) for k in range(workers)]
    children = []   # (pid, the read end of its pipe)
    try:
        for share in shares:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # e.g. EAGAIN: no worker holds this pipe
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:   # the worker: nothing may return into the caller's code
                status = 1
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as sink:
                        pickle.dump([fn(items[i]) for i in share], sink)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        out = [None] * len(items)
        for (_, results), share in zip(children, shares):
            try:
                outs = pickle.load(results)
            except (EOFError, pickle.UnpicklingError):
                outs = [died] * len(share)
            for i, result in zip(share, outs):
                out[i] = result
        return out
    finally:
        for pid, results in children:
            results.close()
            os.waitpid(pid, 0)


def run_experiment(config: ExperimentConfig, methods) -> ExperimentResult:
    """Full sweep: per seed, train every method on one training set through
    one :class:`FeatureStore`, in forked workers (:func:`_forked_map`),
    then generate each held-out split (in-distribution, flipped, balanced),
    featurize it once and score every trained model on it.  A failure in
    one (method, seed) cell is recorded and the sweep continues."""
    methods = tuple(methods)
    labels = [m.label for m in methods]
    if len(set(labels)) != len(labels):
        raise ConfigError("method labels must be unique")
    if not config.seeds:
        raise ConfigError("an experiment needs at least one seed")
    outcomes = {m.label: MethodOutcome() for m in methods}
    for seed in config.seeds:
        store = FeatureStore(generate_task(config.task, config.rho_train, config.n_train,
                                           derive_seed(seed, 1)), config.feature)
        store.clean()   # before the fork, so that every worker shares it
        cfg_main = replace(config.cfg_main, seed=derive_seed(seed, 10))
        cfg_aux = replace(config.cfg_aux, seed=derive_seed(seed, 11))
        trained = _forked_map(lambda m: _train_cell(m, store, cfg_main, cfg_aux, config.hidden),
                              methods, "ChildProcessError: the worker training this cell died")
        del store
        models, records = {}, {}
        for m, out in zip(methods, trained):
            if isinstance(out, str):
                outcomes[m.label].errors.append((seed, out))
            else:
                models[m.label], records[m.label] = out, {}
        for split in SPLITS:
            if not records:   # no model left to score
                break
            ds = _eval_split(config, split, seed)
            X = featurize(config.feature, ds.covariates)
            for label in list(records):
                try:
                    records[label][split] = score_features(models[label], X, ds)
                except Exception as exc:
                    outcomes[label].errors.append((seed, f"{type(exc).__name__}: {exc}"))
                    del records[label]
            del ds, X
        for label, rec in records.items():
            outcomes[label].per_seed.append((seed, rec))
    return ExperimentResult(config, methods, outcomes)


DESK_SEEDS = (0, 1, 2, 3, 4)


def desk_image_experiment(seeds=DESK_SEEDS):
    """Small image benchmark: every corruption-driven method should beat
    ERM on the flipped test split by a wide margin.

    The main model is trained on a deliberately small budget (few epochs,
    small step size): under that budget the background texture, whose raw
    gradient signal is several times the glyph's, dominates plain ERM, which
    lands at the texture ceiling (about 0.90 in distribution, 0.10 flipped).
    The auxiliary model keeps a full budget — its input has been corrupted,
    so extra training cannot surface the glyph there.  The frequency-filter
    cutoff of 30 removes the glyph almost exactly (only its two highest
    harmonics survive) while the texture, which lives at the corner of the
    spectrum, passes through."""
    config = ExperimentConfig(
        task="image",
        rho_train=0.9,
        n_train=1500,
        n_eval=1500,
        seeds=tuple(seeds),
        cfg_main=TrainConfig(epochs=10, batch_size=64, lr=0.02, weight_decay=1e-3),
        cfg_aux=TrainConfig(epochs=30, batch_size=64, lr=0.1, weight_decay=1e-3),
    )
    methods = (
        MethodSpec("erm"),
        MethodSpec("nurd", CorruptionSpec("patch_randomize", 8, 7)),
        MethodSpec("jtt", CorruptionSpec("patch_randomize", 8, 7), lambda_up=6),
        MethodSpec("nurd", CorruptionSpec("roi_mask", 16, 7)),
        MethodSpec("nurd", CorruptionSpec("freq_filter", 30, 7)),
        MethodSpec("nurd", CorruptionSpec("intensity_filter", 0.4, 7)),
        MethodSpec("jtt", CorruptionSpec("identity"), lambda_up=6),
    )
    return config, methods


def desk_nli_experiment(seeds=DESK_SEEDS):
    """Small sentence-pair benchmark built around token-order semantics."""
    config = ExperimentConfig(
        task="nli",
        rho_train=0.9,
        n_train=1200,
        n_eval=1200,
        seeds=tuple(seeds),
        cfg_main=TrainConfig(epochs=40, batch_size=32, lr=0.2, weight_decay=1e-4),
        cfg_aux=TrainConfig(epochs=40, batch_size=32, lr=0.2, weight_decay=1e-4),
    )
    methods = (
        MethodSpec("erm"),
        MethodSpec("poe", CorruptionSpec("ngram_randomize", 1, 7)),
        MethodSpec("dfl", CorruptionSpec("ngram_randomize", 1, 7), gamma=2.0),
        MethodSpec("jtt", CorruptionSpec("ngram_randomize", 1, 7), lambda_up=6),
    )
    return config, methods


TASKS = {
    "image": Task("synthetic_image_task", FeatureSpec("flatten_grid"), desk_image_experiment),
    "nli": Task("synthetic_nli_task", FeatureSpec("bag_of_ngrams"), desk_nli_experiment),
}


# ---------------------------------------------------------------------------
# theory checks

# accuracies of the 16 sign predictors on the two extreme family members
# (rho = 0, rho = 1, min of the two), in predictor-index order
REFERENCE_PREDICTOR_TABLE = (
    (0.50, 0.50, 0.50),
    (0.55, 0.05, 0.05),
    (0.05, 0.55, 0.05),
    (0.10, 0.10, 0.10),
    (0.95, 0.45, 0.45),
    (1.00, 0.00, 0.00),
    (0.50, 0.50, 0.50),
    (0.55, 0.05, 0.05),
    (0.45, 0.95, 0.45),
    (0.50, 0.50, 0.50),
    (0.00, 1.00, 0.00),
    (0.05, 0.55, 0.05),
    (0.90, 0.90, 0.90),
    (0.95, 0.45, 0.45),
    (0.45, 0.95, 0.45),
    (0.50, 0.50, 0.50),
)
STABLE_PREDICTOR_INDEX = 12
TABLE_TOL = 1e-12
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


@dataclass
class TheoryReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        return [c.line() for c in self.checks]


def check_predictor_table(rows) -> CheckResult:
    """Compare the enumerated accuracies against the frozen reference and
    name every offending cell."""
    bad = []
    for row, want in zip(rows, REFERENCE_PREDICTOR_TABLE):
        for fname, got, exp in (
            ("rho0", row.acc_low, want[0]),
            ("rho1", row.acc_high, want[1]),
            ("min", row.min_acc, want[2]),
        ):
            if abs(got - exp) > TABLE_TOL:
                bad.append(f"row {row.index} {fname}: got {got!r} want {exp!r}")
    if bad:
        return CheckResult("predictor-table", False, "; ".join(bad))
    return CheckResult("predictor-table", True,
                       f"16 rows match within {TABLE_TOL:g}")


def check_stable_argmax(rows) -> CheckResult:
    best = max(r.min_acc for r in rows)
    winners = [r.index for r in rows if r.min_acc == best]
    ok = winners == [STABLE_PREDICTOR_INDEX]
    return CheckResult("stable-argmax", ok,
                       f"max-min accuracy {best:.2f} at rows {winners}")


def check_matched_joints() -> CheckResult:
    """The two family variants at relationship 0.9 induce identical
    label/covariate joints, bit for bit."""
    a = flip_noise_family(1).joint(0.9).marginal("y", "x").cells
    b = flip_noise_family(2).joint(0.9).marginal("y", "x").cells
    if set(a) != set(b):
        return CheckResult("matched-joints", False, "support mismatch")
    diffs = [(k, a[k], b[k]) for k in a if a[k] != b[k]]
    if diffs:
        k, va, vb = diffs[0]
        return CheckResult("matched-joints", False,
                           f"{len(diffs)} cells differ, e.g. {k}: {va!r} vs {vb!r}")
    return CheckResult("matched-joints", True,
                       f"{len(a)} cells identical (exact float equality)")


def check_zero_accuracy() -> CheckResult:
    """Every enumerated predictor that beats chance on both extremes of the
    first family variant scores exactly zero on the swapped variant's
    opposite extreme member."""
    joint = flip_noise_family(2).joint(0.0).marginal("y", "x")
    rows = enumerate_binary_predictors()
    strong = [r for r in rows if r.min_acc > 0.5]
    if [r.index for r in strong] != [STABLE_PREDICTOR_INDEX]:
        return CheckResult("zero-accuracy", False,
                           f"unexpected strong rows {[r.index for r in strong]}")
    accs = {r.index: predictor_accuracy(joint, dict(zip(BINARY_INPUTS, r.predictions)))
            for r in strong}
    ok = all(a == 0.0 for a in accs.values())
    got = ", ".join(f"row {i}: {a!r}" for i, a in accs.items())
    return CheckResult("zero-accuracy", ok, got)


def check_exact_corruptions() -> CheckResult:
    """The two worked corruptions are exactly semantic: zero posterior gap
    and zero randomization distance (up to float noise)."""
    details = []
    ok = True
    perm_family = negated_coordinate_family(1.0, 8)
    perm = FiniteCorruption.coordinate_permutations(3)
    rep = corruption_bound(perm_family.joint(0.8), perm)
    ok &= rep.epsilon <= EXACT_TOL and rep.l1 <= EXACT_TOL
    details.append(f"permutation eps={rep.epsilon:.3e} l1={rep.l1:.3e}")
    xf = xor_sign_family(1.0, 8)
    mask = FiniteCorruption.deterministic(lambda x: (0.0, x[1]))
    rep = corruption_bound(xf.joint(0.8), mask)
    ok &= rep.epsilon <= EXACT_TOL and rep.l1 <= EXACT_TOL
    details.append(f"mask eps={rep.epsilon:.3e} l1={rep.l1:.3e}")
    return CheckResult("exact-corruptions", bool(ok), "; ".join(details))


def check_factorization() -> CheckResult:
    """Every family satisfies the defining conditional independence
    (covariate independent of label given semantics and nuisance), and the
    nuisance-randomized version decouples label from nuisance."""
    worst_ci = 0.0
    worst_ind = 0.0
    fams = [flip_noise_family(1), flip_noise_family(2),
            negated_coordinate_family(1.2, 6), xor_sign_family(0.8, 6)]
    for fam in fams:
        for rho in (0.2, 0.7):
            p = fam.joint(rho).with_derived("xstar", fam.semantic_fn, ("x",))
            worst_ci = max(worst_ci, cond_indep_gap(p, "y", "x", ("xstar", "z")))
            pr = nuisance_randomize(fam.joint(rho))
            worst_ind = max(worst_ind, cond_indep_gap(pr, "y", "z", ()))
    ok = worst_ci <= TABLE_TOL and worst_ind <= TABLE_TOL
    return CheckResult("factorization", ok,
                       f"cond-indep gap {worst_ci:.3e}, randomized y-z gap {worst_ind:.3e}")


def _fuzz_params(stream: Stream) -> tuple:
    """The scalar parameters of one fuzz draw, taken from ``stream``:
    family kind, rho, the family's arguments, the corruption roll and (for
    a coordinate mask) the mask."""
    kind = ("flip", "negated", "xor")[stream.below(3)]
    rho = 0.05 + 0.9 * stream.uniform()
    if kind == "flip":
        args = (1 + stream.below(2),)
    else:
        args = (0.8 * stream.uniform(), 4 + 2 * stream.below(3))
    dim = 3 if kind == "negated" else 2
    roll = stream.below(3)
    mask = None
    if roll == 1 or roll == 0 and dim == 2:
        keep = [stream.below(2) == 1 for _ in range(dim)]
        if not any(keep):
            keep[stream.below(dim)] = True
        mask = tuple(keep)
    return kind, rho, args, roll, mask


def _fuzz_draw(params: tuple) -> tuple:
    """Build one fuzz draw's family and corruption (a coordinate mask,
    absolute values, or for the 3d family a coordinate permutation) and
    check its bound: ``(excess, failure)``, the distance's excess over the
    bound (None when no bound came out) and the failure's detail (None when
    the bound holds)."""
    kind, rho, args, roll, mask = params
    family = {"flip": flip_noise_family, "negated": negated_coordinate_family,
              "xor": xor_sign_family}[kind]
    fam = family(*args)
    # two-argument maps of the one noise value 0, as ``deterministic`` makes,
    # without its wrapper call per covariate
    if mask is not None:
        corruption = FiniteCorruption(
            lambda x, _d: tuple([v if k else 0.0 for v, k in zip(x, mask)]), {0: 1.0})
    elif roll == 0:
        corruption = FiniteCorruption.coordinate_permutations(3)
    else:
        corruption = FiniteCorruption(lambda x, _d: tuple(map(abs, x)), {0: 1.0})
    try:
        rep = corruption_bound(fam.joint(rho), corruption)
    except Exception as exc:
        return None, f"{fam.name} rho={rho:.3f}: {type(exc).__name__}"
    return rep.excess, None if rep.holds else f"{fam.name} rho={rho:.3f}: l1 {rep.l1:.3e} > bound"


def fuzz_bound_checks(count: int = 200, seed: int = 0) -> CheckResult:
    """Random (family, rho, corruption) draws; the randomization distance
    must obey the moment-times-epsilon bound every time.

    rho stays inside [0.05, 0.95] and the mean shifts are capped so no
    observed posterior degenerates below the reweighting floor.  This
    process draws only the scalar parameters, in draw order; forked workers
    (:func:`_forked_map`) build each family and corruption and check it, and
    the results are folded back in draw order, so the note does not depend
    on the number of workers.  A draw whose worker died is a violation
    named ``ChildProcessError``.
    """
    if count < 1:
        raise ConfigError(f"fuzz draw count must be >= 1, got {count}")
    stream = Stream(derive_seed(seed, 777))
    draws = [_fuzz_params(stream) for _ in range(count)]
    worst_margin = -math.inf
    details = []
    for excess, failure in _forked_map(_fuzz_draw, draws,
                                       (None, "ChildProcessError: a fuzz worker died")):
        if excess is not None:
            worst_margin = max(worst_margin, excess)
        if failure is not None:
            details.append(failure)
    failures = len(details)
    ok = failures == 0
    note = f"{count} draws, {failures} violations"
    if worst_margin > -math.inf:   # some draw produced a bound
        note += f", worst excess {worst_margin:.3e}"
    if details:
        note += "; " + "; ".join(details[:3])
    return CheckResult("fuzz-bound", ok, note)


def verify_theory(fuzz: int = 200, seed: int = 0) -> TheoryReport:
    rows = enumerate_binary_predictors()
    return TheoryReport([
        check_predictor_table(rows),
        check_stable_argmax(rows),
        check_matched_joints(),
        check_zero_accuracy(),
        check_exact_corruptions(),
        check_factorization(),
        fuzz_bound_checks(fuzz, seed),
    ])


def predictor_table_csv() -> str:
    """The enumerated sign-predictor accuracies as plot-ready CSV."""
    lines = ["predictor,outputs,acc_rho0,acc_rho1,min_acc"]
    for r in enumerate_binary_predictors():
        outs = " ".join(f"{v:+d}" for v in r.predictions)
        lines.append(f"{r.index},{outs},{r.acc_low:.12f},{r.acc_high:.12f},"
                     f"{r.min_acc:.12f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# serialization

_MODEL_MAGIC = b"SEMCORRUPT-MODEL-1\n"


def save_model(model: LinearModel, path: str) -> None:
    """Magic line, JSON header line (sizes, and the model's feature spec
    when it has one), then the flat parameters as little-endian doubles."""
    header = {"n_features": model.n_features, "n_classes": model.n_classes,
              "hidden": model.hidden}
    if model.feature_spec is not None:
        header["features"] = asdict(model.feature_spec) | {"pair_mode": FeatureSpec.pair_mode}
    header = json.dumps(header)
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(header.encode() + b"\n")
        fh.write(model.get_flat().astype("<f8").tobytes())


def _json_object(text, where: str) -> dict:
    """Parse ``text`` as a JSON object; ConfigError naming ``where`` if not."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{where} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} is not a JSON object")
    return obj


def _is_count(value, low: int) -> bool:
    """Whether ``value`` is an int, not a bool, of at least ``low``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _field(obj: dict, key: str, kind: type, where: str, low: int = 0):
    """``obj[key]``, which must be a ``kind`` (an int must not be a bool and
    must be at least ``low``); ConfigError naming ``where`` if not."""
    value = obj.get(key)
    if not (_is_count(value, low) if kind is int else isinstance(value, kind)):
        raise ConfigError(f"{where}: {key!r} is missing or not a valid {kind.__name__}")
    return value


def load_model(path: str) -> LinearModel:
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _MODEL_MAGIC:
            raise ConfigError(f"not a model file: {path}")
        header = _json_object(fh.readline(), f"model file {path} header")
        payload = fh.read()
    n_features, n_classes, hidden = [
        _field(header, key, int, f"model file {path}", low)
        for key, low in (("n_features", 1), ("n_classes", 2), ("hidden", 0))]
    # checked before building the model, whose size the header alone sets
    size = sum(a * b + b for a, b in pairwise(layer_widths(n_features, n_classes, hidden)))
    if len(payload) != 8 * size:
        raise ConfigError(f"model file {path} holds {len(payload) / 8:g} parameters, "
                          f"its header needs {size}")
    model = LinearModel(n_features, n_classes, hidden)
    flat = np.frombuffer(payload, dtype="<f8")
    if not np.all(np.isfinite(flat)):
        raise ConfigError(f"model file {path} holds non-finite parameters")
    model.set_flat(flat)
    if "features" in header:
        model.feature_spec = _feature_spec(header["features"], f"model file {path}")
    return model


def _feature_spec(obj, where: str) -> FeatureSpec:
    """The FeatureSpec a model header records; ConfigError naming ``where``
    if it is not one."""
    fields = {"kind": str, "ngram": int, "buckets": int, "pair_mode": str}
    if not isinstance(obj, dict) or set(obj) != set(fields):
        raise ConfigError(f"{where}: 'features' must hold exactly {sorted(fields)}")
    values = {key: _field(obj, key, kind, where) for key, kind in fields.items()}
    if values.pop("pair_mode") != FeatureSpec.pair_mode:
        raise ConfigError(f"{where}: unknown pair_mode {obj['pair_mode']!r}")
    try:
        return FeatureSpec(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def save_dataset(dataset: Dataset, dir_path: str) -> None:
    """meta.json + labels.csv + data.bin (little-endian payload whose layout
    depends on the covariate kind).  A grid payload's precision is tested
    and its values written ``GRID_CHUNK`` rows at a time, so no copy of the
    dataset's values is made."""
    if len(dataset) == 0:
        raise ConfigError("refusing to save an empty dataset")
    first = dataset.covariates[0]
    meta = {
        "n": len(dataset),
        "n_classes": dataset.n_classes,
        "has_groups": dataset.groups is not None,
        "provenance": dataset.provenance,
    }
    if isinstance(first, Grid):
        arr = grid_values(dataset.covariates)
        unit = bool(arr.min() >= 0.0 and arr.max() <= 1.0)
        chunks = [arr[at : at + GRID_CHUNK] for at in range(0, len(arr), GRID_CHUNK)]
        # single-precision payload when it loses nothing (generated grids are
        # snapped to single precision); otherwise keep full doubles so that the
        # save -> load round trip is always bit-exact.
        dtype = "<f4" if all((c.astype("<f4") == c).all() for c in chunks) else "<f8"
        payload = (c.astype(dtype, copy=False) for c in chunks)
        meta |= {"kind": "grid", "shape": list(arr.shape[1:]),
                 "unit_range": unit, "dtype": dtype}
    elif isinstance(first, SentencePair):
        words = []
        for pair in dataset.covariates:
            words.append(pair.premise.mask_id)
            words.append(len(pair.premise.tokens))
            words.extend(pair.premise.tokens)
            words.append(len(pair.hypothesis.tokens))
            words.extend(pair.hypothesis.tokens)
        meta |= {"kind": "pair"}
        try:
            payload = [np.array(words, dtype="<i4")]
        except OverflowError:
            raise ConfigError("a pair payload holds 32-bit words: token and mask ids "
                              f"must be at most {2**31 - 1} to be saved") from None
    else:
        arr = np.array([np.asarray(c, dtype=np.float64).ravel()
                        for c in dataset.covariates])
        if not np.all(np.isfinite(arr)):
            raise ConfigError("refusing to save a vector dataset with non-finite values")
        meta |= {"kind": "vector", "dim": int(arr.shape[1])}
        payload = [arr.astype("<f8", copy=False)]
    os.makedirs(dir_path, exist_ok=True)
    with open(os.path.join(dir_path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(dir_path, "data.bin"), "wb") as fh:
        fh.writelines(payload)
    with open(os.path.join(dir_path, "labels.csv"), "w") as fh:
        if dataset.groups is None:
            fh.write("index,label\n")
            for i, y in enumerate(dataset.labels):
                fh.write(f"{i},{y}\n")
        else:
            fh.write("index,label,nuisance,group\n")
            for i, (y, z, g) in enumerate(zip(dataset.labels, dataset.nuisances,
                                              dataset.groups)):
                fh.write(f"{i},{y},{z},{g}\n")


def load_dataset(dir_path: str) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.  A damaged file
    (missing or ill-typed meta keys, a payload or label table whose size
    disagrees with the meta, non-finite vector values, an index column
    other than 0..n-1) raises ConfigError.  A grid payload's size is checked
    against the meta before its block is allocated, and it is read into the
    block ``GRID_CHUNK`` rows at a time."""
    meta_path = os.path.join(dir_path, "meta.json")
    with open(meta_path, "rb") as fh:
        meta = _json_object(fh.read(), meta_path)
    n = _field(meta, "n", int, meta_path, 1)
    has_groups = _field(meta, "has_groups", bool, meta_path)
    kind = _field(meta, "kind", str, meta_path)
    data_path = os.path.join(dir_path, "data.bin")
    with open(data_path, "rb") as fh:
        if kind == "grid":
            shape = tuple(_field(meta, "shape", list, meta_path))
            dtype = _field(meta, "dtype", str, meta_path)
            unit_range = _field(meta, "unit_range", bool, meta_path)
            if (len(shape) != 3 or dtype not in ("<f4", "<f8")
                    or not all(_is_count(d, 1) for d in shape)):
                raise ConfigError(f"{meta_path}: bad grid shape {shape} or dtype {dtype!r}")
            covs = grid_rows(_grid_block(fh, dtype, (n,) + shape, data_path),
                             unit_range=unit_range)
        elif kind == "pair":
            payload = fh.read()
            words = _payload(payload, "<i4", (len(payload) // 4,), data_path).tolist()
            # each pair: its mask id, then each sentence's length and tokens
            masks, seqs, at = [], [], 0
            for _ in range(n):
                if at >= len(words):
                    raise ConfigError(f"{data_path}: pair payload ends early")
                masks.append(words[at])
                at += 1
                for _sentence in range(2):
                    if at >= len(words) or not 0 <= words[at] < len(words) - at:
                        raise ConfigError(f"{data_path}: pair payload ends early")
                    count = words[at]
                    seqs.append(tuple(words[at + 1 : at + 1 + count]))
                    at += 1 + count
            if at != len(words):
                raise ConfigError("trailing data in pair payload")
            covs = pair_rows(seqs[0::2], seqs[1::2], masks)
        elif kind == "vector":
            payload = fh.read()
            dim = _field(meta, "dim", int, meta_path)
            arr = _payload(payload, "<f8", (n, dim), data_path)
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{data_path} holds non-finite vector values")
            covs = [tuple(float(v) for v in row) for row in arr]
        else:
            raise ConfigError(f"{meta_path}: unknown kind {kind!r}")
    labels_path = os.path.join(dir_path, "labels.csv")
    header = "index,label,nuisance,group" if has_groups else "index,label"
    with open(labels_path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ConfigError(f"{labels_path}: header is not {header!r}")
    if len(lines) - 1 != n:
        raise ConfigError("labels.csv row count does not match meta")
    try:
        table = np.array([[int(v) for v in line.split(",")] for line in lines[1:]],
                         dtype=np.int64)
        ok = table.shape == (n, header.count(",") + 1) and (table[:, 0] == np.arange(n)).all()
    except (ValueError, OverflowError):   # a ragged table or a non-integer cell
        ok = False
    if not ok:
        raise ConfigError(f"{labels_path}: rows must be {header} integers, "
                          f"with index 0..{n - 1}")
    columns = table.T.copy()
    return Dataset(
        covariates=covs,
        labels=columns[1],
        n_classes=_field(meta, "n_classes", int, meta_path, 2),
        nuisances=columns[2] if has_groups else None,
        groups=columns[3] if has_groups else None,
        provenance=_field(meta, "provenance", dict, meta_path),
    )


def _fits(size: int, dtype: str, shape: tuple, path: str) -> None:
    """ConfigError unless ``size`` bytes hold exactly ``dtype`` values of ``shape``."""
    if size != np.dtype(dtype).itemsize * math.prod(shape):
        raise ConfigError(f"{path} holds {size} bytes, which do not fit "
                          f"{dtype} values of shape {shape}")


def _payload(payload: bytes, dtype: str, shape: tuple, path: str) -> np.ndarray:
    """``payload`` as an array of ``shape``; ConfigError when its length
    does not fit."""
    _fits(len(payload), dtype, shape, path)
    return np.frombuffer(payload, dtype=dtype).reshape(shape)


def _grid_block(fh, dtype: str, shape: tuple, path: str) -> np.ndarray:
    """The float64 block of ``shape`` whose ``dtype`` values file ``fh``
    holds, read ``GRID_CHUNK`` rows at a time.  The file's size is checked
    before the block is allocated, so a header that claims more rows than
    the file holds is a ConfigError, not a MemoryError."""
    _fits(os.fstat(fh.fileno()).st_size, dtype, shape, path)
    block = np.empty(shape)
    for at in range(0, len(block), GRID_CHUNK):
        rows = block[at : at + GRID_CHUNK]
        want = rows.size * np.dtype(dtype).itemsize
        chunk = fh.read(want)
        if len(chunk) < want:   # the file was cut after its size was read
            _fits(fh.tell(), dtype, shape, path)
        rows[...] = np.frombuffer(chunk, dtype).reshape(rows.shape)
    return block
