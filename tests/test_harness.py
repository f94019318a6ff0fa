"""Tests for the benchmark harness: metrics, the experiment sweep,
corruption selection, theory-check reports, and serialization."""

import dataclasses
import errno
import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from semcorrupt.corruptions import CorruptionSpec, Grid, SentencePair, TokenSeq, grid_rows
from semcorrupt.errors import ConfigError, DispatchError
from semcorrupt.exact import enumerate_binary_predictors
from semcorrupt.families import (
    Dataset,
    flip_noise_family,
    sample_family,
    synthetic_image_task,
    synthetic_nli_task,
    xor_sign_family,
)
from semcorrupt import harness, scams
from semcorrupt.harness import (
    DESK_SEEDS,
    REFERENCE_PREDICTOR_TABLE,
    SPLITS,
    STABLE_PREDICTOR_INDEX,
    CheckResult,
    ExperimentConfig,
    ExperimentResult,
    MethodOutcome,
    MethodSpec,
    MetricsRecord,
    check_exact_corruptions,
    check_factorization,
    check_matched_joints,
    check_predictor_table,
    check_stable_argmax,
    check_zero_accuracy,
    default_feature_spec,
    desk_image_experiment,
    desk_nli_experiment,
    evaluate,
    fuzz_bound_checks,
    generate_task,
    load_dataset,
    load_model,
    predictor_table_csv,
    run_experiment,
    run_method,
    save_dataset,
    save_model,
    select_corruption_for,
    verify_theory,
)
from semcorrupt.learner import FeatureSpec, LinearModel, TrainConfig, featurize, minibatch_plan
from semcorrupt.rng import Stream, derive_seed
from semcorrupt.scams import FeatureStore, corrupted_features

RAW = FeatureSpec("raw_vector")
PR8 = CorruptionSpec("patch_randomize", 8, 7)
NR1 = CorruptionSpec("ngram_randomize", 1, 7)


# ---------------------------------------------------------------------------
# metrics


def grouped_micro_dataset() -> Dataset:
    """Forty 2-d examples in four groups of ten.

    Against a constant class-0 predictor the groups score 1.0, 0.9, 0.8,
    and 0.2 (by construction of the labels), for 0.725 overall.
    """
    ones_per_group = {0: 0, 1: 1, 2: 2, 3: 8}
    covariates, labels, groups = [], [], []
    for i in range(40):
        g = i % 4  # interleave groups so per-group selection is non-trivial
        rank = i // 4
        covariates.append((float(i), float(g)))
        labels.append(1 if rank < ones_per_group[g] else 0)
        groups.append(g)
    return Dataset(
        covariates=covariates,
        labels=np.array(labels),
        n_classes=2,
        nuisances=np.array(groups) % 2,
        groups=np.array(groups),
    )


class TestEvaluate:
    def test_group_metrics(self):
        ds = grouped_micro_dataset()
        model = LinearModel(2, 2)  # zero weights: always predicts class 0
        rec = evaluate(model, ds, RAW)
        assert rec.accuracy == pytest.approx(29 / 40, abs=1e-12)
        assert rec.n == 40
        assert rec.worst_group == pytest.approx(0.2, abs=1e-12)
        assert [g for g, _, _ in rec.group_accuracies] == [0, 1, 2, 3]
        assert [c for _, _, c in rec.group_accuracies] == [10, 10, 10, 10]
        got = [a for _, a, _ in rec.group_accuracies]
        assert got == pytest.approx([1.0, 0.9, 0.8, 0.2], abs=1e-12)

    def test_no_groups_means_no_worst_group(self):
        ds = grouped_micro_dataset()
        plain = Dataset(ds.covariates, ds.labels, ds.n_classes)
        rec = evaluate(LinearModel(2, 2), plain, RAW)
        assert rec.accuracy == pytest.approx(29 / 40, abs=1e-12)
        assert rec.group_accuracies is None
        assert rec.worst_group is None

    def test_empty_dataset_rejected(self):
        empty = Dataset([], np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(ValueError):
            evaluate(LinearModel(2, 2), empty, RAW)


# ---------------------------------------------------------------------------
# method specs and task helpers


class TestMethodSpec:
    @pytest.mark.parametrize(
        "spec, label",
        [
            (MethodSpec("erm"), "erm"),
            (MethodSpec("nurd", PR8), "nurd+pr8"),
            (MethodSpec("nurd", CorruptionSpec("roi_mask", 16, 7)), "nurd+rm16"),
            (MethodSpec("nurd", CorruptionSpec("freq_filter", 30, 7)), "nurd+ff30"),
            (MethodSpec("nurd", CorruptionSpec("intensity_filter", 0.4, 7)),
             "nurd+if0.4"),
            (MethodSpec("jtt", CorruptionSpec("identity"), lambda_up=6), "jtt6+id"),
            (MethodSpec("jtt", PR8, lambda_up=3), "jtt3+pr8"),
            (MethodSpec("poe", NR1), "poe+nr1"),
            (MethodSpec("dfl", NR1, gamma=2.0), "dfl2+nr1"),
            (MethodSpec("dfl", NR1, gamma=0.5), "dfl0.5+nr1"),
        ],
    )
    def test_labels(self, spec, label):
        assert spec.label == label

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            MethodSpec("boosting")

    def test_corruption_required_except_for_erm(self):
        with pytest.raises(ConfigError):
            MethodSpec("nurd")
        MethodSpec("erm")  # fine without a corruption

    def test_method_without_routine_takes_no_corruption(self):
        # erm would train on the clean features and ignore the corruption
        with pytest.raises(ConfigError, match="erm takes no corruption"):
            MethodSpec("erm", PR8)

    @pytest.mark.parametrize("name, corruption, param", [
        ("nurd", NR1, {"gamma": 5.0}),
        ("poe", NR1, {"lambda_up": 3}),
        ("jtt", NR1, {"gamma": 1.0}),
        ("erm", None, {"lambda_up": 2}),
        ("nurd", NR1, {"gamma": 2.0}),
        ("dfl", NR1, {"lambda_up": 6}),
    ], ids=["nurd-gamma", "poe-lambda_up", "jtt-gamma", "erm-lambda_up",
            "nurd-gamma-at-dfl-default", "dfl-lambda_up-at-jtt-default"])
    def test_method_takes_no_other_hyperparameter(self, name, corruption, param):
        # the method would train as if the value were unset
        field, = param
        with pytest.raises(ConfigError, match=f"{name} takes no {field}"):
            MethodSpec(name, corruption, **param)


class TestRunMethod:
    @pytest.mark.parametrize("method", [
        MethodSpec("erm"), MethodSpec("nurd", NR1), MethodSpec("jtt", NR1),
        MethodSpec("poe", NR1), MethodSpec("dfl", NR1),
    ], ids=lambda m: m.name)
    def test_returns_main_model_losses(self, method):
        ds = synthetic_nli_task(0.9, 48, 5)
        cfg_main = TrainConfig(epochs=3, batch_size=16, lr=0.1)
        cfg_aux = TrainConfig(epochs=2, batch_size=16, lr=0.1, seed=1)
        model, info = run_method(method, FeatureStore(ds, default_feature_spec("nli")),
                                 cfg_main, cfg_aux)
        assert isinstance(model, LinearModel)
        assert len(info["losses"]) == cfg_main.epochs
        assert all(np.isfinite(info["losses"]))

    @pytest.mark.parametrize("name", ["nurd", "jtt", "poe", "dfl"])
    def test_routine_rebound_by_name_is_the_one_run(self, name, monkeypatch):
        """A ``run_*`` routine rebound in ``scams`` and in every module that
        imported it, as a tracer does, is what ``run_method`` calls, with
        the same arguments and result as the original."""
        ds = synthetic_nli_task(0.9, 48, 5)
        cfg_main = TrainConfig(epochs=2, batch_size=16, lr=0.1)
        cfg_aux = TrainConfig(epochs=2, batch_size=16, lr=0.1, seed=1)
        method = MethodSpec(name, NR1)
        store = FeatureStore(ds, default_feature_spec("nli"))
        want, _ = run_method(method, store, cfg_main, cfg_aux)
        real = getattr(scams, f"run_{name}")
        calls = []

        def rebound(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        for module in (scams, harness):
            monkeypatch.setattr(module, f"run_{name}", rebound)
        got, _ = run_method(method, store, cfg_main, cfg_aux)
        assert calls == [name]
        assert got.get_flat().tobytes() == want.get_flat().tobytes()


class TestTaskHelpers:
    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError):
            generate_task("tabular", 0.5, 10, 0)
        with pytest.raises(ConfigError):
            default_feature_spec("tabular")

    def test_default_feature_specs(self):
        assert default_feature_spec("image") == FeatureSpec("flatten_grid")
        assert default_feature_spec("nli") == FeatureSpec("bag_of_ngrams", ngram=2, buckets=64)

    def test_dispatches_to_task_generators(self):
        img = generate_task("image", 0.9, 6, 11, flip=True)
        ref = synthetic_image_task(0.9, 6, 11, True)
        assert np.array_equal(img.covariates[0].values, ref.covariates[0].values)
        assert np.array_equal(img.labels, ref.labels)
        nli = generate_task("nli", 0.9, 6, 11)
        assert nli.covariates[0] == synthetic_nli_task(0.9, 6, 11).covariates[0]

    def test_generator_rebound_by_name_is_the_one_called(self, monkeypatch):
        """A generator rebound at module level, as a tracer does, is what
        ``generate_task`` and every split of ``run_experiment`` call."""
        calls = []

        def spy(*args):
            calls.append(args)
            return synthetic_nli_task(*args)

        monkeypatch.setattr(harness, "synthetic_nli_task", spy)
        generate_task("nli", 0.9, 6, 11)
        assert calls == [(0.9, 6, 11, False)]
        config, _ = desk_nli_experiment((0,))
        config = replace(config, n_train=16, n_eval=8,
                         cfg_main=replace(config.cfg_main, epochs=1))
        run_experiment(config, [MethodSpec("erm")])
        assert len(calls) == 1 + 1 + len(SPLITS)   # training set, then each split

    def test_config_features_come_from_the_table(self):
        config, _ = desk_image_experiment((0,))
        assert config.feature == harness.TASKS["image"].feature
        assert replace(config, task="nli").feature == harness.TASKS["nli"].feature
        assert "feature" not in {f.name for f in dataclasses.fields(ExperimentConfig)}


# ---------------------------------------------------------------------------
# the experiment sweep


def assert_no_child_process():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def small_image_config() -> ExperimentConfig:
    return ExperimentConfig(
        task="image", rho_train=0.9, n_train=60, n_eval=40, seeds=(0, 1),
        cfg_main=TrainConfig(epochs=1, batch_size=32, lr=0.05),
        cfg_aux=TrainConfig(epochs=1, batch_size=32, lr=0.05),
    )


@pytest.fixture(scope="module")
def tiny_sweep():
    """The same two-method sweep run twice, for determinism and shape checks."""
    config = ExperimentConfig(
        task="image", rho_train=0.9, n_train=120, n_eval=80, seeds=(0, 1),
        cfg_main=TrainConfig(epochs=2, batch_size=64, lr=0.05, weight_decay=1e-3),
        cfg_aux=TrainConfig(epochs=2, batch_size=64, lr=0.05, weight_decay=1e-3),
    )
    methods = (MethodSpec("erm"), MethodSpec("nurd", PR8))
    return config, methods, run_experiment(config, methods), run_experiment(config, methods)


class TestRunExperiment:
    def test_plain_training_accurate_without_correlation(self):
        """With label and nuisance independent, even plain training should be
        nearly perfect in distribution on the image task."""
        config = ExperimentConfig(
            task="image", rho_train=0.5, n_train=600, n_eval=400, seeds=(0,),
            cfg_main=TrainConfig(epochs=20, batch_size=64, lr=0.1, weight_decay=1e-3),
            cfg_aux=TrainConfig(epochs=20, batch_size=64, lr=0.1, weight_decay=1e-3),
        )
        result = run_experiment(config, [MethodSpec("erm")])
        assert result.summary()["erm"]["test_iid"]["accuracy"][0] > 0.9

    def test_repeat_runs_identical(self, tiny_sweep):
        _, _, first, second = tiny_sweep
        assert first.to_csv() == second.to_csv()
        assert first.per_seed_csv() == second.per_seed_csv()
        assert_no_child_process()

    def test_summary_shape(self, tiny_sweep):
        config, methods, result, _ = tiny_sweep
        summ = result.summary()
        assert set(summ) == {"erm", "nurd+pr8"}
        for label in summ:
            assert set(summ[label]) == set(SPLITS)
            for split in SPLITS:
                mean, sd, se, k = summ[label][split]["accuracy"]
                assert k == len(config.seeds)
                assert 0.0 <= mean <= 1.0 and sd >= 0.0
                assert se == pytest.approx(sd / np.sqrt(k))
                # synthetic tasks carry group annotations on every split
                assert "worst_group" in summ[label][split]

    def test_csv_shapes(self, tiny_sweep):
        _, methods, result, _ = tiny_sweep
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == "method,split,metric,mean,stddev,stderr,seeds"
        assert len(lines) == 1 + len(methods) * len(SPLITS) * 2
        assert all(len(line.split(",")) == 7 for line in lines[1:])
        per_seed = result.per_seed_csv().strip().split("\n")
        assert per_seed[0] == "method,seed,split,accuracy,worst_group"
        assert len(per_seed) == 1 + len(methods) * 2 * len(SPLITS)
        assert all(line.split(",")[4] != "" for line in per_seed[1:])

    def test_failing_method_recorded_without_aborting_sweep(self):
        """A token corruption on the image task fails at dispatch; the sweep
        records the failure per seed and still finishes the other method."""
        methods = (MethodSpec("erm"), MethodSpec("poe", NR1))
        result = run_experiment(small_image_config(), methods)
        broken = result.outcomes["poe+nr1"]
        assert broken.per_seed == []
        assert [seed for seed, _ in broken.errors] == [0, 1]
        assert all(msg.startswith("DispatchError") for _, msg in broken.errors)
        healthy = result.outcomes["erm"]
        assert len(healthy.per_seed) == 2 and healthy.errors == []
        assert_no_child_process()

    def test_dying_worker_fails_its_cell_and_the_sweep_finishes(self, monkeypatch):
        """A worker that exits mid-cell fails its cell on every seed with a
        ChildProcessError.  Which other cells share its worker depends on
        the number of usable CPUs."""
        monkeypatch.setattr(harness, "run_nurd", lambda *args: os._exit(1))
        methods = (MethodSpec("erm"), MethodSpec("nurd", PR8), MethodSpec("jtt", PR8))
        result = run_experiment(small_image_config(), methods)
        dying = result.outcomes["nurd+pr8"]
        assert dying.per_seed == []
        assert [seed for seed, _ in dying.errors] == [0, 1]
        assert all(msg.startswith("ChildProcessError: ") for _, msg in dying.errors)
        assert_no_child_process()

    def test_failed_fork_raises_and_leaks_no_pipe(self, monkeypatch):
        """A fork that fails (the second of two, with EAGAIN) raises its
        OSError; the first worker is reaped and no pipe end stays open."""
        real_fork, forks = os.fork, []

        def fork():
            forks.append(None)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", fork)
        before = os.listdir("/proc/self/fd")
        with pytest.raises(OSError) as raised:
            harness._forked_map(str, [1, 2], "died")
        assert raised.value.errno == errno.EAGAIN
        assert os.listdir("/proc/self/fd") == before
        assert_no_child_process()

    def test_duplicate_labels_rejected(self):
        config = ExperimentConfig(
            task="image", rho_train=0.5, n_train=10, n_eval=10, seeds=(0,),
            cfg_main=TrainConfig(epochs=1, batch_size=8, lr=0.1),
            cfg_aux=TrainConfig(epochs=1, batch_size=8, lr=0.1),
        )
        with pytest.raises(ConfigError):
            run_experiment(config, [MethodSpec("erm"), MethodSpec("erm")])


# ---------------------------------------------------------------------------
# shared work: a sweep equals a loop that shares nothing


def unshared_sweep(config, methods) -> ExperimentResult:
    """``run_experiment`` as a plain loop: every method regenerates every
    split, trains with a feature store of its own and evaluates each split
    itself."""
    outcomes = {m.label: MethodOutcome() for m in methods}
    for seed in config.seeds:
        for m in methods:
            train_ds = generate_task(config.task, config.rho_train, config.n_train,
                                     derive_seed(seed, 1))
            evals = {
                "test_iid": generate_task(config.task, config.rho_train, config.n_eval,
                                          derive_seed(seed, 2)),
                "test_flipped": generate_task(config.task, config.rho_train, config.n_eval,
                                              derive_seed(seed, 3), flip=True),
                "test_balanced": generate_task(config.task, 0.5, config.n_eval,
                                               derive_seed(seed, 4)),
            }
            cfg_main = replace(config.cfg_main, seed=derive_seed(seed, 10))
            cfg_aux = replace(config.cfg_aux, seed=derive_seed(seed, 11))
            try:
                model, _ = harness.run_method(m, FeatureStore(train_ds, config.feature),
                                              cfg_main, cfg_aux, config.hidden)
                rec = {split: evaluate(model, ds, config.feature)
                       for split, ds in evals.items()}
                outcomes[m.label].per_seed.append((seed, rec))
            except Exception as exc:
                outcomes[m.label].errors.append((seed, f"{type(exc).__name__}: {exc}"))
    return ExperimentResult(config, tuple(methods), outcomes)


SHARED_SWEEPS = {
    # every method; stochastic (pr4, nr1) and deterministic (rm16, ff30, pm)
    # kinds; one method whose corruption does not fit the task fails
    "image": (0, (
        MethodSpec("erm"),
        MethodSpec("nurd", CorruptionSpec("patch_randomize", 4, 7)),
        MethodSpec("nurd", CorruptionSpec("roi_mask", 16)),
        MethodSpec("jtt", CorruptionSpec("patch_randomize", 4, 7), lambda_up=3),
        MethodSpec("jtt", CorruptionSpec("identity"), lambda_up=3),
        MethodSpec("poe", CorruptionSpec("patch_randomize", 4, 7)),
        MethodSpec("dfl", CorruptionSpec("freq_filter", 30)),
        MethodSpec("poe", NR1),
    )),
    "nli": (3, (
        MethodSpec("erm"),
        MethodSpec("nurd", NR1),
        MethodSpec("jtt", NR1, lambda_up=3),
        MethodSpec("poe", NR1),
        MethodSpec("dfl", NR1),
        MethodSpec("dfl", CorruptionSpec("premise_mask")),
        MethodSpec("nurd", PR8),
    )),
}


def shared_config(task: str, hidden: int) -> ExperimentConfig:
    return ExperimentConfig(
        task=task, rho_train=0.9, n_train=72, n_eval=40, seeds=(0, 1),
        cfg_main=TrainConfig(epochs=2, batch_size=16, lr=0.05, weight_decay=1e-3),
        cfg_aux=TrainConfig(epochs=3, batch_size=16, lr=0.1, weight_decay=1e-3),
        hidden=hidden,
    )


@pytest.fixture
def fitted(monkeypatch):
    """The parameter bytes of every model ``harness.score_features``
    scores, the first time it scores it, in call order (accuracies on small
    splits are too coarse to tell two fits apart).  Recorded in this
    process, where a sweep scores the models its workers trained."""
    models, fits = [], []
    real = harness.score_features

    def record(model, *args):
        if not any(model is seen for seen in models):
            models.append(model)
            fits.append(model.get_flat().tobytes())
        return real(model, *args)

    monkeypatch.setattr(harness, "score_features", record)
    return fits


class TestSharedWork:
    @pytest.mark.parametrize("task", sorted(SHARED_SWEEPS))
    def test_sweep_equals_unshared_loop(self, task, fitted):
        hidden, methods = SHARED_SWEEPS[task]
        config = shared_config(task, hidden)
        got = run_experiment(config, methods)
        shared_fits = fitted[:]
        fitted.clear()
        want = unshared_sweep(config, methods)
        assert shared_fits == fitted
        assert len(fitted) == 2 * (len(methods) - 1)
        assert got.to_csv() == want.to_csv()
        assert got.per_seed_csv() == want.per_seed_csv()
        assert got.outcomes == want.outcomes
        failed = methods[-1].label
        assert [seed for seed, _ in got.outcomes[failed].errors] == [0, 1]
        assert all(not o.errors for label, o in got.outcomes.items() if label != failed)

    @pytest.mark.parametrize("name, rho, size, metric", [
        pytest.param("nurd", 0.5, 40, "accuracy", id="nurd"),     # balanced, n_eval
        pytest.param("jtt", 0.9, 40, "worst_group", id="jtt"),    # in distribution
        pytest.param("poe", 0.5, 64, "accuracy", id="poe"),       # max(64, n_eval // 4)
        pytest.param("dfl", 0.5, 64, "accuracy", id="dfl"),
    ])
    def test_selection_scores_equal_unshared_runs(self, fitted, name, rho, size, metric):
        config = shared_config("nli", 0)
        method = MethodSpec(name, NR1)
        candidates = [NR1, CorruptionSpec("ngram_randomize", 2, 7)]
        _, _, scored = select_corruption_for(config, method, candidates, seed=4)
        shared_fits = fitted[:]
        fitted.clear()
        train_ds = generate_task("nli", config.rho_train, config.n_train,
                                 derive_seed(4, harness._SELECT_TRAIN_TAG))
        val = generate_task("nli", rho, size, derive_seed(4, harness._SELECT_VAL_TAG))
        want = []
        for spec in [CorruptionSpec("identity"), *candidates]:
            model, _ = harness.run_method(
                replace(method, corruption=spec), FeatureStore(train_ds, config.feature),
                replace(config.cfg_main, seed=derive_seed(4, 10)),
                replace(config.cfg_aux, seed=derive_seed(4, 11)))
            value = getattr(evaluate(model, val, config.feature), metric)
            assert value is not None
            want.append((spec, value))
        assert scored == want
        assert shared_fits == fitted

    @pytest.mark.parametrize("task, spec", [
        ("image", CorruptionSpec("patch_randomize", 8, 7)),
        ("image", CorruptionSpec("roi_mask", 16)),
        ("image", CorruptionSpec("identity")),
        ("nli", NR1),
        ("nli", CorruptionSpec("ngram_randomize", 2, 5)),
        ("nli", CorruptionSpec("premise_mask")),
    ])
    def test_store_hands_out_read_only_pure_work(self, task, spec):
        """Every request, first or repeated, equals the direct computation:
        featurize, corrupted_features (each epoch's redraw seed its own
        draw) and minibatch_plan (each argument its own plan)."""
        ds = generate_task(task, 0.9, 40, 2)
        fs = default_feature_spec(task)
        store = FeatureStore(ds, fs)
        first = store.corrupted(spec)
        redraw = store.epoch_features(spec, first)
        for _ in range(2):
            handed = [store.clean(), store.corrupted(spec)]
            assert np.array_equal(handed[0], featurize(fs, ds.covariates))
            assert np.array_equal(handed[1], corrupted_features(ds, spec, fs))
            for epoch in range(3 if redraw else 0):
                epoch_spec = replace(spec, seed=derive_seed(spec.seed, 103, epoch))
                want = spec if epoch == 0 else epoch_spec
                handed.append(redraw(epoch))
                assert np.array_equal(handed[-1], corrupted_features(ds, want, fs))
            for args in ((40, 16, 9, 0), (40, 16, 9, 1), (40, 8, 9, 1), (52, 16, 3, 1)):
                plan = store.plan(*args)
                assert [b.tolist() for b in plan] == [b.tolist() for b in minibatch_plan(*args)]
                handed.extend(plan)
            for arr in handed:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1


# ---------------------------------------------------------------------------
# corruption selection


@pytest.fixture(scope="module")
def select_config():
    """Shortcut-prone image setup: small main budget (lands on the texture),
    full auxiliary budget."""
    return ExperimentConfig(
        task="image", rho_train=0.9, n_train=500, n_eval=320, seeds=(0,),
        cfg_main=TrainConfig(epochs=10, batch_size=64, lr=0.02, weight_decay=1e-3),
        cfg_aux=TrainConfig(epochs=30, batch_size=64, lr=0.1, weight_decay=1e-3),
    )


class TestSelectCorruptionFor:
    def test_plain_training_rejected(self, select_config):
        with pytest.raises(ConfigError):
            select_corruption_for(select_config, MethodSpec("erm"), [PR8])

    def test_reweighting_selects_by_balanced_accuracy(self, select_config):
        best, score, scored = select_corruption_for(
            select_config, MethodSpec("nurd", PR8), [PR8], seed=0
        )
        assert best == PR8
        assert score > 0.9
        # identity competes first and loses: under the shortcut it stays
        # near chance on the balanced validation set
        assert scored[0][0].kind == "identity"
        assert scored[0][1] < 0.7
        assert len(scored) == 2

    def test_upsampling_selects_by_worst_group(self, select_config):
        best, score, scored = select_corruption_for(
            select_config, MethodSpec("jtt", PR8, lambda_up=6), [PR8], seed=0
        )
        assert best == PR8
        assert score > 0.9
        # identity-flagged errors are empty under a strong identification
        # model, so stage two is plain training: minority groups score zero
        assert scored[0][0].kind == "identity"
        assert scored[0][1] < 0.05

    def test_joint_training_route(self, select_config):
        best, score, scored = select_corruption_for(
            select_config, MethodSpec("dfl", PR8, gamma=2.0), [PR8], seed=0
        )
        assert isinstance(best, CorruptionSpec)
        assert len(scored) == 2 and scored[0][0].kind == "identity"
        assert all(0.0 <= v <= 1.0 for _, v in scored)


# ---------------------------------------------------------------------------
# desk presets


class TestDeskPresets:
    def test_image_preset_shape(self):
        config, methods = desk_image_experiment()
        assert config.task == "image" and config.seeds == DESK_SEEDS
        labels = [m.label for m in methods]
        assert labels == ["erm", "nurd+pr8", "jtt6+pr8", "nurd+rm16",
                          "nurd+ff30", "nurd+if0.4", "jtt6+id"]
        assert len(set(labels)) == len(labels)

    def test_nli_preset_shape(self):
        config, methods = desk_nli_experiment(seeds=(3, 4))
        assert config.task == "nli" and config.seeds == (3, 4)
        assert [m.label for m in methods] == ["erm", "poe+nr1", "dfl2+nr1",
                                              "jtt6+nr1"]

    @pytest.mark.parametrize("preset, digest", [
        (desk_image_experiment,
         "d0d653369900c18ea520bc979077be673d75b2e635ef64bfcc59200103a63c6e"),
        (desk_nli_experiment,
         "ebb5bb4e816945e0c86830aaacc20e9a611847caf3e79a7233da6eeb6959dd35"),
    ], ids=["image", "nli"])
    def test_seed_zero_csvs_are_frozen(self, preset, digest):
        """The summary and per-seed CSVs of seed 0 of each desk sweep, byte
        for byte (sha256): every change that keeps the sweep's bits keeps
        these."""
        result = run_experiment(*preset((0,)))
        text = result.to_csv() + result.per_seed_csv()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# theory checks


FUZZ_DRAW_BITS = "13d743e9745eb2f1f5e6b6ae885a8745c1d95e88130d458f81e36bb7754af9d5"
FUZZ_ALL_DRAWS_BITS = "46c5bbb7ecdac192e2ed34cf69af70e0547bd0f0d9057c2a16a15aa74ae8f2e6"


class TestTheoryChecks:
    def test_report_passes(self):
        report = verify_theory(fuzz=25, seed=0)
        assert report.ok
        assert len(report.checks) == 7
        assert len({c.name for c in report.checks}) == 7
        assert {"predictor-table", "stable-argmax", "factorization",
                "fuzz-bound"} <= {c.name for c in report.checks}
        assert all(line.startswith("PASS ") for line in report.lines())

    def test_check_result_line_format(self):
        assert CheckResult("foo", True, "bar").line() == "PASS foo: bar"
        assert CheckResult("foo", False, "bar").line() == "FAIL foo: bar"

    @pytest.mark.parametrize(
        "check",
        [check_matched_joints, check_zero_accuracy, check_exact_corruptions,
         check_factorization],
        ids=lambda f: f.__name__,
    )
    def test_individual_checks_pass(self, check):
        result = check()
        assert result.passed, result.detail

    def test_tampered_table_cell_is_named(self):
        rows = enumerate_binary_predictors()
        rows[3] = dataclasses.replace(rows[3], acc_low=rows[3].acc_low + 1e-6)
        result = check_predictor_table(rows)
        assert not result.passed
        assert "row 3 rho0" in result.detail

    def test_tampered_argmax_detected(self):
        rows = enumerate_binary_predictors()
        rows[0] = dataclasses.replace(rows[0], min_acc=0.99)
        result = check_stable_argmax(rows)
        assert not result.passed

    def test_reference_table_is_frozen_data(self):
        assert len(REFERENCE_PREDICTOR_TABLE) == 16
        assert all(len(row) == 3 for row in REFERENCE_PREDICTOR_TABLE)
        best = max(row[2] for row in REFERENCE_PREDICTOR_TABLE)
        assert REFERENCE_PREDICTOR_TABLE[STABLE_PREDICTOR_INDEX][2] == best

    def test_predictor_table_csv(self):
        lines = predictor_table_csv().strip().split("\n")
        assert lines[0] == "predictor,outputs,acc_rho0,acc_rho1,min_acc"
        assert len(lines) == 17
        stable = lines[1 + STABLE_PREDICTOR_INDEX].split(",")
        assert stable[0] == str(STABLE_PREDICTOR_INDEX)
        assert stable[2] == stable[3] == "0.900000000000"
        outs = lines[1].split(",")[1].split(" ")
        assert len(outs) == 4 and set(outs) <= {"+1", "-1"}

    @pytest.mark.parametrize("seed", [7, 54])
    def test_fuzz_seeds_with_extreme_shifts_pass(self, seed):
        """These fuzz seeds once drew a negated-coordinate shift near 1.0
        whose posterior fell below the reweighting floor.  The whole note
        is pinned: every draw's bound is folded in draw order."""
        result = fuzz_bound_checks(2000, seed=seed)
        assert result.passed, result.detail
        assert result.detail == "2000 draws, 0 violations, worst excess -1.000e-09"

    def test_fuzz_draw_bits_are_frozen(self):
        """sha256 over ``(excess.hex(), failure)`` of the first 400 draws of
        fuzz seed 7, checked in this process: the random families, rho
        values and corruptions of the fuzz, which the engine's frozen grid
        does not cover and its note pins only to three digits."""
        stream = Stream(derive_seed(7, 777))
        draws = [harness._fuzz_draw(harness._fuzz_params(stream)) for _ in range(400)]
        text = repr([(None if excess is None else excess.hex(), failure)
                     for excess, failure in draws])
        assert hashlib.sha256(text.encode()).hexdigest() == FUZZ_DRAW_BITS

    def test_fuzz_all_draws_bits_are_frozen(self):
        """The same digest over all 2000 draws of fuzz seed 7, the draws
        that ``verify-theory --fuzz 2000 --seed 7`` checks."""
        stream = Stream(derive_seed(7, 777))
        draws = [harness._fuzz_draw(harness._fuzz_params(stream)) for _ in range(2000)]
        text = repr([(None if excess is None else excess.hex(), failure)
                     for excess, failure in draws])
        assert hashlib.sha256(text.encode()).hexdigest() == FUZZ_ALL_DRAWS_BITS

    def test_fuzz_bound_small_run(self):
        result = fuzz_bound_checks(30, seed=1)
        assert result.passed
        assert "30 draws, 0 violations" in result.detail

    def test_fuzz_note_without_any_bound(self, monkeypatch):
        """When every draw raises, no excess exists to report."""
        from semcorrupt import harness

        def undefined(*args):
            raise ZeroDivisionError("no bound")

        monkeypatch.setattr(harness, "corruption_bound", undefined)
        result = fuzz_bound_checks(3, seed=0)
        assert not result.passed
        assert result.detail.startswith("3 draws, 3 violations; ")
        assert "worst excess" not in result.detail and "inf" not in result.detail

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("bound", ["exact", "raising"])
    def test_worker_count_does_not_change_the_fuzz_note(self, monkeypatch, seed, bound):
        """The draws are shared out differently over one, two and three
        workers, but folded back in draw order.  The exact bounds of these
        seeds all hold, so a note names no draw; when every bound raises,
        the note names the first three draws' families and rho values."""
        if bound == "raising":
            def undefined(*args):
                raise ZeroDivisionError("no bound")

            monkeypatch.setattr(harness, "corruption_bound", undefined)
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            results.append(fuzz_bound_checks(300, seed=seed))
        assert results[0] == results[1] == results[2]
        assert results[0].detail.startswith("300 draws, ")
        assert_no_child_process()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_dying_fuzz_worker_fails_each_draw_it_held(self, monkeypatch, cpus):
        """Every draw of a worker that exits is a violation named
        ``ChildProcessError``, and no worker is left behind."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(harness, "corruption_bound", lambda *args: os._exit(1))
        result = fuzz_bound_checks(5, seed=0)
        assert not result.passed
        assert result.detail.startswith("5 draws, 5 violations; ")
        assert "worst excess" not in result.detail
        assert result.detail.split("; ")[1:] == ["ChildProcessError: a fuzz worker died"] * 3
        assert_no_child_process()


# ---------------------------------------------------------------------------
# serialization


class TestModelIO:
    def test_linear_roundtrip(self, tmp_path):
        model = LinearModel(5, 3)
        model.set_flat(np.linspace(-1.3, 2.1, model.get_flat().size))
        path = str(tmp_path / "model.bin")
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.n_features, loaded.n_classes, loaded.hidden) == (5, 3, 0)
        assert np.array_equal(loaded.get_flat(), model.get_flat())

    def test_hidden_roundtrip_preserves_predictions(self, tmp_path):
        model = LinearModel(4, 2, hidden=6, seed=9)
        path = str(tmp_path / "model.bin")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.hidden == 6
        assert np.array_equal(loaded.get_flat(), model.get_flat())
        X = np.linspace(-1, 1, 20).reshape(5, 4)
        assert np.array_equal(loaded.logits(X), model.logits(X))

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOT-A-MODEL\n" + b"\x00" * 16)
        with pytest.raises(ConfigError, match="not a model file"):
            load_model(path)

    @pytest.mark.parametrize("header", [b"[5, 3, 0]", b'"model"', b"{}",
                                        b'{"n_features": 5, "hidden": 0}',
                                        b'{"n_features": 5, "n_classes": true, "hidden": 0}',
                                        b'{"n_features": 10000000000000, "n_classes": 3, '
                                        b'"hidden": 0}'])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "model.bin"
        save_model(LinearModel(5, 3), str(path))
        magic, _, params = path.read_bytes().split(b"\n", 2)
        path.write_bytes(b"\n".join([magic, header, params]))
        with pytest.raises(ConfigError, match="header|n_classes|n_features"):
            load_model(str(path))


    def test_feature_spec_roundtrip(self, tmp_path):
        model = LinearModel(64, 2)
        model.feature_spec = FeatureSpec("bag_of_ngrams", ngram=3, buckets=32)
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.feature_spec == model.feature_spec
        save_model(loaded, str(tmp_path / "again.bin"))
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
        save_model(LinearModel(64, 2), str(path))
        assert load_model(str(path)).feature_spec is None

    @pytest.mark.parametrize("features", [
        '"flatten_grid"', "{}",
        '{"kind": "flatten_grid", "ngram": 2, "buckets": 64}',
        '{"kind": "pixels", "ngram": 2, "buckets": 64, "pair_mode": "concat"}',
        '{"kind": "bag_of_ngrams", "ngram": true, "buckets": 64, "pair_mode": "concat"}',
        '{"kind": "bag_of_ngrams", "ngram": 2, "buckets": 0, "pair_mode": "concat"}',
        '{"kind": "flatten_grid", "ngram": 2, "buckets": 64, "pair_mode": "concat", '
        '"extra": 1}',
        '{"kind": "bag_of_ngrams", "ngram": 2, "buckets": 64, "pair_mode": "hypothesis_only"}',
        '{"kind": "flatten_grid", "ngram": 2, "buckets": 64, "pair_mode": "zzz"}',
        '{"kind": "flatten_grid", "ngram": 0, "buckets": 64, "pair_mode": "concat"}',
    ])
    def test_bad_feature_spec_rejected(self, tmp_path, features):
        path = tmp_path / "model.bin"
        save_model(LinearModel(5, 3), str(path))
        magic, _, params = path.read_bytes().split(b"\n", 2)
        header = '{"n_features": 5, "n_classes": 3, "hidden": 0, "features": %s}' % features
        path.write_bytes(b"\n".join([magic, header.encode(), params]))
        with pytest.raises(ConfigError, match="features|ngram|buckets|kind|pair_mode"):
            load_model(str(path))

    def test_bad_feature_field_names_the_path_once(self, tmp_path):
        path = tmp_path / "m.bin"
        model = LinearModel(5, 3)
        model.feature_spec = FeatureSpec("flatten_grid")
        save_model(model, str(path))
        path.write_bytes(path.read_bytes().replace(b'"ngram": 2', b'"ngram": -3'))
        with pytest.raises(ConfigError, match="'ngram'") as exc:
            load_model(str(path))
        assert str(exc.value).count(str(path)) == 1


# sha256 of (parameter bytes, per-epoch losses, saved model file) of every
# METHODS entry on tiny sets; the desk CSVs pin hidden 0 only
METHOD_PINS = {
    ("image", 0, "erm"):
        "af8ea5784285e10e9819ba1f81c4d590c7aa2e5afc0513b5255d33811eac30e5",
    ("image", 0, "nurd"):
        "457a99438498d763b28205edaf2e2da41de683246c32e60aa852fad40eca3adf",
    ("image", 0, "jtt"):
        "fb131f1115f14219c418902367f50263e1097c4007d5a39c18d33391dce563db",
    ("image", 0, "poe"):
        "7388fa286ce3dc09e7a6b172e1b1adaa00e011abad219abaa6f8a84800980c3a",
    ("image", 0, "dfl"):
        "3f979788fe126a4487cf8cbbb2b43742c845b1a097723931ee4448d11f402319",
    ("image", 5, "erm"):
        "e82309d2f890159856a35b69e77adfac1f5a46684021ca6e0d2627797c6f6ca4",
    ("image", 5, "nurd"):
        "ab215551617e1e03e37089988c674cdaa0140bb35b9ddffb3326c1e6af86ebb8",
    ("image", 5, "jtt"):
        "3438a7e9fcbaf6150f99c8831e344fb56bd00c8a12539b812c734d64d9ecf66a",
    ("image", 5, "poe"):
        "bdfdd070e1ea03ca092703d7287ed12d48b11b97f775fa0d7eef2b40c2435d29",
    ("image", 5, "dfl"):
        "61b07b0f4507e801972a7a5f9ee2da2743a23ea2c4d01b1f6dd01deb3339f378",
    ("nli", 0, "erm"):
        "09f24f0d2034c0113a5ef7b13f4c87a5ea229b4234ff1bcd961ea9b0d7c985f7",
    ("nli", 0, "nurd"):
        "2f642c1057145898da23178d480ba5a329114c373ec8c098e4203d1f65d03ec6",
    ("nli", 0, "jtt"):
        "bef2495a1fb3376623d7c83cebf3eeea3c71bf99e40341fa9e7f001fdb6a23fc",
    ("nli", 0, "poe"):
        "8143612225efdea15d9ec14aa9ee3f2e2b07ca56e24fde3c5ecb79bb9b8904f3",
    ("nli", 0, "dfl"):
        "1ce6c45b6d0a5612184499547dd52c961dfadb6e5219eef7018994bcf2a080b4",
    ("nli", 5, "erm"):
        "b78395b801c278e89bc627cb2bf1d33f3d7f7da4ae4c999ec42adc0cbcc3edfb",
    ("nli", 5, "nurd"):
        "fc79eddef03d31d8736979ac8ddd0cc3f38e04f1dc9422eb72fd85f5f23627f7",
    ("nli", 5, "jtt"):
        "ea46235513bb2908e8de2916ec2eb6643ac536b22f8d1451c6760f086a7b7915",
    ("nli", 5, "poe"):
        "adfca136afcc2b30deee5100096c34b3155c5a8027060c0b1c01735b7b7a45e7",
    ("nli", 5, "dfl"):
        "b9102e1be0a269a36b6facab026b9ca01b1ffdbd7629ad9fff8a05c91f19269d",
}


class TestMethodPins:
    @pytest.mark.parametrize("task,hidden,name", sorted(METHOD_PINS))
    def test_trained_model_bits(self, tmp_path, task, hidden, name):
        ds = generate_task(task, 0.9, 40, 3)
        corruption = PR8 if task == "image" else NR1
        method = MethodSpec(name, None if name == "erm" else corruption)
        cfg_main = TrainConfig(epochs=2, batch_size=16, lr=0.1, weight_decay=1e-3)
        cfg_aux = TrainConfig(epochs=2, batch_size=16, lr=0.1, seed=1)
        model, info = run_method(method, FeatureStore(ds, default_feature_spec(task)),
                                 cfg_main, cfg_aux, hidden)
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.get_flat().tobytes() == model.get_flat().tobytes()
        assert loaded.feature_spec == model.feature_spec
        digest = hashlib.sha256(model.get_flat().tobytes())
        digest.update(" ".join(map(float.hex, info["losses"])).encode())
        digest.update(path.read_bytes())
        assert digest.hexdigest() == METHOD_PINS[task, hidden, name]


def assert_datasets_equal(got: Dataset, want: Dataset):
    assert len(got) == len(want)
    assert got.n_classes == want.n_classes
    assert np.array_equal(got.labels, want.labels)
    if want.groups is None:
        assert got.groups is None and got.nuisances is None
    else:
        assert np.array_equal(got.nuisances, want.nuisances)
        assert np.array_equal(got.groups, want.groups)
    # provenance goes through JSON, which normalizes container types
    assert got.provenance == json.loads(json.dumps(want.provenance))


class TestDatasetIO:
    def test_grid_roundtrip_single_precision(self, tmp_path):
        ds = synthetic_image_task(0.9, 12, 5)
        save_dataset(ds, str(tmp_path))
        with open(tmp_path / "meta.json") as fh:
            meta = json.load(fh)
        assert meta["kind"] == "grid" and meta["dtype"] == "<f4"
        assert meta["unit_range"] is True
        loaded = load_dataset(str(tmp_path))
        assert_datasets_equal(loaded, ds)
        for got, want in zip(loaded.covariates, ds.covariates):
            assert np.array_equal(got.values, want.values)

    def test_grid_roundtrip_double_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        covs = [Grid(rng.random((4, 4))) for _ in range(6)]
        ds = Dataset(covs, np.arange(6) % 2, 2)
        save_dataset(ds, str(tmp_path))
        with open(tmp_path / "meta.json") as fh:
            meta = json.load(fh)
        assert meta["dtype"] == "<f8"
        loaded = load_dataset(str(tmp_path))
        assert_datasets_equal(loaded, ds)
        for got, want in zip(loaded.covariates, ds.covariates):
            assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("dtype", ["<f4", "<f8"])
    def test_grid_payload_bytes_pinned(self, tmp_path, dtype):
        """data.bin is the stacked values in the dtype meta.json names:
        single precision exactly when that loses nothing."""
        ds = synthetic_image_task(0.9, 12, 5)
        if dtype == "<f8":   # one value off the single-precision grid
            values = np.stack([c.values for c in ds.covariates])
            values[3, 1, 2, 0] = 0.1
            ds = Dataset(grid_rows(values), ds.labels, 2, ds.nuisances, ds.groups)
        save_dataset(ds, str(tmp_path))
        with open(tmp_path / "meta.json") as fh:
            assert json.load(fh)["dtype"] == dtype
        want = np.stack([c.values for c in ds.covariates]).astype(dtype).tobytes()
        assert (tmp_path / "data.bin").read_bytes() == want

    def test_pair_roundtrip(self, tmp_path):
        ds = synthetic_nli_task(0.9, 10, 3)
        save_dataset(ds, str(tmp_path))
        loaded = load_dataset(str(tmp_path))
        assert_datasets_equal(loaded, ds)
        assert list(loaded.covariates) == list(ds.covariates)

    def test_vector_roundtrip(self, tmp_path):
        ds = sample_family(xor_sign_family(1.0, 8), 0.7, 25, seed=8)
        save_dataset(ds, str(tmp_path))
        loaded = load_dataset(str(tmp_path))
        assert_datasets_equal(loaded, ds)
        assert list(loaded.covariates) == list(ds.covariates)

    @pytest.mark.parametrize("damage,message", [
        ("append", "trailing data in pair payload"),
        ("drop_last_pair", "pair payload ends early"),
        ("long_hypothesis", "pair payload ends early"),
    ])
    def test_pair_payload_walk_errors(self, tmp_path, damage, message):
        ds = synthetic_nli_task(0.9, 3, 5)
        save_dataset(ds, str(tmp_path))
        data = tmp_path / "data.bin"
        words = list(np.frombuffer(data.read_bytes(), dtype="<i4"))
        # each pair is its mask id, then each sentence's length and tokens
        sizes = [3 + len(p.premise.tokens) + len(p.hypothesis.tokens) for p in ds.covariates]
        if damage == "append":
            words.append(0)
        elif damage == "drop_last_pair":
            words = words[:-sizes[-1]]
        else:
            words[sizes[0] + 2 + len(ds.covariates[1].premise.tokens)] = 10**6
        data.write_bytes(np.array(words, dtype="<i4").tobytes())
        with pytest.raises(ConfigError, match=message):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("tokens,mask_id", [((2**31, 1), 0), ((5, 1), 2**31)])
    def test_pair_id_past_32_bits_rejected_before_writing(self, tmp_path, tokens, mask_id):
        pair = SentencePair(TokenSeq(tokens, mask_id), TokenSeq((2,), mask_id))
        out = tmp_path / "data"
        with pytest.raises(ConfigError, match=str(2**31 - 1)):
            save_dataset(Dataset([pair], [0], 2), str(out))
        assert not out.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_vector_rejected_before_writing(self, tmp_path, bad):
        out = tmp_path / "data"
        with pytest.raises(ConfigError, match="non-finite"):
            save_dataset(Dataset([(1.0, bad), (0.5, 2.0)], [0, 1], 2), str(out))
        assert not out.exists()

    def test_empty_dataset_rejected(self, tmp_path):
        empty = Dataset([], np.zeros(0, dtype=np.int64), 2)
        with pytest.raises(ConfigError):
            save_dataset(empty, str(tmp_path))

    def test_row_count_mismatch_detected(self, tmp_path):
        ds = synthetic_image_task(0.9, 8, 5)
        save_dataset(ds, str(tmp_path))
        labels_path = tmp_path / "labels.csv"
        lines = labels_path.read_text().strip().split("\n")
        labels_path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ConfigError):
            load_dataset(str(tmp_path))

    def test_index_column_must_count_from_zero(self, tmp_path):
        ds = synthetic_nli_task(0.9, 8, 5)
        save_dataset(ds, str(tmp_path))
        labels_path = tmp_path / "labels.csv"
        lines = labels_path.read_text().split("\n")
        lines[1], lines[2] = lines[2], lines[1]
        labels_path.write_text("\n".join(lines))
        with pytest.raises(ConfigError, match="index 0..7"):
            load_dataset(str(tmp_path))
