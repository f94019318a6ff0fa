"""Biased models, importance weights, and the four debiasing routines."""

import copy
import math

import numpy as np
import pytest

from semcorrupt.corruptions import CorruptionSpec
from semcorrupt.errors import ConfigError
from semcorrupt.families import (
    Dataset,
    sample_family,
    synthetic_image_task,
    xor_sign_family,
)
from semcorrupt.exact import FiniteCorruption, biased_posterior
from semcorrupt.harness import desk_image_experiment
from semcorrupt.learner import (
    FeatureSpec,
    LinearModel,
    TrainConfig,
    featurize,
    predict,
    train,
)
from semcorrupt.rng import derive_seed
from semcorrupt.scams import (
    WEIGHT_POSTERIOR_FLOOR,
    BiasedModel,
    FeatureStore,
    build_biased_model,
    corrupted_features,
    jtt_error_set,
    nurd_weights,
    run_dfl,
    run_jtt,
    run_nurd,
    run_poe,
    select_corruption,
)

RAW = FeatureSpec("raw_vector")
PR8 = CorruptionSpec("patch_randomize", 8, 7)
IDENTITY = CorruptionSpec("identity")


def balanced_vector_dataset(n=40, seed=0):
    """Separable two-class vectors with exactly equal class counts."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    X = rng.normal(0.0, 0.1, size=(n, 3))
    X[:, 0] += np.where(y == 1, 1.5, -1.5)
    return Dataset(covariates=[tuple(row) for row in X], labels=y, n_classes=2)


def onehot_label_dataset():
    """Covariates reveal the label exactly: class 0 -> (1, 0), class 1 -> (0, 1)."""
    cov = [(1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
    return Dataset(covariates=cov, labels=np.array([0, 1, 0, 1]), n_classes=2)


def posterior_model(logit_gap: float) -> LinearModel:
    """On one-hot covariates, emit posterior (sigmoid(gap), 1-sigmoid(gap))
    for the coordinate that is on."""
    model = LinearModel(2, 2)
    model.weights[0][...] = [[logit_gap, 0.0], [0.0, logit_gap]]
    return model


@pytest.fixture(scope="module")
def image_cfg():
    cfg, _ = desk_image_experiment()
    return cfg


@pytest.fixture(scope="module")
def image_train(image_cfg):
    return synthetic_image_task(0.9, 600, derive_seed(0, 1))


@pytest.fixture(scope="module")
def image_biased(image_cfg, image_train):
    aux = TrainConfig(epochs=30, batch_size=64, lr=0.1, weight_decay=1e-3, seed=3)
    return build_biased_model(FeatureStore(image_train, image_cfg.feature), PR8, aux)


# ---------------------------------------------------------------------------
# corrupted features and the biased model


class TestCorruptedFeatures:
    def test_identity_matches_plain_featurization(self):
        ds = balanced_vector_dataset()
        X = corrupted_features(ds, IDENTITY, RAW)
        assert np.array_equal(X, featurize(RAW, ds.covariates))

    def test_noise_is_keyed_by_example_index(self, image_cfg):
        ds = synthetic_image_task(0.9, 1, derive_seed(9, 1))
        twice = Dataset(covariates=[ds.covariates[0], ds.covariates[0]],
                        labels=np.array([ds.labels[0]] * 2), n_classes=2)
        X = corrupted_features(twice, PR8, image_cfg.feature)
        assert not np.array_equal(X[0], X[1])


class TestBiasedModel:
    def test_probs_are_clipped(self):
        ds = onehot_label_dataset()
        biased = BiasedModel(posterior_model(80.0), IDENTITY,
                             np.array([0.5, 0.5]))
        probs = biased.class_probs(featurize(RAW, ds.covariates))
        assert probs.min() >= 1e-3
        assert probs.max() <= 1.0 - 1e-3

    def test_records_class_marginal(self):
        ds = balanced_vector_dataset(20)
        biased = build_biased_model(
            FeatureStore(ds, RAW), IDENTITY, TrainConfig(epochs=0, batch_size=8, lr=0.1))
        assert np.array_equal(biased.class_marginal, [0.5, 0.5])

    def test_corrupted_input_model_is_a_nuisance_predictor(
            self, image_cfg, image_biased):
        # patch shuffling keeps the texture and scrambles the glyph, so the
        # auxiliary model tracks the nuisance: strong in distribution, far
        # below chance when the relationship flips.
        iid = synthetic_image_task(0.9, 600, derive_seed(0, 2))
        flipped = synthetic_image_task(0.9, 600, derive_seed(0, 3), flip=True)

        def acc(ds):
            X = corrupted_features(ds, PR8, image_cfg.feature)
            return float(np.mean(predict(image_biased.model, X) == ds.labels))

        assert acc(iid) >= 0.85
        assert acc(flipped) <= 0.2


# ---------------------------------------------------------------------------
# importance weights


class TestNurdWeights:
    def test_untrained_model_on_balanced_data_gives_unit_weights(self):
        ds = balanced_vector_dataset()
        biased = build_biased_model(
            FeatureStore(ds, RAW), IDENTITY, TrainConfig(epochs=0, batch_size=8, lr=0.1))
        w = nurd_weights(biased, ds, featurize(RAW, ds.covariates))
        assert np.all(w == 1.0)

    def test_exact_ratio_for_hand_built_posterior(self):
        ds = onehot_label_dataset()
        biased = BiasedModel(posterior_model(math.log(9.0)), IDENTITY,
                             np.array([0.5, 0.5]))
        w = nurd_weights(biased, ds, featurize(RAW, ds.covariates))
        # posterior for the true class is 0.9 on every example
        assert np.allclose(w, 0.5 / 0.9, atol=1e-12)

    def test_minority_posterior_inverts_to_large_weight(self):
        cov = [(1.0, 0.0), (1.0, 0.0)]
        ds = Dataset(covariates=cov, labels=np.array([0, 1]), n_classes=2)
        biased = BiasedModel(posterior_model(math.log(9.0)), IDENTITY,
                             np.array([0.5, 0.5]))
        w = nurd_weights(biased, ds, featurize(RAW, ds.covariates))
        assert w[0] == pytest.approx(0.5 / 0.9, abs=1e-12)
        assert w[1] == pytest.approx(0.5 / 0.1, rel=1e-10)

    def test_posterior_floor_bounds_weights(self):
        ds = onehot_label_dataset()
        biased = BiasedModel(posterior_model(math.log(999.0)), IDENTITY,
                             np.array([0.5, 0.5]))
        w = nurd_weights(biased, ds, featurize(RAW, ds.covariates))
        # raw posterior 0.999 truncates to 1 - floor
        assert np.allclose(w, 0.5 / (1.0 - WEIGHT_POSTERIOR_FLOOR), atol=1e-12)
        flipped = Dataset(covariates=ds.covariates,
                          labels=1 - ds.labels, n_classes=2)
        w = nurd_weights(biased, flipped, featurize(RAW, ds.covariates))
        assert np.allclose(w, 0.5 / WEIGHT_POSTERIOR_FLOOR, atol=1e-9)

    def test_invariant_to_logit_shift(self, image_cfg, image_biased, image_train):
        Xb = corrupted_features(image_train, PR8, image_cfg.feature)
        w_before = nurd_weights(image_biased, image_train, Xb)
        shifted = BiasedModel(copy.deepcopy(image_biased.model),
                              image_biased.corruption, image_biased.class_marginal)
        shifted.model.biases[-1][...] += 3.7
        w_after = nurd_weights(shifted, image_train, Xb)
        assert np.allclose(w_before, w_after, atol=1e-10)

    def test_minority_examples_carry_the_large_weights(self, image_cfg, image_train,
                                                       image_biased):
        w = nurd_weights(image_biased, image_train,
                         corrupted_features(image_train, PR8, image_cfg.feature))
        minority = image_train.labels != image_train.nuisances
        assert w[minority].mean() > 2.0 * w[~minority].mean()
        # and the reweighted texture-label agreement is near balance
        agree = float((w * ~minority).sum() / w.sum())
        assert 0.3 <= agree <= 0.7


# ---------------------------------------------------------------------------
# reweighting end to end


class TestRunNurd:
    def test_uniform_weights_reduce_to_erm_bitwise(self):
        ds = balanced_vector_dataset()
        cfg_main = TrainConfig(epochs=15, batch_size=8, lr=0.3, seed=4)
        cfg_aux = TrainConfig(epochs=0, batch_size=8, lr=0.1, seed=5)
        model, info = run_nurd(FeatureStore(ds, RAW), IDENTITY, cfg_main, cfg_aux)
        assert np.all(info["weights"] == 1.0)
        erm = LinearModel(3, 2, seed=cfg_main.seed)
        train(erm, featurize(RAW, ds.covariates), ds.labels, cfg_main)
        assert np.array_equal(model.get_flat(), erm.get_flat())

    def test_masked_vector_route_recovers_the_sign_rule(self):
        # the sampled-data analog of the exact engine's masking noise model:
        # reweighting by a masked-input model frees the main model to learn
        # the sign-interaction semantics even though the training relationship
        # is strongly tilted.
        fam = xor_sign_family(1.0, 8)
        ds = sample_family(fam, 0.8, 20000, seed=41)
        cfg_main = TrainConfig(epochs=40, batch_size=128, lr=0.1,
                               weight_decay=1e-4, seed=6)
        cfg_aux = TrainConfig(epochs=40, batch_size=128, lr=0.1,
                              weight_decay=1e-4, seed=7)
        model, _ = run_nurd(FeatureStore(ds, RAW), CorruptionSpec("coordinate_mask", 0),
                            cfg_main, cfg_aux, hidden=8)
        fresh = sample_family(fam, 0.5, 20000, seed=141)
        X = featurize(RAW, fresh.covariates)
        ys = sorted(fam.y_support)
        want = np.array([ys.index(fam.semantic_fn(x)) for x in fresh.covariates])
        disagreement = float(np.mean(predict(model, X) != want))
        assert disagreement < 0.05


# ---------------------------------------------------------------------------
# upweighted second training


class TestJtt:
    def test_perfect_identifier_yields_empty_error_set(self):
        ds = balanced_vector_dataset()
        cfg = TrainConfig(epochs=100, batch_size=8, lr=0.5, seed=2)
        errors, ident = jtt_error_set(FeatureStore(ds, RAW), IDENTITY, cfg)
        assert errors.size == 0
        X = featurize(RAW, ds.covariates)
        assert float(np.mean(predict(ident, X) == ds.labels)) == 1.0

    def test_error_set_is_deterministic(self, image_cfg, image_train):
        cfg = TrainConfig(epochs=10, batch_size=64, lr=0.1, seed=3)
        a, _ = jtt_error_set(FeatureStore(image_train, image_cfg.feature), PR8, cfg)
        b, _ = jtt_error_set(FeatureStore(image_train, image_cfg.feature), PR8, cfg)
        assert np.array_equal(a, b)

    def test_error_set_is_the_minority_groups(self, image_cfg, image_train):
        cfg = TrainConfig(epochs=30, batch_size=64, lr=0.1, weight_decay=1e-3,
                          seed=3)
        errors, _ = jtt_error_set(FeatureStore(image_train, image_cfg.feature), PR8, cfg)
        minority = image_train.labels != image_train.nuisances
        assert 0.05 * len(image_train) <= errors.size <= 0.15 * len(image_train)
        assert minority[errors].mean() >= 0.8
        assert minority[errors].sum() >= 0.9 * minority.sum()

    def test_lambda_one_is_erm_bitwise(self):
        ds = balanced_vector_dataset()
        cfg_main = TrainConfig(epochs=12, batch_size=8, lr=0.3, seed=4)
        cfg_id = TrainConfig(epochs=2, batch_size=8, lr=0.05, seed=5)
        model, info = run_jtt(FeatureStore(ds, RAW), IDENTITY, cfg_main, cfg_id, lambda_up=1)
        erm = LinearModel(3, 2, seed=cfg_main.seed)
        train(erm, featurize(RAW, ds.covariates), ds.labels, cfg_main)
        assert np.array_equal(model.get_flat(), erm.get_flat())

    def test_empty_error_set_is_erm_bitwise_at_any_lambda(self):
        ds = balanced_vector_dataset()
        cfg_main = TrainConfig(epochs=12, batch_size=8, lr=0.3, seed=4)
        cfg_id = TrainConfig(epochs=100, batch_size=8, lr=0.5, seed=2)
        model, info = run_jtt(FeatureStore(ds, RAW), IDENTITY, cfg_main, cfg_id, lambda_up=6)
        assert info["error_set"].size == 0
        erm = LinearModel(3, 2, seed=cfg_main.seed)
        train(erm, featurize(RAW, ds.covariates), ds.labels, cfg_main)
        assert np.array_equal(model.get_flat(), erm.get_flat())

    def test_upsampling_matches_manual_augmentation(self, image_cfg, image_train):
        cfg_main = TrainConfig(epochs=3, batch_size=64, lr=0.05, seed=8)
        cfg_id = TrainConfig(epochs=10, batch_size=64, lr=0.1, seed=9)
        model, info = run_jtt(FeatureStore(image_train, image_cfg.feature), PR8, cfg_main,
                              cfg_id, lambda_up=3)
        errors = info["error_set"]
        assert errors.size > 0
        X = featurize(image_cfg.feature, image_train.covariates)
        y = image_train.labels
        extra = np.repeat(errors, 2)
        Xa = np.concatenate([X, X[extra]])
        ya = np.concatenate([y, y[extra]])
        manual = LinearModel(X.shape[1], 2, seed=cfg_main.seed)
        train(manual, Xa, ya, cfg_main)
        assert np.array_equal(model.get_flat(), manual.get_flat())

    def test_rejects_lambda_below_one(self):
        ds = balanced_vector_dataset()
        cfg = TrainConfig(epochs=1, batch_size=8, lr=0.1)
        with pytest.raises(ConfigError):
            run_jtt(FeatureStore(ds, RAW), IDENTITY, cfg, cfg, lambda_up=0)


# ---------------------------------------------------------------------------
# joint products and focus weighting


class TestRunPoe:
    def test_joint_training_moves_both_heads(self):
        ds = balanced_vector_dataset()
        cfg = TrainConfig(epochs=5, batch_size=8, lr=0.2, seed=4)
        model, info = run_poe(FeatureStore(ds, RAW), IDENTITY, cfg, cfg)
        assert len(info["losses"]) == 5
        assert info["losses"][-1] < info["losses"][0]
        assert np.any(info["biased_model"].get_flat() != 0.0)
        assert np.any(model.get_flat() != 0.0)


class TestRunDfl:
    def test_gamma_zero_is_erm_bitwise_on_vectors(self):
        ds = balanced_vector_dataset()
        cfg_main = TrainConfig(epochs=10, batch_size=8, lr=0.3, seed=4)
        cfg_aux = TrainConfig(epochs=10, batch_size=8, lr=0.1, seed=5)
        model, _ = run_dfl(FeatureStore(ds, RAW), IDENTITY, cfg_main, cfg_aux, gamma=0.0)
        erm = LinearModel(3, 2, seed=cfg_main.seed)
        train(erm, featurize(RAW, ds.covariates), ds.labels, cfg_main)
        assert np.array_equal(model.get_flat(), erm.get_flat())

    def test_gamma_zero_is_erm_bitwise_on_images(self, image_cfg):
        ds = synthetic_image_task(0.9, 200, derive_seed(2, 1))
        cfg_main = TrainConfig(epochs=3, batch_size=64, lr=0.05, seed=6)
        cfg_aux = TrainConfig(epochs=3, batch_size=64, lr=0.05, seed=7)
        model, _ = run_dfl(FeatureStore(ds, image_cfg.feature), PR8, cfg_main, cfg_aux,
                           gamma=0.0)
        X = featurize(image_cfg.feature, ds.covariates)
        erm = LinearModel(X.shape[1], 2, seed=cfg_main.seed)
        train(erm, X, ds.labels, cfg_main)
        assert np.array_equal(model.get_flat(), erm.get_flat())

    def test_rejects_negative_gamma(self):
        ds = balanced_vector_dataset()
        cfg = TrainConfig(epochs=1, batch_size=8, lr=0.1)
        with pytest.raises(ConfigError):
            run_dfl(FeatureStore(ds, RAW), IDENTITY, cfg, cfg, gamma=-1.0)

    def test_focus_departs_from_erm(self):
        ds = balanced_vector_dataset()
        cfg_main = TrainConfig(epochs=10, batch_size=8, lr=0.3, seed=4)
        cfg_aux = TrainConfig(epochs=10, batch_size=8, lr=0.3, seed=5)
        model, _ = run_dfl(FeatureStore(ds, RAW), IDENTITY, cfg_main, cfg_aux, gamma=2.0)
        erm = LinearModel(3, 2, seed=cfg_main.seed)
        train(erm, featurize(RAW, ds.covariates), ds.labels, cfg_main)
        assert not np.array_equal(model.get_flat(), erm.get_flat())


# ---------------------------------------------------------------------------
# corruption-parameter selection


class TestSelectCorruption:
    def test_identity_is_prepended_by_default(self):
        seen = []
        best, _, scored = select_corruption(
            [CorruptionSpec("roi_mask", 16, 0)],
            lambda s: seen.append(s.kind) or 0.5)
        assert seen == ["identity", "roi_mask"]
        assert scored[0][0].kind == "identity"

    def test_ties_keep_the_earliest(self):
        a = CorruptionSpec("roi_mask", 8, 0)
        b = CorruptionSpec("roi_mask", 16, 0)
        best, _, _ = select_corruption([a, b], lambda s: float(s.kind != "identity"))
        assert best == a

    def test_strictly_better_candidate_wins(self):
        a = CorruptionSpec("roi_mask", 8, 0)
        b = CorruptionSpec("roi_mask", 16, 0)
        best, score, _ = select_corruption(
            [a, b], lambda s: 0.9 if s.param == 16 else 0.1)
        assert best == b
        assert score == 0.9

    def test_no_candidates_picks_identity(self):
        best, score, scored = select_corruption([], lambda s: 0.25)
        assert best == CorruptionSpec("identity", None, 0)
        assert score == 0.25
        assert scored == [(best, 0.25)]


# ---------------------------------------------------------------------------
# the no-harm property


class TestNoHarm:
    def test_identity_corruption_on_independent_data_matches_erm(self, image_cfg):
        # with label and nuisance independent there is nothing to avoid, so
        # each routine run with the identity corruption should neither help
        # nor hurt (within two points of plain ERM)
        for seed in (0, 1):
            tr = synthetic_image_task(0.5, 600, derive_seed(seed, 1))
            te = synthetic_image_task(0.5, 1200, derive_seed(seed, 2))
            Xtr = featurize(image_cfg.feature, tr.covariates)
            Xte = featurize(image_cfg.feature, te.covariates)
            cfg_main = TrainConfig(epochs=10, batch_size=64, lr=0.02,
                                   weight_decay=1e-3, seed=derive_seed(seed, 10))
            cfg_aux = TrainConfig(epochs=10, batch_size=64, lr=0.02,
                                  weight_decay=1e-3, seed=derive_seed(seed, 11))
            erm = LinearModel(Xtr.shape[1], 2, seed=cfg_main.seed)
            train(erm, Xtr, tr.labels, cfg_main)
            base = float(np.mean(predict(erm, Xte) == te.labels))
            outs = {}
            store = FeatureStore(tr, image_cfg.feature)
            m, _ = run_nurd(store, IDENTITY, cfg_main, cfg_aux)
            outs["reweight"] = m
            m, _ = run_jtt(store, IDENTITY, cfg_main, cfg_aux, lambda_up=6)
            outs["upsample"] = m
            m, _ = run_poe(store, IDENTITY, cfg_main, cfg_aux)
            outs["product"] = m
            m, _ = run_dfl(store, IDENTITY, cfg_main, cfg_aux, gamma=2.0)
            outs["focus"] = m
            for name, model in outs.items():
                acc = float(np.mean(predict(model, Xte) == te.labels))
                assert abs(acc - base) <= 0.02, (seed, name, acc, base)


# ---------------------------------------------------------------------------
# the in-place parameter step


def _flat_step(model, lr, grad):
    """The step as it was first written: a flat copy, then new arrays."""
    model.set_flat(model.get_flat() - lr * grad)


@pytest.mark.parametrize("hidden", [0, 3])
@pytest.mark.parametrize("trainer", ["train", "poe", "dfl"])
def test_in_place_step_keeps_the_flat_step_bits(monkeypatch, trainer, hidden):
    ds = balanced_vector_dataset(n=48, seed=2)
    noise = CorruptionSpec("coordinate_mask", 0)
    cfg = TrainConfig(epochs=3, batch_size=8, lr=0.3, weight_decay=1e-3, seed=4)
    aux = TrainConfig(epochs=3, batch_size=8, lr=0.2, seed=5)

    def fit():
        if trainer == "train":
            model = LinearModel(3, 2, hidden, seed=1)
            train(model, featurize(RAW, ds.covariates), ds.labels, cfg)
            return [model]
        if trainer == "poe":
            model, info = run_poe(FeatureStore(ds, RAW), noise, cfg, aux, hidden)
        else:
            model, info = run_dfl(FeatureStore(ds, RAW), noise, cfg, aux, 2.0, hidden)
        return [model, info["biased_model"]]

    in_place = fit()
    monkeypatch.setattr(LinearModel, "descend", _flat_step)
    flat = fit()
    for a, b in zip(in_place, flat):
        assert a.get_flat().tobytes() == b.get_flat().tobytes()
