"""Spurious-correlation-avoiding methods driven by semantic corruptions.

Four routines share one recipe: train an auxiliary model on corrupted
covariates (which can only pick up what survives the corruption, i.e. the
nuisance side), then use it to reweight, upsample, factor out, or focus the
main model, which always sees the original covariates.  At neutral settings
(upsample factor 1, focus exponent 0) the routines reproduce plain ERM bit
for bit because batch schedules depend only on (seed, epoch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .corruptions import KINDS, CorruptionSpec, apply_all, batches_grids, grid_chunks
from .errors import ConfigError, TrainingError
from .families import Dataset
from .rng import derive_seed
from .learner import (
    FeatureSpec,
    LinearModel,
    TrainConfig,
    bag_of_ngrams,
    ce_loss_grad,
    check_finite,
    dfl_loss_grad,
    featurize,
    poe_loss_grad,
    predict,
    predict_proba,
    sgd,
    train,
)

WEIGHT_CLIP = 1e-3
_EPOCH_NOISE_TAG = 103


def corrupted_features(dataset: Dataset, spec: CorruptionSpec,
                       feature_spec: FeatureSpec) -> np.ndarray:
    """Apply the corruption to every example (noise keyed by example index)
    and featurize the results.  N-gram shuffles under bag-of-n-gram
    features go from token arrays to shuffled token arrays to the feature
    matrix, and grid kinds under ``flatten_grid`` fill the matrix one
    :func:`grid_chunks` chunk at a time, building no per-example objects."""
    covs = dataset.covariates
    if spec.kind == "ngram_randomize" and feature_spec.kind == "bag_of_ngrams":
        return bag_of_ngrams(feature_spec, covs, shuffle=spec)
    if (feature_spec.kind == "flatten_grid" and covs and batches_grids(spec, covs)
            and len({c.values.size for c in covs}) == 1):
        X = np.empty((len(covs), covs[0].values.size))
        for rows, values in grid_chunks(spec, covs):
            X[rows] = values.reshape(len(rows), -1)
        return X
    return featurize(feature_spec, apply_all(spec, covs))


def _epoch_feature_fn(dataset: Dataset, spec: CorruptionSpec,
                      feature_spec: FeatureSpec, first_epoch: np.ndarray):
    """Per-epoch corrupted features: epoch 0 reuses the base draw, later
    epochs redraw the corruption noise from an epoch-derived seed.  Returns
    None for deterministic corruptions (nothing to redraw)."""
    if not KINDS[spec.kind].stochastic:
        return None

    def features(epoch: int) -> np.ndarray:
        if epoch == 0:
            return first_epoch
        fresh = replace(spec, seed=derive_seed(spec.seed, _EPOCH_NOISE_TAG, epoch))
        return corrupted_features(dataset, fresh, feature_spec)

    return features


@dataclass
class BiasedModel:
    """Label predictor trained on corrupted covariates only."""

    model: LinearModel
    corruption: CorruptionSpec
    feature_spec: FeatureSpec
    class_marginal: np.ndarray
    clip: float = WEIGHT_CLIP

    def class_probs(self, dataset: Dataset) -> np.ndarray:
        """p(label | corrupted covariate) per example, clipped into
        [clip, 1 - clip] so downstream ratios stay bounded."""
        X = corrupted_features(dataset, self.corruption, self.feature_spec)
        return np.clip(predict_proba(self.model, X), self.clip, 1.0 - self.clip)


def build_biased_model(dataset: Dataset, corruption: CorruptionSpec,
                       feature_spec: FeatureSpec, cfg: TrainConfig,
                       hidden: int = 0) -> BiasedModel:
    """Fit the auxiliary predictor on corrupted covariates.

    Stochastic corruptions are redrawn every epoch so the fit targets the
    noise-averaged relationship rather than one frozen draw; deterministic
    corruptions are computed once.
    """
    X = corrupted_features(dataset, corruption, feature_spec)
    model = LinearModel(X.shape[1], dataset.n_classes, hidden, seed=cfg.seed)
    train(model, X, dataset.labels, cfg,
          features_for_epoch=_epoch_feature_fn(dataset, corruption, feature_spec, X))
    counts = np.bincount(dataset.labels, minlength=dataset.n_classes)
    return BiasedModel(model, corruption, feature_spec, counts / len(dataset))


WEIGHT_POSTERIOR_FLOOR = 0.05


def nurd_weights(biased: BiasedModel, dataset: Dataset) -> np.ndarray:
    """Importance weights marginal(y) / p_biased(y | corrupted x), one
    fixed corruption draw per example.

    The denominator posterior is truncated into
    [WEIGHT_POSTERIOR_FLOOR, 1 - WEIGHT_POSTERIOR_FLOOR] before dividing:
    an over-parameterized auxiliary model spreads its per-example
    posteriors around the calibrated value, and the reciprocal turns that
    spread into a handful of examples carrying most of the weight mass.
    Truncation caps any single weight at marginal / floor and leaves
    posteriors milder than the floor untouched.  Softmax shift-invariance
    is unaffected, so weights remain invariant to rescaling the auxiliary
    model's unnormalized outputs."""
    probs = biased.class_probs(dataset)
    probs = np.clip(probs, WEIGHT_POSTERIOR_FLOOR, 1.0 - WEIGHT_POSTERIOR_FLOOR)
    picked = probs[np.arange(len(dataset)), dataset.labels]
    return biased.class_marginal[dataset.labels] / picked


def run_nurd(dataset: Dataset, corruption: CorruptionSpec,
             feature_spec: FeatureSpec, cfg_main: TrainConfig,
             cfg_biased: TrainConfig, hidden: int = 0,
             hidden_biased: int = 0):
    """Reweighted ERM: the weights push the training distribution toward
    the one where label and nuisance are independent.  Weights are rescaled
    to mean one before training, which leaves the optimum untouched but
    keeps the effective learning rate comparable across corruptions."""
    biased = build_biased_model(dataset, corruption, feature_spec, cfg_biased,
                                hidden_biased)
    weights = nurd_weights(biased, dataset)
    X = featurize(feature_spec, dataset.covariates)
    model = LinearModel(X.shape[1], dataset.n_classes, hidden, seed=cfg_main.seed)
    losses = train(model, X, dataset.labels, cfg_main,
                   sample_weights=weights * (len(weights) / weights.sum()))
    return model, {"weights": weights, "biased": biased, "losses": losses}


def jtt_error_set(dataset: Dataset, corruption: CorruptionSpec,
                  feature_spec: FeatureSpec, cfg_id: TrainConfig,
                  hidden: int = 0):
    """Indices the corrupted-input identification model gets wrong,
    ascending."""
    X = corrupted_features(dataset, corruption, feature_spec)
    ident = LinearModel(X.shape[1], dataset.n_classes, hidden, seed=cfg_id.seed)
    train(ident, X, dataset.labels, cfg_id)
    wrong = predict(ident, X) != dataset.labels
    return np.flatnonzero(wrong), ident


def run_jtt(dataset: Dataset, corruption: CorruptionSpec,
            feature_spec: FeatureSpec, cfg_main: TrainConfig,
            cfg_id: TrainConfig, lambda_up: int, hidden: int = 0,
            hidden_id: int = 0):
    """Upsample the identification model's error set lambda_up times.

    The augmented set is every original in order followed by lambda_up - 1
    extra copies of each error index; lambda_up 1 therefore reduces to ERM
    on the untouched dataset, bit for bit.
    """
    if lambda_up < 1:
        raise ConfigError("lambda_up must be >= 1")
    errors, ident = jtt_error_set(dataset, corruption, feature_spec, cfg_id,
                                  hidden_id)
    X = featurize(feature_spec, dataset.covariates)
    y = dataset.labels
    if lambda_up > 1 and len(errors):
        extra = np.repeat(errors, lambda_up - 1)
        X = np.concatenate([X, X[extra]])
        y = np.concatenate([y, y[extra]])
    model = LinearModel(X.shape[1], dataset.n_classes, hidden, seed=cfg_main.seed)
    losses = train(model, X, y, cfg_main)
    return model, {"error_set": errors, "id_model": ident, "losses": losses}


def run_poe(dataset: Dataset, corruption: CorruptionSpec,
            feature_spec: FeatureSpec, cfg_main: TrainConfig,
            cfg_biased: TrainConfig, hidden: int = 0, hidden_biased: int = 0,
            freeze_biased: bool = False):
    """Product of experts: main and corrupted-input heads are combined by
    renormalizing the product of their softmax outputs, and the CE of the
    combination trains both (or only the main head when the biased one is
    pre-trained and frozen)."""
    Xm = featurize(feature_spec, dataset.covariates)
    Xb = corrupted_features(dataset, corruption, feature_spec)
    y = dataset.labels
    main = LinearModel(Xm.shape[1], dataset.n_classes, hidden, seed=cfg_main.seed)
    biased = LinearModel(Xb.shape[1], dataset.n_classes, hidden_biased,
                         seed=cfg_biased.seed)
    epoch_features = _epoch_feature_fn(dataset, corruption, feature_spec, Xb)
    if freeze_biased:
        train(biased, Xb, y, cfg_biased, features_for_epoch=epoch_features)

    def step(Xb_e, idx):
        loss, g_main, g_biased = poe_loss_grad(
            main, biased, Xm[idx], Xb_e[idx], y[idx],
            weight_decay=cfg_main.weight_decay, update_biased=not freeze_biased)
        main.set_flat(main.get_flat() - cfg_main.lr * g_main)
        if g_biased is not None:
            biased.set_flat(biased.get_flat() - cfg_biased.lr * g_biased)
        return loss

    losses = sgd(cfg_main, Xb, step, epoch_features)
    check_finite(main, biased)
    return main, {"biased_model": biased, "losses": losses}


def run_dfl(dataset: Dataset, corruption: CorruptionSpec,
            feature_spec: FeatureSpec, cfg_main: TrainConfig,
            cfg_biased: TrainConfig, gamma: float, hidden: int = 0,
            hidden_biased: int = 0):
    """Focus training: each batch first updates the corrupted-input model by
    plain CE, then weights the main CE by (1 - p_biased[label]) ** gamma
    with the biased output held constant.  gamma 0 reproduces ERM bit for
    bit; the biased updates share the main batch schedule and never touch
    the main model's state."""
    if not 0.0 <= gamma < math.inf:
        raise ConfigError(f"gamma must be finite and >= 0, got {gamma!r}")
    Xm = featurize(feature_spec, dataset.covariates)
    Xb = corrupted_features(dataset, corruption, feature_spec)
    y = dataset.labels
    main = LinearModel(Xm.shape[1], dataset.n_classes, hidden, seed=cfg_main.seed)
    biased = LinearModel(Xb.shape[1], dataset.n_classes, hidden_biased,
                         seed=cfg_biased.seed)
    epoch_features = _epoch_feature_fn(dataset, corruption, feature_spec, Xb)

    def step(Xb_e, idx):
        b_loss, b_grad = ce_loss_grad(biased, Xb_e[idx], y[idx], None,
                                      cfg_biased.weight_decay)
        if not math.isfinite(b_loss):
            raise TrainingError("non-finite biased loss")
        biased.set_flat(biased.get_flat() - cfg_biased.lr * b_grad)
        probs = predict_proba(biased, Xb_e[idx])
        loss, grad = dfl_loss_grad(main, probs, Xm[idx], y[idx], gamma,
                                   cfg_main.weight_decay)
        main.set_flat(main.get_flat() - cfg_main.lr * grad)
        return loss

    losses = sgd(cfg_main, Xb, step, epoch_features)
    check_finite(main, biased)
    return main, {"biased_model": biased, "losses": losses}


def select_corruption(candidates, evaluate, include_identity: bool = True):
    """Pick the candidate with the highest evaluation score.

    ``evaluate`` maps a CorruptionSpec to a float (e.g. validation accuracy
    of the method run with that corruption).  The identity corruption is
    prepended unless already present, so doing nothing is always on the
    table; ties keep the earliest candidate.
    """
    specs = list(candidates)
    if include_identity and not any(s.kind == "identity" for s in specs):
        specs.insert(0, CorruptionSpec("identity", None, 0))
    if not specs:
        raise ConfigError("no corruption candidates")
    scored = [(spec, float(evaluate(spec))) for spec in specs]
    best, best_score = scored[0]
    for spec, score in scored[1:]:
        if score > best_score:
            best, best_score = spec, score
    return best, best_score, scored
