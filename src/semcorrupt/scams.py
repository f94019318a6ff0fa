"""Spurious-correlation-avoiding methods driven by semantic corruptions.

Four routines share one recipe: train an auxiliary model on corrupted
covariates (which can only pick up what survives the corruption, i.e. the
nuisance side), then use it to reweight, upsample, factor out, or focus the
main model, which always sees the original covariates.  At neutral settings
(upsample factor 1, focus exponent 0) the routines reproduce plain ERM bit
for bit because batch schedules depend only on (seed, epoch).  A routine's
main and auxiliary models both have ``hidden`` hidden units (0: linear).
A :class:`FeatureStore` is the one way a dataset and its feature spec
reach a routine: every routine takes it first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .corruptions import KINDS, CorruptionSpec, apply_all, apply_rows, batch_shape, shuffle_source
from .errors import ConfigError, TrainingError
from .families import Dataset
from .rng import derive_seed
from .learner import (
    FeatureSpec,
    LinearModel,
    NgramLayout,
    TrainConfig,
    ce_loss_grad,
    check_finite,
    dfl_loss_grad,
    featurize,
    minibatch_plan,
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
    and featurize the results, read-only: one draw of a new FeatureStore."""
    return FeatureStore(dataset, feature_spec).corrupted(spec)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class FeatureStore:
    """The pure work every method trained on one dataset with one feature
    spec shares, handed out read-only:

    * :meth:`clean`, the features of the untouched covariates, computed
      once;
    * :meth:`corrupted`, each corrupted draw, made afresh on every request
      (so every per-epoch redraw seed is a draw of its own).  N-gram
      shuffles under bag-of-n-gram features are shuffled token ids counted
      over one :class:`NgramLayout` of the dataset, built once; a grid kind
      with a batch kernel on grids of one shape (:func:`batch_shape`) is
      one :func:`apply_rows` call over the clean features;
    * :meth:`plan`, each :func:`minibatch_plan` as it is drawn: its batches
      are views of its own read-only order array.

    Every ``run_*`` routine takes a store; a sweep builds one per training
    set and passes it to every method."""

    def __init__(self, dataset: Dataset, feature_spec: FeatureSpec):
        self.dataset = dataset
        self.feature_spec = feature_spec
        self._clean = None
        self._layout = None
        self._plans = {}

    def clean(self) -> np.ndarray:
        if self._clean is None:
            self._clean = _read_only(featurize(self.feature_spec, self.dataset.covariates))
        return self._clean

    def corrupted(self, spec: CorruptionSpec) -> np.ndarray:
        """``featurize(feature_spec, apply_all(spec, covariates))``, the one
        path from a dataset and a corruption to features (the clean features
        for ``identity``, which changes nothing)."""
        if spec.kind == "identity":
            return self.clean()
        covs = self.dataset.covariates
        if spec.kind == "ngram_randomize" and self.feature_spec.kind == "bag_of_ngrams":
            if self._layout is None:
                self._layout = NgramLayout(self.feature_spec, covs)
            layout = self._layout
            return _read_only(layout.counts(layout.ids[shuffle_source(spec, layout.lengths)]))
        shape = batch_shape(spec, covs) if self.feature_spec.kind == "flatten_grid" else None
        if shape is not None:
            drawn = apply_rows(spec, self.clean().reshape(len(covs), *shape))
            return _read_only(drawn.reshape(len(covs), -1))
        return _read_only(featurize(self.feature_spec, apply_all(spec, covs)))

    def epoch_features(self, spec: CorruptionSpec, first_epoch: np.ndarray):
        """Per-epoch corrupted features: epoch 0 is ``first_epoch``, the
        draw under ``spec``; later epochs redraw the corruption noise from an
        epoch-derived seed.  None for deterministic corruptions (nothing to
        redraw)."""
        if not KINDS[spec.kind].stochastic:
            return None

        def features(epoch: int) -> np.ndarray:
            if epoch == 0:
                return first_epoch
            return self.corrupted(
                replace(spec, seed=derive_seed(spec.seed, _EPOCH_NOISE_TAG, epoch)))

        return features

    def plan(self, n: int, batch_size: int, seed: int, epoch: int) -> tuple:
        """:func:`minibatch_plan`'s batches for these arguments."""
        key = (n, batch_size, seed, epoch)
        if key not in self._plans:
            self._plans[key] = minibatch_plan(n, batch_size, seed, epoch)
        return self._plans[key]


@dataclass
class BiasedModel:
    """Label predictor trained on corrupted covariates only."""

    model: LinearModel
    corruption: CorruptionSpec
    class_marginal: np.ndarray

    def class_probs(self, features: np.ndarray) -> np.ndarray:
        """p(label | corrupted covariate) per row of ``features``, the
        corrupted features, clipped into [WEIGHT_CLIP, 1 - WEIGHT_CLIP] so
        downstream ratios stay bounded."""
        return np.clip(predict_proba(self.model, features), WEIGHT_CLIP, 1.0 - WEIGHT_CLIP)


def _fit_biased(store: FeatureStore, corruption: CorruptionSpec, X: np.ndarray,
                cfg: TrainConfig, hidden: int) -> BiasedModel:
    dataset = store.dataset
    model = LinearModel(X.shape[1], dataset.n_classes, hidden, seed=cfg.seed)
    train(model, X, dataset.labels, cfg,
          features_for_epoch=store.epoch_features(corruption, X), plan=store.plan)
    counts = np.bincount(dataset.labels, minlength=dataset.n_classes)
    return BiasedModel(model, corruption, counts / len(dataset))


def build_biased_model(store: FeatureStore, corruption: CorruptionSpec,
                       cfg: TrainConfig, hidden: int = 0) -> BiasedModel:
    """Fit the auxiliary predictor on corrupted covariates.

    Stochastic corruptions are redrawn every epoch so the fit targets the
    noise-averaged relationship rather than one frozen draw; deterministic
    corruptions are computed once.
    """
    return _fit_biased(store, corruption, store.corrupted(corruption), cfg, hidden)


WEIGHT_POSTERIOR_FLOOR = 0.05


def nurd_weights(biased: BiasedModel, dataset: Dataset, features: np.ndarray) -> np.ndarray:
    """Importance weights marginal(y) / p_biased(y | corrupted x), one
    fixed corruption draw per example (``features``).

    The denominator posterior is truncated into
    [WEIGHT_POSTERIOR_FLOOR, 1 - WEIGHT_POSTERIOR_FLOOR] before dividing:
    an over-parameterized auxiliary model spreads its per-example
    posteriors around the calibrated value, and the reciprocal turns that
    spread into a handful of examples carrying most of the weight mass.
    Truncation caps any single weight at marginal / floor and leaves
    posteriors milder than the floor untouched.  Softmax shift-invariance
    is unaffected, so weights remain invariant to rescaling the auxiliary
    model's unnormalized outputs."""
    probs = biased.class_probs(features)
    probs = np.clip(probs, WEIGHT_POSTERIOR_FLOOR, 1.0 - WEIGHT_POSTERIOR_FLOOR)
    picked = probs[np.arange(len(dataset)), dataset.labels]
    return biased.class_marginal[dataset.labels] / picked


def run_nurd(store: FeatureStore, corruption: CorruptionSpec, cfg_main: TrainConfig,
             cfg_biased: TrainConfig, hidden: int = 0):
    """Reweighted ERM: the weights push the training distribution toward
    the one where label and nuisance are independent.  Weights are rescaled
    to mean one before training, which leaves the optimum untouched but
    keeps the effective learning rate comparable across corruptions.  The
    biased model's epoch-0 draw is the one the weights are computed on."""
    dataset = store.dataset
    Xb = store.corrupted(corruption)
    biased = _fit_biased(store, corruption, Xb, cfg_biased, hidden)
    weights = nurd_weights(biased, dataset, Xb)
    del Xb
    X = store.clean()
    model = LinearModel(X.shape[1], dataset.n_classes, hidden, seed=cfg_main.seed)
    losses = train(model, X, dataset.labels, cfg_main,
                   sample_weights=weights * (len(weights) / weights.sum()),
                   plan=store.plan)
    return model, {"weights": weights, "biased": biased, "losses": losses}


def jtt_error_set(store: FeatureStore, corruption: CorruptionSpec, cfg_id: TrainConfig,
                  hidden: int = 0):
    """Indices the corrupted-input identification model gets wrong,
    ascending."""
    dataset = store.dataset
    X = store.corrupted(corruption)
    ident = LinearModel(X.shape[1], dataset.n_classes, hidden, seed=cfg_id.seed)
    train(ident, X, dataset.labels, cfg_id, plan=store.plan)
    wrong = predict(ident, X) != dataset.labels
    return np.flatnonzero(wrong), ident


def run_jtt(store: FeatureStore, corruption: CorruptionSpec, cfg_main: TrainConfig,
            cfg_id: TrainConfig, lambda_up: int, hidden: int = 0):
    """Upsample the identification model's error set lambda_up times.

    The augmented set is every original in order followed by lambda_up - 1
    extra copies of each error index; lambda_up 1 therefore reduces to ERM
    on the untouched dataset, bit for bit.
    """
    if lambda_up < 1:
        raise ConfigError("lambda_up must be >= 1")
    errors, ident = jtt_error_set(store, corruption, cfg_id, hidden)
    X = store.clean()
    y = store.dataset.labels
    if lambda_up > 1 and len(errors):
        extra = np.repeat(errors, lambda_up - 1)
        X = np.concatenate([X, X[extra]])
        y = np.concatenate([y, y[extra]])
    model = LinearModel(X.shape[1], store.dataset.n_classes, hidden, seed=cfg_main.seed)
    losses = train(model, X, y, cfg_main, plan=store.plan)
    return model, {"error_set": errors, "id_model": ident, "losses": losses}


def _fit_jointly(store: FeatureStore, corruption: CorruptionSpec, cfg_main: TrainConfig,
                 cfg_biased: TrainConfig, hidden: int, step_for):
    """The loop PoE and DFL share: a main model on the clean features and a
    biased one on the corrupted features (redrawn each epoch when the
    corruption is stochastic), trained together on the main model's batch
    schedule by the :func:`sgd` step ``step_for(main, biased, Xm, y)``."""
    Xm = store.clean()
    Xb = store.corrupted(corruption)
    n_classes = store.dataset.n_classes
    main = LinearModel(Xm.shape[1], n_classes, hidden, seed=cfg_main.seed)
    biased = LinearModel(Xb.shape[1], n_classes, hidden, seed=cfg_biased.seed)
    step = step_for(main, biased, Xm, store.dataset.labels)
    losses = sgd(cfg_main, Xb, step, store.epoch_features(corruption, Xb), store.plan)
    check_finite(main, biased)
    return main, {"biased_model": biased, "losses": losses}


def run_poe(store: FeatureStore, corruption: CorruptionSpec, cfg_main: TrainConfig,
            cfg_biased: TrainConfig, hidden: int = 0):
    """Product of experts: main and corrupted-input heads are combined by
    renormalizing the product of their softmax outputs, and the CE of the
    combination trains both."""

    def step_for(main, biased, Xm, y):
        def step(Xb_e, idx):
            loss, g_main, g_biased = poe_loss_grad(main, biased, Xm[idx], Xb_e[idx], y[idx],
                                                   cfg_main.weight_decay)
            main.descend(cfg_main.lr, g_main)
            biased.descend(cfg_biased.lr, g_biased)
            return loss
        return step

    return _fit_jointly(store, corruption, cfg_main, cfg_biased, hidden, step_for)


def run_dfl(store: FeatureStore, corruption: CorruptionSpec, cfg_main: TrainConfig,
            cfg_biased: TrainConfig, gamma: float, hidden: int = 0):
    """Focus training: each batch first updates the corrupted-input model by
    plain CE, then weights the main CE by (1 - p_biased[label]) ** gamma
    with the biased output held constant.  gamma 0 reproduces ERM bit for
    bit; the biased updates share the main batch schedule and never touch
    the main model's state."""
    if not 0.0 <= gamma < math.inf:
        raise ConfigError(f"gamma must be finite and >= 0, got {gamma!r}")

    def step_for(main, biased, Xm, y):
        def step(Xb_e, idx):
            xb, yb = Xb_e[idx], y[idx]
            b_loss, b_grad = ce_loss_grad(biased, xb, yb, None, cfg_biased.weight_decay)
            if not math.isfinite(b_loss):
                raise TrainingError("non-finite biased loss")
            biased.descend(cfg_biased.lr, b_grad)
            probs = predict_proba(biased, xb)
            loss, grad = dfl_loss_grad(main, probs, Xm[idx], yb, gamma,
                                       cfg_main.weight_decay)
            main.descend(cfg_main.lr, grad)
            return loss
        return step

    return _fit_jointly(store, corruption, cfg_main, cfg_biased, hidden, step_for)


def select_corruption(candidates, evaluate):
    """Pick the candidate with the highest evaluation score.

    ``evaluate`` maps a CorruptionSpec to a float (e.g. validation accuracy
    of the method run with that corruption).  The identity corruption is
    prepended unless already present, so doing nothing is always on the
    table (with no candidates it is the choice); ties keep the earliest
    candidate.
    """
    specs = list(candidates)
    if not any(s.kind == "identity" for s in specs):
        specs.insert(0, CorruptionSpec("identity", None, 0))
    scored = [(spec, float(evaluate(spec))) for spec in specs]
    best, best_score = max(scored, key=lambda pair: pair[1])
    return best, best_score, scored
