"""Featurization, linear/MLP models, losses with analytic gradients, SGD.

Everything here is deterministic given the seeds.  Batch schedules come
from :func:`minibatch_plan` so that two training loops with the same seed
visit identical batches; the debiasing routines rely on that to reduce
exactly to plain ERM at their neutral settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, pairwise

import numpy as np

from .corruptions import Grid, GridRows, token_segments
from .errors import DispatchError, TrainingError
from .rng import Stream, as_words, below_rows, derive_seed, derive_seeds

_SHUFFLE_TAG = 101
_INIT_TAG = 102

_FEATURE_KINDS = ("flatten_grid", "bag_of_ngrams", "raw_vector")


@dataclass(frozen=True)
class FeatureSpec:
    """How to turn covariates into fixed-length float vectors.

    ``bag_of_ngrams`` hashes every 1..ngram-gram of each sentence of a pair
    into ``buckets`` counting bins (mask tokens count like any other id) and
    concatenates the premise's vector and the hypothesis's, the one layout
    (``pair_mode``) that every model header records.
    """

    kind: str
    ngram: int = 2
    buckets: int = 64
    pair_mode = "concat"           # a constant, not a field

    def __post_init__(self):
        if self.kind not in _FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.ngram < 1 or self.buckets < 1:
            raise ValueError(f"ngram and buckets must be >= 1, not {self.ngram}, {self.buckets}")


class NgramLayout:
    """Where every n-gram window of some sentence pairs lands in their
    ``bag_of_ngrams`` matrix, built once: the flat token ids, the segment
    lengths (premise then hypothesis of each pair) and, per window, its
    first token and its row's first cell.  :meth:`counts` hashes and counts
    the windows of any ids in the same segments, such as the flat ids after
    an n-gram shuffle, which keeps every length."""

    def __init__(self, spec: FeatureSpec, covariates):
        seqs = token_segments(covariates)
        self.buckets = spec.buckets
        self.examples = len(covariates)
        self.lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
        try:
            self.ids = np.fromiter(chain.from_iterable(seqs), np.uint64,
                                   int(self.lengths.sum()))
        except OverflowError:   # ids of 2**64 and above
            self.ids = as_words([t for seq in seqs for t in seq])
        segment = np.repeat(np.arange(len(seqs)), self.lengths)
        room = np.repeat(np.cumsum(self.lengths), self.lengths) - np.arange(len(self.ids))
        # no window outgrows the longest sentence; one list stays if all are empty
        top = max(1, min(spec.ngram, int(self.lengths.max(initial=0))))
        self.windows = [np.flatnonzero(room >= n) for n in range(1, top + 1)]
        self.cells = np.concatenate([segment[at] * self.buckets for at in self.windows])

    def counts(self, ids: np.ndarray) -> np.ndarray:
        """The (examples, d) float64 count matrix of the windows of ``ids``,
        flat token ids in this layout's segments: each window counts in
        bucket ``derive_seed(n, *window) % buckets`` of its row, one
        :func:`derive_seeds` call per n-gram length ``n``."""
        if not self.examples:
            return np.zeros((0, 0))
        buckets = np.concatenate([
            derive_seeds(n, *(ids[at + k] for k in range(n))) % np.uint64(self.buckets)
            for n, at in enumerate(self.windows, 1)])
        # int64, as the cells: int64 plus uint64 would promote to float64
        cells = self.cells + buckets.astype(np.int64)
        # unit weights count in float64 directly, exact below 2**53 (with no
        # window at all, bincount returns int64 zeros, cast here)
        counts = np.bincount(cells, np.ones(len(cells)), len(self.lengths) * self.buckets)
        return counts.astype(np.float64, copy=False).reshape(self.examples, -1)


def featurize(spec: FeatureSpec, covariates) -> np.ndarray:
    """Stack per-example feature vectors into an (n, d) float64 matrix.
    Flattened :class:`~semcorrupt.corruptions.GridRows` are a read-only
    view of their block, not a copy."""
    if spec.kind == "flatten_grid" and isinstance(covariates, GridRows) and covariates:
        return covariates.block.reshape(len(covariates), -1)
    covariates = list(covariates)
    if not covariates:
        return np.zeros((0, 0))
    if spec.kind == "bag_of_ngrams":   # hashed as arrays, as the store's n-gram draws
        layout = NgramLayout(spec, covariates)
        return layout.counts(layout.ids)
    if spec.kind == "flatten_grid":
        if not all(isinstance(c, Grid) for c in covariates):
            raise DispatchError("flatten_grid expects a Grid")
        return np.stack([c.values.reshape(-1) for c in covariates])
    return np.stack([np.asarray(c, dtype=np.float64).ravel() for c in covariates])


def layer_widths(n_features: int, n_classes: int, hidden: int) -> list:
    """The input width of every layer of a model, then its output width."""
    return [n_features, hidden, n_classes] if hidden else [n_features, n_classes]


class LinearModel:
    """Multinomial logistic regression, optionally with one tanh hidden layer.

    A list of layers: layer k maps width k of :func:`layer_widths` to width
    k + 1 through ``weights[k]`` and ``biases[k]``, and all but the last
    through tanh.  The linear form starts at zero; the hidden form draws
    uniform +-1/sqrt(fan_in) entries, layer by layer, from a stream derived
    from ``seed``.  ``feature_spec`` is the featurization its inputs come
    from, when known; ``save_model`` records it and ``semcorrupt eval``
    featurizes with it.
    """

    feature_spec: FeatureSpec | None = None

    def __init__(self, n_features: int, n_classes: int, hidden: int = 0, seed: int = 0):
        if n_features < 1 or n_classes < 2:
            raise ValueError("need n_features >= 1 and n_classes >= 2")
        if hidden < 0:
            raise ValueError("hidden must be >= 0")
        self.n_features = n_features
        self.n_classes = n_classes
        self.hidden = hidden
        shapes = list(pairwise(layer_widths(n_features, n_classes, hidden)))
        if hidden:
            stream = Stream(derive_seed(seed, _INIT_TAG))
            weights = [((stream.uniforms(a * b) * 2.0 - 1.0) / math.sqrt(a)).reshape(a, b)
                       for a, b in shapes]
        else:
            weights = [np.zeros(shape) for shape in shapes]
        biases = [np.zeros(b) for _, b in shapes]
        self._hold([p for layer in zip(weights, biases) for p in layer])

    def _hold(self, params: list) -> None:
        """Keep ``params``, the parameter arrays in flat order (W then b per
        layer), as the tuple :attr:`params` and its :attr:`weights` and
        :attr:`biases`: tuples, so the arrays are written in place, never
        rebound."""
        self.params = tuple(params)
        self.weights, self.biases = self.params[0::2], self.params[1::2]

    def forward(self, X: np.ndarray):
        """Return (logits, the input of every layer, ``X`` first)."""
        p = self.params
        inputs = [X]
        for k in range(0, len(p) - 2, 2):
            inputs.append(np.tanh(inputs[-1] @ p[k] + p[k + 1]))
        return inputs[-1] @ p[-2] + p[-1], inputs

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self.forward(X)[0]

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params])

    def _slices(self, flat: np.ndarray):
        """Each parameter array with its slice of ``flat``, shaped like it."""
        at = 0
        for p in self.params:
            yield p, flat[at : at + p.size].reshape(p.shape)
            at += p.size

    def set_flat(self, flat: np.ndarray) -> None:
        """Copy ``flat`` into :attr:`params`; a wrong length changes nothing."""
        if flat.size != sum(p.size for p in self.params):
            raise ValueError("flat vector has wrong length")
        for p, part in self._slices(flat):
            p[...] = part

    def descend(self, lr: float, grad: np.ndarray) -> None:
        """One SGD step in place, the same IEEE operations as
        ``set_flat(get_flat() - lr * grad)``."""
        for p, part in self._slices(grad):
            p -= lr * part


def log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict_proba(model: LinearModel, X: np.ndarray) -> np.ndarray:
    return softmax(model.logits(X))


def predict(model: LinearModel, X: np.ndarray) -> np.ndarray:
    return np.argmax(model.logits(X), axis=1)


def _decay_penalty(model: LinearModel, weight_decay: float) -> float:
    if weight_decay == 0.0:
        return 0.0
    return 0.5 * weight_decay * sum(float((w * w).sum()) for w in model.weights)


def _backprop(model: LinearModel, inputs: list, dout: np.ndarray,
              weight_decay: float) -> np.ndarray:
    # dout starts as the logits' gradient; decay applies to weights only
    parts = []
    for k in reversed(range(len(model.weights))):
        a = inputs[k]
        dw = a.T @ dout
        if weight_decay != 0.0:
            dw = dw + weight_decay * model.weights[k]
        parts[:0] = [dw.ravel(), dout.sum(axis=0)]
        if k:
            dout = (dout @ model.weights[k].T) * (1.0 - a * a)
    return np.concatenate(parts)


def ce_loss_grad(model: LinearModel, X: np.ndarray, y: np.ndarray,
                 sample_weights: np.ndarray | None = None,
                 weight_decay: float = 0.0):
    """Weighted cross entropy: sum_i w_i * nll_i / batch, plus L2 on weights.

    Returns (loss, flat gradient).  Weights of exactly 1.0 give the same
    bits as no weights.
    """
    n = len(y)
    logits, inputs = model.forward(X)
    ls = log_softmax(logits)
    nll = -ls[np.arange(n), y]
    diff = np.exp(ls)
    diff[np.arange(n), y] -= 1.0
    if sample_weights is not None:
        if not np.all(np.isfinite(sample_weights)):
            raise TrainingError("non-finite sample weight")
        nll = sample_weights * nll
        diff = sample_weights[:, None] * diff
    loss = float(nll.sum()) / n + _decay_penalty(model, weight_decay)
    grad = _backprop(model, inputs, diff / n, weight_decay)
    return loss, grad


def poe_loss_grad(main: LinearModel, biased: LinearModel,
                  X_main: np.ndarray, X_biased: np.ndarray, y: np.ndarray,
                  weight_decay: float = 0.0):
    """Cross entropy of the renormalized product of the two softmax heads.

    The combined score is the sum of the two log-softmax outputs; the loss
    is the CE of its softmax.  Returns (loss, main grad, biased grad).
    Decay applies to the main model only.
    """
    n = len(y)
    lm, inputs_main = main.forward(X_main)
    lb, inputs_biased = biased.forward(X_biased)
    sm = log_softmax(lm)
    sb = log_softmax(lb)
    joint = log_softmax(sm + sb)
    nll = -joint[np.arange(n), y]
    loss = float(nll.sum()) / n + _decay_penalty(main, weight_decay)
    ds = np.exp(joint)
    ds[np.arange(n), y] -= 1.0
    ds /= n
    # chain through each log-softmax: J^T v = v - softmax(l) * rowsum(v)
    row = ds.sum(axis=1, keepdims=True)
    d_lm = ds - softmax(lm) * row
    d_lb = ds - softmax(lb) * row
    return (loss, _backprop(main, inputs_main, d_lm, weight_decay),
            _backprop(biased, inputs_biased, d_lb, 0.0))


def focus_weights(biased_probs: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """Per-example focus weights (1 - p_biased[true class]) ** gamma.

    gamma 0 yields exact ones, so downstream arithmetic matches unweighted
    training bit for bit.
    """
    picked = biased_probs[np.arange(len(y)), y]
    return np.power(1.0 - picked, gamma)


def dfl_loss_grad(main: LinearModel, biased_probs: np.ndarray,
                  X: np.ndarray, y: np.ndarray, gamma: float,
                  weight_decay: float = 0.0):
    """Focus-weighted CE for the main model; the biased probabilities are
    treated as constants (no gradient flows into them)."""
    w = focus_weights(biased_probs, y, gamma)
    return ce_loss_grad(main, X, y, sample_weights=w, weight_decay=weight_decay)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    lr: float
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad training configuration")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError(f"weight decay must be finite and >= 0, got {self.weight_decay}")


def minibatch_plan(n: int, batch_size: int, seed: int, epoch: int) -> tuple:
    """Batch index arrays for one epoch: views of one read-only order array in
    the smallest unsigned dtype.  The order is ``Stream(derive_seed(seed,
    _SHUFFLE_TAG, epoch)).shuffle`` of ``range(n)`` drawn as one :func:`below_rows`
    row, so distinct loops with the same (seed, epoch) share a schedule."""
    order = list(range(n))
    draws = below_rows(derive_seed(seed, _SHUFFLE_TAG, epoch), np.arange(n, 1, -1))[0]
    for i, j in zip(range(n - 1, 0, -1), draws.tolist()):
        order[i], order[j] = order[j], order[i]
    order = np.array(order, dtype=np.min_scalar_type(n))
    order.flags.writeable = False
    return tuple(order[s : s + batch_size] for s in range(0, n, batch_size))


def sgd(cfg: TrainConfig, X: np.ndarray, step, features_for_epoch=None,
        plan=None) -> list:
    """The SGD epoch loop of every trainer; returns per-epoch mean losses.

    Each epoch runs ``step(X_epoch, batch_index)``, which updates the models
    and returns the batch's mean loss, on every batch of ``plan`` (a
    function with :func:`minibatch_plan`'s arguments and batches, by
    default that one) over ``X`` or ``features_for_epoch(epoch)``, redrawn
    each epoch."""
    plan = plan or minibatch_plan
    losses = []
    for epoch in range(cfg.epochs):
        Xe = X if features_for_epoch is None else features_for_epoch(epoch)
        total = 0.0
        for idx in plan(len(X), cfg.batch_size, cfg.seed, epoch):
            loss = step(Xe, idx)
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            total += loss * len(idx)
        losses.append(total / len(X))
        del Xe   # the next epoch's draw is made without this one alive
    return losses


def train(model: LinearModel, X: np.ndarray, y: np.ndarray, cfg: TrainConfig,
          sample_weights: np.ndarray | None = None,
          features_for_epoch=None, plan=None) -> list:
    """Plain SGD on the weighted CE; returns per-epoch mean losses.

    ``features_for_epoch`` (epoch -> matrix) substitutes a fresh feature
    matrix each epoch, for inputs whose noise should be redrawn rather than
    frozen; the labels and batch schedule are unaffected.  ``plan`` is
    passed to :func:`sgd`.
    """
    if len(y) == 0:
        raise TrainingError("cannot train on an empty dataset")

    def step(Xe, idx):
        w = None if sample_weights is None else sample_weights[idx]
        loss, grad = ce_loss_grad(model, Xe[idx], y[idx], w, cfg.weight_decay)
        model.descend(cfg.lr, grad)
        return loss

    losses = sgd(cfg, X, step, features_for_epoch, plan)
    check_finite(model)
    return losses


def check_finite(*models: LinearModel) -> None:
    """Raise TrainingError when the last step left non-finite parameters;
    the per-step loss checks only see the parameters a step started from."""
    if not all(np.all(np.isfinite(m.get_flat())) for m in models):
        raise TrainingError("non-finite parameters after the last step")


def accuracy(model: LinearModel, X: np.ndarray, y: np.ndarray) -> float:
    if len(y) == 0:
        raise ValueError("empty evaluation set")
    return float((predict(model, X) == y).mean())
