"""Covariate types and the semantic-corruption transforms.

A corruption removes the semantic content of a covariate while keeping the
nuisance content intact, so a model trained on corrupted inputs can only
predict from the nuisance.  Every transform here is a pure function: the same
input, parameters, and seed give a bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np
from numpy import fft   # loaded with this module, so a sweep's forked workers inherit it

from .errors import DispatchError, SizingError
from .rng import (Stream, as_words, below_rows, box_muller, derive_seed, derive_seeds,
                  stream_words, uniform_words)


class Grid:
    """Image-like covariate: (height, width, channels) floats.

    Values must be finite.  Construction rejects values outside [0, 1]
    unless ``unit_range=False``; high-pass filtering legitimately produces
    values outside the unit interval, so its outputs opt out of the check.
    """

    __slots__ = ("values",)

    def __init__(self, values, *, unit_range: bool = True):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3:
            raise SizingError(f"grid needs 2 or 3 dims, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise SizingError(f"grid dims must be positive, got {arr.shape}")
        self.values = grid_rows(arr[np.newaxis].copy(), unit_range=unit_range)[0].values


@dataclass(frozen=True)
class TokenSeq:
    """Token-id sequence with a distinguished MASK id."""

    tokens: tuple
    mask_id: int = 0

    def __post_init__(self):
        toks = tuple(int(t) for t in self.tokens)
        if any(t < 0 for t in toks):
            raise ValueError("token ids must be non-negative")
        if self.mask_id < 0:
            raise ValueError("mask id must be non-negative")
        object.__setattr__(self, "tokens", toks)

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class SentencePair:
    """Premise/hypothesis pair sharing one token space."""

    premise: TokenSeq
    hypothesis: TokenSeq

    def __post_init__(self):
        if self.premise.mask_id != self.hypothesis.mask_id:
            raise ValueError("premise and hypothesis must share a mask id")


# ---------------------------------------------------------------------------
# grid corruptions
#
# Each kind below is a kernel over a (rows, h, w, c) array of grid values,
# with one stream seed per row for the stochastic ones; the per-example
# function is the kernel's one-row call.

# Rows per array call of image generation, and per inner step of the two
# kernels whose working set grows with their rows, freq_filter_rows (its
# complex spectrum) and gauss_noise_rows (its stream words).  On 1500 32x32
# rows (best of 5 x 5 calls, three runs, 2 vCPU, numpy 2.4; tracemalloc
# peaks), one call against 64-row steps: freq_filter_rows 30 102-124 ms and
# 82 MiB against 44-73 ms and 15 MiB, gauss_noise_rows 70-76 ms and 59 MiB
# against 47-62 ms and 14 MiB.  The other kernels run as one call:
# patch_rows 8 took 3.2-6.2 ms, against 5.9-11.3 ms in 64-row chunks.
# harness.save_dataset and load_dataset move grid payloads this many rows
# at a time too, so saving or loading a dataset holds its float64 block and
# at most one chunk beside it.
GRID_CHUNK = 64


class GridRows(tuple):
    """The Grids of one frozen (rows, h, w, c) array, one per row in order,
    each holding a read-only view of its row; ``block`` is that array.  A
    tuple, so that no append or reordering parts the rows from their block
    (a slice or a reordered copy is a plain tuple or list).  Made by
    :func:`grid_rows`."""


def grid_rows(values: np.ndarray, *, unit_range: bool = True) -> GridRows:
    """The :class:`GridRows` of a (rows, h, w, c) array, its values checked
    once for the whole array (the checks of every :class:`Grid`) from its
    minimum and maximum alone, so that no mask of the array's size is made.
    The array itself is frozen and becomes their block."""
    # initial= lets an empty array through, as a dataset of no examples; a
    # NaN anywhere makes the minimum NaN, an infinity the minimum or maximum
    low, high = values.min(initial=0.0), values.max(initial=1.0)
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("grid values must be finite")
    if unit_range and (low < 0.0 or high > 1.0):
        raise ValueError("grid values must lie in [0, 1]")
    values = np.ascontiguousarray(values)
    values.flags.writeable = False
    out = []
    for row in values:
        grid = Grid.__new__(Grid)
        grid.values = row
        out.append(grid)
    rows = GridRows(out)
    rows.block = values
    return rows


def grid_values(covariates) -> np.ndarray:
    """The (rows, h, w, c) values of grids of one shape: the block of
    :class:`GridRows`, read in place, or else the rows stacked afresh."""
    if isinstance(covariates, GridRows):
        return covariates.block
    return np.stack([c.values for c in covariates])


def pair_rows(premises: list, hypotheses: list, mask_ids: list) -> list:
    """One SentencePair per row of premise tokens, hypothesis tokens and
    mask id, checked as :class:`TokenSeq` checks but once for the whole
    batch.  The token tuples must hold Python ints and are kept as given."""
    if min(chain.from_iterable(premises + hypotheses), default=0) < 0:
        raise ValueError("token ids must be non-negative")
    if min(mask_ids, default=0) < 0:
        raise ValueError("mask id must be non-negative")
    # set as the dataclasses' __init__ sets them: reading an object's
    # __dict__ would give each object a dict of its own, about 450 bytes a pair
    put, out = object.__setattr__, []
    for premise, hypothesis, mask_id in zip(premises, hypotheses, mask_ids, strict=True):
        first, second = TokenSeq.__new__(TokenSeq), TokenSeq.__new__(TokenSeq)
        put(first, "tokens", premise)
        put(first, "mask_id", mask_id)
        put(second, "tokens", hypothesis)
        put(second, "mask_id", mask_id)
        pair = SentencePair.__new__(SentencePair)
        put(pair, "premise", first)
        put(pair, "hypothesis", second)
        out.append(pair)
    return out


def _one_row(kernel, grid: Grid, *args) -> Grid:
    return Grid(kernel(grid.values[np.newaxis], *args)[0], unit_range=False)


def swap_down(order: np.ndarray, draws: np.ndarray) -> None:
    """Fisher-Yates on every row of ``order`` at once: step ``k`` swaps
    column ``i = width - 1 - k`` with column ``draws[:, k]``, for each
    column of ``draws`` (``width - 1`` of them shuffle the whole row)."""
    every = np.arange(len(order))
    for step in range(draws.shape[1]):
        i, j = order.shape[1] - 1 - step, draws[:, step]
        held = order[:, i].copy()
        order[:, i] = order[every, j]
        order[every, j] = held


def patch_rows(values: np.ndarray, patch: int, seeds: np.ndarray) -> np.ndarray:
    """Batch form of :func:`patch_randomize`: row ``r`` shuffles its patches
    with ``Stream(seeds[r]).shuffle``.  The draws of all rows come from
    :func:`~semcorrupt.rng.below_rows` and each Fisher-Yates step swaps
    across all rows at once.

    The values move as one gather of patch-row runs (``patch * c``
    contiguous values each): output run ``(r, i, y, j)`` reads source run
    ``((r * ph + p_i) * patch + y) * pw + p_j``, where
    ``(p_i, p_j) = divmod(perm[r, i * pw + j], pw)``."""
    if patch < 1:
        raise SizingError("patch must be >= 1")
    rows, h, w, c = values.shape
    if h % patch or w % patch:
        raise SizingError(f"patch {patch} must divide height {h} and width {w}")
    ph, pw = h // patch, w // patch
    count = ph * pw
    perm = np.tile(np.arange(count), (rows, 1))
    swap_down(perm, below_rows(seeds, np.arange(count, 1, -1)))
    p_i, p_j = np.divmod(perm.reshape(rows, ph, 1, pw), pw)
    row_base = np.arange(rows).reshape(rows, 1, 1, 1) * ph
    src = ((row_base + p_i) * patch + np.arange(patch).reshape(patch, 1)) * pw + p_j
    runs = np.ascontiguousarray(values).reshape(rows * h * pw, patch * c)
    return np.take(runs, src.reshape(-1), axis=0).reshape(rows, h, w, c)


def patch_randomize(grid: Grid, patch: int, seed: int) -> Grid:
    """Shuffle non-overlapping patch x patch blocks of the grid.

    The permutation is Fisher-Yates over patch indices in row-major order;
    output slot ``i`` receives input patch ``perm[i]``.  The pixel multiset
    is preserved exactly.  This is the one-row call of :func:`patch_rows`.
    """
    return _one_row(patch_rows, grid, patch, as_words(seed))


def roi_mask_rows(values: np.ndarray, size: int) -> np.ndarray:
    """Batch form of :func:`roi_mask`."""
    _, h, w, _ = values.shape
    if size < 0 or size > min(h, w):
        raise SizingError(f"mask size {size} must lie in [0, {min(h, w)}]")
    out = values.copy()
    r0 = (h - size) // 2
    c0 = (w - size) // 2
    out[:, r0 : r0 + size, c0 : c0 + size, :] = 0.0
    return out


def roi_mask(grid: Grid, size: int) -> Grid:
    """Zero a centered size x size square; offset floor((dim - size) / 2)."""
    return _one_row(roi_mask_rows, grid, size)


def freq_filter_rows(values: np.ndarray, cutoff: int) -> np.ndarray:
    """Batch form of :func:`freq_filter`: one ``fft2`` over axes (1, 2) per
    ``GRID_CHUNK`` rows, the inverse written over the spectrum."""
    _, h, w, _ = values.shape
    if cutoff < 0 or cutoff > min(h, w):
        raise SizingError(f"cutoff {cutoff} must lie in [0, {min(h, w)}]")
    if cutoff == 0:
        return values.copy()
    r0 = h // 2 - cutoff // 2
    c0 = w // 2 - cutoff // 2
    shifted = np.zeros((h, w), dtype=bool)
    shifted[r0 : r0 + cutoff, c0 : c0 + cutoff] = True
    mask = fft.ifftshift(shifted)
    # close under frequency negation: mirror[u, v] = mask[-u mod h, -v mod w]
    mask |= np.roll(mask[::-1, ::-1], (1, 1), axis=(0, 1))
    out = np.empty(values.shape)
    for at in range(0, len(values), GRID_CHUNK):
        spec = fft.fft2(values[at : at + GRID_CHUNK], axes=(1, 2))
        spec[:, mask] = 0.0
        out[at : at + GRID_CHUNK] = fft.ifft2(spec, axes=(1, 2), out=spec).real
    return out


def freq_filter(grid: Grid, cutoff: int) -> Grid:
    """Remove the lowest frequencies: zero a centered cutoff x cutoff square
    of the zero-frequency-centered 2D spectrum, per channel.

    The zeroed set is closed under frequency negation (each bin's conjugate
    mirror is zeroed with it), so on real-valued grids the map is an exact
    linear projection: applying it twice changes nothing.  The output is the
    real part of the inverse transform, unclamped, so values may leave [0, 1].
    This is the one-row call of :func:`freq_filter_rows`.
    """
    return _one_row(freq_filter_rows, grid, cutoff)


def intensity_filter_rows(values: np.ndarray, threshold: float) -> np.ndarray:
    """Batch form of :func:`intensity_filter`."""
    if not 0.0 <= threshold <= 1.0:
        raise SizingError("threshold must lie in [0, 1]")
    out = values.copy()
    out[values.mean(axis=3) > threshold, :] = 0.0
    return out


def intensity_filter(grid: Grid, threshold: float) -> Grid:
    """Zero every pixel whose per-channel mean is strictly above threshold."""
    return _one_row(intensity_filter_rows, grid, threshold)


def _bilinear_resize(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize with edge clamping."""
    in_h, in_w = src.shape[0], src.shape[1]
    sr = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    sc = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    r0 = np.clip(np.floor(sr).astype(np.int64), 0, in_h - 1)
    c0 = np.clip(np.floor(sc).astype(np.int64), 0, in_w - 1)
    r1 = np.minimum(r0 + 1, in_h - 1)
    c1 = np.minimum(c0 + 1, in_w - 1)
    tr = np.clip(sr - np.floor(sr), 0.0, 1.0)
    tc = np.clip(sc - np.floor(sc), 0.0, 1.0)
    tr = np.where(sr < 0, 0.0, tr)[:, None, None]
    tc = np.where(sc < 0, 0.0, tc)[None, :, None]
    a = src[r0][:, c0]
    b = src[r0][:, c1]
    d = src[r1][:, c0]
    e = src[r1][:, c1]
    top = a * (1.0 - tc) + b * tc
    bot = d * (1.0 - tc) + e * tc
    return top * (1.0 - tr) + bot * tr


def rand_crop(grid: Grid, min_frac: float, seed: int) -> Grid:
    """Crop a uniformly placed window of uniform area fraction in
    [min_frac, 1] (aspect ratio kept) and resize it back bilinearly.

    Draw order: area fraction, then top offset, then left offset.
    """
    if not 0.0 < min_frac <= 1.0:
        raise SizingError("min_frac must lie in (0, 1]")
    h, w, _ = grid.values.shape
    stream = Stream(seed)
    frac = min_frac + (1.0 - min_frac) * stream.uniform()
    ch = max(1, min(h, int(round(h * np.sqrt(frac)))))
    cw = max(1, min(w, int(round(w * np.sqrt(frac)))))
    top = stream.below(h - ch + 1)
    left = stream.below(w - cw + 1)
    window = grid.values[top : top + ch, left : left + cw, :]
    out = _bilinear_resize(window, h, w)
    return Grid(out, unit_range=False)


def gauss_noise_rows(values: np.ndarray, variance: float, seeds: np.ndarray) -> np.ndarray:
    """Batch form of :func:`gauss_noise`: row ``r`` adds
    ``Stream(seeds[r]).normals(h * w * c)``, the stream words of
    ``GRID_CHUNK`` rows drawn as one array and put through one Box-Muller map."""
    if variance < 0.0:
        raise SizingError("variance must be non-negative")
    if variance == 0.0:
        return values.copy()
    _, h, w, c = values.shape
    size = h * w * c
    out = np.empty(values.shape)
    for at in range(0, len(values), GRID_CHUNK):
        chunk = values[at : at + GRID_CHUNK]
        u = uniform_words(stream_words(seeds[at : at + GRID_CHUNK], 2 * ((size + 1) // 2)))
        noise = box_muller(u)[:, :size].reshape(chunk.shape)
        out[at : at + GRID_CHUNK] = np.clip(chunk + np.sqrt(variance) * noise, 0.0, 1.0)
    return out


def gauss_noise(grid: Grid, variance: float, seed: int) -> Grid:
    """Add seeded Gaussian noise (row-major draw order), clamp to [0, 1].
    This is the one-row call of :func:`gauss_noise_rows`."""
    return _one_row(gauss_noise_rows, grid, variance, as_words(seed))


# ---------------------------------------------------------------------------
# text corruptions

def token_segments(covariates) -> list:
    """The token tuples of sentence-pair covariates, example by example:
    each pair's premise then its hypothesis."""
    bad = [type(cov).__name__ for cov in covariates if not isinstance(cov, SentencePair)]
    if bad:
        raise DispatchError(f"expected a SentencePair, got {bad[0]}")
    return [seq.tokens for cov in covariates for seq in (cov.premise, cov.hypothesis)]


def ngram_source(lengths: np.ndarray, n: int, seeds: np.ndarray) -> np.ndarray:
    """Batch form of :func:`ngram_randomize` on token segments laid end to
    end: segment ``s`` has ``lengths[s]`` tokens and shuffles with
    ``seeds[s]``.  Returns, for every output position, the flat index of the
    input token that lands there.

    Segments of one length share their block layout, so their draws are one
    :func:`~semcorrupt.rng.below_rows` call and each Fisher-Yates step swaps
    across all of them at once.
    """
    if n < 1:
        raise SizingError("n must be >= 1")
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    src = np.arange(int(lengths.sum()))
    # not np.unique, whose first call imports numpy.ma (in each sweep worker)
    for length in sorted(set(lengths[lengths > n].tolist())):
        rows = np.flatnonzero(lengths == length)
        full, rest = divmod(length, n)
        blocks = full + (rest > 0)
        # below(full + 1) places the remainder, then below(i + 1) for i = blocks-1 .. 1
        bounds = [full + 1] * (rest > 0) + list(range(blocks, 1, -1))
        draws = below_rows(seeds[rows], bounds)
        slot = np.arange(blocks)
        if rest:
            at = draws[:, :1]
            order = np.where(slot < at, slot, np.where(slot == at, full, slot - 1))
            draws = draws[:, 1:]
        else:
            order = np.tile(slot, (len(rows), 1))
        swap_down(order, draws)
        # token offsets of each block; -1 past the end of the remainder block
        offsets = np.arange(blocks * n).reshape(blocks, n)
        offsets[offsets >= length] = -1
        picked = offsets[order].reshape(len(rows), -1)
        picked = picked[picked >= 0].reshape(len(rows), length)
        base = starts[rows][:, np.newaxis]
        src[base + np.arange(length)] = base + picked
    return src


def ngram_randomize(seq: TokenSeq, n: int, seed: int) -> TokenSeq:
    """Split into consecutive n-token blocks and permute the blocks.

    A shorter remainder block, when present, is first inserted at a uniform
    block position; the whole block list is then Fisher-Yates shuffled.  The
    block multiset is preserved; ``n >= len(seq)`` gives the identity.  This
    is the one-segment call of :func:`ngram_source`.
    """
    toks = seq.tokens
    src = ngram_source(np.array([len(toks)]), n, as_words(seed))
    return TokenSeq(tuple(toks[i] for i in src.tolist()), seq.mask_id)


def premise_mask(pair: SentencePair) -> SentencePair:
    """Replace every premise token with MASK; the hypothesis is untouched."""
    masked = TokenSeq((pair.premise.mask_id,) * len(pair.premise), pair.premise.mask_id)
    return SentencePair(masked, pair.hypothesis)


# ---------------------------------------------------------------------------
# plain-vector corruption (for sampled finite families)

def coordinate_mask(vector: tuple, index: int) -> tuple:
    """Zero one coordinate of a plain numeric tuple.

    This is the sampled-data counterpart of the masking noise model used by
    the exact engine: it hides the masked coordinate's sign pattern while
    keeping the magnitudes of the rest.
    """
    vec = tuple(float(v) for v in vector)
    if index < 0 or index >= len(vec):
        raise SizingError(f"mask index {index} must lie in [0, {len(vec) - 1}]")
    return tuple(0.0 if i == index else v for i, v in enumerate(vec))


# ---------------------------------------------------------------------------
# dispatch

def _shuffle_sentences(pair: SentencePair, n: int, seed: int) -> SentencePair:
    """``ngram_randomize`` each sentence of a pair with sub-seed
    ``derive_seed(seed, 0)`` (premise) or ``derive_seed(seed, 1)`` (hypothesis)."""
    return SentencePair(ngram_randomize(pair.premise, n, derive_seed(seed, 0)),
                        ngram_randomize(pair.hypothesis, n, derive_seed(seed, 1)))


@dataclass(frozen=True)
class Kind:
    """A corruption kind: short label, parameter check (None: no parameter),
    the covariate classes it takes, whether the output depends on the seed,
    ``run(covariate, param, seed)`` and, for the grid kinds that have one,
    the batch kernel ``batch(values, param, seeds)`` over (rows, h, w, c)
    values, run by :func:`apply_rows`.  Both look their transform up by
    name at call time so a transform rebound at module level is the one run."""

    label: str
    check: object
    accepts: tuple
    stochastic: bool
    run: object
    batch: object = None


def _whole(low: int):
    """Check for an integral parameter of at least ``low``."""
    return lambda p: float(p) == int(p) >= low


KINDS = {
    "identity": Kind("id", None, (object,), False, lambda c, p, s: c),
    "patch_randomize": Kind("pr", _whole(1), (Grid,), True,
                            lambda c, p, s: patch_randomize(c, int(p), s),
                            lambda v, p, s: patch_rows(v, int(p), s)),
    "roi_mask": Kind("rm", _whole(0), (Grid,), False,
                     lambda c, p, s: roi_mask(c, int(p)),
                     lambda v, p, s: roi_mask_rows(v, int(p))),
    "freq_filter": Kind("ff", _whole(0), (Grid,), False,
                        lambda c, p, s: freq_filter(c, int(p)),
                        lambda v, p, s: freq_filter_rows(v, int(p))),
    "intensity_filter": Kind("if", lambda p: 0.0 <= float(p) <= 1.0, (Grid,), False,
                             lambda c, p, s: intensity_filter(c, float(p)),
                             lambda v, p, s: intensity_filter_rows(v, float(p))),
    "rand_crop": Kind("crop", lambda p: 0.0 < float(p) <= 1.0, (Grid,), True,
                      lambda c, p, s: rand_crop(c, float(p), s)),
    "gauss_noise": Kind("noise", lambda p: float(p) >= 0.0, (Grid,), True,
                        lambda c, p, s: gauss_noise(c, float(p), s),
                        lambda v, p, s: gauss_noise_rows(v, float(p), s)),
    "ngram_randomize": Kind("nr", _whole(1), (SentencePair,), True,
                            lambda c, p, s: _shuffle_sentences(c, int(p), s)),
    "premise_mask": Kind("pm", None, (SentencePair,), False,
                         lambda c, p, s: premise_mask(c)),
    "coordinate_mask": Kind("cm", _whole(0), (tuple, list), False,
                            lambda c, p, s: coordinate_mask(tuple(c), int(p))),
}


@dataclass(frozen=True)
class CorruptionSpec:
    """A corruption kind, its single numeric parameter, and a global seed.

    Per-example randomness is derived as ``derive_seed(seed, example_index)``
    so applying the same spec to the same example is always reproducible.
    """

    kind: str
    param: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown corruption kind {self.kind!r}")
        checker = KINDS[self.kind].check
        if checker is None:
            if self.param is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        else:
            if self.param is None or not math.isfinite(self.param) or not checker(self.param):
                raise ValueError(f"bad parameter {self.param!r} for {self.kind}")

    @property
    def label(self) -> str:
        short = KINDS[self.kind].label
        if self.param is None:
            return short
        p = self.param
        return f"{short}{int(p)}" if float(p) == int(p) else f"{short}{p:g}"


def apply(spec: CorruptionSpec, covariate, example_index: int):
    """Apply ``spec`` to one covariate; a stochastic kind gets its per-example seed."""
    kind = KINDS[spec.kind]
    if not isinstance(covariate, kind.accepts):
        names = " or ".join(cls.__name__ for cls in kind.accepts)
        raise DispatchError(f"{spec.kind} expects a {names}, got {type(covariate).__name__}")
    seed = derive_seed(spec.seed, example_index) if kind.stochastic else spec.seed
    return kind.run(covariate, spec.param, seed)


def apply_rows(spec: CorruptionSpec, values: np.ndarray) -> np.ndarray:
    """``spec``'s batch kernel over (rows, h, w, c) grid values, row ``i``
    with ``apply``'s seed for example ``i``."""
    kind = KINDS[spec.kind]
    seeds = derive_seeds(spec.seed, np.arange(len(values))) if kind.stochastic else None
    return kind.batch(values, spec.param, seeds)


def batch_shape(spec: CorruptionSpec, covariates) -> tuple | None:
    """The (h, w, c) shape every covariate shares when ``spec``'s kind has a
    batch kernel and all covariates are Grids of that one shape, so that
    :func:`apply_rows` draws them all; None otherwise (an empty list
    included)."""
    if KINDS[spec.kind].batch is None:
        return None
    if isinstance(covariates, GridRows):
        return covariates.block.shape[1:] if covariates else None
    shapes = {c.values.shape if isinstance(c, Grid) else None for c in covariates}
    return shapes.pop() if len(shapes) == 1 else None


def shuffle_source(spec: CorruptionSpec, lengths) -> np.ndarray:
    """:func:`ngram_source` of ``spec``, an ``ngram_randomize`` spec, over the
    sentence ``lengths`` of pairs laid end to end (each pair's premise then
    its hypothesis), sentence ``s`` with ``apply``'s sub-seed
    ``derive_seed(derive_seed(seed, s // 2), s % 2)``."""
    at = np.arange(len(lengths))
    return ngram_source(lengths, int(spec.param),
                        derive_seeds(derive_seeds(spec.seed, at // 2), at % 2))


def apply_all(spec: CorruptionSpec, covariates):
    """``apply`` to every covariate, with its list position as example
    index.  Grids of one shape under a kind with a batch kernel
    (:func:`batch_shape`) are one :func:`apply_rows` call over their
    :func:`grid_values`, returned as :class:`GridRows`, and n-gram
    shuffles of sentence pairs one :func:`shuffle_source`; anything else
    runs example by example, which gives the same bits."""
    if not isinstance(covariates, GridRows):   # a list of it would lose the block
        covariates = list(covariates)
    if batch_shape(spec, covariates) is not None:
        return grid_rows(apply_rows(spec, grid_values(covariates)), unit_range=False)
    if spec.kind != "ngram_randomize":
        return [apply(spec, cov, i) for i, cov in enumerate(covariates)]
    seqs = token_segments(covariates)
    flat = [t for seq in seqs for t in seq]
    src = shuffle_source(spec, [len(seq) for seq in seqs])
    shuffled = iter([flat[i] for i in src.tolist()])
    out = [tuple(islice(shuffled, len(seq))) for seq in seqs]
    return pair_rows(out[0::2], out[1::2], [p.premise.mask_id for p in covariates])
