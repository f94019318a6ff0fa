"""Finite synthetic families with a label, a nuisance, and a covariate.

Each family factorizes as p(y, x*) * p_rho(z | y) * p(x | z, x*), where the
semantic part x* is a deterministic function of x.  The relationship
parameter rho in [0, 1] controls only the nuisance channel p(z | y);
rho = 0.5 makes label and nuisance independent, and the 0/1 extremes are the
two maximally opposed members.  Dataset generators for the image and NLI
tasks live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .corruptions import GRID_CHUNK, grid_rows, pair_rows, swap_down
from .exact import JointTable
from .rng import (GOLDEN, MASK64, Stream, below_rows, box_muller, derive_seeds, stream_words,
                  uniform_words)


def _unit(rho: float) -> float:
    """``rho``, refused unless it lies in [0, 1] (NaN included)."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    return rho


@dataclass(frozen=True)
class DiscreteFamily:
    """Exact finite family; ``joint(rho)`` assembles the full pmf and
    ``nuisance_randomized(rho)`` the nuisance-randomized one, rho in [0, 1]."""

    name: str
    y_support: tuple
    z_support: tuple
    y_xstar: Mapping            # (y, xstar) -> prob
    z_given_y: Callable         # rho -> {(z, y): prob}
    x_given_z_xstar: Mapping    # (x, z, xstar) -> prob
    semantic_fn: Callable       # x -> xstar

    @property
    def x_support(self) -> tuple:
        """Every covariate value of ``x_given_z_xstar``, in its key order."""
        return tuple(dict.fromkeys(x for x, _z, _xs in self.x_given_z_xstar))

    def joint(self, rho: float) -> JointTable:
        return self.assemble(self.z_given_y(_unit(rho)))

    def nuisance_randomized(self, rho: float) -> JointTable:
        """p(y) p(z) p(x | y, z) of ``joint(rho)`` from the structural
        conditionals, defined even where ``joint(rho)`` leaves a (y, z) pair
        without mass (rho 0 or 1), unlike ``exact.nuisance_randomize``."""
        zgy = self.z_given_y(_unit(rho))
        y_m = {}
        for (y, _xs), q in self.y_xstar.items():
            y_m[y] = y_m.get(y, 0.0) + q
        z_m = {z: math.fsum(y_m[y] * zgy.get((z, y), 0.0) for y in self.y_support)
               for z in self.z_support}
        return self.assemble({(z, y): z_m[z] for z in self.z_support for y in self.y_support})

    def assemble(self, zgy: Mapping) -> JointTable:
        """The (y, z, x) joint p(y, x*) zgy[(z, y)] p(x | z, x*)."""
        cells = {}
        ys, y_xstar, z_given = self.y_support, self.y_xstar.get, zgy.get
        for (x, z, xs), q in self.x_given_z_xstar.items():
            for y in ys:
                p = y_xstar((y, xs), 0.0) * z_given((z, y), 0.0) * q
                if p != 0.0:
                    cells[(y, z, x)] = cells.get((y, z, x), 0.0) + p
        names = ("y", "z", "x")
        # the constructor's per-cell checks run only where one can fail: a
        # cell that is not positive, or a NaN, which fails the test too
        if all(v > 0.0 for v in cells.values()):
            return JointTable.__new__(JointTable)._hold(names, cells)
        return JointTable(names, cells)


def flip_noise_family(which: int) -> DiscreteFamily:
    """Two-coordinate binary family built from sign-flip channels.

    The label is a fair sign; the stable coordinate equals the label with
    probability 0.9, and the other coordinate equals it with probability rho.
    Variant 1 puts the stable coordinate first, variant 2 puts it second, so
    the two variants at rho = 0.9 have identical (y, x) joints.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    pm = (-1, 1)
    # complement computed as 1.0 - p in both channels, so that the two
    # variants at rho 0.9 multiply the same floats and land on identical
    # joints bit for bit
    stable = {True: 0.9, False: 1.0 - 0.9}
    y_xstar = {(y, xs): 0.5 * stable[xs == y] for y in pm for xs in pm}

    def z_given_y(rho: float) -> dict:
        pair = {True: rho, False: 1.0 - rho}
        return {(z, y): pair[z == y] for z in pm for y in pm}

    if which == 1:
        x_given = {((xs, z), z, xs): 1.0 for xs in pm for z in pm}
        semantic = lambda x: x[0]
    else:
        x_given = {((z, xs), z, xs): 1.0 for xs in pm for z in pm}
        semantic = lambda x: x[1]
    return DiscreteFamily(
        name=f"flip_noise_{which}",
        y_support=pm,
        z_support=pm,
        y_xstar=y_xstar,
        z_given_y=z_given_y,
        x_given_z_xstar=x_given,
        semantic_fn=semantic,
    )


def negated_coordinate_family(shift: float, z_grid_size: int) -> DiscreteFamily:
    """Three-class family where the label picks which coordinate is negated.

    z lives on a symmetric grid (size bumped to even so 0 is excluded) with
    Gaussian weights whose mean is ``(2*rho - 1) * shift * y``; the covariate
    is (z, z, z) with coordinate y negated.  Permuting coordinates destroys
    the semantics but keeps |coordinates|, hence the nuisance.
    """
    if z_grid_size < 2:
        raise ValueError("z_grid_size must be >= 2")
    m = z_grid_size + (z_grid_size % 2)
    span = 4.0 + 3.0 * abs(shift)
    grid = tuple(-span + (k + 0.5) * (2.0 * span / m) for k in range(m))
    ys = (1, 2, 3)
    y_xstar = {(y, y): 1.0 / 3.0 for y in ys}

    def z_given_y(rho: float) -> dict:
        mu = (2.0 * rho - 1.0) * shift
        out = {}
        for y in ys:
            w = [math.exp(-0.5 * (z - mu * y) ** 2) for z in grid]
            total = math.fsum(w)
            for z, wk in zip(grid, w):
                out[(z, y)] = wk / total
        return out

    def config(y: int, z: float) -> tuple:
        coords = [z, z, z]
        coords[y - 1] = -z
        return tuple(coords)

    x_given = {(config(y, z), z, y): 1.0 for y in ys for z in grid}

    def semantic(x: tuple) -> int:
        s = [v > 0 for v in x]
        for i in range(3):
            if s[i] != s[(i + 1) % 3] and s[i] != s[(i + 2) % 3]:
                return i + 1
        raise ValueError(f"no unique negated coordinate in {x!r}")

    return DiscreteFamily(
        name="negated_coordinate",
        y_support=ys,
        z_support=grid,
        y_xstar=y_xstar,
        z_given_y=z_given_y,
        x_given_z_xstar=x_given,
        semantic_fn=semantic,
    )


def _softplus(u: float) -> float:
    if u >= 0.0:
        return u + math.log1p(math.exp(-u))
    return math.log1p(math.exp(u))


def xor_sign_family(shift: float, z_grid_size: int) -> DiscreteFamily:
    """Binary family whose label is the XOR of two hidden sign bits.

    z lives on a positive grid with exponential weights of rate
    ``softplus((2*rho - 1) * shift * (2y - 1))``; the covariate is
    ``((2a - 1) z, (2b - 1) z)`` with ``y = a XOR b``.  Masking the first
    coordinate keeps z (= |x2|) while destroying the sign pattern.
    """
    if z_grid_size < 2:
        raise ValueError("z_grid_size must be >= 2")
    rate_floor = _softplus(-abs(shift))
    upper = 8.0 / rate_floor
    grid = tuple((k + 0.5) * (upper / z_grid_size) for k in range(z_grid_size))
    ys = (0, 1)
    y_xstar = {(y, y): 0.5 for y in ys}

    def z_given_y(rho: float) -> dict:
        out = {}
        for y in ys:
            rate = _softplus((2.0 * rho - 1.0) * shift * (2 * y - 1))
            w = [math.exp(-rate * z) for z in grid]
            total = math.fsum(w)
            for z, wk in zip(grid, w):
                out[(z, y)] = wk / total
        return out

    x_given = {}
    for z in grid:
        x_given[((z, z), z, 0)] = 0.5
        x_given[((-z, -z), z, 0)] = 0.5
        x_given[((-z, z), z, 1)] = 0.5
        x_given[((z, -z), z, 1)] = 0.5

    def semantic(x: tuple) -> int:
        return int((x[0] > 0) != (x[1] > 0))

    return DiscreteFamily(
        name="xor_sign",
        y_support=ys,
        z_support=grid,
        y_xstar=y_xstar,
        z_given_y=z_given_y,
        x_given_z_xstar=x_given,
        semantic_fn=semantic,
    )


# ---------------------------------------------------------------------------
# sampled datasets

@dataclass
class Dataset:
    """Sampled examples; labels are class indices.

    ``covariates`` holds one covariate per example.  Generated, loaded and
    batch-corrupted grids are a :class:`~semcorrupt.corruptions.GridRows`,
    the rows of one frozen (n, h, w, c) block that whole-dataset readers
    read in place.
    ``nuisances`` and ``groups`` are either both present or both absent;
    a group id encodes the (label, nuisance) pair.
    """

    covariates: list | tuple
    labels: np.ndarray
    n_classes: int
    nuisances: np.ndarray | None = None
    groups: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.covariates) != len(self.labels):
            raise ValueError("covariates and labels must have equal length")
        if (self.nuisances is None) != (self.groups is None):
            raise ValueError("nuisances and groups must be present together")
        if self.nuisances is not None:
            self.nuisances = np.asarray(self.nuisances, dtype=np.int64)
            self.groups = np.asarray(self.groups, dtype=np.int64)
            if len(self.nuisances) != len(self.labels) or len(self.groups) != len(self.labels):
                raise ValueError("annotation lengths must match labels")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")

    def __len__(self):
        return len(self.labels)


def sample_family(family: DiscreteFamily, rho: float, n: int, seed: int) -> Dataset:
    """Draw n examples from ``family.joint(rho)`` by inverse CDF.

    Cells are ordered by sorted key; one uniform is consumed per example.
    The nuisance annotation is the z grid index.
    """
    joint = family.joint(rho)
    items = sorted(joint.cells.items())
    probs = np.array([p for _k, p in items])
    cum = np.cumsum(probs)
    cum[-1] = max(cum[-1], 1.0)
    draws = Stream(seed).uniforms(n)
    picks = np.searchsorted(cum, draws, side="right")
    y_index = {y: i for i, y in enumerate(family.y_support)}
    z_index = {z: i for i, z in enumerate(family.z_support)}
    labels = np.array([y_index[y] for (y, _z, _x), _p in items])[picks]
    nuis = np.array([z_index[z] for (_y, z, _x), _p in items])[picks]
    xs = [x for (_y, _z, x), _p in items]
    return _annotated([xs[pick] for pick in picks.tolist()], labels, nuis,
                      (len(family.y_support), len(family.z_support)),
                      {"family": family.name, "rho": rho, "seed": seed, "n": n})


def _annotated(covariates: list, labels, nuis, sizes: tuple, provenance: dict) -> Dataset:
    """Dataset with nuisance annotations and group y * (nuisance values) + z,
    ``sizes`` being (classes, nuisance values)."""
    labels, nuis = np.asarray(labels, dtype=np.int64), np.asarray(nuis, dtype=np.int64)
    return Dataset(covariates=covariates, labels=labels, n_classes=sizes[0],
                   nuisances=nuis, groups=labels * sizes[1] + nuis, provenance=provenance)


# ---------------------------------------------------------------------------
# image task

IMG_SIZE = 32
GLYPH_ORIGIN = 8          # glyph block spans rows/cols 8..24
GLYPH_SPAN = 16
BG_LEVEL = 0.15
TEXTURE_AMP = 0.08
GLYPH_MID = 0.66
GLYPH_AMP = 0.10
PIXEL_NOISE_SD = 0.04


def _texture_layers():
    rr, cc = np.meshgrid(np.arange(IMG_SIZE), np.arange(IMG_SIZE), indexing="ij")
    parity = (rr + cc) % 2
    even = BG_LEVEL + TEXTURE_AMP * np.where(parity == 0, 1.0, -1.0)
    odd = BG_LEVEL + TEXTURE_AMP * np.where(parity == 1, 1.0, -1.0)
    return even, odd


_TEXTURES = np.stack(_texture_layers())


def _cos_profile() -> np.ndarray:
    # one full period; the second half is the literal negation of the first
    # so sign flips below are exact value rearrangements
    half = [math.cos(math.pi * (2 * k + 1) / GLYPH_SPAN) for k in range(GLYPH_SPAN // 2)]
    return np.array(half + [-v for v in half])


def _glyph_block(label: int) -> np.ndarray:
    profile = _cos_profile()
    sign = 1.0 if label == 0 else -1.0
    return GLYPH_MID + GLYPH_AMP * sign * np.outer(profile, profile)


_GLYPHS = np.stack([_glyph_block(0), _glyph_block(1)])
# one example's stream words: the label, the nuisance uniform, then the
# pixel noise as Box-Muller uniform pairs
_IMAGE_WORDS = 2 + IMG_SIZE * IMG_SIZE


def _image_rows(seeds: np.ndarray, p_same: float, out: np.ndarray) -> tuple:
    """(labels, nuisances) of the examples whose streams are seeded
    ``seeds``, each drawn as ``Stream`` would: ``y = below(2)``, ``z = y if
    uniform() < p_same else 1 - y``, then ``normals(1024)`` of pixel noise.
    Their pixels, snapped to single precision, fill ``out`` (rows, 32, 32, 1)."""
    words = stream_words(seeds, _IMAGE_WORDS)
    # below(2) takes one word and never rejects it: 2**64 % 2 == 0
    y = (words[:, 0] % np.uint64(2)).astype(np.int64)
    u = uniform_words(words[:, 1:])
    del words
    z = np.where(u[:, 0] < p_same, y, 1 - y)
    noise = box_muller(u[:, 1:]).reshape(-1, IMG_SIZE, IMG_SIZE)
    del u
    noise *= PIXEL_NOISE_SD
    lo, hi = GLYPH_ORIGIN, GLYPH_ORIGIN + GLYPH_SPAN
    img = _TEXTURES[z]
    img[:, lo:hi, lo:hi] = _GLYPHS[y]
    img += noise
    out[..., 0] = np.clip(img, 0.0, 1.0, out=img).astype(np.float32)
    return y, z


def synthetic_image_task(rho: float, n: int, seed: int, flip: bool = False) -> Dataset:
    """Grid dataset: glyph polarity carries the label, texture phase the
    nuisance.

    The centered glyph is a separable cosine bump whose sign flips with the
    label; flipping the sign permutes the pixel values exactly, so the two
    classes share every pixel (and every aligned even patch) multiset and
    patch shuffling provably erases the class signal.  The background is a
    parity texture whose phase encodes z; it sits at the highest spatial
    frequency and survives patch shuffles, center masks, low-frequency
    removal, and intensity thresholding.  p(z = y) is rho, or 1 - rho when
    ``flip``.
    """
    _unit(rho)
    p_same = 1.0 - rho if flip else rho
    index = np.arange(n)
    labels, nuis = np.empty_like(index), np.empty_like(index)
    block = np.empty((len(index), IMG_SIZE, IMG_SIZE, 1))
    for at in range(0, len(index), GRID_CHUNK):
        rows = slice(at, at + GRID_CHUNK)
        labels[rows], nuis[rows] = _image_rows(derive_seeds(seed, index[rows]), p_same,
                                               block[rows])
    return _annotated(grid_rows(block), labels, nuis, (2, 2),
                      {"task": "image", "rho": rho, "seed": seed, "n": n, "flip": flip})


# ---------------------------------------------------------------------------
# NLI task

MASK_ID = 0
CONTENT_VOCAB = 12        # content tokens are 1..CONTENT_VOCAB
NEG_TOKEN = CONTENT_VOCAB + 1
PREMISE_LEN = 6


# below() bounds of an example's stream words 3-9: the six partial
# Fisher-Yates draws of the premise, then the adjacent pair
_NLI_BOUNDS = tuple(range(CONTENT_VOCAB, CONTENT_VOCAB - PREMISE_LEN, -1)) + (PREMISE_LEN - 1,)


def synthetic_nli_task(rho: float, n: int, seed: int, flip: bool = False) -> Dataset:
    """Sentence-pair dataset: token order carries the label, a NEG token the
    nuisance.

    The premise is a sorted draw of distinct content tokens; the hypothesis
    is an adjacent premise pair in order (label 1) or reversed (label 0), so
    the label is exactly the ordered-subsequence relation and is destroyed
    by shuffling tokens.  NEG appears in the hypothesis with probability rho
    when the label is 0 (1 - rho when 1); ``flip`` swaps those rates.

    Example ``i`` draws from ``Stream(derive_seed(seed, i))``, all
    examples at once: word 1 is ``y = below(2)``, word 2 the NEG uniform,
    then the partial Fisher-Yates draws ``below(12)`` .. ``below(7)`` that
    pick the premise and ``below(5)``, the adjacent pair.  Those seven draws
    are one :func:`~semcorrupt.rng.below_rows` call on the streams seeded
    ``derive_seed(seed, i) + 2 * GOLDEN``, whose word ``k`` is word ``k + 2``
    of the example's stream.
    """
    _unit(rho)

    def p_neg(y):
        p = np.where(y == 0, rho, 1.0 - rho)
        return 1.0 - p if flip else p

    seeds = derive_seeds(seed, np.arange(n))
    rows = len(seeds)
    words = stream_words(seeds, 2)
    # below(2) takes one word and never rejects it: 2**64 % 2 == 0
    y = (words[:, 0] % np.uint64(2)).astype(np.int64)
    z = (uniform_words(words[:, 1]) < p_neg(y)).astype(np.int64)
    draws = below_rows(seeds + np.uint64((2 * GOLDEN) & MASK64), _NLI_BOUNDS)
    # step j swaps pool[j] with pool[j + draws[:, j]]; on the pool reversed,
    # that is Fisher-Yates from the top down, which swap_down runs
    top = CONTENT_VOCAB - 1 - np.arange(PREMISE_LEN)
    pool = np.tile(np.arange(CONTENT_VOCAB, 0, -1), (rows, 1))
    swap_down(pool, top - draws[:, :PREMISE_LEN])
    premise = np.sort(pool[:, CONTENT_VOCAB - PREMISE_LEN:], axis=1)
    adjacent = np.take_along_axis(premise, draws[:, -1:] + np.arange(2), axis=1)
    content = np.where(y[:, np.newaxis] == 1, adjacent, adjacent[:, ::-1])
    y, z = y.tolist(), z.tolist()
    # tuples zipped from columns, with no list per row on the way
    premises = list(zip(*premise.T.tolist()))
    hyps = [(u, v, NEG_TOKEN) if neg else (u, v) for u, v, neg in zip(*content.T.tolist(), z)]
    return _annotated(pair_rows(premises, hyps, [MASK_ID] * rows), y, z, (2, 2),
                      {"task": "nli", "rho": rho, "seed": seed, "n": n, "flip": flip})
