"""Independent reference implementations for the test suite.

Nothing in this module imports the package under test.  Every function
re-derives a documented behavior from scratch with plain Python loops
(stdlib only), so that frozen expectations and comparison values come from
a second, independently written route.
"""

from __future__ import annotations

import cmath
import math
import struct

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


# ---------------------------------------------------------------------------
# deterministic randomness (SplitMix64 / Fisher-Yates / Box-Muller)

def ref_mix64(value: int) -> int:
    v = value & MASK64
    v ^= v >> 30
    v = (v * 0xBF58476D1CE4E5B9) & MASK64
    v ^= v >> 27
    v = (v * 0x94D049BB133111EB) & MASK64
    v ^= v >> 31
    return v


def ref_derive_seed(*parts: int) -> int:
    acc = GOLDEN
    for part in parts:
        acc = ref_mix64((acc + GOLDEN) ^ ref_mix64(part & MASK64))
    return acc


def _unxorshift(value: int, shift: int) -> int:
    x = value
    for _ in range(64 // shift + 1):
        x = value ^ (x >> shift)
    return x


def ref_unmix64(value: int) -> int:
    """Inverse of ref_mix64, which is a bijection on 64-bit words."""
    v = _unxorshift(value & MASK64, 31)
    v = (v * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    v = _unxorshift(v, 27)
    v = (v * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return _unxorshift(v, 30)


def ref_seed_with_word(word: int, position: int = 1) -> int:
    """A stream seed whose ``position``-th output word (from 1) is ``word``."""
    return (ref_unmix64(word) - position * GOLDEN) & MASK64


def ref_derive_preimage(target: int, *suffix: int) -> int:
    """The first part ``x`` with ``ref_derive_seed(x, *suffix) == target``."""
    acc = target & MASK64
    for part in reversed(suffix):
        acc = ((ref_unmix64(acc) ^ ref_mix64(part & MASK64)) - GOLDEN) & MASK64
    return ref_unmix64(ref_unmix64(acc) ^ ((2 * GOLDEN) & MASK64))


class RefStream:
    """Scalar SplitMix64 stream with the documented draw protocols."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return ref_mix64(self.state)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        if n == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            word = self.next_u64()
            if word < limit:
                return word % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def normals(self, count: int) -> list:
        out = []
        for _ in range((count + 1) // 2):
            u1 = self.uniform()
            u2 = self.uniform()
            r = math.sqrt(-2.0 * math.log(1.0 - u1))
            theta = (2.0 * math.pi) * u2
            out.append(r * math.cos(theta))
            out.append(r * math.sin(theta))
    # an odd request discards the trailing half of the last pair
        return out[:count]


def ref_gauss_noise(values: list, variance: float, seed: int) -> list:
    """gauss_noise on a grid's values in row-major order: add sqrt(variance)
    times the seed's normals, clamp to [0, 1]."""
    if variance == 0.0:
        return list(values)
    sd = math.sqrt(variance)
    noise = RefStream(seed).normals(len(values))
    return [min(max(v + sd * z, 0.0), 1.0) for v, z in zip(values, noise)]


def ref_permutation(n: int, seed: int) -> list:
    order = list(range(n))
    RefStream(seed).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# discrete Fourier transform, the slow way (O(N^4))

def ref_dft2(matrix: list) -> list:
    h, w = len(matrix), len(matrix[0])
    out = [[0j] * w for _ in range(h)]
    for u in range(h):
        for v in range(w):
            acc = 0j
            for r in range(h):
                for c in range(w):
                    acc += matrix[r][c] * cmath.exp(-2j * math.pi * (u * r / h + v * c / w))
            out[u][v] = acc
    return out


def ref_idft2_real(spec: list) -> list:
    h, w = len(spec), len(spec[0])
    out = [[0.0] * w for _ in range(h)]
    for r in range(h):
        for c in range(w):
            acc = 0j
            for u in range(h):
                for v in range(w):
                    acc += spec[u][v] * cmath.exp(2j * math.pi * (u * r / h + v * c / w))
            out[r][c] = (acc / (h * w)).real
    return out


def ref_freq_filter(matrix: list, cutoff: int) -> list:
    """Zero a centered cutoff x cutoff square of the centered spectrum,
    together with every zeroed bin's conjugate mirror (-u mod h, -v mod w).

    Centered position of raw frequency index u is (u + h // 2) % h; the
    square starts at h // 2 - cutoff // 2.  Closing the zero set under
    frequency negation keeps the map an exact projection on real inputs.
    """
    h, w = len(matrix), len(matrix[0])
    if cutoff == 0:
        return [row[:] for row in matrix]
    spec = ref_dft2(matrix)
    r0 = h // 2 - cutoff // 2
    c0 = w // 2 - cutoff // 2

    def in_square(u, v):
        su = (u + h // 2) % h
        sv = (v + w // 2) % w
        return r0 <= su < r0 + cutoff and c0 <= sv < c0 + cutoff

    for u in range(h):
        for v in range(w):
            if in_square(u, v) or in_square((-u) % h, (-v) % w):
                spec[u][v] = 0j
    return ref_idft2_real(spec)


# ---------------------------------------------------------------------------
# bilinear resize (half-pixel centers, edges clamped)

def ref_bilinear(src: list, out_h: int, out_w: int) -> list:
    in_h, in_w = len(src), len(src[0])
    out = [[0.0] * out_w for _ in range(out_h)]
    for ro in range(out_h):
        sr = (ro + 0.5) * (in_h / out_h) - 0.5
        r0 = min(max(int(math.floor(sr)), 0), in_h - 1)
        r1 = min(r0 + 1, in_h - 1)
        tr = 0.0 if sr < 0 else min(max(sr - math.floor(sr), 0.0), 1.0)
        for co in range(out_w):
            sc = (co + 0.5) * (in_w / out_w) - 0.5
            c0 = min(max(int(math.floor(sc)), 0), in_w - 1)
            c1 = min(c0 + 1, in_w - 1)
            tc = 0.0 if sc < 0 else min(max(sc - math.floor(sc), 0.0), 1.0)
            top = src[r0][c0] * (1.0 - tc) + src[r0][c1] * tc
            bot = src[r1][c0] * (1.0 - tc) + src[r1][c1] * tc
            out[ro][co] = top * (1.0 - tr) + bot * tr
    return out


def ref_rand_crop(src: list, min_frac: float, seed: int) -> list:
    """Documented draw order: area fraction, then top, then left."""
    h, w = len(src), len(src[0])
    stream = RefStream(seed)
    frac = min_frac + (1.0 - min_frac) * stream.uniform()
    ch = max(1, min(h, _bankers_round(h * math.sqrt(frac))))
    cw = max(1, min(w, _bankers_round(w * math.sqrt(frac))))
    top = stream.below(h - ch + 1)
    left = stream.below(w - cw + 1)
    window = [row[left : left + cw] for row in src[top : top + ch]]
    return ref_bilinear(window, h, w)


def _bankers_round(x: float) -> int:
    """Round half to even, matching IEEE default rounding of .5 cases."""
    f = math.floor(x)
    d = x - f
    if d > 0.5:
        return f + 1
    if d < 0.5:
        return f
    return f if f % 2 == 0 else f + 1


# ---------------------------------------------------------------------------
# token-sequence behaviors

def ref_block_shuffle(tokens: tuple, n: int, seed: int) -> tuple:
    """Full blocks in order, remainder inserted at below(len+1), then a
    Fisher-Yates pass over the block list."""
    if len(tokens) == 0:
        return tokens
    full = len(tokens) // n
    blocks = [list(tokens[i * n : (i + 1) * n]) for i in range(full)]
    rest = list(tokens[full * n :])
    stream = RefStream(seed)
    if rest:
        blocks.insert(stream.below(len(blocks) + 1), rest)
    stream.shuffle(blocks)
    return tuple(t for block in blocks for t in block)


def ref_ordered_subsequence(needle: tuple, hay: tuple) -> bool:
    it = iter(hay)
    return all(any(h == tok for h in it) for tok in needle)


def ref_ngram_bucket(window: tuple, buckets: int) -> int:
    return ref_derive_seed(len(window), *window) % buckets


# ---------------------------------------------------------------------------
# synthetic task generators, re-derived example by example

_IMG = 32
_GLYPH_LO = 8
_GLYPH_HI = 24
_BG = 0.15
_TEX_AMP = 0.08
_GLYPH_MID = 0.66
_GLYPH_AMP = 0.10
_NOISE_SD = 0.04


def _f32(x: float) -> float:
    return struct.unpack("<f", struct.pack("<f", x))[0]


def _profile(k: int) -> float:
    if k < 8:
        return math.cos(math.pi * (2 * k + 1) / 16)
    return -math.cos(math.pi * (2 * (k - 8) + 1) / 16)


def ref_image_example(seed: int, index: int, p_same: float):
    """(label, nuisance, 32x32 pixel rows) for one generated image."""
    stream = RefStream(ref_derive_seed(seed, index))
    y = stream.below(2)
    z = y if stream.uniform() < p_same else 1 - y
    noise = stream.normals(_IMG * _IMG)
    img = []
    for r in range(_IMG):
        row = []
        for c in range(_IMG):
            if _GLYPH_LO <= r < _GLYPH_HI and _GLYPH_LO <= c < _GLYPH_HI:
                sign = 1.0 if y == 0 else -1.0
                base = _GLYPH_MID + (_GLYPH_AMP * sign) * (
                    _profile(r - _GLYPH_LO) * _profile(c - _GLYPH_LO)
                )
            else:
                up = 1.0 if (r + c) % 2 == z else -1.0
                base = _BG + _TEX_AMP * up
            v = base + _NOISE_SD * noise[r * _IMG + c]
            row.append(_f32(min(max(v, 0.0), 1.0)))
        img.append(row)
    return y, z, img


_VOCAB = 12
_NEG = 13
_PLEN = 6


def ref_nli_example(seed: int, index: int, rho: float, flip: bool):
    """(label, nuisance, premise, hypothesis) for one generated pair."""
    stream = RefStream(ref_derive_seed(seed, index))
    y = stream.below(2)
    p_neg = rho if y == 0 else 1.0 - rho
    if flip:
        p_neg = 1.0 - p_neg
    z = 1 if stream.uniform() < p_neg else 0
    pool = list(range(1, _VOCAB + 1))
    for j in range(_PLEN):
        k = j + stream.below(_VOCAB - j)
        pool[j], pool[k] = pool[k], pool[j]
    premise = tuple(sorted(pool[:_PLEN]))
    at = stream.below(_PLEN - 1)
    u, v = premise[at], premise[at + 1]
    content = (u, v) if y == 1 else (v, u)
    hyp = content + (_NEG,) if z else content
    return y, z, premise, hyp


# ---------------------------------------------------------------------------
# flip-noise family, closed form

def ref_flip_cell(which: int, rho: float, y: int, z: int, x: tuple) -> float:
    """p(y, z, x) for the two-coordinate sign family, from the definition."""
    xs = x[0] if which == 1 else x[1]
    other = x[1] if which == 1 else x[0]
    if other != z:
        return 0.0
    p_stable = 0.9 if xs == y else 1.0 - 0.9
    p_z = rho if z == y else 1.0 - rho
    return 0.5 * p_stable * p_z


def ref_flip_accuracy(predictions: dict, rho: float) -> float:
    """Exact accuracy of a sign predictor on variant 1 at relationship rho."""
    total = 0.0
    for x1 in (-1, 1):
        for x2 in (-1, 1):
            y = predictions[(x1, x2)]
            total += 0.5 * (0.9 if x1 == y else 1.0 - 0.9) * (rho if x2 == y else 1.0 - rho)
    return total


# ---------------------------------------------------------------------------
# corruption-reweighting bound, enumerated

def _add(table: dict, key, value: float) -> None:
    table[key] = table.get(key, 0.0) + value


def ref_corruption_bound(cells: dict, fn, delta_pmf: dict) -> dict:
    """The quantities of the corruption-reweighting bound, summed over every
    (y, z, x, d) straight from their definitions.

    ``cells`` maps (y, z, x) to p(y, z, x), ``delta_pmf`` maps each noise
    value d to p(d) and ``fn(x, d)`` is the corrupted covariate t.  With
    p_perp(y, z, x) = p(y) p(z) p(y, z, x) / p(y, z):

    * ``epsilon`` = sqrt(sum p_perp(y, z, x) p(d) (p(y | t) - p(y | z))^2);
    * ``moment`` = sqrt(sum p_perp(y, z, x) p(d) / p(y | t)^2);
    * ``l1`` = sum over (y, x) of |p_perp(y, x) - r(y, x)|, where
      r(y, x) = sum over (z, d) of p(y, z, x) p(d) p(y) / p(y | t);
    * ``post_t`` {t: {y: p(y | t)}} and ``post_z`` {z: {y: p(y | z)}};
    * ``yzt`` {(y, z, t): p(y, z, t)} and ``reweighted`` r / sum(r).

    A term with p(y, z, x) p(d) = 0 adds nothing, so a noise value of zero
    mass neither reaches a t nor needs p(y | t).
    """
    terms = [(y, z, x, cells[(y, z, x)] * pd, pd, fn(x, d))
             for (y, z, x) in cells for d, pd in delta_pmf.items()
             if cells[(y, z, x)] > 0.0 and pd > 0.0]
    p_y, p_z, p_yz = {}, {}, {}
    for (y, z, _x), q in cells.items():
        _add(p_y, y, q)
        _add(p_z, z, q)
        _add(p_yz, (y, z), q)
    p_t, p_yt, yzt = {}, {}, {}
    for y, z, _x, m, _pd, t in terms:
        _add(p_t, t, m)
        _add(p_yt, (y, t), m)
        _add(yzt, (y, z, t), m)
    post_t, post_z = {}, {}
    for (y, t), m in p_yt.items():
        post_t.setdefault(t, {})[y] = m / p_t[t]
    for (y, z), m in p_yz.items():
        if m > 0.0:
            post_z.setdefault(z, {})[y] = m / p_z[z]
    eps2, m2, perp_yx, raw = [], [], {}, {}
    for y, z, x, m, pd, t in terms:
        perp = p_y[y] * p_z[z] * cells[(y, z, x)] / p_yz[(y, z)]
        pt = post_t[t][y]
        eps2.append(perp * pd * (pt - post_z[z].get(y, 0.0)) ** 2)
        m2.append(perp * pd / (pt * pt))
        _add(raw, (y, x), m * p_y[y] / pt)
    for (y, z, x), q in cells.items():
        if q > 0.0:
            _add(perp_yx, (y, x), p_y[y] * p_z[z] * q / p_yz[(y, z)])
    l1 = math.fsum(abs(perp_yx.get(k, 0.0) - raw.get(k, 0.0))
                   for k in set(perp_yx) | set(raw))
    total = math.fsum(raw.values())
    return {"epsilon": math.sqrt(math.fsum(eps2)), "moment": math.sqrt(math.fsum(m2)),
            "l1": l1, "post_t": post_t, "post_z": post_z, "yzt": yzt,
            "reweighted": {k: v / total for k, v in raw.items()}}


# ---------------------------------------------------------------------------
# numerical differentiation

def central_difference(fn, x: list, step: float = 1e-5) -> list:
    grad = []
    for i in range(len(x)):
        hi = list(x)
        lo = list(x)
        hi[i] += step
        lo[i] -= step
        grad.append((fn(hi) - fn(lo)) / (2.0 * step))
    return grad


def max_relative_error(got: list, want: list, floor: float = 1e-8) -> float:
    worst = 0.0
    for g, w in zip(got, want):
        denom = max(abs(g), abs(w), floor)
        worst = max(worst, abs(g - w) / denom)
    return worst
