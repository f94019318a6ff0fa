"""Covariate types and the corruption operators, pinned against oracles."""

import math

import numpy as np
import pytest

from semcorrupt.corruptions import (
    KINDS,
    CorruptionSpec,
    Grid,
    SentencePair,
    TokenSeq,
    apply,
    coordinate_mask,
    freq_filter,
    gauss_noise,
    intensity_filter,
    ngram_randomize,
    patch_randomize,
    premise_mask,
    rand_crop,
    roi_mask,
)
from semcorrupt.errors import DispatchError, SizingError
from semcorrupt.rng import derive_seed

from reference import (
    RefStream,
    ref_block_shuffle,
    ref_freq_filter,
    ref_permutation,
    ref_rand_crop,
)

RNG = np.random.default_rng(20240817)


def rand_grid(h, w, c=1):
    return Grid(RNG.random((h, w, c)))


def rand_tokens(max_len=12, vocab=30, mask_id=0):
    n = int(RNG.integers(0, max_len + 1))
    toks = tuple(int(t) for t in RNG.integers(1, vocab, size=n))
    return TokenSeq(toks, mask_id)


# ---------------------------------------------------------------------------
# covariate containers


class TestGrid:
    def test_two_dim_promoted_to_single_channel(self):
        g = Grid(np.zeros((4, 5)))
        assert g.values.shape == (4, 5, 1)
        assert (g.height, g.width, g.channels) == (4, 5, 1)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            Grid(np.zeros(4))
        with pytest.raises(ValueError):
            Grid(np.zeros((2, 2, 1, 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Grid(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            Grid(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_unit_range_enforced_only_when_claimed(self):
        with pytest.raises(ValueError):
            Grid(np.array([[1.5]]))
        g = Grid(np.array([[1.5]]), unit_range=False)
        assert g.values[0, 0, 0] == 1.5

    def test_values_immutable(self):
        g = Grid(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.values[0, 0, 0] = 1.0


class TestTokenSeq:
    def test_rejects_negative_tokens_and_mask(self):
        with pytest.raises(ValueError):
            TokenSeq((1, -2), 0)
        with pytest.raises(ValueError):
            TokenSeq((1, 2), -1)

    def test_len(self):
        assert len(TokenSeq((5, 6, 7), 0)) == 3
        assert len(TokenSeq((), 0)) == 0


class TestSentencePair:
    def test_rejects_mismatched_mask_ids(self):
        with pytest.raises(ValueError):
            SentencePair(TokenSeq((1,), 0), TokenSeq((2,), 9))


# ---------------------------------------------------------------------------
# patch shuffling


class TestPatchRandomize:
    def test_whole_grid_patch_is_identity(self):
        g = rand_grid(6, 6)
        out = patch_randomize(g, 6, seed=3)
        assert np.array_equal(out.values, g.values)

    def test_constant_grid_unchanged(self):
        g = Grid(np.full((4, 4), 0.25))
        out = patch_randomize(g, 2, seed=11)
        assert np.array_equal(out.values, g.values)

    def test_pinned_two_by_two(self):
        g = Grid(np.array([[0.1, 0.2], [0.3, 0.4]]))
        out = patch_randomize(g, 1, seed=7)
        # seed 7 shuffles the four patch slots with permutation [1, 2, 0, 3]
        assert ref_permutation(4, 7) == [1, 2, 0, 3]
        want = np.array([[0.2, 0.3], [0.1, 0.4]])
        assert np.array_equal(out.values[:, :, 0], want)

    def test_matches_oracle_permutation(self):
        for _ in range(20):
            h = int(RNG.choice([2, 4, 6]))
            patch = int(RNG.choice([1, 2]))
            seed = int(RNG.integers(0, 10**6))
            g = rand_grid(h, h)
            out = patch_randomize(g, patch, seed)
            per_row = h // patch
            perm = ref_permutation(per_row * per_row, seed)
            want = np.empty_like(g.values)
            for slot, src in enumerate(perm):
                tr, tc = divmod(slot, per_row)
                sr, sc = divmod(src, per_row)
                want[tr * patch:(tr + 1) * patch, tc * patch:(tc + 1) * patch] = \
                    g.values[sr * patch:(sr + 1) * patch, sc * patch:(sc + 1) * patch]
            assert np.array_equal(out.values, want)

    def test_pixel_multiset_preserved(self):
        for _ in range(100):
            h = int(RNG.choice([2, 4, 8]))
            g = rand_grid(h, h, c=int(RNG.choice([1, 3])))
            patch = int(RNG.choice([p for p in (1, 2, 4) if h % p == 0]))
            out = patch_randomize(g, patch, int(RNG.integers(0, 10**9)))
            assert np.array_equal(np.sort(out.values.ravel()), np.sort(g.values.ravel()))

    def test_deterministic(self):
        g = rand_grid(4, 4)
        a = patch_randomize(g, 2, 5)
        b = patch_randomize(g, 2, 5)
        assert np.array_equal(a.values, b.values)

    def test_rejects_bad_patch_size(self):
        g = rand_grid(4, 4)
        with pytest.raises(SizingError):
            patch_randomize(g, 0, 0)
        with pytest.raises(SizingError):
            patch_randomize(g, 3, 0)  # does not divide 4


# ---------------------------------------------------------------------------
# center masking


class TestRoiMask:
    def test_size_zero_identity(self):
        g = rand_grid(5, 5)
        assert np.array_equal(roi_mask(g, 0).values, g.values)

    def test_full_size_blanks_square_grid(self):
        g = rand_grid(4, 4)
        assert np.all(roi_mask(g, 4).values == 0.0)

    def test_non_square_keeps_side_columns(self):
        g = Grid(np.ones((4, 6)))
        out = roi_mask(g, 4).values[:, :, 0]
        want = np.ones((4, 6))
        want[0:4, 1:5] = 0.0
        assert np.array_equal(out, want)

    def test_centered_window(self):
        g = Grid(np.ones((4, 4)))
        out = roi_mask(g, 2).values[:, :, 0]
        want = np.ones((4, 4))
        want[1:3, 1:3] = 0.0
        assert np.array_equal(out, want)

    def test_odd_dims_floor_offset(self):
        g = Grid(np.ones((5, 5)))
        out = roi_mask(g, 2).values[:, :, 0]
        want = np.ones((5, 5))
        want[1:3, 1:3] = 0.0  # (5 - 2) // 2 == 1
        assert np.array_equal(out, want)

    def test_idempotent(self):
        for _ in range(100):
            h, w = int(RNG.integers(1, 9)), int(RNG.integers(1, 9))
            g = rand_grid(h, w)
            size = int(RNG.integers(0, min(h, w) + 1))
            once = roi_mask(g, size)
            twice = roi_mask(once, size)
            assert np.array_equal(once.values, twice.values)

    def test_rejects_bad_sizes(self):
        g = rand_grid(4, 4)
        with pytest.raises(SizingError):
            roi_mask(g, -1)
        with pytest.raises(SizingError):
            roi_mask(g, 5)


# ---------------------------------------------------------------------------
# low-pass filtering


class TestFreqFilter:
    def test_cutoff_zero_identity(self):
        g = rand_grid(6, 6)
        out = freq_filter(g, 0)
        assert np.allclose(out.values, g.values, atol=1e-5)

    def test_constant_grid_removed_entirely(self):
        g = Grid(np.full((4, 4), 0.7))
        out = freq_filter(g, 1)  # removing the zero-frequency bin kills a constant
        assert np.max(np.abs(out.values)) < 1e-12

    def test_full_cutoff_removes_everything(self):
        g = rand_grid(4, 4)
        out = freq_filter(g, 4)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_pinned_impulse(self):
        vals = np.zeros((4, 4))
        vals[0, 0] = 1.0
        out = freq_filter(Grid(vals), 2).values[:, :, 0]
        want = np.array(
            [
                [0.5625, -0.1875, 0.0625, -0.1875],
                [-0.1875, 0.0625, 0.0625, -0.1875],
                [0.0625, 0.0625, 0.0625, 0.0625],
                [-0.1875, -0.1875, 0.0625, 0.0625],
            ]
        )
        assert np.allclose(out, want, atol=1e-12)

    def test_matches_naive_transform_oracle(self):
        for _ in range(12):
            h = int(RNG.integers(2, 7))
            w = int(RNG.integers(2, 7))
            g = rand_grid(h, w)
            cutoff = int(RNG.integers(0, min(h, w) + 1))
            out = freq_filter(g, cutoff).values[:, :, 0]
            want = ref_freq_filter([list(r) for r in g.values[:, :, 0]], cutoff)
            assert np.allclose(out, np.array(want), atol=1e-9)

    def test_projection(self):
        # removing the same band twice changes nothing further
        for _ in range(100):
            h = int(RNG.integers(2, 11))
            w = int(RNG.integers(2, 11))
            g = rand_grid(h, w)
            cutoff = int(RNG.integers(0, min(h, w) + 1))
            once = freq_filter(g, cutoff)
            twice = freq_filter(once, cutoff)
            assert np.allclose(once.values, twice.values, atol=1e-4)

    def test_output_not_clamped(self):
        # band removal is an exact linear projection, so values may leave [0, 1]
        vals = np.zeros((8, 8))
        vals[0, 0] = 1.0
        out = freq_filter(Grid(vals), 2)
        assert out.values.min() < 0.0

    def test_rejects_bad_cutoffs(self):
        g = rand_grid(4, 4)
        with pytest.raises(SizingError):
            freq_filter(g, -1)
        with pytest.raises(SizingError):
            freq_filter(g, 5)


# ---------------------------------------------------------------------------
# brightness thresholding


class TestIntensityFilter:
    def test_threshold_one_identity(self):
        g = rand_grid(5, 5)
        assert np.array_equal(intensity_filter(g, 1.0).values, g.values)

    def test_threshold_zero_blanks_positive_pixels(self):
        g = Grid(np.array([[0.0, 0.4], [0.2, 0.0]]))
        out = intensity_filter(g, 0.0).values[:, :, 0]
        assert np.array_equal(out, np.zeros((2, 2)))
        # exact zeros are kept (not strictly above the threshold)
        g2 = Grid(np.zeros((3, 3)))
        assert np.array_equal(intensity_filter(g2, 0.0).values, g2.values)

    def test_pinned_example(self):
        g = Grid(np.array([[0.3, 0.9], [0.5, 0.1]]))
        out = intensity_filter(g, 0.4).values[:, :, 0]
        assert np.array_equal(out, np.array([[0.3, 0.0], [0.0, 0.1]]))

    def test_multichannel_uses_channel_mean(self):
        vals = np.zeros((1, 2, 2))
        vals[0, 0] = [0.2, 0.7]  # mean 0.45 > 0.4 -> blanked in all channels
        vals[0, 1] = [0.2, 0.5]  # mean 0.35 <= 0.4 -> kept
        out = intensity_filter(Grid(vals), 0.4).values
        assert np.array_equal(out[0, 0], [0.0, 0.0])
        assert np.array_equal(out[0, 1], [0.2, 0.5])

    def test_idempotent(self):
        for _ in range(100):
            g = rand_grid(int(RNG.integers(1, 9)), int(RNG.integers(1, 9)),
                          c=int(RNG.choice([1, 3])))
            thr = float(RNG.random())
            once = intensity_filter(g, thr)
            twice = intensity_filter(once, thr)
            assert np.array_equal(once.values, twice.values)

    def test_rejects_bad_threshold(self):
        g = rand_grid(2, 2)
        with pytest.raises(SizingError):
            intensity_filter(g, -0.1)
        with pytest.raises(SizingError):
            intensity_filter(g, 1.1)


# ---------------------------------------------------------------------------
# random crop-and-resize


class TestRandCrop:
    def test_full_fraction_identity(self):
        g = rand_grid(6, 6)
        out = rand_crop(g, 1.0, seed=4)
        assert np.allclose(out.values, g.values, atol=1e-6)

    def test_constant_grid_stays_constant(self):
        g = Grid(np.full((5, 7), 0.6))
        out = rand_crop(g, 0.3, seed=9)
        assert np.allclose(out.values, 0.6, atol=1e-12)

    def test_pinned_ramp(self):
        vals = np.arange(16, dtype=np.float64).reshape(4, 4) / 16.0
        out = rand_crop(Grid(vals), 0.25, seed=3).values[:, :, 0]
        want = np.array(
            [
                [0.0, 0.015625, 0.046875, 0.0625],
                [0.0625, 0.078125, 0.109375, 0.125],
                [0.1875, 0.203125, 0.234375, 0.25],
                [0.25, 0.265625, 0.296875, 0.3125],
            ]
        )
        assert np.allclose(out, want, atol=1e-12)

    def test_matches_oracle(self):
        for _ in range(15):
            h = int(RNG.integers(2, 8))
            w = int(RNG.integers(2, 8))
            g = rand_grid(h, w)
            min_frac = float(RNG.uniform(0.2, 1.0))
            seed = int(RNG.integers(0, 10**9))
            out = rand_crop(g, min_frac, seed).values[:, :, 0]
            want = ref_rand_crop([list(r) for r in g.values[:, :, 0]], min_frac, seed)
            assert np.allclose(out, np.array(want), atol=1e-12)

    def test_preserves_shape_and_range(self):
        for _ in range(50):
            h, w = int(RNG.integers(1, 9)), int(RNG.integers(1, 9))
            g = rand_grid(h, w)
            out = rand_crop(g, float(RNG.uniform(0.1, 1.0)), int(RNG.integers(0, 10**9)))
            assert out.values.shape == g.values.shape
            assert out.values.min() >= 0.0 and out.values.max() <= 1.0

    def test_deterministic(self):
        g = rand_grid(5, 5)
        assert np.array_equal(rand_crop(g, 0.5, 77).values, rand_crop(g, 0.5, 77).values)

    def test_rejects_bad_fraction(self):
        g = rand_grid(3, 3)
        with pytest.raises(SizingError):
            rand_crop(g, 0.0, 0)
        with pytest.raises(SizingError):
            rand_crop(g, 1.5, 0)


# ---------------------------------------------------------------------------
# additive noise


class TestGaussNoise:
    def test_zero_variance_identity(self):
        g = rand_grid(3, 3)
        out = gauss_noise(g, 0.0, seed=5)
        assert np.array_equal(out.values, g.values)

    def test_pinned_single_pixel(self):
        g = Grid(np.array([[0.5]]))
        out = gauss_noise(g, 1.0, seed=11)
        first = RefStream(11).normals(1)[0]
        assert first == pytest.approx(-0.06767644169287002, abs=1e-15)
        assert out.values[0, 0, 0] == pytest.approx(0.5 + first, abs=1e-12)

    def test_noise_scales_with_sqrt_variance(self):
        g = Grid(np.full((4, 4), 0.5))
        a = gauss_noise(g, 0.01, seed=3).values - 0.5
        b = gauss_noise(g, 0.04, seed=3).values - 0.5
        assert np.allclose(b, 2.0 * a, atol=1e-12)

    def test_clipped_to_unit_interval(self):
        g = Grid(np.full((8, 8), 0.5))
        out = gauss_noise(g, 25.0, seed=1)
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0

    def test_deterministic_and_seed_sensitive(self):
        g = rand_grid(4, 4)
        assert np.array_equal(gauss_noise(g, 0.1, 9).values, gauss_noise(g, 0.1, 9).values)
        assert not np.array_equal(gauss_noise(g, 0.1, 9).values, gauss_noise(g, 0.1, 10).values)

    def test_rejects_negative_variance(self):
        with pytest.raises(SizingError):
            gauss_noise(rand_grid(2, 2), -0.5, 0)


# ---------------------------------------------------------------------------
# token block shuffling


def input_blocks(tokens, n):
    full = [tuple(tokens[i * n:(i + 1) * n]) for i in range(len(tokens) // n)]
    rem = tuple(tokens[(len(tokens) // n) * n:])
    return full + ([rem] if rem else [])


def is_block_concatenation(out, blocks):
    used = [False] * len(blocks)

    def rec(pos):
        if pos == len(out):
            return all(used)
        for i, b in enumerate(blocks):
            if not used[i] and out[pos:pos + len(b)] == b:
                used[i] = True
                if rec(pos + len(b)):
                    return True
                used[i] = False
        return False

    return rec(0)


class TestNgramRandomize:
    def test_block_at_least_length_identity(self):
        for _ in range(30):
            seq = rand_tokens()
            n = len(seq.tokens) + int(RNG.integers(0, 3))
            out = ngram_randomize(seq, max(n, 1), int(RNG.integers(0, 10**9)))
            assert out.tokens == seq.tokens

    def test_empty_sequence_identity(self):
        seq = TokenSeq((), 0)
        assert ngram_randomize(seq, 2, 5).tokens == ()

    def test_pinned_pairs(self):
        out = ngram_randomize(TokenSeq((1, 2, 3, 4), 0), 2, seed=5)
        assert out.tokens == (3, 4, 1, 2)

    def test_pinned_unigram_swap(self):
        out = ngram_randomize(TokenSeq((10, 20, 30, 40, 50, 60), 0), 1, seed=758)
        assert out.tokens == (40, 20, 30, 10, 50, 60)

    def test_matches_oracle(self):
        for _ in range(40):
            seq = rand_tokens()
            n = int(RNG.integers(1, 5))
            seed = int(RNG.integers(0, 10**9))
            got = ngram_randomize(seq, n, seed).tokens
            want = tuple(ref_block_shuffle(list(seq.tokens), n, seed))
            assert got == want

    def test_output_is_block_rearrangement(self):
        for _ in range(100):
            seq = rand_tokens()
            n = int(RNG.integers(1, 5))
            out = ngram_randomize(seq, n, int(RNG.integers(0, 10**9)))
            assert sorted(out.tokens) == sorted(seq.tokens)
            assert is_block_concatenation(out.tokens, input_blocks(seq.tokens, n))

    def test_mask_id_preserved(self):
        seq = TokenSeq((3, 0, 5), 0)
        out = ngram_randomize(seq, 1, 2)
        assert out.mask_id == 0

    def test_rejects_bad_block_size(self):
        with pytest.raises(SizingError):
            ngram_randomize(TokenSeq((1, 2), 0), 0, 0)


# ---------------------------------------------------------------------------
# premise blanking


class TestPremiseMask:
    def test_blanks_premise_keeps_hypothesis(self):
        pair = SentencePair(TokenSeq((4, 7, 9), 0), TokenSeq((4, 2), 0))
        out = premise_mask(pair)
        assert out.premise.tokens == (0, 0, 0)
        assert out.hypothesis.tokens == (4, 2)
        assert out.hypothesis is pair.hypothesis

    def test_nonzero_mask_id(self):
        pair = SentencePair(TokenSeq((4, 7), 9), TokenSeq((4,), 9))
        out = premise_mask(pair)
        assert out.premise.tokens == (9, 9)

    def test_empty_premise(self):
        pair = SentencePair(TokenSeq((), 0), TokenSeq((1, 2), 0))
        out = premise_mask(pair)
        assert out.premise.tokens == ()

    def test_idempotent(self):
        pair = SentencePair(TokenSeq((4, 7, 9), 0), TokenSeq((4, 2), 0))
        once = premise_mask(pair)
        twice = premise_mask(once)
        assert twice.premise.tokens == once.premise.tokens
        assert twice.hypothesis.tokens == once.hypothesis.tokens


# ---------------------------------------------------------------------------
# coordinate masking (plain vectors)


class TestCoordinateMask:
    def test_zeroes_named_coordinate(self):
        assert coordinate_mask((3.0, -2.0), 0) == (0.0, -2.0)
        assert coordinate_mask((3.0, -2.0), 1) == (3.0, 0.0)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(SizingError):
            coordinate_mask((1.0, 2.0), 2)
        with pytest.raises(SizingError):
            coordinate_mask((1.0, 2.0), -1)

    def test_idempotent(self):
        v = (1.5, -0.5, 2.5)
        assert coordinate_mask(coordinate_mask(v, 1), 1) == coordinate_mask(v, 1)


# ---------------------------------------------------------------------------
# specs and dispatch


class TestCorruptionSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            CorruptionSpec("sharpen", 1)

    def test_identity_takes_no_param(self):
        with pytest.raises(ValueError):
            CorruptionSpec("identity", 3)
        CorruptionSpec("identity")

    def test_param_required_and_validated(self):
        with pytest.raises(ValueError):
            CorruptionSpec("patch_randomize")
        with pytest.raises(ValueError):
            CorruptionSpec("patch_randomize", 0)
        with pytest.raises(ValueError):
            CorruptionSpec("intensity_filter", 1.5)
        with pytest.raises(ValueError):
            CorruptionSpec("premise_mask", 1)
        for kind in ("patch_randomize", "roi_mask", "freq_filter", "ngram_randomize",
                     "coordinate_mask"):
            for param in (math.inf, -math.inf, math.nan, 8.5):
                with pytest.raises(ValueError):
                    CorruptionSpec(kind, param)
        for kind in ("intensity_filter", "rand_crop", "gauss_noise"):
            for param in (math.inf, math.nan):
                with pytest.raises(ValueError):
                    CorruptionSpec(kind, param)

    def test_labels(self):
        assert CorruptionSpec("identity").label == "id"
        assert CorruptionSpec("patch_randomize", 8).label == "pr8"
        assert CorruptionSpec("roi_mask", 16).label == "rm16"
        assert CorruptionSpec("freq_filter", 24).label == "ff24"
        assert CorruptionSpec("intensity_filter", 0.4).label == "if0.4"
        assert CorruptionSpec("rand_crop", 0.5).label == "crop0.5"
        assert CorruptionSpec("gauss_noise", 1).label == "noise1"
        assert CorruptionSpec("ngram_randomize", 1).label == "nr1"
        assert CorruptionSpec("premise_mask").label == "pm"
        assert CorruptionSpec("coordinate_mask", 0).label == "cm0"

    def test_every_kind_is_registered(self):
        assert set(KINDS) == {
            "identity", "patch_randomize", "roi_mask", "freq_filter",
            "intensity_filter", "rand_crop", "gauss_noise",
            "ngram_randomize", "premise_mask", "coordinate_mask",
        }


class TestApply:
    def test_identity_returns_same_object(self):
        g = rand_grid(3, 3)
        assert apply(CorruptionSpec("identity"), g, 5) is g

    def test_per_example_seed_derivation(self):
        g = rand_grid(4, 4)
        spec = CorruptionSpec("patch_randomize", 2, seed=31)
        got = apply(spec, g, 6)
        want = patch_randomize(g, 2, derive_seed(31, 6))
        assert np.array_equal(got.values, want.values)

    def test_examples_get_distinct_noise(self):
        g = Grid(np.full((4, 4), 0.5))
        spec = CorruptionSpec("gauss_noise", 0.1, seed=2)
        a = apply(spec, g, 0)
        b = apply(spec, g, 1)
        assert not np.array_equal(a.values, b.values)

    def test_pair_sentences_use_distinct_subseeds(self):
        prem = TokenSeq((1, 2, 3, 4, 5, 6), 0)
        hyp = TokenSeq((1, 2, 3, 4, 5, 6), 0)
        spec = CorruptionSpec("ngram_randomize", 1, seed=3)
        out = apply(spec, SentencePair(prem, hyp), 0)
        ex = derive_seed(3, 0)
        assert out.premise.tokens == ngram_randomize(prem, 1, derive_seed(ex, 0)).tokens
        assert out.hypothesis.tokens == ngram_randomize(hyp, 1, derive_seed(ex, 1)).tokens
        assert out.premise.tokens != out.hypothesis.tokens

    def test_bare_token_seq_accepted_for_ngram(self):
        seq = TokenSeq((1, 2, 3, 4), 0)
        spec = CorruptionSpec("ngram_randomize", 2, seed=3)
        out = apply(spec, seq, 1)
        ex = derive_seed(3, 1)
        assert out.tokens == ngram_randomize(seq, 2, derive_seed(ex, 0)).tokens

    def test_deterministic(self):
        g = rand_grid(4, 4)
        spec = CorruptionSpec("rand_crop", 0.5, seed=8)
        assert np.array_equal(apply(spec, g, 3).values, apply(spec, g, 3).values)

    def test_dispatch_errors(self):
        g = rand_grid(2, 2)
        pair = SentencePair(TokenSeq((1,), 0), TokenSeq((2,), 0))
        with pytest.raises(DispatchError):
            apply(CorruptionSpec("patch_randomize", 1, seed=0), pair, 0)
        with pytest.raises(DispatchError):
            apply(CorruptionSpec("ngram_randomize", 1, seed=0), g, 0)
        with pytest.raises(DispatchError):
            apply(CorruptionSpec("premise_mask"), g, 0)
        with pytest.raises(DispatchError):
            apply(CorruptionSpec("coordinate_mask", 0, seed=0), g, 0)
        with pytest.raises(DispatchError):
            apply(CorruptionSpec("roi_mask", 1, seed=0), (1.0, 2.0), 0)


# one valid covariate and parameter per kind
STOCHASTIC_CASES = {
    "identity": (None, Grid(np.linspace(0, 1, 64).reshape(8, 8))),
    "patch_randomize": (2, Grid(np.linspace(0, 1, 64).reshape(8, 8))),
    "roi_mask": (4, Grid(np.linspace(0, 1, 64).reshape(8, 8))),
    "freq_filter": (3, Grid(np.linspace(0, 1, 64).reshape(8, 8))),
    "intensity_filter": (0.5, Grid(np.linspace(0, 1, 64).reshape(8, 8))),
    "rand_crop": (0.5, Grid(np.linspace(0, 1, 64).reshape(8, 8))),
    "gauss_noise": (0.1, Grid(np.full((8, 8), 0.5))),
    "ngram_randomize": (1, SentencePair(TokenSeq(tuple(range(1, 9))),
                                        TokenSeq(tuple(range(3, 11))))),
    "premise_mask": (None, SentencePair(TokenSeq((1, 2, 3)), TokenSeq((4, 5)))),
    "coordinate_mask": (1, (0.5, -1.0, 2.0)),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_stochastic_flag_matches_behaviour(kind):
    """A kind's output varies with the seed exactly when it is flagged
    stochastic, which is what decides whether its noise is redrawn."""
    param, cov = STOCHASTIC_CASES[kind]
    outs = set()
    for seed in range(8):
        out = apply(CorruptionSpec(kind, param, seed), cov, 0)
        outs.add(out.values.tobytes() if isinstance(out, Grid) else out)
    assert (len(outs) > 1) == KINDS[kind].stochastic
