"""Finite families and the two synthetic dataset generators."""

import math

import numpy as np
import pytest

from semcorrupt.corruptions import GRID_CHUNK, SentencePair, ngram_randomize
from semcorrupt.families import (
    BG_LEVEL,
    CONTENT_VOCAB,
    GLYPH_AMP,
    GLYPH_MID,
    GLYPH_ORIGIN,
    GLYPH_SPAN,
    IMG_SIZE,
    MASK_ID,
    NEG_TOKEN,
    PREMISE_LEN,
    TEXTURE_AMP,
    Dataset,
    flip_noise_family,
    negated_coordinate_family,
    sample_family,
    synthetic_image_task,
    synthetic_nli_task,
    xor_sign_family,
)
from semcorrupt.rng import derive_seed

from reference import ref_flip_cell, ref_image_example, ref_nli_example, ref_ordered_subsequence

RHO_GRID = [k / 10 for k in range(11)]


def table_sum(table):
    return math.fsum(table.cells.values())


# ---------------------------------------------------------------------------
# the two-coordinate flip family


class TestFlipNoiseFamily:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            flip_noise_family(3)

    def test_balanced_labels(self):
        for rho in (0.0, 0.4, 1.0):
            p = flip_noise_family(1).joint(rho)
            assert p.marginal("y").cells[(1,)] == pytest.approx(0.5, abs=1e-15)

    def test_extreme_member_covariate_conditionals(self):
        p = flip_noise_family(1).joint(1.0)
        p_y1 = p.prob(y=1, x=(1, 1)) / 0.5
        p_ym1 = sum(q for (y, z, x), q in p.cells.items() if y == -1 and x == (1, 1)) / 0.5
        assert p_y1 == pytest.approx(0.9, abs=1e-12)
        assert p_ym1 == pytest.approx(0.0, abs=1e-15)

    def test_cells_match_closed_form_oracle(self):
        for which in (1, 2):
            fam = flip_noise_family(which)
            for rho in (0.0, 0.25, 0.9):
                p = fam.joint(rho)
                for (y, z, x), q in p.cells.items():
                    assert q == pytest.approx(ref_flip_cell(which, rho, y, z, x), abs=1e-15)

    def test_variants_identical_at_matching_parameter(self):
        a = flip_noise_family(1).joint(0.9).marginal("y", "x").cells
        b = flip_noise_family(2).joint(0.9).marginal("y", "x").cells
        assert set(a) == set(b)
        for k in a:
            assert a[k] == b[k]  # bit-for-bit equal, not merely close

    def test_variants_differ_away_from_matching_parameter(self):
        a = flip_noise_family(1).joint(0.5).marginal("y", "x")
        b = flip_noise_family(2).joint(0.5).marginal("y", "x")
        assert a.l1(b) > 0.1

    def test_semantic_projects_first_or_second_coordinate(self):
        assert flip_noise_family(1).semantic_fn((1, -1)) == 1
        assert flip_noise_family(2).semantic_fn((1, -1)) == -1


# ---------------------------------------------------------------------------
# the three-class negated-coordinate family


class TestNegatedCoordinateFamily:
    def test_uniform_labels(self):
        p = negated_coordinate_family(1.0, 8).joint(0.7)
        for y in (1, 2, 3):
            assert p.marginal("y").cells[(y,)] == pytest.approx(1 / 3, abs=1e-12)

    def test_covariate_negates_label_coordinate(self):
        p = negated_coordinate_family(1.0, 8).joint(0.6)
        for (y, z, x), q in p.cells.items():
            expected = [z, z, z]
            expected[y - 1] = -z
            assert x == tuple(expected)

    def test_semantic_finds_odd_coordinate(self):
        fam = negated_coordinate_family(1.0, 8)
        assert fam.semantic_fn((-2.0, 2.0, 2.0)) == 1
        assert fam.semantic_fn((2.0, -2.0, 2.0)) == 2
        assert fam.semantic_fn((2.0, 2.0, -2.0)) == 3

    def test_semantic_recovers_label_on_support(self):
        fam = negated_coordinate_family(0.8, 6)
        for (y, z, x), q in fam.joint(0.3).cells.items():
            assert fam.semantic_fn(x) == y

    def test_grid_symmetric_even_and_avoids_zero(self):
        fam = negated_coordinate_family(1.5, 7)  # odd size is bumped to even
        grid = fam.z_support
        assert len(grid) == 8
        assert all(abs(z) > 1e-9 for z in grid)
        assert sorted(grid) == sorted(-z for z in grid)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            negated_coordinate_family(1.0, 1)

    def test_normalized_across_parameters(self):
        fam = negated_coordinate_family(1.0, 6)
        for rho in RHO_GRID:
            assert abs(table_sum(fam.joint(rho)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the sign-interaction family


class TestXorSignFamily:
    def test_balanced_labels(self):
        fam = xor_sign_family(1.0, 8)
        for rho in (0.0, 0.5, 1.0):
            assert fam.joint(rho).marginal("y").cells[(1,)] == pytest.approx(0.5, abs=1e-12)

    def test_magnitudes_equal_nuisance(self):
        fam = xor_sign_family(1.0, 6)
        for (y, z, x), q in fam.joint(0.4).cells.items():
            assert abs(x[0]) == pytest.approx(z, abs=1e-15)
            assert abs(x[1]) == pytest.approx(z, abs=1e-15)

    def test_label_is_sign_mismatch(self):
        fam = xor_sign_family(1.0, 6)
        z = fam.z_support[0]
        assert fam.semantic_fn((z, z)) == 0
        assert fam.semantic_fn((-z, -z)) == 0
        assert fam.semantic_fn((-z, z)) == 1
        assert fam.semantic_fn((z, -z)) == 1
        for (y, _z, x), q in fam.joint(0.8).cells.items():
            assert fam.semantic_fn(x) == y

    def test_normalized_across_parameters(self):
        fam = xor_sign_family(0.8, 8)
        for rho in RHO_GRID:
            assert abs(table_sum(fam.joint(rho)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# shared family invariants


@pytest.mark.parametrize(
    "make",
    [
        lambda: flip_noise_family(1),
        lambda: flip_noise_family(2),
        lambda: negated_coordinate_family(1.0, 6),
        lambda: xor_sign_family(1.0, 6),
    ],
)
class TestFamilyInvariants:
    def test_pmf_sums_to_one(self, make):
        fam = make()
        for rho in RHO_GRID:
            assert abs(table_sum(fam.joint(rho)) - 1.0) < 1e-12

    def test_rejects_parameter_outside_unit_interval(self, make):
        with pytest.raises(ValueError):
            make().joint(1.5)
        with pytest.raises(ValueError):
            make().joint(-0.1)

    def test_only_nuisance_channel_moves(self, make):
        # p(y, xstar) and p(x | z, xstar) must be identical across members
        fam = make()
        pieces = {}
        for rho in (0.2, 0.8):
            ext = fam.joint(rho).with_derived("xs", fam.semantic_fn, ("x",))
            y_xs = ext.marginal("y", "xs").cells
            zxs = ext.marginal("z", "xs").cells
            x_given = {
                (x, z, xs): q / zxs[(z, xs)]
                for (z, xs, x), q in ext.marginal("z", "xs", "x").cells.items()
            }
            pieces[rho] = (y_xs, x_given)
        y_a, xg_a = pieces[0.2]
        y_b, xg_b = pieces[0.8]
        assert set(y_a) == set(y_b)
        for k in y_a:
            assert y_a[k] == pytest.approx(y_b[k], abs=1e-12)
        shared = set(xg_a) & set(xg_b)
        assert shared
        for k in shared:
            assert xg_a[k] == pytest.approx(xg_b[k], abs=1e-12)


# ---------------------------------------------------------------------------
# dataset container


class TestDataset:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(covariates=[(0.0,)], labels=np.array([0, 1]), n_classes=2)

    def test_rejects_nuisance_without_groups(self):
        with pytest.raises(ValueError):
            Dataset(
                covariates=[(0.0,)],
                labels=np.array([0]),
                n_classes=2,
                nuisances=np.array([0]),
            )

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(covariates=[(0.0,)], labels=np.array([2]), n_classes=2)

    def test_len(self):
        ds = Dataset(covariates=[(0.0,), (1.0,)], labels=np.array([0, 1]), n_classes=2)
        assert len(ds) == 2


# ---------------------------------------------------------------------------
# exact-family sampling


class TestSampleFamily:
    def test_empirical_joint_close_to_exact(self):
        fam = flip_noise_family(1)
        ds = sample_family(fam, 0.9, 50000, seed=7)
        want = fam.joint(0.9).marginal("y", "z").cells
        counts = {}
        for y_idx, z_idx in zip(ds.labels, ds.nuisances):
            counts[(y_idx, z_idx)] = counts.get((y_idx, z_idx), 0) + 1
        ys = sorted(fam.y_support)
        zs = sorted(fam.z_support)
        l1 = 0.0
        for (y, z), q in want.items():
            emp = counts.get((ys.index(y), zs.index(z)), 0) / len(ds)
            l1 += abs(emp - q)
        assert l1 < 0.02

    def test_group_encoding(self):
        fam = flip_noise_family(1)
        ds = sample_family(fam, 0.7, 500, seed=3)
        assert np.array_equal(ds.groups, ds.labels * 2 + ds.nuisances)

    def test_covariates_live_on_support(self):
        fam = xor_sign_family(1.0, 4)
        ds = sample_family(fam, 0.6, 300, seed=1)
        support = set(fam.x_support)
        ys = sorted(fam.y_support)
        for x, y_idx in zip(ds.covariates, ds.labels):
            assert tuple(x) in support
            assert fam.semantic_fn(x) == ys[y_idx]

    def test_deterministic(self):
        fam = flip_noise_family(2)
        a = sample_family(fam, 0.8, 200, seed=9)
        b = sample_family(fam, 0.8, 200, seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert a.covariates == b.covariates

    def test_provenance(self):
        ds = sample_family(flip_noise_family(1), 0.8, 10, seed=2)
        assert ds.provenance["rho"] == 0.8
        assert ds.provenance["seed"] == 2


# ---------------------------------------------------------------------------
# image generator


class TestImageTask:
    def test_aligned_extreme_nuisance_equals_label(self):
        ds = synthetic_image_task(1.0, 50, seed=3)
        assert np.array_equal(ds.nuisances, ds.labels)

    def test_flipped_strong_member_mostly_disagrees(self):
        ds = synthetic_image_task(0.9, 2000, seed=4, flip=True)
        agree = float(np.mean(ds.nuisances == ds.labels))
        assert 0.07 < agree < 0.13

    def test_pixels_match_reference_pipeline(self):
        ds = synthetic_image_task(0.9, 5, seed=11)
        for i in range(5):
            y, z, rows = ref_image_example(11, i, p_same=0.9)
            assert ds.labels[i] == y
            assert ds.nuisances[i] == z
            got = ds.covariates[i].values[:, :, 0]
            assert np.max(np.abs(got - np.array(rows))) <= 1e-9

    def test_flip_reference_agreement(self):
        ds = synthetic_image_task(0.8, 4, seed=6, flip=True)
        for i in range(4):
            y, z, rows = ref_image_example(6, i, p_same=1.0 - 0.8)
            assert (ds.labels[i], ds.nuisances[i]) == (y, z)
            assert np.max(np.abs(ds.covariates[i].values[:, :, 0] - np.array(rows))) <= 1e-9

    @pytest.mark.parametrize("flip", [False, True])
    def test_every_example_of_several_chunks_matches_reference(self, flip):
        """Examples are drawn GRID_CHUNK at a time; each must still be the
        scalar per-example stream's, bit for bit."""
        n = 2 * GRID_CHUNK + 5
        ds = synthetic_image_task(0.7, n, seed=19, flip=flip)
        assert len(ds) == n
        for i in range(n):
            y, z, rows = ref_image_example(19, i, p_same=0.3 if flip else 0.7)
            assert (ds.labels[i], ds.nuisances[i], ds.groups[i]) == (y, z, 2 * y + z)
            assert ds.covariates[i].values.tobytes() == np.array(rows)[:, :, None].tobytes()

    def test_grids_are_read_only(self):
        grid = synthetic_image_task(0.9, 3, seed=1).covariates[2]
        with pytest.raises(ValueError):
            grid.values[0, 0, 0] = 0.5

    def test_independent_member_decorrelates(self):
        ds = synthetic_image_task(0.5, 10000, seed=0)
        y = ds.labels * 2.0 - 1.0
        z = ds.nuisances * 2.0 - 1.0
        corr = float(np.mean(y * z))
        assert abs(corr) < 0.05

    def test_shapes_range_and_snap(self):
        ds = synthetic_image_task(0.9, 8, seed=1)
        for g in ds.covariates:
            assert g.values.shape == (IMG_SIZE, IMG_SIZE, 1)
            assert g.values.min() >= 0.0 and g.values.max() <= 1.0
            assert np.array_equal(g.values, g.values.astype(np.float32).astype(np.float64))

    def test_group_encoding(self):
        ds = synthetic_image_task(0.7, 200, seed=5)
        assert np.array_equal(ds.groups, ds.labels * 2 + ds.nuisances)

    def test_texture_phase_tracks_nuisance(self):
        ds = synthetic_image_task(0.5, 50, seed=8)
        for g, z in zip(ds.covariates, ds.nuisances):
            # adjacent border pixels differ by the full checker amplitude
            diff = g.values[0, 0, 0] - g.values[0, 1, 0]
            assert (diff > 0) == (z == 0)

    def test_glyph_polarity_tracks_label(self):
        ds = synthetic_image_task(0.5, 50, seed=9)
        lo, hi = GLYPH_ORIGIN, GLYPH_ORIGIN + GLYPH_SPAN
        for g, y in zip(ds.covariates, ds.labels):
            block = g.values[lo:hi, lo:hi, 0] - GLYPH_MID
            corner = float(block[:4, :4].sum())  # profile is positive there
            assert (corner > 0) == (y == 0)

    def test_deterministic(self):
        a = synthetic_image_task(0.9, 6, seed=2)
        b = synthetic_image_task(0.9, 6, seed=2)
        for ga, gb in zip(a.covariates, b.covariates):
            assert np.array_equal(ga.values, gb.values)

    def test_constants(self):
        assert (IMG_SIZE, GLYPH_ORIGIN, GLYPH_SPAN) == (32, 8, 16)
        assert (BG_LEVEL, TEXTURE_AMP, GLYPH_MID, GLYPH_AMP) == (0.15, 0.08, 0.66, 0.1)


# ---------------------------------------------------------------------------
# sentence-pair generator


def rule_label(pair: SentencePair) -> int:
    """The entailment rule: the hypothesis's content tokens (neither NEG nor
    MASK) are an ordered subsequence of the premise."""
    content = tuple(t for t in pair.hypothesis.tokens if t not in (NEG_TOKEN, MASK_ID))
    return int(ref_ordered_subsequence(content, pair.premise.tokens))


class TestNliTask:
    def test_examples_match_reference_pipeline(self):
        for flip in (False, True):
            ds = synthetic_nli_task(0.8, 10, seed=13, flip=flip)
            for i in range(10):
                y, z, prem, hyp = ref_nli_example(13, i, 0.8, flip)
                assert ds.labels[i] == y
                assert ds.nuisances[i] == z
                assert ds.covariates[i].premise.tokens == tuple(prem)
                assert ds.covariates[i].hypothesis.tokens == tuple(hyp)

    def test_aligned_extreme_negation_marks_contradiction(self):
        ds = synthetic_nli_task(1.0, 300, seed=2)
        for pair, y in zip(ds.covariates, ds.labels):
            has_neg = NEG_TOKEN in pair.hypothesis.tokens
            assert has_neg == (y == 0)

    def test_premise_shape(self):
        ds = synthetic_nli_task(0.6, 200, seed=4)
        for pair in ds.covariates:
            toks = pair.premise.tokens
            assert len(toks) == PREMISE_LEN
            assert len(set(toks)) == PREMISE_LEN
            assert tuple(sorted(toks)) == toks
            assert all(1 <= t <= CONTENT_VOCAB for t in toks)

    def test_hypothesis_structure(self):
        ds = synthetic_nli_task(0.6, 200, seed=5)
        for pair, y, z in zip(ds.covariates, ds.labels, ds.nuisances):
            toks = pair.hypothesis.tokens
            content = tuple(t for t in toks if t != NEG_TOKEN)
            assert len(content) == 2
            assert (NEG_TOKEN in toks) == (z == 1)
            prem = pair.premise.tokens
            u, v = (content if y == 1 else content[::-1])
            assert prem.index(v) == prem.index(u) + 1

    def test_generator_labels_equal_rule_labels(self):
        ds = synthetic_nli_task(0.7, 400, seed=6)
        for pair, y in zip(ds.covariates, ds.labels):
            assert rule_label(pair) == y

    def test_premise_shuffle_detaches_label(self):
        ds = synthetic_nli_task(0.5, 10000, seed=7)
        agree = 0
        for i, (pair, y) in enumerate(zip(ds.covariates, ds.labels)):
            shuffled = ngram_randomize(pair.premise, 1, derive_seed(7, 900, i))
            relabeled = rule_label(SentencePair(shuffled, pair.hypothesis))
            agree += int(relabeled == y)
        frac = agree / len(ds)
        assert 0.40 <= frac <= 0.60

    def test_deterministic(self):
        a = synthetic_nli_task(0.9, 50, seed=8)
        b = synthetic_nli_task(0.9, 50, seed=8)
        for pa, pb in zip(a.covariates, b.covariates):
            assert pa.premise.tokens == pb.premise.tokens
            assert pa.hypothesis.tokens == pb.hypothesis.tokens
