"""Exact probability engine: distribution surgery, reweighting, bounds."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from semcorrupt.exact import (
    BINARY_INPUTS,
    BOUND_SLACK,
    POSTERIOR_FLOOR,
    BoundReport,
    FiniteCorruption,
    JointTable,
    UndefinedWeightError,
    _first_pass,
    _images,
    _posterior_given_corrupted,
    _randomized,
    _reweighted_by,
    biased_posterior,
    cond_indep_gap,
    corruption_bound,
    corruption_randomize,
    enumerate_binary_predictors,
    extend_with_corruption,
    nuisance_randomize,
    predictor_accuracy,
)
from semcorrupt.families import (
    flip_noise_family,
    negated_coordinate_family,
    xor_sign_family,
)

from reference import ref_corruption_bound, ref_flip_accuracy


def table_sum(table):
    return math.fsum(table.cells.values())


SECOND_COORD = FiniteCorruption.deterministic(lambda x: x[1], "second-coordinate")
CONSTANT = FiniteCorruption.deterministic(lambda x: 0, "constant")
MASK_FIRST = FiniteCorruption.deterministic(lambda x: (0.0, x[1]), "mask-first")


# ---------------------------------------------------------------------------
# joint tables


class TestJointTable:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            JointTable(("y",), {(0,): 0.4, (1,): 0.4})

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            JointTable(("y",), {(0,): 1.001, (1,): -0.001})

    def test_tiny_negative_rounding_clamped(self):
        # a -1e-16 cell is numerical dust: clamped away rather than rejected
        t = JointTable(("y",), {(0,): 1.0, (1,): -1e-16})
        assert t.cells.get((1,), 0.0) == 0.0

    def test_rejects_duplicate_variables(self):
        with pytest.raises(ValueError):
            JointTable(("y", "y"), {(0, 0): 1.0})

    def test_rejects_wrong_key_length(self):
        with pytest.raises(ValueError):
            JointTable(("y", "z"), {(0,): 1.0})

    @pytest.mark.parametrize("cells", [
        {(0,): 1.0, (1,): math.nan},
        {(0,): math.nan},
        {(0,): 0.5, (1,): 0.5, (2,): -math.inf},
        {(0,): 1.0, (1,): math.inf},
    ])
    def test_rejects_non_finite_mass(self, cells):
        with pytest.raises(ValueError):
            JointTable(("a",), cells)

    def test_hold_refuses_a_nan_total(self):
        # a NaN total is not within SUM_TOL of one either
        with pytest.raises(ValueError, match="probabilities sum to nan, not 1"):
            JointTable.__new__(JointTable)._hold(("y",), {(0,): math.nan})

    def test_marginal_over_all_variables_is_the_table(self):
        p = flip_noise_family(1).joint(0.9)
        assert p.marginal(*p.variables) is p

    def test_marginal_follows_the_requested_order(self):
        p = flip_noise_family(1).joint(0.9)
        assert p.marginal("x", "y").variables == ("x", "y")
        swapped = {(x, y): q for (y, x), q in p.marginal("y", "x").cells.items()}
        assert p.marginal("x", "y").cells == swapped

    def test_marginal_unknown_name_raises(self):
        p = flip_noise_family(1).joint(0.9)
        for names in (("w",), ("y", "w"), ("y", "y")):
            with pytest.raises(ValueError):
                p.marginal(*names)
            with pytest.raises(ValueError):   # a failed request is not kept
                p.marginal(*names)

    def test_supports_are_sorted_values(self):
        p = negated_coordinate_family(0.5, 4).joint(0.3)
        for i, name in enumerate(p.variables):
            assert p.supports[name] == tuple(sorted({k[i] for k in p.cells}))
        with pytest.raises(AttributeError):
            p.supports = {}

    def test_marginal_and_prob(self):
        p = flip_noise_family(1).joint(0.9)
        y = p.marginal("y").cells
        assert y[(-1,)] == pytest.approx(0.5, abs=1e-15)
        assert y[(1,)] == pytest.approx(0.5, abs=1e-15)
        assert p.prob(y=1, z=1) == pytest.approx(0.45, abs=1e-15)

    def test_posterior(self):
        p = flip_noise_family(1).joint(0.9)
        post = p.posterior("y", "z")
        assert post[1][1] == pytest.approx(0.9, abs=1e-12)
        assert post[-1][1] == pytest.approx(0.1, abs=1e-12)

    def test_extend_independent(self):
        base = JointTable(("y",), {(0,): 0.25, (1,): 0.75})
        ext = base.extend_independent("d", {0: 0.5, 1: 0.5})
        assert ext.variables == ("y", "d")
        assert ext.prob(y=1, d=0) == pytest.approx(0.375, abs=1e-15)
        assert table_sum(ext) == pytest.approx(1.0, abs=1e-12)

    def test_with_derived_merges_collisions(self):
        base = JointTable(("y",), {(0,): 0.5, (1,): 0.5})
        ext = base.with_derived("s", lambda y: 0, ("y",))
        assert ext.marginal("s").cells[(0,)] == pytest.approx(1.0, abs=1e-15)

    def test_l1(self):
        a = JointTable(("y",), {(0,): 0.5, (1,): 0.5})
        b = JointTable(("y",), {(0,): 0.8, (1,): 0.2})
        assert a.l1(b) == pytest.approx(0.6, abs=1e-15)
        assert b.l1(a) == pytest.approx(0.6, abs=1e-15)
        assert a.l1(a) == 0.0


class TestFiniteCorruption:
    @pytest.mark.parametrize("pmf", [
        {0: math.nan},
        {0: 1.0, 1: math.nan},
        {0: 1.0, 1: math.inf},
        {0: 1.5, 1: -0.5},
        {0: 0.4, 1: 0.4},
    ])
    def test_rejects_bad_noise_pmf(self, pmf):
        with pytest.raises(ValueError):
            FiniteCorruption(lambda x, d: x, pmf)


# ---------------------------------------------------------------------------
# breaking the label-nuisance link exactly


class TestNuisanceRandomize:
    def test_fixed_point_when_already_independent(self):
        p = flip_noise_family(1).joint(0.5)  # relationship parameter 1/2 = independence
        out = nuisance_randomize(p)
        assert out.l1(p.marginal("y", "z", "x")) < 1e-14

    def test_label_nuisance_product_form(self):
        p = flip_noise_family(1).joint(0.9)
        out = nuisance_randomize(p)
        yz = out.marginal("y", "z").cells
        y = out.marginal("y").cells
        z = out.marginal("z").cells
        for (yy, zz), q in yz.items():
            assert q == pytest.approx(y[(yy,)] * z[(zz,)], abs=1e-14)

    def test_extreme_member_quarter_mass(self):
        # at the deterministic extreme the joint table alone cannot define
        # the broken-link distribution; the family form can
        out = flip_noise_family(1).nuisance_randomized(1.0)
        assert out.marginal("y", "z").cells[(1, 1)] == pytest.approx(0.25, abs=1e-12)

    def test_family_form_agrees_with_table_form(self):
        fam = flip_noise_family(1)
        for rho in (0.2, 0.5, 0.9):
            via_family = fam.nuisance_randomized(rho)
            via_table = nuisance_randomize(fam.joint(rho))
            assert via_family.l1(via_table) < 1e-12

    def test_table_form_rejects_degenerate_joint(self):
        with pytest.raises(ValueError):
            nuisance_randomize(flip_noise_family(1).joint(1.0))

    def test_bound_rejects_degenerate_joint_with_the_same_error(self):
        want = ("pair (y=-1, z=1) has zero joint mass, so p(x | y, z) is undefined; "
                "use DiscreteFamily.nuisance_randomized")
        for run in (nuisance_randomize, lambda p: corruption_bound(p, SECOND_COORD)):
            with pytest.raises(ValueError) as exc:
                run(flip_noise_family(1).joint(1.0))
            assert str(exc.value) == want

    @pytest.mark.parametrize("rho", [1.5, -0.1, math.nan])
    @pytest.mark.parametrize("fam", [flip_noise_family(1), negated_coordinate_family(1.0, 4)],
                             ids=lambda fam: fam.name)
    def test_nuisance_randomized_rejects_rho_outside_unit_interval(self, fam, rho):
        # the family form keeps the rule that joint(rho) keeps
        with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\]"):
            fam.nuisance_randomized(rho)

    def test_semantics_conditionals_untouched(self):
        # p(x | y, z) must survive the surgery wherever (y, z) keeps mass
        p = flip_noise_family(2).joint(0.8)
        out = nuisance_randomize(p)
        yz_in = p.marginal("y", "z").cells
        yz_out = out.marginal("y", "z").cells
        for (y, z, x), q in p.marginal("y", "z", "x").cells.items():
            got = out.cells[(y, z, x)] / yz_out[(y, z)]
            want = q / yz_in[(y, z)]
            assert got == pytest.approx(want, abs=1e-12)

    def test_normalized(self):
        for rho in (0.1, 0.3, 0.7, 0.9):
            out = nuisance_randomize(flip_noise_family(1).joint(rho))
            assert abs(table_sum(out) - 1.0) < 1e-12
        for rho in (0.0, 0.5, 1.0):
            out = flip_noise_family(1).nuisance_randomized(rho)
            assert abs(table_sum(out) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# reweighting by corruption posteriors


class TestCorruptionRandomize:
    def test_raw_measure_of_label_revealing_corruption(self):
        # x == y, so conditioning on the corrupted covariate reveals the label
        # and the raw reweighted measure is the product of marginals
        # restricted to the diagonal
        p = JointTable(("y", "z", "x"), {(0, 0, 0): 0.3, (1, 0, 1): 0.7})
        ident = FiniteCorruption.deterministic(lambda x: x, "copy")
        yx = p.marginal("y", "x").cells
        images = _images(yx, ident)
        raw = _reweighted_by(yx, {0: 0.3, 1: 0.7}, images,
                             _posterior_given_corrupted(yx, images))
        assert raw == pytest.approx({(0, 0): 0.09, (1, 1): 0.49}, abs=1e-15)

    def test_label_revealing_corruption_normalized_output(self):
        p = JointTable(("y", "z", "x"), {(0, 0, 0): 0.3, (1, 0, 1): 0.7})
        ident = FiniteCorruption.deterministic(lambda x: x, "copy")
        out = corruption_randomize(p, ident)
        assert out.prob(y=0, x=0) == pytest.approx(0.09 / 0.58, abs=1e-12)
        assert out.prob(y=1, x=1) == pytest.approx(0.49 / 0.58, abs=1e-12)

    def test_constant_corruption_changes_nothing(self):
        p = flip_noise_family(1).joint(0.9)
        out = corruption_randomize(p, CONSTANT)
        assert out.l1(p.marginal("y", "x")) < 1e-14

    def test_nuisance_extracting_corruption_reaches_broken_link(self):
        # corrupting down to the nuisance coordinate reweights the training
        # joint exactly onto the nuisance-randomized one
        p = flip_noise_family(1).joint(0.9)
        got = corruption_randomize(p, SECOND_COORD)
        want = nuisance_randomize(p).marginal("y", "x")
        assert got.l1(want) < 1e-12

    def test_normalized(self):
        p = flip_noise_family(2).joint(0.7)
        out = corruption_randomize(p, SECOND_COORD)
        assert abs(table_sum(out) - 1.0) < 1e-12

    def test_zero_posterior_raises(self):
        eps = 1e-13
        p = JointTable(("y", "z", "x"), {(0, 0, 0): 1.0 - eps, (1, 0, 0): eps})
        assert eps < POSTERIOR_FLOOR
        ident = FiniteCorruption.deterministic(lambda x: x, "copy")
        with pytest.raises(UndefinedWeightError):
            corruption_randomize(p, ident)


# ---------------------------------------------------------------------------
# posteriors used by the biased models


class TestBiasedPosterior:
    def test_independent_case_returns_marginal(self):
        p = flip_noise_family(1).joint(0.5)
        post = biased_posterior(p, "z")
        for z in (-1, 1):
            assert post[z][1] == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_relationship(self):
        post = biased_posterior(flip_noise_family(1).joint(1.0), "z")
        assert post[1][1] == pytest.approx(1.0, abs=1e-12)

    def test_strong_relationship(self):
        post = biased_posterior(flip_noise_family(1).joint(0.9), "z")
        assert post[1][1] == pytest.approx(0.9, abs=1e-12)

    def test_corruption_conditioner_matches_nuisance_conditioner(self):
        # extracting the nuisance coordinate conditions exactly like z itself
        p = flip_noise_family(1).joint(0.9)
        via_var = biased_posterior(p, "z")
        via_corr = biased_posterior(p, SECOND_COORD)
        for z in (-1, 1):
            for y in (-1, 1):
                assert via_corr[z][y] == pytest.approx(via_var[z][y], abs=1e-12)

    def test_zero_mass_lookup_raises(self):
        post = biased_posterior(flip_noise_family(1).joint(0.9), "z")
        assert 42 not in post


# ---------------------------------------------------------------------------
# sign-predictor accuracies (the worked 2-member construction)


class TestPredictorAccuracy:
    def test_constant_predictor_on_balanced_labels(self):
        p = flip_noise_family(1).joint(0.3)
        assert predictor_accuracy(p, lambda x: 1) == pytest.approx(0.5, abs=1e-15)

    def test_semantic_coordinate_is_stable(self):
        for rho in (0.0, 1.0):
            p = flip_noise_family(1).joint(rho)
            assert predictor_accuracy(p, lambda x: x[0]) == pytest.approx(0.90, abs=1e-12)

    def test_nuisance_coordinate_is_unstable(self):
        preds = dict(zip(BINARY_INPUTS, (1, -1, 1, -1)))  # follows -x[1]
        assert predictor_accuracy(flip_noise_family(1).joint(0.0), preds) == pytest.approx(1.0, abs=1e-12)
        assert predictor_accuracy(flip_noise_family(1).joint(1.0), preds) == pytest.approx(0.0, abs=1e-12)

    def test_mapping_and_callable_agree(self):
        p = flip_noise_family(1).joint(0.7)
        for bits in range(16):
            outs = tuple(-1 if (bits >> (3 - j)) & 1 else 1 for j in range(4))
            mapping = dict(zip(BINARY_INPUTS, outs))
            fn = lambda x, m=mapping: m[x]
            assert predictor_accuracy(p, mapping) == pytest.approx(
                predictor_accuracy(p, fn), abs=1e-15)

    def test_mapping_missing_input_raises(self):
        p = flip_noise_family(1).joint(0.5)
        with pytest.raises(ValueError):
            predictor_accuracy(p, {(-1, -1): 1})


class TestEnumerateBinaryPredictors:
    def test_sixteen_rows_in_index_order(self):
        rows = enumerate_binary_predictors()
        assert [r.index for r in rows] == list(range(16))

    def test_prediction_encoding(self):
        rows = enumerate_binary_predictors()
        assert rows[0].predictions == (1, 1, 1, 1)
        assert rows[5].predictions == (1, -1, 1, -1)
        assert rows[15].predictions == (-1, -1, -1, -1)

    def test_accuracies_match_closed_form_oracle(self):
        for row in enumerate_binary_predictors():
            as_map = dict(zip(BINARY_INPUTS, row.predictions))
            assert row.acc_low == pytest.approx(ref_flip_accuracy(as_map, 0.0), abs=1e-12)
            assert row.acc_high == pytest.approx(ref_flip_accuracy(as_map, 1.0), abs=1e-12)
            assert row.min_acc == pytest.approx(min(row.acc_low, row.acc_high), abs=1e-15)

    def test_pinned_rows(self):
        rows = enumerate_binary_predictors()
        assert (rows[0].acc_low, rows[0].acc_high) == pytest.approx((0.50, 0.50), abs=1e-12)
        assert (rows[5].acc_low, rows[5].acc_high) == pytest.approx((1.00, 0.00), abs=1e-12)
        assert (rows[10].acc_low, rows[10].acc_high) == pytest.approx((0.00, 1.00), abs=1e-12)
        assert (rows[12].acc_low, rows[12].acc_high) == pytest.approx((0.90, 0.90), abs=1e-12)

    def test_semantic_predictor_uniquely_maximizes_worst_case(self):
        rows = enumerate_binary_predictors()
        best = max(rows, key=lambda r: r.min_acc)
        assert best.index == 12
        assert rows[12].min_acc == pytest.approx(0.90, abs=1e-12)
        others = [r.min_acc for r in rows if r.index != 12]
        assert max(others) <= 0.5 + 1e-12  # every alternative is that far behind


# ---------------------------------------------------------------------------
# conditional-independence diagnostics


class TestCondIndepGap:
    def test_zero_for_product_distribution(self):
        t = JointTable(("a", "b"), {(i, j): 0.25 for i in (0, 1) for j in (0, 1)})
        assert cond_indep_gap(t, "a", "b", ()) == pytest.approx(0.0, abs=1e-15)

    def test_nonzero_for_dependent_pair(self):
        t = JointTable(("a", "b"), {(0, 0): 0.5, (1, 1): 0.5})
        # worst cell deviation |p(a, b) - p(a) p(b)| = |0.5 - 0.25|
        assert cond_indep_gap(t, "a", "b", ()) == pytest.approx(0.25, abs=1e-15)

    def test_coordinate_shuffle_breaks_label_dependence_given_nuisance(self):
        fam = negated_coordinate_family(1.0, 8)
        ext = extend_with_corruption(fam.joint(0.8), FiniteCorruption.coordinate_permutations(3))
        assert cond_indep_gap(ext, "t", "y", "z") <= 1e-12

    def test_mask_breaks_both_directions(self):
        fam = xor_sign_family(1.0, 8)
        ext = extend_with_corruption(fam.joint(0.8), MASK_FIRST)
        assert cond_indep_gap(ext, "t", "y", "z") <= 1e-12
        assert cond_indep_gap(ext, "y", "z", "t") <= 1e-12

    def test_extended_table_normalized(self):
        fam = xor_sign_family(1.0, 6)
        ext = extend_with_corruption(fam.joint(0.6), MASK_FIRST)
        assert abs(table_sum(ext) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# the guarantee: reweighting error is controlled by the independence defect


class TestCorruptionBound:
    def test_zero_posterior_raises(self):
        """The near-degenerate table that ``corruption_randomize`` refuses:
        the bound's own moment loop meets the posterior below the floor."""
        p = JointTable(("y", "z", "x"), {(0, 0, 0): 1.0 - 1e-13, (1, 0, 0): 1e-13})
        ident = FiniteCorruption.deterministic(lambda x: x, "copy")
        with pytest.raises(UndefinedWeightError,
                           match=r"^posterior for label 1 under corrupted value 0 is below 1e-12$"):
            corruption_bound(p, ident)

    def test_ideal_corruption_coordinate_shuffle(self):
        fam = negated_coordinate_family(1.0, 8)
        report = corruption_bound(fam.joint(0.8), FiniteCorruption.coordinate_permutations(3))
        assert report.epsilon <= 1e-9
        assert report.l1 <= 1e-9
        assert report.holds

    def test_ideal_corruption_mask(self):
        fam = xor_sign_family(1.0, 8)
        report = corruption_bound(fam.joint(0.8), MASK_FIRST)
        assert report.epsilon <= 1e-9
        assert report.l1 <= 1e-9
        assert report.holds

    def test_constant_corruption_distance_is_training_gap(self):
        p = flip_noise_family(1).joint(0.9)
        report = corruption_bound(p, CONSTANT)
        want = nuisance_randomize(p).marginal("y", "x").l1(p.marginal("y", "x"))
        assert report.l1 == pytest.approx(want, abs=1e-12)
        assert report.holds

    def test_bound_holds_across_family_grid(self):
        for rho in (0.05, 0.3, 0.5, 0.8, 0.95):
            for fam, corr in (
                (negated_coordinate_family(0.8, 6), FiniteCorruption.coordinate_permutations(3)),
                (xor_sign_family(0.8, 6), MASK_FIRST),
                (flip_noise_family(1), CONSTANT),
                (flip_noise_family(2), SECOND_COORD),
            ):
                report = corruption_bound(fam.joint(rho), corr)
                assert report.holds, (fam.name, rho)
                assert report.l1 <= report.epsilon * report.moment + 1e-9


@st.composite
def corrupted_tables(draw):
    """A small (y, z, x) joint with every (y, z) pair present, and a finite
    corruption t = table[(x, d)] whose noise pmf may give some d zero mass,
    so that some t are reached only through zero-mass noise."""
    ny, nz, nx, nd = (draw(st.integers(1, k)) for k in (3, 3, 4, 3))
    keys = [(y, z, x) for y in range(ny) for z in range(nz) for x in range(nx)]
    weights = draw(st.lists(st.integers(0, 4), min_size=len(keys), max_size=len(keys)))
    for i, (y, z, x) in enumerate(keys):
        if x == (y + z) % nx:   # every (y, z) pair keeps some mass
            weights[i] += 1
    noise = draw(st.lists(st.integers(0, 3), min_size=nd, max_size=nd))
    if not any(noise):
        noise[0] = 1
    table = dict(zip([(x, d) for x in range(nx) for d in range(nd)],
                     draw(st.lists(st.integers(0, 5), min_size=nx * nd, max_size=nx * nd))))
    cells = {k: w / sum(weights) for k, w in zip(keys, weights) if w}
    pmf = {d: w / sum(noise) for d, w in enumerate(noise)}
    return cells, FiniteCorruption(lambda x, d: table[(x, d)], pmf), set(table.values())


def assert_close_tables(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, value in want.items():
        assert math.isclose(got[key], value, rel_tol=1e-12, abs_tol=1e-12), key


@settings(max_examples=200, deadline=None)
@given(corrupted_tables())
def test_corruption_engine_matches_enumerated_oracle(case):
    """corruption_bound, extend_with_corruption, corruption_randomize and
    biased_posterior against sums over every (y, z, x, d).  epsilon is
    compared squared: its square root turns a rounding error of 1e-18 in a
    zero sum into 1e-9."""
    cells, corruption, reachable = case
    p = JointTable(("y", "z", "x"), cells)
    ref = ref_corruption_bound(cells, corruption.fn, corruption.delta_pmf)
    rep = corruption_bound(p, corruption)
    assert math.isclose(rep.epsilon ** 2, ref["epsilon"] ** 2, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(rep.moment, ref["moment"], rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(rep.l1, ref["l1"], rel_tol=1e-12, abs_tol=1e-12)
    assert rep.holds and ref["l1"] <= ref["moment"] * ref["epsilon"] + 1e-9
    assert_close_tables(extend_with_corruption(p, corruption).cells, ref["yzt"])
    assert_close_tables(corruption_randomize(p, corruption).cells, ref["reweighted"])
    post = biased_posterior(p, corruption)
    for t, row in ref["post_t"].items():
        assert_close_tables(post[t], row)
    for t in reachable - set(ref["post_t"]):
        assert t not in post


@st.composite
def checked_tables(draw):
    """A table over one to four variables whose cells are random floats,
    subnormal ones included (a cell that divides to zero is dropped)."""
    names = draw(st.permutations(("a", "b", "c", "d")))[:draw(st.integers(1, 4))]
    values = st.sampled_from((-2, 0, 1, 2.5, "s"))
    keys = draw(st.lists(st.tuples(*[values] * len(names)), min_size=1, max_size=40,
                         unique=True))
    weights = draw(st.lists(st.floats(5e-324, 1.0), min_size=len(keys), max_size=len(keys)))
    total = math.fsum(weights)
    return JointTable(names, {k: w / total for k, w in zip(keys, weights)})


@settings(max_examples=150, deadline=None)
@given(checked_tables())
def test_marginals_pass_the_cell_checks_unchanged(table):
    """A marginal checks only its names and its total; the constructor's
    per-cell checks keep every cell of every marginal, in order, bit for
    bit."""
    for size in range(len(table.variables) + 1):
        for names in itertools.permutations(table.variables, size):
            m = table.marginal(*names)
            again = JointTable(m.variables, m.cells)
            assert [(k, q.hex()) for k, q in again.cells.items()] == \
                [(k, q.hex()) for k, q in m.cells.items()]


MARGINAL_NAMES = (("y",), ("z",), ("x",), ("y", "x"), ("x", "y"), ("y", "z"),
                  ("z", "y"), ("z", "x"), ("y", "z", "x"))


@settings(max_examples=100, deadline=None)
@given(corrupted_tables(), st.permutations(MARGINAL_NAMES), st.integers(0, len(MARGINAL_NAMES)))
def test_kept_marginals_do_not_depend_on_request_order(case, order, warm):
    """A table whose marginals were requested in any order first gives the
    same bits as a fresh one."""
    cells, corruption, _reachable = case
    fresh = JointTable(("y", "z", "x"), cells)
    warmed = JointTable(("y", "z", "x"), cells)
    for names in order[:warm]:
        warmed.marginal(*names)
    for names in order:
        got, want = warmed.marginal(*names), fresh.marginal(*names)
        assert got.variables == want.variables
        assert [(k, q.hex()) for k, q in got.cells.items()] == \
            [(k, q.hex()) for k, q in want.cells.items()]
    a = corruption_bound(warmed, corruption)
    b = corruption_bound(JointTable(("y", "z", "x"), cells), corruption)
    assert (a.epsilon.hex(), a.moment.hex(), a.l1.hex()) == \
        (b.epsilon.hex(), b.moment.hex(), b.l1.hex())


@settings(max_examples=100, deadline=None)
@given(corrupted_tables())
def test_one_pass_marginals_and_randomized_cells_are_fresh_bits(case):
    """The two passes hand on p's y and (y, x) marginals and pp's (y, x)
    marginal with the bits that ``marginal`` gives, and pp's cells are
    p(y) p(z) q / p(y, z) of p's marginals, bit for bit."""
    cells, corruption, _reachable = case

    def bits(cells):
        return [(k, q.hex()) for k, q in cells.items()]

    fresh = JointTable(("y", "z", "x"), cells)
    y_m_cells, z_m, yz = (fresh.marginal(*n).cells for n in (("y",), ("z",), ("y", "z")))
    want = {}
    for (y, z, x), q in fresh.cells.items():
        v = y_m_cells[(y,)] * z_m[(z,)] * q / yz[(y, z)]
        if v > 0.0:
            want[(y, z, x)] = v
    factors, y_m, yx = _first_pass(fresh)
    assert bits({(y,): q for y, q in y_m.items()}) == bits(y_m_cells)
    assert bits(yx) == bits(fresh.marginal("y", "x").cells)
    images = _images(yx, corruption)
    for noise in ((), (images[0], _posterior_given_corrupted(yx, images))):
        pp, target, _eps2, _m2 = _randomized(fresh, factors, *noise)
        assert bits(pp.cells) == bits(want)
        assert bits(target) == bits(pp.marginal("y", "x").cells)
    assert bits(nuisance_randomize(JointTable(("y", "z", "x"), cells)).cells) == bits(want)


# ---------------------------------------------------------------------------
# frozen bits: every float the engine returns on a fixed grid


def _pin_corruptions(dim):
    """Every coordinate mask, absolute values and, in 3-d, permutations."""
    masks = [tuple(bool(bits >> i & 1) for i in range(dim)) for bits in range(1, 2 ** dim)]
    out = [FiniteCorruption.deterministic(
        lambda x, m=m: tuple(v if k else 0.0 for v, k in zip(x, m)), f"mask{m}")
        for m in masks]
    out.append(FiniteCorruption.deterministic(lambda x: tuple(abs(v) for v in x), "abs"))
    if dim == 3:
        out.append(FiniteCorruption.coordinate_permutations(3))
    return out


def _hash_table(h, table):
    for key, q in sorted(table.cells.items(), key=lambda kv: repr(kv[0])):
        h.update(f"{key!r}={q.hex()};".encode())


def engine_bits_digest():
    """sha256 over ``float.hex`` of the bound report and of the cells of the
    three derived tables, for every (family, rho, corruption) on the grid."""
    import hashlib

    h = hashlib.sha256()
    for fam, dim in ((flip_noise_family(1), 2), (flip_noise_family(2), 2),
                     (negated_coordinate_family(0.5, 6), 3), (xor_sign_family(0.5, 6), 2)):
        for rho in (0.2, 0.7):
            p = fam.joint(rho)
            h.update(f"{fam.name} {rho}|".encode())
            _hash_table(h, nuisance_randomize(p))
            for corr in _pin_corruptions(dim):
                h.update(f"{corr.label}|".encode())
                rep = corruption_bound(p, corr)
                h.update(f"{rep.epsilon.hex()} {rep.moment.hex()} {rep.l1.hex()}|".encode())
                _hash_table(h, corruption_randomize(p, corr))
                _hash_table(h, extend_with_corruption(p, corr))
    return h.hexdigest()


ENGINE_BITS = "639ed45470176055d931a7e28b0360bc654efa0bf2b5a97d6d63062c8770e46e"


def test_engine_bits_are_frozen():
    assert engine_bits_digest() == ENGINE_BITS


FAMILY_RANDOMIZED_BITS = "5cbba804f93a2fa9607f19f0dc7ed6b952553665c1611b2f5d6c2c52d2ec8b58"


def test_family_randomized_bits_are_frozen():
    """sha256 over ``float.hex`` of every cell of the family form of the
    nuisance-randomized joint, six families at seven values of rho, the
    degenerate extremes 0 and 1 included."""
    import hashlib

    h = hashlib.sha256()
    for fam in (flip_noise_family(1), flip_noise_family(2), negated_coordinate_family(1.2, 6),
                negated_coordinate_family(0.3, 5), xor_sign_family(0.8, 6),
                xor_sign_family(1.0, 8)):
        for rho in (0.0, 0.05, 0.3, 0.5, 0.77, 0.95, 1.0):
            for k, v in sorted(fam.nuisance_randomized(rho).cells.items(), key=repr):
                h.update(f"{k!r}:{v.hex()};".encode())
    assert h.hexdigest() == FAMILY_RANDOMIZED_BITS


def test_bound_report_excess_is_holds_as_a_distance():
    """On every report of the frozen grid, ``excess`` is ``<= 0`` exactly
    when the bound holds, bit for bit ``-(moment * epsilon + BOUND_SLACK -
    l1)`` (so a zero keeps its sign); a hand-built violation reads
    positive."""
    for fam, dim in ((flip_noise_family(1), 2), (flip_noise_family(2), 2),
                     (negated_coordinate_family(0.5, 6), 3), (xor_sign_family(0.5, 6), 2)):
        for rho in (0.2, 0.7):
            p = fam.joint(rho)
            for corr in _pin_corruptions(dim):
                rep = corruption_bound(p, corr)
                assert rep.holds == (rep.excess <= 0.0)
                want = -(rep.moment * rep.epsilon + BOUND_SLACK - rep.l1)
                assert rep.excess.hex() == want.hex(), (fam.name, rho, corr.label)
    assert BoundReport(0.1, 1.0, 0.5, False).excess > 0.0
