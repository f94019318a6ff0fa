"""Acceptance suite.

Seven criteria covering the exact engine, the corruption properties, the
learner numerics, the desk benchmarks, and learned-versus-exact agreement.
Each test prints exactly one ``[PASS]``/``[FAIL]`` line (written to the real
stdout so the lines survive pytest's capture), then asserts.
"""

from time import perf_counter

import numpy as np
import pytest

from semcorrupt.corruptions import (
    CorruptionSpec,
    Grid,
    SentencePair,
    TokenSeq,
    apply,
    ngram_randomize,
)
from semcorrupt.exact import (
    BINARY_INPUTS,
    FiniteCorruption,
    biased_posterior,
    corruption_bound,
    enumerate_binary_predictors,
    predictor_accuracy,
)
from semcorrupt.families import (
    flip_noise_family,
    negated_coordinate_family,
    sample_family,
    synthetic_image_task,
    synthetic_nli_task,
    xor_sign_family,
)
from semcorrupt.harness import (
    REFERENCE_PREDICTOR_TABLE,
    desk_image_experiment,
    desk_nli_experiment,
    fuzz_bound_checks,
    run_experiment,
)
from semcorrupt.learner import (
    FeatureSpec,
    LinearModel,
    TrainConfig,
    ce_loss_grad,
    dfl_loss_grad,
    featurize,
    poe_loss_grad,
    predict_proba,
    train,
)
from semcorrupt.rng import derive_seed
from semcorrupt.scams import FeatureStore, build_biased_model, run_dfl, run_jtt

from reference import central_difference, max_relative_error

TABLE_TOL = 1e-12          # per-cell tolerance for the 16-row table
EXACT_ZERO_TOL = 1e-9      # "exactly zero" tolerance for exact-engine floats
PROJECTION_TOL = 1e-4      # frequency-filter repeat-application tolerance
FD_TOL = 1e-4              # relative error versus finite differences
SUP_TOL = 0.05             # learned-versus-exact posterior sup-norm
REWEIGHT_L1_TOL = 0.03     # reweighted empirical versus exact L1
IMAGE_MARGIN = 0.10        # corruption-powered methods over plain training
NLI_MARGIN = 0.05
REGRESSION_TOL = 0.02      # drift allowed around the frozen baselines
PROPERTY_DRAWS = 1000      # randomized inputs per corruption property

# Flipped-test accuracy means recorded from the first verified run of the
# desk benchmarks (5 seeds); reruns must stay within REGRESSION_TOL.
IMAGE_FLIPPED_BASELINES = {
    "erm": 0.0977,
    "nurd+pr8": 0.9876,
    "jtt6+pr8": 1.0000,
    "nurd+rm16": 1.0000,
    "nurd+ff30": 1.0000,
    "nurd+if0.4": 1.0000,
    "jtt6+id": 0.0977,
}
NLI_FLIPPED_BASELINES = {
    "erm": 0.3417,
    "poe+nr1": 0.5478,
    "dfl2+nr1": 0.8540,
    "jtt6+nr1": 0.7183,
}

IMAGE_CORRUPTION_POWERED = ("nurd+pr8", "jtt6+pr8", "nurd+rm16",
                            "nurd+ff30", "nurd+if0.4")
NLI_CORRUPTION_POWERED = ("poe+nr1", "dfl2+nr1", "jtt6+nr1")


def report(capsys, name: str, failures: list, detail: str) -> None:
    """One visible pass/fail line per criterion, then the assertion."""
    if failures:
        line = f"[FAIL] {name}: " + "; ".join(str(f) for f in failures[:5])
    else:
        line = f"[PASS] {name}: {detail}"
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert not failures, line


def test_c1_predictor_table_reproduction(capsys):
    t0 = perf_counter()
    rows = enumerate_binary_predictors()
    failures = []
    if len(rows) != 16:
        failures.append(f"expected 16 rows, got {len(rows)}")
    for row, want in zip(rows, REFERENCE_PREDICTOR_TABLE):
        cells = (("acc_rho0", row.acc_low, want[0]),
                 ("acc_rho1", row.acc_high, want[1]),
                 ("min", row.min_acc, want[2]))
        for tag, got, exp in cells:
            if abs(got - exp) > TABLE_TOL:
                failures.append(f"row {row.index} {tag}: {got!r} != {exp!r}")
    best = max(r.min_acc for r in rows)
    winners = [r.index for r in rows if r.min_acc == best]
    if winners != [12]:
        failures.append(f"max-min winners {winners}, expected [12]")
    stable = rows[12]
    for tag, got in (("acc_rho0", stable.acc_low), ("acc_rho1", stable.acc_high),
                     ("min", stable.min_acc)):
        if abs(got - 0.90) > TABLE_TOL:
            failures.append(f"row 12 {tag} {got!r} != 0.90")
    elapsed = perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    report(capsys, "C1 predictor-table", failures,
           f"16 rows within {TABLE_TOL:g}, unique max-min row 12 at "
           f"0.90/0.90/0.90, {elapsed * 1000:.0f} ms")


def test_c2_matched_joints_and_zero_accuracy(capsys):
    t0 = perf_counter()
    failures = []
    a = flip_noise_family(1).joint(0.9).marginal("y", "x").cells
    b = flip_noise_family(2).joint(0.9).marginal("y", "x").cells
    if set(a) != set(b):
        failures.append("joint supports differ")
    else:
        diffs = [k for k in a if a[k] != b[k]]
        if diffs:
            failures.append(f"{len(diffs)} joint cells differ, e.g. {diffs[0]}")
    swapped = flip_noise_family(2).joint(0.0).marginal("y", "x")
    strong = [r for r in enumerate_binary_predictors() if r.min_acc > 0.5]
    if not strong:
        failures.append("no predictor beats chance on both extremes")
    for r in strong:
        acc = predictor_accuracy(swapped, dict(zip(BINARY_INPUTS, r.predictions)))
        if acc != 0.0:
            failures.append(f"row {r.index} scores {acc!r} on the swapped "
                            "variant, expected exactly 0.0")
    elapsed = perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1s")
    report(capsys, "C2 matched-joints/zero-accuracy", failures,
           f"joints identical bit for bit; strong rows "
           f"{[r.index for r in strong]} score exactly 0.0 when the "
           f"relationship is swapped, {elapsed * 1000:.0f} ms")


def test_c3_randomization_distance_bounds(capsys):
    t0 = perf_counter()
    failures = []
    perm_rep = corruption_bound(
        negated_coordinate_family(1.0, 8).joint(0.8),
        FiniteCorruption.coordinate_permutations(3),
    )
    mask_rep = corruption_bound(
        xor_sign_family(1.0, 8).joint(0.8),
        FiniteCorruption.deterministic(lambda x: (0.0, x[1])),
    )
    for tag, rep in (("permutation", perm_rep), ("mask", mask_rep)):
        if rep.epsilon > EXACT_ZERO_TOL:
            failures.append(f"{tag}: epsilon {rep.epsilon:.2e} > {EXACT_ZERO_TOL:g}")
        if rep.l1 > EXACT_ZERO_TOL:
            failures.append(f"{tag}: distance {rep.l1:.2e} > {EXACT_ZERO_TOL:g}")
    fuzz = fuzz_bound_checks(200, seed=0)
    if not fuzz.passed:
        failures.append(f"fuzz: {fuzz.detail}")
    elapsed = perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    report(capsys, "C3 distance-bounds", failures,
           f"both canonical corruptions exact (eps, l1 <= {EXACT_ZERO_TOL:g}); "
           f"{fuzz.detail}; {elapsed:.1f} s")


def test_c4_corruption_properties(capsys):
    rng = np.random.default_rng(20260822)
    sizes = (4, 8, 12, 16)
    failures = []

    def rand_grid() -> Grid:
        h, w = int(rng.choice(sizes)), int(rng.choice(sizes))
        return Grid(rng.random((h, w)))

    def rand_tokens(min_len: int = 1) -> TokenSeq:
        length = int(rng.integers(min_len, 13))
        return TokenSeq(tuple(int(t) for t in rng.integers(1, 21, size=length)),
                        mask_id=0)

    def rand_pair():
        return SentencePair(rand_tokens(), rand_tokens())

    def tally(tag, count):
        if count:
            failures.append(f"{tag}: {count}/{PROPERTY_DRAWS} violations")

    # pixel multiset preservation under patch randomization
    bad = 0
    for i in range(PROPERTY_DRAWS):
        g = rand_grid()
        spec = CorruptionSpec("patch_randomize", int(rng.choice((1, 2, 4))), i)
        out = apply(spec, g, i)
        if not np.array_equal(np.sort(out.values.ravel()),
                              np.sort(g.values.ravel())):
            bad += 1
    tally("patch multiset", bad)

    # idempotence of the region mask and the intensity filter (bit-exact)
    for kind, param_of in (("roi_mask", lambda g: int(rng.integers(0, min(g.values.shape[:2]) + 1))),
                           ("intensity_filter", lambda g: float(rng.random()))):
        bad = 0
        for i in range(PROPERTY_DRAWS):
            g = rand_grid()
            spec = CorruptionSpec(kind, param_of(g), i)
            once = apply(spec, g, i)
            twice = apply(spec, once, i)
            if not np.array_equal(once.values, twice.values):
                bad += 1
        tally(f"{kind} idempotence", bad)

    # frequency filtering is a projection (within numerical tolerance)
    bad = 0
    for i in range(PROPERTY_DRAWS):
        g = rand_grid()
        spec = CorruptionSpec("freq_filter",
                              int(rng.integers(0, min(g.values.shape[:2]) + 1)), i)
        once = apply(spec, g, i)
        twice = apply(spec, once, i)
        if np.abs(twice.values - once.values).max() > PROJECTION_TOL:
            bad += 1
    tally("frequency projection", bad)

    # block-multiset preservation and long-block identity for n-gram shuffles
    def concatenates_some_block_order(tokens: tuple, blocks: list) -> bool:
        """True when ``tokens`` is a permutation of ``blocks`` laid end to end."""
        if not blocks:
            return tokens == ()
        tried = set()
        for j, blk in enumerate(blocks):
            if blk in tried:
                continue
            tried.add(blk)
            if tokens[:len(blk)] == blk and concatenates_some_block_order(
                    tokens[len(blk):], blocks[:j] + blocks[j + 1:]):
                return True
        return False

    bad_multiset = bad_identity = 0
    for i in range(PROPERTY_DRAWS):
        seq = rand_tokens()
        n = int(rng.integers(1, 4))
        # apply's sub-seed for a pair's premise: derive_seed(derive_seed(seed, index), 0)
        out = ngram_randomize(seq, n, derive_seed(derive_seed(i, i), 0))
        full = len(seq.tokens) // n
        blocks = [seq.tokens[k * n:(k + 1) * n] for k in range(full)]
        if len(seq.tokens) % n:
            blocks.append(seq.tokens[full * n:])
        if not concatenates_some_block_order(out.tokens, blocks):
            bad_multiset += 1
        whole = ngram_randomize(seq, len(seq.tokens) + int(rng.integers(0, 3)),
                                derive_seed(derive_seed(i, i), 0))
        if whole.tokens != seq.tokens:
            bad_identity += 1
    tally("ngram multiset", bad_multiset)
    tally("ngram long-block identity", bad_identity)

    # premise masking never touches the hypothesis
    bad = 0
    for i in range(PROPERTY_DRAWS):
        pair = rand_pair()
        out = apply(CorruptionSpec("premise_mask"), pair, i)
        if out.hypothesis != pair.hypothesis or set(out.premise.tokens) != {0}:
            bad += 1
    tally("premise masking", bad)

    # every corruption is a deterministic function of (spec, input, index)
    bad = 0
    kinds = ("identity", "patch_randomize", "roi_mask", "freq_filter",
             "intensity_filter", "rand_crop", "gauss_noise",
             "ngram_randomize", "premise_mask", "coordinate_mask")
    for i in range(PROPERTY_DRAWS):
        kind = kinds[i % len(kinds)]
        if kind in ("ngram_randomize",):
            seq = rand_tokens()
            cov, param = SentencePair(seq, seq), int(rng.integers(1, 4))
        elif kind == "premise_mask":
            cov, param = rand_pair(), None
        elif kind == "coordinate_mask":
            cov = tuple(float(v) for v in rng.normal(size=3))
            param = int(rng.integers(0, 3))
        elif kind == "identity":
            cov, param = rand_grid(), None
        else:
            cov = rand_grid()
            param = {"patch_randomize": int(rng.choice((1, 2, 4))),
                     "roi_mask": int(rng.integers(0, 5)),
                     "freq_filter": int(rng.integers(0, 5)),
                     "intensity_filter": float(rng.random()),
                     "rand_crop": 0.3 + 0.7 * float(rng.random()),
                     "gauss_noise": float(rng.random()) * 0.1}[kind]
        spec = CorruptionSpec(kind, param, int(rng.integers(0, 1000)))
        first, second = apply(spec, cov, i), apply(spec, cov, i)
        if isinstance(first, Grid):
            same = np.array_equal(first.values, second.values)
        else:
            same = first == second
        if not same:
            bad += 1
    tally("determinism", bad)

    report(capsys, "C4 corruption-properties", failures,
           f"multiset/idempotence/projection/immutability/determinism all "
           f"100% over {PROPERTY_DRAWS} randomized inputs per property")


def test_c5_learner_numerics(capsys):
    rng = np.random.default_rng(7)
    failures = []
    worst = 0.0
    batches = 100
    for b in range(batches):
        hidden = int(rng.choice((0, 3)))
        wd = float(rng.choice((0.0, 0.05)))
        n, d, c = 6, 3, int(rng.choice((2, 3)))
        X = rng.normal(size=(n, d))
        Xb = rng.normal(size=(n, d))
        y = rng.integers(0, c, size=n)
        main = LinearModel(d, c, hidden, seed=b)
        main.set_flat(rng.normal(size=main.get_flat().size) * 0.5)
        biased = LinearModel(d, c, 0, seed=b + 1)
        biased.set_flat(rng.normal(size=biased.get_flat().size) * 0.5)
        wts = rng.uniform(0.0, 2.0, size=n)
        wts[rng.integers(0, n)] = 0.0
        gamma = float(rng.choice((0.5, 2.0)))

        loss_ce, grad_ce = ce_loss_grad(main, X, y, sample_weights=wts,
                                        weight_decay=wd)
        def f_ce(flat):
            probe = main.copy()
            probe.set_flat(np.asarray(flat))
            return ce_loss_grad(probe, X, y, sample_weights=wts,
                                weight_decay=wd)[0]
        fd = central_difference(f_ce, list(main.get_flat()))
        worst = max(worst, max_relative_error(list(grad_ce), fd))

        _, grad_main, grad_biased = poe_loss_grad(main, biased, X, Xb, y,
                                                  weight_decay=wd)
        def f_poe_main(flat):
            probe = main.copy()
            probe.set_flat(np.asarray(flat))
            return poe_loss_grad(probe, biased, X, Xb, y, weight_decay=wd)[0]
        def f_poe_biased(flat):
            probe = biased.copy()
            probe.set_flat(np.asarray(flat))
            return poe_loss_grad(main, probe, X, Xb, y, weight_decay=wd)[0]
        worst = max(worst, max_relative_error(
            list(grad_main), central_difference(f_poe_main, list(main.get_flat()))))
        worst = max(worst, max_relative_error(
            list(grad_biased), central_difference(f_poe_biased, list(biased.get_flat()))))

        bprobs = predict_proba(biased, Xb)
        _, grad_dfl = dfl_loss_grad(main, bprobs, X, y, gamma, weight_decay=wd)
        def f_dfl(flat):
            probe = main.copy()
            probe.set_flat(np.asarray(flat))
            return dfl_loss_grad(probe, bprobs, X, y, gamma, weight_decay=wd)[0]
        worst = max(worst, max_relative_error(
            list(grad_dfl), central_difference(f_dfl, list(main.get_flat()))))
    if worst >= FD_TOL:
        failures.append(f"finite-difference relative error {worst:.2e} >= {FD_TOL:g}")

    # degenerate-parameter runs must be bit-identical to plain training
    ds = synthetic_image_task(0.9, 200, 1)
    fs = FeatureSpec("flatten_grid")
    cfg_main = TrainConfig(epochs=3, batch_size=64, lr=0.1, weight_decay=1e-3, seed=2)
    cfg_aux = TrainConfig(epochs=2, batch_size=64, lr=0.1, weight_decay=0.0, seed=3)
    pr8 = CorruptionSpec("patch_randomize", 8, 7)
    X = featurize(fs, ds.covariates)
    erm = LinearModel(X.shape[1], ds.n_classes, 0, seed=cfg_main.seed)
    train(erm, X, ds.labels, cfg_main)
    jtt_model, _ = run_jtt(FeatureStore(ds, fs), pr8, cfg_main, cfg_aux, 1)
    if not np.array_equal(jtt_model.get_flat(), erm.get_flat()):
        failures.append("upsampling with factor 1 is not bit-identical to plain training")
    dfl_model, _ = run_dfl(FeatureStore(ds, fs), pr8, cfg_main, cfg_aux, 0.0)
    if not np.array_equal(dfl_model.get_flat(), erm.get_flat()):
        failures.append("focus exponent 0 is not bit-identical to plain training")

    report(capsys, "C5 learner-numerics", failures,
           f"worst finite-difference relative error {worst:.2e} over "
           f"{batches} batches x 3 losses; degenerate runs bit-identical "
           f"to plain training")


def test_c6_desk_benchmarks(capsys):
    t0 = perf_counter()
    failures = []
    img_result = run_experiment(*desk_image_experiment())
    nli_result = run_experiment(*desk_nli_experiment())

    def flipped(result, label, metric="accuracy"):
        return result.summary()[label]["test_flipped"][metric][0]

    for result, name in ((img_result, "image"), (nli_result, "nli")):
        for label, outcome in result.outcomes.items():
            if outcome.errors:
                failures.append(f"{name} {label} failed seeds: {outcome.errors}")
            elif len(outcome.per_seed) != 5:
                failures.append(f"{name} {label}: {len(outcome.per_seed)} of 5 seeds")
    if failures:
        report(capsys, "C6 desk-benchmarks", failures, "")

    erm_img = flipped(img_result, "erm")
    for label in IMAGE_CORRUPTION_POWERED:
        margin = flipped(img_result, label) - erm_img
        if margin < IMAGE_MARGIN:
            failures.append(f"image {label} margin {margin * 100:+.1f} pts "
                            f"< {IMAGE_MARGIN * 100:.0f}")
    wg_pr = flipped(img_result, "jtt6+pr8", "worst_group")
    wg_id = flipped(img_result, "jtt6+id", "worst_group")
    if wg_pr < wg_id:
        failures.append(f"corruption-powered upsampling worst-group {wg_pr:.3f} "
                        f"< identity {wg_id:.3f}")
    erm_nli = flipped(nli_result, "erm")
    for label in NLI_CORRUPTION_POWERED:
        margin = flipped(nli_result, label) - erm_nli
        if margin < NLI_MARGIN:
            failures.append(f"nli {label} margin {margin * 100:+.1f} pts "
                            f"< {NLI_MARGIN * 100:.0f}")
    for result, baselines, name in ((img_result, IMAGE_FLIPPED_BASELINES, "image"),
                                    (nli_result, NLI_FLIPPED_BASELINES, "nli")):
        for label, base in baselines.items():
            got = flipped(result, label)
            if abs(got - base) > REGRESSION_TOL:
                failures.append(f"{name} {label} flipped {got:.4f} drifted "
                                f"from baseline {base:.4f}")
    elapsed = perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 10 min")
    report(capsys, "C6 desk-benchmarks", failures,
           f"image margins >= {IMAGE_MARGIN * 100:.0f} pts over plain training "
           f"(worst-group {wg_pr:.2f} vs {wg_id:.2f}), nli margins >= "
           f"{NLI_MARGIN * 100:.0f} pts, all within {REGRESSION_TOL * 100:.0f} "
           f"pts of baselines, {elapsed:.0f} s")


def test_c7_learned_versus_exact(capsys):
    failures = []
    fam = xor_sign_family(1.0, 8)
    joint = fam.joint(0.8)
    mask = FiniteCorruption.deterministic(lambda x: (0.0, x[1]))
    post = biased_posterior(joint, mask)

    ds = sample_family(fam, 0.8, 20000, 41)
    cfg = TrainConfig(epochs=120, batch_size=128, lr=0.1, weight_decay=0.0, seed=5)
    store = FeatureStore(ds, FeatureSpec("raw_vector"))
    masked = CorruptionSpec("coordinate_mask", 0)
    biased = build_biased_model(store, masked, cfg, hidden=8)
    probs = biased.class_probs(store.corrupted(masked))
    sup = 0.0
    for i, x in enumerate(ds.covariates):
        exact = post.at((0.0, x[1]))
        for k in range(ds.n_classes):
            sup = max(sup, abs(probs[i, k] - exact[k]))
    if sup > SUP_TOL:
        failures.append(f"posterior sup-norm {sup:.4f} > {SUP_TOL}")

    ds2 = sample_family(fam, 0.8, 50000, 11)
    target = fam.nuisance_randomized(0.8).marginal("y", "x").cells
    emp = {}
    for x, y in zip(ds2.covariates, ds2.labels):
        w = 0.5 / post.at((0.0, x[1]))[int(y)]
        key = (int(y), x)
        emp[key] = emp.get(key, 0.0) + w
    total = sum(emp.values())
    l1 = sum(abs(emp.get(k, 0.0) / total - p) for k, p in target.items())
    l1 += sum(v / total for k, v in emp.items() if k not in target)
    if l1 > REWEIGHT_L1_TOL:
        failures.append(f"reweighted L1 {l1:.4f} > {REWEIGHT_L1_TOL}")

    report(capsys, "C7 learned-versus-exact", failures,
           f"posterior sup-norm {sup:.4f} <= {SUP_TOL}, reweighted empirical "
           f"L1 {l1:.4f} <= {REWEIGHT_L1_TOL}")
