"""Featurization, models, losses (with finite-difference checks), training."""

import math

import numpy as np
import pytest

from semcorrupt.corruptions import Grid, SentencePair, TokenSeq
from semcorrupt.errors import DispatchError, TrainingError
from semcorrupt.learner import (
    FeatureSpec,
    LinearModel,
    TrainConfig,
    accuracy,
    ce_loss_grad,
    dfl_loss_grad,
    featurize,
    focus_weights,
    log_softmax,
    minibatch_plan,
    poe_loss_grad,
    predict,
    predict_proba,
    softmax,
    train,
)

from reference import central_difference, max_relative_error, ref_ngram_bucket

RNG = np.random.default_rng(20240818)


def grid(values):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    return Grid(arr, unit_range=False)


def random_linear(n_features, n_classes, scale=0.5):
    model = LinearModel(n_features, n_classes)
    model.set_flat(RNG.normal(0.0, scale, model.get_flat().size))
    return model


def random_mlp(n_features, n_classes, hidden, seed=0, scale=0.5):
    model = LinearModel(n_features, n_classes, hidden=hidden, seed=seed)
    model.set_flat(RNG.normal(0.0, scale, model.get_flat().size))
    return model


# ---------------------------------------------------------------------------
# featurization


class TestFeatureSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FeatureSpec("one_hot")

    def test_rejects_bad_bag_params(self):
        with pytest.raises(ValueError):
            FeatureSpec("bag_of_ngrams", ngram=0)
        with pytest.raises(ValueError):
            FeatureSpec("bag_of_ngrams", buckets=0)
        with pytest.raises(ValueError):
            FeatureSpec("bag_of_ngrams", pair_mode="sum")


class TestFeaturize:
    def test_flatten_grid(self):
        X = featurize(FeatureSpec("flatten_grid"), [grid([[1, 0], [0, 1]])])
        assert X.dtype == np.float64
        assert np.array_equal(X, [[1.0, 0.0, 0.0, 1.0]])

    def test_flatten_rejects_non_grid(self):
        with pytest.raises(DispatchError):
            featurize(FeatureSpec("flatten_grid"), [(1.0, 2.0)])

    def test_raw_vector(self):
        X = featurize(FeatureSpec("raw_vector"), [(1, 2), (3, 4)])
        assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_bag_counts_land_in_oracle_buckets(self):
        spec = FeatureSpec("bag_of_ngrams", ngram=2, buckets=64)
        X = featurize(spec, [SentencePair(TokenSeq((1, 2, 3), 0), TokenSeq((), 0))])
        want = np.zeros(128)   # the empty hypothesis's half stays zero
        for window in [(1,), (2,), (3,), (1, 2), (2, 3)]:
            want[ref_ngram_bucket(window, 64)] += 1.0
        assert np.array_equal(X[0], want)
        assert X[0].sum() == 5.0

    def test_frozen_bucket_values(self):
        assert ref_ngram_bucket((1,), 64) == 9
        assert ref_ngram_bucket((2,), 64) == 8
        assert ref_ngram_bucket((3,), 64) == 34
        assert ref_ngram_bucket((1, 2), 64) == 44
        assert ref_ngram_bucket((2, 3), 64) == 11

    def test_unigram_bag_is_order_invariant(self):
        spec = FeatureSpec("bag_of_ngrams", ngram=1, buckets=16)
        a = featurize(spec, [SentencePair(TokenSeq((5, 3, 9, 3), 0), TokenSeq((1, 2), 0))])
        b = featurize(spec, [SentencePair(TokenSeq((3, 9, 5, 3), 0), TokenSeq((2, 1), 0))])
        assert np.array_equal(a, b)

    def test_bigram_bag_is_order_sensitive(self):
        spec = FeatureSpec("bag_of_ngrams", ngram=2, buckets=64)
        a = featurize(spec, [SentencePair(TokenSeq((1, 2, 3), 0), TokenSeq((4, 5), 0))])
        b = featurize(spec, [SentencePair(TokenSeq((3, 2, 1), 0), TokenSeq((4, 5), 0))])
        assert not np.array_equal(a, b)

    def test_pair_concat_and_hypothesis_only(self):
        pair = SentencePair(TokenSeq((1, 2, 3), 0), TokenSeq((4, 5), 0))
        spec = FeatureSpec("bag_of_ngrams", ngram=1, buckets=32)
        X = featurize(spec, [pair])
        assert X.shape == (1, 64)
        want = np.zeros(64)
        for t in (1, 2, 3):
            want[ref_ngram_bucket((t,), 32)] += 1.0
        for t in (4, 5):
            want[32 + ref_ngram_bucket((t,), 32)] += 1.0
        assert np.array_equal(X[0], want)
        with pytest.raises(ValueError):
            FeatureSpec("bag_of_ngrams", ngram=1, buckets=32, pair_mode="hypothesis_only")

    def test_bag_rejects_grid(self):
        with pytest.raises(DispatchError):
            featurize(FeatureSpec("bag_of_ngrams"), [grid([[1.0]])])

    def test_empty(self):
        assert featurize(FeatureSpec("raw_vector"), []).shape == (0, 0)


# ---------------------------------------------------------------------------
# models and probabilities


class TestLinearModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinearModel(0, 2)
        with pytest.raises(ValueError):
            LinearModel(3, 1)
        with pytest.raises(ValueError):
            LinearModel(3, 2, hidden=-1)

    def test_linear_starts_at_zero_uniform_probs(self):
        model = LinearModel(4, 3)
        X = RNG.normal(size=(5, 4))
        assert np.array_equal(model.logits(X), np.zeros((5, 3)))
        assert np.allclose(predict_proba(model, X), 1 / 3, atol=1e-15)

    def test_hidden_init_bounded_and_seeded(self):
        a = LinearModel(10, 2, hidden=6, seed=3)
        b = LinearModel(10, 2, hidden=6, seed=3)
        c = LinearModel(10, 2, hidden=6, seed=4)
        assert np.array_equal(a.get_flat(), b.get_flat())
        assert not np.array_equal(a.get_flat(), c.get_flat())
        assert np.abs(a.weights[0]).max() <= 1 / math.sqrt(10)
        assert np.abs(a.weights[1]).max() <= 1 / math.sqrt(6)
        assert np.array_equal(a.biases[0], np.zeros(6))

    def test_flat_roundtrip(self):
        for hidden in (0, 5):
            model = LinearModel(3, 2, hidden=hidden, seed=1)
            flat = RNG.normal(size=model.get_flat().size)
            model.set_flat(flat)
            assert np.array_equal(model.get_flat(), flat)

    def test_set_flat_wrong_length(self):
        model = LinearModel(3, 2)
        with pytest.raises(ValueError):
            model.set_flat(np.zeros(5))

    @pytest.mark.parametrize("size", [5, 10])
    def test_rejected_set_flat_changes_nothing(self, size):
        model = random_linear(3, 2)
        before = model.get_flat()
        with pytest.raises(ValueError):
            model.set_flat(np.zeros(size))
        assert np.array_equal(model.get_flat(), before)

    def test_set_flat_copies(self):
        for hidden in (0, 5):
            model = LinearModel(3, 2, hidden=hidden, seed=1)
            flat = RNG.normal(size=model.get_flat().size)
            want = flat.copy()
            model.set_flat(flat)
            flat += 1.0
            assert np.array_equal(model.get_flat(), want)

    def test_copy_is_independent(self):
        model = random_linear(3, 2)
        dup = model.copy()
        dup.weights[0][0, 0] += 1.0
        assert model.weights[0][0, 0] != dup.weights[0][0, 0]

    def test_softmax_pin(self):
        probs = softmax(np.array([[1.0, -1.0]]))
        assert probs[0, 0] == pytest.approx(0.8807970779778823, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance(self):
        logits = RNG.normal(size=(4, 3))
        shifted = logits + 123.456
        assert np.allclose(softmax(logits), softmax(shifted), atol=1e-12)
        assert np.allclose(log_softmax(logits), log_softmax(shifted), atol=1e-11)

    def test_log_softmax_large_logits_stable(self):
        ls = log_softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(ls))
        assert ls[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_predict_is_argmax(self):
        model = random_linear(4, 3)
        X = RNG.normal(size=(6, 4))
        assert np.array_equal(predict(model, X),
                              np.argmax(model.logits(X), axis=1))


# ---------------------------------------------------------------------------
# weighted cross entropy


class TestCELoss:
    def test_zero_model_loss_is_log_classes(self):
        model = LinearModel(3, 2)
        X = RNG.normal(size=(4, 3))
        y = np.array([0, 1, 0, 1])
        loss, _ = ce_loss_grad(model, X, y)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_unit_weights_match_unweighted_bitwise(self):
        model = random_linear(4, 3)
        X = RNG.normal(size=(6, 4))
        y = RNG.integers(0, 3, 6)
        loss_a, grad_a = ce_loss_grad(model, X, y, None, 0.01)
        loss_b, grad_b = ce_loss_grad(model, X, y, np.ones(6), 0.01)
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)

    def test_zero_weights_leave_only_decay(self):
        model = random_linear(4, 2)
        X = RNG.normal(size=(5, 4))
        y = RNG.integers(0, 2, 5)
        loss, grad = ce_loss_grad(model, X, y, np.zeros(5), 0.2)
        penalty = 0.1 * float((model.weights[0] ** 2).sum())
        assert loss == pytest.approx(penalty, abs=1e-12)
        want = 0.2 * model.weights[0]
        assert np.allclose(grad[: want.size], want.ravel(), atol=1e-15)
        assert np.allclose(grad[want.size :], 0.0, atol=1e-15)

    def test_weight_scaling_scales_data_term(self):
        model = random_linear(3, 2)
        X = RNG.normal(size=(5, 3))
        y = RNG.integers(0, 2, 5)
        w = RNG.uniform(0.1, 2.0, 5)
        loss_1, grad_1 = ce_loss_grad(model, X, y, w, 0.0)
        loss_3, grad_3 = ce_loss_grad(model, X, y, 3.0 * w, 0.0)
        assert loss_3 == pytest.approx(3.0 * loss_1, rel=1e-12)
        assert np.allclose(grad_3, 3.0 * grad_1, atol=1e-12)

    def test_non_finite_weight_raises(self):
        model = random_linear(3, 2)
        X = RNG.normal(size=(2, 3))
        y = np.array([0, 1])
        with pytest.raises(TrainingError):
            ce_loss_grad(model, X, y, np.array([1.0, np.nan]))

    @pytest.mark.parametrize("hidden", [0, 5])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_gradient_matches_finite_differences(self, hidden, weight_decay):
        for _ in range(6):
            model = random_mlp(4, 3, hidden) if hidden else random_linear(4, 3)
            X = RNG.normal(size=(7, 4))
            y = RNG.integers(0, 3, 7)
            w = RNG.uniform(0.2, 2.0, 7)
            _, grad = ce_loss_grad(model, X, y, w, weight_decay)

            def f(flat):
                probe = model.copy()
                probe.set_flat(np.asarray(flat))
                return ce_loss_grad(probe, X, y, w, weight_decay)[0]

            fd = central_difference(f, model.get_flat(), 1e-5)
            assert max_relative_error(grad, fd) < 1e-4


# ---------------------------------------------------------------------------
# product-of-experts loss


class TestPoELoss:
    def test_uniform_biased_head_reduces_to_ce(self):
        main = random_linear(4, 3)
        biased = LinearModel(2, 3)  # zero weights: uniform head
        X = RNG.normal(size=(6, 4))
        Xb = RNG.normal(size=(6, 2))
        y = RNG.integers(0, 3, 6)
        loss_p, grad_main, _ = poe_loss_grad(main, biased, X, Xb, y, 0.05)
        loss_c, grad_c = ce_loss_grad(main, X, y, None, 0.05)
        assert loss_p == pytest.approx(loss_c, abs=1e-12)
        assert np.allclose(grad_main, grad_c, atol=1e-12)

    def test_decay_applies_to_main_only(self):
        main, biased = random_linear(3, 2), random_linear(2, 2)
        X, Xb = RNG.normal(size=(4, 3)), RNG.normal(size=(4, 2))
        y = RNG.integers(0, 2, 4)
        loss_0, _, _ = poe_loss_grad(main, biased, X, Xb, y, 0.0)
        loss_d, _, _ = poe_loss_grad(main, biased, X, Xb, y, 0.4)
        penalty = 0.2 * float((main.weights[0] ** 2).sum())
        assert loss_d - loss_0 == pytest.approx(penalty, rel=1e-10)

    @pytest.mark.parametrize("hidden", [0, 4])
    def test_gradients_match_finite_differences(self, hidden):
        for _ in range(5):
            main = random_mlp(3, 3, hidden, seed=1) if hidden else random_linear(3, 3)
            biased = random_linear(2, 3)
            X = RNG.normal(size=(6, 3))
            Xb = RNG.normal(size=(6, 2))
            y = RNG.integers(0, 3, 6)
            _, grad_main, grad_biased = poe_loss_grad(main, biased, X, Xb, y, 0.03)

            def f_main(flat):
                probe = main.copy()
                probe.set_flat(np.asarray(flat))
                return poe_loss_grad(probe, biased, X, Xb, y, 0.03)[0]

            def f_biased(flat):
                probe = biased.copy()
                probe.set_flat(np.asarray(flat))
                return poe_loss_grad(main, probe, X, Xb, y, 0.03)[0]

            fd_main = central_difference(f_main, main.get_flat(), 1e-5)
            fd_biased = central_difference(f_biased, biased.get_flat(), 1e-5)
            assert max_relative_error(grad_main, fd_main) < 1e-4
            assert max_relative_error(grad_biased, fd_biased) < 1e-4


# ---------------------------------------------------------------------------
# focus weighting


class TestFocusWeights:
    def test_gamma_zero_gives_exact_ones(self):
        probs = RNG.uniform(0.01, 0.99, size=(5, 2))
        probs /= probs.sum(axis=1, keepdims=True)
        w = focus_weights(probs, np.array([0, 1, 0, 1, 0]), 0.0)
        assert np.all(w == 1.0)

    def test_confident_correct_gets_zero(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = focus_weights(probs, np.array([0, 0]), 2.0)
        assert w[0] == 0.0
        assert w[1] == 1.0  # biased model puts nothing on the true class

    def test_gamma_two_pin(self):
        probs = np.array([[0.75, 0.25]])
        w = focus_weights(probs, np.array([0]), 2.0)
        assert w[0] == pytest.approx(0.0625, abs=1e-15)

    def test_dfl_gamma_zero_is_ce_bitwise(self):
        main = random_linear(4, 2)
        X = RNG.normal(size=(5, 4))
        y = RNG.integers(0, 2, 5)
        probs = RNG.uniform(0.1, 0.9, size=(5, 2))
        loss_d, grad_d = dfl_loss_grad(main, probs, X, y, 0.0, 0.02)
        loss_c, grad_c = ce_loss_grad(main, X, y, np.ones(5), 0.02)
        assert loss_d == loss_c
        assert np.array_equal(grad_d, grad_c)

    def test_dfl_gradient_matches_finite_differences(self):
        for _ in range(5):
            main = random_linear(4, 3)
            X = RNG.normal(size=(6, 4))
            y = RNG.integers(0, 3, 6)
            probs = RNG.uniform(0.05, 0.95, size=(6, 3))
            probs /= probs.sum(axis=1, keepdims=True)
            _, grad = dfl_loss_grad(main, probs, X, y, 2.0, 0.01)

            def f(flat):
                probe = main.copy()
                probe.set_flat(np.asarray(flat))
                return dfl_loss_grad(probe, probs, X, y, 2.0, 0.01)[0]

            fd = central_difference(f, main.get_flat(), 1e-5)
            assert max_relative_error(grad, fd) < 1e-4


# ---------------------------------------------------------------------------
# batching and the training loop


class TestMinibatchPlan:
    def test_partition(self):
        plan = minibatch_plan(10, 4, seed=3, epoch=0)
        assert [len(b) for b in plan] == [4, 4, 2]
        assert sorted(np.concatenate(plan).tolist()) == list(range(10))

    def test_deterministic_and_epoch_dependent(self):
        a = minibatch_plan(20, 8, seed=5, epoch=2)
        b = minibatch_plan(20, 8, seed=5, epoch=2)
        c = minibatch_plan(20, 8, seed=5, epoch=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_oversized_batch(self):
        plan = minibatch_plan(3, 100, seed=0, epoch=0)
        assert len(plan) == 1 and len(plan[0]) == 3


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1, batch_size=4, lr=0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0, lr=0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=4, lr=-0.1)


class TestTrain:
    def separable(self, n=20):
        y = np.arange(n) % 2
        X = RNG.normal(size=(n, 3)) * 0.1
        X[:, 0] += np.where(y == 1, 2.0, -2.0)
        return X, y

    def test_empty_raises(self):
        model = LinearModel(2, 2)
        with pytest.raises(TrainingError):
            train(model, np.zeros((0, 2)), np.array([], dtype=int),
                  TrainConfig(epochs=1, batch_size=4, lr=0.1))

    def test_zero_epochs_no_updates(self):
        model = LinearModel(2, 2)
        losses = train(model, np.zeros((3, 2)), np.array([0, 1, 0]),
                       TrainConfig(epochs=0, batch_size=2, lr=0.1))
        assert losses == []
        assert np.array_equal(model.get_flat(), np.zeros(6))

    def test_fits_separable_data(self):
        X, y = self.separable()
        model = LinearModel(3, 2)
        losses = train(model, X, y, TrainConfig(epochs=200, batch_size=5, lr=0.5))
        assert len(losses) == 200
        assert losses[-1] < losses[0]
        assert accuracy(model, X, y) == 1.0

    def test_same_seed_is_bit_identical(self):
        X, y = self.separable()
        flats = []
        for _ in range(2):
            model = LinearModel(3, 2)
            train(model, X, y, TrainConfig(epochs=20, batch_size=4, lr=0.3, seed=6))
            flats.append(model.get_flat())
        assert np.array_equal(flats[0], flats[1])
        other = LinearModel(3, 2)
        train(other, X, y, TrainConfig(epochs=20, batch_size=4, lr=0.3, seed=7))
        assert not np.array_equal(flats[0], other.get_flat())

    def test_non_finite_input_raises(self):
        model = LinearModel(2, 2)
        X = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with np.errstate(invalid="ignore"), pytest.raises(TrainingError):
            train(model, X, np.array([0, 1]), TrainConfig(epochs=1, batch_size=2, lr=0.1))

    def test_non_finite_weights_raise(self):
        model = LinearModel(2, 2)
        X = np.zeros((2, 2))
        with pytest.raises(TrainingError):
            train(model, X, np.array([0, 1]),
                  TrainConfig(epochs=1, batch_size=2, lr=0.1),
                  sample_weights=np.array([1.0, np.inf]))

    def test_features_for_epoch_schedule(self):
        X, y = self.separable(8)
        seen = []

        def per_epoch(epoch):
            seen.append(epoch)
            return X

        model = LinearModel(3, 2)
        train(model, X, y, TrainConfig(epochs=3, batch_size=4, lr=0.1),
              features_for_epoch=per_epoch)
        assert seen == [0, 1, 2]
        fixed = LinearModel(3, 2)
        train(fixed, X, y, TrainConfig(epochs=3, batch_size=4, lr=0.1))
        assert np.array_equal(model.get_flat(), fixed.get_flat())

    def test_accuracy_empty_raises(self):
        model = LinearModel(2, 2)
        with pytest.raises(ValueError):
            accuracy(model, np.zeros((0, 2)), np.array([], dtype=int))
