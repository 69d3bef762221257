"""Time-encoder tests: unit norm, closed-form kernel identities, the analytic
Gaussian-transform oracle, convergence in the sample count, and the
positional-encoding baseline."""

import numpy as np
import pytest

from tgat import autodiff as ad
from tgat.errors import PositionLookupError, ValidationError
from tgat.time_encoding import (
    PositionalEncoder,
    TimeEncoder,
    gaussian_kernel_oracle,
    kernel_convergence_check,
)


def weighted_sum(a: ad.Tensor, weights: np.ndarray) -> ad.Tensor:
    """sum(a * weights) as one test-local operator, bit-equal to the
    elementwise product with a constant followed by ``sum_all``."""
    def pull(g):
        a._accumulate(np.full(a.data.shape, g.flat[0]) * weights)

    return ad.apply_op(np.array([[(a.data * weights).sum()]]), (a,), pull)


class TestEncode:
    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(0)
        enc = TimeEncoder(rng.standard_normal(7))
        for dt in [0.0, 1e-6, 0.5, 3.14159, 42.0, 1e4, -2.5]:
            assert abs(np.linalg.norm(enc.encode_values([dt])[0]) - 1.0) < 1e-12

    def test_phi_zero_layout(self):
        enc = TimeEncoder.create(8)
        row = enc.encode_values([0.0])[0]
        np.testing.assert_allclose(row[0::2], 0.5)  # cos coordinates, 1/sqrt(4)
        np.testing.assert_allclose(row[1::2], 0.0)  # sin coordinates

    def test_single_frequency_antipodal(self):
        enc = TimeEncoder([1.0])
        v0 = enc.encode_values([0.0])[0]
        vpi = enc.encode_values([np.pi])[0]
        np.testing.assert_allclose(float(v0 @ vpi), -1.0, atol=1e-12)

    def test_two_frequency_closed_form(self):
        # independent closed form: <phi(t1), phi(t2)> = mean_i cos(w_i (t1 - t2))
        enc = TimeEncoder([1.0, 2.0])
        t1, t2 = 0.3, 0.7
        got = float(enc.encode_values([t1])[0] @ enc.encode_values([t2])[0])
        expected = (np.cos(1.0 * (t1 - t2)) + np.cos(2.0 * (t1 - t2))) / 2.0
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_tape_path_matches_value_path(self):
        rng = np.random.default_rng(3)
        enc = TimeEncoder(rng.uniform(0.01, 2.0, size=5))
        deltas = rng.uniform(0, 10, size=6)
        np.testing.assert_array_equal(enc.encode_many(deltas).data,
                                      enc.encode_values(deltas))

    def test_encode_gradient_wrt_frequencies(self):
        rng = np.random.default_rng(9)
        enc = TimeEncoder(rng.uniform(0.1, 1.5, size=4))
        # several rows, so the gradient's sum over timespans is checked too
        deltas = [0.0, 0.4, 1.37, 6.0, 25.0]
        mix = rng.standard_normal((len(deltas), 8))
        report = ad.grad_check(
            lambda: weighted_sum(enc.encode_many(deltas), mix),
            enc.parameters(), tolerance=1e-5, rng_seed=0)
        # relative error < 1e-5 at random (w, dt)
        assert report.passed, report

    @pytest.mark.parametrize("k", [2, 4, 12])
    def test_gradient_unchanged_by_zero_timespan_rows(self, k):
        # the entity matrix encodes only real timespans; dropping the rows of
        # zero timespan must leave the frequency gradient's bits as they were.
        # Two or more frequencies sum each column row by row; one frequency
        # makes a single column, which numpy sums pairwise.
        rng = np.random.default_rng(k)
        for _ in range(50):
            rows = int(rng.integers(1, 200))
            enc = TimeEncoder(rng.normal(0.0, 2.0, size=k))
            deltas = np.where(rng.random(rows) < 0.3, 0.0, rng.exponential(5.0, size=rows))
            g = rng.standard_normal((rows, 2 * k))
            real = deltas != 0.0
            grads = []
            for keep in (np.ones(rows, bool), real):
                enc.frequencies.zero_grad()
                with ad.Tape() as tape:
                    loss = weighted_sum(enc.encode_many(deltas[keep]), g[keep])
                ad.backward(tape, loss)
                grads.append(enc.frequencies.grad)
            np.testing.assert_array_equal(grads[0], grads[1])

    def test_even_dimension_required(self):
        with pytest.raises(ValidationError):
            TimeEncoder.create(7)
        with pytest.raises(ValidationError):
            TimeEncoder.create(0)


class TestKernelEstimate:
    def test_self_inner_product_is_one(self):
        enc = TimeEncoder(np.random.default_rng(1).standard_normal(16))
        for t in [0.0, 2.0, 123.456]:
            np.testing.assert_allclose(enc.kernel_estimate(t, t), 1.0, atol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        enc = TimeEncoder(rng.standard_normal(8))
        for _ in range(20):
            t1, t2, c = rng.uniform(0, 50, size=3)
            np.testing.assert_allclose(enc.kernel_estimate(t1 + c, t2 + c),
                                       enc.kernel_estimate(t1, t2), atol=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        enc = TimeEncoder(rng.standard_normal(8))
        for _ in range(20):
            t1, t2 = rng.uniform(0, 20, size=2)
            np.testing.assert_allclose(enc.kernel_estimate(t1, t2),
                                       enc.kernel_estimate(t2, t1), atol=1e-12)

    def test_matches_expected_gaussian_transform(self):
        # for w ~ N(0,1), E cos(w dt) = exp(-dt^2/2); k=4096 Monte Carlo
        rng = np.random.default_rng(7)
        enc = TimeEncoder(rng.standard_normal(4096))
        got = enc.kernel_estimate(2.0, 1.0)
        assert abs(got - np.exp(-0.5)) < 0.05


class TestConvergenceCheck:
    def test_reports_shrink_with_k(self):
        reports = kernel_convergence_check(k_values=[16, 1024], t_max=10.0,
                                           grid_size=40, trials=3, rng_seed=0)
        assert reports[0].sample_count == 16 and reports[1].sample_count == 1024
        assert reports[1].sup_error < reports[0].sup_error
        for r in reports:
            assert r.sup_error >= r.mean_error >= 0.0

    def test_k_one_bounded_by_two(self):
        reports = kernel_convergence_check(k_values=[1], t_max=5.0,
                                           grid_size=30, trials=4, rng_seed=1)
        assert reports[0].sup_error <= 2.0

    def test_deterministic_given_seed(self):
        a = kernel_convergence_check(k_values=[8, 64], t_max=4.0, grid_size=20,
                                     trials=2, rng_seed=5)
        b = kernel_convergence_check(k_values=[8, 64], t_max=4.0, grid_size=20,
                                     trials=2, rng_seed=5)
        for ra, rb in zip(a, b):
            assert ra.sup_error == rb.sup_error
            np.testing.assert_array_equal(ra.trial_sup_errors, rb.trial_sup_errors)

    def test_rejects_descending_k(self):
        with pytest.raises(ValidationError):
            kernel_convergence_check(k_values=[64, 8])

    def test_oracle_formula(self):
        np.testing.assert_allclose(gaussian_kernel_oracle(3.0, 1.0), np.exp(-2.0))
        np.testing.assert_allclose(gaussian_kernel_oracle(1.0, 1.0), 1.0)


class TestPositionalEncoder:
    def test_fixed_sinusoidal_rank_zero(self):
        enc = PositionalEncoder.fixed_sinusoidal(10, 8)
        row = enc.lookup(0).data[0]
        np.testing.assert_allclose(row[0::2], 0.0, atol=1e-12)  # sin(0)
        np.testing.assert_allclose(row[1::2], 1.0, atol=1e-12)  # cos(0)

    def test_fixed_lookup_records_no_tape_node(self):
        enc = PositionalEncoder.fixed_sinusoidal(5, 4)
        with ad.Tape() as tape:
            out = enc.lookup([0, 3])
        assert not out.requires_grad and len(tape) == 0
        np.testing.assert_array_equal(out.data, enc.table.data[[0, 3]])

    def test_learnable_lookup_stable_before_update(self):
        enc = PositionalEncoder.learnable_table(6, 4, np.random.default_rng(0))
        a = enc.lookup(3).data.copy()
        b = enc.lookup(3).data.copy()
        np.testing.assert_array_equal(a, b)

    def test_rank_out_of_range(self):
        enc = PositionalEncoder.fixed_sinusoidal(5, 4)
        with pytest.raises(PositionLookupError):
            enc.lookup(5)
        with pytest.raises(PositionLookupError):
            enc.lookup(-1)

    def test_learnable_rows_receive_gradient(self):
        enc = PositionalEncoder.learnable_table(4, 6, np.random.default_rng(2))
        with ad.Tape() as tape:
            loss = ad.sum_all(enc.lookup(2))
        ad.backward(tape, loss)
        grad = enc.table.grad
        np.testing.assert_array_equal(grad[2], np.ones(6))
        assert np.all(grad[[0, 1, 3]] == 0)
