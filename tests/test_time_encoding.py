"""Time-encoder tests: unit norm, closed-form kernel identities, the analytic
Gaussian-transform oracle, convergence in the sample count, and the
positional-encoding baseline."""

import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tgat import autodiff as ad
from tgat import cores, time_encoding
from tgat.errors import ValidationError
from tgat.layer import build_entity_matrix, glorot
from tgat.synthetic import tiny_fixture_graph
from tgat.temporal_graph import sample_neighborhoods
from tgat.time_encoding import (
    PositionalEncoder,
    TimeEncoder,
    gaussian_kernel_oracle,
    kernel_convergence_check,
)


def weighted_sum(a: ad.Tensor, weights: np.ndarray) -> ad.Tensor:
    """sum(a * weights) as one test-local operator; a weight of 1.0 gives
    the plain sum of every entry, bit for bit."""
    def pull(g):
        a._accumulate(np.full(a.data.shape, g.flat[0]) * weights)

    return ad.apply_op(np.array([[(a.data * weights).sum()]]), (a,), pull)


class TestEncode:
    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(0)
        enc = TimeEncoder(rng.standard_normal(7))
        for dt in [0.0, 1e-6, 0.5, 3.14159, 42.0, 1e4, -2.5]:
            assert abs(np.linalg.norm(enc.encode_many([dt]).data[0]) - 1.0) < 1e-12

    def test_phi_zero_layout(self):
        enc = TimeEncoder.create(8)
        row = enc.encode_many([0.0]).data[0]
        np.testing.assert_allclose(row[0::2], 0.5)  # cos coordinates, 1/sqrt(4)
        np.testing.assert_allclose(row[1::2], 0.0)  # sin coordinates

    def test_single_frequency_antipodal(self):
        enc = TimeEncoder([1.0])
        v0, vpi = enc.encode_many([0.0, np.pi]).data
        np.testing.assert_allclose(float(v0 @ vpi), -1.0, atol=1e-12)

    def test_two_frequency_closed_form(self):
        # independent closed form: <phi(t1), phi(t2)> = mean_i cos(w_i (t1 - t2))
        enc = TimeEncoder([1.0, 2.0])
        t1, t2 = 0.3, 0.7
        got = float(enc.encode_many([t1]).data[0] @ enc.encode_many([t2]).data[0])
        expected = (np.cos(1.0 * (t1 - t2)) + np.cos(2.0 * (t1 - t2))) / 2.0
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_tape_path_matches_value_path(self):
        rng = np.random.default_rng(3)
        enc = TimeEncoder(rng.uniform(0.01, 2.0, size=5))
        deltas = rng.uniform(0, 10, size=6)
        # the one operator's values: cos and sin of each phase, interleaved
        # and scaled, whether a timespan is encoded alone or in a batch
        phase = deltas[:, None] * enc.frequencies.data
        values = np.stack([np.cos(phase), np.sin(phase)], axis=2).reshape(6, -1) * enc.scale
        np.testing.assert_array_equal(enc.encode_many(deltas).data, values)
        np.testing.assert_array_equal(np.vstack([enc.encode_many([d]).data for d in deltas]),
                                      values)

    def test_encode_gradient_wrt_frequencies(self):
        rng = np.random.default_rng(9)
        enc = TimeEncoder(rng.uniform(0.1, 1.5, size=4))
        # several rows, so the gradient's sum over timespans is checked too
        deltas = [0.0, 0.4, 1.37, 6.0, 25.0]
        mix = rng.standard_normal((len(deltas), 8))
        report = ad.grad_check(
            lambda: weighted_sum(enc.encode_many(deltas), mix),
            [enc.frequencies], tolerance=1e-5, rng_seed=0)
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
                ad.zero_grads([enc.frequencies])
                with ad.Tape() as tape:
                    loss = weighted_sum(enc.encode_many(deltas[keep]), g[keep])
                ad.backward(tape, loss)
                grads.append(enc.frequencies.grad)
            np.testing.assert_array_equal(grads[0], grads[1])

    def test_zero_timespans(self):
        enc = TimeEncoder.create(8)
        ad.zero_grads([enc.frequencies])
        with ad.Tape() as tape:
            phi = enc.encode_many([])
            loss = weighted_sum(phi, np.ones((0, 8)))
        assert phi.data.shape == (0, 8)
        ad.backward(tape, loss)
        np.testing.assert_array_equal(enc.frequencies.grad, np.zeros((1, 4)))

    def test_even_dimension_required(self):
        with pytest.raises(ValidationError):
            TimeEncoder.create(7)
        with pytest.raises(ValidationError):
            TimeEncoder.create(0)


def phi_oracle(frequencies, deltas, upstream):
    """encode_many's forward in one block, and the frequency gradient under
    ``upstream`` by the formula of its backward rule."""
    dt = deltas[:, None]
    cos, sin = np.cos(dt * frequencies), np.sin(dt * frequencies)
    scale = 1.0 / np.sqrt(frequencies.size)
    trig = np.empty((deltas.size, 2 * frequencies.size))
    trig[:, 0::2], trig[:, 1::2] = cos, sin
    d_phase = upstream[:, 1::2] * cos - upstream[:, 0::2] * sin
    return trig * scale, scale * (dt * d_phase).sum(axis=0, keepdims=True)


class TestBlocks:
    """encode_many splits its rows into blocks that idle cores share; no bit
    may depend on the blocks or on the threads."""

    ROWS, K = 40_000, 12

    def cases(self, callers: int):
        rng = np.random.default_rng(callers)
        for _ in range(callers):
            deltas = rng.exponential(50.0, self.ROWS) * (rng.random(self.ROWS) > 0.1)
            yield (TimeEncoder(rng.normal(0.0, 1.0, self.K)), deltas,
                   rng.standard_normal((self.ROWS, 2 * self.K)))

    def check(self, callers: int):
        """``callers`` threads encode at once, each its own timespans, under
        one tape; each forward and frequency gradient must equal the oracle's
        bytes."""
        cases = list(self.cases(callers))
        phis = [None] * callers

        def encode(i):
            phis[i] = cases[i][0].encode_many(cases[i][1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the interpreter lock often
        try:
            with ad.Tape() as tape:
                threads = [threading.Thread(target=encode, args=(i,)) for i in range(callers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()

                def pull(g):
                    for phi, (_, _, upstream) in zip(phis, cases):
                        phi._accumulate(upstream)

                loss = ad.apply_op(np.zeros((1, 1)), phis, pull)
        finally:
            sys.setswitchinterval(interval)
        ad.backward(tape, loss)
        for phi, (enc, deltas, upstream) in zip(phis, cases):
            forward, grad = phi_oracle(enc.frequencies.data, deltas, upstream)
            assert phi.data.tobytes() == forward.tobytes()
            assert enc.frequencies.grad.tobytes() == grad.tobytes()

    def test_as_is(self):
        assert self.ROWS * self.K // time_encoding.PHASES_PER_BLOCK >= 2
        self.check(1)

    def test_many_blocks(self, monkeypatch):
        # 476 blocks of 84 rows and one of 16
        monkeypatch.setattr(time_encoding, "PHASES_PER_BLOCK", 999)
        self.check(1)

    def test_four_callers_at_once(self):
        self.check(4)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_encodes(self):
        (enc, deltas, _), = self.cases(1)
        expected = enc.encode_many(deltas).data.tobytes()  # the parent's pool is running
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(60)  # a hang ends the child with SIGALRM
                code = int(enc.encode_many(deltas).data.tobytes() != expected)
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.skipif(cores._CORES < 2, reason="needs a second usable core")
    def test_cancelled_jobs_hold_no_arrays(self):
        # every pool thread is parked, so each job of the call is cancelled
        # and stays queued; the call's arrays must not stay with it
        (enc, deltas, _), = self.cases(1)
        parked, release = threading.Semaphore(0), threading.Event()

        def park():
            parked.release()
            release.wait(120)

        pool = cores._pool()
        holders = [pool.submit(park) for _ in range(cores._CORES - 1)]
        try:
            for _ in holders:
                assert parked.acquire(timeout=60)
            tracemalloc.start()
            try:
                baseline = tracemalloc.get_traced_memory()[0]
                enc.encode_many(deltas)  # phase, trig and out: 19 MB
                left = tracemalloc.get_traced_memory()[0] - baseline
            finally:
                tracemalloc.stop()
        finally:
            release.set()
        assert left < 100_000

    def test_a_process_whose_calls_never_split_makes_no_pool(self):
        # a fresh process: this one may have imported concurrent.futures.
        # The largest one-block encode_many, a training step of the
        # benchmark's train-l1 size (L=1, 25 positives, 40 validation events,
        # cap 12, d_h 8) and a one-query L=2 embed
        code = """if True:
            import sys
            from tgat import layer, training
            from tgat.synthetic import recency_planted_graph
            from tgat.temporal_graph import chronological_split
            from tgat.time_encoding import PHASES_PER_BLOCK, TimeEncoder
            TimeEncoder.create(24).encode_many(range(2 * PHASES_PER_BLOCK // 12 - 1))
            graph = recency_planted_graph(500, 20000, seed=0)
            split = chronological_split(graph, 0.70, 0.15)
            config = training.TrainConfig(
                layers=1, heads=2, batch_size=25, max_epochs=1, sampling_strategy="most-recent",
                d=16, d_t=24, d_h=8, d_f=16, max_neighbors=12, max_train_events_per_epoch=25,
                max_val_events=40, unseen_fraction=0.0)
            training.train(graph, split, config)
            model = training.build_model(graph, training.TrainConfig(
                layers=2, d=16, d_t=24, d_h=8, d_f=16))
            layer.embed(model, 7, float(graph.timestamps[-1]), graph,
                        layer.SamplingConfig(max_neighbors=20, strategy="inverse-timespan"))
            sys.exit("concurrent.futures" in sys.modules)
        """
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr[-2000:]


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

    # 2.5 was taken for a bad rng_seed, True raised numpy's TypeError, a grid
    # size of -1 numpy's ValueError, and 0 trials or a NaN t_max gave NaN reports
    @pytest.mark.parametrize("argument, shown", [
        ({"k_values": [2.5]}, "each of k_values must be an integer, got 2.5"),
        ({"k_values": [True]}, "each of k_values must be an integer, got True"),
        ({"k_values": [0, 8]}, "each of k_values must be >= 1, got 0"),
        ({"t_max": float("nan")}, "t_max must be positive and finite, got nan"),
        ({"t_max": 0.0}, "t_max must be positive and finite, got 0.0"),
        ({"grid_size": -1}, "grid_size must be >= 1, got -1"),
        ({"grid_size": 5.0}, "grid_size must be an integer, got 5.0"),
        ({"trials": 0}, "trials must be >= 1, got 0")],
        ids=["fractional_k", "boolean_k", "zero_k", "nan_t_max", "zero_t_max",
             "negative_grid_size", "float_grid_size", "zero_trials"])
    def test_bad_argument_rejected(self, argument, shown):
        kwargs = {"k_values": [8], "grid_size": 5, "trials": 1, **argument}
        with pytest.raises(ValidationError, match=f"^{re.escape(shown)}$"):
            kernel_convergence_check(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_bad_seed_rejected(self, seed):
        # -1 and 1.5 used to raise numpy's errors, None to draw fresh entropy
        with pytest.raises(ValidationError, match="^rng_seed must be a non-negative integer or "
                                                  "a sequence of them, got "):
            kernel_convergence_check(k_values=[8], grid_size=5, trials=1, rng_seed=seed)

    def test_oracle_formula(self):
        np.testing.assert_allclose(gaussian_kernel_oracle(3.0, 1.0), np.exp(-2.0))
        np.testing.assert_allclose(gaussian_kernel_oracle(1.0, 1.0), 1.0)


@pytest.mark.parametrize("build, shown", [
    (lambda: TimeEncoder([np.nan, 1.0]), "frequencies hold a non-finite value"),
    (lambda: TimeEncoder([1.0, np.inf]), "frequencies hold a non-finite value"),
    (lambda: TimeEncoder(np.zeros((2, 2))),
     "frequencies must be shaped (k,) or (1, k), got (2, 2)"),
    (lambda: TimeEncoder(1.0), "frequencies must be shaped (k,) or (1, k), got ()"),
    (lambda: TimeEncoder([]), "time encoder needs at least one frequency"),
    (lambda: PositionalEncoder(np.array([1.0, np.nan]), learnable=False),
     "positional table must be 2-D, got shape (2,)"),
    (lambda: PositionalEncoder(np.zeros((2, 2, 2)), learnable=True),
     "positional table must be 2-D, got shape (2, 2, 2)"),
    (lambda: PositionalEncoder(np.array([[0.0, -np.inf]]), learnable=False),
     "positional table holds a non-finite value"),
], ids=["nan-frequency", "inf-frequency", "2x2-frequencies", "0-d-frequency",
        "no-frequencies", "1-d-table", "3-d-table", "inf-table"])
def test_encoder_arrays_checked(build, shown):
    # NaN frequencies, a 2 x 2 array as four frequencies and a 1-D or
    # non-finite table each used to be kept
    with pytest.raises(ValidationError, match=f"^{re.escape(shown)}$"):
        build()


class TestPositionalEncoder:
    def test_fixed_sinusoidal_rank_zero(self):
        enc = PositionalEncoder.fixed_sinusoidal(10, 8)
        row = enc.table.data[0]
        np.testing.assert_allclose(row[0::2], 0.0, atol=1e-12)  # sin(0)
        np.testing.assert_allclose(row[1::2], 1.0, atol=1e-12)  # cos(0)

    def test_learnable_rows_receive_gradient(self):
        # node 0 of the tiny graph has two interactions before t = 5, so its
        # target row reads rank 2 and its sampled rows ranks 0 and 1; the
        # loss reads the target row's time block only
        enc = PositionalEncoder(glorot(np.random.default_rng(2), 4, 6), learnable=True)
        batch = sample_neighborhoods(tiny_fixture_graph(), [0], [5.0], 3)
        assert batch.sizes.tolist() == [2]
        hidden = ad.constant(np.zeros((3, 1)))
        weights = np.zeros((3, 1 + 2 + 6))
        weights[0, 3:] = 1.0
        phi = TimeEncoder.create(6)  # unread in positional mode
        with ad.Tape() as tape:
            z = build_entity_matrix(hidden, batch, phi, enc)
            loss = weighted_sum(z, weights)
        ad.backward(tape, loss)
        grad = enc.table.grad
        np.testing.assert_array_equal(grad[2], np.ones(6))
        assert np.all(grad[[0, 1, 3]] == 0)
