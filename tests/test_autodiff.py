"""Engine tests: every operator, and the fused attention and FFN operators of a
hop, against central finite differences, plus tape semantics (accumulation,
linearity) and the gradient checker itself."""

import inspect

import numpy as np
import pytest

from tgat import autodiff as ad
from tgat.errors import ContractError, DimensionError
from tgat.layer import attend_head, feed_forward


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued f at x (independent oracle)."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        out[i] = (fp - fm) / (2 * h)
    return g


def analytic_grad(build, param: ad.Tensor) -> np.ndarray:
    param.zero_grad()
    with ad.Tape() as tape:
        loss = ad.sum_all(build())
    ad.backward(tape, loss)
    return np.zeros_like(param.data) if param.grad is None else param.grad


def assert_matches_fd(build, params, seed, atol=1e-7, rtol=1e-5):
    for p in params:
        a = analytic_grad(build, p)
        n = numeric_grad(lambda: float(build().data.sum()), p.data)
        np.testing.assert_allclose(a, n, atol=atol, rtol=rtol)


def _rand(rng, *shape):
    return rng.standard_normal(shape)


OPS = [
    "matmul", "add", "mul", "scale", "gather_rows", "relu", "log_sigmoid", "sum_all",
    "attend_head", "attend_head_masked", "attend_head_constant", "feed_forward",
]


def attention_case(rng, mode: str, masked: bool):
    """Two heads over B blocks; with ``masked`` some rows are masked out and
    one block is masked entirely. ``z`` is a parameter too, so the gradient of
    every row, padded ones included, is checked."""
    b, n, d_in, d_h = int(rng.integers(2, 5)), int(rng.integers(1, 5)), 3, 2
    mask = np.ones((b, n), dtype=bool)
    if masked:
        mask = rng.random((b, n)) < 0.6
        mask[rng.integers(0, b)] = False  # an empty neighborhood
    z = ad.parameter(_rand(rng, b * (n + 1), d_in))
    w = [[ad.parameter(_rand(rng, d_in, d_h)) for _ in range(2)] for _ in range(3)]
    weights = _rand(rng, b, 2 * d_h)
    params = [z] + w[2] if mode == "constant" else [z] + w[0] + w[1] + w[2]
    return (lambda: ad.mul(attend_head(z, *w, mode, mask)[0], ad.constant(weights)),
            params)


def build_op_case(name: str, rng):
    """Random small-shaped invocation of one operator, returning (fn, params)."""
    m, n, k = (int(v) for v in rng.integers(1, 9, size=3))
    if name == "matmul":
        a, b = ad.parameter(_rand(rng, m, k)), ad.parameter(_rand(rng, k, n))
        return lambda: ad.matmul(a, b), [a, b]
    if name == "add":
        a, b = ad.parameter(_rand(rng, m, n)), ad.parameter(_rand(rng, 1, n))
        return lambda: ad.add(a, b), [a, b]
    if name == "mul":
        a, b = ad.parameter(_rand(rng, m, n)), ad.parameter(_rand(rng, m, n))
        return lambda: ad.mul(a, b), [a, b]
    if name == "scale":
        a = ad.parameter(_rand(rng, m, n))
        return lambda: ad.scale(a, -1.7), [a]
    if name == "gather_rows":
        a = ad.parameter(_rand(rng, m, n))
        index = rng.integers(0, m, size=k + m)  # repeats exercise the scatter-add
        weights = _rand(rng, k + m, n)
        return lambda: ad.mul(ad.gather_rows(a, index), ad.constant(weights)), [a]
    if name == "relu":
        a = ad.parameter(_rand(rng, m, n) + 0.05)  # keep away from the kink
        return lambda: ad.relu(a), [a]
    if name == "log_sigmoid":
        a = ad.parameter(_rand(rng, m, n))
        return lambda: ad.log_sigmoid(a), [a]
    if name == "sum_all":
        a = ad.parameter(_rand(rng, m, n))
        return lambda: ad.sum_all(a), [a]
    if name == "feed_forward":
        # m targets, n head columns, k raw features; one-row b0 and b1 broadcast
        heads, x0 = ad.parameter(_rand(rng, m, n)), _rand(rng, m, k)
        w0, b0 = ad.parameter(_rand(rng, n + k, 5)), ad.parameter(_rand(rng, 1, 5))
        w1, b1 = ad.parameter(_rand(rng, 5, 3)), ad.parameter(_rand(rng, 1, 3))
        return lambda: feed_forward(heads, x0, w0, b0, w1, b1), [heads, w0, b0, w1, b1]
    if name.startswith("attend_head"):
        return attention_case(rng, "constant" if name.endswith("constant") else "learned",
                              masked=name != "attend_head")
    raise AssertionError(name)


@pytest.mark.parametrize("op_name", OPS)
def test_operator_gradients_match_finite_differences(op_name):
    # 100+ seeded trials across the operator set, shapes <= 8x8
    for trial in range(8):
        rng = np.random.default_rng([hash(op_name) % (2**32), trial])
        build, params = build_op_case(op_name, rng)
        assert_matches_fd(build, params, trial)


def test_every_operator_is_grad_checked():
    # a public function that records a backward rule needs a case in OPS
    recorded = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
                if fn.__module__ == ad.__name__ and not name.startswith("_")
                and name != "apply_op" and "apply_op(" in inspect.getsource(fn)}
    assert recorded, "no operator found"
    assert recorded <= set(OPS), sorted(recorded - set(OPS))


def attention_weights(scores: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """The masked row softmax inside the attention operator, applied to
    ``scores`` (B, N): with d_h = 1 and unit projections, each score is one
    query-key product."""
    b, n = scores.shape
    z = np.concatenate([np.ones(b), scores.ravel()])[:, None]  # B target rows, then B * N
    unit = [ad.constant(np.ones((1, 1)))]
    mask = np.ones((b, n), dtype=bool) if mask is None else mask
    return attend_head(ad.constant(z), unit, unit, unit, "learned", mask)[1][0]


class TestForwardValues:
    def test_matmul_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        out = ad.matmul(ad.constant(np.eye(3)), ad.constant(x))
        np.testing.assert_array_equal(out.data, x)

    def test_softmax_uniform_on_equal_values(self):
        np.testing.assert_allclose(attention_weights(np.full((2, 5), 3.3)), 0.2)

    def test_softmax_rows_normalized_and_nonnegative(self):
        rng = np.random.default_rng(0)
        out = attention_weights(rng.standard_normal((50, 7)) * 20)
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_masked_softmax_zero_outside_mask(self):
        scores = np.array([[1.0, 50.0, -2.0], [0.3, 0.3, 900.0], [4.0, -1.0, 2.0]])
        mask = np.array([[True, False, True], [True, True, False], [False, False, False]])
        out = attention_weights(scores, mask)
        np.testing.assert_array_equal(out[~mask], 0.0)  # the all-masked row too
        np.testing.assert_allclose(out[0, [0, 2]], attention_weights(scores[:1, [0, 2]])[0])
        np.testing.assert_allclose(out[1, :2], 0.5)

    def test_gather_rows_scatter_adds_repeats(self):
        a = ad.parameter(np.arange(6.0).reshape(3, 2))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.gather_rows(a, [2, 0, 2, 2]))
        ad.backward(tape, loss)
        np.testing.assert_array_equal(a.grad, [[1.0, 1.0], [0.0, 0.0], [3.0, 3.0]])

    def test_relu_backward_subgradient(self):
        x = ad.parameter(np.array([[-1.0, 2.0]]))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.relu(x))
        ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0]])

    def test_relu_derivative_at_exact_zero_is_zero(self):
        x = ad.parameter(np.array([[0.0]]))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.relu(x))
        ad.backward(tape, loss)
        assert x.grad[0, 0] == 0.0

    def test_log_sigmoid_stable_far_out(self):
        out = ad.log_sigmoid(ad.constant(np.array([[-800.0, 0.0, 800.0]])))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data[0, 1], np.log(0.5))
        np.testing.assert_allclose(out.data[0, 0], -800.0)


class TestBackwardSemantics:
    def test_sum_loss_gives_all_ones(self):
        x = ad.parameter(np.ones((3, 2)))
        with ad.Tape() as tape:
            loss = ad.sum_all(x)
        ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_log_sigmoid_of_dot_at_zero_weight(self):
        # d/dw log sigmoid(w.x) at w=0 is sigmoid(0) * x = 0.5 * x
        x_val = np.array([[1.5], [-2.0], [0.5]])
        w = ad.parameter(np.zeros((1, 3)))
        with ad.Tape() as tape:
            loss = ad.log_sigmoid(ad.matmul(w, ad.constant(x_val)))
        ad.backward(tape, loss)
        np.testing.assert_allclose(w.grad, 0.5 * x_val.T)

    def test_two_path_gradient_accumulates(self):
        # y = sum(x @ a) + sum(x @ b): grad x = a.1 + b.1 (two-path linearity)
        rng = np.random.default_rng(5)
        x = ad.parameter(rng.standard_normal((2, 3)))
        a_val = rng.standard_normal((3, 4))
        b_val = rng.standard_normal((3, 2))
        with ad.Tape() as tape:
            left = ad.sum_all(ad.matmul(x, ad.constant(a_val)))
            right = ad.sum_all(ad.matmul(x, ad.constant(b_val)))
            loss = ad.add(left, right)
        ad.backward(tape, loss)
        expected = np.tile(a_val.sum(axis=1) + b_val.sum(axis=1), (2, 1))
        np.testing.assert_allclose(x.grad, expected)

    def test_shared_gradient_array_is_not_updated_in_place(self):
        # add hands one array to both inputs; accumulating into it in place
        # would also change the gradient of b
        a = ad.parameter(np.ones((2, 3)))
        b = ad.parameter(np.ones((2, 3)))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.add(ad.add(a, b), a))
        ad.backward(tape, loss)
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))

    def test_random_two_layer_composition_matches_fd(self):
        rng = np.random.default_rng(11)
        w1 = ad.parameter(rng.standard_normal((4, 5)))
        w2 = ad.parameter(rng.standard_normal((5, 3)))
        x = ad.constant(rng.standard_normal((2, 4)))

        def build():
            return ad.log_sigmoid(ad.matmul(ad.relu(ad.matmul(x, w1)), w2))

        assert_matches_fd(build, [w1, w2], 0, atol=1e-6, rtol=1e-4)

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.ones((2, 2)))
        with ad.Tape() as tape:
            y = ad.relu(x)
        with pytest.raises(ContractError):
            ad.backward(tape, y)

    def test_no_recording_without_tape(self):
        x = ad.parameter(np.ones((2, 2)))
        y = ad.relu(x)
        assert y.requires_grad
        tape = ad.Tape()
        assert len(tape) == 0


class TestShapeErrors:
    def test_matmul_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_add_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 2))))

    def test_rank_3_rejected(self):
        with pytest.raises(DimensionError):
            ad.Tensor(np.ones((2, 2, 2)))

    def test_gather_rows_bounds(self):
        for index in ([0, 2], [-1], [[0]]):
            with pytest.raises(DimensionError):
                ad.gather_rows(ad.constant(np.ones((2, 2))), index)


class TestGradCheck:
    def test_identity_sum_passes(self):
        x = ad.parameter(np.arange(6.0).reshape(2, 3))
        report = ad.grad_check(lambda: ad.sum_all(x), [x])
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_wrong_backward_rule_fails(self):
        w = ad.parameter(np.array([[0.4, -0.3]]))

        def broken():
            def pull(g):
                w._accumulate(2.5 * g)  # wrong rule: true jacobian is identity
            return ad.apply_op(w.data.copy(), (w,), pull)

        report = ad.grad_check(broken, [w])
        assert not report.passed

    def test_coordinate_subsampling(self):
        x = ad.parameter(np.ones((8, 8)))
        report = ad.grad_check(lambda: ad.sum_all(ad.relu(x)), [x],
                               max_coords_per_param=10, rng_seed=3)
        assert report.checked_coords == 10
        assert report.passed
