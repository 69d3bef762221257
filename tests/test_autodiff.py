"""Engine tests: every operator of the package (the engine's, the fused
operators of a hop, the FFN/MLP and the time encoder) against central finite
differences, plus tape semantics (accumulation, linearity) and the gradient
checker itself."""

import importlib
import inspect
import pkgutil
import re
import zlib

import numpy as np
import pytest

import tgat
from tgat import autodiff as ad
from tgat.errors import ContractError, DimensionError
from tgat.layer import attend_head, feed_forward, glorot
from tgat.synthetic import tiny_fixture_graph
from tgat.temporal_graph import sample_neighborhoods
from tgat.time_encoding import PositionalEncoder, TimeEncoder

from test_layer import entity_rows


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
    ad.zero_grads([param])
    with ad.Tape() as tape:
        loss = weighted_sum(build(), 1.0)
    ad.backward(tape, loss)
    return np.zeros_like(param.data) if param.grad is None else param.grad


def assert_matches_fd(build, params, seed, atol=1e-7, rtol=1e-5):
    for p in params:
        a = analytic_grad(build, p)
        n = numeric_grad(lambda: float(build().data.sum()), p.data)
        np.testing.assert_allclose(a, n, atol=atol, rtol=rtol)


def _rand(rng, *shape):
    return rng.standard_normal(shape)


def weighted_sum(a: ad.Tensor, weights: np.ndarray) -> ad.Tensor:
    """sum(a * weights) as one test-local operator; a weight of 1.0 gives
    the plain sum of every entry, bit for bit."""
    def pull(g):
        a._accumulate(np.full(a.data.shape, g.flat[0]) * weights)

    return ad.apply_op(np.array([[(a.data * weights).sum()]]), (a,), pull)


def plus(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """a + b as a test-local operator that hands one gradient array to both."""
    def pull(g):
        a._accumulate(g)
        b._accumulate(g)

    return ad.apply_op(a.data + b.data, (a, b), pull)


OPS = [
    "pair_scores", "logistic_loss",
    "attend_head", "attend_head_masked", "attend_head_constant",
    "feed_forward", "feed_forward_mlp", "build_entity_matrix",
    "build_entity_matrix_positional", "TimeEncoder.encode_many",
    "hop_every_target_empty", "hop_three_sampled_rows", "hop_edges_learned",
    "hop_edges_positional_learnable", "hop_edges_constant",
]


def attention_case(rng, mode: str, masked: bool):
    """One to three heads over B targets; with ``masked`` some slots are
    masked out and one target's are all masked. ``z`` (the B target rows,
    then one row per sampled slot) is a parameter too, so the gradient of
    every row is checked."""
    b, n, d_in, d_h = int(rng.integers(2, 5)), int(rng.integers(1, 5)), 3, 2
    heads = int(rng.integers(1, 4))
    mask = np.ones((b, n), dtype=bool)
    if masked:
        mask = rng.random((b, n)) < 0.6
        mask[rng.integers(0, b)] = False  # an empty neighborhood
    z = ad.parameter(_rand(rng, b + mask.sum(), d_in))
    w = [ad.parameter(np.hstack([_rand(rng, d_in, d_h) for _ in range(heads)]))
         for _ in range(3)]  # Q, K and V, head by head
    weights = _rand(rng, b, heads * d_h)
    params = [z, w[2]] if mode == "constant" else [z, *w]
    return lambda: weighted_sum(attend_head(z, *w, heads, mode, mask)[0], weights), params


def entity_matrix_case(rng, positional: bool):
    """A hop of tiny_fixture_graph queries (some with empty samples), its
    hidden rows a parameter, its time block phi or a learnable rank table."""
    b = int(rng.integers(1, 5))
    batch = sample_neighborhoods(tiny_fixture_graph(), rng.integers(0, 6, size=b),
                                 rng.uniform(0.5, 9.0, size=b), 3)
    hidden = ad.parameter(_rand(rng, b + batch.sizes.sum(), 3))
    enc = TimeEncoder(rng.uniform(0.1, 1.5, size=2))
    table = PositionalEncoder(glorot(rng, 8, 4), learnable=True) if positional else None
    weights = _rand(rng, b + batch.sizes.sum(), 3 + 2 + 4)
    params = [hidden] + ([table.table] if positional else [enc.frequencies])
    return (lambda: weighted_sum(entity_rows(hidden, batch, enc, table), weights),
            params)


def hop_case(rng, mode: str, positional: bool = False, kind: str = "any"):
    """Entity matrix, then attention, over one hop of tiny_fixture_graph
    queries (d_e = 2): the hidden rows, the time parameters and every head
    weight the mode uses are parameters. ``kind`` "empty" samples every
    target before the first event (no sampled row); "few" caps the samples
    at one row, so two or three targets hold at most 3 sampled rows."""
    b = int(rng.integers(2, 4 if kind == "few" else 5))
    latest = 1.0 if kind == "empty" else 9.0
    batch = sample_neighborhoods(tiny_fixture_graph(), rng.integers(0, 6, size=b),
                                 rng.uniform(0.0, latest, size=b), 1 if kind == "few" else 3)
    assert batch.peers.size <= {"empty": 0, "few": 3}.get(kind, 3 * b)
    hidden = ad.parameter(_rand(rng, b + batch.peers.size, 3))
    enc = TimeEncoder(rng.uniform(0.1, 1.5, size=2))
    table = PositionalEncoder(glorot(rng, 8, 4), learnable=True) if positional else None
    heads = int(rng.integers(1, 3))
    w = [ad.parameter(np.hstack([_rand(rng, 3 + 2 + 4, 2) for _ in range(heads)]))
         for _ in range(3)]  # Q, K and V, head by head
    weights = _rand(rng, b, 2 * heads)
    params = ([hidden] + ([table.table] if positional else [enc.frequencies])
              + ([w[2]] if mode == "constant" else w))

    def build():
        z = entity_rows(hidden, batch, enc, table)
        return weighted_sum(attend_head(z, *w, heads, mode, batch.mask)[0], weights)

    return build, params


def build_op_case(name: str, rng):
    """Random small-shaped invocation of one operator, returning (fn, params)."""
    m, n, k = (int(v) for v in rng.integers(1, 9, size=3))
    if name == "pair_scores":
        # m positives, each left row repeated for its Q = 3 negatives, as in the link loss
        h = ad.parameter(_rand(rng, 5 * m, n))
        left = np.concatenate([np.arange(m), np.repeat(np.arange(m), 3)])
        weights = _rand(rng, 4 * m, 1)
        return lambda: weighted_sum(ad.pair_scores(h, left, np.arange(m, 5 * m)), weights), [h]
    if name == "logistic_loss":
        scores = ad.parameter(3.0 * _rand(rng, m, 1))
        sign = rng.choice([-1.0, 1.0], size=(m, 1))
        return lambda: ad.logistic_loss(scores, sign), [scores]
    if name == "feed_forward":
        # m targets, n head columns, k raw features; one-row b0 and b1 broadcast
        heads, x0 = ad.parameter(_rand(rng, m, n)), _rand(rng, m, k)
        w0, b0 = ad.parameter(_rand(rng, n + k, 5)), ad.parameter(_rand(rng, 1, 5))
        w1, b1 = ad.parameter(_rand(rng, 5, 3)), ad.parameter(_rand(rng, 1, 3))
        return (lambda: feed_forward(heads, x0, [w0, w1], [b0, b1]),
                [heads, w0, b0, w1, b1])
    if name == "feed_forward_mlp":
        # the node classifier's shape: three layers and a zero-width x0
        x = ad.parameter(_rand(rng, m, n))
        widths = (n, 5, 3, 1)
        ws = [ad.parameter(_rand(rng, a, b)) for a, b in zip(widths, widths[1:])]
        bs = [ad.parameter(_rand(rng, 1, b)) for b in widths[1:]]
        return lambda: feed_forward(x, np.zeros((m, 0)), ws, bs), [x, *ws, *bs]
    if name.startswith("build_entity_matrix"):
        return entity_matrix_case(rng, positional=name.endswith("positional"))
    if name == "TimeEncoder.encode_many":
        enc = TimeEncoder(rng.uniform(0.1, 1.5, size=n))
        deltas = np.where(rng.random(m) < 0.3, 0.0, rng.exponential(3.0, size=m))
        weights = _rand(rng, m, 2 * n)
        return lambda: weighted_sum(enc.encode_many(deltas), weights), [enc.frequencies]
    if name == "hop_every_target_empty":
        return hop_case(rng, "learned", kind="empty")
    if name == "hop_three_sampled_rows":
        return hop_case(rng, "learned", kind="few")
    if name.startswith("hop_edges"):
        mode = name.removeprefix("hop_edges_").removesuffix("_learnable")
        return hop_case(rng, mode, positional=mode == "positional")
    if name.startswith("attend_head"):
        return attention_case(rng, "constant" if name.endswith("constant") else "learned",
                              masked=name != "attend_head")
    raise AssertionError(name)


@pytest.mark.parametrize("op_name", OPS)
def test_operator_gradients_match_finite_differences(op_name):
    # 100+ seeded trials across the operator set, shapes <= 8x8
    for trial in range(8):
        rng = np.random.default_rng([zlib.crc32(op_name.encode()), trial])
        build, params = build_op_case(op_name, rng)
        assert_matches_fd(build, params, trial)


def _public_functions():
    """(name, function) for every public function and public class method
    defined in a ``tgat`` module; a method is named ``Class.method``."""
    for info in pkgutil.iter_modules(tgat.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"tgat.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield name, obj
            elif inspect.isclass(obj):
                for method, fn in vars(obj).items():
                    fn = getattr(fn, "__func__", fn)  # class and static methods
                    if inspect.isfunction(fn) and not method.startswith("_"):
                        yield f"{name}.{method}", fn


def test_every_operator_is_grad_checked():
    # a public function or method that records a backward rule needs a case in OPS
    recorded = {name for name, fn in _public_functions()
                if name != "apply_op" and "apply_op(" in inspect.getsource(fn)}
    assert {"pair_scores", "build_entity_matrix", "feed_forward",
            "TimeEncoder.encode_many"} <= recorded
    assert recorded <= set(OPS), sorted(recorded - set(OPS))


def attention_weights(scores: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """The masked row softmax inside the attention operator, applied to
    ``scores`` (B, N): with d_h = 1 and unit projections, each score is one
    query-key product."""
    mask = np.ones(scores.shape, dtype=bool) if mask is None else mask
    # the B target rows, then one row per unmasked slot
    z = np.concatenate([np.ones(scores.shape[0]), scores[mask]])[:, None]
    unit = ad.constant(np.ones((1, 1)))
    return attend_head(ad.constant(z), unit, unit, unit, 1, "learned", mask)[1][0]


class TestForwardValues:
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

    @staticmethod
    def _relu_gradient(pre: np.ndarray) -> np.ndarray:
        """Gradient of sum(relu(pre)) through a two-layer feed_forward whose
        first layer passes ``pre`` through unchanged."""
        x = ad.parameter(pre)
        width = pre.shape[1]
        weights = [ad.constant(np.eye(width)), ad.constant(np.ones((width, 1)))]
        biases = [ad.constant(np.zeros((1, width))), ad.constant(np.zeros((1, 1)))]
        with ad.Tape() as tape:
            loss = weighted_sum(feed_forward(x, np.zeros((1, 0)), weights, biases), 1.0)
        ad.backward(tape, loss)
        return x.grad

    def test_relu_backward_subgradient(self):
        np.testing.assert_array_equal(self._relu_gradient(np.array([[-1.0, 2.0]])), [[0.0, 1.0]])

    def test_relu_derivative_at_exact_zero_is_zero(self):
        assert self._relu_gradient(np.array([[0.0]]))[0, 0] == 0.0

    def test_log_sigmoid_stable_far_out(self):
        # -log sigmoid(s) for s = -800, 0, 800: 800, log 2 and 0, with no overflow
        losses, grads = [], []
        for s in (-800.0, 0.0, 800.0):
            scores = ad.parameter(np.array([[s]]))
            with ad.Tape() as tape:
                loss = ad.logistic_loss(scores, np.ones((1, 1)))
            ad.backward(tape, loss)
            losses.append(loss.data[0, 0])
            grads.append(scores.grad[0, 0])
        assert np.isfinite(losses).all() and np.isfinite(grads).all()
        np.testing.assert_allclose(losses, [800.0, np.log(2.0), 0.0])
        np.testing.assert_allclose(grads, [-1.0, -0.5, 0.0])


class TestBackwardSemantics:
    def test_sum_loss_gives_all_ones(self):
        x = ad.parameter(np.ones((3, 2)))
        with ad.Tape() as tape:
            loss = weighted_sum(x, 1.0)
        ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_log_sigmoid_of_dot_at_zero_weight(self):
        # d/dw -log sigmoid(x.w) at w=0 is -sigmoid(0) * x = -0.5 * x
        x_val = np.array([[1.5, -2.0, 0.5]])
        w = ad.parameter(np.zeros((3, 1)))
        b = ad.constant(np.zeros((1, 1)))
        with ad.Tape() as tape:
            loss = ad.logistic_loss(feed_forward(ad.constant(x_val), np.zeros((1, 0)), [w], [b]),
                                    np.ones((1, 1)))
        ad.backward(tape, loss)
        np.testing.assert_allclose(w.grad, -0.5 * x_val.T)

    def test_two_path_gradient_accumulates(self):
        # y = sum(x * a) + sum(x * b): grad x = a + b (two-path linearity)
        rng = np.random.default_rng(5)
        x = ad.parameter(rng.standard_normal((2, 3)))
        a_val = rng.standard_normal((2, 3))
        b_val = rng.standard_normal((2, 3))
        with ad.Tape() as tape:
            loss = plus(weighted_sum(x, a_val), weighted_sum(x, b_val))
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, a_val + b_val)

    def test_shared_gradient_array_is_not_updated_in_place(self):
        # plus hands one array to both inputs; accumulating into it in place
        # would also change the gradient of b
        a = ad.parameter(np.ones((2, 3)))
        b = ad.parameter(np.ones((2, 3)))
        with ad.Tape() as tape:
            loss = weighted_sum(plus(plus(a, b), a), 1.0)
        ad.backward(tape, loss)
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))

    def test_random_two_layer_composition_matches_fd(self):
        rng = np.random.default_rng(11)
        w1 = ad.parameter(rng.standard_normal((4, 5)))
        w2 = ad.parameter(rng.standard_normal((5, 1)))
        b1, b2 = ad.parameter(rng.standard_normal((1, 5))), ad.parameter(np.zeros((1, 1)))
        x = ad.constant(rng.standard_normal((2, 4)))
        sign = np.array([[1.0], [-1.0]])

        def build():
            return ad.logistic_loss(feed_forward(x, np.zeros((2, 0)), [w1, w2], [b1, b2]), sign)

        assert_matches_fd(build, [w1, w2, b1, b2], 0, atol=1e-6, rtol=1e-4)

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.ones((2, 2)))
        with ad.Tape() as tape:
            y = plus(x, x)
        with pytest.raises(ContractError):
            ad.backward(tape, y)

    def test_no_recording_without_tape(self):
        x = ad.parameter(np.ones((2, 2)))
        y = plus(x, x)
        assert y.requires_grad
        tape = ad.Tape()
        assert len(tape) == 0


class TestShapeErrors:
    def test_rank_3_rejected(self):
        with pytest.raises(DimensionError):
            ad.Tensor(np.ones((2, 2, 2)))

    def test_pair_and_sign_shapes_checked(self):
        h = ad.constant(np.ones((4, 2)))
        with pytest.raises(DimensionError):
            ad.pair_scores(h, [0, 1], [2])  # one right row would broadcast
        with pytest.raises(DimensionError):
            ad.logistic_loss(ad.constant(np.ones((3, 1))), np.ones(3))  # would give (3, 3)

    @pytest.mark.parametrize("h, left, right, shown", [
        (np.ones(3), [0], [1], "expected a matrix, got shape (3,)"),
        (np.ones((4, 2)), [0, 1], [2], "2 left rows against 1 right rows")],
        ids=["1-d", "unequal-sides"])
    def test_pair_scores_shape_messages(self, h, left, right, shown):
        with pytest.raises(DimensionError, match=f"^{re.escape(shown)}$"):
            ad.pair_scores(ad.constant(h), left, right)

    def test_pair_scores_row_bounds(self):
        for index in ([0, 2], [-1], [[0]]):
            with pytest.raises(DimensionError):
                ad.pair_scores(ad.constant(np.ones((2, 2))), index, index)


class TestGradCheck:
    def test_identity_sum_passes(self):
        # a non-scalar output: grad_check differentiates the sum of its entries
        x = ad.parameter(np.arange(6.0).reshape(2, 3))
        report = ad.grad_check(lambda: x, [x])
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
        report = ad.grad_check(lambda: x, [x], max_coords_per_param=10)
        assert report.checked_coords == 10
        assert report.passed

    @pytest.mark.parametrize("wrong, caught", [(7, True), (63, True), (6, False), (57, False)])
    def test_subsampled_coordinates_are_evenly_strided(self, wrong, caught):
        # 10 of 64 entries: 64 // 10 = 6 shares a factor with 64, so the
        # stride is 7 and the flat coordinates arange(10) * 7 % 64, that is
        # 0, 7, 14, 21, 28, 35, 42, 49, 56 and 63, the same on every call
        x = ad.parameter(np.ones((8, 8)))

        def broken():
            def pull(g):
                delta = g.copy()
                delta.flat[wrong] *= 3.0  # wrong at one entry only
                x._accumulate(delta)
            return ad.apply_op(x.data.copy(), (x,), pull)

        report = ad.grad_check(broken, [x], max_coords_per_param=10)
        assert report.checked_coords == 10
        assert isinstance(report.passed, bool)  # np.bool_ is never True or False
        assert report.passed is not caught

    @pytest.mark.parametrize("column", range(6))
    def test_subsampled_coordinates_meet_every_column(self, column):
        # 6 of a (9, 6) weight's 54 entries, as `tgat check --grad` checks a
        # layer's w_q: the stride 54 // 6 = 9 would meet columns 0 and 3 only,
        # so a rule wrong in any other whole column would pass; stride 11
        # meets all six
        x = ad.parameter(np.ones((9, 6)))

        def broken():
            def pull(g):
                delta = g.copy()
                delta[:, column] *= 3.0  # wrong in one column only
                x._accumulate(delta)
            return ad.apply_op(x.data.copy(), (x,), pull)

        report = ad.grad_check(broken, [x], max_coords_per_param=6)
        assert report.checked_coords == 6
        assert not report.passed

    def test_a_check_of_no_coordinate_does_not_pass(self):
        # both used to pass, having compared nothing, for a rule wrong by 3x
        w = ad.parameter(np.array([[0.3, -0.7]]))

        def broken():
            def pull(g):
                w._accumulate(3.0 * g)
            return ad.apply_op(w.data.copy(), (w,), pull)

        for report in (ad.grad_check(broken, [w], max_coords_per_param=0),
                       ad.grad_check(broken, [])):
            assert report.checked_coords == 0 and not report.passed
