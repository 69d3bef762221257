"""Minimal dense reverse-mode automatic differentiation engine.

Tensors wrap float64 numpy buffers of rank <= 2. Operations compute their
forward value eagerly and, when a tape is active and any input requires a
gradient, record a pull-back closure on that tape. The tape is rebuilt for
every forward pass (define-by-run); ``backward`` replays it in reverse and
accumulates gradients additively, so a tensor used twice receives the sum
of both path gradients.

Design choices: double precision everywhere (finite-difference checks need
the headroom). The engine holds only the two operators the losses need,
``pair_scores`` and ``logistic_loss``; the model's fused operators record
their own rules through ``apply_op``, the learnable positional table's
gradient among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

GradFn = Callable[[np.ndarray], None]


class Tensor:
    """Dense float64 array (rank <= 2) that can take part in a gradient tape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise DimensionError(f"rank-{arr.ndim} tensor not supported (shape {arr.shape})")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    def _accumulate(self, delta: np.ndarray) -> None:
        # never in place: a rule may hand one array to several inputs
        self.grad = delta if self.grad is None else self.grad + delta


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class Tape:
    """Append-only record of one forward pass, replayed in reverse by ``backward``."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, GradFn]] = []

    def __enter__(self) -> "Tape":
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ACTIVE.pop()
        return False

    def __len__(self) -> int:
        return len(self._nodes)


_ACTIVE: list[Tape] = []


def apply_op(out_data: np.ndarray, inputs: Sequence[Tensor], pull: GradFn) -> Tensor:
    """Create the output tensor of an operation and record its backward rule.

    ``pull`` receives the upstream gradient of the output and must accumulate
    into the inputs via ``Tensor._accumulate``. This is the extension point
    every operator below goes through; test fixtures use it to inject
    deliberately wrong rules when exercising ``grad_check``. A rule is
    recorded only when a tape is active and some input requires a gradient,
    so the rule of a one-input operator may accumulate into its input
    unconditionally.
    """
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if _ACTIVE and out.requires_grad:
        _ACTIVE[-1]._nodes.append((out, pull))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate ``grad`` for every tensor reachable from a scalar loss."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    loss._accumulate(np.ones_like(loss.data))
    for out, pull in reversed(tape._nodes):
        if out.grad is not None:
            pull(out.grad)


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _row_index(a: Tensor, index) -> np.ndarray:
    index = np.asarray(index, dtype=np.intp)
    n_rows = a.data.shape[0]
    if index.ndim != 1 or (index.size and not 0 <= index.min() <= index.max() < n_rows):
        raise DimensionError(f"row index outside shape {a.data.shape}")
    return index


def pair_scores(h: Tensor, left, right) -> Tensor:
    """Inner products ``h[left[i]] . h[right[i]]`` as one (n, 1) column.

    The forward is ``(h[left] * h[right]) @ ones``; the backward scatter-adds
    into one gradient array, the ``right`` rows first, then the ``left``
    rows.
    """
    if h.data.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {h.data.shape}")
    left, right = _row_index(h, left), _row_index(h, right)
    if left.size != right.size:
        raise DimensionError(f"{left.size} left rows against {right.size} right rows")
    h_left, h_right = h.data[left], h.data[right]

    def pull(g: np.ndarray) -> None:
        grad = np.zeros_like(h.data)
        np.add.at(grad, right, g * h_left)
        np.add.at(grad, left, g * h_right)
        h._accumulate(grad)

    return apply_op((h_left * h_right) @ np.ones((h.data.shape[1], 1)), (h,), pull)


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function on a raw array."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logistic_loss(scores: Tensor, sign) -> Tensor:
    """-sum log sigmoid(sign * scores) as a (1, 1) tensor, computed without
    overflow; ``sign`` (+1 or -1 per score) has the shape of ``scores``.
    The gradient of a score is -sign * sigmoid(-sign * score)."""
    sign = np.asarray(sign, dtype=np.float64)
    if sign.shape != scores.data.shape:
        raise DimensionError(f"sign shape {sign.shape} does not match scores {scores.data.shape}")
    signed = scores.data * sign
    s = sigmoid_values(signed)

    def pull(g: np.ndarray) -> None:
        scores._accumulate(-g.flat[0] * (1.0 - s) * sign)

    return apply_op(np.array([[np.logaddexp(0.0, -signed).sum()]]), (scores,), pull)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def _sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape

    def pull(g: np.ndarray) -> None:
        a._accumulate(np.full(shape, g.flat[0]))

    return apply_op(np.array([[a.data.sum()]]), (a,), pull)


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    checked_coords: int


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    tolerance: float = 1e-4,
    step: float = 1e-5,
    max_coords_per_param: int | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must be deterministic given ``params`` and return a tensor; a
    non-scalar output is reduced to the sum of its entries before
    differentiation.
    A parameter of n entries is checked at the k = min(``max_coords_per_param``,
    n) flat coordinates ``arange(k) * s % n`` (k = n when that is None), where
    the stride s is the least whole number from n // k up that is prime to n,
    so the check draws nothing. Being prime to n, s is prime to the last
    dimension too, so k coordinates of a matrix with up to k columns meet
    every column, where a stride that is a multiple of the column count
    would meet one or two. Relative error uses ``|a - n| / max(|a| + |n|,
    1e-6)`` for analytic a and numeric n. A check of no coordinate does not pass.
    """
    zero_grads(params)
    with Tape() as tape:
        out = f()
        loss = out if out.data.size == 1 else _sum_all(out)
    backward(tape, loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    def value() -> float:
        return float(f().data.sum())

    max_rel = 0.0
    checked = 0
    for pi, p in enumerate(params):
        n = p.data.size
        k = n if max_coords_per_param is None else min(max_coords_per_param, n)
        stride = next(s for s in range(n // max(k, 1), n + 2) if np.gcd(s, n) == 1)
        for c in np.arange(k) * stride % n:  # every coordinate in order when k = n
            idx = np.unravel_index(c, p.data.shape)
            orig = p.data[idx]
            p.data[idx] = orig + step
            f_plus = value()
            p.data[idx] = orig - step
            f_minus = value()
            p.data[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic[pi].reshape(-1)[c]
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-6)
            checked += 1
            max_rel = max(max_rel, rel)
    return GradCheckReport(
        max_rel_error=max_rel,
        tolerance=tolerance,
        passed=checked > 0 and bool(max_rel < tolerance),
        checked_coords=checked,
    )
