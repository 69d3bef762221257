"""Minimal dense reverse-mode automatic differentiation engine.

Tensors wrap float64 numpy buffers of rank <= 2. Operations compute their
forward value eagerly and, when a tape is active and any input requires a
gradient, record a pull-back closure on that tape. The tape is rebuilt for
every forward pass (define-by-run); ``backward`` replays it in reverse and
accumulates gradients additively, so a tensor used twice receives the sum
of both path gradients.

Design choices: double precision everywhere (finite-difference checks need
the headroom), ReLU derivative at exactly 0 is 0, and broadcasting is
limited to row/column vectors against matrices.
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
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim > 2:
            raise DimensionError(f"rank-{arr.ndim} tensor not supported (shape {arr.shape})")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, delta: np.ndarray) -> None:
        # never in place: a rule may hand one array to several inputs
        self.grad = delta if self.grad is None else self.grad + delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


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


def recorded(inputs: Sequence[Tensor]) -> bool:
    """Whether an operation on ``inputs`` records its backward rule: a tape
    is active and some input requires a gradient. An operator may skip
    keeping what only its rule reads when this is False."""
    return bool(_ACTIVE) and any(t.requires_grad for t in inputs)


def apply_op(out_data: np.ndarray, inputs: Sequence[Tensor], pull: GradFn) -> Tensor:
    """Create the output tensor of an operation and record its backward rule.

    ``pull`` receives the upstream gradient of the output and must accumulate
    into the inputs via ``Tensor._accumulate``. This is the extension point
    every operator below goes through; test fixtures use it to inject
    deliberately wrong rules when exercising ``grad_check``. A rule is
    recorded only when ``recorded(inputs)``, so the rule of a one-input
    operator may accumulate into its input unconditionally.
    """
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if recorded(inputs):
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
        p.zero_grad()


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _require_2d(*tensors: Tensor) -> None:
    for t in tensors:
        if t.data.ndim != 2:
            raise DimensionError(f"expected a matrix, got shape {t.data.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_2d(a, b)
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul shapes {a.data.shape} x {b.data.shape} do not chain")
    a_data, b_data = a.data, b.data

    def pull(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b_data.T)
        if b.requires_grad:
            b._accumulate(a_data.T @ g)

    return apply_op(a_data @ b_data, (a, b), pull)


def unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of a ``shape`` operand broadcast into ``g``'s shape: ``g``
    summed over the broadcast axes, or ``g`` itself when the shapes agree."""
    if g.shape == shape:
        return g
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)


def _broadcast_pair(a: Tensor, b: Tensor, op: str) -> tuple[int, ...]:
    if a.data.shape == b.data.shape:
        return a.data.shape
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"{op} shapes {a.data.shape} and {b.data.shape} do not match")
    try:
        out_shape = np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise DimensionError(f"{op} shapes {a.data.shape} and {b.data.shape} do not match") from None
    # only row/column vector broadcasting is supported
    for t in (a, b):
        if t.data.shape != out_shape and 1 not in t.data.shape:
            raise DimensionError(f"{op} shapes {a.data.shape} and {b.data.shape} do not match")
    return out_shape


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_pair(a, b, "add")

    def pull(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g, b.data.shape))

    return apply_op(a.data + b.data, (a, b), pull)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def pull(g: np.ndarray) -> None:
        a._accumulate(c * g)

    return apply_op(c * a.data, (a,), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product (same broadcasting rules as add)."""
    _broadcast_pair(a, b, "mul")
    a_data, b_data = a.data, b.data

    def pull(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g * b_data, a_data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g * a_data, b_data.shape))

    return apply_op(a_data * b_data, (a, b), pull)


def gather_rows(a: Tensor, index) -> Tensor:
    """Rows of ``a`` picked by an integer index array (repeats allowed); the
    backward pass scatter-adds each output row's gradient into its source row."""
    _require_2d(a)
    index = np.asarray(index, dtype=np.intp)
    n_rows = a.data.shape[0]
    if index.ndim != 1 or (index.size and not 0 <= index.min() <= index.max() < n_rows):
        raise DimensionError(f"row index outside shape {a.data.shape}")

    def pull(g: np.ndarray) -> None:
        full = np.zeros_like(a.data)
        np.add.at(full, index, g)
        a._accumulate(full)

    return apply_op(a.data[index], (a,), pull)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # derivative at exactly 0 is 0

    def pull(g: np.ndarray) -> None:
        a._accumulate(g * mask)

    return apply_op(np.where(mask, a.data, 0.0), (a,), pull)


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function on a raw array."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_sigmoid(a: Tensor) -> Tensor:
    """log(sigmoid(x)) computed without overflow; backward is sigmoid(-x)."""
    y = -np.logaddexp(0.0, -a.data)
    s = sigmoid_values(a.data)

    def pull(g: np.ndarray) -> None:
        a._accumulate(g * (1.0 - s))

    return apply_op(y, (a,), pull)


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape

    def pull(g: np.ndarray) -> None:
        a._accumulate(np.full(shape, g.flat[0]))

    return apply_op(np.array([[a.data.sum()]]), (a,), pull)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


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
    rng_seed: int = 0,
    step: float = 1e-5,
    max_coords_per_param: int | None = None,
) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must be deterministic given ``params`` and return a tensor; a
    non-scalar output is reduced with ``sum_all`` before differentiation.
    Coordinates are subsampled per parameter when ``max_coords_per_param``
    is set; relative error uses ``|a - n| / max(|a| + |n|, 1e-6)``.
    """
    rng = np.random.default_rng(rng_seed)
    zero_grads(params)
    with Tape() as tape:
        out = f()
        loss = out if out.data.size == 1 else sum_all(out)
    backward(tape, loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    def value() -> float:
        return float(f().data.sum())

    max_rel = 0.0
    checked = 0
    for pi, p in enumerate(params):
        n_coords = p.data.size
        if max_coords_per_param is not None and n_coords > max_coords_per_param:
            coords = rng.choice(n_coords, size=max_coords_per_param, replace=False)
        else:
            coords = np.arange(n_coords)
        for c in coords:
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
        passed=max_rel < tolerance,
        checked_coords=checked,
    )
