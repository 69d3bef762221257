"""Functional time encoding with learnable frequencies, plus baselines and checks.

The encoder maps a timespan to ``(1/sqrt(k)) * [cos(w_1 t), sin(w_1 t), ...,
cos(w_k t), sin(w_k t)]``, so any encoding has unit Euclidean norm and the
inner product of two encodings estimates a translation-invariant temporal
kernel. With frequencies drawn i.i.d. from a spectral density, that estimate
converges to the density's Fourier transform; ``kernel_convergence_check``
measures the sup-grid error against the closed-form Gaussian case.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from . import cores
from .autodiff import Tensor
from .errors import ValidationError
from .temporal_graph import Rule, check_value, seed_sequence

# cos/sin phases per row block of ``encode_many``: about half a millisecond
# of libm calls, against some 25 us to hand a block to a pool thread
PHASES_PER_BLOCK = 1 << 14


def _phi_rows(phase, trig, out, scale: float) -> None:
    """cos and sin of ``phase`` into the even and odd columns of ``trig``,
    and ``trig`` times ``scale`` into ``out``."""
    np.cos(phase, out=trig[:, 0::2])
    np.sin(phase, out=trig[:, 1::2])
    np.multiply(trig, scale, out=out)


def _phi_blocks(phase, trig, out, scale: float) -> None:
    """``_phi_rows`` in row blocks of about ``PHASES_PER_BLOCK`` phases; two
    or more blocks run on ``cores.run``."""
    rows, width = phase.shape
    blocks = max(1, rows * width // PHASES_PER_BLOCK)
    if blocks == 1:
        _phi_rows(phase, trig, out, scale)
        return
    step = -(-rows // blocks)
    row_blocks = [slice(start, start + step) for start in range(0, rows, step)]
    cores.run([partial(_phi_rows, phase[r], trig[r], out[r], scale) for r in row_blocks])


class TimeEncoder:
    """Learnable cos/sin map from a timespan to a unit-norm feature vector."""

    def __init__(self, frequencies):
        freq = np.asarray(frequencies, dtype=np.float64)
        if freq.shape not in ((freq.size,), (1, freq.size)):
            raise ValidationError(f"frequencies must be shaped (k,) or (1, k), got {freq.shape}")
        if freq.size == 0:
            raise ValidationError("time encoder needs at least one frequency")
        if not np.isfinite(freq).all():
            raise ValidationError("frequencies hold a non-finite value")
        self.frequencies = ad.parameter(freq.reshape(1, -1))

    @classmethod
    def create(cls, output_dim: int, t_max: float = 1.0) -> "TimeEncoder":
        """Build an encoder with a geometric frequency ladder spanning
        periods from O(1) up to well past ``t_max``. ``output_dim`` must be
        even: each frequency contributes a cosine and a sine coordinate."""
        check_value(output_dim, int, "output_dim", Rule.EVEN_AT_LEAST_2)
        k = output_dim // 2
        alpha = max(float(t_max), 0.1) * 10.0
        freq = alpha ** (-np.arange(k) / k)
        return cls(freq)

    @property
    def num_frequencies(self) -> int:
        return self.frequencies.data.size

    @property
    def output_dim(self) -> int:
        return 2 * self.num_frequencies

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.num_frequencies)

    def encode_many(self, deltas) -> Tensor:
        """Differentiable encodings for a batch of timespans, one per row:
        cos and sin of each phase w_i * t, interleaved and scaled, with a
        gradient for the frequencies. The one forward implementation of the
        map: the model, ``kernel_estimate`` and the kernel check read it.

        Rows are computed in blocks of about ``PHASES_PER_BLOCK`` phases, and
        idle cores take blocks too. Every value is one libm call on one phase
        written in place, so no bit depends on the blocks or the threads."""
        dt = np.asarray(deltas, dtype=np.float64).reshape(-1, 1)
        phase = dt * self.frequencies.data
        trig = np.empty((phase.shape[0], self.output_dim))
        out = np.empty_like(trig)
        _phi_blocks(phase, trig, out, self.scale)

        def pull(g: np.ndarray) -> None:
            d_phase = g[:, 1::2] * trig[:, 0::2] - g[:, 0::2] * trig[:, 1::2]
            self.frequencies._accumulate(self.scale * (dt * d_phase).sum(axis=0, keepdims=True))

        return ad.apply_op(out, (self.frequencies,), pull)

    def kernel_estimate(self, t1: float, t2: float) -> float:
        """Inner product of the two encodings; algebraically equal to
        ``mean_i cos(w_i (t1 - t2))``."""
        e1, e2 = self.encode_many([t1, t2]).data
        return float(e1 @ e2)


class PositionalEncoder:
    """Per-rank position vectors, fixed sinusoidal or learnable."""

    def __init__(self, table: np.ndarray, learnable: bool):
        table = np.asarray(table, dtype=np.float64)
        if table.ndim != 2:
            raise ValidationError(f"positional table must be 2-D, got shape {table.shape}")
        if not np.isfinite(table).all():
            raise ValidationError("positional table holds a non-finite value")
        self.learnable = learnable
        self.table = ad.parameter(table) if learnable else ad.constant(table)

    @classmethod
    def fixed_sinusoidal(cls, max_positions: int, dim: int) -> "PositionalEncoder":
        pos = np.arange(max_positions)[:, None]
        idx = np.arange(dim)[None, :]
        angle = pos / np.power(10000.0, (2 * (idx // 2)) / dim)
        table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
        return cls(table, learnable=False)

    @property
    def max_positions(self) -> int:
        return self.table.data.shape[0]


# ---------------------------------------------------------------------------
# empirical kernel-convergence check
# ---------------------------------------------------------------------------


@dataclass
class KernelCheckReport:
    """Sup/mean absolute error between the estimated and analytic kernel over a grid."""

    sup_error: float  # mean over trials of the per-trial sup error
    mean_error: float  # mean over trials of the per-trial mean error
    sample_count: int  # number of frequencies
    trial_sup_errors: np.ndarray = field(default_factory=lambda: np.zeros(0))


def gaussian_kernel_oracle(t1, t2) -> np.ndarray:
    """E[cos(w * (t1 - t2))] for w ~ N(0, 1): exp(-(t1 - t2)^2 / 2)."""
    d = np.asarray(t1, dtype=np.float64) - np.asarray(t2, dtype=np.float64)
    return np.exp(-0.5 * d * d)


def kernel_convergence_check(
    k_values=(16, 4096),
    t_max: float = 10.0,
    grid_size: int = 100,
    trials: int = 5,
    rng_seed: int = 0,
) -> list[KernelCheckReport]:
    """For each sample count k, measure how well the empirical kernel of
    frequencies drawn from N(0, 1) matches its analytic transform, the
    Gaussian kernel, over a (t1, t2) grid.

    Frequencies are redrawn per trial from seeds derived from
    ``(rng_seed, k, trial)``, so reports are reproducible and trials with the
    same index are comparable across k values.
    """
    k_values = list(k_values)
    for k in k_values:
        check_value(k, int, "each of k_values", Rule.AT_LEAST_1)
    if not k_values or sorted(k_values) != k_values:
        raise ValidationError("k_values must be non-empty and ascending")
    check_value(t_max, float, "t_max", Rule.POSITIVE_FINITE)
    check_value(grid_size, int, "grid_size", Rule.AT_LEAST_1)
    check_value(trials, int, "trials", Rule.AT_LEAST_1)

    axis = np.linspace(0.0, t_max, grid_size)
    oracle = gaussian_kernel_oracle(axis[:, None], axis[None, :])

    reports = []
    for k in k_values:
        sups = np.empty(trials)
        means = np.empty(trials)
        for trial in range(trials):
            rng = np.random.default_rng(seed_sequence([rng_seed, k, trial]))
            enc = TimeEncoder(rng.standard_normal(k))
            feats = enc.encode_many(axis).data
            err = np.abs(feats @ feats.T - oracle)
            sups[trial] = err.max()
            means[trial] = err.mean()
        reports.append(
            KernelCheckReport(
                sup_error=float(sups.mean()),
                mean_error=float(means.mean()),
                sample_count=k,
                trial_sup_errors=sups,
            )
        )
    return reports


def format_kernel_reports(reports: list[KernelCheckReport]) -> str:
    lines = [f"{'k':>8}  {'sup_error':>12}  {'mean_error':>12}"]
    for r in reports:
        lines.append(f"{r.sample_count:>8}  {r.sup_error:>12.6f}  {r.mean_error:>12.6f}")
    return "\n".join(lines)


def write_kernel_reports_csv(reports: list[KernelCheckReport], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "sup_error", "mean_error"])
        for r in reports:
            writer.writerow([r.sample_count, repr(r.sup_error), repr(r.mean_error)])
