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

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import PositionLookupError, ValidationError
from .temporal_graph import Rule, check_value


class TimeEncoder:
    """Learnable cos/sin map from a timespan to a unit-norm feature vector."""

    def __init__(self, frequencies):
        freq = np.asarray(frequencies, dtype=np.float64).reshape(1, -1)
        if freq.size == 0:
            raise ValidationError("time encoder needs at least one frequency")
        self.frequencies = ad.parameter(freq)

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

    def parameters(self) -> list[Tensor]:
        return [self.frequencies]

    def encode_many(self, deltas) -> Tensor:
        """Differentiable encodings for a batch of timespans, one per row: the
        values of ``encode_values``, with a gradient for the frequencies."""
        dt = np.asarray(deltas, dtype=np.float64).reshape(-1, 1)
        trig = self._cos_sin(dt)

        def pull(g: np.ndarray) -> None:
            d_phase = g[:, 1::2] * trig[:, 0::2] - g[:, 0::2] * trig[:, 1::2]
            self.frequencies._accumulate(self.scale * (dt * d_phase).sum(axis=0, keepdims=True))

        return ad.apply_op(trig * self.scale, (self.frequencies,), pull)

    def encode_values(self, deltas) -> np.ndarray:
        """Plain-numpy encodings (no tape), one row per timespan."""
        return self._cos_sin(np.asarray(deltas, dtype=np.float64).reshape(-1, 1)) * self.scale

    def _cos_sin(self, dt: np.ndarray) -> np.ndarray:
        """The unscaled encodings: cos and sin of each phase, interleaved."""
        phase = dt * self.frequencies.data
        out = np.empty((dt.shape[0], self.output_dim))
        out[:, 0::2] = np.cos(phase)
        out[:, 1::2] = np.sin(phase)
        return out

    def kernel_estimate(self, t1: float, t2: float) -> float:
        """Inner product of the two encodings; algebraically equal to
        ``mean_i cos(w_i (t1 - t2))``."""
        e1 = self.encode_values([t1])[0]
        e2 = self.encode_values([t2])[0]
        return float(e1 @ e2)


class PositionalEncoder:
    """Per-rank position vectors, fixed sinusoidal or learnable."""

    def __init__(self, table: np.ndarray, learnable: bool):
        table = np.asarray(table, dtype=np.float64)
        self.learnable = learnable
        self.table = ad.parameter(table) if learnable else ad.constant(table)

    @classmethod
    def fixed_sinusoidal(cls, max_positions: int, dim: int) -> "PositionalEncoder":
        pos = np.arange(max_positions)[:, None]
        idx = np.arange(dim)[None, :]
        angle = pos / np.power(10000.0, (2 * (idx // 2)) / dim)
        table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
        return cls(table, learnable=False)

    @classmethod
    def learnable_table(cls, max_positions: int, dim: int, rng: np.random.Generator) -> "PositionalEncoder":
        limit = np.sqrt(6.0 / (max_positions + dim))
        return cls(rng.uniform(-limit, limit, size=(max_positions, dim)), learnable=True)

    @property
    def max_positions(self) -> int:
        return self.table.data.shape[0]

    def parameters(self) -> list[Tensor]:
        return [self.table] if self.learnable else []

    def lookup(self, ranks) -> Tensor:
        """Position vectors of a rank or an array of ranks, one row each."""
        ranks = np.asarray(ranks, dtype=np.intp).reshape(-1)
        bad = ranks[(ranks < 0) | (ranks >= self.max_positions)]
        if bad.size:
            raise PositionLookupError(f"rank {bad[0]} outside [0, {self.max_positions})")
        return ad.gather_rows(self.table, ranks)


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
    if not k_values or sorted(k_values) != k_values:
        raise ValidationError("k_values must be non-empty and ascending")

    axis = np.linspace(0.0, t_max, grid_size)
    oracle = gaussian_kernel_oracle(axis[:, None], axis[None, :])

    reports = []
    for k in k_values:
        sups = np.empty(trials)
        means = np.empty(trials)
        for trial in range(trials):
            rng = np.random.default_rng([rng_seed, k, trial])
            enc = TimeEncoder(rng.standard_normal(k))
            feats = enc.encode_values(axis)
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
