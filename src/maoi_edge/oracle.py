"""Monte-Carlo oracle for the sawtooth average age.

Simulates the polygon-area decomposition of the age trajectory directly:
per update, the area contribution is

    Q_i = 1/2 * k_(i-1) * (Y + Z)^2  -  1/2 * k_i * Z^2

with deterministic interval Y = tau and system time Z, and slopes k drawn
i.i.d. from the two-point growth PMF.  The time average sum(Q_i)/(n*tau)
is an unbiased estimate of the closed form for every n, which makes the
confidence-interval bracketing test exact rather than asymptotic-only.

A slope takes one of two values, so Q_i / tau takes one of four: the
simulation draws one event flag per slope and gathers each update's value
from a four-entry table indexed by the flags ``(k_(i-1), k_i)``.  Each
entry is formed with the scalar operations of the elementwise form, so
the values are the same IEEE numbers without the per-update slope and
area arrays.  The per-update values stay materialized because the mean
and the batch means are numpy's pairwise sums over that one array.

Adjacent areas share one slope draw, so the standard error uses batch
means over update blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimizer import ScenarioEvaluator, as_offload_vector

#: Two-sided 99% normal quantile: the default CI half-width in standard errors.
Z_99 = 2.576


@dataclass(frozen=True)
class TrajectoryStats:
    """Simulation estimate of the average age with a batch-means error bar."""

    mean_maoi: float
    std_error: float
    n_updates: int

    def __post_init__(self) -> None:
        if not self.std_error >= 0:
            raise ValueError(f"std_error must be >= 0, got {self.std_error}")
        if self.n_updates < 1:
            raise ValueError("n_updates must be >= 1")

    def ci(self, z: float = Z_99) -> tuple[float, float]:
        """Confidence interval at the given normal quantile (default 99%)."""
        if not z > 0:
            raise ValueError(f"z must be > 0, got {z}")
        return (self.mean_maoi - z * self.std_error,
                self.mean_maoi + z * self.std_error)

    def brackets(self, value: float, z: float = Z_99) -> bool:
        lo, hi = self.ci(z)
        return lo <= value <= hi


def _rng(seed) -> np.random.Generator:
    # PCG64: named, portable, explicitly seeded 64-bit generator
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _check_real(name: str, value: float, allow_zero: bool) -> None:
    if not (math.isfinite(value) and (value >= 0 if allow_zero else value > 0)):
        raise ValueError(f"{name} must be finite and {'>=' if allow_zero else '>'} 0, "
                         f"got {value}")


def simulate_avg_maoi(psi: float, lam: float, tau: float, t_sys: float,
                      n_updates: int, seed) -> TrajectoryStats:
    """Estimate the average modality age over ``n_updates`` sampling cycles."""
    _check_real("tau", tau, allow_zero=False)
    _check_real("lam", lam, allow_zero=False)
    _check_real("t_sys", t_sys, allow_zero=True)
    _check_real("psi", psi, allow_zero=True)
    if (not isinstance(n_updates, (int, np.integer)) or isinstance(n_updates, bool)
            or n_updates < 2):
        raise ValueError(f"n_updates must be an int >= 2, got {n_updates!r}")
    rng = _rng(seed)
    p_event = 1.0 - math.exp(-lam * tau)
    # event flags of slopes k_0 .. k_n: update i uses (k_(i-1), k_i)
    hit = rng.random(n_updates + 1) < p_event
    slopes = (1.0, 1.0 + psi)
    table = np.array([(0.5 * k_prev * (tau + t_sys) ** 2 - 0.5 * k_cur * t_sys**2) / tau
                      for k_prev in slopes for k_cur in slopes])
    per_update = table[hit[:-1].astype(np.intp) * 2 + hit[1:]]
    mean = float(per_update.mean())

    n_blocks = min(200, n_updates)
    usable = (n_updates // n_blocks) * n_blocks
    blocks = per_update[:usable].reshape(n_blocks, -1).mean(axis=1)
    spread = float(blocks.std(ddof=1)) if n_blocks > 1 else 0.0
    se = spread / math.sqrt(n_blocks)
    # the block estimate collapses to zero when no rare slope materialized
    # (near-saturated event probability); floor it with the exact sampling
    # error of the telescoped estimator (tau/2 + Z) * (1 + psi * p_hat),
    # which depends only on the simulation's own inputs
    se_floor = abs(psi) * math.sqrt(p_event * (1.0 - p_event) / n_updates) \
        * (0.5 * tau + t_sys)
    se = max(se, se_floor)
    return TrajectoryStats(mean_maoi=mean, std_error=se, n_updates=n_updates)


def simulate_avg_maoi_device(ev: ScenarioEvaluator, d: int, tau: float,
                             x, n_updates: int, seed: int) -> TrajectoryStats:
    """Device-level estimate: three independent modality simulations summed.

    System times come from the evaluator's pattern state under ``x`` and
    the weights from its true modality weights, so the estimate checks the
    closed form the solvers optimize.
    """
    if not 0 <= d < ev.n_devices:
        raise ValueError(f"device index {d} out of range for {ev.n_devices} devices")
    t_sys = ev.pattern_state(as_offload_vector(x, ev.n_devices)).t_sys
    parts = [simulate_avg_maoi(float(ev.psi_true[d, s]), float(ev.lam[s]), tau,
                               float(t_sys[d, s]), n_updates, seed=[seed, s])
             for s in range(3)]
    return TrajectoryStats(
        mean_maoi=sum(p.mean_maoi for p in parts),
        std_error=math.sqrt(sum(p.std_error**2 for p in parts)),
        n_updates=n_updates,
    )


__all__ = ["Z_99", "TrajectoryStats", "simulate_avg_maoi", "simulate_avg_maoi_device"]
