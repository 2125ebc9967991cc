"""Shared instance generators and brute-force references for solver tests.

The interval-solver instances mix the regimes the solver visits: wide
convex regions at low event rates (projected Newton carries the solve),
slack budgets (clamp to the minimum interval), and energy-bound cases
along the multiplier ramp (the closed-form surrogate carries the solve).

Known behavior worth keeping visible: on energy-bound local-branch
instances the surrogate freezes its event probabilities at the interval
floor, which biases the returned interval a few percent high and costs
up to a few 1e-3 in relative objective against a dense grid (worst at
mid-ramp multipliers).  The component tests below assert the measured
envelope rather than pretending the closed form is exact there.
"""

import numpy as np

from maoi_edge.optimizer import CostTerms, ScenarioEvaluator
from maoi_edge.scenario import generate_scenario
from maoi_edge.system_model import SystemConfig


def draw_cost_terms(rng: np.random.Generator) -> CostTerms:
    """Unconstrained random cost terms for derivative checks."""
    return CostTerms(
        psi=tuple(rng.uniform(0.0, 5.0, 3)),
        lambdas=tuple(rng.uniform(0.1, 2.0, 3)),
        t_sys=tuple(rng.uniform(0.0, 20.0, 3)),
        energy=float(rng.uniform(0.1, 20.0)),
        energy_budget=float(rng.uniform(0.5, 3.0)),
        mu=float(rng.uniform(0.0, 10.0)),
    )


def draw_interval_instance(rng: np.random.Generator,
                           ) -> tuple[CostTerms, SystemConfig, str]:
    """One single-device interval-solve instance; returns its regime tag."""
    sc = generate_scenario(1, seed=int(rng.integers(1 << 30)))
    profiles, config = list(sc.profiles), sc.config
    offloaded = bool(rng.integers(2))
    x = np.array([1 if offloaded else 0])
    kind = ("convex", "energy_bound", "slack")[rng.integers(3)]
    if kind == "convex":
        # rare events relative to the system times: wide convex region
        lam = (rng.uniform(0.03, 0.15) if offloaded
               else rng.uniform(0.02, 0.045))
        config = SystemConfig(event_rates=(lam, lam, lam))
        mu = float(rng.uniform(0.05, 2.0))
    elif kind == "energy_bound":
        # multiplier along the subgradient ramp toward its fixed point
        base = ScenarioEvaluator(profiles, config).cost_terms(0, 0.0, x)
        sphi = sum(1.0 + p * (1 - np.exp(-l * config.tau_min))
                   for p, l in zip(base.psi, base.lambdas))
        e_max = profiles[0].energy_budget
        mu_star = base.energy * sphi / (2.0 * e_max**2)
        mu = float(mu_star * rng.uniform(0.2, 1.8))
    else:
        # slack budget: interval should clamp to the minimum
        mu = float(rng.uniform(0.0, 0.05))
    terms = ScenarioEvaluator(profiles, config).cost_terms(0, mu, x)
    return terms, config, kind


def grid_costs(terms: CostTerms, grid: np.ndarray) -> np.ndarray:
    """Vectorized penalized cost over an interval grid."""
    psi = np.asarray(terms.psi)
    lam = np.asarray(terms.lambdas)
    t_sys = np.asarray(terms.t_sys)
    phi = 1.0 + psi[None, :] * (1.0 - np.exp(-lam[None, :] * grid[:, None]))
    age = (phi * (0.5 * grid[:, None] + t_sys[None, :])).sum(axis=1)
    return age + terms.mu * (terms.energy / grid - terms.energy_budget)


def grid_minimum(terms: CostTerms, tau_min: float, tau_upper: float,
                 n_points: int = 10_000) -> float:
    """Brute-force reference: lowest cost on a dense interval grid."""
    grid = np.linspace(tau_min, 10.0 * tau_upper, n_points)
    return float(grid_costs(terms, grid).min())
