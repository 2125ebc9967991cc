"""The evaluator's modality planes give the trailing-axis forms' bits.

``ScenarioEvaluator`` stores per-modality arrays as ``(3, D)`` planes and
adds modalities as ``(s0 + s1) + s2``.  The references in ``helpers`` keep
the modalities on a trailing axis and let numpy's ``sum(axis=-1)`` add
them.  A numpy whose reduction order or SIMD ``exp`` path changes fails
here by name, not only through a golden digest.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import reference_age_term, reference_cost_slopes
from maoi_edge.metric import event_factors
from maoi_edge.optimizer import ScenarioEvaluator, cost_slopes, planes_for
from maoi_edge.scenario import generate_scenario


def trailing_terms(ev, tau):
    """phi(tau) ``(..., D, 3)`` and ``0.5 * tau`` ``(..., D, 1)`` on a trailing modality axis."""
    tau_s = tau[..., None]
    return event_factors(ev.psi.T, ev.lam, tau_s), 0.5 * tau_s


def trailing_cost(ev, tau, mu, x):
    """Per-device penalized cost of pattern ``x`` by the trailing-axis forms."""
    state = ev.pattern_state(x)
    return (reference_age_term(*trailing_terms(ev, tau), state.t_sys.T)
            + mu * (state.energies / tau - ev.e_budget))


@st.composite
def instances(draw):
    """A generated scenario, a mixed pattern and ``(D,)`` or ``(rows, D)`` intervals."""
    d_count, seed = draw(st.integers(1, 40)), draw(st.integers(0, 2**16))
    rows = draw(st.sampled_from([0, 1, 3, 8]))  # 0: a (D,) vector
    sc = generate_scenario(d_count, seed=seed)
    ev = ScenarioEvaluator(sc.devices, sc.config)
    rng = np.random.default_rng(seed)
    x = (rng.random(d_count) < draw(st.floats(0.0, 1.0))).astype(np.int64)
    shape = (d_count,) if rows == 0 else (rows, d_count)
    tau = sc.config.tau_min + rng.exponential(8.0, shape)
    mu = np.where(rng.random(shape) < 0.2, 0.0, rng.uniform(0.0, 20.0, shape))
    return ev, x, tau, mu


@settings(max_examples=60, deadline=None)
@given(instances())
def test_planes_price_with_the_trailing_axis_bits(case):
    ev, x, tau, mu = case
    state = ev.pattern_state(x)
    phi, half_tau = trailing_terms(ev, tau)
    age_loc, over_loc, age_off, over_off = ev.branch_terms(tau, x)
    assert age_loc.tobytes() == reference_age_term(phi, half_tau, ev.t_local.T).tobytes()
    assert age_off.tobytes() == reference_age_term(phi, half_tau, state.t_off.T).tobytes()
    assert over_loc.tobytes() == (ev.e_local / tau - ev.e_budget).tobytes()
    assert over_off.tobytes() == (state.e_off / tau - ev.e_budget).tobytes()
    assert ev.device_costs(tau, mu, x).tobytes() == trailing_cost(ev, tau, mu, x).tobytes()

    n = tau.ndim
    slopes = cost_slopes(planes_for(ev.psi, n), planes_for(ev.lam, n), tau,
                         planes_for(state.t_sys, n), mu, state.energies)
    expected = reference_cost_slopes(ev.psi.T, ev.lam, tau, state.t_sys.T, mu, state.energies)
    for got, want in zip(slopes, expected):
        assert got.tobytes() == want.tobytes()

    if n == 1:
        # every single flip's gain is the trailing forms' system-cost difference
        cost_now = trailing_cost(ev, tau, mu, x).sum()
        for d in range(ev.n_devices):
            trial = x.copy()
            trial[d] = 1 - x[d]
            gain = cost_now - trailing_cost(ev, tau, mu, trial).sum()
            expected_flip = (d, float(gain)) if gain > 0.0 else (None, 0.0)
            assert ev.best_flip(tau, mu, x, np.array([d]), trial[[d]],
                                ev.branch_costs(tau, mu, x)) == expected_flip
