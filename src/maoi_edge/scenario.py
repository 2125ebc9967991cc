"""Random scenario construction for the experiment harness.

Devices are dropped uniformly in a 40 m x 40 m square with the base
station at the center; channel gains follow the inverse power law
``g = h**(-delta)`` with path-loss exponent 2.  Every other physical
parameter defaults to the simulation table and can be overridden.

Determinism: device ``i`` draws its position from a substream keyed by
``(seed, i)``, so the same seed yields the same device regardless of the
population size.  Modality weights are drawn uniformly from the
configured range with a per-modality Latin-hypercube stratification
across the population, which keeps population means tight for the
trend experiments without biasing the marginals.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .system_model import (NUMERIC_FIELDS, DeviceProfile, SystemConfig,
                           coerce_numeric, config_from_mapping)

AREA_SIZE = 40.0           # m, square side with the BS at the center
REFERENCE_DISTANCE = 10.0  # m, close-in distance below which path loss is flat
DEFAULT_PSI_RANGE = (0.5, 1.5)

_CONFIG_FIELDS = {f.name for f in fields(SystemConfig)}
_DEVICE_FIELDS = {f.name for f in fields(DeviceProfile)} - {"id", "channel_gain"}
_SPECIAL_FIELDS = {"psi_range": "tuple[float, float]", "path_loss_exponent": "float"}
_NUMERIC_OVERRIDES = {**NUMERIC_FIELDS, **_SPECIAL_FIELDS}


@dataclass(frozen=True)
class Scenario:
    """A concrete problem instance: devices, system constants, geometry."""

    profiles: tuple[DeviceProfile, ...]
    config: SystemConfig
    seed: int
    positions: np.ndarray  # (D, 2) coordinates relative to the BS

    @property
    def n_devices(self) -> int:
        return len(self.profiles)


def channel_gain_from_distance(distance: float, delta: float = 2.0,
                               reference: float = REFERENCE_DISTANCE) -> float:
    """Inverse power-law gain for a device at the given BS distance (m).

    Path loss is flat inside the close-in reference distance, the usual
    guard against near-field singularities in cell-scale simulations.
    """
    if distance <= 0:
        raise ValueError(f"distance must be > 0, got {distance}")
    return max(distance, reference) ** (-delta)


def _stratified_uniform(rng: np.random.Generator, n: int, lo: float,
                        hi: float) -> np.ndarray:
    """n uniform draws on [lo, hi], one per equal-width stratum, shuffled."""
    cells = rng.permutation(n)
    return lo + (cells + rng.random(n)) * (hi - lo) / n


def generate_scenario(d_count: int, seed: int,
                      overrides: dict | None = None) -> Scenario:
    """Deterministically generate a scenario of ``d_count`` devices.

    ``overrides`` may set any SystemConfig field, any DeviceProfile field
    (applied to all devices), plus ``psi_range`` and
    ``path_loss_exponent``.
    """
    if d_count < 1:
        raise ValueError(f"d_count must be >= 1, got {d_count}")
    overrides = coerce_numeric(overrides or {}, _NUMERIC_OVERRIDES)
    unknown = set(overrides) - _CONFIG_FIELDS - _DEVICE_FIELDS - set(_SPECIAL_FIELDS)
    if unknown:
        raise ValueError(f"unknown override fields: {sorted(unknown)}")
    psi_range = overrides.pop("psi_range", DEFAULT_PSI_RANGE)
    if not (isinstance(psi_range, (list, tuple)) and len(psi_range) == 2
            and all(isinstance(v, (int, float)) for v in psi_range)
            and 0 <= psi_range[0] <= psi_range[1] < np.inf):
        raise ValueError(f"psi_range must be two finite numbers lo, hi with "
                         f"0 <= lo <= hi, got {psi_range!r}")
    psi_lo, psi_hi = psi_range
    delta = overrides.pop("path_loss_exponent", 2.0)
    if not (isinstance(delta, (int, float)) and 0 < delta < np.inf):
        raise ValueError(f"path_loss_exponent must be a finite number > 0, got {delta!r}")
    config_kwargs = {k: v for k, v in overrides.items() if k in _CONFIG_FIELDS}
    device_kwargs = {k: v for k, v in overrides.items() if k in _DEVICE_FIELDS}
    config = config_from_mapping(config_kwargs)

    positions = np.empty((d_count, 2))
    for i in range(d_count):
        rng_i = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 17, i])))
        positions[i] = rng_i.uniform(-AREA_SIZE / 2, AREA_SIZE / 2, size=2)

    rng_psi = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 23])))
    psi = np.column_stack([_stratified_uniform(rng_psi, d_count, psi_lo, psi_hi)
                           for _ in range(3)])

    profiles = []
    for i in range(d_count):
        # the gain stays a scalar call per device: numpy's array power rounds
        # differently from Python's float power on ~5% of inputs (exponents
        # 2, 2.5 and 3.3), so a vectorized gain moves 8-19 of 320 devices
        distance = float(np.hypot(*positions[i]))
        gain = channel_gain_from_distance(max(distance, 1e-9), delta)
        kwargs = dict(device_kwargs)
        kwargs.setdefault("maoi_weights", tuple(psi[i]))
        profiles.append(DeviceProfile(id=i, channel_gain=gain, **kwargs))
    return Scenario(profiles=tuple(profiles), config=config, seed=seed,
                    positions=positions)


def with_audio_weight_increment(scenario: Scenario, increment: float) -> Scenario:
    """Additively raise every device's audio weight; other weights unchanged."""
    if increment < 0:
        raise ValueError(f"increment must be >= 0, got {increment}")
    profiles = tuple(
        replace(p, maoi_weights=(p.maoi_weights[0],
                                 p.maoi_weights[1] + increment,
                                 p.maoi_weights[2]))
        for p in scenario.profiles)
    return Scenario(profiles=profiles, config=scenario.config,
                    seed=scenario.seed, positions=scenario.positions)


__all__ = ["Scenario", "generate_scenario", "channel_gain_from_distance",
           "with_audio_weight_increment", "AREA_SIZE", "REFERENCE_DISTANCE",
           "DEFAULT_PSI_RANGE"]
