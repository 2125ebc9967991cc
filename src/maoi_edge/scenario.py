"""Random scenario construction for the experiment harness.

Devices are dropped uniformly in a 40 m x 40 m square with the base
station at the center; channel gains follow the inverse power law
``g = h**(-delta)`` with path-loss exponent 2.  Every other physical
parameter defaults to the simulation table and can be overridden.

Determinism: device ``i`` draws its position from a substream keyed by
``(seed, i)``, so the same seed yields the same device regardless of the
population size.  The substream is numpy's
``Generator(PCG64(SeedSequence([seed, 17, i])))`` and the position is its
first two ``uniform(-20, 20)`` draws, but no generator is built per
device: ``_device_uniforms`` runs SeedSequence's entropy mixing, PCG64's
seeding and its first two outputs for every device at once in uint32 and
uint64 array arithmetic.  numpy keeps the streams of a seeded
SeedSequence and PCG64 stable across releases (its NEP 19 compatibility
policy), so the one-pass draw equals the per-device one bit for bit;
``tests/test_scenario.py`` checks that, and how ``uniform`` scales its
doubles, against the per-device loop kept as
``tests/helpers.reference_positions``.  Modality weights are drawn
uniformly from the configured range with a per-modality Latin-hypercube
stratification across the population, which keeps population means
tight for the trend experiments without biasing the marginals.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace

import numpy as np

from .system_model import (CONFIG_FIELD_TYPES, PROFILE_FIELD_TYPES, DeviceProfile,
                           DeviceTable, SystemConfig, check_device_count, parse_settings)

AREA_SIZE = 40.0           # m, square side with the BS at the center
REFERENCE_DISTANCE = 10.0  # m, close-in distance below which path loss is flat
DEFAULT_PSI_RANGE = (0.5, 1.5)

#: Declared type of every device field the generator does not draw itself.
DEVICE_OVERRIDE_TYPES = {name: kind for name, kind in PROFILE_FIELD_TYPES.items()
                         if name not in ("id", "channel_gain")}
#: Declared type of the two settings that shape the generator's draws.
GENERATOR_TYPES = {"psi_range": "tuple[float, float]", "path_loss_exponent": "float"}
#: Declared type of every override: the system, device and generator settings.
_OVERRIDE_TYPES = {**CONFIG_FIELD_TYPES, **DEVICE_OVERRIDE_TYPES, **GENERATOR_TYPES}

# numpy's SeedSequence (4-word pool, 32-bit hash) and PCG64 (128-bit LCG,
# XSL-RR output) constants
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_PCG_MULT_LO_LIMBS = (_PCG_MULT_LO & np.uint64(_MASK32), _PCG_MULT_LO >> np.uint64(32))


@dataclass(frozen=True, eq=False)
class Scenario:
    """A concrete problem instance: device table, system constants, geometry.

    ``==`` and ``hash`` go by identity; contents compare by ``devices.columns``.
    """

    devices: DeviceTable
    config: SystemConfig
    seed: int
    positions: np.ndarray  # (D, 2) coordinates relative to the BS

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @functools.cached_property
    def profiles(self) -> tuple[DeviceProfile, ...]:
        """The devices as ``DeviceProfile``s, ids ``0..D-1``, built on first access."""
        return tuple(DeviceProfile(id=i, **row._asdict()) for i, row in enumerate(self.devices))


def channel_gain_from_distance(distance: float, delta: float = 2.0) -> float:
    """Inverse power-law gain for a device at the given BS distance (m).

    Path loss is flat inside the close-in reference distance, the usual
    guard against near-field singularities in cell-scale simulations.
    """
    if distance <= 0:
        raise ValueError(f"distance must be > 0, got {distance}")
    return max(distance, REFERENCE_DISTANCE) ** (-delta)


def _stratified_uniform(rng: np.random.Generator, n: int, lo: float,
                        hi: float) -> np.ndarray:
    """n uniform draws on [lo, hi], one per equal-width stratum, shuffled."""
    cells = rng.permutation(n)
    return lo + (cells + rng.random(n)) * (hi - lo) / n


def check_seed(seed) -> int:
    """``seed`` as a Python int; a non-integer raises TypeError, a negative one ValueError.

    A bool is not a seed: ``operator.index`` would take ``True`` as 1.
    """
    if isinstance(seed, bool):
        raise TypeError(f"seed must be an integer, not a bool ({seed!r})")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of SeedSequence's first ``count`` hash calls.

    Each call XORs with the running constant, advances it by ``mult`` and
    multiplies by the advanced one; the schedule does not depend on the
    entropy, so it is computed once.  Columns broadcast over devices.
    """
    xors, muls = [], []
    for _ in range(count):
        xors.append(init)
        init = (init * mult) & _MASK32
        muls.append(init)
    return (np.array(xors, dtype=np.uint32)[:, None],
            np.array(muls, dtype=np.uint32)[:, None])


def _hashmix(values: np.ndarray, xors: np.ndarray, muls: np.ndarray) -> np.ndarray:
    values = (values ^ xors) * muls
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _lcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
              inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 step, state * multiplier + inc mod 2**128, on 64-bit halves.

    The low halves' full 128-bit product is formed from 32-bit limbs, as
    numpy's emulated 128-bit path does; uint64 arithmetic wraps mod 2**64.
    """
    l0, l1 = lo & _MASK32, lo >> 32
    m0, m1 = _PCG_MULT_LO_LIMBS
    p00, p01, p10 = l0 * m0, l0 * m1, l1 * m0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    lo_product_hi = l1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _PCG_MULT_LO + inc_lo
    new_hi = lo_product_hi + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi
    return new_hi + (new_lo < inc_lo), new_lo


def _device_uniforms(seed: int, n: int) -> np.ndarray:
    """(n, 2) first two ``random()`` doubles of each device's position substream.

    Device ``i``'s values equal those of
    ``Generator(PCG64(SeedSequence([seed, 17, i]))).random(2)``, computed
    for all devices in one pass of array arithmetic.
    """
    seed = check_seed(seed)
    # SeedSequence splits an int into 32-bit words, least significant first
    words = [(seed >> shift) & _MASK32
             for shift in range(0, max(seed.bit_length(), 1), 32)]
    words.append(17)  # then the position key and the device index
    n_words = len(words) + 1
    entropy = np.zeros((max(n_words, _POOL_SIZE), n), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(n, dtype=np.uint32)

    # SeedSequence.mix_entropy: fill the pool, cross-mix every pair of
    # words, then fold any entropy words past the pool into every word
    n_extra = max(n_words - _POOL_SIZE, 0)
    xors, muls = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + n_extra))
    pool = _hashmix(entropy[:_POOL_SIZE], xors[:_POOL_SIZE], muls[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xors[k:k + 3], muls[k:k + 3]))
        k += 3
    for src in range(_POOL_SIZE, n_words):
        pool = _mix(pool, _hashmix(entropy[src], xors[k:k + _POOL_SIZE],
                                   muls[k:k + _POOL_SIZE]))
        k += _POOL_SIZE

    # generate_state(4, uint64): eight hashed words cycled from the pool,
    # paired little-endian into initstate (hi, lo) and initseq (hi, lo)
    xors, muls = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    state = _hashmix(np.concatenate([pool, pool]), xors, muls).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = state[0::2] | (state[1::2] << 32)

    # PCG64 seeding: inc = 2 * initseq + 1; from state 0 one step lands on
    # inc, then add initstate and step once more
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    lo = inc_lo + init_lo
    hi, lo = _lcg_step(inc_hi + init_hi + (lo < init_lo), lo, inc_hi, inc_lo)

    # each draw steps, then takes the XSL-RR output's top 53 bits
    uniforms = np.empty((n, 2))
    for j in range(2):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        folded, rot = hi ^ lo, hi >> 58
        out = (folded >> rot) | (folded << ((64 - rot) & 63))
        uniforms[:, j] = (out >> 11) * (1.0 / 9007199254740992.0)
    return uniforms


def generate_scenario(d_count: int, seed: int,
                      overrides: dict | None = None) -> Scenario:
    """Deterministically generate a scenario of ``d_count`` devices.

    ``overrides`` may set any SystemConfig field, any DeviceProfile field
    but ``id`` and ``channel_gain`` (applied to all devices), plus
    ``psi_range`` and ``path_loss_exponent``.
    """
    d_count = check_device_count(d_count, "d_count")
    overrides = parse_settings(overrides or {}, _OVERRIDE_TYPES, "override")
    psi_lo, psi_hi = overrides.pop("psi_range", DEFAULT_PSI_RANGE)
    if not 0 <= psi_lo <= psi_hi < np.inf:
        raise ValueError(f"psi_range must be finite with 0 <= lo <= hi, got {[psi_lo, psi_hi]}")
    delta = overrides.pop("path_loss_exponent", 2.0)
    if not 0 < delta < np.inf:
        raise ValueError(f"path_loss_exponent must be a finite number > 0, got {delta!r}")
    config = SystemConfig(**{k: v for k, v in overrides.items() if k in CONFIG_FIELD_TYPES})
    device_kwargs = {k: v for k, v in overrides.items() if k in DEVICE_OVERRIDE_TYPES}

    # Generator.uniform(low, high) draws low + (high - low) * random()
    low, high = -AREA_SIZE / 2, AREA_SIZE / 2
    positions = low + (high - low) * _device_uniforms(seed, d_count)
    positions.flags.writeable = False
    distances = np.hypot(positions[:, 0], positions[:, 1]).tolist()

    rng_psi = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 23])))
    psi = np.column_stack([_stratified_uniform(rng_psi, d_count, psi_lo, psi_hi)
                           for _ in range(3)])
    weights = device_kwargs.pop("maoi_weights", psi)

    # the gain stays a scalar call per device: numpy's array power rounds
    # differently from Python's float power on ~5% of inputs (exponents
    # 2, 2.5 and 3.3), so a vectorized gain moves 8-19 of 320 devices
    gains = np.array([channel_gain_from_distance(max(h, 1e-9), delta) for h in distances])
    devices = DeviceTable(d_count, channel_gain=gains, maoi_weights=weights,
                          **device_kwargs)
    return Scenario(devices=devices, config=config, seed=seed, positions=positions)


def with_audio_weight_increment(scenario: Scenario, increment: float) -> Scenario:
    """Additively raise every device's audio weight; other weights unchanged."""
    if increment < 0:
        raise ValueError(f"increment must be >= 0, got {increment}")
    columns = scenario.devices.columns
    weights = columns.maoi_weights.copy()
    weights[:, 1] += increment
    devices = DeviceTable(len(weights), **columns._replace(maoi_weights=weights)._asdict())
    return replace(scenario, devices=devices)


__all__ = ["Scenario", "generate_scenario", "channel_gain_from_distance", "check_seed",
           "DEVICE_OVERRIDE_TYPES", "GENERATOR_TYPES", "with_audio_weight_increment",
           "AREA_SIZE", "REFERENCE_DISTANCE", "DEFAULT_PSI_RANGE"]
