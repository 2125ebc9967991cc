"""Device/system parameters and the per-device time and sensing-energy models.

Every device senses three modalities per status update: an image frame, an
audio clip, and a frame-batched signal segment (e.g. radar).  Payload sizes
follow directly from the media parameters; processing cost is expressed in
FLOPs of a reference network per modality and scaled by the input size.
A population is a ``DeviceTable``: validated, read-only device columns,
which pass the same rule as a ``DeviceProfile``.  Every per-device model
takes one profile, one device of a table or the table's ``columns``, and
every per-modality model returns the three modalities as a trailing array
axis.  All quantities are SI (seconds, bits, watts, joules, FLOP/s).

Config documents and generator overrides go through one parser,
``parse_settings``, which reads each value by its field's declared type and
fails with a ``ValueError`` naming the field of a value it cannot read;
``parse_error_text`` puts a document's YAML or JSON syntax error in one line.
"""

from __future__ import annotations

import collections
import contextlib
import enum
import functools
import json
import math
import numbers
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml


class ModalityKind(enum.IntEnum):
    """The three sensing modalities, in their canonical order."""

    IMAGE = 1
    AUDIO = 2
    SIGNAL = 3


MODALITIES = (ModalityKind.IMAGE, ModalityKind.AUDIO, ModalityKind.SIGNAL)

#: Scheduling policies for the sequential local processor.
SCHEDULE_FIXED = "fixed"
SCHEDULE_BY_WEIGHT = "by_weight"


@functools.cache
def _int_fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.type == "int")


def _require(ok, message: str, *values) -> None:
    """Raise ``ValueError(message.format(*values))`` unless ``ok`` holds everywhere.

    ``ok`` and ``values`` are one device's or config's scalars, or columns
    over devices; for columns the message shows the first failing device's
    values.
    """
    if ok is True or np.all(ok):  # a Python check passes without a numpy call
        return
    if np.ndim(ok):
        first = int(np.argmin(ok))
        values = [np.asarray(v)[first].tolist() for v in values]
    raise ValueError(message.format(*values))


def _check_integers(obj, names) -> None:
    """Fields ``names`` of ``obj`` hold whole numbers.

    YAML reads 300.0 as a float, which is taken; a fractional value is not,
    because the models use these fields as counts and sizes.
    """
    for name in names:
        value = getattr(obj, name)
        _require(value % 1 == 0, f"{name} must be an integer, got {{}}", value)


def _store_integers(obj) -> None:
    """Store every ``int`` field of dataclass ``obj`` as an ``int``."""
    for name in _int_fields(type(obj)):
        value = getattr(obj, name)
        if type(value) is not int:
            object.__setattr__(obj, name, int(value))


@dataclass(frozen=True)
class DeviceProfile:
    """Per-device physical, media, energy and age-weight parameters."""

    id: int
    # image
    img_height: int = 224
    img_width: int = 224
    img_channels: int = 3
    # audio
    aud_duration: float = 2.0          # s
    aud_rate: float = 16_000.0         # Hz
    aud_bit_depth: int = 16
    aud_channels: int = 1
    # signal
    sig_duration: float = 3.0          # s
    sig_frame_rate: float = 80.0       # frames/s
    sig_points_per_frame: int = 64
    sig_features_per_point: int = 4
    sig_bits_per_feature: int = 16
    sig_rate: float = 80.0             # Hz
    sig_bit_depth: int = 16
    # radio
    tx_power: float = 0.1              # W
    channel_gain: float = 1e-2
    # sensing energy
    cam_overhead_energy: float = 5e-3  # J per capture
    per_pixel_energy: float = 15e-12   # J/pixel
    aud_baseline_power: float = 8e-3   # W
    adc_scaling: float = 1e-8
    sig_active_power: float = 50e-3    # W
    # age weights and budget
    maoi_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    energy_budget: float = 1.0         # J/s

    def __post_init__(self) -> None:
        if not self.id >= 0:
            raise ValueError(f"device id must be >= 0, got {self.id}")
        _check_integers(self, ("id",))
        _check_devices(self)
        object.__setattr__(self, "maoi_weights", tuple(float(w) for w in self.maoi_weights))
        _store_integers(self)


@dataclass(frozen=True)
class SystemConfig:
    """Cell-wide constants and solver settings.

    ``schedule_policy`` orders the local processor: ``fixed`` serves image,
    audio, signal (``MODALITIES``), ``by_weight`` the higher weights first.
    """

    bandwidth: float = 1e6             # Hz
    noise_power: float = 1e-13         # W (-100 dBm)
    f_local: float = 1e9               # FLOP/s
    f_edge: float = 1e10               # FLOP/s
    energy_per_flop: float = 1e-9      # J/FLOP
    resnet_base_flops: float = 4e9     # at 224x224
    ds2_base_flops_per_sec: float = 5e9
    tft_base_flops: float = 0.45e9     # at tft_base_len frames
    tft_base_len: int = 200
    event_rates: tuple[float, float, float] = (0.8, 0.8, 0.8)  # 1/s
    tau_min: float = 2.0               # s
    capacity_threshold: float = 6e6    # bits of offloaded payload the cell admits
    lagrange_step: float = 0.01
    convergence_eps: float = 1e-3
    schedule_policy: str = SCHEDULE_FIXED
    # outer-loop settings
    max_outer_iters: int = 40_000
    energy_tol: float = 0.05           # relative slack on the energy budget at convergence
    mu_init: float = 0.1

    def __post_init__(self) -> None:
        if not (self.f_edge >= self.f_local > 0):
            raise ValueError("need f_edge >= f_local > 0")
        for name in ("bandwidth", "noise_power", "energy_per_flop",
                     "resnet_base_flops", "ds2_base_flops_per_sec",
                     "tft_base_flops", "tft_base_len", "tau_min",
                     "capacity_threshold", "lagrange_step", "convergence_eps",
                     "max_outer_iters"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        _check_integers(self, _int_fields(SystemConfig))
        _store_integers(self)
        for name in ("energy_tol", "mu_init"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        rates = tuple(float(lam) for lam in self.event_rates)
        if len(rates) != 3 or not all(lam > 0 for lam in rates):
            raise ValueError(f"event_rates must be 3 positive values, got {self.event_rates}")
        object.__setattr__(self, "event_rates", rates)
        if self.schedule_policy not in (SCHEDULE_FIXED, SCHEDULE_BY_WEIGHT):
            raise ValueError(f"unknown schedule_policy {self.schedule_policy!r}")
        # a solve runs at an infinite bandwidth, f_edge, capacity_threshold,
        # convergence_eps or energy_tol, and at no other infinite number
        for name in ("noise_power", "f_local", "energy_per_flop", "resnet_base_flops",
                     "ds2_base_flops_per_sec", "tft_base_flops", "event_rates", "tau_min",
                     "lagrange_step", "mu_init"):
            value = getattr(self, name)
            if not max(value if name == "event_rates" else (value,)) < math.inf:
                raise ValueError(f"{name} must be finite, got {value}")


_SCALAR_COLUMNS = tuple(f.name for f in fields(DeviceProfile)
                        if f.name not in ("id", "maoi_weights"))
_INT_COLUMNS = tuple(name for name in _int_fields(DeviceProfile) if name != "id")

#: Every ``DeviceProfile`` field but ``id``, one array over the devices each.
ProfileColumns = collections.namedtuple(
    "ProfileColumns", _SCALAR_COLUMNS + ("maoi_weights",))
ProfileColumns.__doc__ = """Device fields as read-only ``(D,)`` arrays, ``maoi_weights`` as ``(D, 3)``.

The attribute names are the ``DeviceProfile`` field names, so every
per-device formula below takes either one profile or the columns of many.
Every column holds floats: the models multiply the ``int`` fields into
counts and sizes, which floats hold exactly below 2**53, as Python's
integers do.  A ``DeviceTable`` yields one device's fields as a
``ProfileColumns`` of Python scalars.
"""


def _check_devices(devices: DeviceProfile | ProfileColumns) -> None:
    """The device rule, over one ``DeviceProfile`` or ``ProfileColumns``.

    A column may be one value shared by every device or an array over the
    devices (``maoi_weights``: three values, or ``(D, 3)``).  Every scalar
    field is a positive quantity, the weights are three values >= 0, the
    ``int`` fields are whole, the audio clip holds a whole sample count and
    the signal a finite frame count.  Every value is finite, and NaN
    fails every check.
    """
    for name in _SCALAR_COLUMNS:
        value = getattr(devices, name)
        _require(value > 0, f"{name} must be > 0, got {{}}", value)
    weights = np.asarray(devices.maoi_weights, dtype=float)
    valid = weights.shape[-1:] == (3,) and (weights >= 0).all(axis=-1)
    _require(valid, "maoi_weights must be 3 values >= 0, got {}",
             devices.maoi_weights if weights.ndim < 2 else weights)
    # an infinite value makes ``% 1`` and the rounding error NaN, which fails
    with np.errstate(invalid="ignore"):
        _check_integers(devices, _INT_COLUMNS)
        samples = devices.aud_duration * devices.aud_rate
        _require(abs(samples - np.round(samples)) <= 1e-6 * np.maximum(1.0, samples),
                 "aud_duration*aud_rate = {} is not an integer sample count", samples)
    frames = devices.sig_frame_rate * devices.sig_duration
    _require(np.isfinite(frames),
             "sig_frame_rate*sig_duration = {} is not a finite frame count", frames)
    # infinity passes every check above, and no solve can run on it
    for name in _SCALAR_COLUMNS:
        value = getattr(devices, name)
        _require(value < math.inf, f"{name} must be finite, got {{}}", value)
    _require((weights < math.inf).all(axis=-1), "maoi_weights must be finite, got {}",
             devices.maoi_weights if weights.ndim < 2 else weights)


def check_device_count(count, name: str = "n_devices") -> int:
    """``count`` as a Python int; anything but an integer >= 1 raises ValueError naming it."""
    if isinstance(count, bool) or not (isinstance(count, numbers.Integral) and count >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    return int(count)


#: The value every device takes for a field a ``DeviceTable`` is not given.
_COLUMN_DEFAULTS = {f.name: f.default for f in fields(DeviceProfile) if f.name != "id"}


class DeviceTable:
    """A device population as validated, read-only columns.

    The scenario's and the evaluator's input.  ``columns`` holds the
    ``ProfileColumns`` of the devices and ``len()`` is their count.  Each
    keyword is a ``DeviceProfile`` field but ``id``: one value that every
    device shares (checked once, so an error reads as ``DeviceProfile``'s)
    or one per device, a ``(D,)`` array or ``(D, 3)`` for ``maoi_weights``;
    a value of another shape raises a ``ValueError`` naming its field and
    ``n_devices``.  A field not given takes ``DeviceProfile``'s default.
    Every table passes the rule ``DeviceProfile`` checks.

    Iterating yields each device's fields as a ``ProfileColumns`` of Python
    scalars, which every per-device model takes as it takes a profile.
    """

    __slots__ = ("columns",)

    def __init__(self, n_devices: int, **values) -> None:
        n_devices = check_device_count(n_devices)
        given = ProfileColumns(**{**_COLUMN_DEFAULTS, **values})
        for name, value in given._asdict().items():
            one = (3,) if name == "maoi_weights" else ()
            # a Python number is one value, and np.shape takes ~2 us to say so
            shape = () if isinstance(value, (int, float)) else np.shape(value)
            if shape not in (one, (n_devices, *one)):
                raise ValueError(f"{name} must have shape {one} or {(n_devices, *one)} "
                                 f"(n_devices = {n_devices}), got {shape}")
        _check_devices(given)
        # one block, so each column is a contiguous row of it
        block = np.empty((len(_SCALAR_COLUMNS), n_devices))
        for row, value in zip(block, given):
            row[...] = value
        weights = np.empty((n_devices, 3))
        weights[...] = given.maoi_weights
        for arr in (block, weights):
            arr.flags.writeable = False  # the row views below inherit this
        self.columns = ProfileColumns(*block, weights)

    def __len__(self) -> int:
        return len(self.columns.maoi_weights)

    def __iter__(self) -> Iterator[ProfileColumns]:
        *scalars, weights = self.columns
        rows = zip(*(col.tolist() for col in scalars), map(tuple, weights.tolist()))
        return map(ProfileColumns._make, rows)


def as_device_table(devices: DeviceTable | Sequence[DeviceProfile]) -> DeviceTable:
    """``devices`` as a ``DeviceTable``: a table as it is, profiles read into one."""
    if isinstance(devices, DeviceTable):
        return devices
    return DeviceTable(len(devices), **{
        name: np.array([getattr(p, name) for p in devices], dtype=float)
        for name in ProfileColumns._fields})


# ---------------------------------------------------------------------------
# per-modality models
#
# Each takes one ``DeviceProfile`` or the ``ProfileColumns`` of many devices
# and returns the three modalities in one call, as a trailing axis in
# ``MODALITIES`` order: shape ``(3,)`` for a profile, ``(D, 3)`` for columns.
# A device gets the same bits either way.

def _by_modality(image, audio, signal) -> np.ndarray:
    """The three modalities' values, which share one shape, along a new last axis."""
    # one array and a transpose: ~1 us for a profile, where np.stack takes ~6 us
    return np.ascontiguousarray(np.array([image, audio, signal], dtype=float).T)


def _signal_frames(profile: DeviceProfile | ProfileColumns):
    """Signal frames per update, truncated toward zero: a partial frame is not emitted."""
    return np.trunc(profile.sig_frame_rate * profile.sig_duration)


def _payload_terms(profile: DeviceProfile | ProfileColumns):
    """Image, audio and signal payload of one update, in bits."""
    return (profile.img_height * profile.img_width * profile.img_channels * 8.0,
            profile.aud_duration * profile.aud_rate * profile.aud_channels * profile.aud_bit_depth,
            _signal_frames(profile) * profile.sig_points_per_frame
            * profile.sig_features_per_point * profile.sig_bits_per_feature)


def total_data_bits(profile: DeviceProfile | ProfileColumns):
    """Total uplink payload of one full status update (all three modalities)."""
    # left to right, as numpy sums a row of three, without building the row
    image, audio, signal = _payload_terms(profile)
    return image + audio + signal


def compute_flops(profile: DeviceProfile | ProfileColumns, config: SystemConfig,
                  ) -> np.ndarray:
    """Inference cost of one update of each modality, scaled from its baseline.

    Image cost scales with pixel area, audio cost with clip duration, and
    signal cost quadratically with the frame count (self-attention).
    Dividing by ``config.f_local`` or ``config.f_edge`` gives the compute
    time on the device or at the edge.
    """
    ratio = _signal_frames(profile) / config.tft_base_len
    # numpy squares an array by multiplying but a scalar through libm's pow,
    # which misrounds ~0.1% of squares by one ulp; the product is the
    # correctly rounded square for a profile and for columns alike
    return _by_modality(
        config.resnet_base_flops * ((profile.img_width * profile.img_height) / (224.0 * 224.0)),
        config.ds2_base_flops_per_sec * profile.aud_duration,
        config.tft_base_flops * (ratio * ratio))


def sensing_time(profile: DeviceProfile | ProfileColumns) -> np.ndarray:
    """Acquisition time: zero for a camera shot, clip/segment duration otherwise."""
    return _by_modality(np.zeros_like(profile.sig_duration), profile.aud_duration,
                        profile.sig_duration)


def sensing_energy(profile: DeviceProfile | ProfileColumns):
    """Joules spent acquiring one full update (camera + ADC + radar-on time)."""
    e_img = (profile.cam_overhead_energy
             + profile.per_pixel_energy
             * (profile.img_height * profile.img_width * profile.img_channels))
    e_aud = ((profile.aud_baseline_power
              + profile.adc_scaling * profile.aud_rate
              * profile.aud_bit_depth * profile.aud_channels)
             * profile.aud_duration)
    e_sig = profile.sig_active_power * profile.sig_duration
    return e_img + e_aud + e_sig


def served_ahead(profile: DeviceProfile | ProfileColumns, config: SystemConfig,
                 ) -> np.ndarray:
    """Which modalities the local processor serves ahead of which.

    ``ahead[..., m, k]`` is true when modality ``k`` is served before ``m``.
    The ``fixed`` policy serves image, audio, signal (``MODALITIES``), one
    ``(3, 3)`` mask for every device; ``by_weight`` serves each device's
    higher-weight modalities first, ties in that order, ``(..., 3, 3)``.
    """
    in_order = np.tri(3, k=-1, dtype=bool)
    if config.schedule_policy == SCHEDULE_FIXED:
        return in_order
    w = np.asarray(profile.maoi_weights)
    w_m, w_k = w[..., :, None], w[..., None, :]
    return (w_k > w_m) | ((w_k == w_m) & in_order)


def local_waiting_time(t_local_compute: np.ndarray, ahead: np.ndarray) -> np.ndarray:
    """Queueing delay of each modality on the sequential local processor.

    Sums the local compute times ``t_local_compute`` (modalities on the
    last axis) of every modality that the ``served_ahead`` mask ``ahead``
    serves first.  Adding an exact zero changes no bits, and the sum runs
    in modality order over at most two nonzero terms, whose two orders
    give the same bits, so every device's own order is served.
    """
    return np.where(ahead, t_local_compute[..., None, :], 0.0).sum(axis=-1)


# ---------------------------------------------------------------------------
# configuration documents

#: Declared type of every field, as its annotation reads.
CONFIG_FIELD_TYPES = {f.name: f.type for f in fields(SystemConfig)}
PROFILE_FIELD_TYPES = {f.name: f.type for f in fields(DeviceProfile)}

_EXPECTED = {"float": "a number", "int": "a number", "str": "a string",
             "list[str]": "a list of strings"}


def _parse_value(key: str, kind: str, value):
    """``value`` as field ``key`` of declared type ``kind`` takes it."""
    if kind.startswith("tuple["):
        kinds = kind[len("tuple["):-1].split(", ")
        if isinstance(value, (list, tuple, np.ndarray)) and len(value) == len(kinds):
            return tuple(_parse_value(key, k, v) for k, v in zip(kinds, value))
        raise ValueError(f"{key}: expected a list of {len(kinds)} values, got {value!r}")
    if kind in ("float", "int"):
        # YAML reads on/yes/true as True, which Python would count as 1
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return value
        if isinstance(value, str):
            with contextlib.suppress(ValueError):
                return float(value)
    elif kind == "str" and isinstance(value, str):
        return value
    elif kind == "list[str]" and isinstance(value, list) \
            and all(isinstance(v, str) for v in value):
        return value
    raise ValueError(f"{key}: expected {_EXPECTED.get(kind, kind)}, got {value!r}")


def parse_settings(doc: Mapping, kinds: Mapping[str, str], what: str) -> dict:
    """``doc``'s settings, each read by its declared type in ``kinds``.

    A number is a real or a numeric string (YAML 1.1 reads ``3e7`` as one)
    but not a boolean, a tuple a list of exactly its length, a ``list[str]``
    a list of strings.  A key not in ``kinds`` raises
    ``ValueError("unknown <what> fields: ...")``, a value of another shape
    ``ValueError("<field>: ...")``.
    """
    unknown = doc.keys() - kinds.keys()
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown, key=str)}")
    return {key: _parse_value(key, kinds[key], value) for key, value in doc.items()}


def parse_error_text(exc: Exception) -> str:
    """A YAML or JSON parse error in one line: ``line L, column C: <problem>``."""
    if isinstance(exc, json.JSONDecodeError):
        return f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
    mark = getattr(exc, "problem_mark", None)
    if mark is None:  # no position: the first of PyYAML's lines
        return str(exc).partition("\n")[0]
    return f"line {mark.line + 1}, column {mark.column + 1}: {exc.problem}"


def config_from_mapping(doc: Mapping) -> SystemConfig:
    """Build a SystemConfig from the ``system`` section of a config document."""
    return SystemConfig(**parse_settings(doc, CONFIG_FIELD_TYPES, "system config"))


def profile_from_mapping(doc: Mapping) -> DeviceProfile:
    """Build a DeviceProfile from one device section of a config document."""
    return DeviceProfile(**parse_settings(doc, PROFILE_FIELD_TYPES, "device"))


def load_config_document(path: str | Path) -> tuple[DeviceTable, SystemConfig]:
    """A YAML or JSON document's devices, a table in document order, and system config.

    The document holds one ``system`` section plus a ``devices`` list with
    one section per device; field names match the dataclass fields, and
    each device passes as a ``DeviceProfile`` whose id no other repeats.  An
    error names the file and the section, ``system`` or ``devices[i]``, or
    calls the file a ``malformed document``.
    """
    path = Path(path)
    parse = json.loads if path.suffix.lower() == ".json" else yaml.safe_load
    try:
        doc = parse(path.read_text())
    except (ValueError, yaml.YAMLError) as exc:  # a JSONDecodeError is a ValueError
        raise ValueError(f"{path}: malformed document: {parse_error_text(exc)}") from None
    if not isinstance(doc, dict) or "system" not in doc or "devices" not in doc:
        raise ValueError(f"{path}: expected a mapping with 'system' and 'devices' sections")
    if not isinstance(doc["system"], dict):
        raise ValueError(f"{path}: 'system' must be a mapping")
    if not (isinstance(doc["devices"], list)
            and all(isinstance(d, dict) for d in doc["devices"])):
        raise ValueError(f"{path}: 'devices' must be a list of mappings")
    if not doc["devices"]:
        raise ValueError(f"{path}: 'devices' lists no device")
    where = "system"
    try:
        config = config_from_mapping(doc["system"])
        profiles: dict[int, DeviceProfile] = {}
        for i, entry in enumerate(doc["devices"]):
            where = f"devices[{i}]"
            profile = profile_from_mapping(entry)
            if profile.id in profiles:
                raise ValueError(f"duplicate device id {profile.id}")
            profiles[profile.id] = profile
    except ValueError as exc:
        raise ValueError(f"{path}: {where}: {exc}") from None
    return as_device_table(list(profiles.values())), config


__all__ = [
    "ModalityKind", "MODALITIES", "SCHEDULE_FIXED", "SCHEDULE_BY_WEIGHT",
    "DeviceProfile", "SystemConfig", "ProfileColumns",
    "DeviceTable", "as_device_table", "check_device_count",
    "total_data_bits",
    "compute_flops", "sensing_time", "sensing_energy", "served_ahead",
    "local_waiting_time", "CONFIG_FIELD_TYPES", "PROFILE_FIELD_TYPES", "parse_settings",
    "config_from_mapping", "profile_from_mapping", "load_config_document",
    "parse_error_text",
]
