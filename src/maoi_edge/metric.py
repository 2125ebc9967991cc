"""Modality-tailored age metric: content attributes, growth model, closed forms.

The age of an update grows at slope 1 while nothing interesting happens and
at slope ``1 + psi`` whenever at least one content event (Poisson, rate
``lambda_s``) fell inside the sampling interval.  The modality weight
``psi`` aggregates content attributes extracted from the raw frames:

* image:  pixel-difference dynamism + region-of-interest ratio,
* audio:  semantic frame variation + (normalized) rate-times-depth quality,
* signal: descriptor dynamics + (normalized) rate-times-depth quality.

Weights may be supplied directly (the optimizer only ever consumes the
numbers) or extracted from frame sequences by ``extract_weights``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .system_model import DeviceProfile

OBJECTIVE_MAOI = "maoi"
OBJECTIVE_AOI = "aoi"
OBJECTIVES = (OBJECTIVE_MAOI, OBJECTIVE_AOI)


# ---------------------------------------------------------------------------
# content attributes

def _as_frames(frames: Sequence) -> list[np.ndarray]:
    out = [np.asarray(f, dtype=float) for f in frames]
    if len(out) < 2:
        raise ValueError(f"need at least 2 frames, got {len(out)}")
    shape = out[0].shape
    for i, f in enumerate(out):
        if f.shape != shape:
            raise ValueError(f"frame {i} has shape {f.shape}, expected {shape}")
    return out


def _mean_abs_change(frames: Sequence) -> float:
    fs = _as_frames(frames)
    diffs = [np.abs(a - b).mean() for a, b in zip(fs[1:], fs[:-1])]
    return float(np.mean(diffs))


def image_dynamism(frames: Sequence) -> float:
    """Mean absolute pixel difference, averaged over consecutive frame pairs."""
    return _mean_abs_change(frames)


def roi_ratio(roi_area: float, total_area: float) -> float:
    """Fraction of the frame covered by regions of interest."""
    if total_area <= 0:
        raise ValueError(f"total_area must be > 0, got {total_area}")
    if not 0 <= roi_area <= total_area:
        raise ValueError(f"roi_area {roi_area} outside [0, {total_area}]")
    return roi_area / total_area


def audio_semantic_variation(frames: Sequence) -> float:
    """Mean absolute feature change between consecutive audio frames."""
    return _mean_abs_change(frames)


def signal_dynamics(frames: Sequence) -> float:
    """Mean squared difference between consecutive frame descriptors.

    Each frame is a point set of shape ``(n_points, n_features)``; its
    descriptor is the per-feature mean over detected points.
    """
    if len(frames) < 2:
        raise ValueError(f"need at least 2 frames, got {len(frames)}")
    descriptors = []
    for i, frame in enumerate(frames):
        pts = np.asarray(frame, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"frame {i} must be 2-D (points x features), got ndim={pts.ndim}")
        if pts.shape[0] == 0:
            raise ValueError(f"frame {i} has no detected points")
        descriptors.append(pts.mean(axis=0))
    z = np.stack(descriptors)
    if z.shape[1] == 0:
        raise ValueError("frames carry no features")
    return float(np.mean((z[1:] - z[:-1]) ** 2))


#: Reference rate-times-depth products that scale the quality terms to O(1):
#: 16 kHz, 16-bit audio and 80 Hz, 16-bit signal read 1.
AUDIO_QUALITY_REF = 16_000.0 * 16.0
SIGNAL_QUALITY_REF = 80.0 * 16.0


def quality_terms(profile: DeviceProfile) -> tuple[float, float]:
    """Audio and signal acquisition-quality attributes (rate x bit depth)."""
    q_aud = (profile.aud_rate * profile.aud_bit_depth) / AUDIO_QUALITY_REF
    q_sig = (profile.sig_rate * profile.sig_bit_depth) / SIGNAL_QUALITY_REF
    return q_aud, q_sig


def extract_weights(profile: DeviceProfile,
                    image_frames: Sequence,
                    roi_area: float,
                    audio_frames: Sequence,
                    signal_frames: Sequence,
                    ) -> tuple[float, float, float]:
    """The ``(image, audio, signal)`` weights, as ``DeviceProfile(maoi_weights=...)`` takes them."""
    total_area = float(profile.img_height * profile.img_width)
    psi_img = image_dynamism(image_frames) + roi_ratio(roi_area, total_area)
    q_aud, q_sig = quality_terms(profile)
    psi_aud = q_aud + audio_semantic_variation(audio_frames)
    psi_sig = signal_dynamics(signal_frames) + q_sig
    return psi_img, psi_aud, psi_sig


# ---------------------------------------------------------------------------
# growth model and closed-form averages

def event_factors(psi, lam, tau):
    """Expected growth rate phi = 1 + psi * P(at least one event in tau).

    The package's only form of the growth model: the solvers' costs and
    slopes, the baselines and the oracle validation table all call it.
    Broadcasts over its arguments.
    """
    return 1.0 + psi * (1.0 - np.exp(-lam * tau))


def avg_maoi_modality(psi, lam, tau, t_sys):
    """Long-run average modality age for interval ``tau`` and system time ``t_sys``.

    Broadcasts like ``event_factors``.  With ``psi = 0`` this reduces to the
    classical sawtooth average ``tau/2 + t_sys``.
    """
    return event_factors(psi, lam, tau) * (0.5 * tau + t_sys)


def modality_sum(planes):
    """Sum over the leading modality axis of ``planes``, written ``(s0 + s1) + s2``.

    The package's one order for a sum over the three modalities: every
    weighted age, slope and event-factor sum adds its image, audio and
    signal planes in this order.  It is the order numpy's ``sum`` takes
    over a trailing length-3 axis, so both layouts give the same bits.
    """
    return (planes[0] + planes[1]) + planes[2]


__all__ = [
    "OBJECTIVE_MAOI", "OBJECTIVE_AOI", "OBJECTIVES",
    "image_dynamism", "roi_ratio", "audio_semantic_variation", "signal_dynamics",
    "AUDIO_QUALITY_REF", "SIGNAL_QUALITY_REF", "quality_terms", "extract_weights",
    "event_factors", "avg_maoi_modality", "modality_sum",
]
