"""Per-update sensing and local computation energy of one device.

Sensing energy is charged once per update.  A device pays either the local
computation energy or the uplink transmission energy (transmit power times
transmission time), never both, selected by its offload flag;
``optimizer.ScenarioEvaluator`` combines the branches under an offload
pattern and divides by the sampling interval to get the average power draw
that the budget constrains.  Both models take one profile or the
``profile_columns`` of many devices.
"""

from __future__ import annotations

from .system_model import DeviceProfile, ProfileColumns, SystemConfig, compute_flops


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


def computation_energy(profile: DeviceProfile | ProfileColumns, config: SystemConfig):
    """Joules for local inference over all three modalities."""
    return config.energy_per_flop * compute_flops(profile, config).sum(axis=-1)


__all__ = ["sensing_energy", "computation_energy"]
