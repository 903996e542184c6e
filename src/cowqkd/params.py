"""Physical and protocol parameters of the coherent-one-way link.

Every other module consumes a validated :class:`SystemParams`; all values are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Variant(Enum):
    """Receiver basis-choice setup: fixed beam-splitter or optical switch."""

    PASSIVE = "passive"
    ACTIVE = "active"


class ParameterError(ValueError):
    """Raised when a physical or protocol parameter is out of range."""


@dataclass(frozen=True)
class SystemParams:
    """All knobs of the link model.

    Attributes:
        L_km: fiber length in kilometers, >= 0.
        p_d: dark-count probability per detector per gated slot, in [0, 1).
        eta_d: detector efficiency, in (0, 1].
        e_a: misalignment error, in [0, 0.5).
        f_ec: error-correction efficiency, >= 1.
        mu: mean photon number of a non-empty pulse, > 0.
        t_B: data-line routing coefficient, in (0, 1) exclusive.  Beam-splitter
            transmittance for the passive variant, data-line selection
            probability for the active one.
        variant: basis-choice variant (accepts "passive"/"active" strings).
        atten_db_per_km: fiber attenuation in dB/km, default 0.2.
    """

    L_km: float
    p_d: float
    eta_d: float
    e_a: float
    f_ec: float
    mu: float
    t_B: float
    variant: Variant = Variant.PASSIVE
    atten_db_per_km: float = 0.2

    def __post_init__(self) -> None:
        if isinstance(self.variant, str):
            try:
                object.__setattr__(self, "variant", Variant(self.variant.lower()))
            except ValueError:
                raise ParameterError(
                    f"variant must be 'passive' or 'active', got {self.variant!r}"
                ) from None
        if not isinstance(self.variant, Variant):
            raise ParameterError(f"variant must be a Variant, got {self.variant!r}")

        checks = [
            ("L_km", self.L_km, 0.0 <= self.L_km and math.isfinite(self.L_km), ">= 0"),
            ("atten_db_per_km", self.atten_db_per_km,
             0.0 <= self.atten_db_per_km and math.isfinite(self.atten_db_per_km), ">= 0"),
            ("p_d", self.p_d, 0.0 <= self.p_d < 1.0, "in [0, 1)"),
            ("eta_d", self.eta_d, 0.0 < self.eta_d <= 1.0, "in (0, 1]"),
            ("e_a", self.e_a, 0.0 <= self.e_a < 0.5, "in [0, 0.5)"),
            ("f_ec", self.f_ec, self.f_ec >= 1.0 and math.isfinite(self.f_ec), ">= 1"),
            ("mu", self.mu, 0.0 < self.mu and math.isfinite(self.mu), "> 0"),
            ("t_B", self.t_B, 0.0 < self.t_B < 1.0, "in (0, 1)"),
        ]
        for name, value, ok, rng in checks:
            if not ok:
                raise ParameterError(f"{name} must be {rng}, got {value!r}")


def channel_transmittance(params: SystemParams) -> float:
    """Fiber transmittance 10^(-atten * L / 10)."""
    return _fiber_transmittance(params.L_km, params.atten_db_per_km)


def _fiber_transmittance(L_km: float, atten_db_per_km: float) -> float:
    """channel_transmittance on validated floats, for a scan's distances."""
    return 10.0 ** (-atten_db_per_km * L_km / 10.0)


def total_transmittance(params: SystemParams) -> float:
    """Channel transmittance times detector efficiency.

    This is the single loss factor that enters every closed-form gain:
    for threshold detectors the detector efficiency commutes with linear
    channel loss, so the two compose into one factor.
    """
    return channel_transmittance(params) * params.eta_d
