"""Hardware configuration bundles.

A :class:`HardwareConfig` fully describes one simulated AMC deployment:
op-amp non-idealities, data-converter resolutions, sample-and-hold
behaviour, the device programming pipeline, and the interconnect model.
Factory methods reproduce the configurations used by the paper's
experiments so benches read like the evaluation section:

- :meth:`HardwareConfig.ideal` — everything perfect (sanity baseline);
- :meth:`HardwareConfig.paper_ideal_mapping` — Fig. 6: perfect
  programming but realistic finite-gain op-amps and converters;
- :meth:`HardwareConfig.paper_variation` — Figs. 7/8: plus Gaussian
  conductance variation, sigma = 0.05 * G0;
- :meth:`HardwareConfig.paper_interconnect` — Fig. 9: plus 1 ohm/segment
  wire resistance.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

from repro.crossbar.array import ProgrammingConfig
from repro.crossbar.parasitics import ParasiticConfig
from repro.devices.models import PAPER_G0_SIEMENS
from repro.devices.variations import RelativeGaussianVariation
from repro.utils.validation import check_positive


def _content_signature(value):
    """Canonical, hashable signature of a configuration value.

    Dataclasses flatten field by field; objects exposing ``signature()``
    (the variation models) delegate to it; scalars pass through. The
    fallback is ``repr`` so exotic values still produce *some* stable
    key rather than failing — at worst two configs that repr identically
    share a key, which for frozen config objects means they are equal.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple((f.name, _content_signature(getattr(value, f.name))) for f in fields(value)),
        )
    if hasattr(value, "signature") and callable(value.signature):
        return value.signature()
    if isinstance(value, (bool, int, float, str, type(None))):
        return value
    return repr(value)


@dataclass(frozen=True)
class OpAmpConfig:
    """Operational amplifier model.

    Parameters
    ----------
    open_loop_gain:
        DC open-loop gain ``A0`` (``math.inf`` for an ideal op-amp). The
        default 10^4 (80 dB) is typical of wide-band CMOS OPAs at 45 nm.
    gbwp_hz:
        Gain-bandwidth product (hertz), sets settling time.
    v_sat:
        Output saturation (volts); outputs clip to ``+-v_sat``.
        ``math.inf`` disables clipping.
    input_offset_sigma_v:
        Standard deviation of the random input-referred offset voltage
        (volts). The offset error is multiplied by the amplifier's noise
        gain — one plus the total conductance loading its summing node —
        so it grows with array size, which is the dominant reason the
        paper's *ideal-mapping* accuracy (Fig. 6c) still degrades with
        size and improves under partitioning.
    output_noise_sigma_v:
        Standard deviation of additive output-referred noise per
        operation (volts) — integrated thermal/amplifier noise over the
        settling window. Zero by default (the paper's analysis is
        noise-free); sampled fresh on every operation, unlike offsets
        which are fixed per amplifier.
    supply_voltage:
        Supply ``Vs`` for the power estimate of the paper's Eq. 7.
    quiescent_current:
        Quiescent current ``Iq`` per op-amp (amps), Eq. 7.
    """

    open_loop_gain: float = 1e4
    gbwp_hz: float = 100e6
    v_sat: float = math.inf
    input_offset_sigma_v: float = 0.25e-3
    output_noise_sigma_v: float = 0.0
    supply_voltage: float = 1.2
    quiescent_current: float = 11e-6

    def __post_init__(self):
        check_positive(self.open_loop_gain, "open_loop_gain", allow_inf=True)
        check_positive(self.gbwp_hz, "gbwp_hz")
        check_positive(self.v_sat, "v_sat", allow_inf=True)
        if self.input_offset_sigma_v < 0.0:
            raise ValueError(
                f"input_offset_sigma_v must be >= 0, got {self.input_offset_sigma_v}"
            )
        if self.output_noise_sigma_v < 0.0:
            raise ValueError(
                f"output_noise_sigma_v must be >= 0, got {self.output_noise_sigma_v}"
            )
        check_positive(self.supply_voltage, "supply_voltage")
        check_positive(self.quiescent_current, "quiescent_current")

    @property
    def is_ideal(self) -> bool:
        """True when gain is infinite with no clipping, offset, or noise."""
        return (
            math.isinf(self.open_loop_gain)
            and math.isinf(self.v_sat)
            and self.input_offset_sigma_v == 0.0
            and self.output_noise_sigma_v == 0.0
        )

    @property
    def static_power(self) -> float:
        """Per-op-amp static power ``Vs * Iq`` (watts), Eq. 7 with N = 1."""
        return self.supply_voltage * self.quiescent_current


@dataclass(frozen=True)
class ConverterConfig:
    """DAC/ADC interface resolutions and full-scale range.

    ``None`` bits model an ideal (transparent) converter. The 12-bit
    default keeps converter quantization (~2.4e-4 of full scale) well
    below the analog error sources the paper studies; the quantization
    ablation bench sweeps this down to 4 bits.
    """

    dac_bits: int | None = 12
    adc_bits: int | None = 12
    v_fs: float = 1.0

    def __post_init__(self):
        check_positive(self.v_fs, "v_fs")
        for label, bits in (("dac_bits", self.dac_bits), ("adc_bits", self.adc_bits)):
            if bits is not None and bits < 1:
                raise ValueError(f"{label} must be >= 1 or None, got {bits}")

    @classmethod
    def ideal(cls) -> "ConverterConfig":
        """Transparent converters."""
        return cls(dac_bits=None, adc_bits=None)


@dataclass(frozen=True)
class SampleHoldConfig:
    """Sample-and-hold buffer model.

    The macro's S&H banks convey analog intermediates between cascaded
    operations; they contribute a (small) gain error and sampled noise.
    """

    gain_error: float = 0.0
    noise_sigma_v: float = 0.0

    def __post_init__(self):
        if abs(self.gain_error) >= 1.0:
            raise ValueError(f"|gain_error| must be < 1, got {self.gain_error}")
        if self.noise_sigma_v < 0.0:
            raise ValueError(f"noise_sigma_v must be >= 0, got {self.noise_sigma_v}")


@dataclass(frozen=True)
class HardwareConfig:
    """Complete description of one simulated AMC hardware deployment."""

    opamp: OpAmpConfig = field(default_factory=OpAmpConfig)
    converters: ConverterConfig = field(default_factory=ConverterConfig)
    sample_hold: SampleHoldConfig = field(default_factory=SampleHoldConfig)
    programming: ProgrammingConfig = field(default_factory=ProgrammingConfig.ideal)
    parasitics: ParasiticConfig = field(default_factory=ParasiticConfig.ideal)
    g_unit: float = PAPER_G0_SIEMENS
    use_mna: bool = False
    """Route operations through the full MNA netlist instead of the fast
    algebraic model (slow; for validation)."""

    def __post_init__(self):
        check_positive(self.g_unit, "g_unit")

    # ------------------------------------------------------------------
    # factory configurations used by the paper's experiments
    # ------------------------------------------------------------------
    @classmethod
    def ideal(cls) -> "HardwareConfig":
        """Mathematically perfect hardware (solver sanity baseline)."""
        return cls(
            opamp=OpAmpConfig(open_loop_gain=math.inf, input_offset_sigma_v=0.0),
            converters=ConverterConfig.ideal(),
        )

    @classmethod
    def paper_ideal_mapping(cls) -> "HardwareConfig":
        """Fig. 6 setup: exact conductances, realistic analog periphery."""
        return cls()

    @classmethod
    def paper_variation(cls, sigma_relative: float = 0.05) -> "HardwareConfig":
        """Figs. 7/8 setup: Gaussian programming variation, sigma = 5%.

        The sigma is relative to each cell's conductance (the reading of
        the paper's "0.05 G0" that reproduces its error magnitudes; see
        :class:`repro.devices.RelativeGaussianVariation`).
        """
        programming = ProgrammingConfig(
            variation=RelativeGaussianVariation(sigma_relative)
        )
        return cls(programming=programming)

    @classmethod
    def paper_interconnect(
        cls,
        sigma_relative: float = 0.05,
        r_wire: float = 1.0,
        fidelity: str = "first_order",
    ) -> "HardwareConfig":
        """Fig. 9 setup: variation plus wire segment resistance."""
        programming = ProgrammingConfig(
            variation=RelativeGaussianVariation(sigma_relative)
        )
        return cls(
            programming=programming,
            parasitics=ParasiticConfig(r_wire=r_wire, fidelity=fidelity),
        )

    def with_(self, **changes) -> "HardwareConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # content addressing
    # ------------------------------------------------------------------
    def signature(self) -> tuple:
        """Canonical tuple covering every field, nested configs included."""
        return _content_signature(self)

    def cache_key(self) -> str:
        """Stable content digest of the full configuration.

        Two configs have the same key iff every nested parameter — device
        envelope, variation model, faults, converter resolutions, op-amp
        non-idealities, parasitics, MNA routing — is equal, so prepared
        solvers cached under this key (see
        :class:`repro.serve.PreparedSolverCache`) can never be served to
        a differently-configured request. The digest is stable across
        processes and platforms (it hashes a canonical repr, not object
        identities).

        Memoized per instance: the config is frozen, and the service
        derives a cache key on every submitted request.
        """
        cached = self.__dict__.get("_cache_key")
        if cached is None:
            cached = hashlib.sha256(repr(self.signature()).encode()).hexdigest()
            object.__setattr__(self, "_cache_key", cached)
        return cached
