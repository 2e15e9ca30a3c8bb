"""Mixed-signal interface models: DAC, ADC, and sample-and-hold.

The BlockAMC system receives the known vector through a DAC, conveys
analog intermediates through S&H banks, and returns solutions through an
ADC (paper Fig. 3/4). All three are modelled as memoryless element-wise
transforms on voltage vectors.
"""

from __future__ import annotations

import numpy as np

from repro.amc.config import ConverterConfig, SampleHoldConfig
from repro.utils.rng import as_generator
from repro.utils.validation import check_vector


def quantize_voltages(voltages: np.ndarray, bits: int | None, v_fs: float) -> np.ndarray:
    """Uniform mid-tread quantizer over ``[-v_fs, +v_fs]``.

    ``bits=None`` is transparent (ideal converter). Values outside the
    full-scale range clip, as a real converter would. Shape-generic: the
    single converter model behind :class:`DAC`/:class:`ADC` and the
    batched solve engines (``core.batched``, ``PreparedBlockAMC.solve_many``).
    """
    if bits is None:
        return voltages.copy()
    lsb = 2.0 * v_fs / (2**bits)
    clipped = np.clip(voltages, -v_fs, v_fs)
    return np.clip(np.round(clipped / lsb) * lsb, -v_fs, v_fs)


#: Backwards-compatible private alias (pre-existing internal call sites).
_quantize = quantize_voltages


class DAC:
    """Digital-to-analog converter bank (one channel per vector element)."""

    def __init__(self, config: ConverterConfig):
        self.config = config

    def convert(self, digital: np.ndarray) -> np.ndarray:
        """Produce analog voltages from (ideal) digital values.

        Values beyond full scale saturate; finite resolution rounds to the
        nearest LSB.
        """
        digital = check_vector(digital, "digital")
        return _quantize(digital, self.config.dac_bits, self.config.v_fs)


class ADC:
    """Analog-to-digital converter bank (one channel per vector element)."""

    def __init__(self, config: ConverterConfig):
        self.config = config

    def convert(self, analog: np.ndarray) -> np.ndarray:
        """Digitize analog voltages (clip to full scale, round to LSB)."""
        analog = check_vector(analog, "analog")
        return _quantize(analog, self.config.adc_bits, self.config.v_fs)


class SampleHold:
    """Sample-and-hold buffer bank.

    Applies the configured gain error and, when enabled, additive sampled
    noise. Two instances per macro implement the double buffering that
    lets the paper pipeline cascaded operations.
    """

    def __init__(self, config: SampleHoldConfig):
        self.config = config

    def transfer(self, voltages: np.ndarray, rng=None) -> np.ndarray:
        """Sample ``voltages`` and return the held values."""
        voltages = check_vector(voltages, "voltages")
        held = voltages * (1.0 + self.config.gain_error)
        if self.config.noise_sigma_v > 0.0:
            rng = as_generator(rng)
            held = held + rng.normal(0.0, self.config.noise_sigma_v, size=held.shape)
        return held
