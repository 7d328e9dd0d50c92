"""Multipath channel model for a reflective-surface-assisted link.

Three gain blocks make up the link between a base station (BS) with M
antennas and a single-antenna user terminal (UE), optionally bounced off a
reconfigurable intelligent surface (RIS) with R passive elements:

    h_b : (M,)   direct BS -> UE gains
    h_r : (R, M) BS -> RIS gains
    h_u : (R,)   RIS -> UE gains

Each block is a sum over multipath components. Path k (k = 1..K) with
amplitude alpha, delay tau, sampling time t, cyclic-prefix count D and
arrival angles (theta, phi) contributes

    alpha * exp(-1j * (k/K) * Phi) * sum_{d=0}^{D-1} p(d*t - tau) * steering,

where Phi = 2*pi*f*tau - 2*pi*f_s*t*cos(theta) - phi is the phase term,
f_s = f*v/c is the Doppler spread (zero on the static BS -> RIS hop), p is
the normalized sinc pulse, and the steering factor is a uniform-linear-array
response. The spectral k/K weighting is part of the model definition; paths
are indexed from 1.

The RIS applies a diagonal matrix diag(alpha_i * exp(1j*delta_i)); the
effective end-to-end gain is h_b + h_u @ Delta @ h_r, and the scalar link
rate is log2(1 + snr * ||H||^2).

Vectors are 1-D numpy arrays (complex128); the BS->RIS block is 2-D (R, M).

Every complex exponential of a real angle (the steering ramps and the
surface's reflection phasors) is cos(angle) + i*sin(angle), with cos written
into the real parts and sin into the imaginary parts; the complex sum
cos + 1j*sin would turn a sine of -0.0 into +0.0. On the pinned stack
(numpy 2.4, x86-64) numpy's exp of a complex with a zero real part is
exactly that, so the bytes are those of np.exp(1j * angle). A ramp's angles
are (rate + 0.0) * m, which keeps each zero's sign as np.exp(1j * rate * m)
has it: +0.0 for a rate of -0.0, and -0.0 at m = 0 for a negative rate.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT_MPS = 299792458.0

TWO_PI = 2.0 * math.pi


def sinc_pulse(x):
    """Normalized sinc pulse: sin(pi*x)/(pi*x), equal to 1 at x = 0."""
    if x == 0.0:
        return 1.0
    px = math.pi * x
    return math.sin(px) / px


@dataclass(frozen=True)
class PropagationConfig:
    """Carrier and link-budget parameters shared by all channel blocks."""

    carrier_frequency_hz: float
    speed_mps: float = 0.0
    snr_linear: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.carrier_frequency_hz) and self.carrier_frequency_hz > 0):
            raise ValueError("carrier_frequency_hz must be finite and > 0")
        if not (math.isfinite(self.speed_mps) and self.speed_mps >= 0):
            raise ValueError("speed_mps must be finite and >= 0")
        if not (math.isfinite(self.snr_linear) and self.snr_linear >= 0):
            raise ValueError("snr_linear must be finite and >= 0")

    @property
    def wavelength_m(self):
        return SPEED_OF_LIGHT_MPS / self.carrier_frequency_hz


@dataclass(frozen=True)
class ArrayGeometry:
    """Antenna counts and element spacing (in wavelengths) for both arrays."""

    n_bs_antennas: int
    n_ris_elements: int
    element_spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.n_bs_antennas < 1 or self.n_bs_antennas != int(self.n_bs_antennas):
            raise ValueError("n_bs_antennas must be an integer >= 1")
        if self.n_ris_elements < 1 or self.n_ris_elements != int(self.n_ris_elements):
            raise ValueError("n_ris_elements must be an integer >= 1")
        if not (math.isfinite(self.element_spacing_wavelengths)
                and self.element_spacing_wavelengths > 0):
            raise ValueError("element_spacing_wavelengths must be finite and > 0")


@dataclass(frozen=True)
class MultipathComponent:
    """One propagation path.

    amplitude        complex path gain (Friis magnitude for line of sight)
    delay_s          propagation delay tau >= 0
    sampling_time_s  sampling interval t > 0 used by the pulse argument d*t - tau
    cyclic_prefix_count  number of pulse taps D >= 1
    azimuth_rad      arrival azimuth in [0, 2*pi)
    elevation_rad    arrival elevation in [-pi/2, pi/2]
    """

    amplitude: complex
    delay_s: float
    sampling_time_s: float
    cyclic_prefix_count: int
    azimuth_rad: float
    elevation_rad: float

    def __post_init__(self):
        if not (cmath.isfinite(self.amplitude)):
            raise ValueError("amplitude must be finite")
        if not (math.isfinite(self.delay_s) and self.delay_s >= 0):
            raise ValueError("delay_s must be finite and >= 0")
        if not (math.isfinite(self.sampling_time_s) and self.sampling_time_s > 0):
            raise ValueError("sampling_time_s must be finite and > 0")
        if self.cyclic_prefix_count < 1 or self.cyclic_prefix_count != int(self.cyclic_prefix_count):
            raise ValueError("cyclic_prefix_count must be an integer >= 1")
        if not (0.0 <= self.azimuth_rad < TWO_PI):
            raise ValueError("azimuth_rad must lie in [0, 2*pi)")
        if not (-math.pi / 2 <= self.elevation_rad <= math.pi / 2):
            raise ValueError("elevation_rad must lie in [-pi/2, pi/2]")


@dataclass(frozen=True)
class RisConfig:
    """Per-element reflection amplitudes (in [0, 1]) and phases (in [0, 2*pi))."""

    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.float64)
        phases = np.asarray(self.phases, dtype=np.float64)
        if amps.ndim != 1 or phases.shape != amps.shape:
            raise ValueError("amplitudes and phases must be equal-length 1-D arrays")
        if not (np.isfinite(amps).all() and np.isfinite(phases).all()):
            raise ValueError("ris amplitudes/phases must be finite")
        if (amps < 0.0).any() or (amps > 1.0).any():
            raise ValueError("ris amplitudes must lie in [0, 1]")
        if (phases < 0.0).any() or (phases >= TWO_PI).any():
            raise ValueError("ris phases must lie in [0, 2*pi)")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "phases", phases)

    @property
    def n_elements(self):
        return self.amplitudes.shape[0]


def doppler_spread(cfg):
    """Doppler spread f_s = f * v / c for the configured carrier and speed."""
    return cfg.carrier_frequency_hz * cfg.speed_mps / SPEED_OF_LIGHT_MPS


def phase_term(carrier_hz, doppler_hz, delay_s, sampling_time_s, azimuth_rad,
               elevation_rad):
    """Path phase Phi = 2*pi*f*tau - 2*pi*f_s*t*cos(theta) - phi."""
    return (TWO_PI * carrier_hz * delay_s
            - TWO_PI * doppler_hz * sampling_time_s * math.cos(azimuth_rad)
            - elevation_rad)


def steering_vector(n_elements, spacing_wavelengths, azimuth_rad, elevation_rad):
    """Uniform-linear-array response: entry m = exp(1j*2*pi*s*m*sin(theta)*cos(phi))."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    rate = _steering_rate(spacing_wavelengths, azimuth_rad, elevation_rad)
    return _ramps(np.array([rate]), n_elements)[0]


def _phasors(angles):
    """exp(1j * angles) of a real array, as cos(angles) + i*sin(angles)."""
    out = np.empty(angles.shape, dtype=np.complex128)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def _ramps(rates, n):
    """Steering ramps exp(1j * rates[k] * m), m = 0 .. n - 1: shape (K, n)."""
    return _phasors(np.multiply.outer(rates + 0.0, np.arange(n)))


def _steering_rate(spacing_wavelengths, azimuth_rad, elevation_rad):
    return TWO_PI * spacing_wavelengths * math.sin(azimuth_rad) * math.cos(elevation_rad)


def _path_coefficients(paths, carrier_hz, doppler_hz):
    """Per-path scalars alpha * exp(-1j*(k/K)*Phi) * sum_d p(d*t - tau)."""
    n = len(paths)
    coeffs = np.empty(n, dtype=np.complex128)
    for i, path in enumerate(paths):
        phi_k = phase_term(carrier_hz, doppler_hz, path.delay_s,
                           path.sampling_time_s, path.azimuth_rad,
                           path.elevation_rad)
        pulse_sum = 0.0
        for d in range(path.cyclic_prefix_count):
            pulse_sum += sinc_pulse(d * path.sampling_time_s - path.delay_s)
        # paths are indexed from 1 in the spectral weighting
        coeffs[i] = (path.amplitude
                     * cmath.exp(-1j * ((i + 1) / n) * phi_k)
                     * pulse_sum)
    return coeffs


def accumulate_steering_outer(coeffs, row_rates, col_rates, n_rows, n_cols):
    """Sum of per-path coefficient times outer(row ramp, column ramp).

    out[r, c] = sum_k coeffs[k] * exp(1j*row_rates[k]*r) * exp(1j*col_rates[k]*c)

    The three channel builders below reduce to this one operation: the row
    and column ramps are the two arrays' steering responses. Each side's
    ramps for all K paths come from one cos and one sin call (see the module
    docstring); the sum still runs path by path.

    Parameters
    ----------
    coeffs : complex array, shape (K,) — per-path scalar coefficients
    row_rates, col_rates : float arrays, shape (K,) — phase advance per
        element index along rows/columns
    n_rows, n_cols : output dimensions

    Returns complex128 array of shape (n_rows, n_cols). K = 0 yields zeros.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    row_rates = np.asarray(row_rates, dtype=np.float64)
    col_rates = np.asarray(col_rates, dtype=np.float64)
    if not (coeffs.shape == row_rates.shape == col_rates.shape) or coeffs.ndim != 1:
        raise ValueError("coeffs, row_rates and col_rates must be equal-length 1-D")

    out = np.zeros((n_rows, n_cols), dtype=np.complex128)
    # (K, n_rows, 1) and (K, 1, n_cols): row k times column k is the outer
    # product of path k's ramps, the broadcast multiply np.outer runs
    row_ramps = _ramps(row_rates, n_rows)[:, :, None]
    col_ramps = _ramps(col_rates, n_cols)[:, None, :]
    # Path-by-path accumulation: this order fixes the output bytes, and so
    # does the operand order coeffs[k] * ramps (in numpy 2.4, c * b and
    # b * c differ in their bytes for a complex scalar c).
    for k in range(coeffs.shape[0]):
        out += coeffs[k] * (row_ramps[k] * col_ramps[k])
    return out


def _terminal_channel(paths, cfg, geom, n_elements):
    """Gain vector, shape (n_elements,), of a link to the moving terminal,
    steered with the paths' arrival angles. Empty path list -> zeros."""
    if not paths:
        return np.zeros(n_elements, dtype=np.complex128)
    coeffs = _path_coefficients(paths, cfg.carrier_frequency_hz,
                                doppler_spread(cfg))
    col_rates = np.array([_steering_rate(geom.element_spacing_wavelengths,
                                         p.azimuth_rad, p.elevation_rad)
                          for p in paths])
    out = accumulate_steering_outer(coeffs, np.zeros(len(paths)), col_rates, 1,
                                    n_elements)
    return out[0]


def channel_bs_ue(paths, cfg, geom):
    """Direct BS -> UE gain vector, shape (M,). Empty path list -> zeros."""
    return _terminal_channel(paths, cfg, geom, geom.n_bs_antennas)


def channel_bs_ris(paths, cfg, geom, departures):
    """BS -> RIS gain matrix, shape (R, M).

    The static hop carries no Doppler (f_s = 0). Rows steer across the RIS
    elements with the paths' arrival angles; columns steer across the BS
    antennas with ``departures``, one (azimuth, elevation) pair per path.
    """
    r, m = geom.n_ris_elements, geom.n_bs_antennas
    if not paths:
        return np.zeros((r, m), dtype=np.complex128)
    if len(departures) != len(paths):
        raise ValueError("departures must supply one (azimuth, elevation) per path")
    coeffs = _path_coefficients(paths, cfg.carrier_frequency_hz, 0.0)
    row_rates = np.array([_steering_rate(geom.element_spacing_wavelengths,
                                         p.azimuth_rad, p.elevation_rad)
                          for p in paths])
    col_rates = np.array([_steering_rate(geom.element_spacing_wavelengths, az, el)
                          for az, el in departures])
    return accumulate_steering_outer(coeffs, row_rates, col_rates, r, m)


def channel_ris_ue(paths, cfg, geom):
    """RIS -> UE gain vector, shape (R,). Empty path list -> zeros."""
    return _terminal_channel(paths, cfg, geom, geom.n_ris_elements)


def ris_matrix(ris):
    """Diagonal reflection matrix diag(alpha_i * exp(1j*delta_i)), shape (R, R)."""
    return np.diag(ris.amplitudes * _phasors(ris.phases + 0.0))


def effective_gain(h_b, h_u, delta, h_r):
    """End-to-end gain h_b + h_u @ delta @ h_r, shape (M,).

    delta is the (R, R) reflection matrix, or a RisConfig directly — the
    matrix of a RisConfig is diagonal, so that path multiplies elementwise
    and skips materializing R x R entries.
    """
    h_b = np.asarray(h_b, dtype=np.complex128)
    h_u = np.asarray(h_u, dtype=np.complex128)
    h_r = np.asarray(h_r, dtype=np.complex128)
    if h_b.ndim != 1 or h_u.ndim != 1 or h_r.ndim != 2:
        raise ValueError("expected h_b (M,), h_u (R,), h_r (R, M)")
    r = h_u.shape[0]
    if h_r.shape[0] != r or h_r.shape[1] != h_b.shape[0]:
        raise ValueError(
            f"inconsistent dimensions: h_b {h_b.shape}, h_u {h_u.shape}, "
            f"h_r {h_r.shape}")
    if isinstance(delta, RisConfig):
        if delta.n_elements != r:
            raise ValueError(
                f"RisConfig has {delta.n_elements} elements, channels have {r}")
        reflect = delta.amplitudes * _phasors(delta.phases + 0.0)
        return h_b + (h_u * reflect) @ h_r
    delta = np.asarray(delta, dtype=np.complex128)
    if delta.ndim != 2 or delta.shape != (r, r):
        raise ValueError(f"delta must be ({r}, {r}), got {delta.shape}")
    return h_b + h_u @ delta @ h_r


def co_phase_ris(h_b, h_r, h_u):
    """Phase configuration aligning every cascaded element with the direct term.

    With combiner w, the normalized conjugate of h_b, element i gets

        delta_i = arg(h_b @ w) - arg(h_u[i]) - arg((h_r @ w)[i])

    so all contributions to the combined scalar share one phase and
    |H @ w| = |h_b @ w| + sum_i |h_u[i]| * |(h_r @ w)[i]|.

    Fallbacks: when h_b is zero the combiner is the normalized conjugate of
    the cascade direction h_u @ h_r (first basis vector if that is zero
    too); when the combined direct term is below 1e-15 the phases align
    every contribution with element 0's. Amplitudes are all 1.
    """
    h_b = np.asarray(h_b, dtype=np.complex128)
    h_u = np.asarray(h_u, dtype=np.complex128)
    h_r = np.asarray(h_r, dtype=np.complex128)
    if h_b.ndim != 1 or h_u.ndim != 1 or h_r.ndim != 2:
        raise ValueError("expected h_b (M,), h_u (R,), h_r (R, M)")
    if h_r.shape != (h_u.shape[0], h_b.shape[0]):
        raise ValueError(f"h_r must be {(h_u.shape[0], h_b.shape[0])}, got {h_r.shape}")

    norm_b = np.linalg.norm(h_b)
    if norm_b > 0.0:
        w = np.conj(h_b) / norm_b
    else:
        cascade = h_u @ h_r
        norm_c = np.linalg.norm(cascade)
        if norm_c > 0.0:
            w = np.conj(cascade) / norm_c
        else:
            w = np.zeros(h_b.shape[0], dtype=np.complex128)
            w[0] = 1.0

    direct = h_b @ w
    cascaded = h_r @ w
    if abs(direct) >= 1e-15:
        reference = np.angle(direct)
    else:
        reference = np.angle(h_u[0] * cascaded[0]) if h_u.shape[0] else 0.0
    phases = np.mod(reference - np.angle(h_u) - np.angle(cascaded), TWO_PI)
    # mod can return 2*pi when the argument is a tiny negative number
    phases[phases >= TWO_PI] = 0.0
    return RisConfig(amplitudes=np.ones(h_u.shape[0]), phases=phases)


def data_rate(h, snr_linear):
    """Scalar link rate log2(1 + snr * ||h||^2) in bits/s/Hz."""
    h = np.asarray(h, dtype=np.complex128)
    if not (math.isfinite(snr_linear) and snr_linear >= 0):
        raise ValueError("snr_linear must be finite and >= 0")
    power = np.vdot(h, h).real
    if not math.isfinite(power):
        raise ValueError("channel entries must be finite")
    return math.log1p(snr_linear * power) / math.log(2.0)
