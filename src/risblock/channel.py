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

The dataset generator computes the channels of a block of samples at once
(`link_rates`), with each link's paths as a PathTable, one (samples,
paths) array per field, and gives every sample the bytes it would get alone:

- the three links' path coefficients come from one set of float64 ufunc
  passes that repeat CPython's complex products term by term
  (`complex_product`), the 0.0 parts of promoted floats included, as the
  per-path cmath loop computed them;
- the steering ramps are built over (samples, paths, elements) and summed
  path by path, the coefficient the first operand of each product;
- co-phasing takes its angles, its wrap into [0, 2*pi) and the reflection
  phasors over the whole block.

`link_rates` takes a write chunk's present samples, computes their path
coefficients in one pass and the rest in consecutive blocks of at most
BLOCK_RAMP_ENTRIES ramp entries, at least one sample each.

What stays per sample are the products that sum: the norm, h_b @ w,
h_r @ w, (h_u * reflect) @ h_r and the rate's vdot, whose summation order
belongs to the kernel OpenBLAS picks for the sample's shape. Numpy calls on
arrays of a few entries cost as much as the Python they replace, so the
gain comes from many samples a block; the one-sample functions
(channel_bs_ue, channel_bs_ris, channel_ris_ue, accumulate_steering_outer,
co_phase_ris, effective_gain, data_rate) are the block code run on a block
of one. The three channel builders take a one-sample PathTable, as
scene.synthesize_mpcs returns it.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT_MPS = 299792458.0

TWO_PI = 2.0 * math.pi

# ramp entries (paths x rows x columns of the three steering sums) per block
# of link_rates. Serial, caps interleaved, the channel stage took 0.42 ms a
# present sample with 512 elements and 1.37 ms with 2000 at 2**17, against
# 0.49 and 1.85 ms at 2**15; with 64 elements every cap from 2**14 up made a
# chunk's present samples one block and took the same time. A sample of the
# default 8000 elements has 80,005 entries, so at 2**17 a block holds one.
BLOCK_RAMP_ENTRIES = 2 ** 17


def sinc_pulse(x):
    """Normalized sinc pulse: sin(pi*x)/(pi*x), equal to 1 at x = 0;
    elementwise on an array."""
    px = math.pi * np.asarray(x, dtype=np.float64)
    return np.divide(np.sin(px), px, out=np.ones(px.shape), where=px != 0.0)[()]


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


class PathTable(NamedTuple):
    """The paths of one link for a block of samples: one (samples, paths)
    array per field, every sample with the same number of paths.

    amplitude        complex128 path gain (Friis magnitude for line of sight);
                     a float a is held as complex(a, 0.0), as CPython promotes it
    delay_s          propagation delay tau >= 0
    sampling_time_s  sampling interval t > 0 used by the pulse argument d*t - tau
    cyclic_prefix_count  number of pulse taps D >= 1
    azimuth_rad      arrival azimuth in [0, 2*pi)
    elevation_rad    arrival elevation in [-pi/2, pi/2]
    """

    amplitude: np.ndarray
    delay_s: np.ndarray
    sampling_time_s: np.ndarray
    cyclic_prefix_count: np.ndarray
    azimuth_rad: np.ndarray
    elevation_rad: np.ndarray


def _check_paths(*tables):
    """The PathTables side by side, their columns joined along the paths
    axis, once each table's six columns share one 2-D shape and every path
    is valid; otherwise raise ValueError, naming the field."""
    for table in tables:
        shape = np.shape(table.amplitude)
        for name, column in zip(PathTable._fields, table):
            if len(shape) != 2 or np.shape(column) != shape:
                raise ValueError(f"{name} must be a (samples, paths) array "
                                 f"of amplitude's shape, not {np.shape(column)}")
    paths = PathTable(*(np.concatenate(columns, axis=1)
                        for columns in zip(*tables)))
    amplitude, delay, sampling, count, azimuth, elevation = paths
    if not np.isfinite(amplitude).all():
        raise ValueError("amplitude must be finite")
    if not (np.isfinite(delay) & (delay >= 0)).all():
        raise ValueError("delay_s must be finite and >= 0")
    if not (np.isfinite(sampling) & (sampling > 0)).all():
        raise ValueError("sampling_time_s must be finite and > 0")
    if not ((count >= 1) & (count % 1 == 0)).all():
        raise ValueError("cyclic_prefix_count must be an integer >= 1")
    if not ((0.0 <= azimuth) & (azimuth < TWO_PI)).all():
        raise ValueError("azimuth_rad must lie in [0, 2*pi)")
    if not ((-math.pi / 2 <= elevation) & (elevation <= math.pi / 2)).all():
        raise ValueError("elevation_rad must lie in [-pi/2, pi/2]")
    return paths


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
        _check_surface(amps, phases)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "phases", phases)

    @property
    def n_elements(self):
        return self.amplitudes.shape[0]


def _check_surface(amplitudes, phases):
    """Raise ValueError unless the float arrays of reflection amplitudes and
    phases, of one surface or of a block's, are finite and in range."""
    if not (np.isfinite(amplitudes).all() and np.isfinite(phases).all()):
        raise ValueError("ris amplitudes/phases must be finite")
    if (amplitudes < 0.0).any() or (amplitudes > 1.0).any():
        raise ValueError("ris amplitudes must lie in [0, 1]")
    if (phases < 0.0).any() or (phases >= TWO_PI).any():
        raise ValueError("ris phases must lie in [0, 2*pi)")


def doppler_spread(cfg):
    """Doppler spread f_s = f * v / c for the configured carrier and speed."""
    return cfg.carrier_frequency_hz * cfg.speed_mps / SPEED_OF_LIGHT_MPS


def phase_term(carrier_hz, doppler_hz, delay_s, sampling_time_s, azimuth_rad,
               elevation_rad):
    """Path phase Phi = 2*pi*f*tau - 2*pi*f_s*t*cos(theta) - phi;
    elementwise on arrays."""
    return (TWO_PI * carrier_hz * delay_s
            - TWO_PI * doppler_hz * sampling_time_s * np.cos(azimuth_rad)
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
    """Steering ramps exp(1j * rates[..., k] * m), m = 0 .. n - 1: shape
    rates.shape + (n,)."""
    return _phasors(np.multiply.outer(rates + 0.0, np.arange(n)))


def _steering_rate(spacing_wavelengths, azimuth_rad, elevation_rad):
    """Phase advance per element, 2*pi*s*sin(theta)*cos(phi); elementwise."""
    return (TWO_PI * spacing_wavelengths * np.sin(azimuth_rad)
            * np.cos(elevation_rad))


def complex_product(a_re, a_im, b_re, b_im):
    """CPython's complex product (a_re + i*a_im) * (b_re + i*b_im), written
    out term by term in float64 ufuncs: its (real, imaginary) parts.

    A float operand takes part as (x, 0.0), as CPython promotes it, so its
    0.0 cross terms stay in the sums. numpy's own complex multiply does not
    round the same way: in numpy 2.4 even c*b and b*c differ.
    """
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _complex(re, im):
    """The complex128 array of real parts re and imaginary parts im; the
    sum re + 1j*im would turn an imaginary -0.0 into +0.0."""
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _path_coefficients(links, carrier_hz):
    """Per-path scalars alpha * exp(-1j*(k/K)*Phi) * sum_d p(d*t - tau) of
    the links of a block, given as (PathTable, Doppler spread) pairs: one
    (samples, K) complex128 array per link.

    The links' paths are checked and computed side by side, so a block
    makes each numpy call once, not once a link; k/K counts within each
    link. These are the bytes of the cmath loop that computed them one path
    at a time, alpha * cmath.exp(-1j * (k/K) * Phi) * pulse_sum: each
    complex product is complex_product's, and cmath.exp of (x, y) is exp(x)
    * (cos(y), sin(y)). numpy's float64 cos and sin give libm's bytes;
    tests/test_channel.py checks the whole against that loop.
    """
    paths = _check_paths(*(table for table, _ in links))
    sizes = [table.delay_s.shape[1] for table, _ in links]
    doppler_hz = np.array([doppler for (_, doppler), size in zip(links, sizes)
                           for _ in range(size)])
    phi = phase_term(carrier_hz, doppler_hz, paths.delay_s,
                     paths.sampling_time_s, paths.azimuth_rad,
                     paths.elevation_rad)
    count = paths.cyclic_prefix_count
    pulse = np.zeros(phi.shape)
    for d in range(int(count.max()) if count.size else 0):
        pulse = np.where(d < count, pulse + sinc_pulse(
            d * paths.sampling_time_s - paths.delay_s), pulse)
    # paths are indexed from 1 in the spectral weighting
    weight = np.array([k / size for size in sizes for k in range(1, size + 1)])
    re, im = complex_product(-0.0, -1.0, weight, 0.0)     # -1j * (k/K)
    re, im = complex_product(re, im, phi, 0.0)
    scale = np.exp(re)
    re, im = complex_product(paths.amplitude.real, paths.amplitude.imag,
                             scale * np.cos(im), scale * np.sin(im))
    coeffs = _complex(*complex_product(re, im, pulse, 0.0))
    return [coeffs[:, stop - size:stop]
            for size, stop in zip(sizes, accumulate(sizes))]


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
    return _accumulate(coeffs[None], row_rates[None], col_rates[None], n_rows,
                       n_cols)[0]


def _accumulate(coeffs, row_rates, col_rates, n_rows, n_cols):
    """accumulate_steering_outer of each sample of a block: (samples, K)
    arrays in, (samples, n_rows, n_cols) out."""
    out = np.zeros((coeffs.shape[0], n_rows, n_cols), dtype=np.complex128)
    # (samples, K, n_rows, 1) and (samples, K, 1, n_cols): row k times
    # column k is the outer product of path k's ramps, the broadcast
    # multiply np.outer runs
    row_ramps = _ramps(row_rates, n_rows)[..., None]
    col_ramps = _ramps(col_rates, n_cols)[..., None, :]
    # Path-by-path accumulation: this order fixes the output bytes, and so
    # does the operand order coeffs * ramps (in numpy 2.4, c * b and b * c
    # differ in their bytes for a complex c)
    for k in range(coeffs.shape[1]):
        out += coeffs[:, k, None, None] * (row_ramps[:, k] * col_ramps[:, k])
    return out


def _terminal_channels(paths, coeffs, geom, n_elements):
    """Gain vectors, shape (samples, n_elements), of a block's links to the
    moving terminal from their PathTable and path coefficients, steered with
    the paths' arrival angles. No paths -> zeros."""
    col_rates = _steering_rate(geom.element_spacing_wavelengths,
                               paths.azimuth_rad, paths.elevation_rad)
    return _accumulate(coeffs, np.zeros(coeffs.shape), col_rates, 1,
                       n_elements)[:, 0]


def _hop_channels(paths, coeffs, departures, geom):
    """BS -> RIS gain matrices, shape (samples, R, M), of a block; the
    departures are a (samples, K, 2) array of (azimuth, elevation)."""
    row_rates = _steering_rate(geom.element_spacing_wavelengths,
                               paths.azimuth_rad, paths.elevation_rad)
    col_rates = _steering_rate(geom.element_spacing_wavelengths,
                               departures[..., 0], departures[..., 1])
    return _accumulate(coeffs, row_rates, col_rates, geom.n_ris_elements,
                       geom.n_bs_antennas)


def _sample_coefficients(paths, doppler_hz, cfg):
    """The (1, K) path coefficients of a one-sample PathTable."""
    coeffs, = _path_coefficients([(paths, doppler_hz)],
                                 cfg.carrier_frequency_hz)
    if len(coeffs) != 1:
        raise ValueError(f"paths must hold one sample, not {len(coeffs)}")
    return coeffs


def channel_bs_ue(paths, cfg, geom):
    """Direct BS -> UE gain vector, shape (M,), of a one-sample PathTable.
    No paths -> zeros."""
    coeffs = _sample_coefficients(paths, doppler_spread(cfg), cfg)
    return _terminal_channels(paths, coeffs, geom, geom.n_bs_antennas)[0]


def channel_bs_ris(paths, cfg, geom, departures):
    """BS -> RIS gain matrix, shape (R, M), of a one-sample PathTable.

    The static hop carries no Doppler (f_s = 0). Rows steer across the RIS
    elements with the paths' arrival angles; columns steer across the BS
    antennas with ``departures``, a (1, K, 2) array of one (azimuth,
    elevation) pair per path. No paths -> zeros.
    """
    coeffs = _sample_coefficients(paths, 0.0, cfg)
    departures = np.asarray(departures, dtype=np.float64)
    if departures.shape != (1, coeffs.shape[1], 2):
        raise ValueError("departures must supply one (azimuth, elevation) per path")
    return _hop_channels(paths, coeffs, departures, geom)[0]


def channel_ris_ue(paths, cfg, geom):
    """RIS -> UE gain vector, shape (R,), of a one-sample PathTable. No
    paths -> zeros."""
    coeffs = _sample_coefficients(paths, doppler_spread(cfg), cfg)
    return _terminal_channels(paths, coeffs, geom, geom.n_ris_elements)[0]


def ris_matrix(ris):
    """Diagonal reflection matrix diag(alpha_i * exp(1j*delta_i)), shape (R, R)."""
    return np.diag(ris.amplitudes * _phasors(ris.phases + 0.0))


def _check_link(h_b, h_u, h_r):
    """(h_b, h_u, h_r) as complex128 arrays, once they are 1-D, 1-D and 2-D."""
    h_b = np.asarray(h_b, dtype=np.complex128)
    h_u = np.asarray(h_u, dtype=np.complex128)
    h_r = np.asarray(h_r, dtype=np.complex128)
    if h_b.ndim != 1 or h_u.ndim != 1 or h_r.ndim != 2:
        raise ValueError("expected h_b (M,), h_u (R,), h_r (R, M)")
    return h_b, h_u, h_r


def effective_gain(h_b, h_u, delta, h_r):
    """End-to-end gain h_b + h_u @ delta @ h_r, shape (M,).

    delta is the (R, R) reflection matrix, or a RisConfig directly — the
    matrix of a RisConfig is diagonal, so that path multiplies elementwise
    and skips materializing R x R entries.
    """
    h_b, h_u, h_r = _check_link(h_b, h_u, h_r)
    r = h_u.shape[0]
    if h_r.shape[0] != r or h_r.shape[1] != h_b.shape[0]:
        raise ValueError(
            f"inconsistent dimensions: h_b {h_b.shape}, h_u {h_u.shape}, "
            f"h_r {h_r.shape}")
    if isinstance(delta, RisConfig):
        if delta.n_elements != r:
            raise ValueError(
                f"RisConfig has {delta.n_elements} elements, channels have {r}")
        return _effective_gains(h_b[None], h_u[None], delta.amplitudes[None],
                                delta.phases[None], h_r[None])[0]
    delta = np.asarray(delta, dtype=np.complex128)
    if delta.ndim != 2 or delta.shape != (r, r):
        raise ValueError(f"delta must be ({r}, {r}), got {delta.shape}")
    return h_b + h_u @ delta @ h_r


def _effective_gains(h_b, h_u, amplitudes, phases, h_r):
    """effective_gain through a diagonal surface for each sample of a block:
    h_b (S, M), h_u (S, R), amplitudes and phases (S, R), h_r (S, R, M)."""
    reflect = amplitudes * _phasors(phases + 0.0)
    gains = np.empty(h_b.shape, dtype=np.complex128)
    for s in range(len(gains)):
        # one sample at a time: the product's summation order is that of the
        # kernel OpenBLAS picks for this shape
        gains[s] = h_b[s] + (h_u[s] * reflect[s]) @ h_r[s]
    return gains


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
    h_b, h_u, h_r = _check_link(h_b, h_u, h_r)
    if h_r.shape != (h_u.shape[0], h_b.shape[0]):
        raise ValueError(f"h_r must be {(h_u.shape[0], h_b.shape[0])}, got {h_r.shape}")
    phases = _co_phases(h_b[None], h_r[None], h_u[None])[0]
    return RisConfig(amplitudes=np.ones(h_u.shape[0]), phases=phases)


def _co_phases(h_b, h_r, h_u):
    """co_phase_ris's phases for each sample of a block: h_b (S, M), h_r
    (S, R, M), h_u (S, R) in, (S, R) out.

    The norms and products run one sample at a time, since their summation
    order is that of the kernel OpenBLAS picks for the sample's shape; the
    angles and the wrap into [0, 2*pi) run over the block at once.
    """
    cascaded = np.empty(h_u.shape, dtype=np.complex128)
    # the term whose angle every element is aligned with
    anchor = np.zeros(len(h_b), dtype=np.complex128)
    for s in range(len(h_b)):
        norm_b = np.linalg.norm(h_b[s])
        if norm_b > 0.0:
            w = np.conj(h_b[s]) / norm_b
        else:
            cascade = h_u[s] @ h_r[s]
            norm_c = np.linalg.norm(cascade)
            if norm_c > 0.0:
                w = np.conj(cascade) / norm_c
            else:
                w = np.zeros(h_b.shape[1], dtype=np.complex128)
                w[0] = 1.0
        direct = h_b[s] @ w
        cascaded[s] = h_r[s] @ w
        if abs(direct) >= 1e-15:
            anchor[s] = direct
        elif h_u.shape[1]:
            anchor[s] = h_u[s, 0] * cascaded[s, 0]
    phases = np.mod(np.angle(anchor)[:, None] - np.angle(h_u)
                    - np.angle(cascaded), TWO_PI)
    # mod can return 2*pi when the argument is a tiny negative number
    phases[phases >= TWO_PI] = 0.0
    return phases


def data_rate(h, snr_linear):
    """Scalar link rate log2(1 + snr * ||h||^2) in bits/s/Hz."""
    return _data_rates(np.asarray(h, dtype=np.complex128)[None], snr_linear)[0]


def _data_rates(h, snr_linear):
    """data_rate of each h[s] of a block, as a list of floats."""
    if not (math.isfinite(snr_linear) and snr_linear >= 0):
        raise ValueError("snr_linear must be finite and >= 0")
    rates = []
    for h_s in h:
        power = np.vdot(h_s, h_s).real
        if not math.isfinite(power):
            raise ValueError("channel entries must be finite")
        rates.append(math.log1p(snr_linear * power) / math.log(2.0))
    return rates


def link_rates(direct, hop, departures, surface, cfg, geom):
    """Direct and co-phased surface-assisted rates of a block of samples
    whose terminal is present: two lists of floats, one rate per sample.

    direct, hop and surface are the PathTables of the BS -> UE, BS -> RIS
    and RIS -> UE links, departures the hop's (samples, K, 2) departure
    angles. Each sample's rates are those of channel_bs_ue, channel_bs_ris,
    channel_ris_ue, co_phase_ris, effective_gain and data_rate run on its
    paths alone, byte for byte. Each table is checked once, as the
    one-sample functions check theirs, and each block's surface
    configurations as RisConfig checks its own.
    """
    doppler = doppler_spread(cfg)
    c_b, c_r, c_u = _path_coefficients(
        [(direct, doppler), (hop, 0.0), (surface, doppler)],
        cfg.carrier_frequency_hz)
    n_b, n_r = geom.n_bs_antennas, geom.n_ris_elements
    entries = c_b.shape[1] * n_b + (c_r.shape[1] * n_b + c_u.shape[1]) * n_r
    size = max(1, BLOCK_RAMP_ENTRIES // entries)
    direct_rates, ris_rates = [], []
    for start in range(0, len(c_b), size):
        block = slice(start, start + size)
        rows = lambda table: PathTable(*(column[block] for column in table))
        h_b = _terminal_channels(rows(direct), c_b[block], geom, n_b)
        h_r = _hop_channels(rows(hop), c_r[block], departures[block], geom)
        h_u = _terminal_channels(rows(surface), c_u[block], geom, n_r)
        direct_rates += _data_rates(h_b, cfg.snr_linear)
        phases = _co_phases(h_b, h_r, h_u)
        amplitudes = np.ones(phases.shape)
        _check_surface(amplitudes, phases)
        gains = _effective_gains(h_b, h_u, amplitudes, phases, h_r)
        ris_rates += _data_rates(gains, cfg.snr_linear)
    return direct_rates, ris_rates
