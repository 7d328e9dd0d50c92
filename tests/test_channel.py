"""Channel model and its steering kernel: hand-computed values, reductions,
and scalar-loop oracles."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from risblock.channel import (_accumulate, _path_coefficients, _phasors,
                              _ramps, ArrayGeometry, MultipathComponent,
                              PathTable, PropagationConfig, RisConfig,
                              SPEED_OF_LIGHT_MPS, accumulate_steering_outer,
                              channel_bs_ris, channel_bs_ue, channel_ris_ue,
                              co_phase_ris, data_rate, doppler_spread,
                              effective_gain, link_rates, phase_term,
                              ris_matrix, sinc_pulse, steering_vector)

TWO_PI = 2.0 * math.pi


def _path(amplitude=1.0, delay_s=0.0, sampling_time_s=1e-3,
          cyclic_prefix_count=1, azimuth_rad=0.0, elevation_rad=0.0):
    return MultipathComponent(amplitude=amplitude, delay_s=delay_s,
                              sampling_time_s=sampling_time_s,
                              cyclic_prefix_count=cyclic_prefix_count,
                              azimuth_rad=azimuth_rad,
                              elevation_rad=elevation_rad)


def _random_paths(rng, count):
    return [_path(amplitude=complex(rng.normal(), rng.normal()),
                  delay_s=float(rng.uniform(0.0, 2e-7)),
                  sampling_time_s=float(rng.uniform(1e-4, 2e-3)),
                  cyclic_prefix_count=int(rng.integers(1, 4)),
                  azimuth_rad=float(rng.uniform(0.0, TWO_PI)),
                  elevation_rad=float(rng.uniform(-math.pi / 2, math.pi / 2)))
            for _ in range(count)]


# ---------------------------------------------------------------- pulse


def test_sinc_pulse_values():
    assert sinc_pulse(0.0) == 1.0
    assert abs(sinc_pulse(1.0)) < 1e-15
    assert math.isclose(sinc_pulse(0.5), 2.0 / math.pi, rel_tol=1e-15)


# ---------------------------------------------------------------- configs


def test_propagation_config_validates():
    cfg = PropagationConfig(carrier_frequency_hz=28e9, speed_mps=20.0)
    assert math.isclose(cfg.wavelength_m, SPEED_OF_LIGHT_MPS / 28e9,
                        rel_tol=1e-15)
    with pytest.raises(ValueError):
        PropagationConfig(carrier_frequency_hz=0.0)
    with pytest.raises(ValueError):
        PropagationConfig(carrier_frequency_hz=1e9, speed_mps=-1.0)
    with pytest.raises(ValueError):
        PropagationConfig(carrier_frequency_hz=1e9, snr_linear=-1.0)


def test_array_geometry_validates():
    geom = ArrayGeometry(n_bs_antennas=2, n_ris_elements=4)
    assert geom.element_spacing_wavelengths == 0.5
    with pytest.raises(ValueError):
        ArrayGeometry(n_bs_antennas=0, n_ris_elements=4)
    with pytest.raises(ValueError):
        ArrayGeometry(n_bs_antennas=1, n_ris_elements=1,
                      element_spacing_wavelengths=0.0)


def test_multipath_component_validates():
    with pytest.raises(ValueError):
        _path(delay_s=-1e-9)
    with pytest.raises(ValueError):
        _path(sampling_time_s=0.0)
    with pytest.raises(ValueError):
        _path(cyclic_prefix_count=0)
    with pytest.raises(ValueError):
        _path(azimuth_rad=TWO_PI)
    with pytest.raises(ValueError):
        _path(elevation_rad=2.0)


def test_ris_config_validates():
    cfg = RisConfig(amplitudes=np.ones(3), phases=np.zeros(3))
    assert cfg.n_elements == 3
    with pytest.raises(ValueError):
        RisConfig(amplitudes=np.array([1.5]), phases=np.zeros(1))
    with pytest.raises(ValueError):
        RisConfig(amplitudes=np.ones(1), phases=np.array([TWO_PI]))
    with pytest.raises(ValueError):
        RisConfig(amplitudes=np.ones(2), phases=np.zeros(3))


# ---------------------------------------------------------------- doppler


def test_doppler_spread_zero_speed():
    cfg = PropagationConfig(carrier_frequency_hz=1e9, speed_mps=0.0)
    assert doppler_spread(cfg) == 0.0


def test_doppler_spread_carrier_equals_c():
    cfg = PropagationConfig(carrier_frequency_hz=SPEED_OF_LIGHT_MPS,
                            speed_mps=1.0)
    assert math.isclose(doppler_spread(cfg), 1.0, rel_tol=1e-15)


def test_doppler_spread_matches_independent_arithmetic():
    # exact rational evaluation of f*v/c, rounded once at the end
    want = float(Fraction(28_000_000_000) * 20 / Fraction(299_792_458))
    cfg = PropagationConfig(carrier_frequency_hz=28e9, speed_mps=20.0)
    assert math.isclose(doppler_spread(cfg), want, rel_tol=1e-12)


# ---------------------------------------------------------------- phase term


def test_phase_term_only_elevation():
    assert phase_term(0.0, 0.0, 1.0, 1.0, 0.0, 1.0) == -1.0


def test_phase_term_only_carrier():
    assert math.isclose(phase_term(1.0, 0.0, 1.0, 1.0, 0.0, 0.0), TWO_PI,
                        rel_tol=1e-15)


def test_phase_term_doppler_annihilated_at_broadside():
    assert abs(phase_term(0.0, 5.0, 0.0, 3.0, math.pi / 2, 0.0)) < 1e-12


# ---------------------------------------------------------------- steering


def test_steering_single_element():
    np.testing.assert_array_equal(steering_vector(1, 0.5, 1.0, 0.3),
                                  np.array([1.0 + 0.0j]))


def test_steering_zero_progression_is_all_ones():
    np.testing.assert_array_equal(steering_vector(5, 0.5, 0.0, 0.0),
                                  np.ones(5, dtype=complex))


def test_steering_half_wavelength_endfire():
    vec = steering_vector(2, 0.5, math.pi / 2, 0.0)
    np.testing.assert_allclose(vec, np.array([1.0, -1.0]), atol=1e-12)


def test_steering_entries_have_unit_modulus():
    vec = steering_vector(16, 0.5, 1.2, -0.4)
    np.testing.assert_allclose(np.abs(vec), 1.0, rtol=1e-15)


# ---------------------------------------------------------------- steering kernel


def _random_kernel_instance(rng):
    k = int(rng.integers(1, 9))
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    row_rates = rng.uniform(-8.0, 8.0, size=k)
    col_rates = rng.uniform(-8.0, 8.0, size=k)
    n_rows = int(rng.integers(1, 41))
    n_cols = int(rng.integers(1, 7))
    return coeffs, row_rates, col_rates, n_rows, n_cols


def _rel_err(got, want):
    want = np.asarray(want, dtype=np.complex128)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - want))) / scale


def test_kernel_matches_triple_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        coeffs, row_rates, col_rates, n_rows, n_cols = _random_kernel_instance(rng)
        want = oracles.naive_accumulate(coeffs, row_rates, col_rates, n_rows,
                                        n_cols)
        got = accumulate_steering_outer(coeffs, row_rates, col_rates, n_rows,
                                        n_cols)
        assert got.shape == (n_rows, n_cols)
        assert _rel_err(got, want) < 1e-12


def test_zero_paths_give_zeros():
    out = accumulate_steering_outer(np.zeros(0, dtype=complex), np.zeros(0),
                                    np.zeros(0), 3, 4)
    np.testing.assert_array_equal(out, np.zeros((3, 4), dtype=np.complex128))


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        accumulate_steering_outer(np.ones(3, dtype=complex), np.zeros(2),
                                  np.zeros(3), 2, 2)


def test_single_path_is_an_outer_product():
    coeffs = np.array([2.0 - 1.0j])
    out = accumulate_steering_outer(coeffs, np.array([0.5]), np.array([-0.25]),
                                    6, 3)
    want = coeffs[0] * np.outer(np.exp(1j * 0.5 * np.arange(6)),
                                np.exp(1j * -0.25 * np.arange(3)))
    np.testing.assert_allclose(out, want, rtol=1e-13, atol=0)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


# the signed zeros, the smallest subnormal, the largest subnormal, the
# smallest normal and pi, each with both signs
_EDGE_ANGLES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                -2.225073858507201e-308, 2.2250738585072014e-308,
                -2.2250738585072014e-308, math.pi, -math.pi]
# rate = 2*pi*spacing*sin(az)*cos(el), so 2*pi covers spacings up to 1
_RATES = st.sampled_from(_EDGE_ANGLES) | st.floats(-TWO_PI, TWO_PI)


@settings(max_examples=200, deadline=None)
@given(rates=st.lists(_RATES, min_size=1, max_size=5),
       n=st.integers(1, 64) | st.integers(1, 8000))
def test_ramps_are_np_exp_bit_for_bit(rates, n):
    ramps = _ramps(np.array(rates), n)
    for k, rate in enumerate(rates):
        # the kernel's rate was a numpy scalar, steering_vector's a float
        assert _same_bits(ramps[k], np.exp(1j * np.float64(rate) * np.arange(n)))
        assert _same_bits(ramps[k], np.exp(1j * rate * np.arange(n)))


def test_steering_vector_is_np_exp_bit_for_bit():
    for azimuth in (0.0, 0.7, math.pi / 2, 3.5, 5.9):
        rate = TWO_PI * 0.5 * math.sin(azimuth) * math.cos(-0.3)
        assert _same_bits(steering_vector(8000, 0.5, azimuth, -0.3),
                          np.exp(1j * rate * np.arange(8000)))


@settings(max_examples=200, deadline=None)
@given(angles=st.lists(_RATES | st.floats(-1e6, 1e6), min_size=1,
                       max_size=8000))
def test_phasors_are_np_exp_bit_for_bit(angles):
    angles = np.array(angles)
    assert _same_bits(_phasors(angles + 0.0), np.exp(1j * angles))


_COEFF_PARTS = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(0, 6),
       n_rows=st.sampled_from([1, 1, 2, 7, 64, 8000]),
       n_cols=st.sampled_from([1, 1, 2, 5]))
def test_kernel_equals_the_per_path_exp_kernel_bit_for_bit(data, k, n_rows,
                                                           n_cols):
    parts = st.lists(_COEFF_PARTS, min_size=k, max_size=k)
    coeffs = np.empty(k, dtype=np.complex128)  # re + 1j*im would drop a -0.0
    coeffs.real = data.draw(parts)
    coeffs.imag = data.draw(parts)
    # a zero row rate makes the ramp of a terminal channel's one row
    row_rates = np.array(data.draw(st.lists(_RATES | st.just(0.0), min_size=k,
                                            max_size=k)))
    col_rates = np.array(data.draw(st.lists(_RATES, min_size=k, max_size=k)))
    got = accumulate_steering_outer(coeffs, row_rates, col_rates, n_rows, n_cols)
    want = oracles.reference_accumulate_steering_outer(coeffs, row_rates,
                                                       col_rates, n_rows, n_cols)
    assert _same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_samples=st.integers(1, 4), k=st.integers(0, 6),
       n_rows=st.sampled_from([1, 1, 2, 7, 64]),
       n_cols=st.sampled_from([1, 1, 2, 5]))
def test_block_kernel_equals_the_per_path_exp_kernel_bit_for_bit(
        data, n_samples, k, n_rows, n_cols):
    # the coefficient-first broadcast multiply over a block of samples
    parts = st.lists(_COEFF_PARTS, min_size=n_samples * k,
                     max_size=n_samples * k)
    coeffs = np.empty((n_samples, k), dtype=np.complex128)
    coeffs.real.flat = data.draw(parts)
    coeffs.imag.flat = data.draw(parts)
    rates = st.lists(_RATES | st.just(0.0), min_size=n_samples * k,
                     max_size=n_samples * k)
    row_rates = np.reshape(data.draw(rates), (n_samples, k))
    col_rates = np.reshape(data.draw(rates), (n_samples, k))
    got = _accumulate(coeffs, row_rates, col_rates, n_rows, n_cols)
    for s in range(n_samples):
        want = oracles.reference_accumulate_steering_outer(
            coeffs[s], row_rates[s], col_rates[s], n_rows, n_cols)
        assert _same_bits(got[s], want)


@st.composite
def _paths_of_a_link(draw, n_samples):
    """(one list of paths per sample, Doppler spread) of one link: float or
    complex amplitudes with signed-zero parts, zero delays and delays a tap
    lands on (sinc(0)), 1-3 taps and a sampling time per path."""
    k = draw(st.integers(1, 6))
    samples = []
    for _ in range(n_samples):
        paths = []
        for _ in range(k):
            sampling = draw(st.floats(1e-7, 2e-3))
            taps = draw(st.integers(1, 3))
            paths.append(_path(
                amplitude=draw(_COEFF_PARTS | st.builds(complex, _COEFF_PARTS,
                                                        _COEFF_PARTS)),
                delay_s=draw(st.sampled_from([0.0, sampling, 2 * sampling])
                             | st.floats(0.0, 2e-6)),
                sampling_time_s=sampling, cyclic_prefix_count=taps,
                azimuth_rad=draw(st.floats(0.0, TWO_PI, exclude_max=True)),
                elevation_rad=draw(st.floats(-math.pi / 2, math.pi / 2))))
        samples.append(paths)
    return samples, draw(st.just(0.0) | st.floats(1.0, 5e3))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n_samples=st.integers(1, 4), n_links=st.integers(1, 3),
       carrier=st.floats(1e8, 1e11))
def test_block_coefficients_equal_the_cmath_oracle_bit_for_bit(
        data, n_samples, n_links, carrier):
    links = [data.draw(_paths_of_a_link(n_samples)) for _ in range(n_links)]
    got = _path_coefficients([(PathTable.of(samples), doppler)
                              for samples, doppler in links], carrier)
    for coeffs, (samples, doppler) in zip(got, links):
        for row, paths in zip(coeffs, samples):
            want = oracles.reference_path_coefficients(paths, carrier, doppler)
            assert _same_bits(row, want)


@pytest.mark.parametrize("field, value, message", [
    ("amplitude", complex(math.inf, 0.0), "amplitude must be finite"),
    ("delay_s", -1e-9, "delay_s must be finite"),
    ("sampling_time_s", 0.0, "sampling_time_s must be finite"),
    ("cyclic_prefix_count", 0, "cyclic_prefix_count must be an integer"),
    ("azimuth_rad", TWO_PI, "azimuth_rad must lie"),
    ("elevation_rad", 2.0, "elevation_rad must lie"),
])
def test_a_block_refuses_a_bad_path_as_a_component_would(field, value,
                                                          message):
    with pytest.raises(ValueError, match=message):
        _path(**{field: value})
    cfg = PropagationConfig(carrier_frequency_hz=28e9, speed_mps=20.0)
    geom = ArrayGeometry(n_bs_antennas=1, n_ris_elements=4)
    good = PathTable.of([[_path(amplitude=0.5, delay_s=1e-8)] * 2] * 3)
    for link in range(3):
        tables = [good] * 3
        bad = getattr(good, field).copy()
        bad[1, 1] = value
        tables[link] = good._replace(**{field: bad})
        with pytest.raises(ValueError, match=message):
            link_rates(tables[0], tables[1], np.zeros((3, 2, 2)), tables[2],
                       cfg, geom)


# ---------------------------------------------------------------- channels


def test_empty_paths_give_zero_channels():
    cfg = PropagationConfig(carrier_frequency_hz=1e9)
    geom = ArrayGeometry(n_bs_antennas=3, n_ris_elements=4)
    np.testing.assert_array_equal(channel_bs_ue([], cfg, geom), np.zeros(3))
    np.testing.assert_array_equal(channel_bs_ris([], cfg, geom, []),
                                  np.zeros((4, 3)))
    np.testing.assert_array_equal(channel_ris_ue([], cfg, geom), np.zeros(4))


def test_single_path_hand_value():
    # one path, one pulse tap at zero delay (sinc(0) = 1), unit amplitude, no
    # Doppler: the only surviving phase is the elevation term, weighted by
    # k/K = 1
    cfg = PropagationConfig(carrier_frequency_hz=1.0, speed_mps=0.0)
    geom = ArrayGeometry(n_bs_antennas=1, n_ris_elements=1)
    path = _path(delay_s=0.0, azimuth_rad=0.0, elevation_rad=math.pi / 2)
    h = channel_bs_ue([path], cfg, geom)
    np.testing.assert_allclose(h, [cmath.exp(0.5j * math.pi)], atol=1e-15)


def test_identical_paths_cancel_through_spectral_weighting():
    # two identical half-second paths at f = 2 Hz: the k/K weights turn the
    # shared phase 2*pi into exp(-j*pi) and exp(-j*2*pi), which cancel. One
    # path alone keeps its pulse sinc(-0.5) = 2/pi, so the cancellation is
    # the weighting's doing, not a zero of the pulse.
    cfg = PropagationConfig(carrier_frequency_hz=2.0, speed_mps=0.0)
    geom = ArrayGeometry(n_bs_antennas=1, n_ris_elements=1)
    path = _path(delay_s=0.5)
    assert abs(channel_bs_ue([path], cfg, geom)[0]) > 0.5
    h = channel_bs_ue([path, path], cfg, geom)
    assert abs(h[0]) < 1e-12


def test_hop_channel_reduces_to_scalar_formula():
    cfg = PropagationConfig(carrier_frequency_hz=2e9, speed_mps=13.0)
    geom = ArrayGeometry(n_bs_antennas=1, n_ris_elements=1)
    path = _path(amplitude=0.5 + 0.25j, delay_s=3e-8, azimuth_rad=1.0,
                 elevation_rad=0.2)
    got = channel_bs_ris([path], cfg, geom, [(1.0, 0.2)])
    # no Doppler on the static hop, regardless of cfg.speed_mps
    want = oracles.naive_bs_ris([path], [(1.0, 0.2)], 2e9, 1, 1, 0.5)
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_hop_channel_ignores_sampling_time():
    # with a single pulse tap, the static hop's output cannot depend on t
    cfg = PropagationConfig(carrier_frequency_hz=2e9, speed_mps=13.0)
    geom = ArrayGeometry(n_bs_antennas=2, n_ris_elements=3)
    outs = []
    for t in (1e-6, 1e-3, 1.0):
        path = _path(delay_s=4e-8, sampling_time_s=t, azimuth_rad=0.7,
                     elevation_rad=-0.1)
        outs.append(channel_bs_ris([path], cfg, geom, [(0.7, -0.1)]))
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(outs[0], outs[2])


def test_departure_angles_steer_the_antenna_axis():
    cfg = PropagationConfig(carrier_frequency_hz=2e9)
    geom = ArrayGeometry(n_bs_antennas=4, n_ris_elements=2)
    path = _path(delay_s=1e-8, azimuth_rad=0.3)
    with_dep = channel_bs_ris([path], cfg, geom, departures=[(1.1, 0.0)])
    want = oracles.naive_bs_ris([path], [(1.1, 0.0)], 2e9, 2, 4, 0.5)
    np.testing.assert_allclose(with_dep, want, rtol=1e-13)
    with pytest.raises(ValueError):
        channel_bs_ris([path], cfg, geom, departures=[(1.1, 0.0), (0.0, 0.0)])


def test_zero_speed_outputs_are_sampling_time_independent():
    # v = 0 removes every t dependence of the phase; with one pulse tap the
    # outputs are equal across t for all three links
    cfg = PropagationConfig(carrier_frequency_hz=28e9, speed_mps=0.0)
    geom = ArrayGeometry(n_bs_antennas=2, n_ris_elements=3)
    rng = np.random.default_rng(3)
    base = _random_paths(rng, 4)
    outs = []
    for t in (1e-6, 1e-3, 1.0):
        paths = [_path(amplitude=p.amplitude, delay_s=p.delay_s,
                       sampling_time_s=t, cyclic_prefix_count=1,
                       azimuth_rad=p.azimuth_rad, elevation_rad=p.elevation_rad)
                 for p in base]
        outs.append((channel_bs_ue(paths, cfg, geom),
                     channel_ris_ue(paths, cfg, geom)))
    for direct, surface in outs[1:]:
        np.testing.assert_allclose(direct, outs[0][0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(surface, outs[0][1], rtol=1e-12, atol=0)


def test_channels_are_linear_in_amplitudes():
    cfg = PropagationConfig(carrier_frequency_hz=28e9, speed_mps=20.0)
    geom = ArrayGeometry(n_bs_antennas=2, n_ris_elements=5)
    rng = np.random.default_rng(11)
    paths = _random_paths(rng, 5)
    scale = 0.7 - 1.3j
    scaled = [_path(amplitude=scale * p.amplitude, delay_s=p.delay_s,
                    sampling_time_s=p.sampling_time_s,
                    cyclic_prefix_count=p.cyclic_prefix_count,
                    azimuth_rad=p.azimuth_rad, elevation_rad=p.elevation_rad)
              for p in paths]
    np.testing.assert_allclose(channel_bs_ue(scaled, cfg, geom),
                               scale * channel_bs_ue(paths, cfg, geom),
                               rtol=1e-12)
    np.testing.assert_allclose(channel_ris_ue(scaled, cfg, geom),
                               scale * channel_ris_ue(paths, cfg, geom),
                               rtol=1e-12)


def test_channels_match_scalar_loop_oracle():
    # 100 random instances across the three builders vs the cmath triple loop
    rng = np.random.default_rng(42)
    for i in range(100):
        cfg = PropagationConfig(carrier_frequency_hz=float(rng.uniform(1e9, 30e9)),
                                speed_mps=float(rng.uniform(0.0, 30.0)))
        m = int(rng.integers(1, 4))
        r = int(rng.integers(1, 7))
        geom = ArrayGeometry(n_bs_antennas=m, n_ris_elements=r)
        paths = _random_paths(rng, int(rng.integers(1, 7)))
        f_s = doppler_spread(cfg)
        which = i % 3
        if which == 0:
            got = channel_bs_ue(paths, cfg, geom)
            want = oracles.naive_bs_ue(paths, cfg.carrier_frequency_hz, f_s,
                                       m, 0.5)
        elif which == 1:
            departures = [(float(rng.uniform(0.0, TWO_PI)),
                           float(rng.uniform(-0.5, 0.5))) for _ in paths]
            got = channel_bs_ris(paths, cfg, geom, departures=departures)
            want = oracles.naive_bs_ris(paths, departures,
                                        cfg.carrier_frequency_hz, r, m, 0.5)
        else:
            got = channel_ris_ue(paths, cfg, geom)
            want = oracles.naive_ris_ue(paths, cfg.carrier_frequency_hz, f_s,
                                        r, 0.5)
        want = np.asarray(want)
        scale = max(float(np.max(np.abs(want))), 1e-300)
        assert float(np.max(np.abs(got - want))) / scale < 1e-12


# ---------------------------------------------------------------- reflection


def test_ris_matrix_values():
    zero = ris_matrix(RisConfig(amplitudes=np.zeros(3), phases=np.zeros(3)))
    np.testing.assert_array_equal(zero, np.zeros((3, 3)))
    ident = ris_matrix(RisConfig(amplitudes=np.ones(3), phases=np.zeros(3)))
    np.testing.assert_array_equal(ident, np.eye(3))
    quarter = ris_matrix(RisConfig(amplitudes=np.array([0.5]),
                                   phases=np.array([math.pi / 2])))
    np.testing.assert_allclose(quarter, np.array([[0.5j]]), atol=1e-16)


def test_effective_gain_with_surface_off_is_direct_gain():
    rng = np.random.default_rng(5)
    h_b = rng.normal(size=2) + 1j * rng.normal(size=2)
    h_u = rng.normal(size=4) + 1j * rng.normal(size=4)
    h_r = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    off = RisConfig(amplitudes=np.zeros(4), phases=np.zeros(4))
    np.testing.assert_array_equal(effective_gain(h_b, h_u, off, h_r), h_b)
    np.testing.assert_array_equal(
        effective_gain(h_b, h_u, np.zeros((4, 4), dtype=complex), h_r), h_b)


def test_effective_gain_identity_reflection():
    rng = np.random.default_rng(6)
    h_u = rng.normal(size=3) + 1j * rng.normal(size=3)
    h_r = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    got = effective_gain(np.zeros(2, dtype=complex), h_u,
                         np.eye(3, dtype=complex), h_r)
    np.testing.assert_allclose(got, h_u @ h_r, rtol=1e-15)


def test_effective_gain_scalar_arithmetic():
    got = effective_gain(np.array([1.0 + 0j]), np.array([2.0 + 0j]),
                         np.array([[0.5j]]), np.array([[3.0 + 0j]]))
    np.testing.assert_allclose(got, [1.0 + 3.0j], rtol=1e-15)


def test_effective_gain_diagonal_path_matches_dense_matrix():
    rng = np.random.default_rng(8)
    h_b = rng.normal(size=2) + 1j * rng.normal(size=2)
    h_u = rng.normal(size=6) + 1j * rng.normal(size=6)
    h_r = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    ris = RisConfig(amplitudes=rng.uniform(0.0, 1.0, 6),
                    phases=rng.uniform(0.0, TWO_PI, 6))
    fast = effective_gain(h_b, h_u, ris, h_r)
    dense = effective_gain(h_b, h_u, ris_matrix(ris), h_r)
    np.testing.assert_allclose(fast, dense, rtol=1e-13)


def test_effective_gain_rejects_bad_shapes():
    h_b = np.zeros(2, dtype=complex)
    h_u = np.zeros(3, dtype=complex)
    h_r = np.zeros((3, 2), dtype=complex)
    with pytest.raises(ValueError):
        effective_gain(h_b, h_u, np.zeros((2, 2), dtype=complex), h_r)
    with pytest.raises(ValueError):
        effective_gain(h_b, h_u, np.zeros((3, 3), dtype=complex),
                       np.zeros((4, 2), dtype=complex))
    with pytest.raises(ValueError):
        effective_gain(h_b, h_u,
                       RisConfig(amplitudes=np.ones(2), phases=np.zeros(2)),
                       h_r)


# ---------------------------------------------------------------- co-phasing


def test_co_phasing_scalar_hand_value():
    # h_b = 1, h_u = j, h_r = 1: the element phase must rotate j back onto
    # the positive real axis, giving |H| = 2
    cfg = co_phase_ris(np.array([1.0 + 0j]), np.array([[1.0 + 0j]]),
                       np.array([1.0j]))
    np.testing.assert_allclose(cfg.phases, [1.5 * math.pi], rtol=1e-12)
    gain = effective_gain(np.array([1.0 + 0j]), np.array([1.0j]), cfg,
                          np.array([[1.0 + 0j]]))
    assert math.isclose(abs(gain[0]), 2.0, rel_tol=1e-12)


def test_co_phasing_already_aligned_gives_zero_phases():
    h_b = np.array([2.0 + 0j])
    h_u = np.array([1.0 + 0j, 3.0 + 0j])
    h_r = np.array([[1.0 + 0j], [2.0 + 0j]])
    cfg = co_phase_ris(h_b, h_r, h_u)
    np.testing.assert_array_equal(cfg.phases, np.zeros(2))
    np.testing.assert_array_equal(cfg.amplitudes, np.ones(2))


def test_co_phasing_coherent_sum_identity():
    # |H @ w| equals |h_b @ w| + sum_i |h_u[i]| |(h_r @ w)[i]| once co-phased
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        r = int(rng.integers(1, 9))
        h_b = rng.normal(size=m) + 1j * rng.normal(size=m)
        h_u = rng.normal(size=r) + 1j * rng.normal(size=r)
        h_r = rng.normal(size=(r, m)) + 1j * rng.normal(size=(r, m))
        cfg = co_phase_ris(h_b, h_r, h_u)
        w = np.conj(h_b) / np.linalg.norm(h_b)
        combined = abs(effective_gain(h_b, h_u, cfg, h_r) @ w)
        want = abs(h_b @ w) + np.sum(np.abs(h_u) * np.abs(h_r @ w))
        assert math.isclose(combined, want, rel_tol=1e-10)


def test_co_phasing_beats_random_configurations():
    # spot check; the full 500-instance sweep runs in the acceptance suite
    rng = np.random.default_rng(23)
    snr = 10.0
    for _ in range(25):
        r = int(rng.integers(1, 9))
        h_b = rng.normal(size=1) + 1j * rng.normal(size=1)
        h_u = rng.normal(size=r) + 1j * rng.normal(size=r)
        h_r = rng.normal(size=(r, 1)) + 1j * rng.normal(size=(r, 1))
        best = data_rate(effective_gain(h_b, h_u, co_phase_ris(h_b, h_r, h_u),
                                        h_r), snr)
        for _ in range(20):
            random_cfg = RisConfig(amplitudes=np.ones(r),
                                   phases=rng.uniform(0.0, TWO_PI, r))
            contender = data_rate(effective_gain(h_b, h_u, random_cfg, h_r), snr)
            assert best > contender


def test_co_phasing_zero_direct_falls_back_to_cascade_alignment():
    rng = np.random.default_rng(29)
    r = 5
    h_b = np.zeros(1, dtype=complex)
    h_u = rng.normal(size=r) + 1j * rng.normal(size=r)
    h_r = rng.normal(size=(r, 1)) + 1j * rng.normal(size=(r, 1))
    cfg = co_phase_ris(h_b, h_r, h_u)
    # all cascaded contributions share one phase: their sum has the maximal
    # possible magnitude
    gain = effective_gain(h_b, h_u, cfg, h_r)
    want = np.sum(np.abs(h_u) * np.abs(h_r[:, 0]))
    assert math.isclose(abs(gain[0]), want, rel_tol=1e-10)


def test_co_phasing_all_zero_channels_is_still_valid():
    cfg = co_phase_ris(np.zeros(1, dtype=complex),
                       np.zeros((2, 1), dtype=complex),
                       np.zeros(2, dtype=complex))
    assert cfg.n_elements == 2
    assert np.all(cfg.phases >= 0.0) and np.all(cfg.phases < TWO_PI)


# ---------------------------------------------------------------- rate


def test_data_rate_values():
    assert data_rate(np.zeros(3, dtype=complex), 10.0) == 0.0
    assert math.isclose(data_rate(np.array([1.0 + 0j]), 1.0), 1.0,
                        rel_tol=1e-15)
    assert math.isclose(data_rate(np.array([1.0 + 0j]), 3.0), 2.0,
                        rel_tol=1e-15)


def test_data_rate_is_monotone():
    h = np.array([0.3 + 0.4j])
    assert data_rate(2.0 * h, 5.0) > data_rate(h, 5.0)
    assert data_rate(h, 6.0) > data_rate(h, 5.0)


def test_data_rate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        data_rate(np.array([1.0 + 0j]), -1.0)
    with pytest.raises(ValueError):
        data_rate(np.array([np.inf + 0j]), 1.0)


# ---------------------------------------------------------------- properties
#
# Single-antenna links (M = 1) with 1 to 64 surface elements. Each channel
# entry is a magnitude, zero or within six decades, at any phase.

_MAGNITUDE = st.just(0.0) | st.floats(1e-3, 1e3)
_PHASE = st.floats(-math.pi, math.pi)


def _entries(count):
    return st.builds(lambda m, p: np.asarray(m) * np.exp(1j * np.asarray(p)),
                     arrays(np.float64, count, elements=_MAGNITUDE),
                     arrays(np.float64, count, elements=_PHASE))


@st.composite
def _single_antenna_link(draw):
    r = draw(st.integers(1, 64))
    return (draw(_entries(1)), draw(_entries(r)), draw(_entries(r))[:, None])


def _rate(link, phases, snr):
    h_b, h_u, h_r = link
    surface = RisConfig(amplitudes=np.ones(h_u.shape[0]), phases=phases)
    return data_rate(effective_gain(h_b, h_u, surface, h_r), snr)


@settings(max_examples=100, deadline=None)
@given(link=_single_antenna_link(), snr=st.floats(1e-3, 1e10),
       phase_seed=st.integers(0, 2 ** 32 - 1))
def test_co_phased_rate_beats_random_and_quantized_phases(link, snr,
                                                          phase_seed):
    h_b, h_u, h_r = link
    aligned = co_phase_ris(h_b, h_r, h_u).phases
    best = _rate(link, aligned, snr)
    rng = np.random.default_rng(phase_seed)
    rivals = {"random": rng.uniform(0.0, TWO_PI, h_u.shape[0])}
    for bits in (1, 2):
        levels = 2 ** bits
        nearest = np.mod(np.round(aligned * levels / TWO_PI), levels)
        rivals[f"{bits}-bit"] = nearest * TWO_PI / levels
    for name, phases in rivals.items():
        rival = _rate(link, phases, snr)
        assert best >= rival * (1 - 1e-12), f"{name} phases won: {rival} > {best}"


@settings(max_examples=100, deadline=None)
@given(link=_single_antenna_link())
def test_co_phased_gain_is_the_sum_of_magnitudes(link):
    h_b, h_u, h_r = link
    gain = effective_gain(h_b, h_u, co_phase_ris(h_b, h_r, h_u), h_r)
    want = abs(h_b[0]) + math.fsum(abs(u) * abs(r)
                                   for u, r in zip(h_u, h_r[:, 0]))
    assert math.isclose(abs(gain[0]), want, rel_tol=1e-12, abs_tol=0.0)


@settings(max_examples=100, deadline=None)
@given(link=_single_antenna_link(),
       snrs=st.lists(st.floats(0.0, 1e12), min_size=2, max_size=8))
def test_data_rate_does_not_fall_as_snr_grows(link, snrs):
    h_b, h_u, _ = link
    for h in (h_b, h_u):
        rates = [data_rate(h, snr) for snr in sorted(snrs)]
        assert rates == sorted(rates)
