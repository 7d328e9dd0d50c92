"""Scene geometry, blockage labeling, trajectories, path synthesis, rendering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from risblock.channel import PropagationConfig, SPEED_OF_LIGHT_MPS
from risblock.scene import (Blocker, LinkStatus, Scene, SceneLayout,
                            draw_paths, generate_trajectory, link_status,
                            los_blocked, random_scene, render_image,
                            synthesize_mpcs)

PROP = PropagationConfig(carrier_frequency_hz=28e9, speed_mps=20.0)


def _open_scene(**kwargs):
    defaults = dict(bounds=(10.0, 10.0), bs_position=(0.0, 0.0),
                    ris_position=(0.0, 9.0))
    defaults.update(kwargs)
    return Scene(**defaults)


# ---------------------------------------------------------------- occlusion


def test_no_blockers_means_clear():
    assert not los_blocked((0.0, 0.0), (10.0, 0.0), ())


def test_blocker_straddling_the_segment_blocks():
    blk = Blocker(center=(5.0, 0.0), half_extents=(1.0, 1.0))
    assert los_blocked((0.0, 0.0), (10.0, 0.0), (blk,))


def test_blocker_strictly_above_the_segment_does_not_block():
    blk = Blocker(center=(5.0, 1.5), half_extents=(1.0, 0.5))  # x 4..6, y 1..2
    assert not los_blocked((0.0, 0.0), (10.0, 0.0), (blk,))


def test_contact_only_at_an_endpoint_does_not_block():
    blk = Blocker(center=(5.0, 0.0), half_extents=(1.0, 1.0))  # x 4..6
    assert not los_blocked((0.0, 0.0), (4.0, 0.0), (blk,))
    assert not los_blocked((6.0, 0.0), (10.0, 0.0), (blk,))


def test_axis_parallel_segment_hits_box():
    blk = Blocker(center=(5.0, 2.5), half_extents=(1.0, 0.5))
    assert los_blocked((5.0, 0.0), (5.0, 10.0), (blk,))
    assert not los_blocked((8.0, 0.0), (8.0, 10.0), (blk,))


def test_blocker_validation():
    blk = Blocker(center=(1.0, 1.0), half_extents=(0.5, 0.5))
    assert blk.contains((1.2, 0.8))
    assert blk.contains((1.5, 1.5))  # boundary is inside
    assert not blk.contains((1.6, 1.0))
    with pytest.raises(ValueError):
        Blocker(center=(0.0, 0.0), half_extents=(0.0, 1.0))


# ---------------------------------------------------------------- scene


def test_scene_validates_positions_and_zone():
    with pytest.raises(ValueError):
        _open_scene(bs_position=(-1.0, 0.0))
    with pytest.raises(ValueError):
        _open_scene(ue_zone=(5.0, 5.0, 4.0, 6.0))
    scene = _open_scene(ue_zone=(1.0, 1.0, 9.0, 9.0))
    assert scene.walk_region == (1.0, 1.0, 9.0, 9.0)
    assert _open_scene().walk_region == (0.0, 0.0, 10.0, 10.0)


def test_scene_rejects_obstructed_station_surface_link():
    blk = Blocker(center=(0.0, 5.0), half_extents=(0.5, 1.0))
    with pytest.raises(ValueError):
        _open_scene(blockers=(blk,))


def test_link_status_classification():
    blk = Blocker(center=(5.0, 2.5), half_extents=(1.0, 0.5))
    scene = _open_scene(blockers=(blk,))
    assert link_status(scene, None) is LinkStatus.ABSENT
    assert link_status(scene, (9.0, 4.5)) is LinkStatus.BLOCKED
    assert link_status(scene, (9.0, 0.5)) is LinkStatus.UNBLOCKED
    assert link_status(_open_scene(), (9.0, 4.5)) is LinkStatus.UNBLOCKED
    with pytest.raises(ValueError):
        link_status(scene, (11.0, 0.0))


# ---------------------------------------------------------------- trajectory


def test_zero_speed_walker_stays_put():
    rng = np.random.default_rng(1)
    traj = generate_trajectory(_open_scene(), 10, 0.0, 0.1, 0.0, rng)
    present = [p for p in traj if p is not None]
    assert len(present) == 10
    assert all(p == present[0] for p in present)


def test_always_absent_probability():
    rng = np.random.default_rng(2)
    traj = generate_trajectory(_open_scene(), 12, 5.0, 0.1, 1.0, rng)
    assert traj == (None,) * 12


def test_step_length_and_presence_without_absence():
    rng = np.random.default_rng(3)
    speed, dt = 5.0, 0.1
    traj = generate_trajectory(_open_scene(), 100, speed, dt, 0.0, rng)
    present = [p for p in traj if p is not None]
    assert len(present) == 100
    for a, b in zip(present, present[1:]):
        assert math.hypot(b[0] - a[0], b[1] - a[1]) <= speed * dt + 1e-9


def test_absent_steps_do_not_teleport_the_walker():
    # the walker holds position across absent steps, so any two successive
    # present positions still differ by at most one step
    rng = np.random.default_rng(4)
    speed, dt = 8.0, 0.1
    traj = generate_trajectory(_open_scene(), 200, speed, dt, 0.5, rng)
    present = [p for p in traj if p is not None]
    assert 0 < len(present) < 200
    for a, b in zip(present, present[1:]):
        assert math.hypot(b[0] - a[0], b[1] - a[1]) <= speed * dt + 1e-9


def test_walker_respects_zone_and_blockers():
    blk = Blocker(center=(5.0, 5.0), half_extents=(1.5, 1.5))
    scene = _open_scene(blockers=(blk,), ue_zone=(2.0, 2.0, 9.0, 9.0))
    rng = np.random.default_rng(5)
    traj = generate_trajectory(scene, 300, 6.0, 0.1, 0.1, rng)
    for p in traj:
        if p is None:
            continue
        assert 2.0 <= p[0] <= 9.0 and 2.0 <= p[1] <= 9.0
        assert not blk.contains(p)


def test_a_walk_region_covered_by_a_blocker_is_refused():
    # the blocker spans x 11..35 and y 3..37, over all of the zone
    blk = Blocker(center=(23.0, 20.0), half_extents=(12.0, 17.0))
    scene = Scene(bounds=(40.0, 40.0), bs_position=(2.0, 20.0),
                  ris_position=(2.0, 37.0), blockers=(blk,),
                  ue_zone=(12.0, 4.0, 34.0, 36.0))
    with pytest.raises(ValueError, match=r"walk region \(12.0, 4.0, 34.0, 36.0\)"):
        generate_trajectory(scene, 4, 20.0, 0.1, 0.0, np.random.default_rng(1))


def test_trajectory_is_deterministic():
    a = generate_trajectory(_open_scene(), 20, 5.0, 0.1, 0.3,
                            np.random.default_rng(9))
    b = generate_trajectory(_open_scene(), 20, 5.0, 0.1, 0.3,
                            np.random.default_rng(9))
    assert a == b


def test_trajectory_validates_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_trajectory(_open_scene(), 0, 5.0, 0.1, 0.0, rng)
    with pytest.raises(ValueError):
        generate_trajectory(_open_scene(), 5, -1.0, 0.1, 0.0, rng)
    with pytest.raises(ValueError):
        generate_trajectory(_open_scene(), 5, 5.0, 0.1, 1.5, rng)


# ---------------------------------------------------------------- synthesis


def test_absent_terminal_yields_empty_receive_paths():
    rng = np.random.default_rng(7)
    paths = synthesize_mpcs(_open_scene(), None, LinkStatus.ABSENT, PROP,
                            5, 5, 5, rng)
    assert paths.bs_ue == () and paths.ris_ue == ()
    assert len(paths.bs_ris) == 5
    assert len(paths.bs_ris_departures) == 5


def test_los_delay_is_distance_over_c():
    rng = np.random.default_rng(8)
    paths = synthesize_mpcs(_open_scene(), (3.0, 4.0), LinkStatus.UNBLOCKED,
                            PROP, 5, 5, 5, rng)
    # station at the origin, terminal at (3, 4): distance 5 by Pythagoras
    assert math.isclose(paths.bs_ue[0].delay_s, 5.0 / SPEED_OF_LIGHT_MPS,
                        rel_tol=1e-15)


def test_los_amplitude_is_free_space():
    rng = np.random.default_rng(9)
    paths = synthesize_mpcs(_open_scene(), (3.0, 4.0), LinkStatus.UNBLOCKED,
                            PROP, 5, 5, 5, rng)
    lam = PROP.wavelength_m
    assert math.isclose(abs(paths.bs_ue[0].amplitude),
                        lam / (4.0 * math.pi * 5.0), rel_tol=1e-12)
    assert paths.bs_ue[0].elevation_rad == 0.0


def test_geometric_sanity_across_random_scenes():
    # first path of every link: delay = distance/c (1e-15 relative) and
    # amplitude magnitude = wavelength/(4 pi d) (1e-12 relative)
    rng = np.random.default_rng(10)
    layout = SceneLayout()
    lam = PROP.wavelength_m
    for _ in range(20):
        scene = random_scene(layout, rng)
        x0, y0, x1, y1 = scene.walk_region
        ue = (float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1)))
        status = link_status(scene, ue)
        paths = synthesize_mpcs(scene, ue, status, PROP, 4, 4, 4, rng)
        pairs = [(paths.bs_ris[0], scene.ris_position, scene.bs_position),
                 (paths.ris_ue[0], scene.ris_position, ue)]
        if status is LinkStatus.UNBLOCKED:
            pairs.append((paths.bs_ue[0], scene.bs_position, ue))
        for los, src, dst in pairs:
            d = math.hypot(dst[0] - src[0], dst[1] - src[1])
            assert math.isclose(los.delay_s, d / SPEED_OF_LIGHT_MPS,
                                rel_tol=1e-15)
            assert math.isclose(abs(los.amplitude), lam / (4.0 * math.pi * d),
                                rel_tol=1e-12)


def test_blocked_los_is_attenuated_by_penetration_loss():
    ue = (6.0, 2.0)
    clear = synthesize_mpcs(_open_scene(), ue, LinkStatus.UNBLOCKED, PROP,
                            5, 5, 5, np.random.default_rng(11))
    hit = synthesize_mpcs(_open_scene(), ue, LinkStatus.BLOCKED, PROP,
                          5, 5, 5, np.random.default_rng(11))
    ratio = abs(hit.bs_ue[0].amplitude) / abs(clear.bs_ue[0].amplitude)
    assert math.isclose(ratio, 10.0 ** -1.5, rel_tol=1e-12)
    # surface-side links are never attenuated
    assert hit.ris_ue[0].amplitude == clear.ris_ue[0].amplitude
    assert hit.bs_ris[0].amplitude == clear.bs_ris[0].amplitude


def test_blocked_bounces_derive_from_the_attenuated_amplitude():
    ue = (6.0, 2.0)
    clear = synthesize_mpcs(_open_scene(), ue, LinkStatus.UNBLOCKED, PROP,
                            5, 5, 5, np.random.default_rng(12))
    hit = synthesize_mpcs(_open_scene(), ue, LinkStatus.BLOCKED, PROP,
                          5, 5, 5, np.random.default_rng(12))
    for blocked, unblocked in zip(hit.bs_ue[1:], clear.bs_ue[1:]):
        ratio = abs(blocked.amplitude) / abs(unblocked.amplitude)
        assert math.isclose(ratio, 10.0 ** -1.5, rel_tol=1e-9)


def test_bounce_paths_are_longer_and_weaker():
    rng = np.random.default_rng(13)
    paths = synthesize_mpcs(_open_scene(), (6.0, 2.0), LinkStatus.UNBLOCKED,
                            PROP, 6, 6, 6, rng)
    for group in (paths.bs_ue, paths.bs_ris, paths.ris_ue):
        los = group[0]
        assert len(group) == 6
        for bounce in group[1:]:
            assert 1.1 * los.delay_s <= bounce.delay_s <= 3.0 * los.delay_s
            assert abs(bounce.amplitude) <= 0.3 * abs(los.amplitude)
            assert abs(bounce.amplitude) >= 0.05 * abs(los.amplitude)
            assert abs(bounce.elevation_rad) <= math.pi / 6


def test_hop_departures_start_with_the_geometric_bearing():
    rng = np.random.default_rng(14)
    paths = synthesize_mpcs(_open_scene(), (6.0, 2.0), LinkStatus.UNBLOCKED,
                            PROP, 5, 5, 5, rng)
    az, el = paths.bs_ris_departures[0]
    # station (0,0) -> surface (0,9) points straight up the y axis
    assert math.isclose(az, math.pi / 2, rel_tol=1e-12)
    assert el == 0.0


def test_synthesis_validates_path_counts():
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError):
        synthesize_mpcs(_open_scene(), (6.0, 2.0), LinkStatus.UNBLOCKED, PROP,
                        0, 5, 5, rng)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), status=st.sampled_from(LinkStatus),
       counts=st.tuples(*[st.integers(1, 6)] * 3),
       ue=st.tuples(st.floats(12.0, 34.0), st.floats(4.0, 36.0)))
def test_synthesis_draws_as_one_value_at_a_time(seed, status, counts, ue):
    # repr tells -0.0 from 0.0 and a numpy scalar from a float
    scene = random_scene(SceneLayout(), np.random.default_rng(seed))
    if status is LinkStatus.ABSENT:
        ue = None
    rng, reference_rng = (np.random.default_rng([seed, 1]) for _ in range(2))
    got = synthesize_mpcs(scene, ue, status, PROP, *counts, rng)
    want = oracles.reference_synthesize_mpcs(scene, ue, status, PROP, *counts,
                                             reference_rng)
    assert repr(got) == repr(want)
    assert rng.random() == reference_rng.random()


@st.composite
def _layouts(draw):
    """SceneLayouts other than the default, whose blockers always leave the
    strip x > 32 of the zone (x 12..34) free, so every walk finds free
    points, and never reach the station->surface line at x = 2."""
    def pair(low, high, width):
        start = draw(st.floats(low, high))
        return (start, start + draw(st.floats(0.0, width)))

    def count():
        start = draw(st.integers(0, 4))
        return (start, start + draw(st.integers(0, 4)))

    return SceneLayout(
        dense_probability=draw(st.floats(0.0, 1.0)),
        dense_count=count(), dense_half_width=pair(0.1, 1.5, 1.0),
        dense_half_height=pair(0.5, 8.0, 4.0), sparse_count=count(),
        sparse_half_size=pair(0.1, 2.0, 1.0),
        blocker_x_range=pair(6.0, 20.0, 9.0),
        blocker_y_margin=draw(st.floats(0.0, 3.0)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_steps=st.integers(1, 12),
       speed=st.sampled_from([0.0, 1.5, 20.0]),
       absent=st.sampled_from([0.0, 1.0 / 3.0, 1.0]),
       layout=st.one_of(st.just(SceneLayout()), _layouts()))
def test_walk_draws_and_steps_as_on_arrays(seed, n_steps, speed, absent,
                                           layout):
    scene = random_scene(layout, np.random.default_rng(seed))
    rng, reference_rng = (np.random.default_rng([seed, 2]) for _ in range(2))
    got = generate_trajectory(scene, n_steps, speed, 0.1, absent, rng)
    want = oracles.reference_generate_trajectory(scene, n_steps, speed, 0.1,
                                                 absent, reference_rng)
    assert type(got) is tuple and len(got) == n_steps
    assert repr(got) == repr(want)
    assert rng.random() == reference_rng.random()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), layout=_layouts())
def test_random_scene_equals_its_oracle_bit_for_bit(seed, layout):
    rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
    got = random_scene(layout, rng)
    want = oracles.reference_random_scene(layout, reference_rng)
    assert repr(got) == repr(want)
    assert rng.random() == reference_rng.random()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), status=st.sampled_from(LinkStatus),
       counts=st.tuples(*[st.integers(1, 6)] * 3))
def test_path_values_equal_one_uniform_per_value_bit_for_bit(seed, status,
                                                             counts):
    scene = random_scene(SceneLayout(), np.random.default_rng(seed))
    ue = None if status is LinkStatus.ABSENT else (20.0, 20.0)
    n_bs_ue, n_bs_ris, n_ris_ue = counts
    n_bounces = n_bs_ris - 1
    if ue is not None:
        n_bounces += n_bs_ue - 1 + n_ris_ue - 1
    rng, reference_rng = (np.random.default_rng([seed, 4]) for _ in range(2))
    got = draw_paths(scene, ue, status, PROP, *counts, rng).values
    want = oracles.reference_path_values(n_bounces, n_bs_ris - 1,
                                         reference_rng)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert rng.random() == reference_rng.random()


# ---------------------------------------------------------------- rendering


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), layout=_layouts(),
       status=st.sampled_from(LinkStatus),
       ue=st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)),
       height=st.integers(8, 96), width=st.integers(8, 96))
def test_render_equals_its_oracle_bit_for_bit(seed, layout, status, ue,
                                              height, width):
    scene = random_scene(layout, np.random.default_rng(seed))
    if status is LinkStatus.ABSENT:
        ue = None
    dims = (height, width, 3)
    got = render_image(scene, ue, status, dims)
    want = oracles.reference_render_image(scene, ue, status, dims)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous and got.flags.writeable
    assert got.tobytes() == want.tobytes()


def test_render_shape_dtype_and_range():
    img = render_image(_open_scene(), (6.0, 2.0), LinkStatus.UNBLOCKED)
    assert img.shape == (64, 64, 3)
    assert img.dtype == np.float32
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_absent_and_blocked_render_identically():
    blk = Blocker(center=(5.0, 2.5), half_extents=(1.0, 0.5))
    scene = _open_scene(blockers=(blk,))
    ue = (9.0, 4.5)
    absent = render_image(scene, None, LinkStatus.ABSENT)
    blocked = render_image(scene, ue, LinkStatus.BLOCKED)
    clear = render_image(scene, ue, LinkStatus.UNBLOCKED)
    assert absent.tobytes() == blocked.tobytes()
    assert clear.tobytes() != blocked.tobytes()
    assert np.any(clear[:, :, 2] > 0.0)
    assert not np.any(blocked[:, :, 2] > 0.0)


def test_terminal_pixel_mapping():
    scene = Scene(bounds=(100.0, 100.0), bs_position=(1.0, 1.0),
                  ris_position=(1.0, 99.0))
    img = render_image(scene, (50.0, 50.0), LinkStatus.UNBLOCKED,
                       dims=(64, 64, 3))
    # affine map: 50/100 * 64 = 32 on both axes; the marker is a 5x5 stamp
    marker = np.argwhere(img[:, :, 2] > 0.0)
    assert img[32, 32, 2] == 1.0
    np.testing.assert_array_equal(marker.min(axis=0), [30, 30])
    np.testing.assert_array_equal(marker.max(axis=0), [34, 34])


def test_render_channels_hold_the_right_geometry():
    blk = Blocker(center=(5.0, 5.0), half_extents=(1.0, 1.0))
    scene = _open_scene(blockers=(blk,))
    img = render_image(scene, None, LinkStatus.ABSENT)
    assert np.any(img[:, :, 0] > 0.0)  # blocker occupancy
    assert np.any(img[:, :, 1] > 0.0)  # station + surface markers
    assert not np.any(img[:, :, 2] > 0.0)
    # blocker footprint is the scaled rectangle
    rows, cols = np.nonzero(img[:, :, 0])
    assert cols.min() == int(4.0 / 10.0 * 64) and cols.max() == int(6.0 / 10.0 * 64)
    assert rows.min() == int(4.0 / 10.0 * 64) and rows.max() == int(6.0 / 10.0 * 64)


def test_render_rejects_tiny_dims():
    with pytest.raises(ValueError):
        render_image(_open_scene(), None, LinkStatus.ABSENT, dims=(4, 64, 3))
    with pytest.raises(ValueError):
        render_image(_open_scene(), None, LinkStatus.ABSENT, dims=(64, 64, 1))


# ---------------------------------------------------------------- layouts


def test_random_scene_respects_layout():
    layout = SceneLayout()
    rng = np.random.default_rng(16)
    saw_dense = saw_sparse = False
    for _ in range(60):
        scene = random_scene(layout, rng)
        count = len(scene.blockers)
        if count >= layout.dense_count[0]:
            saw_dense = True
        if count <= layout.sparse_count[1]:
            saw_sparse = True
        assert scene.bs_position == layout.bs_position
        assert scene.ue_zone == layout.ue_zone
        for blk in scene.blockers:
            cx, cy = blk.center
            hx, hy = blk.half_extents
            assert layout.blocker_x_range[0] <= cx <= layout.blocker_x_range[1]
            assert cy - hy >= layout.blocker_y_margin - 1e-9
            assert cy + hy <= layout.bounds[1] - layout.blocker_y_margin + 1e-9
    assert saw_dense and saw_sparse


@pytest.mark.parametrize("field, value", [
    ("dense_count", (7, 4)),
    ("sparse_count", (-1, 1)),
    ("dense_half_width", (1.25, 0.5)),
    ("dense_half_height", (9.0, 5.0)),
    ("dense_half_height", (25.0, 30.0)),
    ("sparse_half_size", (21.0, 22.0)),
    ("sparse_half_size", (0.0, 2.0)),
    ("blocker_x_range", (31.0, 7.0)),
    ("blocker_x_range", (7.0, math.inf)),
    ("blocker_y_margin", 17.0),
    # blockers across the station->surface line at x = 2, or outside the
    # 40 m bounds: random_scene failed on the first, and render_image
    # painted the second as a wall on the image's edge
    ("blocker_x_range", (1.0, 3.0)),
    ("blocker_x_range", (3.0, 20.0)),
    ("blocker_x_range", (50.0, 60.0)),
    ("blocker_x_range", (7.0, 39.0)),
    ("dense_half_width", (0.5, 6.0)),
    ("sparse_half_size", (0.8, 9.5)),
    ("blocker_y_margin", -1.0),
])
def test_layout_refuses_a_range_a_draw_could_not_take(field, value):
    # each of these was accepted, and the dense half height failed in
    # random_scene's first dense draw with numpy's "high - low < 0"
    with pytest.raises(ValueError, match=field):
        SceneLayout(**{field: value})


@pytest.mark.parametrize("x", [5.0, 10.0, 20.0, 33.0])
def test_layout_refuses_a_surface_link_its_blockers_could_cross(x):
    # the default blockers span x 5..33: a station->surface line there
    # could be crossed; one at x = 4 or 35 could not
    with pytest.raises(ValueError, match="blocker_x_range"):
        SceneLayout(bs_position=(x, 20.0), ris_position=(x, 37.0))
    for free in (4.0, 35.0):
        SceneLayout(bs_position=(free, 20.0), ris_position=(free, 37.0))


def test_random_scene_is_deterministic():
    layout = SceneLayout()
    a = random_scene(layout, np.random.default_rng(17))
    b = random_scene(layout, np.random.default_rng(17))
    assert a == b
