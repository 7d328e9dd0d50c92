"""Plan-view scene simulator: geometry, blockage, trajectories, path synthesis.

A scene is a 2-D top-down floor plan (x = width, y = depth, meters) holding a
base station, a reflective surface, and axis-aligned rectangular blockers.
The surface is placed so its link to the station is never obstructed; only
the direct station -> terminal segment can be blocked. A link has one of
three statuses: the terminal is absent, present with clear line of sight, or
present but blocked. A terminal's walk is the tuple of its positions, None
at each step where it is absent.

Path synthesis turns the geometry of a present terminal into multipath
components for the three channel blocks; an absent terminal has no paths.
The first path of each list is the geometric line-of-sight path (delay =
distance/c, amplitude = wavelength/(4*pi*distance), elevation 0); the
remaining paths are scatterer bounces with delays stretched by
Uniform(1.1, 3), amplitudes scaled by Uniform(0.05, 0.3) with a random phase,
azimuths uniform on [0, 2*pi) and elevations uniform on (-pi/6, pi/6).
A blocked direct link attenuates the line-of-sight amplitude by
10^(-penetration_loss_db/20) before the bounce amplitudes are drawn from it,
so the whole blocked bundle is degraded coherently. Surface-side links are
never attenuated. Every synthesized path uses a single pulse tap and a fixed
1 ms sampling time. A sample's path values come from one batched draw, in
the order that one draw per value would take them from the stream: each
bounce's delay stretch, amplitude scale, phase, azimuth and elevation
(station->terminal, surface->terminal, then station->surface), then the
station->surface departures.

Every value is taken from the stream as numpy's own uniform draw computes
it, low + (high - low) * next_double, written out: a scalar draw (a
blocker's size and centre, a waypoint) is `low + (high - low) *
rng.random()`, and a sample's path values are `low + span * rng.random(n)`
over the cached (low, span) arrays of its draw order. rng.random takes the
same next_double from the stream that rng.uniform does, so the doubles and
the stream left behind are those of one rng.uniform call per value, without
its per-call conversion of the bounds, broadcasting and range checks. The
range checks are what this gives up: rng.uniform refuses a reversed or
non-finite range when it draws, so SceneLayout refuses one when it is made,
Scene refuses a walk region that is empty or outside its bounds, and the
path draw's ranges are constants. A walk tests its points against
each blocker's (x0, x1, y0, y1) bounds (Blocker.bounds), taken once a walk.

Synthesis has a per-sample half and a block half, so that the dataset
generator can do the array work once for many samples. `draw_paths` takes
what is the sample's own: the geometry of its line-of-sight paths and its
one draw of path values. `path_tables` turns a block of such draws into a
channel.PathTable per link, (samples, paths) arrays, in a few array
passes: a bounce's amplitude is CPython's float-times-complex product
written out term by term (channel.complex_product), numpy's cos and sin
give libm's bytes, and numpy's mod is Python's %, so the tables hold the
values the per-path Python gave. `synthesize_mpcs` is the two run on one
sample: its tables hold one sample each.

Rendering produces an H x W x 3 float image in [0, 1]: channel 0 holds the
blocker occupancy, channel 1 the station and surface markers, and channel 2
the terminal marker -- drawn only when the status is "unblocked", which makes
absent and blocked scenes byte-identical on purpose. The markers of channel
1 are stamped once per (bounds, station, surface, size) into a cached
read-only image, which each render copies before it draws the blockers and
the terminal: every write is 1.0 onto one channel, so the order of the
writes does not change the image.
"""

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from risblock.channel import (SPEED_OF_LIGHT_MPS, TWO_PI, PathTable,
                              complex_product)


class LinkStatus(IntEnum):
    """Ternary link label: -1 absent, 0 present and clear, 1 present but blocked."""

    ABSENT = -1
    UNBLOCKED = 0
    BLOCKED = 1


@dataclass(frozen=True)
class Blocker:
    """Axis-aligned rectangle given by center and half extents (meters)."""

    center: tuple
    half_extents: tuple

    def __post_init__(self):
        cx, cy = self.center
        hx, hy = self.half_extents
        if not all(math.isfinite(v) for v in (cx, cy, hx, hy)):
            raise ValueError("blocker center/half_extents must be finite")
        if hx <= 0 or hy <= 0:
            raise ValueError("blocker half_extents must be > 0")

    @property
    def bounds(self):
        """(x0, x1, y0, y1): the closed rectangle's edges."""
        cx, cy = self.center
        hx, hy = self.half_extents
        return cx - hx, cx + hx, cy - hy, cy + hy

    def contains(self, point):
        return _inside_any((self.bounds,), point)


def _inside_any(boxes, point):
    """True when point lies in any of the closed (x0, x1, y0, y1) boxes."""
    x, y = point
    for x0, x1, y0, y1 in boxes:
        if x0 <= x <= x1 and y0 <= y <= y1:
            return True
    return False


def _segment_hits_box(a, b, blocker):
    """True when the open segment (a, b) meets the closed rectangle (slab test)."""
    t0, t1 = 0.0, 1.0
    for axis in range(2):
        lo = blocker.center[axis] - blocker.half_extents[axis]
        hi = blocker.center[axis] + blocker.half_extents[axis]
        d = b[axis] - a[axis]
        if d == 0.0:
            if a[axis] < lo or a[axis] > hi:
                return False
        else:
            t_enter = (lo - a[axis]) / d
            t_exit = (hi - a[axis]) / d
            if t_enter > t_exit:
                t_enter, t_exit = t_exit, t_enter
            t0 = max(t0, t_enter)
            t1 = min(t1, t_exit)
            if t0 > t1:
                return False
    # exclude contact confined to the segment's endpoints
    return t0 < 1.0 and t1 > 0.0


def los_blocked(a, b, blockers):
    """True when any blocker interrupts the open segment between a and b."""
    return any(_segment_hits_box(a, b, blk) for blk in blockers)


@dataclass(frozen=True)
class Scene:
    """Floor plan with a station, a surface, and rectangular blockers.

    bounds               (width, depth) in meters; the world is [0, w] x [0, d]
    bs_position          station position (x, y)
    ris_position         surface position (x, y); its station link must be clear
    blockers             rectangles that can obstruct the direct link
    penetration_loss_db  amplitude loss applied to a blocked direct path
    ue_zone              optional (xmin, ymin, xmax, ymax) region the terminal
                         walks in; defaults to the full bounds
    """

    bounds: tuple
    bs_position: tuple
    ris_position: tuple
    blockers: tuple = ()
    penetration_loss_db: float = 30.0
    ue_zone: tuple = None

    def __post_init__(self):
        w, d = self.bounds
        if not (math.isfinite(w) and math.isfinite(d) and w > 0 and d > 0):
            raise ValueError("bounds must be finite and > 0")
        for name, pos in (("bs_position", self.bs_position),
                          ("ris_position", self.ris_position)):
            if not (0 <= pos[0] <= w and 0 <= pos[1] <= d):
                raise ValueError(f"{name} must lie inside the bounds")
        if not (math.isfinite(self.penetration_loss_db) and self.penetration_loss_db >= 0):
            raise ValueError("penetration_loss_db must be finite and >= 0")
        object.__setattr__(self, "blockers", tuple(self.blockers))
        if los_blocked(self.bs_position, self.ris_position, self.blockers):
            raise ValueError("blockers must not obstruct the station-surface link")
        if self.ue_zone is not None:
            x0, y0, x1, y1 = self.ue_zone
            if not (0 <= x0 < x1 <= w and 0 <= y0 < y1 <= d):
                raise ValueError("ue_zone must be a non-empty region inside bounds")

    @property
    def walk_region(self):
        if self.ue_zone is not None:
            return self.ue_zone
        return (0.0, 0.0, self.bounds[0], self.bounds[1])


def link_status(scene, ue_position):
    """Classify the direct link: absent terminal, clear, or blocked."""
    if ue_position is None:
        return LinkStatus.ABSENT
    w, d = scene.bounds
    if not (0 <= ue_position[0] <= w and 0 <= ue_position[1] <= d):
        raise ValueError(f"ue_position {tuple(ue_position)} outside bounds {scene.bounds}")
    if los_blocked(scene.bs_position, ue_position, scene.blockers):
        return LinkStatus.BLOCKED
    return LinkStatus.UNBLOCKED


def _uniform(rng, low, high):
    """rng.uniform(low, high) for a range known to be finite and ordered:
    the same double, from the same next_double (see the module docstring)."""
    return low + (high - low) * rng.random()


def _random_free_point(region, boxes, rng, max_tries=64):
    """A uniform point of region (x0, y0, x1, y1) outside every box."""
    x0, y0, x1, y1 = region
    for _ in range(max_tries):
        point = (_uniform(rng, x0, x1), _uniform(rng, y0, y1))
        if not _inside_any(boxes, point):
            return point
    raise ValueError(f"walk region {tuple(region)} has no point outside the "
                     f"blockers in {max_tries} draws")


def generate_trajectory(scene, n_steps, speed_mps, step_time_s, absent_probability,
                        rng):
    """Random-waypoint walk with per-step absence: the tuple of its n_steps
    positions, None where the terminal is absent.

    Each step first draws an absence coin; absent steps record None and leave
    the walker in place, so any two successive recorded positions differ by
    at most speed * step_time. Waypoints (and stepped positions) avoid
    blocker interiors; a walk region in which 64 draws find no free point
    raises ValueError.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if speed_mps < 0 or step_time_s <= 0:
        raise ValueError("speed_mps must be >= 0 and step_time_s > 0")
    if not 0 <= absent_probability <= 1:
        raise ValueError("absent_probability must lie in [0, 1]")

    max_step = speed_mps * step_time_s
    # (x, y) pairs of floats; np.hypot as on arrays, since math.hypot
    # computes its own way and may round differently
    region = scene.walk_region
    boxes = [blk.bounds for blk in scene.blockers]
    current = _random_free_point(region, boxes, rng)
    target = _random_free_point(region, boxes, rng)
    positions = []
    for _ in range(n_steps):
        if rng.random() < absent_probability:
            positions.append(None)
            continue
        candidate = current
        for _ in range(64):
            dx, dy = target[0] - current[0], target[1] - current[1]
            dist = float(np.hypot(dx, dy))
            if dist <= max_step:
                candidate = target
                target = _random_free_point(region, boxes, rng)
            elif max_step > 0:
                scale = max_step / dist
                candidate = (current[0] + dx * scale, current[1] + dy * scale)
            else:
                candidate = current
            if not _inside_any(boxes, candidate):
                break
            target = _random_free_point(region, boxes, rng)
            candidate = current
        current = candidate
        positions.append(current)
    return tuple(positions)


PATH_SAMPLING_TIME_S = 1e-3

NLOS_DELAY_STRETCH = (1.1, 3.0)
NLOS_AMPLITUDE_SCALE = (0.05, 0.3)
NLOS_ELEVATION_SPAN = math.pi / 6


class PathDraw(NamedTuple):
    """What path synthesis takes of one sample before its block: the
    (amplitude, delay, azimuth) of each link's line-of-sight path (station
    ->terminal, surface->terminal, then station->surface), the bearing of
    the station->surface departure, and the sample's one draw of bounce and
    departure values."""

    los: tuple
    departure: float
    values: np.ndarray


class PathTables(NamedTuple):
    """The paths of a block of samples: a channel.PathTable per link, and
    the station->surface departures as a (samples, paths, 2) array of
    (azimuth, elevation)."""

    bs_ue: PathTable
    bs_ris: PathTable
    ris_ue: PathTable
    bs_ris_departures: np.ndarray


def _bearing(src, dst):
    return math.atan2(dst[1] - src[1], dst[0] - src[0]) % TWO_PI


def _los_path(src, dst, wavelength_m, amplitude_scale):
    """(amplitude, delay) of the line-of-sight path from src to dst."""
    dist = math.hypot(dst[0] - src[0], dst[1] - src[1])
    if dist <= 0:
        raise ValueError("endpoints must be distinct")
    return (amplitude_scale * wavelength_m / (4.0 * math.pi * dist),
            dist / SPEED_OF_LIGHT_MPS)


# (low, high) of each value a bounce draws, in draw order: delay stretch,
# amplitude scale, phase, azimuth, elevation; then of a departure's azimuth
# and elevation
_BOUNCE_DRAWS = (NLOS_DELAY_STRETCH, NLOS_AMPLITUDE_SCALE, (0.0, TWO_PI),
                 (0.0, TWO_PI), (-NLOS_ELEVATION_SPAN, NLOS_ELEVATION_SPAN))
_DEPARTURE_DRAWS = ((0.0, TWO_PI), (-NLOS_ELEVATION_SPAN, NLOS_ELEVATION_SPAN))


@lru_cache(maxsize=16)
def _draw_bounds(n_bounces, n_departures):
    """(low, span) arrays of the values drawn for n_bounces bounces and
    n_departures departures, in draw order, span being high - low as
    rng.uniform computes it. Read-only, since every sample with these
    counts shares them: building them took about as long as the draw."""
    low, high = np.array(_BOUNCE_DRAWS * n_bounces
                         + _DEPARTURE_DRAWS * n_departures).reshape(-1, 2).T
    span = high - low
    low.flags.writeable = span.flags.writeable = False
    return low, span


def draw_paths(scene, ue_position, status, prop_cfg, n_bs_ue, n_bs_ris,
               n_ris_ue, rng):
    """The per-sample half of synthesize_mpcs: a PathDraw of the line-of-
    sight paths and of the sample's one rng.random call, which takes the
    values in the order the module docstring gives. path_tables turns a
    block of them into the sample's paths. The terminal must be present: an
    absent one has no paths, and raises ValueError."""
    if status == LinkStatus.ABSENT or ue_position is None:
        raise ValueError("an absent terminal has no paths")
    for name, n in (("n_bs_ue", n_bs_ue), ("n_bs_ris", n_bs_ris),
                    ("n_ris_ue", n_ris_ue)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1")
    wavelength = prop_cfg.wavelength_m
    bs, ris = scene.bs_position, scene.ris_position
    low, span = _draw_bounds(n_bs_ue + n_bs_ris + n_ris_ue - 3, n_bs_ris - 1)
    values = low + span * rng.random(low.size)

    penetration = 1.0
    if status == LinkStatus.BLOCKED:
        penetration = 10.0 ** (-scene.penetration_loss_db / 20.0)
    los = tuple((*_los_path(src, dst, wavelength, scale), _bearing(src, dst))
                for src, dst, scale in ((bs, ue_position, penetration),
                                        (ris, ue_position, 1.0), (ris, bs, 1.0)))
    return PathDraw(los=los, departure=_bearing(bs, ris), values=values)


def path_tables(draws, n_bs_ue, n_bs_ris, n_ris_ue):
    """The PathTables of a block of PathDraws made with these path counts.

    The links' paths are built side by side, in draw order, as one table
    whose column slices are the links' tables. A bounce's amplitude is
    abs(los amplitude) * scale times complex(cos(phase), sin(phase)), as
    CPython multiplies a float by a complex (channel.complex_product).
    """
    n_samples = len(draws)
    los = np.array([draw.los for draw in draws])     # (samples, links, 3)
    values = np.stack([draw.values for draw in draws])
    # path counts in draw order: station->terminal, surface->terminal,
    # station->surface
    counts = [n_bs_ue, n_ris_ue, n_bs_ris]
    stops = list(accumulate(counts))
    first = [stop - count for count, stop in zip(counts, stops)]
    # the link of each bounce, and each bounce's column
    link = [i for i, count in enumerate(counts) for _ in range(count - 1)]
    bounce = [column for start, stop in zip(first, stops)
              for column in range(start + 1, stop)]
    stretch, scale, phase, azimuth, elevation = values[
        :, :len(_BOUNCE_DRAWS) * len(link)].reshape(
            n_samples, len(link), len(_BOUNCE_DRAWS)).transpose(2, 0, 1)
    los_amplitude, los_delay, los_azimuth = los.transpose(2, 0, 1)

    shape = (n_samples, stops[-1])
    paths = PathTable(amplitude=np.empty(shape, dtype=np.complex128),
                      delay_s=np.empty(shape),
                      sampling_time_s=np.full(shape, PATH_SAMPLING_TIME_S),
                      cyclic_prefix_count=np.ones(shape, dtype=np.int64),
                      azimuth_rad=np.empty(shape),
                      elevation_rad=np.zeros(shape))
    paths.amplitude[:, first] = los_amplitude
    paths.amplitude.real[:, bounce], paths.amplitude.imag[:, bounce] = \
        complex_product(np.abs(los_amplitude)[:, link] * scale, 0.0,
                        np.cos(phase), np.sin(phase))
    paths.delay_s[:, first] = los_delay
    paths.delay_s[:, bounce] = los_delay[:, link] * stretch
    paths.azimuth_rad[:, first] = los_azimuth
    paths.azimuth_rad[:, bounce] = np.mod(azimuth, TWO_PI)
    paths.elevation_rad[:, bounce] = elevation
    bs_ue, ris_ue, bs_ris = [PathTable(*(col[:, start:stop] for col in paths))
                             for start, stop in zip(first, stops)]

    departures = np.empty((n_samples, n_bs_ris, 2))
    departures[:, 0, 0] = [draw.departure for draw in draws]
    departures[:, 0, 1] = 0.0
    departures[:, 1:] = values[:, len(_BOUNCE_DRAWS) * len(link):].reshape(
        n_samples, n_bs_ris - 1, 2)
    return PathTables(bs_ue=bs_ue, bs_ris=bs_ris, ris_ue=ris_ue,
                      bs_ris_departures=departures)


def synthesize_mpcs(scene, ue_position, status, prop_cfg, n_bs_ue, n_bs_ris,
                    n_ris_ue, rng):
    """The PathTables of one sample's paths on all three links, each
    column (1, paths), with the (1, paths, 2) station->surface departure
    angles (geometric for the first path, random for bounces).

    Path counts are per link, line of sight included. The terminal must be
    present: an absent one has no paths, and raises ValueError (its rates
    are the generator's 0.0). This is draw_paths and path_tables run on one
    sample.
    """
    counts = (n_bs_ue, n_bs_ris, n_ris_ue)
    return path_tables([draw_paths(scene, ue_position, status, prop_cfg,
                                   *counts, rng)], *counts)


def _to_pixel(position, bounds, width, height):
    col = min(max(int(position[0] / bounds[0] * width), 0), width - 1)
    row = min(max(int(position[1] / bounds[1] * height), 0), height - 1)
    return row, col


def _stamp(img, channel, row, col, half):
    h, w = img.shape[:2]
    r0, r1 = max(row - half, 0), min(row + half, h - 1)
    c0, c1 = max(col - half, 0), min(col + half, w - 1)
    img[r0:r1 + 1, c0:c1 + 1, channel] = 1.0


def check_image_dims(dims):
    """Raise ValueError unless dims is a renderable (H >= 8, W >= 8, 3)."""
    height, width, channels = dims
    if height < 8 or width < 8 or channels != 3:
        raise ValueError("dims must be (H >= 8, W >= 8, 3)")


@lru_cache(maxsize=16)
def _markers(bounds, bs_position, ris_position, height, width):
    """The height x width image of channel 1's station and surface markers
    alone. Read-only, since every render of these markers shares it."""
    img = np.zeros((height, width, 3), dtype=np.float32)
    for pos in (bs_position, ris_position):
        row, col = _to_pixel(pos, bounds, width, height)
        _stamp(img, 1, row, col, 1)
    img.flags.writeable = False
    return img


def render_image(scene, ue_position, status, dims=(64, 64, 3)):
    """Top-down raster of the scene, H x W x 3 float32 in [0, 1].

    Channel 0: blocker occupancy. Channel 1: station and surface markers
    (3x3). Channel 2: terminal marker (5x5), drawn only for an unblocked
    link, so absent and blocked renders of the same scene are identical.
    """
    check_image_dims(dims)
    height, width, _ = dims
    img = _markers(tuple(scene.bounds), tuple(scene.bs_position),
                   tuple(scene.ris_position), height, width).copy()

    for blk in scene.blockers:
        x0, x1, y0, y1 = blk.bounds
        r0, c0 = _to_pixel((x0, y0), scene.bounds, width, height)
        r1, c1 = _to_pixel((x1, y1), scene.bounds, width, height)
        img[r0:r1 + 1, c0:c1 + 1, 0] = 1.0

    if status == LinkStatus.UNBLOCKED and ue_position is not None:
        row, col = _to_pixel(ue_position, scene.bounds, width, height)
        _stamp(img, 2, row, col, 2)
    return img


@dataclass(frozen=True)
class SceneLayout:
    """Distribution parameters for randomly drawn scenes.

    Scenes come in two kinds: dense layouts with several wall-like blockers
    (the direct link is usually obstructed when the terminal is present) and
    sparse layouts with at most one small blocker (the link is usually
    clear). The mix makes the rendered blocker pattern an informative prior
    for the otherwise ambiguous absent/blocked pair.

    Every (low, high) pair a draw uses must be finite and ordered, the
    counts non-negative and the half sizes positive, the tallest blocker
    must leave its centre a y-range, and every blocker a draw can make must
    stay inside the bounds and off the station-surface line: random_scene
    draws without rng.uniform's range checks, so a layout that passes here
    never fails mid-run.
    """

    bounds: tuple = (40.0, 40.0)
    bs_position: tuple = (2.0, 20.0)
    ris_position: tuple = (2.0, 37.0)
    ue_zone: tuple = (12.0, 4.0, 34.0, 36.0)
    penetration_loss_db: float = 30.0
    dense_probability: float = 0.5
    dense_count: tuple = (4, 7)
    dense_half_width: tuple = (0.5, 1.25)
    dense_half_height: tuple = (5.0, 9.0)
    sparse_count: tuple = (0, 1)
    sparse_half_size: tuple = (0.8, 2.0)
    blocker_x_range: tuple = (7.0, 31.0)
    blocker_y_margin: float = 0.5

    def __post_init__(self):
        if not 0 <= self.dense_probability <= 1:
            raise ValueError("dense_probability must lie in [0, 1]")
        # the blocker-free scene every draw starts from checks the bounds,
        # the two positions and the zone
        Scene(self.bounds, self.bs_position, self.ris_position,
              penetration_loss_db=self.penetration_loss_db,
              ue_zone=self.ue_zone)
        for name in ("dense_count", "sparse_count"):
            low, high = getattr(self, name)
            if not 0 <= low <= high:
                raise ValueError(f"{name} must be (low, high) with "
                                 f"0 <= low <= high, not {(low, high)}")
        half_sizes = ("dense_half_width", "dense_half_height",
                      "sparse_half_size")
        for name in (*half_sizes, "blocker_x_range"):
            low, high = getattr(self, name)
            if not (math.isfinite(low) and math.isfinite(high) and low <= high):
                raise ValueError(f"{name} must be a finite (low, high) with "
                                 f"low <= high, not {(low, high)}")
        for name in half_sizes:
            if not getattr(self, name)[0] > 0:
                raise ValueError(f"{name} must start above 0: it draws a "
                                 f"blocker's half extent")
        # the tallest blocker's centre y-range; a shorter one's holds it
        margin = self.blocker_y_margin
        tallest, name = max((self.dense_half_height[1], "dense_half_height"),
                            (self.sparse_half_size[1], "sparse_half_size"))
        low = tallest + margin
        high = self.bounds[1] - tallest - margin
        if not (math.isfinite(low) and math.isfinite(high) and low <= high):
            raise ValueError(
                f"{name} up to {tallest} with blocker_y_margin {margin} "
                f"leaves no blocker centre y-range in the depth "
                f"{self.bounds[1]}")
        # the rectangle every blocker a draw can make lies in
        widest, wide = max((self.dense_half_width[1], "dense_half_width"),
                           (self.sparse_half_size[1], "sparse_half_size"))
        low, high = self.blocker_x_range
        area = Blocker(((low + high) / 2, self.bounds[1] / 2),
                       ((high - low) / 2 + widest, self.bounds[1] / 2 - margin))
        x0, x1, y0, _ = area.bounds
        if (_segment_hits_box(self.bs_position, self.ris_position, area)
                or x0 < 0 or x1 > self.bounds[0] or y0 < 0):
            raise ValueError(
                f"blocker_x_range {self.blocker_x_range} with {wide} up to "
                f"{widest} and blocker_y_margin {margin} lets a blocker cross "
                f"the station-surface line or leave the bounds {self.bounds}")


def random_scene(layout, rng):
    """Draw a scene from the layout's dense/sparse blocker mixture, each
    size and centre with _uniform."""
    dense = rng.random() < layout.dense_probability
    if dense:
        count = int(rng.integers(layout.dense_count[0], layout.dense_count[1] + 1))
    else:
        count = int(rng.integers(layout.sparse_count[0], layout.sparse_count[1] + 1))

    depth = layout.bounds[1]
    blockers = []
    for _ in range(count):
        if dense:
            hx = _uniform(rng, *layout.dense_half_width)
            hy = _uniform(rng, *layout.dense_half_height)
        else:
            hx = _uniform(rng, *layout.sparse_half_size)
            hy = _uniform(rng, *layout.sparse_half_size)
        cx = _uniform(rng, *layout.blocker_x_range)
        cy = _uniform(rng, hy + layout.blocker_y_margin,
                      depth - hy - layout.blocker_y_margin)
        blockers.append(Blocker(center=(cx, cy), half_extents=(hx, hy)))

    return Scene(bounds=layout.bounds, bs_position=layout.bs_position,
                 ris_position=layout.ris_position, blockers=tuple(blockers),
                 penetration_loss_db=layout.penetration_loss_db,
                 ue_zone=layout.ue_zone)
