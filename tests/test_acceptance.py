"""Acceptance checks for the whole workbench.

Each test prints one `[ACCEPTANCE] <name> PASS|FAIL (detail)` line (run
pytest with -s to see them) and then asserts, so the suite both documents
and enforces the headline behaviors: channel reductions, the Doppler value,
co-phasing optimality, gradient correctness, loss/softmax invariants, the
absent/blocked image ambiguity, the four-scenario accuracy ordering, full
byte-level determinism of the CLI pipeline, and single-sample overfitting.
"""

import math
import time
from fractions import Fraction

import numpy as np

from risblock.channel import (ArrayGeometry, MultipathComponent,
                              PropagationConfig, RisConfig, channel_bs_ue,
                              co_phase_ris, data_rate, doppler_spread,
                              effective_gain)
from risblock.cli import main
from conftest import generated, table_of
from risblock.dataset import GeneratorConfig
from risblock.learn import (TrainConfig, cross_entropy, grad_check,
                            init_params, lr_schedule, softmax, train)
from risblock.pipeline import (EXPERIMENT_TRAIN_CONFIG, Scenario,
                               build_features, run_experiment)
from risblock.scene import Blocker, LinkStatus, Scene, render_image


def _record(name, passed, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name} {'PASS' if passed else 'FAIL'}{suffix}")
    assert passed, f"acceptance criterion {name} failed{suffix}"


# ------------------------------------------------------- channel-reductions


def test_channel_reductions():
    rng = np.random.default_rng(2026)
    h_b = rng.normal(size=2) + 1j * rng.normal(size=2)
    h_u = rng.normal(size=5) + 1j * rng.normal(size=5)
    h_r = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    off_config = RisConfig(amplitudes=np.zeros(5),
                           phases=rng.uniform(0, 2 * np.pi, 5))
    via_config = effective_gain(h_b, h_u, off_config, h_r)
    via_dense = effective_gain(h_b, h_u, np.zeros((5, 5), dtype=complex), h_r)
    surface_off_exact = (np.array_equal(via_config, h_b)
                         and np.array_equal(via_dense, h_b))

    # a static terminal: zero speed must make the channel time-invariant
    cfg = PropagationConfig(carrier_frequency_hz=28e9, speed_mps=0.0)
    def paths_at(t):
        return [MultipathComponent(amplitude=amp, delay_s=tau,
                                   sampling_time_s=t, cyclic_prefix_count=1,
                                   azimuth_rad=az, elevation_rad=el)
                for amp, tau, az, el in [(1.0, 3e-8, 0.3, 0.1),
                                         (0.2 + 0.1j, 9e-8, 2.0, -0.2),
                                         (0.05j, 2e-7, 4.4, 0.4)]]
    geometry = ArrayGeometry(n_bs_antennas=1, n_ris_elements=4)
    channels = [channel_bs_ue(paths_at(t), cfg, geometry)
                for t in (1e-6, 1e-3, 1.0)]
    static = all(np.allclose(channels[0], h, rtol=1e-12, atol=0.0)
                 for h in channels[1:])
    _record("channel-reductions", surface_off_exact and static,
            "surface-off equals direct term exactly; zero-speed channel "
            "time-invariant to 1e-12")


# ---------------------------------------------------------- doppler-formula


def test_doppler_formula():
    cfg = PropagationConfig(carrier_frequency_hz=28e9, speed_mps=20.0)
    got = doppler_spread(cfg)
    want = float(Fraction(28_000_000_000) * 20 / Fraction(299_792_458))
    still = doppler_spread(PropagationConfig(carrier_frequency_hz=28e9))
    passed = math.isclose(got, want, rel_tol=1e-12) and still == 0.0
    _record("doppler-formula", passed, f"f*v/c = {got!r} Hz")


# --------------------------------------------------------------- co-phasing


def test_co_phasing_beats_random_and_quantized():
    rng = np.random.default_rng(99)
    snr = 10.0
    started = time.perf_counter()

    def draw(r):
        h_b = (rng.normal(size=1) + 1j * rng.normal(size=1)) / math.sqrt(2)
        h_u = (rng.normal(size=r) + 1j * rng.normal(size=r)) / math.sqrt(2)
        h_r = (rng.normal(size=(r, 1)) + 1j * rng.normal(size=(r, 1))) / math.sqrt(2)
        return h_b, h_u, h_r

    # 500 random single-antenna links: the co-phased rate strictly beats
    # every one of 200 random phase configurations
    random_losses = 0
    for _ in range(500):
        r = int(rng.integers(1, 9))
        h_b, h_u, h_r = draw(r)
        aligned = co_phase_ris(h_b, h_r, h_u)
        rate_star = data_rate(effective_gain(h_b, h_u, aligned, h_r), snr)
        cascade = h_u * h_r[:, 0]
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(200, r))
        rivals = h_b[0] + (np.exp(1j * phases) * cascade).sum(axis=1)
        rival_rates = np.log1p(snr * np.abs(rivals) ** 2) / math.log(2.0)
        random_losses += int(np.sum(rival_rates >= rate_star))

    # 50 two-element links: compare against the exhaustive best over a
    # 16-level phase grid; the continuous solution must be at least as good,
    # and can exceed it by at most the per-element quantization slack
    grid = 2.0 * np.pi * np.arange(16) / 16.0
    slack_factor = 1.0 - math.cos(math.pi / 16.0)
    quant_ok = True
    for _ in range(50):
        h_b, h_u, h_r = draw(2)
        aligned = co_phase_ris(h_b, h_r, h_u)
        gain_star = abs(effective_gain(h_b, h_u, aligned, h_r)[0])
        rate_star = data_rate(effective_gain(h_b, h_u, aligned, h_r), snr)
        cascade = h_u * h_r[:, 0]
        best_quant_gain = 0.0
        for p0 in grid:
            candidates = h_b[0] + cascade[0] * np.exp(1j * p0) \
                + cascade[1] * np.exp(1j * grid)
            best_quant_gain = max(best_quant_gain, float(np.abs(candidates).max()))
        best_quant_rate = math.log1p(snr * best_quant_gain ** 2) / math.log(2.0)
        slack = slack_factor * float(np.sum(np.abs(cascade)))
        if rate_star < best_quant_rate - 1e-12:
            quant_ok = False
        if gain_star > best_quant_gain + slack + 1e-9:
            quant_ok = False

    elapsed = time.perf_counter() - started
    passed = random_losses == 0 and quant_ok and elapsed < 60.0
    _record("co-phasing", passed,
            f"0/100000 random configs won: {random_losses == 0}; "
            f"16-level grid bounds hold: {quant_ok}; {elapsed:.1f}s")


# ----------------------------------------------------- gradient-correctness


def test_gradient_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(20):
        params = init_params(6, rng, n_hidden=5)
        image = rng.normal(size=6)
        rate = float(rng.normal())
        label = int(rng.integers(0, 3))
        weight_decay = 0.0 if k % 2 == 0 else 2e-3
        worst = max(worst, grad_check(params, image[None], np.array([rate]),
                                      np.array([label]), h=1e-5,
                                      weight_decay=weight_decay))
    _record("gradient-correctness", worst <= 1e-4,
            f"max relative error {worst:.3e} over 20 draws")


# ------------------------------------------------- loss-softmax-properties


def test_loss_softmax_properties():
    rng = np.random.default_rng(3)
    probs = softmax(rng.normal(scale=30.0, size=(10_000, 3)))
    sum_err = float(np.abs(probs.sum(axis=1) - 1.0).max())
    uniform_ce = cross_entropy(np.full(3, 1.0 / 3.0), 0)
    ce_err = abs(uniform_ce - math.log(3.0))
    cfg = TrainConfig()
    schedule_ok = (math.isclose(lr_schedule(1, cfg), 1e-3, rel_tol=1e-12)
                   and math.isclose(lr_schedule(5, cfg), 2e-4, rel_tol=1e-12)
                   and math.isclose(lr_schedule(8, cfg), 4e-5, rel_tol=1e-12))
    passed = sum_err <= 1e-9 and ce_err <= 1e-12 and schedule_ok
    _record("loss-softmax-properties", passed,
            f"max |sum-1| {sum_err:.2e}; |CE(uniform)-ln3| {ce_err:.2e}; "
            f"schedule 1e-3/2e-4/4e-5 ok: {schedule_ok}")


# ------------------------------------------------------------ image-ambiguity


def test_image_ambiguity():
    scene = Scene(bounds=(10.0, 10.0), bs_position=(0.0, 0.0),
                  ris_position=(0.0, 9.0),
                  blockers=(Blocker(center=(5.0, 4.5), half_extents=(0.5, 2.0)),))
    ue = (9.0, 4.5)
    absent = render_image(scene, None, LinkStatus.ABSENT)
    blocked = render_image(scene, ue, LinkStatus.BLOCKED)
    clear = render_image(scene, ue, LinkStatus.UNBLOCKED)
    ambiguous = absent.tobytes() == blocked.tobytes()
    distinct = clear.tobytes() != blocked.tobytes()
    _record("image-ambiguity", ambiguous and distinct,
            "absent and blocked render identically; unblocked differs")


# --------------------------------------------------------- scenario-ordering


def test_scenario_ordering(tmp_path):
    started = time.perf_counter()
    per_seed = {}
    for seed in (1, 2, 3, 4, 5):
        results = run_experiment(GeneratorConfig(n_samples=2000),
                                 EXPERIMENT_TRAIN_CONFIG, seed,
                                 tmp_path / f"seed{seed}")
        per_seed[seed] = {scenario.value: report.accuracy
                          for scenario, (_, report) in results.items()}
    elapsed = time.perf_counter() - started

    ordered = all(a["none"] < a["camera"] < a["ris"] < a["both"]
                  for a in per_seed.values())
    strong = all(a["both"] >= 0.95 for a in per_seed.values())
    gapped = all(a["both"] - a["none"] >= 0.25 for a in per_seed.values())
    in_time = elapsed < 600.0

    def band(name):
        values = [a[name] for a in per_seed.values()]
        return f"{name} {min(values):.3f}-{max(values):.3f}"

    _record("scenario-ordering", ordered and strong and gapped and in_time,
            "; ".join(band(n) for n in ("none", "camera", "ris", "both"))
            + f"; 5 seeds, {elapsed:.0f}s")


# ------------------------------------------------------------- determinism


def _cli_pipeline(root, seed):
    dataset = root / "dataset"
    models = root / "models"
    reports = root / "reports"
    assert main(["generate", "--n", "250", "--seed", str(seed),
                 "--out", str(dataset)]) == 0
    assert main(["train", "--dataset", str(dataset), "--seed", str(seed),
                 "--out", str(models)]) == 0
    assert main(["eval", "--dataset", str(dataset), "--models", str(models),
                 "--seed", str(seed), "--out", str(reports)]) == 0
    return [p for sub in ("dataset", "models", "reports")
            for p in sorted((root / sub).iterdir())]


def test_determinism(tmp_path):
    first = _cli_pipeline(tmp_path / "first", seed=4)
    second = _cli_pipeline(tmp_path / "second", seed=4)
    compared = 0
    mismatched = []
    for a, b in zip(first, second):
        assert a.name == b.name
        if a.name == "timings.json":
            continue
        compared += 1
        if a.read_bytes() != b.read_bytes():
            mismatched.append(a.name)
    passed = compared >= 15 and not mismatched
    _record("determinism", passed,
            f"{compared} files byte-identical across reruns"
            + (f"; mismatched: {mismatched}" if mismatched else ""))


# ----------------------------------------------------------- overfit-sanity


def test_overfit_sanity():
    table = table_of(generated(GeneratorConfig(n_samples=1, n_ris_elements=32),
                               seed=2))
    labels = table.label
    cfg = TrainConfig(learning_rate=0.5, weight_decay=0.0, batch_size=1)
    _, history = train(*build_features(table, Scenario.BOTH), labels, cfg)
    final_loss = history[-1][3]
    _record("overfit-sanity", final_loss < 1e-3,
            f"single-sample loss {final_loss:.2e} after {history[-1][1]} epochs")
