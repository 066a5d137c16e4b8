"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""
import math
import time

import numpy as np
from _oracles import fd_gradient_rel_err, make_loss_case

from magphase.compensation import compensated_magnitude, histogram2d
from magphase.losses import (
    LossKind,
    LossTag,
    Targets,
    evaluate_loss,
    pit_wrap,
)
from magphase.masks import MaskKind, apply_mask_resynth, iam, masked_magnitude, psa_target, psm
from magphase.metrics import msnr, psnr, si_sdr
from magphase.optim import (
    QUAD_L2,
    OptimizationProblem,
    Parameterization,
    optimize,
    run_trend_experiment,
)
from magphase.scenes import SceneSpec, synth_scene
from magphase.stft import consistency_project, istft, istft_array, stft
from magphase.types import MagSpectrogram, Spectrogram, StftConfig, TimeSignal, magnitude_of

CFG_200 = StftConfig.for_window(200, 80)
CFG_512 = StftConfig.for_window(512, 128)


def _report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _scenes(n=10):
    return [synth_scene(SceneSpec(seed=k, duration_s=1.0, sample_rate_hz=8000)) for k in range(n)]


def test_criterion_01_stft_round_trip():
    t0 = time.monotonic()
    worst = 0.0
    for cfg, sr in ((CFG_512, 16000), (CFG_200, 8000)):
        for seed in range(20):
            x = TimeSignal(np.random.default_rng(seed).standard_normal(sr), sr)
            back = istft(stft(x, cfg), len(x), sr)
            worst = max(worst, float(np.max(np.abs(back.samples - x.samples))))
    elapsed = time.monotonic() - t0
    _report(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"round-trip max err {worst:.3e} over 2 configs x 20 signals in {elapsed:.2f}s",
    )


def test_criterion_02_consistency_idempotence():
    t0 = time.monotonic()
    worst = 0.0
    frames = 101
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        shape = (frames, CFG_200.num_bins)
        X = Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), CFG_200)
        C1 = consistency_project(X)
        C2 = consistency_project(C1)
        worst = max(worst, float(np.max(np.abs(C2.data - C1.data))))
    elapsed = time.monotonic() - t0
    _report(
        2,
        worst < 1e-10 and elapsed < 5.0,
        f"projection idempotence max err {worst:.3e} on 20 spectrograms in {elapsed:.2f}s",
    )


def test_criterion_03_compensation_oracle():
    t0 = time.monotonic()
    cfg = StftConfig(18, 9, 18)
    frames = 10
    rng = np.random.default_rng(42)
    mags = rng.uniform(0.5, 2.0, (frames, cfg.num_bins))
    deltas = np.linspace(0.0, np.pi, 100).reshape(frames, cfg.num_bins)
    S = Spectrogram(mags * np.exp(1j * deltas), cfg)
    n = (frames - 1) * cfg.hop_length_samples
    problem = OptimizationProblem(
        parameterization=Parameterization.FREE_MAG_FIXED_PHASE,
        loss=QUAD_L2,
        targets=Targets(S=S, s=TimeSignal(istft_array(S.data, cfg, n), 8000)),
        cfg=cfg,
        phase_source="custom",
        custom_phase=np.zeros((frames, cfg.num_bins)),
        init="zeros",
        steps=400,
    )
    got = optimize(problem).params
    closed = np.maximum(mags * np.cos(deltas), 0.0)
    err_closed = float(np.max(np.abs(got - closed)))

    # Independent oracle: per-unit brute-force grid search.
    err_grid = 0.0
    for t in range(frames):
        for f in range(cfg.num_bins):
            m0 = mags[t, f]
            grid = np.arange(0.0, 2 * m0 + 1e-12, m0 * 1e-4)
            vals = np.abs(grid * 1.0 - mags[t, f] * np.exp(1j * deltas[t, f])) ** 2
            best = grid[np.argmin(vals)]
            err_grid = max(err_grid, abs(got[t, f] - best))
    zero_exact = bool(np.all(got[deltas > np.pi / 2 + 1e-9] == 0.0))
    elapsed = time.monotonic() - t0
    _report(
        3,
        err_closed < 1e-4 and err_grid < 2e-4 and zero_exact and elapsed < 10.0,
        f"fixed-phase L2 vs closed form {err_closed:.2e}, vs grid {err_grid:.2e}, "
        f"zero regime exact={zero_exact}, {elapsed:.2f}s",
    )


def test_criterion_04_trend_reproduction():
    t0 = time.monotonic()
    msnr_wins = si_wins = 0
    for scene in _scenes(10):
        S, Y = stft(scene.s, CFG_200), stft(scene.y, CFG_200)
        rep = run_trend_experiment(
            Targets(S=S, s=scene.s, Y=Y, y=scene.y), CFG_200, steps=300
        )
        msnr_wins += rep.msnr_improved
        si_wins += rep.si_sdr_not_better
    elapsed = time.monotonic() - t0
    _report(
        4,
        msnr_wins >= 9 and si_wins >= 9 and elapsed < 60.0,
        f"with-magnitude arm: msnr >= in {msnr_wins}/10, si_sdr <= in {si_wins}/10, {elapsed:.1f}s",
    )


def test_criterion_05_metric_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)

    # pSNR agrees with the direct complex-difference form on random inputs.
    worst = 0.0
    for _ in range(20):
        z = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        w = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        cfg = StftConfig(8, 4, 8)
        got = psnr(Spectrogram(w, cfg), Spectrogram(z, cfg))
        resynth = np.abs(z) * np.exp(1j * np.angle(w))
        oracle = 10 * math.log10(
            float(np.sum(np.abs(z) ** 2) / np.sum(np.abs(z - resynth) ** 2))
        )
        worst = max(worst, abs(got - oracle))
    psnr_ok = worst < 1e-9

    # mSNR of a half-scaled magnitude.
    z = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    cfg = StftConfig(8, 4, 8)
    S = Spectrogram(z, cfg)
    half = msnr(MagSpectrogram(0.5 * np.abs(z), cfg), S)
    msnr_ok = abs(half - 6.0206) < 1e-4 and abs(half - 10 * math.log10(4.0)) < 1e-6

    # SI-SDR scale invariance.
    s = TimeSignal(rng.standard_normal(4000), 8000)
    est = TimeSignal(s.samples + 0.2 * rng.standard_normal(4000), 8000)
    base = si_sdr(est, s)
    si_ok = all(
        abs(si_sdr(TimeSignal(c * est.samples, 8000), s) - base) < 1e-9
        for c in (0.125, -3.0, 470.0)
    )

    # Amplitude-masked magnitude without re-synthesis: exactly infinite mSNR.
    scene = synth_scene(SceneSpec(seed=0, duration_s=1.0, sample_rate_hz=8000))
    Ssc, Ysc = stft(scene.s, CFG_200), stft(scene.y, CFG_200)
    iam_inf = msnr(masked_magnitude(MaskKind.IAM, Ssc, Ysc), Ssc) == math.inf

    elapsed = time.monotonic() - t0
    _report(
        5,
        psnr_ok and msnr_ok and si_ok and iam_inf and elapsed < 5.0,
        f"pSNR identity err {worst:.2e}, half-magnitude mSNR {half:.4f} dB, "
        f"scale invariance {si_ok}, IAM no-resynth mSNR inf {iam_inf}, {elapsed:.2f}s",
    )


def test_criterion_06_oracle_mask_ordering():
    t0 = time.monotonic()
    psm_si_wins = iam_msnr_wins = 0
    for scene in _scenes(10):
        S, Y = stft(scene.s, CFG_200), stft(scene.y, CFG_200)
        out_iam = apply_mask_resynth(iam(S, Y), Y, len(scene.y), 8000)
        out_psm = apply_mask_resynth(psm(S, Y), Y, len(scene.y), 8000)
        psm_si_wins += si_sdr(out_psm, scene.s) >= si_sdr(out_iam, scene.s)
        iam_msnr_wins += msnr(stft(out_iam, CFG_200), S) >= msnr(stft(out_psm, CFG_200), S)
    elapsed = time.monotonic() - t0
    _report(
        6,
        psm_si_wins >= 9 and iam_msnr_wins >= 9 and elapsed < 30.0,
        f"PSM si_sdr >= IAM in {psm_si_wins}/10, IAM resynth msnr >= PSM in "
        f"{iam_msnr_wins}/10, {elapsed:.1f}s",
    )


def test_criterion_07_gradient_correctness():
    t0 = time.monotonic()
    worst_tag, worst = None, 0.0
    for tag in LossTag:
        for seed in range(5):
            err = fd_gradient_rel_err(make_loss_case(tag, seed), n_coords=24, seed=seed)
            if err > worst:
                worst_tag, worst = tag.value, err
    elapsed = time.monotonic() - t0
    _report(
        7,
        worst < 1e-5 and elapsed < 30.0,
        f"{len(LossTag)} kinds x 5 points: worst FD rel err {worst:.2e} ({worst_tag}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_magnitude_forms_and_psa_clamp():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    cfg = StftConfig(8, 4, 8)
    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        m = np.abs(rng.standard_normal((6, 5)))
        S = Spectrogram(z, cfg)
        direct = evaluate_loss(LossKind(LossTag.MSA), MagSpectrogram(m, cfg), Targets(S=S)).value
        phase = np.where(z == 0, 0.0, np.angle(z))
        complex_form = float(np.mean(np.abs((m - np.abs(z)) * np.exp(1j * phase))))
        worst = max(worst, abs(direct - complex_form))
    forms_ok = worst < 1e-12

    # The phase-sensitive target clamps to zero where cos < 0.
    S = Spectrogram(np.array([[2 * np.exp(2j * np.pi / 3), 1 + 0j]]), StftConfig(2, 1, 2))
    Y = Spectrogram(np.array([[1 + 0j, 1 + 0j]]), StftConfig(2, 1, 2))
    tgt = psa_target(S, Y)
    clamp_ok = tgt.data[0, 0] == 0.0 and tgt.data[0, 1] == 1.0

    elapsed = time.monotonic() - t0
    _report(
        8,
        forms_ok and clamp_ok and elapsed < 2.0,
        f"magnitude-form identity max err {worst:.2e} on 100 inputs, "
        f"negative-cos clamp {clamp_ok}, {elapsed:.2f}s",
    )


def test_criterion_09_histogram_fidelity():
    t0 = time.monotonic()
    scene = synth_scene(SceneSpec(seed=1, duration_s=1.0, sample_rate_hz=8000))
    S, Y = stft(scene.s, CFG_200), stft(scene.y, CFG_200)

    hist = histogram2d(compensated_magnitude(S, Y), S, Y)
    on_band = 0
    for i, x in enumerate(hist.x_centers()):
        target = max(0.0, x)
        j = min(np.searchsorted(hist.y_edges, target, side="right") - 1, 49)
        on_band += hist.counts[i, max(j - 1, 0) : min(j + 1, 49) + 1].sum()
    diag_frac = on_band / hist.total

    oracle_hist = histogram2d(magnitude_of(S), S, Y)
    row = np.searchsorted(oracle_hist.y_edges, 1.0, side="right") - 1
    oracle_ok = oracle_hist.counts[:, row].sum() == oracle_hist.total

    elapsed = time.monotonic() - t0
    _report(
        9,
        diag_frac >= 0.99 and oracle_ok and elapsed < 5.0,
        f"compensated-oracle diagonal mass {diag_frac:.4f}, oracle ratio-1 row "
        f"{oracle_ok}, {elapsed:.2f}s",
    )


def test_criterion_10_pit_brute_force():
    t0 = time.monotonic()
    cfg = StftConfig(8, 4, 8)
    kind = LossKind(LossTag.RI)
    exact = True
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        shape = (4, cfg.num_bins)

        def rand_spec():
            return Spectrogram(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), cfg)

        ests = [rand_spec(), rand_spec()]
        tgts = [Targets(S=rand_spec()), Targets(S=rand_spec())]
        value, perm = pit_wrap(kind, ests, tgts)
        direct = (
            evaluate_loss(kind, ests[0], tgts[0]).value
            + evaluate_loss(kind, ests[1], tgts[1]).value
        ) / 2.0
        swapped = (
            evaluate_loss(kind, ests[0], tgts[1]).value
            + evaluate_loss(kind, ests[1], tgts[0]).value
        ) / 2.0
        if value.value != min(direct, swapped):
            exact = False
            break
        if perm != ((0, 1) if direct <= swapped else (1, 0)):
            exact = False
            break
    elapsed = time.monotonic() - t0
    _report(
        10,
        exact and elapsed < 2.0,
        f"PIT equals brute-force minimum exactly on 100 cases, {elapsed:.2f}s",
    )
