"""Shared test oracles: loss-case builders, finite-difference checks,
per-frame-loop and full-evaluation references for the STFT maps and the
per-unit descent, the coupled descent that takes every try's gradient
and the one whose every step restarts its search at the full step, the
optimizer that rebuilds every view from the parameters, the metrics
that take every reference term per call, and the scipy-based reference
WAV reader.

Each loss case pins a random but well-conditioned evaluation point:
every free entry and every residual the loss sees is bounded away from
zero (>= 1e-3, usually >= 0.1), so central finite differences on the
exact-L1 values are a valid oracle for the smoothed analytic gradients.
Builders assert those preconditions so a bad seed fails loudly instead
of producing a flaky tolerance.
"""
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from magphase.errors import (
    DivergedError,
    LengthMismatchError,
    SilentReferenceError,
    ZeroSignalError,
)
from magphase.losses import LossKind, LossTag, Targets, evaluate_loss
from magphase.metrics import _SUM_FLOOR, _ratio_db, _require_finite
from magphase.stft import (
    _COVERAGE_TINY,
    analysis_window,
    istft_array,
    num_frames_for,
    stft_array,
    window_pair,
)
from magphase.types import (
    MagSpectrogram,
    Spectrogram,
    StftConfig,
    TimeSignal,
    phase_of,
    same_shape,
)

CASE_CFG = StftConfig(32, 8, 32)
CASE_LEN = 100
CASE_RATE = 8000
MARGIN = 1e-3


def bounded_complex(rng, shape, lo=0.1, hi=1.0):
    re = rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape)
    im = rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape)
    return re + 1j * im


@dataclass
class LossCase:
    kind: LossKind
    targets: Targets
    x0: np.ndarray
    wrap: Callable[[np.ndarray], object]
    complex_param: bool


def make_loss_case(tag: LossTag, seed: int) -> LossCase:
    rng = np.random.default_rng(10_000 + seed)
    cfg = CASE_CFG
    n = CASE_LEN
    shape = (num_frames_for(n, cfg), cfg.num_bins)

    def spec_wrap(z):
        return Spectrogram(z, cfg)

    def mag_wrap(m):
        return MagSpectrogram(m, cfg)

    def sig_wrap(v):
        return TimeSignal(v, CASE_RATE)

    if tag in (LossTag.RI, LossTag.RI_MAG):
        est = bounded_complex(rng, shape)
        delta = bounded_complex(rng, shape, 0.3, 1.0)
        S = Spectrogram(est - delta, cfg)
        if tag is LossTag.RI_MAG:
            assert np.min(np.abs(np.abs(est) - np.abs(S.data))) > MARGIN
        return LossCase(LossKind(tag), Targets(S=S), est, spec_wrap, True)

    if tag in (LossTag.L2_COMPLEX, LossTag.L2_COMPLEX_MAG):
        # Smooth except where |est| = 0, which bounded_complex excludes.
        est = bounded_complex(rng, shape)
        S = Spectrogram(bounded_complex(rng, shape, 0.3, 1.0), cfg)
        return LossCase(LossKind(tag), Targets(S=S), est, spec_wrap, True)

    if tag is LossTag.PHASE:
        est = bounded_complex(rng, shape, 0.2, 1.0)
        theta = np.angle(est)
        # Redraw reference entries until both RI residuals clear the margin.
        S_data = bounded_complex(rng, shape, 0.3, 1.2)
        for _ in range(200):
            mag_ref = np.abs(S_data)
            bad = (np.abs(mag_ref * np.cos(theta) - S_data.real) <= MARGIN) | (
                np.abs(mag_ref * np.sin(theta) - S_data.imag) <= MARGIN
            )
            if not bad.any():
                break
            S_data[bad] = bounded_complex(rng, (int(bad.sum()),), 0.3, 1.2)
        else:
            raise AssertionError("could not condition the phase-loss case")
        S = Spectrogram(S_data, cfg)
        return LossCase(LossKind(tag), Targets(S=S), est, spec_wrap, True)

    if tag is LossTag.RI_ISTFT:
        est = bounded_complex(rng, shape)
        resid = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        s = TimeSignal(istft_array(est, cfg, n) - resid, CASE_RATE)
        return LossCase(LossKind(tag), Targets(s=s), est, spec_wrap, True)

    if tag in (LossTag.RI_ISTFT_MAG, LossTag.RI_ISTFT_X0_MAG, LossTag.MAG_RI_ISTFT):
        est = bounded_complex(rng, shape)
        resid = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        s = TimeSignal(istft_array(est, cfg, n) - resid, CASE_RATE)
        if tag is LossTag.MAG_RI_ISTFT:
            base_mag = np.abs(est)
        else:
            base_mag = np.abs(stft_array(istft_array(est, cfg, n), cfg))
            assert base_mag.min() > MARGIN
        mag_ref = base_mag + rng.uniform(0.5, 1.5, shape)
        S = Spectrogram(mag_ref * np.exp(1j * rng.uniform(-np.pi, np.pi, shape)), cfg)
        return LossCase(LossKind(tag), Targets(s=s, S=S), est, spec_wrap, True)

    if tag in (LossTag.WAV, LossTag.WAV_MAG, LossTag.WAV_X0_MAG):
        est = rng.uniform(0.2, 1.0, n) * rng.choice([-1.0, 1.0], n)
        resid = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
        s = TimeSignal(est - resid, CASE_RATE)
        if tag is LossTag.WAV:
            return LossCase(LossKind(tag), Targets(s=s), est, sig_wrap, False)
        base_mag = np.abs(stft_array(est, cfg))
        assert base_mag.min() > MARGIN
        mag_ref = base_mag + rng.uniform(0.5, 1.5, shape)
        S = Spectrogram(mag_ref * np.exp(1j * rng.uniform(-np.pi, np.pi, shape)), cfg)
        return LossCase(LossKind(tag), Targets(s=s, S=S), est, sig_wrap, False)

    if tag is LossTag.MSA:
        est = rng.uniform(0.2, 1.0, shape)
        mag_ref = est + rng.uniform(0.3, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
        mag_ref = np.clip(mag_ref, 0.05, None)
        assert np.min(np.abs(est - mag_ref)) > MARGIN
        S = Spectrogram(mag_ref * np.exp(1j * rng.uniform(-np.pi, np.pi, shape)), cfg)
        return LossCase(LossKind(tag), Targets(S=S), est, mag_wrap, False)

    if tag is LossTag.PSA:
        S = Spectrogram(bounded_complex(rng, shape, 0.2, 1.0), cfg)
        Y = Spectrogram(bounded_complex(rng, shape, 0.2, 1.0), cfg)
        from magphase.masks import psa_target

        target = psa_target(S, Y).data
        est = target + rng.uniform(0.3, 1.0, shape)
        return LossCase(LossKind(tag), Targets(S=S, Y=Y), est, mag_wrap, False)

    raise ValueError(f"no case builder for {tag}")


def fd_gradient_rel_err(case: LossCase, n_coords: int = 24, h: float = 1e-6, seed: int = 0):
    """Norm-relative error between analytic and central-FD gradients.

    FD differentiates the exact L1 values the losses report; away from
    kinks that agrees with the smoothed analytic gradient to ~1e-10.
    """
    g = evaluate_loss(case.kind, case.wrap(case.x0), case.targets).gradient()
    assert g is not None and np.all(np.isfinite(g))
    rng = np.random.default_rng(777 + seed)
    flat = rng.choice(case.x0.size, size=min(n_coords, case.x0.size), replace=False)
    fd_vals, an_vals = [], []
    for fi in flat:
        idx = np.unravel_index(fi, case.x0.shape)
        parts = (1.0, 1j) if case.complex_param else (1.0,)
        for part in parts:
            xp = case.x0.copy()
            xp[idx] += h * part
            xm = case.x0.copy()
            xm[idx] -= h * part
            fp = evaluate_loss(case.kind, case.wrap(xp), case.targets).value
            fm = evaluate_loss(case.kind, case.wrap(xm), case.targets).value
            fd_vals.append((fp - fm) / (2.0 * h))
            entry = g[idx]
            an_vals.append(entry.imag if part == 1j else np.real(entry))
    fd_vec = np.array(fd_vals)
    an_vec = np.array(an_vals)
    return float(np.linalg.norm(fd_vec - an_vec) / np.linalg.norm(fd_vec))


# --- per-frame-loop references for the STFT maps ----------------------------


def _loop_overlap_add(segs, hop, wl):
    frames = segs.shape[0]
    buf = np.zeros((frames - 1) * hop + wl)
    for t in range(frames):  # earliest frame first
        buf[t * hop : t * hop + wl] += segs[t, :wl]
    return buf


def _loop_normalize(buf, cfg, frames):
    pair = window_pair(cfg)
    wd = pair.analysis * pair.synthesis
    cov = _loop_overlap_add(np.broadcast_to(wd, (frames, wd.shape[0])), *_hop_win(cfg))
    covered = cov > _COVERAGE_TINY
    buf[covered] /= cov[covered]
    buf[~covered] = 0.0


def _hop_win(cfg):
    return cfg.hop_length_samples, cfg.win_length_samples


def _trim(buf, cfg, out_len):
    pad = cfg.win_length_samples - cfg.hop_length_samples
    out = np.zeros(out_len)
    avail = min(out_len, buf.shape[0] - pad)
    out[:avail] = buf[pad : pad + avail]
    return out


def loop_istft_array(data, cfg, out_len):
    """istft_array with a per-frame overlap-add loop."""
    hop, wl = _hop_win(cfg)
    segs = np.fft.irfft(data, n=cfg.fft_size, axis=1)[:, :wl] * window_pair(cfg).synthesis
    buf = _loop_overlap_add(segs, hop, wl)
    _loop_normalize(buf, cfg, data.shape[0])
    return _trim(buf, cfg, out_len)


def loop_istft_adjoint(g_time, cfg, num_frames):
    """istft_adjoint with a per-frame gather loop."""
    hop, wl = _hop_win(cfg)
    nfft = cfg.fft_size
    buf = np.zeros((num_frames - 1) * hop + wl)
    pad = wl - hop
    avail = min(g_time.shape[0], buf.shape[0] - pad)
    buf[pad : pad + avail] = g_time[:avail]
    _loop_normalize(buf, cfg, num_frames)
    segs = np.zeros((num_frames, nfft))
    for t in range(num_frames):
        segs[t, :wl] = buf[t * hop : t * hop + wl] * window_pair(cfg).synthesis
    spec = np.fft.rfft(segs, n=nfft, axis=1)
    scale = np.full(cfg.num_bins, 2.0 / nfft)
    scale[0] = 1.0 / nfft
    if nfft % 2 == 0:
        scale[-1] = 1.0 / nfft
    g_spec = spec * scale
    g_spec[:, 0] = g_spec[:, 0].real
    if nfft % 2 == 0:
        g_spec[:, -1] = g_spec[:, -1].real
    return g_spec


def loop_stft_adjoint(g_spec, cfg, out_len):
    """stft_adjoint with a per-frame overlap-add loop."""
    hop, wl = _hop_win(cfg)
    nfft = cfg.fft_size
    c = np.full(cfg.num_bins, 0.5)
    c[0] = 1.0
    if nfft % 2 == 0:
        c[-1] = 1.0
    segs = np.fft.irfft(g_spec * c, n=nfft, axis=1) * nfft
    buf = _loop_overlap_add(segs[:, :wl] * analysis_window(cfg), hop, wl)
    return _trim(buf, cfg, out_len)


# --- full-evaluation reference for the per-unit descent ---------------------


def full_eval_descend_separable(problem, x, per_unit, project):
    """optim._descend_separable as a full-map search: every backtracking
    retry re-evaluates all units, and the step commits through np.where.
    Like it, a generator of (step, loss map, params) from step 0 on."""
    L, grad = per_unit(x)
    G = grad()
    lr = np.full(L.shape, problem.step_size)
    vel = np.zeros_like(G)
    yield 0, L, x
    for k in range(1, problem.steps + 1):
        lr = np.minimum(lr * 2.0, problem.step_size)
        vel_try = problem.momentum * vel - lr * G
        cand = project(x + vel_try)
        Lc, grad = per_unit(cand)
        Gc = grad()
        bad = ~((Lc <= L) & np.isfinite(Lc) & np.isfinite(Gc))
        tries = 0
        while bad.any() and tries < 60:
            lr = np.where(bad, 0.5 * lr, lr)
            vel_try = np.where(bad, -lr * G, vel_try)
            cand = project(x + vel_try)
            Lc, grad = per_unit(cand)
            Gc = grad()
            bad = ~((Lc <= L) & np.isfinite(Lc) & np.isfinite(Gc))
            tries += 1
        x = np.where(bad, x, cand)
        vel = np.where(bad, 0.0, vel_try)
        L = np.where(bad, L, Lc)
        G = np.where(bad, G, Gc)
        yield k, L, x


# --- references for the coupled descent ---------------------------------------


def every_gradient_descend_coupled(problem, x, evaluate, project):
    """optim._descend_coupled as a descent that takes every try's gradient:
    each try, backtracking ones included, asks evaluate(x) for its point,
    value and gradient. Each step tries sizes from min(lr0, 2 * kept),
    kept the size the last step accepted, halving to the floor, then the
    larger sizes from lr0 down. Like it, a generator of (step, loss,
    point) from step 0 on."""
    point, f, g = evaluate(x)
    if not (math.isfinite(f) and np.all(np.isfinite(g))):
        raise DivergedError("objective non-finite at the initial point")
    lr0 = problem.step_size * x.size
    floor = lr0 * 1e-18
    kept = lr0
    vel = np.zeros_like(g)

    def sizes(start):
        lr = start
        while True:
            yield lr
            if lr <= floor:
                break
            lr *= 0.5
        lr = lr0
        while lr > start:
            yield lr
            lr *= 0.5

    yield 0, f, point
    for k in range(1, problem.steps + 1):
        for lr in sizes(min(lr0, 2.0 * kept)):
            # momentum only on the lr0 try
            vel_try = problem.momentum * vel - lr * g if lr == lr0 else -lr * g
            cand = project(x + vel_try)
            pc, fc, gc = evaluate(cand)
            if math.isfinite(fc) and np.all(np.isfinite(gc)) and fc <= f:
                break
        else:
            return
        x, point, f, g, vel, kept = cand, pc, fc, gc, vel_try, lr
        yield k, f, point


def restart_descend_coupled(problem, x, evaluate, project):
    """optim._descend_coupled with the earlier search, which restarts every
    step at lr0: the momentum step at lr0, then -lr * g at lr0/2, lr0/4,
    ... down to the floor. The same signature, evaluate contract and
    states; a step keeps the largest size that passes."""
    point, f, grad = evaluate(x)
    g = grad()
    del grad
    if not (math.isfinite(f) and np.all(np.isfinite(g))):
        raise DivergedError("objective non-finite at the initial point")
    lr0 = problem.step_size * x.size
    floor = lr0 * 1e-18
    vel = np.zeros_like(g)
    yield 0, f, point
    for k in range(1, problem.steps + 1):
        lr = lr0
        vel_try = problem.momentum * vel - lr * g
        while True:
            cand = project(x + vel_try)
            tried, fc, grad = evaluate(cand)
            gc = grad() if math.isfinite(fc) and fc <= f else None
            del grad
            if gc is not None and np.all(np.isfinite(gc)):
                break
            if lr <= floor:
                return
            del tried
            lr *= 0.5
            vel_try = -lr * g  # momentum dropped on backtrack
        x, point, f, g, vel = cand, tried, fc, gc, vel_try
        yield k, f, point


# --- optimizer that rebuilds every view from the parameters ------------------


def rebuilt_views_optimize(problem):
    """optim.optimize with every view rebuilt from the parameters: the loss
    is evaluated on a container made for it, and each checkpoint and the
    result make the spectrogram and the waveform again, the waveform
    through a second map to the spectrogram. It descends with the
    references above, which make the same decisions as optim's descents
    but share none of their state handling. Returns (params, trajectory,
    final loss, spectrogram, signal)."""
    from magphase import optim
    from magphase.losses import WAVEFORM_TAGS
    from magphase.metrics import floored_si_sdr, msnr, psnr
    from magphase.types import DEFAULT_SAMPLE_RATE_HZ

    cfg, targets, loss = problem.cfg, problem.targets, problem.loss
    x0, _, chain, project, per_unit = optim._parameterize(problem)
    sig = targets.s if targets.s is not None else targets.y
    rate = sig.sample_rate_hz if sig is not None else DEFAULT_SAMPLE_RATE_HZ
    param = problem.parameterization
    if param is optim.Parameterization.FREE_WAVEFORM:

        def to_spec(x):
            return Spectrogram(stft_array(x, cfg), cfg)

        def to_sig(x):
            return TimeSignal(x, rate)

    else:
        unit = None  # free-ri parameters are the spectrogram
        if param is optim.Parameterization.FREE_MAG_FIXED_PHASE:
            unit = np.exp(1j * optim.fixed_phase(problem))
        n = len(sig) if sig is not None else (x0.shape[0] - 1) * cfg.hop_length_samples

        def to_complex(x):
            return x if unit is None else x * unit

        def to_spec(x):
            return Spectrogram(to_complex(x), cfg)

        def to_sig(x):
            return TimeSignal(istft_array(to_complex(x), cfg, n), rate)

    def evaluate(x):
        if loss.tag in WAVEFORM_TAGS:
            lv = evaluate_loss(loss, to_sig(x), targets)
            return x, lv.value, lv.gradient()
        lv = evaluate_loss(loss, to_spec(x), targets)
        return x, lv.value, chain(lv.gradient())

    traj = optim.TrajectoryRecord()

    def checkpoint(step, loss_map, x):
        si = ms = ps = None
        if targets.S is not None:
            ms = msnr(to_spec(x), targets.S)
            ps = psnr(to_spec(x), targets.S)
        if targets.s is not None:
            si = floored_si_sdr(to_sig(x), targets.s)
        traj.append(step, float(np.mean(loss_map)), si, ms, ps)

    x = project(np.array(x0))
    if per_unit is not None:
        states = full_eval_descend_separable(problem, x, per_unit, project)
    else:
        states = every_gradient_descend_coupled(problem, x, evaluate, project)
    every = max(1, problem.steps // 100)
    for k, loss_k, x in states:
        if k % every == 0:
            checkpoint(k, loss_k, x)
    if traj.steps[-1] != k:
        checkpoint(k, loss_k, x)
    return x, traj, traj.loss[-1], to_spec(x), to_sig(x)


# --- metrics that take every reference term per call --------------------------
#
# msnr, psnr, si_sdr and snr with nothing kept between calls: each call takes
# phase_of(S), the reference's energy and its finite check afresh, and
# _energy_sums takes every sum itself.


def _oracle_energy_sums(sums, *inputs, mixed=True):
    with np.errstate(over="ignore", invalid="ignore"):
        out = sums(*inputs)
    if all(_SUM_FLOOR <= x < math.inf for x in out[:-1]) and (
        out[-1] == 0.0 or _SUM_FLOOR <= out[-1] < math.inf
    ):
        return out, 0.0
    for a, what in zip(inputs, ("reference spectrogram", "estimate spectrogram")):
        _require_finite(a, what)
    scales = [max(float(np.max(np.abs(part))) for part in (a.real, a.imag)) or 1.0 for a in inputs]
    own = sums(*(a / scale for a, scale in zip(inputs, scales)))
    if not mixed:
        return own, 0.0
    top = max(scales)
    shared = sums(*(a / top for a in inputs))
    return (own[0],) + shared[1:], 20.0 * (math.log10(scales[0]) - math.log10(top))


def _oracle_checked_samples(est, ref):
    s, e = ref.samples, est.samples
    if len(s) != len(e):
        raise LengthMismatchError(f"length mismatch: {len(e)} vs {len(s)}")
    _require_finite(e, "estimate signal")
    _require_finite(s, "reference signal")
    return s, e


def _oracle_si_sdr_sums(s, e):
    ref_energy = float(np.dot(s, s))
    alpha = float(np.dot(s, e)) / ref_energy if ref_energy else 0.0
    target = alpha * s
    err = target - e
    return ref_energy, float(np.dot(e, e)), float(np.dot(target, target)), float(np.dot(err, err))


def oracle_si_sdr(est: TimeSignal, ref: TimeSignal) -> float:
    s, e = _oracle_checked_samples(est, ref)
    (ref_energy, est_energy, num, den), _ = _oracle_energy_sums(
        _oracle_si_sdr_sums, s, e, mixed=False
    )
    if ref_energy == 0.0:
        raise ZeroSignalError("reference signal is all-zero")
    if est_energy == 0.0:
        raise ZeroSignalError("estimate signal is all-zero")
    return _ratio_db(num, den)


def _oracle_snr_sums(s, e):
    err = s - e
    return float(np.dot(s, s)), float(np.dot(err, err))


def oracle_snr(est: TimeSignal, ref: TimeSignal) -> float:
    s, e = _oracle_checked_samples(est, ref)
    (num, den), shift_db = _oracle_energy_sums(_oracle_snr_sums, s, e)
    if num == 0.0:
        raise ZeroSignalError("reference signal is all-zero")
    return _ratio_db(num, den, shift_db)


def _oracle_msnr_sums(S, est):
    ref = np.abs(S)
    mag = np.abs(est) if np.iscomplexobj(est) else est
    return float(np.sum(ref**2)), float(np.sum((ref - mag) ** 2))


def oracle_msnr(est, S: Spectrogram) -> float:
    same_shape(est.data, S.data)
    (num, den), shift_db = _oracle_energy_sums(_oracle_msnr_sums, S.data, est.data)
    if num == 0.0:
        raise SilentReferenceError("reference spectrogram has zero energy")
    return _ratio_db(num, den, shift_db)


def oracle_psnr(est: Spectrogram, S: Spectrogram) -> float:
    same_shape(est.data, S.data)
    _require_finite(est.data, "estimate spectrogram")
    gap = 1.0 - np.cos(phase_of(S) - phase_of(est))

    def sums(S):
        mag2 = np.abs(S) ** 2
        return float(np.sum(mag2)), float(np.sum(2.0 * mag2 * gap))

    (num, den), _ = _oracle_energy_sums(sums, S.data, mixed=False)
    if num == 0.0:
        raise SilentReferenceError("reference spectrogram has zero energy")
    return _ratio_db(num, den)


def reference_read_wav(path) -> TimeSignal:
    """The scipy-based WAV reader that wavio.read_wav replaced, as its oracle.

    scipy.io.wavfile parses the file, trusting the RIFF size field; a second
    chunk walk refuses a data chunk that the file cuts short. A file whose
    RIFF size ends before its data chunk makes scipy raise a raw exception.
    """
    import struct
    import warnings

    from scipy.io import wavfile

    from magphase.errors import SpecInvalidError

    def data_chunk_cut() -> bool:
        size = os.path.getsize(path)
        with open(path, "rb") as fh:
            order = ">" if fh.read(4) == b"RIFX" else "<"
            pos = 12
            while pos + 8 <= size:
                fh.seek(pos)
                chunk_id, length = struct.unpack(order + "4sI", fh.read(8))
                if chunk_id == b"data":
                    return length != 0xFFFFFFFF and pos + 8 + length > size
                pos += 8 + length + (length & 1)
        return False

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    except (ValueError, struct.error) as exc:
        raise SpecInvalidError(f"{path} is not a readable WAV file: {exc}") from None
    if data_chunk_cut():
        raise SpecInvalidError(f"{path} is cut off: its data chunk is shorter than its header says")
    if data.ndim == 2:
        data = data[:, 0]
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise SpecInvalidError(f"unsupported WAV sample format {data.dtype}")
    return TimeSignal(samples, int(rate))
