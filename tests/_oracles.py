"""Shared test oracles: loss-case builders and finite-difference checks.

Each loss case pins a random but well-conditioned evaluation point:
every free entry and every residual the loss sees is bounded away from
zero (>= 1e-3, usually >= 0.1), so central finite differences on the
exact-L1 values are a valid oracle for the smoothed analytic gradients.
Builders assert those preconditions so a bad seed fails loudly instead
of producing a flaky tolerance.
"""
from dataclasses import dataclass
from typing import Callable

import numpy as np

from magphase.losses import LossKind, LossTag, Targets, evaluate_loss
from magphase.stft import istft_array, num_frames_for, stft_array
from magphase.types import MagSpectrogram, Spectrogram, StftConfig, TimeSignal

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
    lv = evaluate_loss(case.kind, case.wrap(case.x0), case.targets, want_grad=True)
    g = lv.gradient
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
