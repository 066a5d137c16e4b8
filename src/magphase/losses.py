"""Separation losses over spectrograms, magnitudes, and waveforms.

Fourteen selectable kinds cover complex-domain regression (with and
without a magnitude term, before or after re-synthesis), time-domain
regression, magnitude-only and phase-only regression, the
phase-sensitive target, and the quadratic complex pair l2-complex /
l2-complex+mag. Every kind reports a mean over elements (so scales are
comparable across window/hop settings) and an analytic gradient; the
values are exact L1 except for the two quadratic kinds, which are mean
squared errors.

L1 gradients use the Charbonnier smoothing sqrt(d^2 + eps^2) of |d| with
eps = 1e-8, so they are defined everywhere; reported values stay exact
L1. The gradient of |z| at z = 0 is taken as 0.

The separable kinds (one T-F unit never sees another) are written once,
as per-unit kernels: unit_kernel binds the reference-side terms and
returns f(x) -> (value map, gradient map), or the maps at chosen units
only with f(values, at=flat_idx). A loss value is the mean of the value
map and its gradient is the gradient map over its size; optimizers
line-search the maps per unit.

Gradients with respect to complex spectrogram parameters are packed as
dL/dRe + 1j * dL/dIm.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigInvalidError, MissingTargetError, ShapeMismatchError
from .masks import psa_target
from .stft import istft_adjoint, istft_array, num_frames_for, stft_adjoint, stft_array
from .types import MagSpectrogram, Spectrogram, TimeSignal

L1_SMOOTH_EPS = 1e-8


class LossTag(Enum):
    RI = "ri"
    RI_MAG = "ri+mag"
    RI_ISTFT = "ri-istft"
    RI_ISTFT_MAG = "ri-istft+mag"
    MAG_RI_ISTFT = "mag+ri-istft"
    RI_ISTFT_X0_MAG = "(ri-istft)x0+mag"
    WAV = "wav"
    WAV_MAG = "wav+mag"
    WAV_X0_MAG = "wavx0+mag"
    MSA = "msa"
    PSA = "psa"
    PHASE = "phase"
    L2_COMPLEX = "l2-complex"
    L2_COMPLEX_MAG = "l2-complex+mag"


_X0_TAGS = frozenset({LossTag.RI_ISTFT_X0_MAG, LossTag.WAV_X0_MAG})

SPECTROGRAM_TAGS = frozenset(
    {
        LossTag.RI,
        LossTag.RI_MAG,
        LossTag.RI_ISTFT,
        LossTag.RI_ISTFT_MAG,
        LossTag.MAG_RI_ISTFT,
        LossTag.RI_ISTFT_X0_MAG,
        LossTag.PHASE,
        LossTag.L2_COMPLEX,
        LossTag.L2_COMPLEX_MAG,
    }
)
MAGNITUDE_TAGS = frozenset({LossTag.MSA, LossTag.PSA})
WAVEFORM_TAGS = frozenset({LossTag.WAV, LossTag.WAV_MAG, LossTag.WAV_X0_MAG})
SEPARABLE_TAGS = MAGNITUDE_TAGS | frozenset(
    {LossTag.RI, LossTag.RI_MAG, LossTag.PHASE, LossTag.L2_COMPLEX, LossTag.L2_COMPLEX_MAG}
)
_MAG_TERM_TAGS = frozenset({LossTag.RI_MAG, LossTag.L2_COMPLEX_MAG})


@dataclass(frozen=True)
class LossKind:
    """Loss selector: tag plus weights on the time/complex and magnitude terms.

    time_weight defaults to 1, except for the x0 variants where it is
    fixed at 0 (passing a nonzero value there is an error).
    """

    tag: LossTag
    time_weight: float | None = None
    mag_weight: float = 1.0

    def __post_init__(self):
        tw = self.time_weight
        if tw is None:
            tw = 0.0 if self.tag in _X0_TAGS else 1.0
        tw = float(tw)
        mw = float(self.mag_weight)
        if not (np.isfinite(tw) and np.isfinite(mw)) or tw < 0 or mw < 0:
            raise ConfigInvalidError("loss weights must be finite and nonnegative")
        if self.tag in _X0_TAGS and tw != 0.0:
            raise ConfigInvalidError(f"{self.tag.value} fixes time_weight = 0")
        object.__setattr__(self, "time_weight", tw)
        object.__setattr__(self, "mag_weight", mw)


def all_loss_kinds() -> tuple[LossKind, ...]:
    return tuple(LossKind(tag) for tag in LossTag)


def parse_loss_tag(name: str) -> LossTag:
    for tag in LossTag:
        if tag.value == name:
            return tag
    raise ConfigInvalidError(f"unknown loss tag {name!r}")


_SPEC_KEYS = frozenset({"tag", "time_weight", "mag_weight"})


def parse_loss_spec(spec: str | dict) -> LossKind:
    """A LossKind from a tag name or a {"tag", "time_weight", "mag_weight"} object."""
    if isinstance(spec, str):
        return LossKind(parse_loss_tag(spec))
    if not isinstance(spec, dict) or "tag" not in spec or set(spec) - _SPEC_KEYS:
        raise ConfigInvalidError(
            f"loss spec must be a tag name or {{tag, time_weight, mag_weight}}, got {spec!r}"
        )
    return LossKind(
        parse_loss_tag(spec["tag"]),
        time_weight=spec.get("time_weight"),
        mag_weight=spec.get("mag_weight", 1.0),
    )


@dataclass(frozen=True)
class LossValue:
    value: float
    gradient: np.ndarray | None = None


@dataclass(frozen=True)
class Targets:
    """Oracle handles a loss, objective or checkpoint metric may need:
    clean spectrogram/signal and mixture spectrogram/signal."""

    S: Spectrogram | None = None
    s: TimeSignal | None = None
    Y: Spectrogram | None = None
    y: TimeSignal | None = None


def _require(targets: Targets, *names: str, context: str = "problem") -> list:
    values = [getattr(targets, name) for name in names]
    for name, val in zip(names, values):
        if val is None:
            raise MissingTargetError(f"{context} requires target {name!r}")
    return values


def _smooth_l1_grad(d: np.ndarray) -> np.ndarray:
    return d / np.sqrt(d * d + L1_SMOOTH_EPS**2)


def _unit(z: np.ndarray) -> np.ndarray:
    r = np.abs(z)
    return np.where(r > 0, z / np.where(r > 0, r, 1.0), 0.0 + 0.0j)


def _same_shape(a, b) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")


def _bind(body, *refs):
    """Per-unit kernel f(x, want_grad=True, at=None) from an elementwise body.

    body(x, want_grad, *refs) maps x and the reference maps refs (None
    where unused) to (value map, gradient map or None). f(x) takes x and
    refs whole. f(values, want_grad, at=flat_idx) takes the values at the
    flat unit indices at and reads every reference map there; since body
    is elementwise, its maps equal the whole maps at at bit for bit.
    body must return new arrays: the per-unit descent writes into them.
    """
    flat = [None if r is None else r.reshape(-1) for r in refs]

    def kernel(x, want_grad=True, at=None):
        if at is None:
            return body(x, want_grad, *refs)
        return body(x, want_grad, *(None if r is None else r[at] for r in flat))

    return kernel


def _ri_kernel(S: Spectrogram, time_weight: float, mag_weight: float = 0.0):
    """Per-unit L1 over RI parts, plus mag_weight * ||z| - |S|| when nonzero."""

    def body(z, want_grad, sr, si, mag_ref):
        dr = z.real - sr
        di = z.imag - si
        val = time_weight * (np.abs(dr) + np.abs(di))
        grad = time_weight * (_smooth_l1_grad(dr) + 1j * _smooth_l1_grad(di)) if want_grad else None
        if mag_weight:
            dm = np.abs(z) - mag_ref
            val = val + mag_weight * np.abs(dm)
            if want_grad:
                grad = grad + mag_weight * _smooth_l1_grad(dm) * _unit(z)
        return val, grad

    return _bind(body, S.data.real, S.data.imag, np.abs(S.data) if mag_weight else None)


def _l2_kernel(S: Spectrogram, time_weight: float, mag_weight: float = 0.0):
    """Per-unit squared complex distance, plus mag_weight * (|z| - |S|)^2."""

    def body(z, want_grad, ref, mag_ref):
        d = z - ref
        val = time_weight * (d.real**2 + d.imag**2)
        grad = 2.0 * time_weight * d if want_grad else None
        if mag_weight:
            dm = np.abs(z) - mag_ref
            val = val + mag_weight * dm * dm
            if want_grad:
                grad = grad + 2.0 * mag_weight * dm * _unit(z)
        return val, grad

    return _bind(body, S.data, np.abs(S.data) if mag_weight else None)


def _phase_kernel(S: Spectrogram, time_weight: float):
    """Per-unit RI L1 between |S| e^{j angle(z)} and S; see loss_phase."""

    def body(z, want_grad, mag_ref, sr, si):
        theta = np.where(z == 0, 0.0, np.angle(z))
        p_re = mag_ref * np.cos(theta)
        p_im = mag_ref * np.sin(theta)
        d_re = p_re - sr
        d_im = p_im - si
        val = time_weight * (np.abs(d_re) + np.abs(d_im))
        if not want_grad:
            return val, None
        dl_dtheta = time_weight * (_smooth_l1_grad(d_re) * (-p_im) + _smooth_l1_grad(d_im) * p_re)
        rho2 = z.real**2 + z.imag**2
        safe = np.where(rho2 > 0, rho2, 1.0)
        grad = np.where(rho2 > 0, dl_dtheta * (-z.imag + 1j * z.real) / safe, 0.0 + 0.0j)
        return val, grad

    return _bind(body, np.abs(S.data), S.data.real, S.data.imag)


def _magnitude_kernel(ref: np.ndarray, mag_weight: float):
    """Per-unit L1 between a magnitude and a fixed magnitude target."""

    def body(m, want_grad, target):
        d = m - target
        return mag_weight * np.abs(d), mag_weight * _smooth_l1_grad(d) if want_grad else None

    return _bind(body, ref)


def unit_kernel(kind: LossKind, targets: Targets):
    """Per-unit form of a separable kind: f(x) -> (value map, gradient map).

    x is the complex estimate for the spectrogram kinds and the magnitude
    for msa/psa. The reference-side terms are bound here, once. Gradient
    maps are per unit (dL/dRe + 1j dL/dIm for complex x), i.e. element
    count times the gradient of the mean the loss reports;
    f(x, want_grad=False) skips them and returns None in their place.
    f(values, at=flat_idx) evaluates only the units at those flat indices
    (values holds x there) and returns their entries of both maps.
    """
    tag, tw, mw = kind.tag, kind.time_weight, kind.mag_weight
    context = f"loss {tag.value}"
    if tag is LossTag.PSA:
        S, Y = _require(targets, "S", "Y", context=context)
        return _magnitude_kernel(psa_target(S, Y).data, mw)
    (S,) = _require(targets, "S", context=context)
    if tag is LossTag.MSA:
        return _magnitude_kernel(np.abs(S.data), mw)
    if tag is LossTag.PHASE:
        return _phase_kernel(S, tw)
    mw = mw if tag in _MAG_TERM_TAGS else 0.0
    if tag in (LossTag.RI, LossTag.RI_MAG):
        return _ri_kernel(S, tw, mw)
    if tag in (LossTag.L2_COMPLEX, LossTag.L2_COMPLEX_MAG):
        return _l2_kernel(S, tw, mw)
    raise ConfigInvalidError(f"loss {tag.value} is not separable")


def _mean_of(kernel, x: np.ndarray, S: Spectrogram, want_grad: bool) -> LossValue:
    """Mean of a per-unit kernel over x, which must have the shape of S."""
    _same_shape(x, S.data)
    val, grad = kernel(x, want_grad)
    return LossValue(float(np.mean(val)), grad / val.size if want_grad else None)


def loss_ri(
    est: Spectrogram,
    S: Spectrogram,
    time_weight: float = 1.0,
    want_grad: bool = False,
) -> LossValue:
    """Mean L1 over real and imaginary parts."""
    return _mean_of(_ri_kernel(S, time_weight), est.data, S, want_grad)


def loss_ri_mag(
    est: Spectrogram,
    S: Spectrogram,
    time_weight: float = 1.0,
    mag_weight: float = 1.0,
    want_grad: bool = False,
) -> LossValue:
    """loss_ri plus a magnitude L1 term on |est| vs |S|."""
    return _mean_of(_ri_kernel(S, time_weight, mag_weight), est.data, S, want_grad)


def _check_istft_shapes(est: Spectrogram, s: TimeSignal) -> None:
    expect = num_frames_for(len(s), est.config)
    if est.num_frames != expect:
        raise ShapeMismatchError(
            f"estimate has {est.num_frames} frames, a {len(s)}-sample target implies {expect}"
        )


def loss_ri_istft(
    est: Spectrogram,
    s: TimeSignal,
    time_weight: float = 1.0,
    want_grad: bool = False,
) -> LossValue:
    """Mean L1 in the time domain after inverting the estimated spectrogram."""
    _check_istft_shapes(est, s)
    cfg = est.config
    e = istft_array(est.data, cfg, len(s)) - s.samples
    value = time_weight * float(np.mean(np.abs(e)))
    grad = None
    if want_grad:
        g_time = time_weight * _smooth_l1_grad(e) / e.size
        grad = istft_adjoint(g_time, cfg, est.num_frames)
    return LossValue(value, grad)


def loss_ri_istft_mag(
    est: Spectrogram,
    s: TimeSignal,
    S: Spectrogram,
    time_weight: float = 1.0,
    mag_weight: float = 1.0,
    want_grad: bool = False,
) -> LossValue:
    """Time-domain L1 plus a magnitude L1 on the re-analyzed inverse.

    The magnitude term compares |STFT(iSTFT(est))| (the consistency
    projection of the estimate) against |S|, so it scores the magnitude
    of the signal actually produced.
    """
    _check_istft_shapes(est, s)
    _same_shape(est.data, S.data)
    cfg = est.config
    n = len(s)
    y_hat = istft_array(est.data, cfg, n)
    e = y_hat - s.samples
    proj = stft_array(y_hat, cfg)
    mag = _mean_of(_magnitude_kernel(np.abs(S.data), mag_weight), np.abs(proj), S, want_grad)
    value = time_weight * float(np.mean(np.abs(e))) + mag.value
    grad = None
    if want_grad:
        g_time = time_weight * _smooth_l1_grad(e) / e.size
        g_time = g_time + stft_adjoint(mag.gradient * _unit(proj), cfg, n)
        grad = istft_adjoint(g_time, cfg, est.num_frames)
    return LossValue(value, grad)


def loss_mag_ri_istft(
    est: Spectrogram,
    s: TimeSignal,
    S: Spectrogram,
    time_weight: float = 1.0,
    mag_weight: float = 1.0,
    want_grad: bool = False,
) -> LossValue:
    """Magnitude L1 taken on the raw estimate (before inversion) plus time L1."""
    base = loss_ri_istft(est, s, time_weight, want_grad)
    mag = _mean_of(_magnitude_kernel(np.abs(S.data), mag_weight), np.abs(est.data), S, want_grad)
    grad = None if not want_grad else base.gradient + mag.gradient * _unit(est.data)
    return LossValue(base.value + mag.value, grad)


def loss_wav(
    est: TimeSignal,
    s: TimeSignal,
    time_weight: float = 1.0,
    want_grad: bool = False,
) -> LossValue:
    """Mean L1 between waveforms."""
    if len(est) != len(s):
        raise ShapeMismatchError(f"length mismatch: {len(est)} vs {len(s)}")
    e = est.samples - s.samples
    value = time_weight * float(np.mean(np.abs(e)))
    grad = None
    if want_grad:
        grad = time_weight * _smooth_l1_grad(e) / e.size
    return LossValue(value, grad)


def loss_wav_mag(
    est: TimeSignal,
    s: TimeSignal,
    S: Spectrogram,
    time_weight: float = 1.0,
    mag_weight: float = 1.0,
    want_grad: bool = False,
) -> LossValue:
    """Waveform L1 plus a magnitude L1 on |STFT(est)| vs |S|."""
    if len(est) != len(s):
        raise ShapeMismatchError(f"length mismatch: {len(est)} vs {len(s)}")
    cfg = S.config
    X_hat = stft_array(est.samples, cfg)
    e = est.samples - s.samples
    mag = _mean_of(_magnitude_kernel(np.abs(S.data), mag_weight), np.abs(X_hat), S, want_grad)
    value = time_weight * float(np.mean(np.abs(e))) + mag.value
    grad = None
    if want_grad:
        cot = mag.gradient * _unit(X_hat)
        grad = time_weight * _smooth_l1_grad(e) / e.size + stft_adjoint(cot, cfg, len(est))
    return LossValue(value, grad)


def loss_msa(
    est: MagSpectrogram,
    S: Spectrogram,
    mag_weight: float = 1.0,
    want_grad: bool = False,
) -> LossValue:
    """Mean L1 between an estimated magnitude and |S|."""
    return _mean_of(_magnitude_kernel(np.abs(S.data), mag_weight), est.data, S, want_grad)


def loss_psa(
    est: MagSpectrogram,
    S: Spectrogram,
    Y: Spectrogram,
    mag_weight: float = 1.0,
    want_grad: bool = False,
) -> LossValue:
    """Mean L1 against the truncated phase-sensitive magnitude target."""
    return _mean_of(_magnitude_kernel(psa_target(S, Y).data, mag_weight), est.data, S, want_grad)


def loss_phase(
    est: Spectrogram,
    S: Spectrogram,
    time_weight: float = 1.0,
    want_grad: bool = False,
) -> LossValue:
    """L1 between |S| e^{j angle(est)} and S over RI parts.

    The oracle magnitude |S| is supplied, so the value depends on the
    estimate only through its phase and the gradient flows only through
    angle(est); it vanishes at zero-magnitude estimate bins.
    """
    return _mean_of(_phase_kernel(S, time_weight), est.data, S, want_grad)


def evaluate_loss(
    kind: LossKind,
    estimate: Spectrogram | MagSpectrogram | TimeSignal,
    targets: Targets,
    want_grad: bool = False,
) -> LossValue:
    """Route a LossKind to its implementation.

    The estimate's domain must match the kind: Spectrogram for the
    complex/consistency/phase/quadratic kinds, MagSpectrogram for
    msa/psa, TimeSignal for the waveform kinds.
    """
    tag, tw, mw = kind.tag, kind.time_weight, kind.mag_weight
    if tag in SPECTROGRAM_TAGS and not isinstance(estimate, Spectrogram):
        raise MissingTargetError(f"loss {tag.value} expects a Spectrogram estimate")
    if tag in MAGNITUDE_TAGS and not isinstance(estimate, MagSpectrogram):
        raise MissingTargetError(f"loss {tag.value} expects a MagSpectrogram estimate")
    if tag in WAVEFORM_TAGS and not isinstance(estimate, TimeSignal):
        raise MissingTargetError(f"loss {tag.value} expects a TimeSignal estimate")

    context = f"loss {tag.value}"
    if tag in SEPARABLE_TAGS:
        kernel = unit_kernel(kind, targets)
        return _mean_of(kernel, estimate.data, targets.S, want_grad)
    if tag is LossTag.RI_ISTFT:
        (s,) = _require(targets, "s", context=context)
        return loss_ri_istft(estimate, s, tw, want_grad)
    if tag is LossTag.WAV:
        (s,) = _require(targets, "s", context=context)
        return loss_wav(estimate, s, tw, want_grad)
    s, S = _require(targets, "s", "S", context=context)
    if tag in (LossTag.RI_ISTFT_MAG, LossTag.RI_ISTFT_X0_MAG):
        return loss_ri_istft_mag(estimate, s, S, tw, mw, want_grad)
    if tag is LossTag.MAG_RI_ISTFT:
        return loss_mag_ri_istft(estimate, s, S, tw, mw, want_grad)
    return loss_wav_mag(estimate, s, S, tw, mw, want_grad)


def pit_wrap(
    kind: LossKind,
    estimates,
    targets,
) -> tuple[LossValue, tuple[int, int]]:
    """Permutation-invariant wrapper for exactly two sources.

    The loss of an assignment is the mean of the two per-source losses;
    both assignments are evaluated and the smaller one is returned along
    with its permutation (estimate index -> target index).
    """
    if len(estimates) != 2 or len(targets) != 2:
        raise ShapeMismatchError("pit_wrap handles exactly 2 estimates and 2 targets")
    best_value = None
    best_perm = None
    for perm in ((0, 1), (1, 0)):
        total = 0.0
        for est_idx, tgt_idx in enumerate(perm):
            total += evaluate_loss(kind, estimates[est_idx], targets[tgt_idx]).value
        value = total / 2.0
        if best_value is None or value < best_value:
            best_value = value
            best_perm = perm
    return LossValue(best_value), best_perm
