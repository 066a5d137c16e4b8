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

Every kind reads kind.time_weight and kind.mag_weight as they are:
LossKind already holds 0 for a term the kind lacks and refuses any
other value there.

evaluate_loss is the one entry point: it scores every kind, and computes
a gradient only when asked. The separable kinds (one T-F unit never sees
another) are written once, as per-unit kernels: unit_kernel binds the
reference-side terms and returns f(x) -> (value map, gradient map
function), or both at chosen units only with f(values, at=flat_idx). A
loss value is the mean of the value map and its gradient is the gradient
map over its size; optimizers line-search the maps per unit.
fixed_phase_kernel is the same per-unit form for the complex separable
kinds with a magnitude along a fixed phase as the free parameter. The
waveform kinds are one body, time L1 of y plus, when the kind has one,
the magnitude term of STFT(y). The iSTFT kinds are the waveform kinds of
y = iSTFT(estimate), their gradient carried back by istft_adjoint;
mag+ri-istft takes its magnitude term on the estimate itself rather than
on STFT(y).

An estimate may also be a Point, which holds it in both domains; the
other-domain view a loss needs it then takes from the point instead of
building it, so whoever reads the views after the loss builds neither.
A point may carry its run's workspace (a dict of work arrays, see stft),
which the loss passes to every transform it runs, so a coupled step's
transforms reuse their work arrays; what the loss returns is fresh all
the same.

Gradients with respect to complex spectrogram parameters are packed as
dL/dRe + 1j * dL/dIm.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigInvalidError, MissingTargetError, ShapeMismatchError, shown
from .masks import psa_target
from .stft import istft_adjoint, istft_array, num_frames_for, stft_adjoint, stft_array
from .types import _MAG_TERM_TAGS, LossKind, LossTag
from .types import MagSpectrogram, Spectrogram, StftConfig, TimeSignal, same_shape

L1_SMOOTH_EPS = 1e-8

MAGNITUDE_TAGS = frozenset({LossTag.MSA, LossTag.PSA})
WAVEFORM_TAGS = frozenset({LossTag.WAV, LossTag.WAV_MAG, LossTag.WAV_X0_MAG})
SPECTROGRAM_TAGS = frozenset(LossTag) - MAGNITUDE_TAGS - WAVEFORM_TAGS
SEPARABLE_TAGS = MAGNITUDE_TAGS | frozenset(
    {LossTag.RI, LossTag.RI_MAG, LossTag.PHASE, LossTag.L2_COMPLEX, LossTag.L2_COMPLEX_MAG}
)


def parse_loss_tag(name: str) -> LossTag:
    for tag in LossTag:
        if tag.value == name:
            return tag
    raise ConfigInvalidError(f"unknown loss tag {shown(name)}")


_SPEC_KEYS = frozenset({"tag", "time_weight", "mag_weight"})


def parse_loss_spec(spec: str | dict) -> LossKind:
    """A LossKind from a tag name or a {"tag", "time_weight", "mag_weight"} object."""
    if isinstance(spec, str):
        return LossKind(parse_loss_tag(spec))
    if not isinstance(spec, dict) or "tag" not in spec or set(spec) - _SPEC_KEYS:
        raise ConfigInvalidError(
            f"loss spec must be a tag name or {{tag, time_weight, mag_weight}}, got {shown(spec)}"
        )
    return LossKind(
        parse_loss_tag(spec["tag"]),
        time_weight=spec.get("time_weight"),
        mag_weight=spec.get("mag_weight"),
    )


@dataclass(frozen=True)
class LossValue:
    value: float
    gradient: Callable[[], np.ndarray] | None = None  # computes the gradient


@dataclass(frozen=True)
class Targets:
    """Oracle handles a loss, objective or checkpoint metric may need: clean
    and mixture spectrogram/signal, each of its field's type or None."""

    S: Spectrogram | None = None
    s: TimeSignal | None = None
    Y: Spectrogram | None = None
    y: TimeSignal | None = None

    def __post_init__(self):
        for name, kind in (("S", Spectrogram), ("s", TimeSignal), ("Y", Spectrogram), ("y", TimeSignal)):
            if not isinstance(value := getattr(self, name), kind | None):
                raise ConfigInvalidError(f"{name} must be {kind.__name__} or None, not {type(value).__name__}")


@dataclass(eq=False)
class Point:
    """Parameters with the estimate they give, as a Spectrogram and a TimeSignal.

    make_spectrogram(point) and make_signal(point) build the two views;
    each is built at its first read and kept. A point may say how one view
    derives from the other: istft_length, that its signal is the iSTFT of
    its spectrogram at that many samples; stft_config, that its
    spectrogram is the STFT of its signal under that config. evaluate_loss
    takes a view so derived from the point where it needs it, instead of
    building it.

    work is the workspace of the run the point belongs to, or None. The
    builders and evaluate_loss hand it to the transforms they run; the
    views themselves are fresh arrays, which no later use of work touches.
    """

    params: object
    make_spectrogram: Callable
    make_signal: Callable
    _: KW_ONLY
    istft_length: int | None = None
    stft_config: StftConfig | None = None
    work: dict | None = None

    @cached_property
    def spectrogram(self) -> Spectrogram:
        return self.make_spectrogram(self)

    @cached_property
    def signal(self) -> TimeSignal:
        return self.make_signal(self)


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


def _bind(body, *refs):
    """Per-unit kernel f(x, at=None) from an elementwise body.

    body(x, *refs) maps x and the reference maps refs (None where unused)
    to (value map, function computing the gradient map). f(x) takes x and
    refs whole. f(values, at=flat_idx) takes the values at the flat unit
    indices at and reads every reference map there, a gathered copy of
    each; since body is elementwise, its maps equal the whole maps at at
    bit for bit, so a caller that needs most units may take f(x) and read
    it at at instead (the per-unit descent's retries do). body must
    return new arrays and leave x as it is: the per-unit descent writes
    into the maps and passes its candidate itself.
    """
    flat = [None if r is None else r.reshape(-1) for r in refs]

    def kernel(x, at=None):
        if at is None:
            return body(x, *refs)
        return body(x, *(None if r is None else r[at] for r in flat))

    return kernel


def _ri_kernel(S: Spectrogram, time_weight: float, mag_weight: float = 0.0):
    """Per-unit L1 over RI parts, plus mag_weight * ||z| - |S|| when nonzero."""

    def body(z, sr, si, mag_ref):
        dr = z.real - sr
        di = z.imag - si
        val = time_weight * (np.abs(dr) + np.abs(di))
        if mag_weight:
            dm = np.abs(z) - mag_ref
            val = val + mag_weight * np.abs(dm)

        def grad():
            g = time_weight * (_smooth_l1_grad(dr) + 1j * _smooth_l1_grad(di))
            return g + mag_weight * _smooth_l1_grad(dm) * _unit(z) if mag_weight else g

        return val, grad

    return _bind(body, S.data.real, S.data.imag, np.abs(S.data) if mag_weight else None)


def _l2_kernel(S: Spectrogram, time_weight: float, mag_weight: float = 0.0):
    """Per-unit squared complex distance, plus mag_weight * (|z| - |S|)^2."""

    def body(z, ref, mag_ref):
        d = z - ref
        val = time_weight * (d.real**2 + d.imag**2)
        if mag_weight:
            dm = np.abs(z) - mag_ref
            val = val + mag_weight * dm * dm

        def grad():
            g = 2.0 * time_weight * d
            return g + 2.0 * mag_weight * dm * _unit(z) if mag_weight else g

        return val, grad

    return _bind(body, S.data, np.abs(S.data) if mag_weight else None)


def _phase_kernel(S: Spectrogram, time_weight: float):
    """Per-unit RI L1 between |S| e^{j angle(z)} and S.

    The oracle magnitude |S| is supplied, so the value depends on z only
    through its phase and the gradient flows only through angle(z); it
    vanishes at zero-magnitude units.
    """

    def body(z, mag_ref, sr, si):
        theta = np.where(z == 0, 0.0, np.angle(z))
        p_re = mag_ref * np.cos(theta)
        p_im = mag_ref * np.sin(theta)
        d_re = p_re - sr
        d_im = p_im - si

        def grad():
            dl_dt = time_weight * (_smooth_l1_grad(d_re) * (-p_im) + _smooth_l1_grad(d_im) * p_re)
            rho2 = z.real**2 + z.imag**2
            safe = np.where(rho2 > 0, rho2, 1.0)
            return np.where(rho2 > 0, dl_dt * (-z.imag + 1j * z.real) / safe, 0.0 + 0.0j)

        return time_weight * (np.abs(d_re) + np.abs(d_im)), grad

    return _bind(body, np.abs(S.data), S.data.real, S.data.imag)


def _magnitude_kernel(ref: np.ndarray, mag_weight: float):
    """Per-unit L1 between a magnitude and a fixed magnitude target."""

    def body(m, target):
        d = m - target
        return mag_weight * np.abs(d), lambda: mag_weight * _smooth_l1_grad(d)

    return _bind(body, ref)


def unit_kernel(kind: LossKind, targets: Targets):
    """Per-unit form of a separable kind: f(x) -> (value map, gradient map function).

    x is the complex estimate for the spectrogram kinds and the magnitude
    for msa/psa. The reference-side terms are bound here, once. Gradient
    maps are per unit (dL/dRe + 1j dL/dIm for complex x), i.e. element
    count times the gradient of the mean the loss reports.
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
    if tag in (LossTag.RI, LossTag.RI_MAG):
        return _ri_kernel(S, tw, mw)
    if tag in (LossTag.L2_COMPLEX, LossTag.L2_COMPLEX_MAG):
        return _l2_kernel(S, tw, mw)
    raise ConfigInvalidError(f"loss {tag.value} is not separable")


def fixed_phase_kernel(kind: LossKind, targets: Targets, unit: np.ndarray):
    """Per-unit kernel of a complex separable loss along the fixed phase `unit`.

    The free parameter is the magnitude m, and the estimate is m * unit.
    These kernels restate unit_kernel for that direction (a test holds
    them equal) rather than calling it with the chain rule
    Re(conj(unit) * g), for two measured reasons (benchmark trend
    workload, seeds 101/102, on a shared 2-core x86 host):
    - speed: the complex kernels plus the chain rule made a trend scene
      1.6-2.2x slower (l2 pair 0.59-0.79 s -> 1.00-1.74 s, L1 pair
      2.4-3.0 s -> 4.0-5.1 s);
    - the gradient at m = 0: the complex form takes the gradient of |z|
      as 0 at z = 0, while d|m * unit|/dm = 1 for m >= 0, so a unit the
      descent drives to 0 cannot be pulled back by the magnitude term.
      That moved the with-mag arm's mSNR from 18.70 dB to 17.47 dB.

    Like unit_kernel's, they are called as f(m) or f(values, at=flat_idx)
    (_bind); they compute the gradient map with the values, as the descent reads it.
    """
    tw, mw = kind.time_weight, kind.mag_weight
    (S,) = _require(targets, "S")
    mag_ref = np.abs(S.data)

    if kind.tag is LossTag.PHASE:
        # The fixed phase makes this loss constant in the magnitude; the
        # copy keeps the descent's in-place writes off the bound map.
        p = mag_ref * unit
        const = tw * (np.abs(p.real - S.data.real) + np.abs(p.imag - S.data.imag))
        return _bind(lambda m, c: (c.copy(), lambda: np.zeros_like(m)), const)

    if kind.tag in (LossTag.L2_COMPLEX, LossTag.L2_COMPLEX_MAG):

        def l2_body(m, proj, orth, mag_ref):
            d = m - proj
            val = tw * (d * d + orth * orth)
            grad = 2.0 * tw * d
            if mw:
                dm = m - mag_ref
                val = val + mw * dm * dm
                grad = grad + 2.0 * mw * dm
            return val, lambda: grad

        along = np.conj(unit) * S.data  # |S| e^{j(angle S - phase)}
        return _bind(l2_body, along.real, along.imag, mag_ref if mw else None)

    def l1_body(m, cos_p, sin_p, sr, si, mag_ref):
        a = m * cos_p - sr
        b = m * sin_p - si
        val = tw * (np.abs(a) + np.abs(b))
        grad = tw * (_smooth_l1_grad(a) * cos_p + _smooth_l1_grad(b) * sin_p)
        if mw:
            dm = m - mag_ref  # m >= 0, so |m e^{j phase}| = m
            val = val + mw * np.abs(dm)
            grad = grad + mw * _smooth_l1_grad(dm)
        return val, lambda: grad

    return _bind(l1_body, unit.real, unit.imag, S.data.real, S.data.imag, mag_ref if mw else None)


def _mean_of(kernel, x: np.ndarray, S: Spectrogram) -> LossValue:
    """Mean of a per-unit kernel over x, which must have the shape of S."""
    same_shape(x, S.data)
    val, grad = kernel(x)
    size = val.size  # the gradient function must not hold the value map
    return LossValue(float(np.mean(val)), lambda: grad() / size)


def _sum(a: LossValue, b: LossValue) -> LossValue:
    """a + b, for two loss terms whose gradients share a domain."""
    return LossValue(a.value + b.value, lambda: a.gradient() + b.gradient())


def _magnitude_term(X: np.ndarray, S: Spectrogram, mag_weight: float) -> LossValue:
    """Mean magnitude L1 of |X| vs |S|, with its gradient w.r.t. complex X."""
    mag = _mean_of(_magnitude_kernel(np.abs(S.data), mag_weight), np.abs(X), S)
    return LossValue(mag.value, lambda: mag.gradient() * _unit(X))


def _waveform_loss(y, s, S, cfg, time_weight, mag_weight, Y=None, work=None) -> LossValue:
    """Mean time L1 of samples y vs s, plus the magnitude term of Y = STFT(y)
    unless S is None; Y is built here unless the caller holds it."""
    e = y - s.samples
    wav = LossValue(
        time_weight * float(np.mean(np.abs(e))), lambda: time_weight * _smooth_l1_grad(e) / e.size
    )
    if S is None:
        return wav
    mag = _magnitude_term(stft_array(y, cfg, work) if Y is None else Y, S, mag_weight)
    return _sum(wav, LossValue(mag.value, lambda: stft_adjoint(mag.gradient(), cfg, e.size, work)))


def _check_istft_shapes(est: Spectrogram, s: TimeSignal) -> None:
    expect = num_frames_for(len(s), est.config)
    if est.num_frames != expect:
        raise ShapeMismatchError(
            f"estimate has {est.num_frames} frames, a {len(s)}-sample target implies {expect}"
        )


def evaluate_loss(
    kind: LossKind,
    estimate: Spectrogram | MagSpectrogram | TimeSignal,
    targets: Targets,
) -> LossValue:
    """Value of a loss kind at an estimate, with a function computing its gradient.

    The estimate's domain must match the kind: Spectrogram for the
    complex/consistency/phase/quadratic kinds, MagSpectrogram for
    msa/psa, TimeSignal for the waveform kinds; a Point gives the first
    two and the last.
    """
    tag, tw, mw = kind.tag, kind.time_weight, kind.mag_weight
    domain = MagSpectrogram if tag in MAGNITUDE_TAGS else Spectrogram
    domain = TimeSignal if tag in WAVEFORM_TAGS else domain
    point = estimate if isinstance(estimate, Point) and domain is not MagSpectrogram else None
    work = None
    if point is not None:
        estimate = point.signal if domain is TimeSignal else point.spectrogram
        work = point.work
    if not isinstance(estimate, domain):
        raise MissingTargetError(f"loss {tag.value} expects a {domain.__name__} estimate")

    if tag in SEPARABLE_TAGS:
        return _mean_of(unit_kernel(kind, targets), estimate.data, targets.S)
    context = f"loss {tag.value}"
    if tag not in _MAG_TERM_TAGS:
        (s,) = _require(targets, "s", context=context)
        S = None
    else:
        s, S = _require(targets, "s", "S", context=context)
    if tag in WAVEFORM_TAGS:
        if len(estimate) != len(s):
            raise ShapeMismatchError(f"length mismatch: {len(estimate)} vs {len(s)}")
        cfg = None if S is None else S.config
        held = cfg is not None and point is not None and point.stft_config == cfg
        Y = point.spectrogram.data if held else None
        return _waveform_loss(estimate.samples, s, S, cfg, tw, mw, Y, work)

    _check_istft_shapes(estimate, s)
    if S is not None:
        same_shape(estimate.data, S.data)
    cfg = estimate.config
    on_estimate = tag is LossTag.MAG_RI_ISTFT
    held = point is not None and point.istft_length == len(s)
    y = point.signal.samples if held else istft_array(estimate.data, cfg, len(s), work)
    wav = _waveform_loss(y, s, None if on_estimate else S, cfg, tw, mw, work=work)
    lv = LossValue(wav.value, lambda: istft_adjoint(wav.gradient(), cfg, estimate.num_frames, work))
    return _sum(lv, _magnitude_term(estimate.data, S, mw)) if on_estimate else lv


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
