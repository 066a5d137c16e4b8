"""Forward/inverse STFT with exact round-trip reconstruction.

Layout: the input is zero-padded by (win - hop) samples on each side,
frames start every hop samples, and the frame count is
1 + ceil(num_samples / hop). Analysis uses a periodic square-root Hann
window; synthesis uses its least-squares canonical dual for the given
hop, so reconstruction is exact even for non-dyadic hop ratios
(e.g. 200/80). Overlap-add is renormalized by the actual per-sample
window overlap, which equals 1 in the fully-overlapped interior and
corrects the partially covered edge frames.

The plan of a transform (the analysis window, the window pair, and the
overlap coverage for a frame count) is built once per config, or per
(config, frame count), and kept in small bounded caches; the cached
arrays are read-only. A config that window_pair rejects is never
cached, so it raises on every call.

Overlap-add runs over the ceil(win / hop) hop-wide column blocks of the
frames, in descending block order, so every output sample adds its
frames earliest first: the summation order is fixed, and the results
are deterministic and equal those of a per-frame loop bit for bit.

The module also exposes the adjoints of both linear maps (with respect
to the real inner product, complex matrices read as Re/Im pairs); loss
gradients that travel through an iSTFT or STFT are built on them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigInvalidError, ShapeMismatchError
from .types import (
    DEFAULT_SAMPLE_RATE_HZ,
    Spectrogram,
    StftConfig,
    TimeSignal,
    validate_signal,
    validate_spectrogram,
)

# Overlap weights below this are treated as uncovered (padding only).
_COVERAGE_TINY = 1e-12
# Entries per plan cache: far more configs and frame counts than one run uses.
_PLAN_CACHE_SIZE = 16


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WindowPair:
    """Analysis window and its canonical dual synthesis window.

    For hop H the pair satisfies sum_k analysis[n + k*H] * synthesis[n + k*H] = 1
    at every fully-overlapped position n.
    """

    analysis: np.ndarray
    synthesis: np.ndarray


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def analysis_window(cfg: StftConfig) -> np.ndarray:
    """Periodic square-root Hann window (cached, read-only)."""
    n = np.arange(cfg.win_length_samples)
    return _frozen(np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / cfg.win_length_samples)))


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def window_pair(cfg: StftConfig) -> WindowPair:
    """Analysis window plus least-squares canonical dual for cfg's hop (cached, read-only)."""
    w = analysis_window(cfg)
    hop = cfg.hop_length_samples
    lattice = np.zeros(hop)
    for r in range(hop):
        lattice[r] = np.sum(w[r::hop] ** 2)
    if np.any(lattice <= _COVERAGE_TINY):
        raise ConfigInvalidError(
            "window/hop combination has zero overlap power; reconstruction impossible"
        )
    synthesis = w / lattice[np.arange(cfg.win_length_samples) % hop]
    return WindowPair(analysis=w, synthesis=_frozen(synthesis))


def num_frames_for(num_samples: int, cfg: StftConfig) -> int:
    return 1 + math.ceil(num_samples / cfg.hop_length_samples)


def _edge_pad(cfg: StftConfig) -> int:
    return cfg.win_length_samples - cfg.hop_length_samples


def _buffer_len(num_frames: int, cfg: StftConfig) -> int:
    return (num_frames - 1) * cfg.hop_length_samples + cfg.win_length_samples


def _overlap_add(segs: np.ndarray, hop: int) -> np.ndarray:
    """Sum of frame t's segment placed at t * hop, earliest frame first.

    The buffer is viewed as hop-wide rows; column block j of every frame
    lands on the rows from j on. Taking the blocks in descending order
    adds each sample's frames in ascending frame order, the order a
    per-frame loop uses, so the sums equal that loop's bit for bit.
    """
    frames, wl = segs.shape
    blocks = -(-wl // hop)
    buf = np.zeros((frames + blocks - 1, hop))
    for j in reversed(range(blocks)):
        cols = min(hop, wl - j * hop)
        buf[j : j + frames, :cols] += segs[:, j * hop : j * hop + cols]
    return buf.reshape(-1)[: (frames - 1) * hop + wl]


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _coverage(cfg: StftConfig, num_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Overlap-add normalizer: per-sample window overlap, with 1 at the
    uncovered samples, and those samples' indices (cached, read-only)."""
    pair = window_pair(cfg)
    wd = pair.analysis * pair.synthesis
    cov = _overlap_add(np.broadcast_to(wd, (num_frames, wd.shape[0])), cfg.hop_length_samples)
    uncovered = np.flatnonzero(~(cov > _COVERAGE_TINY))
    cov[uncovered] = 1.0
    return _frozen(cov), _frozen(uncovered)


def _normalize(buf: np.ndarray, cfg: StftConfig, num_frames: int) -> None:
    """Divide an overlap-add buffer by the coverage in place; uncovered samples become 0."""
    cov, uncovered = _coverage(cfg, num_frames)
    buf /= cov
    buf[uncovered] = 0.0


def _trim(buf: np.ndarray, cfg: StftConfig, out_len: int) -> np.ndarray:
    """The out_len samples after the edge pad, zero-padded past the buffer's end."""
    pad = _edge_pad(cfg)
    out = np.zeros(out_len)
    avail = min(out_len, buf.shape[0] - pad)
    out[:avail] = buf[pad : pad + avail]
    return out


def stft(x: TimeSignal, cfg: StftConfig) -> Spectrogram:
    """One-sided STFT, fft_size//2 + 1 bins, unscaled forward DFT."""
    validate_signal(x)
    data = stft_array(x.samples, cfg)
    return Spectrogram(data, cfg)


def stft_array(samples: np.ndarray, cfg: StftConfig) -> np.ndarray:
    wl, hop = cfg.win_length_samples, cfg.hop_length_samples
    n = samples.shape[0]
    frames = num_frames_for(n, cfg)
    buf = np.zeros(_buffer_len(frames, cfg))
    pad = _edge_pad(cfg)
    buf[pad : pad + n] = samples
    segs = sliding_window_view(buf, wl)[::hop]
    assert segs.shape[0] == frames
    return np.fft.rfft(segs * analysis_window(cfg), n=cfg.fft_size, axis=1)


def istft(
    X: Spectrogram,
    out_len: int,
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ,
) -> TimeSignal:
    """Weighted overlap-add inverse, trimmed/zero-padded to out_len samples.

    sample_rate_hz only labels the output container.
    """
    validate_spectrogram(X)
    return TimeSignal(istft_array(X.data, X.config, out_len), sample_rate_hz)


def istft_array(data: np.ndarray, cfg: StftConfig, out_len: int) -> np.ndarray:
    if data.shape[1] != cfg.num_bins:
        raise ShapeMismatchError(
            f"spectrogram has {data.shape[1]} bins, config implies {cfg.num_bins}"
        )
    if out_len < 0:
        raise ShapeMismatchError("out_len must be nonnegative")
    frames, wl = data.shape[0], cfg.win_length_samples
    synthesis = window_pair(cfg).synthesis
    segs = np.fft.irfft(data, n=cfg.fft_size, axis=1)[:, :wl]
    segs *= synthesis  # in place: no second frames x win array
    buf = _overlap_add(segs, cfg.hop_length_samples)
    _normalize(buf, cfg, frames)
    return _trim(buf, cfg, out_len)


def consistency_project(X: Spectrogram, out_len: int | None = None) -> Spectrogram:
    """STFT(iSTFT(X)): projection onto the set of consistent spectrograms.

    out_len defaults to (num_frames - 1) * hop; any out_len whose frame
    count matches X keeps the projection shape-preserving (and therefore
    idempotent).
    """
    validate_spectrogram(X)
    cfg = X.config
    if out_len is None:
        out_len = (X.num_frames - 1) * cfg.hop_length_samples
    if num_frames_for(out_len, cfg) != X.num_frames:
        raise ShapeMismatchError(
            f"out_len {out_len} implies {num_frames_for(out_len, cfg)} frames, "
            f"spectrogram has {X.num_frames}"
        )
    return Spectrogram(stft_array(istft_array(X.data, cfg, out_len), cfg), cfg)


def istft_adjoint(g_time: np.ndarray, cfg: StftConfig, num_frames: int) -> np.ndarray:
    """Adjoint of istft_array(., cfg, len(g_time)) for a fixed frame count.

    Maps a time-domain cotangent to a complex [frames x bins] cotangent,
    complex entries packed as dL/dRe + 1j * dL/dIm.
    """
    wl, hop, nfft = cfg.win_length_samples, cfg.hop_length_samples, cfg.fft_size
    synthesis = window_pair(cfg).synthesis
    buf = np.zeros(_buffer_len(num_frames, cfg))
    pad = _edge_pad(cfg)
    avail = min(g_time.shape[0], buf.shape[0] - pad)
    buf[pad : pad + avail] = g_time[:avail]
    _normalize(buf, cfg, num_frames)
    segs = sliding_window_view(buf, wl)[::hop] * synthesis
    spec = np.fft.rfft(segs, n=nfft, axis=1)
    # Adjoint of irfft: interior bins carry weight 2/N (they stand for a
    # conjugate pair), DC and Nyquist carry 1/N with no imaginary part.
    scale = np.full(cfg.num_bins, 2.0 / nfft)
    scale[0] = 1.0 / nfft
    if nfft % 2 == 0:
        scale[-1] = 1.0 / nfft
    g_spec = spec * scale
    g_spec[:, 0] = g_spec[:, 0].real
    if nfft % 2 == 0:
        g_spec[:, -1] = g_spec[:, -1].real
    return g_spec


def stft_adjoint(g_spec: np.ndarray, cfg: StftConfig, out_len: int) -> np.ndarray:
    """Adjoint of stft_array(., cfg) for an input of out_len samples."""
    wl, nfft = cfg.win_length_samples, cfg.fft_size
    # Adjoint of rfft: unpack the one-sided cotangent (irfft halves the
    # interior bins and drops Im at DC/Nyquist, exactly matching the
    # forward map's sensitivities).
    c = np.full(cfg.num_bins, 0.5)
    c[0] = 1.0
    if nfft % 2 == 0:
        c[-1] = 1.0
    segs = np.fft.irfft(g_spec * c, n=nfft, axis=1)[:, :wl] * nfft * analysis_window(cfg)
    return _trim(_overlap_add(segs, cfg.hop_length_samples), cfg, out_len)
