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

The four array transforms take an optional workspace, a plain dict of
work arrays by name: a coupled descent holds one for its run, so its
frame matrices, padded buffers and overlap-add sums are reused from call
to call instead of allocated anew. A work array never leaves the
function that fills it: every transform returns a fresh array, with or
without a workspace, and the bits do not depend on which. Separable runs
and one-shot transforms pass none, and allocate as they would without
the option. Writing the FFTs into work arrays needs NumPy 2's out=.
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


def _scratch(work: dict | None, name: str, shape: tuple, dtype=np.float64) -> np.ndarray | None:
    """work's array under name, made anew and uninitialized when the shape or
    dtype asked for differs; None without a workspace, which numpy's out=
    reads as "allocate". The caller overwrites the array and is done with it
    when it returns, so functions that do not call each other share names."""
    if work is None:
        return None
    a = work.get(name)
    if a is None or a.shape != shape or a.dtype != dtype:
        a = work[name] = np.empty(shape, dtype)
    return a


def _zeros(work: dict | None, name: str, shape: tuple) -> np.ndarray:
    """A float64 array of zeros: work's under name, or np.zeros without a workspace."""
    buf = _scratch(work, name, shape)
    if buf is None:
        return np.zeros(shape)
    buf.fill(0.0)
    return buf


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


def _overlap_add(segs: np.ndarray, hop: int, work: dict | None = None) -> np.ndarray:
    """Sum of frame t's segment placed at t * hop, earliest frame first.

    The buffer is viewed as hop-wide rows; column block j of every frame
    lands on the rows from j on. Taking the blocks in descending order
    adds each sample's frames in ascending frame order, the order a
    per-frame loop uses, so the sums equal that loop's bit for bit.
    """
    frames, wl = segs.shape
    blocks = -(-wl // hop)
    buf = _zeros(work, "overlap_add", (frames + blocks - 1, hop))
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


def _padded(
    samples: np.ndarray, cfg: StftConfig, num_frames: int, work: dict | None
) -> np.ndarray:
    """The overlap-add buffer of num_frames frames holding samples after the edge pad, else 0."""
    buf = _zeros(work, "padded", (_buffer_len(num_frames, cfg),))
    pad = _edge_pad(cfg)
    avail = min(samples.shape[0], buf.shape[0] - pad)
    buf[pad : pad + avail] = samples[:avail]
    return buf


def stft(x: TimeSignal, cfg: StftConfig) -> Spectrogram:
    """One-sided STFT, fft_size//2 + 1 bins, unscaled forward DFT."""
    validate_signal(x)
    # Copied, not adopted: freeing the transform's own array here is what lifts
    # glibc's mmap threshold above a spectrogram's size in a CLI command; adopted,
    # every later spectrogram was mapped and faulted anew (measured).
    return Spectrogram(stft_array(x.samples, cfg), cfg)


def stft_array(samples: np.ndarray, cfg: StftConfig, work: dict | None = None) -> np.ndarray:
    wl, hop = cfg.win_length_samples, cfg.hop_length_samples
    frames = num_frames_for(samples.shape[0], cfg)
    segs = sliding_window_view(_padded(samples, cfg, frames, work), wl)[::hop]
    assert segs.shape[0] == frames
    windowed = np.multiply(segs, analysis_window(cfg), out=_scratch(work, "segments", segs.shape))
    return np.fft.rfft(windowed, n=cfg.fft_size, axis=1)


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


def istft_array(
    data: np.ndarray, cfg: StftConfig, out_len: int, work: dict | None = None
) -> np.ndarray:
    if data.shape[1] != cfg.num_bins:
        raise ShapeMismatchError(
            f"spectrogram has {data.shape[1]} bins, config implies {cfg.num_bins}"
        )
    if out_len < 0:
        raise ShapeMismatchError("out_len must be nonnegative")
    frames, wl = data.shape[0], cfg.win_length_samples
    synthesis = window_pair(cfg).synthesis
    full = _scratch(work, "frames", (frames, cfg.fft_size))
    segs = np.fft.irfft(data, n=cfg.fft_size, axis=1, out=full)[:, :wl]
    segs *= synthesis  # in place: no second frames x win array
    buf = _overlap_add(segs, cfg.hop_length_samples, work)
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


def istft_adjoint(
    g_time: np.ndarray, cfg: StftConfig, num_frames: int, work: dict | None = None
) -> np.ndarray:
    """Adjoint of istft_array(., cfg, len(g_time)) for a fixed frame count.

    Maps a time-domain cotangent to a complex [frames x bins] cotangent,
    complex entries packed as dL/dRe + 1j * dL/dIm.
    """
    wl, hop, nfft = cfg.win_length_samples, cfg.hop_length_samples, cfg.fft_size
    synthesis = window_pair(cfg).synthesis
    buf = _padded(g_time, cfg, num_frames, work)
    _normalize(buf, cfg, num_frames)
    segs = sliding_window_view(buf, wl)[::hop]
    segs = np.multiply(segs, synthesis, out=_scratch(work, "segments", segs.shape))
    spectrum = _scratch(work, "spectrum", (num_frames, cfg.num_bins), np.complex128)
    spec = np.fft.rfft(segs, n=nfft, axis=1, out=spectrum)
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


def stft_adjoint(
    g_spec: np.ndarray, cfg: StftConfig, out_len: int, work: dict | None = None
) -> np.ndarray:
    """Adjoint of stft_array(., cfg) for an input of out_len samples."""
    wl, nfft = cfg.win_length_samples, cfg.fft_size
    # Adjoint of rfft: unpack the one-sided cotangent (irfft halves the
    # interior bins and drops Im at DC/Nyquist, exactly matching the
    # forward map's sensitivities).
    c = np.full(cfg.num_bins, 0.5)
    c[0] = 1.0
    if nfft % 2 == 0:
        c[-1] = 1.0
    frames = g_spec.shape[0]
    unpacked = np.multiply(g_spec, c, out=_scratch(work, "spectrum", g_spec.shape, np.complex128))
    full = np.fft.irfft(unpacked, n=nfft, axis=1, out=_scratch(work, "frames", (frames, nfft)))
    segs = np.multiply(full[:, :wl], nfft, out=_scratch(work, "segments", (frames, wl)))
    segs *= analysis_window(cfg)
    return _trim(_overlap_add(segs, cfg.hop_length_samples, work), cfg, out_len)
