"""Magnitude compensation geometry and the phase-difference histogram.

When an estimate is confined to a fixed phase direction, the magnitude
that best approximates a complex target under an L2 criterion is the
projection of the target onto that direction: |S| cos(delta) for phase
offset delta, clamped at zero once the offset exceeds pi/2; under the
L1 (RI-part) criterion it is a weighted median. This module provides
one closed form for both, with or without a magnitude term, that every
caller uses, and a 2-D histogram of magnitude ratio vs. cosine phase
difference for visualizing how estimated magnitudes shrink where the
phase is wrong.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalidError
from .types import _MAG_TERM_TAGS, LossKind, LossTag
from .types import MagSpectrogram, Spectrogram, phase_of, same_shape

HIST_BINS = 50
DEFAULT_FLOOR_DB = 60.0

_L2_TAGS = (LossTag.L2_COMPLEX, LossTag.L2_COMPLEX_MAG)
_L1_TAGS = (LossTag.RI, LossTag.RI_MAG)


def closed_form_weights(kind: LossKind) -> tuple[float, float]:
    """(tw, mw) of a kind with a closed-form fixed-phase optimum; ConfigInvalidError if none."""
    tag, tw = kind.tag, kind.time_weight
    mw = kind.mag_weight if tag in _MAG_TERM_TAGS else 0.0
    if tag not in _L2_TAGS and tag not in _L1_TAGS:
        raise ConfigInvalidError(f"loss {tag.value} has no closed-form magnitude optimum")
    if tw + mw == 0.0:
        raise ConfigInvalidError(f"loss {tag.value} with zero weights is constant in m")
    return tw, mw


def optimal_magnitude_along_phase(kind: LossKind, S: Spectrogram, phase: np.ndarray) -> np.ndarray:
    """Per-unit m >= 0 minimizing a fixed-phase complex loss of m e^{j phase}.

    With weights tw and mw (mw for the +mag kinds only), delta = angle(S)
    - phase, S = a + jb, c = cos phase and d = sin phase, a unit's loss is, for
    - l2-complex(+mag), a parabola with vertex |S| (tw cos delta + mw) / (tw + mw);
    - ri(+mag), tw|c| |m - a/c| + tw|d| |m - b/d| + mw |m - |S||, least at
      the weighted median of a/c, b/d and |S|. Where the cumulative weight
      is exactly one half the minimizers form an interval; its lower end
      is returned.
    Both losses are convex in m, so their optima are clamped at 0.
    """
    tw, mw = closed_form_weights(kind)
    same_shape(S.data, phase)
    mag = np.abs(S.data)
    if kind.tag in _L2_TAGS:
        return mag * np.maximum((tw * np.cos(phase_of(S) - phase) + mw) / (tw + mw), 0.0)
    c, d = np.cos(phase), np.sin(phase)
    weights = np.stack([tw * np.abs(c), tw * np.abs(d), np.full(mag.shape, mw)], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        points = np.stack([S.data.real / c, S.data.imag / d, mag], axis=-1)
    points[weights == 0] = 0.0  # a/0 or 0/0 where c or d is 0; weight 0 is never the median
    order = np.argsort(points, axis=-1)
    cum = np.cumsum(np.take_along_axis(weights, order, axis=-1), axis=-1)
    median = np.take_along_axis(order, np.argmax(2.0 * cum >= cum[..., -1:], axis=-1)[..., None], -1)
    return np.maximum(np.take_along_axis(points, median, -1)[..., 0], 0.0)


def phase_diff_map(S: Spectrogram, Y: Spectrogram) -> np.ndarray:
    """cos(angle(S) - angle(Y)) per T-F unit."""
    same_shape(S.data, Y.data)
    return np.cos(phase_of(S) - phase_of(Y))


@dataclass(frozen=True)
class Histogram2D:
    """Counts over (cos phase difference, magnitude ratio) cells.

    x covers [-1, 1] (cosine of the phase difference between clean and
    mixture), y covers [0, 2] (estimated over clean magnitude, clipped
    at 2). counts is indexed [x_bin, y_bin].
    """

    x_edges: np.ndarray
    y_edges: np.ndarray
    counts: np.ndarray
    floor_db: float

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def x_centers(self) -> np.ndarray:
        return 0.5 * (self.x_edges[:-1] + self.x_edges[1:])

    def y_centers(self) -> np.ndarray:
        return 0.5 * (self.y_edges[:-1] + self.y_edges[1:])

    def to_csv(self, path) -> None:
        xc, yc = self.x_centers(), self.y_centers()
        with open(path, "w") as fh:
            fh.write("x_center,y_center,count\n")
            for i in range(len(xc)):
                for j in range(len(yc)):
                    fh.write(f"{xc[i]:.4f},{yc[j]:.4f},{int(self.counts[i, j])}\n")

    def to_pgm(self, path) -> None:
        """P5 grayscale, max count mapped to white, low ratios at the bottom."""
        peak = max(int(self.counts.max()), 1)
        img = np.round(self.counts.T[::-1] * (255.0 / peak)).astype(np.uint8)
        h, w = img.shape
        with open(path, "wb") as fh:
            fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            fh.write(img.tobytes())


def histogram2d(
    est_mag: MagSpectrogram,
    S: Spectrogram,
    Y: Spectrogram,
    floor_db: float = DEFAULT_FLOOR_DB,
) -> Histogram2D:
    """Bin T-F units by (cos(angle S - angle Y), est_mag / |S| clipped to [0, 2]).

    Units whose energy in |S| is more than floor_db below the
    highest-energy unit are discarded (which also removes all |S| = 0
    units, where the ratio is undefined).
    """
    same_shape(est_mag.data, S.data, Y.data)
    mag_ref = np.abs(S.data)
    threshold = mag_ref.max() * 10.0 ** (-floor_db / 20.0)
    keep = mag_ref > threshold
    x = phase_diff_map(S, Y)[keep]
    ratio = np.minimum(est_mag.data[keep] / mag_ref[keep], 2.0)
    x_edges = np.linspace(-1.0, 1.0, HIST_BINS + 1)
    y_edges = np.linspace(0.0, 2.0, HIST_BINS + 1)
    counts, _, _ = np.histogram2d(x, ratio, bins=[x_edges, y_edges])
    return Histogram2D(
        x_edges=x_edges,
        y_edges=y_edges,
        counts=counts.astype(np.int64),
        floor_db=floor_db,
    )


def compensated_magnitude(S: Spectrogram, Y: Spectrogram) -> MagSpectrogram:
    """Per-unit L2-optimal magnitude along the mixture phase: max(0, |S| cos(delta))."""
    mag = optimal_magnitude_along_phase(LossKind(LossTag.L2_COMPLEX), S, phase_of(Y))
    return MagSpectrogram(mag, S.config)
