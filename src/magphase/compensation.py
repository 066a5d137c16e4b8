"""Magnitude compensation geometry and the phase-difference histogram.

When an estimate is confined to a fixed phase direction, the magnitude
that best approximates a complex target under an L2 criterion is the
projection of the target onto that direction: |S| cos(delta) for phase
offset delta, clamped at zero once the offset exceeds pi/2. This module
provides that closed form (plus a numerical L1 counterpart) and a 2-D
histogram of magnitude ratio vs. cosine phase difference for visualizing
how estimated magnitudes shrink where the phase is wrong.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalidError, ShapeMismatchError
from .types import MagSpectrogram, Spectrogram, phase_of

HIST_BINS = 50
DEFAULT_FLOOR_DB = 60.0


def optimal_magnitude_along_phase(
    s_unit: complex,
    phase: float,
    norm: str = "l2",
    nonneg: bool = True,
) -> float:
    """Best magnitude m for approximating s_unit by m * exp(1j * phase).

    L2 has the closed form |s| cos(angle(s) - phase); L1 (sum of RI-part
    absolute errors) has no closed form and is minimized by ternary
    search over the bracket [0 or -2|s|, 2|s|], which always contains
    the optimum of this convex piecewise-linear objective.
    """
    s_unit = complex(s_unit)
    mag = abs(s_unit)
    if norm == "l2":
        m = mag * np.cos(np.angle(s_unit) - phase) if mag > 0 else 0.0
        return float(max(0.0, m)) if nonneg else float(m)
    if norm != "l1":
        raise ConfigInvalidError(f"norm must be 'l1' or 'l2', got {norm!r}")
    if mag == 0.0:
        return 0.0
    c, d = np.cos(phase), np.sin(phase)
    a, b = s_unit.real, s_unit.imag

    def f(m: float) -> float:
        return abs(m * c - a) + abs(m * d - b)

    lo = 0.0 if nonneg else -2.0 * mag
    hi = 2.0 * mag
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    return (lo + hi) / 2.0


def phase_diff_map(S: Spectrogram, Y: Spectrogram) -> np.ndarray:
    """cos(angle(S) - angle(Y)) per T-F unit."""
    if S.data.shape != Y.data.shape:
        raise ShapeMismatchError(f"shape mismatch: {S.data.shape} vs {Y.data.shape}")
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
    if est_mag.data.shape != S.data.shape or S.data.shape != Y.data.shape:
        raise ShapeMismatchError(
            f"shape mismatch: {est_mag.data.shape} vs {S.data.shape} vs {Y.data.shape}"
        )
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
    mag = np.abs(S.data) * np.maximum(phase_diff_map(S, Y), 0.0)
    return MagSpectrogram(mag, S.config)
