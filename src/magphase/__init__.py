"""Losses, oracle masks, metrics, and optimization experiments for
magnitude/phase compensation in time-frequency source separation."""

from .compensation import (
    Histogram2D,
    compensated_magnitude,
    histogram2d,
    optimal_magnitude_along_phase,
    phase_diff_map,
)
from .losses import (
    LossKind,
    LossTag,
    LossValue,
    Targets,
    evaluate_loss,
    parse_loss_spec,
    pit_wrap,
)
from .masks import MaskKind, MaskMatrix, apply_mask_resynth, iam, masked_magnitude, psa_target, psm
from .metrics import MetricReport, msnr, psnr, report, si_sdr, snr
from .optim import (
    OptimizationProblem,
    OptimizationResult,
    Parameterization,
    TrajectoryRecord,
    TrendReport,
    optimize,
    run_trend_experiment,
)
from .scenes import HarmonicTarget, Interference, ReverbSpec, Scene, SceneSpec, synth_rir, synth_scene
from .stft import WindowPair, consistency_project, istft, stft, window_pair
from .types import (
    MagSpectrogram,
    Spectrogram,
    StftConfig,
    TimeSignal,
    magnitude_of,
    phase_of,
    validate_signal,
    validate_spectrogram,
)

__version__ = "0.1.0"
