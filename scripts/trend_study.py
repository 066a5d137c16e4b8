#!/usr/bin/env python3
"""Magnitude-term trend study over a batch of seeded scenes.

For each scene, a magnitude spectrogram is optimized under the mixture
phase twice: once with a purely complex-domain objective and once with a
magnitude term added. The complex-only arm compensates (shrinks) its
magnitudes wherever the mixture phase is wrong, which buys time-domain
accuracy (SI-SDR) at the cost of magnitude accuracy (mSNR); the added
magnitude term trades the other way. This script tabulates both arms'
metrics per seed and the direction counts.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from magphase.losses import Targets, parse_loss_spec
from magphase.metrics import format_db
from magphase.optim import run_trend_experiment
from magphase.scenes import Interference, SceneSpec, synth_scene
from magphase.stft import stft
from magphase.types import StftConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--snr", type=float, default=0.0)
    ap.add_argument("--duration", type=float, default=1.0)
    ap.add_argument("--sample-rate", type=int, default=8000)
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--without", default="l2-complex", help="loss for the no-magnitude arm")
    ap.add_argument("--with-mag", dest="with_mag", default="l2-complex+mag")
    ap.add_argument("--win-ms", type=float, default=25.0)
    ap.add_argument("--hop-ms", type=float, default=10.0)
    args = ap.parse_args()

    cfg = StftConfig.from_ms(args.win_ms, args.hop_ms, args.sample_rate)
    pair = (parse_loss_spec(args.without), parse_loss_spec(args.with_mag))

    print(f"{'seed':>4}  {'si_sdr(no)':>11} {'si_sdr(+m)':>11}  {'msnr(no)':>9} {'msnr(+m)':>9}")
    msnr_wins = si_wins = 0
    for seed in range(args.seeds):
        scene = synth_scene(
            SceneSpec(
                seed=seed,
                duration_s=args.duration,
                sample_rate_hz=args.sample_rate,
                interference=Interference("white", args.snr),
            )
        )
        targets = Targets(
            S=stft(scene.s, cfg), s=scene.s, Y=stft(scene.y, cfg), y=scene.y
        )
        rep = run_trend_experiment(targets, cfg, loss_pair=pair, steps=args.steps)
        msnr_wins += rep.msnr_improved
        si_wins += rep.si_sdr_not_better
        print(
            f"{seed:>4}  {format_db(rep.without_mag.si_sdr_db):>11}"
            f" {format_db(rep.with_mag.si_sdr_db):>11} "
            f" {format_db(rep.without_mag.msnr_db):>9}"
            f" {format_db(rep.with_mag.msnr_db):>9}"
        )
    print(
        f"\nmagnitude arm: msnr >= in {msnr_wins}/{args.seeds} scenes, "
        f"si_sdr <= in {si_wins}/{args.seeds} scenes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
