import ast
import contextlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from magphase import cli, compensation, metrics, optim, scenes
from magphase.cli import _HIST_SOURCES, build_parser, main
from magphase.errors import SpecInvalidError
from magphase.wavio import read_wav, write_wav
from magphase.scenes import SceneSpec, synth_scene
from magphase.stft import stft
from magphase.types import StftConfig, TimeSignal


def run(*argv):
    return main([str(a) for a in argv])


@contextlib.contextmanager
def no_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    assert not caught, [str(w.message) for w in caught]


@pytest.fixture()
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    assert run("synth", "--seed", 3, "--snr", 0, "--out", out) == 0
    return out


@pytest.fixture()
def clean_dir(tmp_path):
    out = tmp_path / "clean"
    assert run("synth", "--seed", 3, "--snr", 300, "--out", out) == 0
    return out


def test_synth_writes_expected_files(scene_dir):
    for name in ("s.wav", "v.wav", "y.wav", "scene.json"):
        assert (scene_dir / name).exists()
    doc = json.loads((scene_dir / "scene.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["seed"] == 3
    s = read_wav(scene_dir / "s.wav")
    assert s.sample_rate_hz == 8000
    assert len(s) == 8000


def test_synth_deterministic_overwrite(tmp_path):
    out = tmp_path / "d"
    assert run("synth", "--seed", 9, "--snr", 5, "--out", out) == 0
    first = (out / "y.wav").read_bytes()
    assert run("synth", "--seed", 9, "--snr", 5, "--out", out) == 0
    assert (out / "y.wav").read_bytes() == first


def test_synth_two_talker_writes_s2(tmp_path):
    out = tmp_path / "tt"
    assert run("synth", "--seed", 2, "--interference", "second_talker", "--snr", 0, "--out", out) == 0
    assert (out / "s2.wav").exists()


def test_synth_invalid_snr_exits_nonzero(tmp_path, capsys):
    code = run("synth", "--seed", 1, "--snr", "nan", "--out", tmp_path / "x")
    assert code != 0
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "drr, match",
    [
        ("nan", "direct-to-reverb ratio must be finite"),
        ("inf", "direct-to-reverb ratio must be finite"),
        ("-inf", "direct-to-reverb ratio must be finite"),
        ("-1e9", r"direct-to-reverb ratio -1000000000\.0 dB overflows the tail"),
    ],
    ids=["nan", "inf", "-inf", "-1e9"],
)
def test_synth_refuses_a_drr_it_cannot_build(tmp_path, capsys, drr, match):
    # nan and -inf wrote an all-NaN y.wav with exit 0; -1e9 died with an
    # OverflowError traceback.
    out = tmp_path / "x"
    _expect_spec_error(capsys, ["synth", "--seed", 1, "--reverb-rt60", 0.3, f"--drr={drr}", "--out", out], match)
    assert not out.exists()


def test_synth_refuses_a_scene_float32_cannot_hold(tmp_path, capsys):
    # A finite DRR of -1000 dB gives a tail gain near 1e50: it exited 0 and
    # wrote a y.wav whose samples read back as +-inf.
    out = tmp_path / "x"
    argv = ["synth", "--seed", 1, "--reverb-rt60", 0.3, "--drr=-1000", "--out", out]
    with no_warnings():
        _expect_spec_error(capsys, argv, "v.wav: a float32 WAV cannot hold samples of magnitude")
    assert not out.exists()  # s.wav was written before v.wav was refused


def test_metrics_identical_files_all_inf(scene_dir, tmp_path, capsys):
    json_out = tmp_path / "m.json"
    code = run(
        "metrics",
        "--est", scene_dir / "s.wav",
        "--ref", scene_dir / "s.wav",
        "--win", 200, "--hop", 80,
        "--json", json_out,
    )
    assert code == 0
    doc = json.loads(json_out.read_text())
    assert set(doc) == {"si_sdr_db", "snr_db", "msnr_db", "psnr_db"}
    assert all(doc[k] == "inf" for k in doc)
    out = capsys.readouterr().out
    assert "si_sdr_db inf" in out


def test_metrics_silent_estimate_snr_zero(scene_dir, tmp_path):
    ref = read_wav(scene_dir / "s.wav")
    silent = tmp_path / "silent.wav"
    write_wav(silent, TimeSignal(np.zeros(len(ref)), ref.sample_rate_hz))
    json_out = tmp_path / "m.json"
    code = run(
        "metrics",
        "--est", silent, "--ref", scene_dir / "s.wav",
        "--win", 200, "--hop", 80, "--json", json_out,
    )
    assert code == 0
    doc = json.loads(json_out.read_text())
    assert abs(doc["snr_db"]) < 1e-9
    assert doc["si_sdr_db"] == "-inf"


def test_metrics_csv_schema(scene_dir, tmp_path):
    csv_out = tmp_path / "m.csv"
    assert run(
        "metrics",
        "--est", scene_dir / "y.wav", "--ref", scene_dir / "s.wav",
        "--win", 200, "--hop", 80, "--csv", csv_out,
    ) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "si_sdr_db,snr_db,msnr_db,psnr_db"
    assert len(lines[1].split(",")) == 4


def test_metrics_makes_the_parent_directories_of_json_and_csv(scene_dir, tmp_path):
    # As for --out. --json ok.json --csv missing/x.csv wrote ok.json and
    # then exited 1 with an io error.
    json_out, csv_out = tmp_path / "ok.json", tmp_path / "missing" / "x.csv"
    argv = ["metrics", "--est", scene_dir / "y.wav", "--ref", scene_dir / "s.wav", "--win", 200, "--hop", 80]
    assert run(*argv, "--json", json_out, "--csv", csv_out) == 0
    assert set(json.loads(json_out.read_text())) == {"si_sdr_db", "snr_db", "msnr_db", "psnr_db"}
    assert csv_out.read_text().startswith("si_sdr_db,snr_db,msnr_db,psnr_db\n")


def test_mask_iam_noiseless_recovers_source(clean_dir, tmp_path):
    out = tmp_path / "m"
    code = run(
        "mask", "--scene", clean_dir, "--kind", "iam",
        "--win", 200, "--hop", 80, "--out", out,
    )
    assert code == 0
    enhanced = read_wav(out / "enhanced.wav")
    s = read_wav(clean_dir / "s.wav")
    assert np.max(np.abs(enhanced.samples - s.samples)) < 1e-6


def test_mask_iam_reports_inf_no_resynth_msnr(scene_dir, tmp_path):
    out = tmp_path / "m"
    assert run(
        "mask", "--scene", scene_dir, "--kind", "iam",
        "--win", 200, "--hop", 80, "--out", out,
    ) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["msnr_no_resynth_db"] == "inf"
    assert doc["mask_kind"] == "iam"
    assert isinstance(doc["msnr_db"], float)  # resynthesis breaks exactness


def test_mask_psm_beats_iam_si_sdr(scene_dir, tmp_path):
    scores = {}
    for kind in ("iam", "psm"):
        out = tmp_path / kind
        assert run(
            "mask", "--scene", scene_dir, "--kind", kind,
            "--win", 200, "--hop", 80, "--out", out,
        ) == 0
        scores[kind] = json.loads((out / "metrics.json").read_text())["si_sdr_db"]
    assert scores["psm"] >= scores["iam"]


def test_mask_psa_target_runs(scene_dir, tmp_path):
    out = tmp_path / "psa"
    assert run(
        "mask", "--scene", scene_dir, "--kind", "psa-target",
        "--win", 200, "--hop", 80, "--out", out,
    ) == 0
    assert (out / "enhanced.wav").exists()


def test_optimize_verify_oracle(scene_dir, tmp_path, capsys):
    out = tmp_path / "opt"
    code = run(
        "optimize", "--scene", scene_dir, "--out", out,
        "--steps", 300, "--win", 200, "--hop", 80, "--verify-oracle",
    )
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("final_loss ")
    assert printed[1] == "stop_reason budget"
    traj = (out / "trajectory.csv").read_text().strip().splitlines()
    assert traj[0] == "step,loss,si_sdr_db,msnr_db,psnr_db"
    assert (out / "final.wav").exists()
    doc = json.loads((out / "metrics.json").read_text())
    assert set(doc) == {"si_sdr_db", "snr_db", "msnr_db", "psnr_db"}


def test_optimize_problem_json_msa(scene_dir, tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "parameterization": "free-mag-fixed-phase",
                "phase_source": "mixture",
                "loss": {"tag": "msa"},
                "init": "mixture",
                "steps": 1500,
            }
        )
    )
    out = tmp_path / "opt"
    code = run(
        "optimize", "--scene", scene_dir, "--problem", problem,
        "--out", out, "--win", 200, "--hop", 80,
    )
    assert code == 0
    # MSA ignores the phase error entirely: the magnitude converges to
    # |S|, so the pre-resynthesis magnitude SNR is essentially perfect.
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    final_msnr = lines[-1].split(",")[3]
    assert final_msnr == "inf" or float(final_msnr) > 80


def test_optimize_problem_json_weighted_quadratic(scene_dir, tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(
        json.dumps({"loss": {"tag": "l2-complex+mag", "mag_weight": 2.0}, "steps": 20})
    )
    code = run(
        "optimize", "--scene", scene_dir, "--problem", problem,
        "--out", tmp_path / "o", "--win", 200, "--hop", 80,
    )
    assert code == 0


def _expect_spec_error(capsys, argv, match):
    """The command raises SpecInvalidError; main turns it into exit 1 without a traceback."""
    args = build_parser().parse_args([str(a) for a in argv])
    with pytest.raises(SpecInvalidError, match=match):
        args.func(args)
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "text, match",
    [
        # The magnitude weight belongs inside "loss" ({"tag": ..., "mag_weight": ...}).
        ('{"mag_weight": 2.0}', "unknown problem JSON keys: mag_weight"),
        ('{"stpes": 10}', "unknown problem JSON keys: stpes"),
        ('{"schema_version": 2}', "schema_version 2"),
        ('{"parameterization": "free-phase"}', "free-phase"),
        ('{"steps": 10', "malformed"),
        # ri has no magnitude term, so a weight on it would be ignored.
        ('{"loss": {"tag": "ri", "mag_weight": 2.0}}', "ri has no term for mag_weight"),
        # Each value must have its JSON type; nothing is truncated or parsed.
        ('{"steps": 3.9}', "steps: expected an integer, got 3.9"),
        ('{"steps": true}', "steps: expected an integer, got true"),
        ('{"steps": "3"}', "steps: expected an integer"),
        ('{"init_seed": 2.7}', "init_seed: expected an integer"),
        ('{"step_size": "0.5"}', "step_size: expected a number"),
        ('{"momentum": false}', "momentum: expected a number"),
        ('{"phase_source": 1}', "phase_source: expected a string"),
        ('{"init": null}', "init: expected a string"),
        ("[1, 2]", "problem JSON must be an object"),
    ],
    ids=[
        "top_level_mag_weight",
        "typo",
        "schema_version",
        "parameterization",
        "malformed",
        "weight_on_missing_term",
        "fractional_steps",
        "bool_steps",
        "string_steps",
        "fractional_init_seed",
        "string_step_size",
        "bool_momentum",
        "number_phase_source",
        "null_init",
        "not_an_object",
    ],
)
def test_optimize_problem_json_fails_loudly(scene_dir, tmp_path, capsys, text, match):
    problem = tmp_path / "p.json"
    problem.write_text(text)
    argv = ["optimize", "--scene", scene_dir, "--problem", problem, "--out", tmp_path / "o"]
    _expect_spec_error(capsys, argv, match)


def test_optimize_problem_json_rejects_unknown_loss_key(scene_dir, tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"loss": {"tag": "msa", "weight": 2.0}}))
    assert run("optimize", "--scene", scene_dir, "--problem", problem, "--out", tmp_path / "o") == 1


@pytest.mark.parametrize(
    "flags, match",
    [
        (("--win", 200), "--win and --hop"),
        (("--hop", 80), "--win and --hop"),
        (("--win", 512, "--hop", 128, "--win-ms", 5, "--hop-ms", 1), "--win-ms and --hop-ms"),
    ],
    ids=["win", "hop", "samples_and_ms"],
)
def test_win_and_hop_must_come_together(scene_dir, capsys, flags, match):
    # Either flag alone used to be dropped silently in favour of 32/8 ms,
    # and --win-ms/--hop-ms silently in favour of --win/--hop.
    argv = ["metrics", "--est", scene_dir / "y.wav", "--ref", scene_dir / "s.wav", *flags]
    _expect_spec_error(capsys, argv, match)


@pytest.mark.parametrize(
    "argv, match",
    [
        (["optimize", "--trend", "--problem", "missing.json"], "--problem does not apply"),
        (["optimize", "--trend", "--verify-oracle"], "--verify-oracle does not apply to --trend"),
        (["optimize", "--pair", "ri,ri+mag"], "--pair applies only with --trend"),
        (["histogram", "--source", "oracle", "--est-wav", "missing.wav"], "--est-wav applies only"),
        (["synth", "--seed", 1, "--drr", 6], "--drr applies only with --reverb-rt60"),
    ],
    ids=["trend_problem", "trend_verify_oracle", "pair_without_trend", "est_wav", "drr"],
)
def test_flags_the_command_would_ignore_are_refused(scene_dir, tmp_path, capsys, argv, match):
    # Each of these ran to exit 0 with the flag dropped.
    where = ["--out", tmp_path / "o"] + ([] if argv[0] == "synth" else ["--scene", scene_dir])
    _expect_spec_error(capsys, [*argv, *where], match)
    assert not (tmp_path / "o").exists()


def test_optimize_trend_csv(scene_dir, tmp_path):
    out = tmp_path / "trend"
    code = run(
        "optimize", "--scene", scene_dir, "--out", out, "--trend",
        "--steps", 200, "--win", 200, "--hop", 80,
    )
    assert code == 0
    lines = (out / "trend.csv").read_text().strip().splitlines()
    assert lines[0] == "arm,loss,si_sdr_db,msnr_db,psnr_db"
    assert len(lines) == 3


def test_optimize_trend_without_steps_takes_the_default_budget(scene_dir, tmp_path, capsys):
    # --steps is optional with --trend too: the budget is then the trend default.
    out = tmp_path / "trend"
    code = run("optimize", "--scene", scene_dir, "--out", out, "--trend", "--win", 200, "--hop", 80)
    assert code == 0, capsys.readouterr().err
    assert len((out / "trend.csv").read_text().strip().splitlines()) == 3


def test_optimize_verify_oracle_rejects_wrong_problem(scene_dir, tmp_path, capsys):
    # The L1 pair's optimum can be an interval, so no one magnitude is the oracle.
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"loss": "ri+mag"}))
    code = run(
        "optimize", "--scene", scene_dir, "--problem", problem,
        "--out", tmp_path / "o", "--win", 200, "--hop", 80, "--verify-oracle",
    )
    assert code == 1
    assert "interval" in capsys.readouterr().err
    # A zero-weight L2 loss is constant in m: refused before the descent runs.
    for loss in (
        {"tag": "l2-complex", "time_weight": 0},
        {"tag": "l2-complex+mag", "time_weight": 0, "mag_weight": 0},
    ):
        problem.write_text(json.dumps({"loss": loss}))
        out = tmp_path / loss["tag"]
        code = run(
            "optimize", "--scene", scene_dir, "--problem", problem,
            "--out", out, "--win", 200, "--hop", 80, "--verify-oracle",
        )
        assert code == 1
        assert "constant" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()


def test_optimize_verify_oracle_weighted_l2_mag(scene_dir, tmp_path, capsys):
    # The oracle is the closed form of the problem's own kind and weights.
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"loss": {"tag": "l2-complex+mag", "mag_weight": 2.0}}))
    code = run(
        "optimize", "--scene", scene_dir, "--problem", problem, "--steps", 300,
        "--out", tmp_path / "o", "--win", 200, "--hop", 80, "--verify-oracle",
    )
    assert code == 0
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("oracle_")]
    assert float(line.split()[1]) < 1e-7  # 1.1e-8 measured


def test_optimize_verify_oracle_mismatch_exits_3(scene_dir, tmp_path, capsys):
    # Two small steps leave the magnitudes far from the closed form.
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"step_size": 0.01}))
    code = run(
        "optimize", "--scene", scene_dir, "--problem", problem, "--steps", 2,
        "--out", tmp_path / "o", "--win", 200, "--hop", 80, "--verify-oracle",
    )
    assert code == 3
    out, err = capsys.readouterr()
    (line,) = [x for x in out.splitlines() if x.startswith("oracle_")]
    assert float(line.split()[1]) > 1e-4
    assert "oracle check FAILED" in err


@pytest.mark.parametrize("pair", ["ri", "ri,ri+mag,wav"])
def test_optimize_trend_pair_needs_two_losses(scene_dir, tmp_path, capsys, pair):
    argv = ["optimize", "--scene", scene_dir, "--out", tmp_path / "o", "--trend", "--pair", pair]
    _expect_spec_error(capsys, argv, "exactly two")


def test_optimize_trend_pair_runs_the_named_losses(scene_dir, tmp_path, capsys):
    out = tmp_path / "trend"
    argv = ["optimize", "--scene", scene_dir, "--out", out, "--trend", "--pair", "ri,ri+mag"]
    assert run(*argv, "--steps", 5, "--win", 200, "--hop", 80) == 0
    rows = (out / "trend.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["arm", "ri", "ri+mag"]
    assert capsys.readouterr().out.startswith("ri: si_sdr ")


@pytest.mark.parametrize(
    "source, match",
    [("custom", "phase_source 'custom' needs custom_phase"), ("moon", "unknown phase source 'moon'")],
)
def test_optimize_refuses_a_phase_source_it_cannot_build(scene_dir, tmp_path, capsys, source, match):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"phase_source": source}))
    argv = ["optimize", "--scene", scene_dir, "--problem", problem, "--steps", 3, "--win", 200]
    assert run(*argv, "--hop", 80, "--out", tmp_path / "o") == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == f"error: {match}\n"


def test_fft_flag_sets_the_fft_size(scene_dir, tmp_path, capsys):
    # --fft replaces the power of two the window implies, in samples and in ms alike.
    s, y = read_wav(scene_dir / "s.wav"), read_wav(scene_dir / "y.wav")
    cfg = StftConfig(200, 80, 512)
    expected = metrics.report(y, s, stft(y, cfg), stft(s, cfg)).to_json()
    base = ["metrics", "--est", scene_dir / "y.wav", "--ref", scene_dir / "s.wav"]
    for flags in (("--win", 200, "--hop", 80), ("--win-ms", 25, "--hop-ms", 10)):
        json_out = tmp_path / "m.json"
        assert run(*base, *flags, "--fft", 512, "--json", json_out) == 0
        assert json_out.read_text() == expected
    assert run(*base, "--win", 200, "--hop", 80, "--fft", 100) == 1
    assert "fft_size 100 smaller than window length 200" in capsys.readouterr().err


@pytest.mark.parametrize("fft", [4097, 2**40, 10**20])
def test_fft_far_above_the_window_is_refused_before_any_stft(scene_dir, monkeypatch, capsys, fft):
    # 8 times the 512-point FFT a 512-sample window implies is 4096. An STFT
    # run here would fail the test rather than allocate for a huge --fft.
    from magphase import cli

    def no_stft(*args):
        raise AssertionError("STFT taken before --fft was checked")

    monkeypatch.setattr(cli, "stft", no_stft)
    base = ["metrics", "--est", scene_dir / "y.wav", "--ref", scene_dir / "s.wav"]
    assert run(*base, "--win", 512, "--hop", 128, "--fft", fft) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"error: --fft {fft} exceeds 4096, 8 times the window's 512-point FFT\n"


def test_fft_at_eight_times_the_window_fft_is_accepted(scene_dir, tmp_path):
    s, y = read_wav(scene_dir / "s.wav"), read_wav(scene_dir / "y.wav")
    cfg = StftConfig(512, 128, 4096)
    expected = metrics.report(y, s, stft(y, cfg), stft(s, cfg)).to_json()
    json_out = tmp_path / "m.json"
    base = ["metrics", "--est", scene_dir / "y.wav", "--ref", scene_dir / "s.wav"]
    assert run(*base, "--win", 512, "--hop", 128, "--fft", 4096, "--json", json_out) == 0
    assert json_out.read_text() == expected


def test_histogram_outputs(scene_dir, tmp_path, capsys):
    for source in _HIST_SOURCES:
        prefix = tmp_path / source
        est = ["--est-wav", scene_dir / "y.wav"] if source == "est-wav" else []
        code = run(
            "histogram", "--scene", scene_dir, "--source", source, *est,
            "--win", 200, "--hop", 80, "--out", prefix,
        )
        assert code == 0, source
        retained = int(capsys.readouterr().out.split()[1])  # "retained_units N"
        csv_lines = prefix.with_suffix(".csv").read_text().strip().splitlines()
        assert csv_lines[0] == "x_center,y_center,count", source
        assert sum(int(line.rsplit(",", 1)[1]) for line in csv_lines[1:]) == retained > 0, source
        assert prefix.with_suffix(".pgm").read_bytes().startswith(b"P5\n50 50\n255\n"), source


def test_histogram_oracle_single_ratio_row(scene_dir, tmp_path):
    prefix = tmp_path / "ho"
    assert run(
        "histogram", "--scene", scene_dir, "--source", "oracle",
        "--win", 200, "--hop", 80, "--out", prefix,
    ) == 0
    rows = {}
    for line in (tmp_path / "ho.csv").read_text().strip().splitlines()[1:]:
        x, y, c = line.split(",")
        rows[float(y)] = rows.get(float(y), 0) + int(c)
    nonzero = {y for y, c in rows.items() if c > 0}
    assert nonzero == {1.02}  # ratio exactly 1.0 falls in the [1.0, 1.04) bin


def test_histogram_est_wav_source(scene_dir, tmp_path):
    prefix = tmp_path / "hw"
    code = run(
        "histogram", "--scene", scene_dir, "--source", "est-wav",
        "--est-wav", scene_dir / "y.wav",
        "--win", 200, "--hop", 80, "--out", prefix,
    )
    assert code == 0
    code = run(
        "histogram", "--scene", scene_dir, "--source", "est-wav",
        "--win", 200, "--hop", 80, "--out", prefix,
    )
    assert code == 1  # missing --est-wav


def test_histogram_refuses_an_est_wav_at_another_rate(scene_dir, tmp_path, capsys):
    # A 16 kHz estimate as long as the 8 kHz scene was histogrammed as if
    # it were at 8 kHz; metrics refuses the same pair.
    est = tmp_path / "s16k.wav"
    write_wav(est, TimeSignal(read_wav(scene_dir / "s.wav").samples, 16000))
    prefix = tmp_path / "h"
    argv = ["histogram", "--scene", scene_dir, "--source", "est-wav", "--est-wav", est, "--out", prefix]
    _expect_spec_error(capsys, argv, "estimate is at 16000 Hz, reference at 8000 Hz")
    assert not prefix.with_suffix(".csv").exists()


def test_missing_scene_dir_is_io_error(tmp_path):
    code = run(
        "metrics", "--est", tmp_path / "missing.wav", "--ref", tmp_path / "missing.wav"
    )
    assert code == 1


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_metrics_empty_output_path_is_io_error(scene_dir, capsys, flag):
    # An empty path used to skip the write and exit 0.
    argv = ["metrics", "--est", scene_dir / "y.wav", "--ref", scene_dir / "s.wav", flag, ""]
    assert run(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("io error: ") and "Traceback" not in err


def test_optimize_empty_problem_path_is_io_error(scene_dir, tmp_path, capsys):
    # An empty path used to run the default problem and exit 0.
    out = tmp_path / "o"
    argv = ["optimize", "--scene", scene_dir, "--problem", "", "--steps", 3, "--out", out]
    assert run(*argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("io error: ") and "Traceback" not in err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--seed", 1],
        ["mask", "--kind", "iam"],
        ["optimize", "--steps", 3],
        ["histogram", "--source", "compensated"],
    ],
    ids=lambda argv: argv[0],
)
def test_empty_out_is_refused(scene_dir, tmp_path, monkeypatch, capsys, argv):
    # Path("") is the working directory: three commands wrote into it, and
    # histogram died in with_suffix with a traceback.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    scene = [] if argv[0] == "synth" else ["--scene", scene_dir, "--win", 200, "--hop", 80]
    _expect_spec_error(capsys, [*argv, *scene, "--out", ""], "--out must not be empty")
    assert list(work.iterdir()) == []


_MASK = ["mask", "--kind", "iam"]
_HIST = ["histogram", "--source", "oracle"]


@pytest.mark.parametrize(
    "argv, match",
    [
        ([*_MASK, "--eps", -1], "eps must be positive and finite, got -1"),
        ([*_MASK, "--iam-clamp", "nan"], "iam_clamp must be None or positive, got nan"),
        ([*_HIST, "--floor-db", -20], "floor_db must be positive, got -20"),
        ([*_HIST, "--floor-db", "nan"], "floor_db must be positive, got nan"),
    ],
    ids=["eps", "iam_clamp", "floor_db", "floor_db_nan"],
)
def test_out_of_range_mask_and_histogram_values_exit_1(scene_dir, tmp_path, capsys, argv, match):
    # These exited 0 (an unguarded mask, an empty histogram) or failed late
    # on a spectrogram full of NaN.
    out = tmp_path / "o"
    assert run(*argv, "--scene", scene_dir, "--win", 200, "--hop", 80, "--out", out / "h") == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err == f"error: {match}\n"
    assert not out.exists()


def _must_not_run(*args):
    raise AssertionError("reached before the refusal")


def _expect_exit_1(capsys, argv, match):
    """main exits 1 with the message matching match and no traceback."""
    assert run(*argv) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and "Traceback" not in err
    assert re.fullmatch(f"error: {match}\n", err), err


_STFT_COMMANDS = {
    "metrics": lambda scene, out: ["metrics", "--est", scene / "y.wav", "--ref", scene / "s.wav"],
    "mask": lambda scene, out: ["mask", "--kind", "iam", "--scene", scene, "--out", out],
    "optimize": lambda scene, out: ["optimize", "--scene", scene, "--steps", 3, "--out", out],
    "histogram": lambda scene, out: ["histogram", "--source", "oracle", "--scene", scene, "--out", out],
}


@pytest.mark.parametrize("command", sorted(_STFT_COMMANDS))
@pytest.mark.parametrize(
    "flags, match",
    [
        (("--win-ms", "nan"), r"window and hop must be finite ms, got nan, 8\.0"),
        (("--win-ms", "inf"), r"window and hop must be finite ms, got inf, 8\.0"),
        (("--hop-ms=-inf",), r"window and hop must be finite ms, got 32\.0, -inf"),
        (("--win-ms", "1e30"), r"window of \d+ samples exceeds the 8000-sample signal"),
        (("--win", 10**9, "--hop", 1), "window of 1000000000 samples exceeds the 8000-sample signal"),
        (("--win", 100000, "--hop", 50000), "window of 100000 samples exceeds the 8000-sample signal"),
    ],
    ids=["nan_ms", "inf_ms", "neg_inf_hop_ms", "huge_ms", "huge_win", "win_over_signal"],
)
def test_window_the_signal_cannot_hold_exits_1_before_any_stft(
    scene_dir, tmp_path, monkeypatch, capsys, command, flags, match
):
    # These died with ValueError or OverflowError tracebacks (nan, inf and
    # 1e30 ms in from_ms or in the STFT's allocation), or, for a window
    # the 8000-sample scene cannot hold, ran on a single padded frame.
    from magphase import cli

    monkeypatch.setattr(cli, "stft", _must_not_run)
    out = tmp_path / "o"
    _expect_exit_1(capsys, [*_STFT_COMMANDS[command](scene_dir, out), *flags], match)
    assert not out.exists()


@pytest.mark.parametrize("command", [*sorted(_STFT_COMMANDS), "optimize-trend"])
@pytest.mark.parametrize(
    "flags", [("--win", 1, "--hop", 1), ("--win-ms", 0.1, "--hop-ms", 0.1)], ids=["win", "win_ms"]
)
def test_a_one_sample_window_exits_1_before_any_stft(
    scene_dir, tmp_path, monkeypatch, capsys, command, flags
):
    # A one-sample periodic sqrt-Hann window is identically 0, so every STFT
    # under it is 0: histogram exited 0 with an empty histogram, metrics and
    # optimize --trend failed later on a silent reference, and mask on zero
    # overlap power. 0.1 ms at 8 kHz rounds to one sample.
    from magphase import cli

    monkeypatch.setattr(cli, "stft", _must_not_run)
    out = tmp_path / "o"
    if command == "optimize-trend":
        argv = [*_STFT_COMMANDS["optimize"](scene_dir, out), "--trend"]
    else:
        argv = _STFT_COMMANDS[command](scene_dir, out)
    match = "window must be at least 2 samples and hop at least 1, got 1 and 1"
    _expect_exit_1(capsys, [*argv, *flags], match)
    assert not out.exists()


def _expect_exit_1_leaving_no_out(capsys, argv, out, match):
    with no_warnings():
        _expect_exit_1(capsys, [*argv, "--out", out], match)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, match",
    [
        (["--seed", -1], r"seed must lie in \[0, 2\^120\), got -1"),
        (["--seed", 2**120], rf"seed must lie in \[0, 2\^120\), got {2**120}"),
        (["--seed", 1, "--duration", "1e9"], r"1000000000\.0 s at 8000 Hz exceeds 16777216 samples"),
        (["--seed", 1, "--duration", 2097.2], r"2097\.2 s at 8000 Hz exceeds 16777216 samples"),
        # 10**400 Hz died with an OverflowError turning the scene's length into a float.
        (["--seed", 1, "--sample-rate", 10**400], rf"1\.0 s at {10**400} Hz exceeds 16777216 samples"),
    ],
    ids=["negative_seed", "seed_2^120", "duration_1e9", "duration_over_2^24", "rate_1e400"],
)
def test_synth_refuses_a_scene_before_any_allocation(tmp_path, monkeypatch, capsys, argv, match):
    # A negative seed died in Philox's key with a ValueError traceback, and
    # --duration 1e9 in numpy's allocation of 58 TiB.
    from magphase import scenes

    monkeypatch.setattr(scenes, "_harmonic_voice", _must_not_run)
    _expect_exit_1_leaving_no_out(capsys, ["synth", *argv], tmp_path / "x", match)


@pytest.mark.parametrize(
    "snr, match",
    [("-1e308", r"a ratio of -1e\+308 dB needs a gain of inf, beyond float64"),
     ("1e308", r"a ratio of 1e\+308 dB needs a gain of 0\.0, beyond float64")],
    ids=["-1e308", "1e308"],
)
def test_synth_refuses_a_snr_whose_gain_leaves_float64(tmp_path, capsys, snr, match):
    # -1e308 died with an OverflowError traceback; 1e308 exited 0 with an
    # all-zero v.wav, its gain underflowed to 0.
    _expect_exit_1_leaving_no_out(capsys, ["synth", "--seed", 1, f"--snr={snr}"], tmp_path / "x", match)


def test_synth_refuses_a_snr_float32_rounds_to_silence(tmp_path, capsys):
    # A 900 dB ratio's gain (about 1e-45) is nonzero in float64 but flushes
    # every v.wav sample to zero in float32: it exited 0 with a silent v.wav.
    out = tmp_path / "x"
    match = re.escape(f"{out / 'v.wav'}: a float32 WAV rounds every sample to zero, the largest 6.03e-46")
    _expect_exit_1_leaving_no_out(capsys, ["synth", "--seed", 1, "--snr=900"], out, match)


@pytest.mark.parametrize(
    "argv, problem, match",
    [
        (["--trend", "--pair", "ri-istft,wav"], None, "loss wav unsupported for free-mag-fixed-phase parameters"),
        ([], '{"init_seed": -1}', r"init_seed must lie in \[0, 2\^128\), got -1"),
        ([], f'{{"init_seed": {2**128}}}', rf"init_seed must lie in \[0, 2\^128\), got {2**128}"),
    ],
    ids=["trend_pair_wav", "negative_init_seed", "init_seed_2^128"],
)
def test_optimize_refusal_leaves_no_out(scene_dir, tmp_path, capsys, argv, problem, match):
    # Each left an empty --out: it was made before the problem was checked.
    # A negative init_seed died in Philox's key with a ValueError traceback.
    if problem is not None:
        (tmp_path / "p.json").write_text(problem)
        argv = [*argv, "--problem", tmp_path / "p.json"]
    argv = ["optimize", "--scene", scene_dir, "--win", 200, "--hop", 80, "--steps", 3, *argv]
    _expect_exit_1_leaving_no_out(capsys, argv, tmp_path / "o", match)


@pytest.mark.parametrize("kind", ["iam", "psm", "psm-trunc"])
def test_mask_on_a_scene_too_faint_for_float32_leaves_no_out(tmp_path, capsys, kind):
    # At a peak of 1e-38 every masked sample rounds to zero in float32, so
    # enhanced.wav is refused: that was after --out was made, left empty.
    scene = synth_scene(SceneSpec(seed=3))
    gain = 1e-38 / max(np.max(np.abs(scene.s.samples)), np.max(np.abs(scene.y.samples)))
    faint = tmp_path / "faint"
    faint.mkdir()
    for name, x in (("s.wav", scene.s), ("y.wav", scene.y)):
        write_wav(faint / name, TimeSignal(x.samples * gain, x.sample_rate_hz))
    out = tmp_path / "o"
    match = re.escape(f"{out / 'enhanced.wav'}: a float32 WAV rounds every sample to zero") + ".*"
    argv = ["mask", "--kind", kind, "--scene", faint, "--win", 200, "--hop", 80]
    _expect_exit_1_leaving_no_out(capsys, argv, out, match)


def _planted(*args):
    raise SpecInvalidError("planted at the last output")


# Each command (its STFT flags aside), the builder of the last output it
# makes, and the paths it writes, relative to the working directory.
_LAST_OUTPUT = {
    "synth": ("synth --seed 1 --out o", scenes.SceneSpec, "as_dict", ["o"]),
    "metrics": (
        "metrics --est {scene}/y.wav --ref {scene}/s.wav --json m.json --csv m.csv",
        metrics.MetricReport,
        "csv_row",
        ["m.json", "m.csv"],
    ),
    "mask": ("mask --kind iam --scene {scene} --out o", metrics.MetricReport, "as_dict", ["o"]),
    "optimize": ("optimize --steps 3 --scene {scene} --out o", metrics.MetricReport, "to_json", ["o"]),
    "optimize-trend": ("optimize --trend --steps 3 --scene {scene} --out o", optim.TrendReport, "csv", ["o"]),
    "histogram": (
        "histogram --source oracle --scene {scene} --out h",
        compensation.Histogram2D,
        "pgm",
        ["h.csv", "h.pgm"],
    ),
}


@pytest.mark.parametrize("command", sorted(_LAST_OUTPUT))
def test_a_command_refused_at_its_last_output_writes_nothing(
    scene_dir, tmp_path, monkeypatch, capsys, command
):
    # Each command builds every output before it writes one. Before, each
    # had made --out or written a first file by the time its last output
    # was built.
    argv, owner, builder, written = _LAST_OUTPUT[command]
    argv = [a.format(scene=scene_dir) for a in argv.split()]
    if command != "synth":
        argv += ["--win", "200", "--hop", "80"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(owner, builder, _planted)
    _expect_exit_1(capsys, argv, "planted at the last output")
    assert not [name for name in written if (tmp_path / name).exists()]


_WRITING_CALLS = {"mkdir", "makedirs", "touch", "write_text", "write_bytes"}


def _opens_for_writing(call: ast.Call) -> bool:
    modes = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)


def test_only_the_cli_writer_and_write_wav_touch_the_filesystem():
    # Every command writes through cli._write, after all that can refuse it;
    # a second writer could make --out before a refusal again.
    writers = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in _WRITING_CALLS or (name == "open" and _opens_for_writing(node)):
                writers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert writers == {"cli._write", "wavio.write_wav"}


def test_optimize_problem_that_is_not_utf8_is_refused(scene_dir, tmp_path, capsys):
    # Path.read_text died with a UnicodeDecodeError traceback.
    (tmp_path / "p.json").write_bytes(b'{"init": "\xff"}')
    argv = ["optimize", "--scene", scene_dir, "--steps", 3, "--problem", tmp_path / "p.json"]
    match = re.escape(f"problem JSON {tmp_path / 'p.json'} is not UTF-8: ") + ".*byte 0xff"
    _expect_spec_error(capsys, [*argv, "--out", tmp_path / "o"], match)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("prefix", [".", "/"])
def test_histogram_refuses_a_prefix_with_no_file_name(scene_dir, monkeypatch, capsys, prefix):
    # with_suffix raised "has an empty name" after the histogram was built.
    from magphase import cli

    monkeypatch.setattr(cli, "_scene", _must_not_run)
    argv = ["histogram", "--source", "oracle", "--scene", scene_dir, "--out", prefix]
    _expect_spec_error(capsys, argv, re.escape(f"--out '{prefix}' names no file"))


@pytest.mark.parametrize("mismatch", ["rate", "length"])
def test_scene_whose_wavs_disagree_is_refused(scene_dir, tmp_path, capsys, mismatch):
    y = read_wav(scene_dir / "y.wav")
    y = TimeSignal(y.samples, 16000) if mismatch == "rate" else TimeSignal(y.samples[:-1], 8000)
    write_wav(scene_dir / "y.wav", y)
    argv = ["mask", "--kind", "iam", "--scene", scene_dir, "--out", tmp_path / "o"]
    _expect_spec_error(capsys, argv, "scene s.wav and y.wav disagree in rate or length")
    assert not (tmp_path / "o").exists()


def test_metrics_rejects_sample_rate_mismatch(scene_dir, tmp_path, capsys):
    # Same samples, labelled 16 kHz against the 8 kHz reference: the
    # lengths agree, so only the rate check can catch it.
    ref = read_wav(scene_dir / "s.wav")
    est = tmp_path / "s16k.wav"
    write_wav(est, TimeSignal(ref.samples, 16000))
    argv = ["metrics", "--est", est, "--ref", scene_dir / "s.wav", "--win", 200, "--hop", 80]
    _expect_spec_error(capsys, argv, "16000 Hz")


def test_metrics_rejects_truncated_wav(scene_dir, tmp_path, capsys):
    # Cut after 84 bytes, the data chunk header still declares 8000 samples;
    # the 6 that remain are refused, not read, and no warning is raised.
    cut = tmp_path / "cut.wav"
    cut.write_bytes((scene_dir / "s.wav").read_bytes()[:84])
    argv = ["metrics", "--est", cut, "--ref", scene_dir / "s.wav"]
    with no_warnings():
        _expect_spec_error(capsys, argv, "cut off")


def test_metrics_rejects_non_wav(scene_dir, tmp_path, capsys):
    bogus = tmp_path / "bogus.wav"
    bogus.write_bytes(b"RIFF\x00\x00")
    argv = ["metrics", "--est", bogus, "--ref", scene_dir / "s.wav"]
    _expect_spec_error(capsys, argv, "not a readable WAV")


def test_metrics_reads_wav_with_unknown_chunk(scene_dir, tmp_path, capsys):
    import struct

    raw = (scene_dir / "s.wav").read_bytes()
    at = raw.index(b"data")
    extra = raw[:at] + b"zzzz" + struct.pack("<I", 3) + b"abc\x00" + raw[at:]
    extra = extra[:4] + struct.pack("<I", len(extra) - 8) + extra[8:]
    path = tmp_path / "extra.wav"
    path.write_bytes(extra)
    with no_warnings():
        assert read_wav(path).samples.tobytes() == read_wav(scene_dir / "s.wav").samples.tobytes()
    with no_warnings():
        code = run("metrics", "--est", path, "--ref", scene_dir / "s.wav", "--win", 200, "--hop", 80)
    assert code == 0
    assert "si_sdr_db inf" in capsys.readouterr().out


def test_metrics_reads_wav_whose_riff_size_is_zero(scene_dir, tmp_path, capsys):
    # Streaming writers leave the RIFF size at 0; the chunk walk ignores it.
    raw = (scene_dir / "y.wav").read_bytes()
    zero = tmp_path / "zero.wav"
    zero.write_bytes(raw[:4] + bytes(4) + raw[8:])
    argv = ["metrics", "--ref", scene_dir / "s.wav", "--win", 200, "--hop", 80, "--est"]
    assert run(*argv, scene_dir / "y.wav") == 0
    intact = capsys.readouterr().out
    assert run(*argv, zero) == 0
    assert capsys.readouterr().out == intact


def test_wav_roundtrip_int16(tmp_path):
    # 16-bit PCM input is accepted and scaled to [-1, 1).
    from scipy.io import wavfile

    data = (np.array([0.5, -0.5, 0.25]) * 32768).astype(np.int16)
    wavfile.write(tmp_path / "pcm.wav", 8000, data)
    sig = read_wav(tmp_path / "pcm.wav")
    assert sig.samples == pytest.approx([0.5, -0.5, 0.25], abs=1e-4)


def test_wav_multichannel_takes_first(tmp_path):
    from scipy.io import wavfile

    stereo = np.stack([np.ones(10), np.zeros(10)], axis=1).astype(np.float32)
    wavfile.write(tmp_path / "st.wav", 8000, stereo)
    sig = read_wav(tmp_path / "st.wav")
    assert np.all(sig.samples == 1.0)
