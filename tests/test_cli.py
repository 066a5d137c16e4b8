import contextlib
import json
import math
import warnings

import numpy as np
import pytest

from magphase.cli import build_parser, main
from magphase.errors import SpecInvalidError
from magphase.wavio import read_wav, write_wav
from magphase.scenes import SceneSpec, synth_scene
from magphase.types import TimeSignal


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
    ],
    ids=["top_level_mag_weight", "typo", "schema_version", "parameterization", "malformed"],
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


@pytest.mark.parametrize("flag", [("--win", 200), ("--hop", 80)], ids=["win", "hop"])
def test_win_and_hop_must_come_together(scene_dir, capsys, flag):
    # Either flag alone used to be dropped silently in favour of 32/8 ms.
    argv = ["metrics", "--est", scene_dir / "y.wav", "--ref", scene_dir / "s.wav", *flag]
    _expect_spec_error(capsys, argv, "--win and --hop")


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


def test_histogram_outputs(scene_dir, tmp_path):
    prefix = tmp_path / "hist"
    code = run(
        "histogram", "--scene", scene_dir, "--source", "compensated",
        "--win", 200, "--hop", 80, "--out", prefix,
    )
    assert code == 0
    csv_lines = (tmp_path / "hist.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "x_center,y_center,count"
    assert (tmp_path / "hist.pgm").read_bytes().startswith(b"P5\n50 50\n255\n")


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


def test_missing_scene_dir_is_io_error(tmp_path):
    code = run(
        "metrics", "--est", tmp_path / "missing.wav", "--ref", tmp_path / "missing.wav"
    )
    assert code == 1


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
    # scipy alone would read the 6 that remain, with only a warning; the
    # error is ours and scipy's warning does not reach the user.
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
