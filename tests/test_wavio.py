"""wavio against the scipy-based reader it replaced, and against scipy's writer.

The comparison gives both readers the same files: scipy-written files of
every sample type, hand-built formats scipy does not write, and each of
them cut short, padded with an odd-sized unknown chunk, or given a zero or
stale RIFF size. Where the reference answers, wavio must give the same
rate and sample bytes, or refuse with SpecInvalidError too. Two answers
change on purpose: a file on which the reference raised a raw exception
(its RIFF size ends before the data chunk) is read as if its size were
right, and a cut RF64 file, which the reference read, is refused.
"""
import struct
import subprocess
import sys

import numpy as np
import pytest
from scipy.io import wavfile

from _oracles import reference_read_wav
from magphase.errors import MagphaseError, SpecInvalidError
from magphase.wavio import read_wav, write_wav
from magphase.types import TimeSignal

_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def outcome(reader, path):
    try:
        sig = reader(path)
    except SpecInvalidError:
        return ("refused",)
    except MagphaseError as exc:  # any other typed error is a wrong answer
        return ("error", type(exc).__name__)
    except Exception as exc:
        return ("raw", type(exc).__name__)
    return ("read", sig.sample_rate_hz, sig.samples.tobytes())


def chunk(name: bytes, body: bytes, order: str = "<") -> bytes:
    return name + struct.pack(order + "I", len(body)) + body + b"\x00" * (len(body) & 1)


def hand_built(tag, channels, width, bits, payload, extensible=False, magic=b"RIFF"):
    """A WAV file scipy does not write: any format tag, container and depth."""
    rate = 8000
    block = channels * width
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    if extensible:
        guid = struct.pack("<I", tag) + _GUID_TAIL
        fmt = struct.pack("<HHIIHH", 0xFFFE, *struct.unpack("<HIIHH", fmt[2:]))
        fmt += struct.pack("<HHI", 22, bits, 0) + guid
    order = ">" if magic == b"RIFX" else "<"
    if magic == b"RIFX":  # a big-endian file: every header field swapped
        fmt = struct.pack(">HHIIHH", *struct.unpack("<HHIIHH", fmt[:16])) + fmt[16:]
    body = chunk(b"fmt ", fmt, order)
    data = chunk(b"data", payload, order)
    if magic == b"RF64":  # sizes in ds64; 0xFFFFFFFF in the RIFF and data headers
        data = b"data" + b"\xff" * 4 + data[8:]
        riff_size = 4 + 36 + len(body) + len(data)
        ds64 = chunk(b"ds64", struct.pack("<QQQI", riff_size, len(payload), 0, 0))
        return b"RF64" + b"\xff" * 4 + b"WAVE" + ds64 + body + data
    return magic + struct.pack(order + "I", 4 + len(body) + len(data)) + b"WAVE" + body + data


def hand_built_files():
    rng = np.random.default_rng(7)
    raw = lambda n: rng.integers(0, 256, n, dtype=np.uint8).tobytes()  # noqa: E731
    floats = lambda n, dt: rng.uniform(-1, 1, n).astype(dt).tobytes()  # noqa: E731
    return {
        "pcm24_mono": hand_built(1, 1, 3, 24, raw(3 * 9)),
        "pcm24_stereo": hand_built(1, 2, 3, 24, raw(6 * 5)),
        "pcm24_extensible": hand_built(1, 3, 3, 24, raw(9 * 4), extensible=True),
        "pcm20_in_24": hand_built(1, 1, 3, 20, raw(3 * 7)),
        "pcm32_extensible": hand_built(1, 2, 4, 32, raw(8 * 5), extensible=True),
        "pcm24_in_32": hand_built(1, 1, 4, 24, raw(4 * 6)),
        "pcm12_in_16": hand_built(1, 2, 2, 12, raw(4 * 6)),
        "float32_extensible": hand_built(3, 2, 4, 32, floats(10, "<f4"), extensible=True),
        "float64": hand_built(3, 1, 8, 64, floats(6, "<f8")),
        "pcm8": hand_built(1, 1, 1, 8, raw(11)),
        "mulaw": hand_built(7, 1, 1, 8, raw(11)),
        "alaw_extensible": hand_built(6, 1, 1, 8, raw(9), extensible=True),
        "rifx_pcm16": hand_built(1, 1, 2, 16, raw(2 * 8), magic=b"RIFX"),
        "rf64_float32": hand_built(3, 1, 4, 32, floats(8, "<f4"), magic=b"RF64"),
        "rf64_pcm24": hand_built(1, 2, 3, 24, raw(6 * 4), magic=b"RF64"),
    }


def scipy_written_files(tmp_path):
    rng = np.random.default_rng(11)
    files = {}
    for dtype in ("int16", "int32", "float32", "float64", "uint8", "int64"):
        for channels in (1, 3):
            for frames in (0, 7):
                shape = (frames,) if channels == 1 else (frames, channels)
                if dtype.startswith("float"):
                    data = rng.uniform(-1, 1, shape).astype(dtype)
                else:
                    info = np.iinfo(dtype)
                    data = rng.integers(info.min, info.max, shape, dtype=dtype, endpoint=True)
                path = tmp_path / f"w_{dtype}_{channels}_{frames}.wav"
                wavfile.write(path, 8000 + frames, data)
                files[path.stem] = path.read_bytes()
    return files


def variants(raw: bytes):
    """(name, bytes): the file cut at every byte, padded, and with bad RIFF sizes."""
    for cut in range(len(raw)):
        yield f"cut{cut}", raw[:cut]
    if raw[:4] == b"RIFF":
        yield "riff_size_0", raw[:4] + b"\x00" * 4 + raw[8:]
        yield "riff_size_stale", raw[:4] + struct.pack("<I", 4) + raw[8:]
        yield "riff_size_long", raw[:4] + struct.pack("<I", len(raw) + 100) + raw[8:]
        at = raw.index(b"data")
        padded = raw[:at] + chunk(b"zzzz", b"abc") + raw[at:]
        yield "odd_unknown_chunk", padded[:4] + struct.pack("<I", len(padded) - 8) + padded[8:]


def compare(tmp_path, files):
    """Both readers' outcome on every variant of every file, as rows."""
    rows = []
    for name, raw in files.items():
        intact = tmp_path / f"{name}.wav"
        intact.write_bytes(raw)
        for kind, blob in [("intact", raw), *variants(raw)]:
            path = tmp_path / "variant.wav"
            path.write_bytes(blob)
            rows.append((name, kind, outcome(reference_read_wav, path), outcome(read_wav, path),
                         outcome(reference_read_wav, intact)))
    return rows


def check(rows):
    for name, kind, ref, new, intact in rows:
        where = f"{name}/{kind}"
        assert new[0] in ("read", "refused"), (where, new)
        if ref[0] == "raw":
            # The RIFF size ends before the data chunk; the walk reads on.
            assert kind.startswith("riff_size") and new == intact, (where, ref, new)
        elif name.startswith("rf64") and kind.startswith("cut") and ref[0] == "read":
            assert new == ("refused",), where
        else:
            assert new == ref, (where, ref[0], new[0])


def test_reader_matches_reference_on_scipy_written_files(tmp_path):
    files = scipy_written_files(tmp_path)
    rows = compare(tmp_path, files)
    check(rows)
    read = {name for name, kind, _, new, _ in rows if kind == "intact" and new[0] == "read"}
    assert read == {n for n in files if not n.startswith(("w_uint8", "w_int64"))}
    raw = {(name, kind) for name, kind, ref, _, _ in rows if ref[0] == "raw"}
    # A RIFF size of 0 or 4 ends before the data chunk of every file.
    assert {kind for _, kind in raw} == {"riff_size_0", "riff_size_stale"}
    assert len(raw) == 2 * len(files)


def test_reader_matches_reference_on_hand_built_files(tmp_path):
    files = hand_built_files()
    rows = compare(tmp_path, files)
    check(rows)
    read = {name for name, kind, _, new, _ in rows if kind == "intact" and new[0] == "read"}
    refused = {"pcm8", "mulaw", "alaw_extensible", "rifx_pcm16"}
    assert read == set(files) - refused
    # The reference reads a cut RF64 file; wavio refuses it.
    assert any(name.startswith("rf64") and kind != "intact" and ref[0] == "read"
               for name, kind, ref, _, _ in rows)


def test_reader_values_of_hand_built_formats(tmp_path):
    # 24-bit samples are left-justified in 32 bits and scaled by 2^-31.
    payload = bytes([0x00, 0x00, 0x80, 0xFF, 0xFF, 0x7F, 0x01, 0x00, 0x00])
    path = tmp_path / "pcm24.wav"
    path.write_bytes(hand_built(1, 1, 3, 24, payload))
    assert read_wav(path).samples.tolist() == [-1.0, 1.0 - 2.0**-23, 2.0**-23]
    # RF64 takes its data size from ds64; the data header's 0xFFFFFFFF is a placeholder.
    values = np.array([0.25, -0.5, 1.5], dtype="<f4")
    path.write_bytes(hand_built(3, 1, 4, 32, values.tobytes(), magic=b"RF64"))
    assert read_wav(path).samples.tolist() == [0.25, -0.5, 1.5]


@pytest.mark.parametrize("frames", [0, 1, 8000])
def test_write_wav_bytes_equal_scipy_float32(tmp_path, frames):
    samples = np.random.default_rng(frames).standard_normal(frames)
    write_wav(tmp_path / "ours.wav", TimeSignal(samples, 16000))
    wavfile.write(tmp_path / "scipy.wav", 16000, samples.astype(np.float32))
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


@pytest.mark.parametrize("sample", [3.5e38, -1e50, np.nan, np.inf], ids=["max", "huge", "nan", "inf"])
def test_write_wav_refuses_what_float32_cannot_hold(tmp_path, sample):
    # 1e50 used to be cast to inf with an overflow warning and written.
    path = tmp_path / "loud.wav"
    with pytest.raises(SpecInvalidError, match="a float32 WAV cannot hold samples of magnitude"):
        write_wav(path, TimeSignal([0.25, sample, -0.5], 16000))
    assert not path.exists()


def test_write_wav_refuses_a_signal_float32_rounds_to_silence(tmp_path):
    # 1e-46 is below float32's smallest subnormal: the file read back all zeros.
    path = tmp_path / "faint.wav"
    with pytest.raises(SpecInvalidError, match="a float32 WAV rounds every sample to zero, the largest 1e-46"):
        write_wav(path, TimeSignal([0.0, 1e-46, -5e-47], 16000))
    assert not path.exists()
    write_wav(path, TimeSignal([0.0, 0.0], 16000))  # silence stays writable
    assert read_wav(path).samples.tolist() == [0.0, 0.0]


def riff(*chunks) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


_PCM16 = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
_FRAMES = chunk(b"data", bytes(8))


@pytest.mark.parametrize(
    "raw, match",
    [
        (riff(chunk(b"fmt ", _PCM16[:14]), _FRAMES), "fmt chunk has 14 bytes, fewer than 16"),
        (
            riff(chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 8000, 8000, 2, 16)), _FRAMES),
            "byte rate 8000 is not rate 8000 x block 2",
        ),
        (
            riff(chunk(b"fmt ", struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 16)), _FRAMES),
            "16-bit float in 4-byte containers",
        ),
        (riff(_FRAMES, chunk(b"fmt ", _PCM16)), "no fmt chunk before the data chunk"),
        (riff(chunk(b"fmt ", _PCM16), chunk(b"data", bytes(3))), "not whole 2-byte frames"),
    ],
    ids=["short_fmt", "pcm_byte_rate", "float_width", "data_before_fmt", "partial_frame"],
)
def test_reader_refuses_malformed_fmt_and_data_chunks(tmp_path, raw, match):
    path = tmp_path / "bad.wav"
    path.write_bytes(raw)
    with pytest.raises(SpecInvalidError, match=match):
        read_wav(path)


def test_import_loads_no_scipy():
    code = "import sys, magphase; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
