"""Mono WAV read/write with numpy alone.

read_wav reads a file once and walks its chunks to the first data chunk,
not trusting the RIFF size (streaming writers leave it 0). It takes RIFF
and RF64 files (RF64's data size is in its ds64 chunk), PCM in 16-, 24-
or 32-bit containers scaled by 2^-15 or 2^-31 (a 12-bit file in 16-bit
containers reads as 16-bit), and 32- or 64-bit IEEE float unchanged, with
the plain or the extensible fmt chunk; a multichannel file gives its
first channel. Anything else raises SpecInvalidError: other depths and
format tags (8-bit PCM, mu-law, A-law, ...), big-endian RIFX, no fmt
chunk before the data chunk, no data chunk, a data chunk that is not
whole frames, and a fmt or data chunk cut short by the end of the file.

write_wav always writes 32-bit float, so quantization cannot mask
sub-1e-6 differences in round-trip checks, with the bytes of
scipy.io.wavfile.write for float32 data; wav_bytes gives those bytes
without a file. A signal float32 cannot hold (a sample beyond its range,
or one not finite, or a nonzero signal whose every sample rounds to
zero) raises SpecInvalidError before the file is opened.
"""
from __future__ import annotations

import struct

import numpy as np

from .errors import SpecInvalidError
from .types import TimeSignal

_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# An extensible fmt chunk names its format by a GUID whose first 4 bytes
# are the format tag and whose last 12 are these.
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _unreadable(path, why: str) -> SpecInvalidError:
    return SpecInvalidError(f"{path} is not a readable WAV file: {why}")


def _format(path, body: bytes) -> tuple:
    """(format tag, channels, sample rate, container bytes) of a fmt chunk."""
    if len(body) < 16:
        raise _unreadable(path, f"its fmt chunk has {len(body)} bytes, fewer than 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", body)
    # The extension must hold 22 bytes or more; its GUID sits at bytes 24-39.
    extension = struct.unpack_from("<H", body, 16)[0] if len(body) >= 18 else 0
    if tag == _EXTENSIBLE and extension >= 22 and body[28:40] == _GUID_TAIL:
        tag = struct.unpack_from("<I", body, 24)[0]
    if tag not in (_PCM, _FLOAT):
        raise _unreadable(path, f"format tag {tag:#06x} is neither PCM nor IEEE float")
    if tag == _PCM and byte_rate != rate * block_align:
        raise _unreadable(path, f"byte rate {byte_rate} is not rate {rate} x block {block_align}")
    width = block_align // channels if channels else 0
    if tag == _PCM and not (width in (2, 3, 4) and 8 < bits <= 8 * width):
        raise _unreadable(path, f"{bits}-bit PCM in {width}-byte containers")
    if tag == _FLOAT and not (width in (4, 8) and bits == 8 * width):
        raise _unreadable(path, f"{bits}-bit float in {width}-byte containers")
    return tag, channels, rate, width


def read_wav(path) -> TimeSignal:
    with open(path, "rb") as fh:
        buf = fh.read()
    rf64 = buf[:4] == b"RF64"
    if not (rf64 or buf[:4] == b"RIFF") or buf[8:12] != b"WAVE":
        raise _unreadable(path, "not a little-endian RIFF or RF64 WAVE file")
    if rf64:
        if buf[12:16] != b"ds64" or len(buf) < 36:
            raise _unreadable(path, "an RF64 file without a ds64 chunk")
        (rf64_size,) = struct.unpack_from("<Q", buf, 28)
    fmt = None
    pos = 12
    while pos + 8 <= len(buf):
        chunk, length = struct.unpack_from("<4sI", buf, pos)
        pos += 8
        if chunk == b"data":
            break
        if chunk == b"fmt ":
            if pos + length > len(buf):
                raise _unreadable(path, "it is cut off inside its fmt chunk")
            fmt = _format(path, buf[pos : pos + length])
        pos += length + (length & 1)
    else:
        raise _unreadable(path, "no data chunk")
    if fmt is None:
        raise _unreadable(path, "no fmt chunk before the data chunk")
    tag, channels, rate, width = fmt
    size = rf64_size if rf64 else length
    if pos + size > len(buf):
        raise _unreadable(path, "it is cut off: its data chunk is shorter than its header says")
    if size % (channels * width):
        raise _unreadable(path, f"its data chunk is not whole {channels * width}-byte frames")
    first = np.frombuffer(buf, np.uint8, size, pos).reshape(-1, channels * width)[:, :width]
    if width == 3:  # left-justify 24-bit samples in 32 bits
        first = np.concatenate((np.zeros((len(first), 1), np.uint8), first), axis=1)
    kind = "f" if tag == _FLOAT else "i"
    samples = np.ascontiguousarray(first).view(f"<{kind}{first.shape[1]}")[:, 0].astype(np.float64)
    if tag == _PCM:
        samples /= 2.0 ** (8 * first.shape[1] - 1)
    return TimeSignal(samples, rate)


def wav_bytes(signal: TimeSignal, name) -> bytes:
    """The bytes write_wav writes; SpecInvalidError, naming name, for a signal float32 cannot hold."""
    with np.errstate(over="ignore"):
        data = signal.samples.astype("<f4")
    if not np.all(np.isfinite(data)):
        peak = np.max(np.abs(signal.samples))
        raise SpecInvalidError(f"{name}: a float32 WAV cannot hold samples of magnitude {peak:.3g}")
    if not data.any() and signal.samples.any():
        peak = np.max(np.abs(signal.samples))
        raise SpecInvalidError(f"{name}: a float32 WAV rounds every sample to zero, the largest {peak:.3g}")
    rate = signal.sample_rate_hz
    fmt = struct.pack("<HHIIHHH", _FLOAT, 1, rate, 4 * rate, 4, 32, 0)
    header = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"fact" + struct.pack("<II", 4, len(data))
        + b"data" + struct.pack("<I", data.nbytes)
    )
    return b"RIFF" + struct.pack("<I", len(header) + data.nbytes) + header + data.tobytes()


def write_wav(path, signal: TimeSignal) -> None:
    data = wav_bytes(signal, path)
    with open(path, "wb") as fh:
        fh.write(data)
