"""Mono WAV read/write.

Accepts 32-bit float or 16-bit PCM input (multichannel files are reduced
to their first channel); output is always 32-bit float so quantization
cannot mask sub-1e-6 differences in round-trip checks. A file that is
not a readable WAV, or that ends before the end its data chunk header
declares, raises SpecInvalidError.
"""
from __future__ import annotations

import os
import struct

import numpy as np
from scipy.io import wavfile

from .errors import SpecInvalidError
from .types import TimeSignal

# RF64 files keep the data size in their ds64 chunk and put this in the data header.
_RF64_SIZE = 0xFFFFFFFF


def _data_chunk_cut(path) -> bool:
    """Whether the file ends before its data chunk does, by that chunk's header."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        order = ">" if fh.read(4) == b"RIFX" else "<"
        pos = 12
        while pos + 8 <= size:
            fh.seek(pos)
            chunk_id, length = struct.unpack(order + "4sI", fh.read(8))
            if chunk_id == b"data":
                return length != _RF64_SIZE and pos + 8 + length > size
            pos += 8 + length + (length & 1)
    return False


def read_wav(path) -> TimeSignal:
    try:
        rate, data = wavfile.read(path)
    except (ValueError, struct.error) as exc:
        raise SpecInvalidError(f"{path} is not a readable WAV file: {exc}") from None
    if _data_chunk_cut(path):
        raise SpecInvalidError(f"{path} is cut off: its data chunk is shorter than its header says")
    if data.ndim == 2:
        data = data[:, 0]
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise SpecInvalidError(f"unsupported WAV sample format {data.dtype}")
    return TimeSignal(samples, int(rate))


def write_wav(path, signal: TimeSignal) -> None:
    wavfile.write(path, signal.sample_rate_hz, signal.samples.astype(np.float32))
