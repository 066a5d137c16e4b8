"""Unit tests of the benchmark's own statistics and tracer (fast).

The end-to-end smoke run of every workload lives in bench/smoke.py:
    python3 -m pytest bench/smoke.py
"""
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from summary import percentile, run_tail, tail  # noqa: E402
from tracing import SPAN_METRICS, Tracer, TraceError, check_required, layer_metrics, self_times  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_on_nested_span_tree():
    spans = [
        _span("optim.optimize", 0.0, 10.0, -1),
        _span("losses.evaluate_loss", 1.0, 4.0, 0),
        _span("stft.istft_array", 2.0, 3.0, 1),
        _span("metrics.msnr", 5.0, 6.0, 0),
        _span("metrics.psnr", 5.5, 7.0, 0),  # overlaps its sibling: counted once
        _span("stft.istft_array", 9.5, 11.0, 0),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0 - 0.5, 2.0, 1.0, 1.0, 1.5, 1.5])


def test_layer_metrics_per_item():
    spans = [
        _span("optim.optimize", 0.0, 10.0, -1),
        _span("losses.evaluate_loss", 1.0, 4.0, 0),
        _span("stft.istft_array", 2.0, 3.0, 1),
        _span("metrics.msnr", 5.0, 6.0, 0),
        _span("stft.istft_array", 7.0, 9.0, 0),
    ]
    m = layer_metrics(spans, {"optim.steps": 4, "stft.frames": 202}, items=2)
    assert list(m) == SPAN_METRICS
    assert m["stft.istft_array.calls"] == 1.0
    assert m["stft.istft_array.self_s"] == pytest.approx(1.5)
    assert m["losses.evaluate_loss.self_s"] == pytest.approx(1.0)
    assert m["optim.optimize.self_s"] == pytest.approx(2.0)
    # checkpoint time: metrics/stft spans whose parent is optimize (not the nested iSTFT)
    assert m["optim.checkpoint_s"] == pytest.approx(1.5)
    assert m["optim.evals_per_step"] == pytest.approx(0.25)
    assert m["optim.steps"] == 2.0 and m["stft.frames"] == 101.0
    assert m["masks.calls"] == 0.0
    with pytest.raises(TraceError, match="masks.calls"):
        check_required(m, ("stft.istft_array.calls", "masks.calls"), "test")


def test_tail_rule_takes_highest_percentile_with_ten_beyond():
    assert tail(list(range(1, 26))) == (13.0, 50.0, 12)
    value, p, beyond = tail([float(v) for v in range(1, 151)])
    assert (p, beyond) == (90.0, 15) and value == pytest.approx(percentile(range(1, 151), 90))
    assert tail(list(range(1, 1501)))[1:] == (99.0, 15)
    # too few values for any percentile: the median, with its short count
    assert tail(list(range(1, 11))) == (5.5, 50.0, 5)
    # ties (a task's items share one time) do not change the percentile taken
    assert tail([1.0] * 980 + [2.0] * 20)[1:] == (99.0, 10)


def test_run_tail_is_median_over_rotations_of_the_run_percentile():
    rotations = [[float(v) for v in range(1, 101)] for _ in range(3)]
    rotations[1] = [2.0 * v for v in rotations[1]]
    value, p, beyond = run_tail(rotations)
    assert (p, beyond) == (90.0, 30)
    assert value == pytest.approx(percentile(rotations[0], 90.0))
    value, p, _ = run_tail(rotations[:1] * 10)  # 1000 items: p99 takes over
    assert p == 99.0 and value == pytest.approx(percentile(rotations[0], 99.0))


def test_tracer_wraps_every_binding_and_restores():
    import magphase
    from magphase import losses, optim
    from magphase.types import StftConfig, TimeSignal

    stft_module = sys.modules["magphase.stft"]
    original = stft_module.istft_array
    tracer = Tracer()
    tracer.install()
    try:
        for bound in (stft_module.istft_array, optim.istft_array, losses.istft_array):
            assert bound is not original and bound.__wrapped__ is original
        assert magphase.stft.__wrapped__ is stft_module.stft.__wrapped__
        cfg = StftConfig.for_window(200, 80)
        x = TimeSignal([0.5] * 800, 8000)
        magphase.istft(magphase.stft(x, cfg), len(x), 8000)
    finally:
        tracer.uninstall()
    assert stft_module.istft_array is original and optim.istft_array is original
    names = [s[0] for s in tracer.spans]
    assert names == ["stft.stft", "stft.stft_array", "stft.istft", "stft.istft_array"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1, 2]
    assert tracer.counts["stft.frames"] == 2 * 11
