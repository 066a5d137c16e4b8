#!/usr/bin/env python3
"""Plant known bugs one at a time and check that the named tests catch each.

Every mutant replaces one exact piece of source text in a temporary copy
of the repository (src/, tests/ and pyproject.toml) and runs its pytest
selector there; the selector must fail. First the selectors run once on
an unmutated copy, where they must pass, so a kill is the mutant's doing.
Prints one table row per mutant and exits 1 if a mutant survives, if a
selector fails on the unmutated copy, or if a mutant's old text does not
occur exactly once in its file (the source has drifted from the mutant,
which then has to be rewritten).

    python3 scripts/mutation_sweep.py

This is not part of Tier-1: it runs a test subset twice per mutant (clean
and mutated), about five minutes in all.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    selector: tuple


MUTANTS = (
    Mutant(
        "l2 optimum unclamped",
        "src/magphase/compensation.py",
        "return mag * np.maximum((tw * np.cos(phase_of(S) - phase) + mw) / (tw + mw), 0.0)",
        "return mag * ((tw * np.cos(phase_of(S) - phase) + mw) / (tw + mw))",
        ("tests/test_compensation.py",),
    ),
    Mutant(
        "l1 optimum unclamped",
        "src/magphase/compensation.py",
        "return np.maximum(np.take_along_axis(points, median, -1)[..., 0], 0.0)",
        "return np.take_along_axis(points, median, -1)[..., 0]",
        ("tests/test_compensation.py", "-k", "l1"),
    ),
    Mutant(
        "l1 weights swapped",
        "src/magphase/compensation.py",
        "[tw * np.abs(c), tw * np.abs(d), np.full(mag.shape, mw)]",
        "[tw * np.abs(d), tw * np.abs(c), np.full(mag.shape, mw)]",
        ("tests/test_compensation.py", "-k", "l1"),
    ),
    Mutant(
        "magnitude projection dropped",
        "src/magphase/optim.py",
        "        def project(x):\n            return np.maximum(x, 0.0)\n",
        "        def project(x):\n            return x\n",
        ("tests/test_optim.py", "-k", "compensation_curve_property"),
    ),
    Mutant(
        "final checkpoint dropped",
        "src/magphase/optim.py",
        "    if traj.steps[-1] != k:",
        "    if False:",
        ("tests/test_optim.py", "-k", "stop_reason_budget or early_stop"),
    ),
    Mutant(
        "overlap-add block order reversed",
        "src/magphase/stft.py",
        "    for j in reversed(range(blocks)):",
        "    for j in range(blocks):",
        ("tests/test_stft.py", "-k", "per_frame_loops"),
    ),
    Mutant(
        "finiteness check skipped",
        "src/magphase/metrics.py",
        "def _require_finite(a: np.ndarray, what: str) -> None:\n",
        "def _require_finite(a: np.ndarray, what: str) -> None:\n    return\n",
        ("tests/test_metrics.py", "-k", "non_finite"),
    ),
    Mutant(
        "metric rescale by modulus",
        "src/magphase/metrics.py",
        "for part in (a.real, a.imag)) or 1.0",
        "for part in (np.abs(a),)) or 1.0",
        ("tests/test_metrics.py", "-k", "overflow"),
    ),
    Mutant(
        "metric rescale at shared scale",
        "src/magphase/metrics.py",
        "own = sums(*(a / scale for a, scale in zip(inputs, scales)))",
        "own = sums(*(a / max(scales) for a in inputs))",
        ("tests/test_metrics.py", "-k", "overflow"),
    ),
    Mutant(
        "loss weight on a missing term kept",
        "src/magphase/types.py",
        "            if w and not has_term:\n",
        "            if False:\n",
        ("tests/test_losses.py", "-k", "x0_variant_rejects"),
    ),
    Mutant(
        "checkpoint floors silent reference",
        "src/magphase/optim.py",
        "si = floored_si_sdr(point.signal, targets.s)",
        "si = floored_si_sdr(point.signal, targets.s) if np.any(targets.s.samples) else -math.inf",
        ("tests/test_optim.py", "-k", "silent"),
    ),
    Mutant(
        "wav walk stops at the RIFF size",
        "src/magphase/wavio.py",
        "    while pos + 8 <= len(buf):",
        '    while pos + 8 <= min(len(buf), 8 + struct.unpack_from("<I", buf, 4)[0]):',
        ("tests/test_wavio.py", "-k", "scipy_written"),
    ),
    Mutant(
        "wav data-chunk cut check dropped",
        "src/magphase/wavio.py",
        "    if pos + size > len(buf):\n",
        "    if False:\n",
        ("tests/test_wavio.py", "-k", "scipy_written"),
    ),
    Mutant(
        "reverb fft length set to n",
        "src/magphase/scenes.py",
        "    size = _fft_length(n)",
        "    size = n",
        ("tests/test_scenes.py", "-k", "fftconvolve"),
    ),
    Mutant(
        "problem steps type unchecked",
        "src/magphase/optim.py",
        '        object.__setattr__(self, "steps", integer("steps", self.steps, 1, math.inf))\n',
        "",
        ("tests/test_cli.py", "-k", "fails_loudly"),
    ),
    Mutant(
        "metric rescale on non-finite only",
        "src/magphase/metrics.py",
        "    if all(_SUM_FLOOR <= x < math.inf for x in out[:-1]) and (\n"
        "        out[-1] == 0.0 or _SUM_FLOOR <= out[-1] < math.inf\n"
        "    ):\n",
        "    if all(map(math.isfinite, out)):\n",
        ("tests/test_metrics.py", "-k", "powers_of_two"),
    ),
    Mutant(
        "kept gradient not checked finite",
        "src/magphase/optim.py",
        "            if gc is not None and np.all(np.isfinite(gc)):\n",
        "            if gc is not None:\n",
        ("tests/test_optim.py", "-k", "every_gradient_reference or finite_gradient"),
    ),
    Mutant(
        "backtrack keeps the stale gradient",
        "src/magphase/optim.py",
        "            gc = grad() if math.isfinite(fc) and fc <= f else None\n",
        "            gc = (grad() if i == start else g) if math.isfinite(fc) and fc <= f else None\n",
        ("tests/test_optim.py", "-k", "every_gradient_reference or finite_gradient"),
    ),
    Mutant(
        "gradient before the value test",
        "src/magphase/optim.py",
        "            gc = grad() if math.isfinite(fc) and fc <= f else None\n",
        "            gc = grad()\n            gc = gc if math.isfinite(fc) and fc <= f else None\n",
        ("tests/test_optim.py", "-k", "every_gradient_reference"),
    ),
    Mutant(
        "empty --out refusal dropped",
        "src/magphase/cli.py",
        "    if not args.out:\n",
        "    if False:\n",
        ("tests/test_cli.py", "-k", "empty_out"),
    ),
    Mutant(
        "mask eps range check dropped",
        "src/magphase/masks.py",
        "    if not 0.0 < eps < np.inf:\n",
        "    if False:\n",
        ("tests/test_masks.py", "-k", "eps_out_of_range"),
    ),
    Mutant(
        "histogram prefix refusal dropped",
        "src/magphase/cli.py",
        "    if not prefix.name:\n",
        "    if False:\n",
        ("tests/test_cli.py", "-k", "prefix_with_no_file_name"),
    ),
    Mutant(
        "non-finite ms refusal dropped",
        "src/magphase/types.py",
        'round(real_number(f"{what} of {ms} ms at {shown(rate)} Hz", ms * rate / 1000.0))',
        "round(ms * rate / 1000.0)",
        ("tests/test_cli.py", "-k", "cannot_hold"),
    ),
    Mutant(
        "fixed-phase kernel on conj(unit)",
        "src/magphase/optim.py",
        "fixed_phase_kernel(loss, targets, unit)",
        "fixed_phase_kernel(loss, targets, np.conj(unit))",
        ("tests/test_optim.py", "-k", "separable_kernels_match_loss_contract"),
    ),
    Mutant(
        "reference energy not range-checked",
        "src/magphase/metrics.py",
        "    if all(_SUM_FLOOR <= x < math.inf for x in out[:-1]) and (\n",
        "    if all(_SUM_FLOOR <= x < math.inf for x in out[1:-1]) and (\n",
        ("tests/test_metrics.py", "-k", "per_call_oracle"),
    ),
    Mutant(
        "reference rebuilt per checkpoint",
        "src/magphase/optim.py",
        "            ps = psnr(point.spectrogram, targets.S)\n",
        "            ps = psnr(point.spectrogram, Spectrogram(targets.S.data, cfg))\n",
        ("tests/test_optim.py", "-k", "reference_phase_once"),
    ),
    Mutant(
        "--fft bound dropped",
        "src/magphase/cli.py",
        "        if args.fft > 8 * cfg.fft_size:\n",
        "        if False:\n",
        ("tests/test_cli.py", "-k", "fft_far_above"),
    ),
    Mutant(
        "phase cache left writable",
        "src/magphase/types.py",
        "        phase.setflags(write=False)\n",
        "",
        ("tests/test_types.py", "-k", "keeps_its_phase"),
    ),
    Mutant(
        "drr refusal dropped",
        "src/magphase/scenes.py",
        "        if gain == math.inf:\n",
        "        if False:\n",
        ("tests/test_scenes.py", "-k", "drr"),
    ),
    Mutant(
        "est-wav rate check dropped",
        "src/magphase/cli.py",
        "        _same_rate(est, s)\n",
        "",
        ("tests/test_cli.py", "-k", "est_wav_at_another_rate"),
    ),
    Mutant(
        "early stop checkpoints the last try",
        "src/magphase/optim.py",
        "        else:\n            return\n",
        "        else:\n            yield k - 1, f, tried\n            return\n",
        ("tests/test_optim.py", "-k", "shared_views"),
    ),
    Mutant(
        "checkpoint reads the previous point",
        "src/magphase/optim.py",
        "        x, point, f, g, vel, kept = cand, tried, fc, gc, vel_try, i\n",
        "        x, f, g, vel, kept = cand, fc, gc, vel_try, i\n",
        ("tests/test_optim.py", "-k", "shared_views"),
    ),
    Mutant(
        "kept size never updated",
        "src/magphase/optim.py",
        "        x, point, f, g, vel, kept = cand, tried, fc, gc, vel_try, i\n",
        "        x, point, f, g, vel = cand, tried, fc, gc, vel_try\n",
        ("tests/test_optim.py", "-k", "search_order or warm_started"),
    ),
    Mutant(
        "momentum on a warm-started try",
        "src/magphase/optim.py",
        "if i == 0 else -lr * g",
        "if i == start else -lr * g",
        ("tests/test_optim.py", "-k", "search_order"),
    ),
    Mutant(
        "stall skips the larger sizes",
        "src/magphase/optim.py",
        "        for i in order[start:] + order[:start]:\n",
        "        for i in order[start:]:\n",
        ("tests/test_optim.py", "-k", "search_order"),
    ),
    Mutant(
        "float32 overflow written",
        "src/magphase/wavio.py",
        "    if not np.all(np.isfinite(data)):\n",
        "    if False:\n",
        ("tests/test_wavio.py", "-k", "float32_cannot_hold"),
    ),
    Mutant(
        "float32 silence written",
        "src/magphase/wavio.py",
        "    if not data.any() and signal.samples.any():\n",
        "    if False:\n",
        ("tests/test_wavio.py", "-k", "rounds_to_silence"),
    ),
    Mutant(
        "scene seed range check dropped",
        "src/magphase/scenes.py",
        'integer("seed", self.seed, 0, SEED_LIMIT, SpecInvalidError)',
        'integer("seed", self.seed, 0, math.inf, SpecInvalidError)',
        ("tests/test_cli.py", "-k", "before_any_allocation"),
    ),
    Mutant(
        "scene length bound dropped",
        "src/magphase/scenes.py",
        "        if rate > MAX_SAMPLES / duration:",
        "        if False:",
        ("tests/test_cli.py", "-k", "before_any_allocation"),
    ),
    Mutant(
        "rir sample-rate bound dropped",
        "src/magphase/scenes.py",
        "sample_rate_hz, 1, MAX_SAMPLES + 1, SpecInvalidError)",
        "sample_rate_hz, 1, math.inf, SpecInvalidError)",
        ("tests/test_scenes.py", "-k", "rir_bounds"),
    ),
    Mutant(
        "snr gain range check dropped",
        "src/magphase/scenes.py",
        "    if not 0.0 < gain < math.inf:\n",
        "    if False:\n",
        ("tests/test_cli.py", "-k", "gain_leaves_float64"),
    ),
    Mutant(
        "init_seed range check dropped",
        "src/magphase/optim.py",
        'integer("init_seed", self.init_seed, 0, 2**128)',
        'integer("init_seed", self.init_seed, 0, math.inf)',
        ("tests/test_optim.py", "-k", "validation_errors"),
    ),
    Mutant(
        "optimize makes --out before the checks",
        "src/magphase/cli.py",
        "    targets = optim.Targets(S=S, s=s, Y=Y, y=y)\n",
        "    targets = optim.Targets(S=S, s=s, Y=Y, y=y)\n    out.mkdir(parents=True, exist_ok=True)\n",
        ("tests/test_cli.py", "-k", "refusal_leaves_no_out"),
    ),
    Mutant(
        "synth makes --out before the wav check",
        "src/magphase/cli.py",
        "    files = {out / k: wavio.wav_bytes(x, out / k) for k, x in signals.items() if x is not None}\n",
        "    out.mkdir(parents=True, exist_ok=True)\n"
        "    files = {out / k: wavio.wav_bytes(x, out / k) for k, x in signals.items() if x is not None}\n",
        ("tests/test_cli.py", "-k", "float32_cannot_hold"),
    ),
    Mutant(
        "separable result built twice",
        "src/magphase/optim.py",
        "                point = point_at(x)\n                checkpoint(k, loss_k, point)\n",
        "                checkpoint(k, loss_k, point_at(x))\n                point = point_at(x)\n",
        ("tests/test_optim.py", "-k", "separable_checkpoint_maps"),
    ),
    Mutant(
        "problem json read without decoding check",
        "src/magphase/cli.py",
        "        except (ValueError, RecursionError) as exc:\n",
        "        except (json.JSONDecodeError, RecursionError) as exc:\n",
        ("tests/test_cli.py", "-k", "not_utf8"),
    ),
    Mutant(
        "retry gathers when most units failed",
        "src/magphase/optim.py",
        "            if 2 * idx.size <= cand.size:\n",
        "            if 2 * idx.size > cand.size:\n",
        ("tests/test_optim.py", "-k", "retrying_failed_units"),
    ),
    Mutant(
        "optimize keeps the initial parameters",
        "src/magphase/optim.py",
        "    x = project(x)  # the initial parameters go once projected\n",
        "    x0 = x\n    x = project(x0)\n",
        ("tests/test_optim.py", "-k", "holds_only_the_maps"),
    ),
    Mutant(
        "conj(unit) built for a separable run",
        "src/magphase/optim.py",
        "conj_unit = np.conj(unit) if coupled else None",
        "conj_unit = np.conj(unit)",
        ("tests/test_optim.py", "-k", "holds_only_the_maps"),
    ),
    Mutant(
        "negative magnitude accepted",
        "src/magphase/types.py",
        "        if np.any((data < 0) & (data > -np.inf)):  # -inf is left to the finiteness checks\n",
        "        if False:\n",
        ("tests/test_types.py", "-k", "refuses_a_negative_entry"),
    ),
    Mutant(
        "one-sample window accepted",
        "src/magphase/types.py",
        'integer("win_length_samples", self.win_length_samples, 2, _INDEX_LIMIT)',
        'integer("win_length_samples", self.win_length_samples, 1, _INDEX_LIMIT)',
        ("tests/test_cli.py", "-k", "one_sample_window"),
    ),
    Mutant(
        "adopt casts by copying",
        "src/magphase/types.py",
        "    arr = np.array(a, dtype=dtype, copy=not adopt)\n",
        "    arr = np.array(a, dtype=dtype, copy=None if adopt else True)\n",
        ("tests/test_types.py", "-k", "adopted_array"),
    ),
    Mutant(
        "istft returns its overlap-add view",
        "src/magphase/stft.py",
        "    return _trim(buf, cfg, out_len)\n",
        "    return buf[_edge_pad(cfg) :][:out_len]\n",
        ("tests/test_optim.py", "-k", "alias_work"),
    ),
    Mutant(
        "adjoint returns its work spectrum",
        "src/magphase/stft.py",
        "    g_spec = spec * scale\n",
        "    g_spec = np.multiply(spec, scale, out=spec)\n",
        ("tests/test_optim.py", "-k", "alias_work"),
    ),
    Mutant(
        "workspace kept at module level",
        "src/magphase/optim.py",
        "    work = {} if coupled else None\n",
        '    work = globals().setdefault("_work", {})\n',
        ("tests/test_optim.py", "-k", "holds_its_state or holds_only_the_maps"),
    ),
    Mutant(
        "mask makes --out before its wav",
        "src/magphase/cli.py",
        '    files = {out / "enhanced.wav": wavio.wav_bytes(enhanced, out / "enhanced.wav")}\n',
        "    out.mkdir(parents=True, exist_ok=True)\n"
        '    files = {out / "enhanced.wav": wavio.wav_bytes(enhanced, out / "enhanced.wav")}\n',
        ("tests/test_cli.py", "-k", "too_faint"),
    ),
    Mutant(
        "optimize writes its trajectory first",
        "src/magphase/cli.py",
        '    files = {out / "trajectory.csv": result.trajectory.csv()}\n',
        '    _write({out / "trajectory.csv": result.trajectory.csv()})\n    files = {}\n',
        ("tests/test_cli.py", "-k", "last_output and optimize"),
    ),
    Mutant(
        "metrics writes --json first",
        "src/magphase/cli.py",
        "        files[Path(args.json_out)] = rep.to_json()\n",
        "        _write({Path(args.json_out): rep.to_json()})\n",
        ("tests/test_cli.py", "-k", "last_output and metrics"),
    ),
    Mutant(
        "histogram writes its csv first",
        "src/magphase/cli.py",
        "    _write({csv: hist.csv(), pgm: hist.pgm()})",
        "    _write({csv: hist.csv()})\n    _write({pgm: hist.pgm()})",
        ("tests/test_cli.py", "-k", "last_output and histogram"),
    ),
    Mutant(
        "written file's directory left unmade",
        "src/magphase/cli.py",
        "        path.parent.mkdir(parents=True, exist_ok=True)\n",
        "        pass\n",
        ("tests/test_cli.py", "-k", "parent_directories"),
    ),
    Mutant(
        "problem json recursion unrefused",
        "src/magphase/cli.py",
        "        except (ValueError, RecursionError) as exc:\n",
        "        except ValueError as exc:\n",
        ("tests/test_cli.py", "-k", "beyond_python_limits and nested_arrays"),
    ),
    Mutant(
        "real number overflow unrefused",
        "src/magphase/types.py",
        "    except OverflowError:  # an int beyond float64\n        x = math.inf\n",
        "    except OverflowError:  # an int beyond float64\n        x = 0.0\n",
        ("tests/test_cli.py", "-k", "beyond_python_limits and mag_weight"),
    ),
    Mutant(
        "custom phase shape unchecked",
        "src/magphase/optim.py",
        "        if ref is not None and phase.shape != ref.data.shape:\n",
        "        if False:\n",
        ("tests/test_optim.py", "-k", "custom_phase_of_another_shape"),
    ),
    Mutant(
        "custom phase ignored silently",
        "src/magphase/optim.py",
        '        if self.custom_phase is not None and self.phase_source != "custom":\n',
        "        if False:\n",
        ("tests/test_optim.py", "-k", "custom_phase_under_another"),
    ),
    Mutant(
        "masks takes stft from the package",
        "src/magphase/masks.py",
        "from .stft import istft\n",
        "from . import stft as _stft\n\n\ndef istft(*args):\n    return _stft.istft(*args)\n",
        ("tests/test_masks.py", "-k", "reimported"),
    ),
    Mutant(
        "each file renamed as it is written",
        "src/magphase/cli.py",
        "                fh.writelines([content] if isinstance(content, (bytes, str)) else content)\n"
        "        for path, tmp in temps.items():\n            tmp.replace(path)\n",
        "                fh.writelines([content] if isinstance(content, (bytes, str)) else content)\n"
        "            tmp.replace(path)\n",
        ("tests/test_cli.py", "-k", "fails_leaves_no_file"),
    ),
    Mutant(
        "directory destination unchecked",
        "src/magphase/cli.py",
        "        if path.is_dir():\n",
        "        if False:\n",
        ("tests/test_cli.py", "-k", "cannot_be_written"),
    ),
    Mutant(
        "bool integer accepted",
        "src/magphase/types.py",
        "    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or",
        "    if not isinstance(value, numbers.Integral) or",
        ("tests/test_optim.py", "-k", "built_only_from_fields"),
    ),
    Mutant(
        "string weight accepted",
        "src/magphase/types.py",
        "    if isinstance(value, bool) or not isinstance(value, numbers.Real):\n",
        "    if isinstance(value, bool) or not isinstance(value, (numbers.Real, str)):\n",
        ("tests/test_losses.py", "-k", "weights_it_can_read"),
    ),
    Mutant(
        "phase source checked under a fixed phase only",
        "src/magphase/optim.py",
        'for name, choices in (("init", _INITS), ("phase_source", _PHASE_SOURCES)):',
        'for name, choices in (("init", _INITS),) + (("phase_source", _PHASE_SOURCES),) * (param is '
        "Parameterization.FREE_MAG_FIXED_PHASE):",
        ("tests/test_cli.py", "-k", "moon_under_free_ri"),
    ),
    Mutant(
        "trend arm runs before the next is built",
        "src/magphase/optim.py",
        "    problems = [OptimizationProblem(fixed, loss, targets, cfg, steps=steps) for loss in loss_pair]\n",
        "    problems = (OptimizationProblem(fixed, loss, targets, cfg, steps=steps) for loss in loss_pair)\n",
        ("tests/test_cli.py", "-k", "before_either_arm"),
    ),
    Mutant(
        "directories made for a failed write kept",
        "src/magphase/cli.py",
        "                d.rmdir()\n",
        "                pass\n",
        ("tests/test_cli.py", "-k", "parent_cannot_be_made"),
    ),
    Mutant(
        "huge integer printed in full",
        "src/magphase/errors.py",
        "    if isinstance(value, int) and value.bit_length() > 256:\n",
        "    if False:\n",
        ("tests/test_scenes.py", "-k", "too_long_to_print"),
    ),
    Mutant(
        "complex custom phase cast",
        "src/magphase/optim.py",
        "                if np.iscomplexobj(self.custom_phase):\n",
        "                if False:\n",
        ("tests/test_optim.py", "-k", "built_only_from_fields"),
    ),
    Mutant(
        "float integer accepted",
        "src/magphase/types.py",
        "not isinstance(value, numbers.Integral)",
        "not isinstance(value, numbers.Real)",
        ("tests/test_types.py", "-k", "container_is_built"),
    ),
    Mutant(
        "signal rate unchecked",
        "src/magphase/types.py",
        'rate = integer("sample_rate_hz", self.sample_rate_hz, 1, _INDEX_LIMIT)',
        "rate = self.sample_rate_hz",
        ("tests/test_types.py", "-k", "container_is_built"),
    ),
    Mutant(
        "scene seed type unchecked",
        "src/magphase/scenes.py",
        'seed = integer("seed", self.seed, 0, SEED_LIMIT, SpecInvalidError)',
        "seed = self.seed",
        ("tests/test_types.py", "-k", "container_is_built"),
    ),
    Mutant(
        "interference snr type unchecked",
        "src/magphase/scenes.py",
        'real_number("snr_db", self.snr_db, error=SpecInvalidError)',
        "self.snr_db",
        ("tests/test_types.py", "-k", "container_is_built"),
    ),
    Mutant(
        "array target accepted",
        "src/magphase/losses.py",
        "kind | None):",
        "object):",
        ("tests/test_types.py", "-k", "container_is_built"),
    ),
    Mutant(
        "infinite ms count accepted",
        "src/magphase/types.py",
        "if not (math.isfinite(x) and",
        "if not (not math.isnan(x) and",
        ("tests/test_cli.py", "-k", "cannot_hold and 1e306"),
    ),
    Mutant(
        "wav header rate unchecked",
        "src/magphase/wavio.py",
        "    if 4 * rate >= 2**32:\n",
        "    if False:\n",
        ("tests/test_wavio.py", "-k", "header_cannot_hold"),
    ),
)


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def run_pytest(tree: Path, args) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode


def mutate(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"old text occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation_sweep_") as tmp:
        clean = Path(tmp) / "clean"
        clean.mkdir()
        copy_tree(clean)
        failing = [m.name for m in MUTANTS if run_pytest(clean, m.selector) != 0]
        if failing:
            print(f"selectors fail on the unmutated tree: {', '.join(failing)}")
            return 1

        survived = 0
        print(f"| {'mutant':<34} | {'file':<30} | {'selector':<66} | result   | s    |")
        print(f"|{'-' * 36}|{'-' * 32}|{'-' * 68}|----------|------|")
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{i}"
            tree.mkdir()
            copy_tree(tree)
            t0 = time.monotonic()
            try:
                mutate(tree, mutant)
                code = run_pytest(tree, mutant.selector)
                result = {0: "SURVIVED", 1: "killed"}.get(code, f"exit {code}")
            except LookupError as exc:
                result = "DRIFTED"
                print(f"{mutant.name}: {exc}", file=sys.stderr)
            survived += result != "killed"
            print(
                f"| {mutant.name:<34} | {mutant.path:<30} | {' '.join(mutant.selector):<66} "
                f"| {result:<8} | {time.monotonic() - t0:4.1f} |"
            )
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survived}/{len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
