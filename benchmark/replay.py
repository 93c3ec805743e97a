"""In-process replay of CLI ops for per-layer attribution.

Each op is replayed by calling the same public prosotime functions, in the
same order, that its CLI subcommand calls, including the CLI's second
``fit_polynomial``; ``aems()`` is replayed as its four stages.  A Tracer wraps
every call in a span (name, start, end, parent, op id) and records counts at
the same boundaries.  The same replay runs untraced (to measure the tracing
overhead) and under tracemalloc (for peak allocation per layer, so allocation
tracking never inflates span times).
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

from prosotime.aems import (Spectrum, detect_zones, dft_magnitude, extract_envelope_peaks,
                            fit_polynomial, rectify_full_wave, smooth_envelope, spectrum_to_csv)
from prosotime.annot import durations, parse_csv_annotation, parse_textgrid
from prosotime.audio import read_wav
from prosotime.cli import build_parser
from prosotime.errors import DegenerateInputError
from prosotime.fsm import (TerracingParams, build_pierrehumbert, enumerate_strings, realize_pitch,
                           recognize, synthesize_contour, transduce_tones)
from prosotime.pitch import (IPU, contour_model_to_dict, estimate_f0_autocorr, f0_track_to_csv,
                             fit_contour, parse_f0_csv, segment_ipus)
from prosotime.rhythm import metrics_report, quadrant_analysis, quadrant_to_csv
from prosotime.svgplot import svg_f0_track, svg_heatmap, svg_quadrants, svg_spectrum, svg_timetree
from prosotime.timetree import TreeParams, induce_spectral_hierarchy, induce_time_tree, to_sexpr, tree_to_dict

from checks import sexpr_shape

MB = 1024 * 1024


class Tracer:
    """Spans and counts of one replay pass; mode is "off", "spans" or "memory"."""

    def __init__(self, mode: str = "spans"):
        self.mode = mode
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent index, op id)
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.errors: Counter = Counter()
        self._op: tuple[int, str] | None = None

    def begin_op(self, op_id: str, kind: str) -> None:
        self._op = (len(self.spans), op_id)
        self.spans.append([f"op.{kind}", time.perf_counter_ns(), None, None, op_id])

    def end_op(self) -> None:
        self.spans[self._op[0]][2] = time.perf_counter_ns()
        self._op = None

    def call(self, name: str, fn, *args, **kwargs):
        layer = name.split(".", 1)[0]
        try:
            if self.mode == "spans":
                start = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.spans.append((name, start, time.perf_counter_ns(), self._op[0], self._op[1]))
            if self.mode == "memory":
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = (tracemalloc.get_traced_memory()[1] - base) / MB
                    self.maxima[f"{layer}.peak_alloc_mb"] = max(self.maxima[f"{layer}.peak_alloc_mb"], peak)
            return fn(*args, **kwargs)
        except Exception:
            self.errors[layer] += 1
            raise

    def count(self, name: str, value) -> None:
        self.counts[name] += value

    def peak(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover."""
        child_ns: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: Counter = Counter()
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            out[name] += (end - start - child_ns[k]) / 1e9
        return dict(out)


_PARSER = build_parser()


def _wave(tr: Tracer, path: str):
    wave = tr.call("audio.read_wav", read_wav, path)
    tr.count("audio.read_wav.mb", os.path.getsize(path) / MB)
    tr.count("audio.samples", len(wave))
    return wave


def _spectrum(tr: Tracer, wave, cutoff_hz, window_ms=20.0, env_rate=100, smooth_ms=50.0):
    """aems() stage by stage, rebuilding its Spectrum exactly as it does."""
    rect = tr.call("aems.rectify", rectify_full_wave, wave)
    env = tr.call("aems.envelope_peaks", extract_envelope_peaks, rect, window_ms=window_ms, env_rate=env_rate)
    env = tr.call("aems.smooth", smooth_envelope, env, window_ms=smooth_ms)
    spec = tr.call("aems.dft", dft_magnitude, env, cutoff_hz, zero_mean=True)
    params = dict(spec.params)
    params.update({"window_ms": float(window_ms), "env_rate": float(env_rate), "smooth_ms": float(smooth_ms),
                   "cutoff_hz": float(cutoff_hz), "source_rate": wave.rate})
    tr.count("aems.envelope_samples", len(env))
    tr.count("aems.bins", len(spec))
    return Spectrum(spec.resolution_hz, spec.magnitudes, spec.cutoff_hz, params)


def _svg(tr: Tracer, name: str, fn, *args):
    tr.count("svgplot.bytes", len(tr.call(name, fn, *args)))


def _tree_out(tr: Tracer, tree):
    sexpr = tr.call("timetree.to_sexpr", to_sexpr, tree)
    tr.call("timetree.to_dict", tree_to_dict, tree)
    leaves, depth = sexpr_shape(sexpr)
    tr.count("timetree.leaves", len(leaves))
    tr.peak("timetree.depth", depth)
    _svg(tr, "svgplot.timetree", svg_timetree, tree)


def _tier(tr: Tracer, path: str):
    """The CLI's annotation loading: TextGrid by extension or header, else CSV."""
    data = Path(path).read_bytes()
    head = data.lstrip(b"\xef\xbb\xbf\xff\xfe\x00")[:64]
    if path.lower().endswith((".textgrid", ".grid")) or head.startswith(b"File type"):
        doc = tr.call("annot.parse_textgrid", parse_textgrid, data, source=path)
    else:
        doc = tr.call("annot.parse_csv", parse_csv_annotation, data, source=path)
    tier = doc.tiers[0]
    tr.count("annot.intervals", len(tier))
    return tr.call("annot.durations", durations, tier)


def _f0(tr, a):
    wave = _wave(tr, a.wav)
    track = tr.call("pitch.estimate_f0", estimate_f0_autocorr, wave, fmin=a.fmin, fmax=a.fmax,
                    frame_ms=a.frame_ms, hop_ms=a.hop_ms, voicing_ratio=a.voicing_ratio)
    ipus = tr.call("pitch.segment_ipus", segment_ipus, wave)
    track.voiced_frames()
    tr.count("pitch.frames", len(track))
    tr.count("pitch.voiced_frames", track.voiced_count)
    tr.count("pitch.ipus", len(ipus))
    tr.call("pitch.track_to_csv", f0_track_to_csv, track)
    _svg(tr, "svgplot.f0_track", svg_f0_track, track)


def _contour_fit(tr, a):
    track = tr.call("pitch.parse_f0_csv", parse_f0_csv, Path(a.f0csv).read_text(encoding="utf-8"))
    domain = None if a.start_s is None else IPU(start_s=a.start_s, end_s=a.end_s)
    model = tr.call("pitch.fit_contour", fit_contour, track, a.degree, domain)
    contour_model_to_dict(model)
    _svg(tr, "svgplot.f0_track", svg_f0_track, track, [model])


def _aems(tr, a):
    wave = _wave(tr, a.wav)
    spec = _spectrum(tr, wave, a.cutoff_hz, a.window_ms, a.env_rate, a.smooth_ms)
    zones = tr.call("aems.detect_zones", detect_zones, spec, min_prominence=a.min_prominence,
                    min_separation_hz=a.min_separation_hz)
    tr.count("aems.zones", len(zones))
    degree = min(9, max(1, len(spec) - 1))
    fit = tr.call("aems.fit_polynomial", fit_polynomial, spec.freqs, spec.magnitudes, degree)
    tr.call("aems.to_csv", spectrum_to_csv, spec)
    _svg(tr, "svgplot.spectrum", svg_spectrum, spec, fit, zones)
    if len(spec) >= 2:
        _svg(tr, "svgplot.heatmap", svg_heatmap, spec)


def _spectree(tr, a):
    spec = _spectrum(tr, _wave(tr, a.wav), a.cutoff_hz)
    params = TreeParams(relation=a.relation, polarity=a.polarity, arity=a.arity)
    _tree_out(tr, tr.call("timetree.spectral", induce_spectral_hierarchy, spec, params))


def _metrics(tr, a):
    seq = _tier(tr, a.annot)
    tr.call("rhythm.metrics_report", metrics_report, seq)
    tr.count("rhythm.n", len(seq))
    try:
        quads = tr.call("rhythm.quadrants", quadrant_analysis, seq)
    except DegenerateInputError:
        return
    tr.call("rhythm.to_csv", quadrant_to_csv, quads)
    _svg(tr, "svgplot.quadrants", svg_quadrants, quads)


def _timetree(tr, a):
    seq = _tier(tr, a.annot)
    params = TreeParams(relation=a.relation, polarity=a.polarity, arity=a.arity)
    _tree_out(tr, tr.call("timetree.induce", induce_time_tree, seq, params))


def _intonation(tr, a):
    fsm = build_pierrehumbert()
    if a.mode == "check":
        tr.call("fsm.recognize", recognize, fsm, a.string)
        tr.count("fsm.symbols", len(a.string.split()))
    else:
        tr.count("fsm.strings", len(tr.call("fsm.enumerate", enumerate_strings, fsm, a.max_len)))


def _tone_gen(tr, a):
    params = TerracingParams(p_h0=a.p_h0, p_l0=a.p_l0, k_usw=a.k_usw, k_dd=a.k_dd, k_dst=a.k_dst,
                             k_ter=a.k_ter, floor_hz=a.floor_hz, ceiling_hz=a.ceiling_hz)
    phonetic = tr.call("fsm.transduce", transduce_tones, a.tones)
    targets = tr.call("fsm.realize", realize_pitch, phonetic, params)
    if len(targets):
        track = tr.call("fsm.synthesize_contour", synthesize_contour, targets, tone_dur_ms=a.tone_dur_ms)
        tr.call("pitch.track_to_csv", f0_track_to_csv, track)
        _svg(tr, "svgplot.f0_track", svg_f0_track, track)


_REPLAYS = {"f0": _f0, "contour-fit": _contour_fit, "aems": _aems, "spectree": _spectree,
            "metrics": _metrics, "timetree": _timetree, "intonation": _intonation, "tone-gen": _tone_gen}


def replay_pass(ops: list[tuple[str, list[str]]], tr: Tracer) -> tuple[float, list[str]]:
    """Replay every (op id, argv) once; returns (seconds, ids of ops that raised)."""
    failed = []
    start = time.perf_counter()
    for op_id, argv in ops:
        args = _PARSER.parse_args(argv)
        tr.begin_op(op_id, args.subcommand)
        try:
            _REPLAYS[args.subcommand](tr, args)
        except Exception:  # RecursionError included: a failed op, counted per layer
            failed.append(op_id)
        finally:
            tr.end_op()
    return time.perf_counter() - start, failed
