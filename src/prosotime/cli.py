"""Batch command line: analysis subcommands emitting JSON, CSV and SVG.

Every subcommand is deterministic — identical invocations produce
byte-identical artifacts — and writes only beneath the output directory
(--out-dir, else $PROSOTIME_OUT_DIR, else ./prosotime_out).  Exit codes:
0 success, 1 analysis error, 2 usage error.

metrics and timetree read their annotation with annot.load_annotation, which
decides whether the file is a TextGrid or CSV.

Each handler imports the modules it runs, so a process loads numpy only for
the subcommands that need it (aems, spectree, calibrate and f0); metrics,
timetree, intonation and tone-gen run on the standard library, and so does
contour-fit unless it hands a system it cannot certify to _polyfit.fit_polynomial.

Each subcommand names every file it can write before it runs: `outputs`
suffixes, the first its JSON report, after the input file's stem (or a fixed
one).  Each handler is a pure function of args returning (report, summary,
renders): summary is a str, or a zero-argument callable giving the pieces it
joins; renders maps the suffix of each CSV or SVG this input has to a
zero-argument render of its text chunks, and a row-heavy report value is a
lazy row source that the report writer reads a batch at a time, tree nodes and
tone-gen targets as column blocks, not dicts.  Only run() writes: it writes each
listed format's render or removes the stale file of a suffix with none, then
streams the report last through _report_chunks, the one JSON writer (into
nothing when json is not listed, so that it is still checked), then prints
summary (a tree's, the pieces of its s-expression, is read from that render)
and, under --json, renders the report again to stdout.  A non-finite report
value is an AnalysisError while the report is written.  Every report carries
the package version (`prosotime_version`).  A run that exits 1 removes every
file of its names in the listed formats, so nothing an earlier run left
there, and no part of this run's, reads as this run's result; a usage error
(exit 2) leaves the output directory as it was.

run() flushes stdout before it returns, so a stdout that cannot be written
(a full device, a closed pipe) is an OSError of the run: one `error:` line,
exit 1 and the listed files removed.  A summary that stdout's encoding
cannot encode (a non-ASCII label under PYTHONIOENCODING=ascii) ends the same
way.  run() never exits the process, so embedders and tests call it.
main(), the console script, runs the atexit callbacks, flushes stdout and
stderr and ends through os._exit, skipping the interpreter's teardown;
nothing is left for it, as run() closes every file it writes and the CLI
starts no threads.  Under a profiler or tracer main() exits through
sys.exit, so that the interpreter's own exit can report.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import math
import os
import re
import sys
from _json import encode_basestring_ascii  # json.encoder's own, without the json package and its regexes
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, islice
from pathlib import Path

from . import __version__
from .errors import AnalysisError, DegenerateInputError

OUT_DIR_ENV = "PROSOTIME_OUT_DIR"
FORMATS = ("json", "csv", "svg")
_WRITE_CHARS = 1 << 16  # characters joined per write(), however large the chunks; a write per chunk is slower
_ROWS = 256  # items a lazy row source hands the report writer at a time


class _UsageError(Exception):
    """Command-line misuse that argparse cannot express; exits with code 2."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and, by type, its subparsers) whose --help raises the
    OSError of a stdout that cannot be written: argparse drops a failed write,
    and a buffered one would fail only at the process's exit."""

    def print_help(self, file=None) -> None:
        if (file := file or sys.stdout) is not None:
            file.write(self.format_help())

    def exit(self, status=0, message=None):
        _flush_stdout()
        super().exit(status, message)


def _float(x: float) -> str:
    """float.__repr__, as json writes a float; a NaN or an infinity is an AnalysisError."""
    if x - x != 0:  # nan for nan and +-inf, 0.0 for every finite x
        raise AnalysisError(
            f"report holds a non-finite number (Out of range float values are not JSON compliant: {x!r})")
    return float.__repr__(x)


class _Text(tuple):
    """A str given as the pieces it joins, which the report writer escapes one at a time and never joins."""


class _Blocks(functools.partial):
    """A lazy list of dicts whose call gives its column blocks: (shapes, columns) pairs, shapes the sorted key tuple
    of each row and columns each key's values, of the rows that have that key, in row order."""


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _report_chunks(report: dict) -> Iterator[str]:
    """The text of json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\\n", in chunks.

    A value may be a zero-argument callable, called when the writer reaches it:
    an iterator it returns is a list whose items are read _ROWS at a time, and
    anything else is written as the value itself.  So a row-heavy list need not
    be built, a value known only after such a list was read (a tree's sexpr,
    after its nodes) can follow it, and a second render calls the callable again;
    a _Blocks value is such a list, read a column block at a time.  Keys are
    strings.  A non-finite float raises AnalysisError after the chunks before it.
    """
    yield from _chunks(report, "\n")
    yield "\n"


def _chunks(value, nl: str) -> Iterator[str]:
    """value's JSON text, its lines continued by nl (a newline and the indent of value's first line)."""
    if callable(value) and type(value) is not _Blocks:
        value = value()
        if isinstance(value, Iterator):
            yield from _list(iter(lambda: list(islice(value, _ROWS)), []), _items, nl)
            return
    if isinstance(value, dict):
        inner, sep = nl + "  ", "{"
        for key in sorted(value):
            yield f"{sep}{inner}{encode_basestring_ascii(key)}: "
            yield from _chunks(value[key], inner)
            sep = ","
        yield "{}" if sep == "{" else nl + "}"
    elif type(value) is _Text:  # JSON escapes each character alone, so piece by piece is the same text
        yield '"'
        for piece in value:
            yield encode_basestring_ascii(piece)[1:-1]
        yield '"'
    elif type(value) is _Blocks:
        yield from _list(value(), _block, nl)
    elif isinstance(value, (list, tuple)):
        yield from _list((value,), _items, nl)
    else:  # a subclass of str, int or float is written as its base, as json does
        kind = next((k for k in type(value).__mro__ if k in _SCALARS), None)
        if kind is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        yield _SCALARS[kind](value)


def _list(batches, text: Callable[[object, str], str], nl: str) -> Iterator[str]:
    """A JSON list of the items of batches, one chunk per batch of items; text(batch, pad) joins their texts at pad."""
    inner, sep = nl + "  ", "["
    for batch in batches:
        if items := text(batch, inner):
            yield sep + inner + items
            sep = ","
    yield "[]" if sep == "[" else nl + "]"


def _items(batch: list, pad: str) -> str:
    """The JSON texts of batch's items, joined as list items at pad."""
    return ("," + pad).join(_column(batch, pad))


def _block(block: tuple[list[tuple], dict[str, list]], pad: str) -> str:
    """A column block's rows as list items at pad: each column written once, one % over its shapes' row templates."""
    shapes, columns = block
    inner = pad + "  "
    texts = {key: iter(_column(values, inner)) for key, values in columns.items()}
    rows = {shape: "{" + ",".join(f"{inner}{encode_basestring_ascii(k).replace('%', '%%')}: %s" for k in shape)
            + pad + "}" for shape in dict.fromkeys(shapes)}
    rows[()] = "{}"  # the row of an empty dict
    fields = map(next, map(texts.__getitem__, chain.from_iterable(shapes)))  # each row's texts, in its keys' order
    return ("," + pad).join(map(rows.__getitem__, shapes)) % tuple(fields)


def _column(values: list, pad: str) -> list[str]:
    """The JSON texts of values at pad; a column of one scalar type is one map().

    A float column is checked once and written by float.__repr__; one that
    holds a NaN or an infinity is written by _float, which raises.
    """
    kinds = set(map(type, values))
    if len(kinds) == 1 and (kind := kinds.pop()) in _SCALARS:
        if kind is float and all(map(math.isfinite, values)):
            return list(map(float.__repr__, values))
        return list(map(_SCALARS[kind], values))
    return [enc(v) if (enc := _SCALARS.get(type(v))) else "".join(_chunks(v, pad)) for v in values]


def _finite_float(text: str) -> float:
    """argparse type: a float other than nan and +-inf."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _stem(args) -> str:
    """The subcommand's fixed stem, or else its input file's name, sanitized."""
    if args.stem is not None:
        return args.stem
    path = next(getattr(args, k) for k in ("wav", "annot", "f0csv") if hasattr(args, k))
    return re.sub(r"[^A-Za-z0-9._-]", "_", Path(path).stem) or "input"


def _write(out_dir: Path, name: str, render: Callable[[], Iterable[str]] | None) -> None:
    """Write render()'s text chunks to out_dir/name (None removes it); a render that raises leaves no file."""
    target = (out_dir / name).resolve()
    if out_dir.resolve() not in target.parents:
        raise AnalysisError(f"refusing to write outside output directory: {name}")
    # a fresh file: truncating an old one in place makes ext4 flush it on close
    target.unlink(missing_ok=True)
    if render is None:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    out = target.open("w", encoding="utf-8")
    try:
        with out:
            batch, size = [], 0
            for chunk in render():
                batch.append(chunk)
                size += len(chunk)
                if size >= _WRITE_CHARS:
                    out.write("".join(batch))
                    batch, size = [], 0
            out.write("".join(batch))
    except BaseException:
        target.unlink()
        raise


def _spectrum_artifacts(spec, fit, zones, report: dict) -> dict:
    """Shared spectrum emission: poly info and zones into the report; CSV, line plot and heatmap renders."""
    from .aems import spectrum_csv_chunks
    from .svgplot import svg_heatmap_chunks, svg_spectrum_chunks

    report.update(poly_degree=fit.degree, poly_coeffs=list(fit.coeffs), poly_rmse=fit.rmse,
                  zones=[z._asdict() for z in zones])
    return {
        "spectrum.csv": lambda: spectrum_csv_chunks(spec),
        "spectrum.svg": lambda: svg_spectrum_chunks(spec, fit, zones),
        "heatmap.svg": (lambda: svg_heatmap_chunks(spec)) if len(spec) >= 2 else None,
    }


def _tier_durations(args):
    """The name of the --tier tier (default: the first) of args.annot, its durations and the sorted labels they skip.

    The tier itself is dropped, so that its columns are freed before the analysis.
    """
    from .annot import DEFAULT_EXCLUDE_LABELS, durations, load_annotation

    doc = load_annotation(args.annot)
    if args.tier is None:
        if not doc.tiers:
            raise DegenerateInputError(f"{doc.source}: no interval tiers")
        tier = doc.tiers[0]
    else:
        try:
            tier = doc.tier(args.tier)
        except KeyError:
            raise AnalysisError(
                f"{doc.source}: no tier named {args.tier!r} (have {list(doc.tier_names)})"
            ) from None
    exclude = DEFAULT_EXCLUDE_LABELS if args.exclude is None else set(args.exclude)
    return tier.name, durations(tier, exclude), sorted(exclude)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_calibrate(args) -> tuple[dict, str, dict]:
    import numpy as np

    from .aems import aems as run_aems, shape_zones
    from .audio import synthesize_am

    params = {"carrier_hz": 200.0, "mod_hz": 5.0, "depth": 1.0, "dur_s": 2.0, "rate": 16000}
    wave = synthesize_am(**params)
    spec = run_aems(wave, cutoff_hz=20.0)
    fit, zones = shape_zones(spec)
    mags = spec.magnitudes
    peak_bin = int(np.argmax(mags))
    harmonic_bin = int(round(10.0 / spec.resolution_hz))
    peak_hz = float(spec.freqs[peak_bin])
    ok = abs(peak_hz - 5.0) <= spec.resolution_hz and mags[harmonic_bin] < mags[peak_bin]
    report = {
        "params": {**params, "cutoff_hz": 20.0},
        "resolution_hz": spec.resolution_hz,
        "peak_hz": peak_hz,
        "peak_magnitude": float(mags[peak_bin]),
        "harmonic_hz": float(spec.freqs[harmonic_bin]),
        "harmonic_magnitude": float(mags[harmonic_bin]),
        "pass": bool(ok),
    }
    renders = _spectrum_artifacts(spec, fit, zones, report)
    summary = f"peak_hz={peak_hz} harmonic_hz={report['harmonic_hz']} pass={str(ok).lower()}"
    return report, summary, renders


def _cmd_aems(args) -> tuple[dict, str, dict]:
    from .aems import aems as run_aems, shape_zones
    from .audio import open_wav

    with open_wav(args.wav) as source:
        spec = run_aems(
            source,
            cutoff_hz=args.cutoff_hz,
            window_ms=args.window_ms,
            env_rate=args.env_rate,
            smooth_ms=args.smooth_ms,
        )
    fit, zones = shape_zones(
        spec, min_prominence=args.min_prominence, min_separation_hz=args.min_separation_hz
    )
    report = {
        "input": args.wav,
        "params": {**spec.params, "min_prominence": args.min_prominence,
                   "min_separation_hz": args.min_separation_hz},
        "resolution_hz": spec.resolution_hz,
        "cutoff_hz": spec.cutoff_hz,
        "n_bins": len(spec),
        "dominant_hz": zones[0].center_hz if zones else None,
    }
    renders = _spectrum_artifacts(spec, fit, zones, report)
    summary = f"bins={len(spec)} resolution_hz={spec.resolution_hz} dominant_hz={report['dominant_hz']}"
    return report, summary, renders


def _cmd_metrics(args) -> tuple[dict, str, dict]:
    from .rhythm import metrics_report, quadrant_analysis, quadrant_csv_chunks
    from .svgplot import svg_quadrants_chunks

    tier_name, seq, exclude = _tier_durations(args)
    if len(seq) < 2:
        raise DegenerateInputError(
            f"tier {tier_name!r} leaves {len(seq)} usable durations; need >= 2"
        )
    flat = metrics_report(seq)
    try:
        quads = quadrant_analysis(seq)
        quad_report = {"counts": quads.counts, "index": quads.index}
        renders = {"quadrants.csv": lambda: quadrant_csv_chunks(quads),
                   "quadrants.svg": lambda: svg_quadrants_chunks(quads)}
    except DegenerateInputError:
        quad_report, renders = None, {}
    report = {
        "input": args.annot,
        "tier": tier_name,
        "exclude": exclude,
        "n": flat["n"],
        "metrics": {k: flat[k] for k in ("variance", "pim", "pfd", "rpvi", "npvi")},
        "params": flat["params"],
        "quadrants": quad_report,
    }
    line = " ".join(f"{k}={report['metrics'][k]:.4f}" for k in sorted(report["metrics"]))
    return report, f"tier={tier_name} n={flat['n']} {line}", renders


def _tree_artifacts(args, report: dict, induce, data) -> tuple[dict, Callable[[], list[str]], dict]:
    """Shared tree emission: induce(data, params) under the tree flags; report items and SVG drawing."""
    from .svgplot import svg_timetree_chunks
    from .timetree import TreeParams, tree_texts

    params = TreeParams(relation=args.relation, polarity=args.polarity, arity=args.arity)
    tree = induce(data, params)
    parts: list[str] = []  # the s-expression, written by each pass over the rows; "nodes" sorts before "sexpr"
    report.update(params=params._asdict(), nodes=_Blocks(tree_texts, tree, parts), sexpr=lambda: _Text(parts))
    return report, lambda: parts, {f"{args.subcommand}.svg": lambda: svg_timetree_chunks(tree)}


def _cmd_timetree(args) -> tuple[dict, Callable[[], list[str]], dict]:
    from .timetree import induce_time_tree

    tier_name, seq, exclude = _tier_durations(args)
    if len(seq) == 0:
        raise DegenerateInputError(f"tier {tier_name!r} has no usable durations")
    report = {"input": args.annot, "tier": tier_name, "exclude": exclude, "n": len(seq)}
    return _tree_artifacts(args, report, induce_time_tree, seq)


def _cmd_spectree(args) -> tuple[dict, Callable[[], list[str]], dict]:
    from .aems import aems as run_aems
    from .audio import open_wav
    from .timetree import induce_spectral_hierarchy

    with open_wav(args.wav) as source:
        spec = run_aems(source, cutoff_hz=args.cutoff_hz)
    report = {"input": args.wav, "aems_params": dict(spec.params), "n_bins": len(spec)}
    return _tree_artifacts(args, report, induce_spectral_hierarchy, spec)


def _cmd_tone_gen(args) -> tuple[dict, str, dict]:
    from .fsm import TerracingParams, _frames_per_target, realize_pitch, synthesize_contour, transduce_tones
    from .pitch import f0_track_csv_chunks
    from .svgplot import svg_f0_track_chunks

    params = TerracingParams(**{name: getattr(args, name) for name in TerracingParams._fields})
    lexical = args.tones.split()
    phonetic = transduce_tones(lexical)
    targets = realize_pitch(phonetic, params)

    def block(a: int) -> tuple[list[tuple], dict[str, object]]:  # targets a to a + _ROWS, sliced from the columns
        labels = targets.labels[a:a + _ROWS]
        return [("hz", "label")] * len(labels), {"label": labels, "hz": targets._hz[a:a + _ROWS]}

    report = {
        "lexical": lexical,
        "phonetic": list(phonetic),
        "targets": _Blocks(map, block, range(0, len(targets), _ROWS)),
        "params": params._asdict(),
        "tone_dur_ms": args.tone_dur_ms,
        "n_frames": 0,
    }
    renders = {}
    if len(targets):  # the refusals come now; the contour, only when a render asks for it
        report["n_frames"] = len(targets) * _frames_per_target(targets, args.tone_dur_ms)
        track = functools.cache(lambda: synthesize_contour(targets, tone_dur_ms=args.tone_dur_ms))
        renders = {"f0.csv": lambda: f0_track_csv_chunks(track()), "f0.svg": lambda: svg_f0_track_chunks(track())}
    summary = (" ".join(phonetic) or "(empty)") + "\n" + " ".join(f"{hz:.1f}" for hz in targets._hz)
    return report, summary, renders


def _cmd_intonation(args) -> tuple[dict, str, dict]:
    from .fsm import build_pierrehumbert, count_strings, iter_strings, recognize

    fsm = build_pierrehumbert()
    if args.mode == "check":
        if args.string is None:
            raise _UsageError("intonation check needs a symbol string")
        accepted = recognize(fsm, args.string)
        report = {
            "mode": "check",
            "input": args.string,
            "accepted": bool(accepted),
        }
        summary = f"accepted={str(bool(accepted)).lower()}"
    else:
        if args.string is not None:
            raise _UsageError(f"intonation enum takes no symbol string, got {args.string!r}")
        if args.max_len < 0:
            raise _UsageError(f"--max-len must be >= 0, got {args.max_len}")
        count = count_strings(fsm, args.max_len)  # the cap, checked before any string is made
        report = {
            "mode": "enum",
            "max_len": args.max_len,
            "count": count,
            "strings": lambda: iter_strings(fsm, args.max_len),
        }
        summary = f"count={count}"
    return report, summary, {}


def _median(values) -> float:
    """np.median of a non-empty float array holding no NaN, without the
    numpy.ma import that np.median makes (about 4 ms a process): the middle
    sorted value, or the mean of the two middle ones."""
    import numpy as np

    s = np.sort(values)
    mid = len(s) // 2
    return float(s[mid]) if len(s) % 2 else (float(s[mid - 1]) + float(s[mid])) / 2


def _cmd_f0(args) -> tuple[dict, str, dict]:
    from .audio import open_wav
    from .pitch import estimate_f0_autocorr, f0_track_csv_chunks, segment_ipus
    from .svgplot import svg_f0_track_chunks

    params = {k: getattr(args, k) for k in ("fmin", "fmax", "frame_ms", "hop_ms", "voicing_ratio")}
    ipu_params = {"silence_db": -40.0, "min_pause_ms": 200.0, "min_ipu_ms": 100.0}
    with open_wav(args.wav) as source:  # each stage decodes the data chunk once, a block at a time
        track = estimate_f0_autocorr(source, **params)
        ipus = segment_ipus(source, **ipu_params)
    _, voiced = track.voiced_frames()
    report = {
        "input": args.wav,
        "params": {**params, **ipu_params},
        "n_frames": len(track),
        "voiced_frames": len(voiced),
        "hop_s": track.hop_s,
        "median_f0_hz": _median(voiced) if len(voiced) else None,
        "ipus": [{"start_s": u.start_s, "end_s": u.end_s} for u in ipus],
    }
    summary = (
        f"frames={len(track)} voiced={len(voiced)} "
        f"median_f0_hz={report['median_f0_hz']} ipus={len(ipus)}"
    )
    return report, summary, {
        "f0.csv": lambda: f0_track_csv_chunks(track),
        "f0.svg": lambda: svg_f0_track_chunks(track),
    }


def _cmd_contour_fit(args) -> tuple[dict, str, dict]:
    from .pitch import IPU, contour_model_to_dict, fit_contour, parse_f0_csv
    from .svgplot import svg_f0_track_chunks

    if args.degree < 0:
        raise _UsageError(f"--degree must be >= 0, got {args.degree}")
    with open(args.f0csv, "rb") as raw:  # opened once and read as a stream
        track = parse_f0_csv(raw, args.f0csv)
    domain = None
    if args.start_s is not None or args.end_s is not None:
        if args.start_s is None or args.end_s is None:
            raise _UsageError("--start-s and --end-s must be given together")
        domain = IPU(start_s=args.start_s, end_s=args.end_s)
    model = fit_contour(track, args.degree, domain)
    report = {"input": args.f0csv, "model": contour_model_to_dict(model)}
    coeffs = " ".join(f"{c:.4g}" for c in model.fit.coeffs)
    summary = f"degree={model.fit.degree} rmse={model.fit.rmse:.4g} coeffs=[{coeffs}]"
    return report, summary, {"contour.svg": lambda: svg_f0_track_chunks(track, [model])}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    common.add_argument("--out-dir", default=None, help=f"output directory (default ${OUT_DIR_ENV} or ./prosotime_out)")
    common.add_argument("--formats", default="json,csv,svg", help="comma list from json,csv,svg")
    common.set_defaults(stem=None)  # None: the input file's stem
    spectrum = ("spectrum.csv", "spectrum.svg", "heatmap.svg")

    tree_flags = argparse.ArgumentParser(add_help=False)
    tree_flags.add_argument("--relation", choices=("iambic", "trochaic"), default="iambic")
    tree_flags.add_argument("--arity", choices=("binary", "nary"), default="binary")

    annot_flags = argparse.ArgumentParser(add_help=False)
    annot_flags.add_argument("--tier", default=None, help="tier name (default: first tier)")
    annot_flags.add_argument(
        "--exclude", action="append", default=None, metavar="LABEL",
        help="pause label to skip (repeatable; default: '', sil, #, <p>)",
    )

    parser = _Parser(
        prog="prosotime",
        description="Time-domain prosody analysis: envelope spectra, rhythm metrics, time trees, tone grammars.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("calibrate", parents=[common], help="synthesize the reference AM signal and verify the pipeline")
    p.set_defaults(func=_cmd_calibrate, stem="calibrate", outputs=("json", *spectrum))

    p = sub.add_parser("aems", parents=[common], help="amplitude envelope modulation spectrum of a wav file")
    p.add_argument("wav")
    p.add_argument("--cutoff-hz", type=_positive_float, default=5.0, help="spectrum cutoff; 5, 20 and 1 are the usual presets")
    p.add_argument("--window-ms", type=_positive_float, default=20.0)
    p.add_argument("--env-rate", type=int, default=100)
    p.add_argument("--smooth-ms", type=_positive_float, default=50.0)
    p.add_argument("--min-prominence", type=_finite_float, default=0.1)
    p.add_argument("--min-separation-hz", type=_finite_float, default=0.0)
    p.set_defaults(func=_cmd_aems, outputs=("aems.json", *spectrum))

    p = sub.add_parser("metrics", parents=[common, annot_flags], help="duration dispersion metrics over an annotation tier")
    p.add_argument("annot")
    p.set_defaults(func=_cmd_metrics, outputs=("metrics.json", "quadrants.csv", "quadrants.svg"))

    p = sub.add_parser("timetree", parents=[common, annot_flags, tree_flags], help="induce a metrical time tree from annotated durations")
    p.add_argument("annot")
    p.add_argument("--polarity", choices=("higher", "lower"), default="higher")
    p.set_defaults(func=_cmd_timetree, outputs=("timetree.json", "timetree.svg"))

    p = sub.add_parser("spectree", parents=[common, tree_flags], help="hierarchical segmentation of a wav's modulation spectrum")
    p.add_argument("wav")
    p.add_argument("--cutoff-hz", type=_positive_float, default=5.0)
    # spectral trees are always higher-is-stronger
    p.set_defaults(func=_cmd_spectree, polarity="higher", outputs=("spectree.json", "spectree.svg"))

    p = sub.add_parser("tone-gen", parents=[common], help="terracing transduction and pitch realization of an H/L tone string")
    p.add_argument("tones", help="whitespace-separated lexical tones, e.g. 'H L H L H'")
    p.add_argument("--p-h0", type=_finite_float, default=170.0)
    p.add_argument("--p-l0", type=_finite_float, default=110.0)
    p.add_argument("--k-usw", type=_finite_float, default=1.02)
    p.add_argument("--k-dd", type=_finite_float, default=0.98)
    p.add_argument("--k-dst", type=_finite_float, default=0.70)
    p.add_argument("--k-ter", type=_finite_float, default=0.90)
    p.add_argument("--floor-hz", type=_finite_float, default=60.0)
    p.add_argument("--ceiling-hz", type=_finite_float, default=400.0)
    p.add_argument("--tone-dur-ms", type=_positive_float, default=150.0)
    p.set_defaults(func=_cmd_tone_gen, stem="tones", outputs=("json", "f0.csv", "f0.svg"))

    p = sub.add_parser("intonation", parents=[common], help="check or enumerate intonation tone strings")
    p.add_argument("mode", choices=("check", "enum"))
    p.add_argument("string", nargs="?", default=None, help="symbol string for check mode")
    p.add_argument("--max-len", type=int, default=4, help="enumeration length bound")
    p.set_defaults(func=_cmd_intonation, stem="intonation", outputs=("json",))

    p = sub.add_parser("f0", parents=[common], help="autocorrelation F0 track of a wav file")
    p.add_argument("wav")
    p.add_argument("--fmin", type=_positive_float, default=60.0)
    p.add_argument("--fmax", type=_positive_float, default=500.0)
    p.add_argument("--frame-ms", type=_positive_float, default=40.0)
    p.add_argument("--hop-ms", type=_positive_float, default=10.0)
    p.add_argument("--voicing-ratio", type=_finite_float, default=0.3)
    p.set_defaults(func=_cmd_f0, outputs=("f0.json", "f0.csv", "f0.svg"))

    p = sub.add_parser("contour-fit", parents=[common], help="polynomial contour model over an F0 CSV track")
    p.add_argument("f0csv")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--start-s", type=_finite_float, default=None, help="domain start (with --end-s)")
    p.add_argument("--end-s", type=_finite_float, default=None, help="domain end (with --start-s)")
    p.set_defaults(func=_cmd_contour_fit, outputs=("contour.json", "contour.svg"))

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    except OSError as exc:  # --help, to a stdout that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or "prosotime_out")
    formats = {f.strip() for f in args.formats.split(",") if f.strip()}
    unknown = formats - set(FORMATS)
    if unknown:
        print(f"error: unknown formats {sorted(unknown)}", file=sys.stderr)
        return 2

    stem, (report_suffix, *others) = _stem(args), args.outputs
    listed = [s for s in (*others, report_suffix) if s.rpartition(".")[2] in formats]  # the report last
    try:
        report, summary, renders = args.func(args)
        report = {"subcommand": args.subcommand, "prosotime_version": __version__, **report}
        renders[report_suffix] = lambda: _report_chunks(report)
        for suffix in listed:
            _write(out_dir, f"{stem}.{suffix}", renders.get(suffix))
        if report_suffix not in listed:  # still checked, and still read for a summary that needs it
            for _ in _report_chunks(report):
                pass
        print(*(summary() if callable(summary) else [summary]), sep="")
        if args.json and sys.stdout is not None:  # None without fd 1, where print() writes nothing too
            sys.stdout.writelines(_report_chunks(report))
        _flush_stdout()
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AnalysisError, OSError, UnicodeEncodeError) as exc:  # the last, a summary stdout cannot encode
        print(f"error: {exc}", file=sys.stderr)
        with contextlib.suppress(AnalysisError, OSError):  # the error above is the one to report
            for suffix in listed:
                _write(out_dir, f"{stem}.{suffix}", None)
        return 1
    return 0


def _flush_stdout() -> None:
    """Flush sys.stdout, so that a stdout that cannot be written fails in run(), as an OSError."""
    if sys.stdout is not None:  # None in a process started without fd 1; print() then writes nothing
        sys.stdout.flush()


def main() -> None:
    """The console script: run(), then end the process without interpreter teardown.

    Teardown frees every object only to exit, about 10 ms a numpy op.  The
    atexit callbacks run before stdout and stderr are flushed, as at the
    interpreter's own exit, so that what a callback prints is not lost.  run()
    has reported a stdout it could not write, so a second flush error is dropped.
    """
    code = run()
    if sys.getprofile() is not None or sys.gettrace() is not None:
        sys.exit(code)
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        with contextlib.suppress(OSError, ValueError):
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
