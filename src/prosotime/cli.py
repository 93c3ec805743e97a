"""Batch command line: analysis subcommands emitting JSON, CSV and SVG.

Every subcommand is deterministic — identical invocations produce
byte-identical artifacts — and writes only beneath the output directory
(--out-dir, else $PROSOTIME_OUT_DIR, else ./prosotime_out).  Exit codes:
0 success, 1 analysis error, 2 usage error.

metrics and timetree read their annotation with annot.load_annotation, which
decides whether the file is a TextGrid or CSV.

Each handler imports the modules it runs, so a process loads numpy only for
the subcommands that need it (aems, spectree, calibrate, f0, contour-fit and
tone-gen); metrics, timetree and intonation run on the standard library.

Each handler is a pure function of args returning (json_name, report, summary,
renders): renders maps every CSV or SVG name the subcommand can write to a
zero-argument render of its text chunks, or to None where this input has no
such artifact.  Only run() writes: it serializes the report first (a non-finite
one writes nothing), writes each listed format's render or removes its stale
file for None, writes the report last (a run that exits 1 leaves none), then
prints summary and, under --json, the report text.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import AnalysisError, DegenerateInputError

if TYPE_CHECKING:
    from .timetree import TreeParams

OUT_DIR_ENV = "PROSOTIME_OUT_DIR"
FORMATS = ("json", "csv", "svg")
_BATCH = 4096  # chunks joined per write(); one write per chunk is markedly slower on large plots


class _UsageError(Exception):
    """Command-line misuse that argparse cannot express; exits with code 2."""


def _dumps(report: dict) -> str:
    """Strict JSON: a NaN or infinity in a report is an AnalysisError, not `Infinity`."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise AnalysisError(f"report holds a non-finite number ({exc})") from None


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


def _stem(path: str) -> str:
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
            chunks = iter(render())
            while batch := list(islice(chunks, _BATCH)):
                out.write("".join(batch))
    except BaseException:
        target.unlink()
        raise


def _spectrum_artifacts(stem: str, spec, fit, zones, report: dict) -> dict:
    """Shared spectrum emission: poly info into the report; CSV, line plot and heatmap renders."""
    from .aems import spectrum_csv_chunks
    from .svgplot import svg_heatmap_chunks, svg_spectrum_chunks

    report.update(poly_degree=fit.degree, poly_coeffs=list(fit.coeffs), poly_rmse=fit.rmse)
    return {
        f"{stem}.spectrum.csv": lambda: spectrum_csv_chunks(spec),
        f"{stem}.spectrum.svg": lambda: svg_spectrum_chunks(spec, fit, zones),
        f"{stem}.heatmap.svg": (lambda: svg_heatmap_chunks(spec)) if len(spec) >= 2 else None,
    }


def _tier_durations(args):
    """The --tier tier (default: the first) of args.annot and its durations."""
    from .annot import durations, load_annotation

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
    return tier, durations(tier) if args.exclude is None else durations(tier, set(args.exclude))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_calibrate(args) -> tuple[str, dict, str, dict]:
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
        "zones": [dataclasses.asdict(z) for z in zones],
        "pass": bool(ok),
    }
    renders = _spectrum_artifacts("calibrate", spec, fit, zones, report)
    summary = f"peak_hz={peak_hz} harmonic_hz={report['harmonic_hz']} pass={str(ok).lower()}"
    return "calibrate.json", report, summary, renders


def _cmd_aems(args) -> tuple[str, dict, str, dict]:
    from .aems import aems as run_aems, shape_zones
    from .audio import read_wav

    wave = read_wav(args.wav)
    spec = run_aems(
        wave,
        cutoff_hz=args.cutoff_hz,
        window_ms=args.window_ms,
        env_rate=args.env_rate,
        smooth_ms=args.smooth_ms,
    )
    fit, zones = shape_zones(
        spec, min_prominence=args.min_prominence, min_separation_hz=args.min_separation_hz
    )
    stem = _stem(args.wav)
    report = {
        "input": args.wav,
        "params": dict(spec.params),
        "resolution_hz": spec.resolution_hz,
        "cutoff_hz": spec.cutoff_hz,
        "n_bins": len(spec),
        "zones": [dataclasses.asdict(z) for z in zones],
        "dominant_hz": zones[0].center_hz if zones else None,
    }
    renders = _spectrum_artifacts(stem, spec, fit, zones, report)
    summary = f"bins={len(spec)} resolution_hz={spec.resolution_hz} dominant_hz={report['dominant_hz']}"
    return f"{stem}.aems.json", report, summary, renders


def _cmd_metrics(args) -> tuple[str, dict, str, dict]:
    from .rhythm import metrics_report, quadrant_analysis, quadrant_csv_chunks
    from .svgplot import svg_quadrants_chunks

    tier, seq = _tier_durations(args)
    if len(seq) < 2:
        raise DegenerateInputError(
            f"tier {tier.name!r} leaves {len(seq)} usable durations; need >= 2"
        )
    flat = metrics_report(seq)
    stem = _stem(args.annot)
    try:
        quads = quadrant_analysis(seq)
        quad_report = {"counts": quads.counts, "index": quads.index}
        csv, svg = (lambda: quadrant_csv_chunks(quads)), (lambda: svg_quadrants_chunks(quads))
    except DegenerateInputError:
        quad_report = csv = svg = None
    report = {
        "input": args.annot,
        "tier": tier.name,
        "n": flat["n"],
        "metrics": {k: flat[k] for k in ("variance", "pim", "pfd", "rpvi", "npvi")},
        "params": flat["params"],
        "quadrants": quad_report,
    }
    line = " ".join(f"{k}={report['metrics'][k]:.4f}" for k in sorted(report["metrics"]))
    renders = {f"{stem}.quadrants.csv": csv, f"{stem}.quadrants.svg": svg}
    return f"{stem}.metrics.json", report, f"tier={tier.name} n={flat['n']} {line}", renders


def _tree_params(args) -> TreeParams:
    from .timetree import TreeParams

    return TreeParams(relation=args.relation, polarity=args.polarity, arity=args.arity)


def _tree_artifacts(name: str, tree, report: dict) -> tuple[str, dict, str, dict]:
    """Shared tree emission: sexpr and node table into the JSON report, SVG drawing."""
    from .svgplot import svg_timetree_chunks
    from .timetree import to_sexpr, tree_to_dict

    report.update(sexpr=to_sexpr(tree), **tree_to_dict(tree))
    return f"{name}.json", report, report["sexpr"], {f"{name}.svg": lambda: svg_timetree_chunks(tree)}


def _cmd_timetree(args) -> tuple[str, dict, str, dict]:
    from .timetree import induce_time_tree

    tier, seq = _tier_durations(args)
    if len(seq) == 0:
        raise DegenerateInputError(f"tier {tier.name!r} has no usable durations")
    params = _tree_params(args)
    report = {
        "input": args.annot,
        "tier": tier.name,
        "params": dataclasses.asdict(params),
        "n": len(seq),
    }
    tree = induce_time_tree(seq, params)
    return _tree_artifacts(f"{_stem(args.annot)}.timetree", tree, report)


def _cmd_spectree(args) -> tuple[str, dict, str, dict]:
    from .aems import aems as run_aems
    from .audio import read_wav
    from .timetree import induce_spectral_hierarchy

    wave = read_wav(args.wav)
    spec = run_aems(wave, cutoff_hz=args.cutoff_hz)
    params = _tree_params(args)
    report = {
        "input": args.wav,
        "aems_params": dict(spec.params),
        "params": dataclasses.asdict(params),
        "n_bins": len(spec),
    }
    tree = induce_spectral_hierarchy(spec, params)
    return _tree_artifacts(f"{_stem(args.wav)}.spectree", tree, report)


def _cmd_tone_gen(args) -> tuple[str, dict, str, dict]:
    from .fsm import TerracingParams, realize_pitch, synthesize_contour, transduce_tones
    from .pitch import f0_track_csv_chunks
    from .svgplot import svg_f0_track_chunks

    params = TerracingParams(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(TerracingParams)}
    )
    lexical = args.tones.split()
    phonetic = transduce_tones(lexical)
    targets = realize_pitch(phonetic, params)
    report = {
        "lexical": lexical,
        "phonetic": list(phonetic),
        "targets": [{"label": lab, "hz": hz} for lab, hz in targets.items],
        "params": dataclasses.asdict(params),
        "tone_dur_ms": args.tone_dur_ms,
        "n_frames": 0,
    }
    csv = svg = None
    if len(targets):
        track = synthesize_contour(targets, tone_dur_ms=args.tone_dur_ms)
        report["n_frames"] = len(track)
        csv, svg = (lambda: f0_track_csv_chunks(track)), (lambda: svg_f0_track_chunks(track))
    summary = (" ".join(phonetic) or "(empty)") + "\n" + " ".join(f"{hz:.1f}" for _, hz in targets.items)
    return "tones.json", report, summary, {"tones.f0.csv": csv, "tones.f0.svg": svg}


def _cmd_intonation(args) -> tuple[str, dict, str, dict]:
    from .fsm import build_pierrehumbert, enumerate_strings, recognize

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
        strings = enumerate_strings(fsm, args.max_len)
        report = {
            "mode": "enum",
            "max_len": args.max_len,
            "count": len(strings),
            "strings": strings,
        }
        summary = f"count={len(strings)}"
    return "intonation.json", report, summary, {}


def _cmd_f0(args) -> tuple[str, dict, str, dict]:
    import numpy as np

    from .audio import read_wav
    from .pitch import estimate_f0_autocorr, f0_track_csv_chunks, segment_ipus
    from .svgplot import svg_f0_track_chunks

    wave = read_wav(args.wav)
    params = {k: getattr(args, k) for k in ("fmin", "fmax", "frame_ms", "hop_ms", "voicing_ratio")}
    track = estimate_f0_autocorr(wave, **params)
    ipus = segment_ipus(wave)
    _, voiced = track.voiced_frames()
    stem = _stem(args.wav)
    report = {
        "input": args.wav,
        "params": params,
        "n_frames": len(track),
        "voiced_frames": track.voiced_count,
        "hop_s": track.hop_s,
        "median_f0_hz": float(np.median(voiced)) if len(voiced) else None,
        "ipus": [{"start_s": u.start_s, "end_s": u.end_s} for u in ipus],
    }
    summary = (
        f"frames={len(track)} voiced={track.voiced_count} "
        f"median_f0_hz={report['median_f0_hz']} ipus={len(ipus)}"
    )
    return f"{stem}.f0.json", report, summary, {
        f"{stem}.f0.csv": lambda: f0_track_csv_chunks(track),
        f"{stem}.f0.svg": lambda: svg_f0_track_chunks(track),
    }


def _cmd_contour_fit(args) -> tuple[str, dict, str, dict]:
    from .pitch import IPU, contour_model_to_dict, fit_contour, parse_f0_csv
    from .svgplot import svg_f0_track_chunks

    track = parse_f0_csv(Path(args.f0csv).read_bytes(), source=args.f0csv)
    domain = None
    if args.start_s is not None or args.end_s is not None:
        if args.start_s is None or args.end_s is None:
            raise _UsageError("--start-s and --end-s must be given together")
        domain = IPU(start_s=args.start_s, end_s=args.end_s)
    model = fit_contour(track, args.degree, domain)
    stem = _stem(args.f0csv)
    report = {"input": args.f0csv, "model": contour_model_to_dict(model)}
    coeffs = " ".join(f"{c:.4g}" for c in model.fit.coeffs)
    summary = f"degree={model.fit.degree} rmse={model.fit.rmse:.4g} coeffs=[{coeffs}]"
    renders = {f"{stem}.contour.svg": lambda: svg_f0_track_chunks(track, [model])}
    return f"{stem}.contour.json", report, summary, renders


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    common.add_argument("--out-dir", default=None, help=f"output directory (default ${OUT_DIR_ENV} or ./prosotime_out)")
    common.add_argument("--formats", default="json,csv,svg", help="comma list from json,csv,svg")

    tree_flags = argparse.ArgumentParser(add_help=False)
    tree_flags.add_argument("--relation", choices=("iambic", "trochaic"), default="iambic")
    tree_flags.add_argument("--arity", choices=("binary", "nary"), default="binary")

    annot_flags = argparse.ArgumentParser(add_help=False)
    annot_flags.add_argument("--tier", default=None, help="tier name (default: first tier)")
    annot_flags.add_argument(
        "--exclude", action="append", default=None, metavar="LABEL",
        help="pause label to skip (repeatable; default: '', sil, #, <p>)",
    )

    parser = argparse.ArgumentParser(
        prog="prosotime",
        description="Time-domain prosody analysis: envelope spectra, rhythm metrics, time trees, tone grammars.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("calibrate", parents=[common], help="synthesize the reference AM signal and verify the pipeline")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("aems", parents=[common], help="amplitude envelope modulation spectrum of a wav file")
    p.add_argument("wav")
    p.add_argument("--cutoff-hz", type=_positive_float, default=5.0, help="spectrum cutoff; 5, 20 and 1 are the usual presets")
    p.add_argument("--window-ms", type=_positive_float, default=20.0)
    p.add_argument("--env-rate", type=int, default=100)
    p.add_argument("--smooth-ms", type=_positive_float, default=50.0)
    p.add_argument("--min-prominence", type=_finite_float, default=0.1)
    p.add_argument("--min-separation-hz", type=_finite_float, default=0.0)
    p.set_defaults(func=_cmd_aems)

    p = sub.add_parser("metrics", parents=[common, annot_flags], help="duration dispersion metrics over an annotation tier")
    p.add_argument("annot")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("timetree", parents=[common, annot_flags, tree_flags], help="induce a metrical time tree from annotated durations")
    p.add_argument("annot")
    p.add_argument("--polarity", choices=("higher", "lower"), default="higher")
    p.set_defaults(func=_cmd_timetree)

    p = sub.add_parser("spectree", parents=[common, tree_flags], help="hierarchical segmentation of a wav's modulation spectrum")
    p.add_argument("wav")
    p.add_argument("--cutoff-hz", type=_positive_float, default=5.0)
    p.set_defaults(func=_cmd_spectree, polarity="higher")  # spectral trees are always higher-is-stronger

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
    p.set_defaults(func=_cmd_tone_gen)

    p = sub.add_parser("intonation", parents=[common], help="check or enumerate intonation tone strings")
    p.add_argument("mode", choices=("check", "enum"))
    p.add_argument("string", nargs="?", default=None, help="symbol string for check mode")
    p.add_argument("--max-len", type=int, default=4, help="enumeration length bound")
    p.set_defaults(func=_cmd_intonation)

    p = sub.add_parser("f0", parents=[common], help="autocorrelation F0 track of a wav file")
    p.add_argument("wav")
    p.add_argument("--fmin", type=_positive_float, default=60.0)
    p.add_argument("--fmax", type=_positive_float, default=500.0)
    p.add_argument("--frame-ms", type=_positive_float, default=40.0)
    p.add_argument("--hop-ms", type=_positive_float, default=10.0)
    p.add_argument("--voicing-ratio", type=_finite_float, default=0.3)
    p.set_defaults(func=_cmd_f0)

    p = sub.add_parser("contour-fit", parents=[common], help="polynomial contour model over an F0 CSV track")
    p.add_argument("f0csv")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--start-s", type=_finite_float, default=None, help="domain start (with --end-s)")
    p.add_argument("--end-s", type=_finite_float, default=None, help="domain end (with --start-s)")
    p.set_defaults(func=_cmd_contour_fit)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)

    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or "prosotime_out")
    formats = {f.strip() for f in args.formats.split(",") if f.strip()}
    unknown = formats - set(FORMATS)
    if unknown:
        print(f"error: unknown formats {sorted(unknown)}", file=sys.stderr)
        return 2

    try:
        json_name, report, summary, renders = args.func(args)
        text = _dumps({"subcommand": args.subcommand, **report})
        for name, render in {**renders, json_name: lambda: [text]}.items():
            if name.rpartition(".")[2] in formats:
                _write(out_dir, name, render)
        print(summary)
        if args.json:
            print(text, end="")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
