"""Memory of `prosotime metrics` and `prosotime timetree` on generated one-tier annotations.

For each size, file form (CSV or long-form TextGrid), subcommand and format
set, the script writes a synthetic tier (lognormal durations, about 5 % of
them pause labels, as the benchmark's annotation tiers), runs the subcommand
as a child process and prints a Markdown table row: the child's peak RSS
(`ru_maxrss` from `os.wait4`, started from a small launcher so that the
parent's own peak does not carry into it) and, with --stages, the
tracemalloc figures of a second child: the traced peak of the whole `cli.run`
and, stage by stage, the memory each stage leaves held and the peak it
reaches (MiB).  Generated files and outputs go to a temporary directory.

    python tools/annotation_memory.py --sizes 10000 100000
    python tools/annotation_memory.py --sizes 1000000 --forms csv long --formats default json --stages
    python tools/annotation_memory.py --src ../other-checkout/src   # measure another tree

Linux and macOS only (os.wait4).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

PAUSES = ("", "sil", "#", "<p>")

# Runs argv as a child and prints its exit code and ru_maxrss.
_LAUNCH = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def intervals(n: int):
    """n (label, start, end) triples drawn like benchmark/workloads.py's tiers, with the standard library's random."""
    rng, t = random.Random(1), 0.0
    for i in range(n):
        if rng.random() < 0.05:
            label, dur = PAUSES[rng.randrange(len(PAUSES))], rng.lognormvariate(-1.204, 0.3)
        else:
            label, dur = f"syl{i}", rng.lognormvariate(-1.715, 0.45)
        end = round(t + max(dur, 0.02), 6)
        yield label, t, end
        t = end


def write_tier(path: Path, n: int, form: str) -> None:
    """A one-tier file of n intervals: CSV, or a long-form TextGrid (written row by row)."""
    with path.open("w", encoding="utf-8") as f:
        if form == "csv":
            f.write("tier,label,start_s,end_s\n")
            f.writelines(f"syl,{lab},{a!r},{b!r}\n" for lab, a, b in intervals(n))
            return
        xmax = 0.0
        for _, _, xmax in intervals(n):
            pass
        f.write(f'File type = "ooTextFile"\nObject class = "TextGrid"\n\nxmin = 0\nxmax = {xmax!r}\n'
                f'tiers? <exists>\nsize = 1\nitem []:\n    item [1]:\n        class = "IntervalTier"\n'
                f'        name = "syl"\n        xmin = 0\n        xmax = {xmax!r}\n        intervals: size = {n}\n')
        f.writelines(f'        intervals [{k}]:\n            xmin = {a!r}\n            xmax = {b!r}\n'
                     f'            text = "{lab}"\n' for k, (lab, a, b) in enumerate(intervals(n), 1))


def child_maxrss(env: dict, argv: list[str]) -> float:
    """The peak RSS of `python argv` in MiB (ru_maxrss / 1024, as the benchmark reports it), which must exit 0."""
    out = subprocess.run([sys.executable, "-c", _LAUNCH, sys.executable, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, maxrss = map(int, out.split())
    if code != 0:
        raise SystemExit(f"exit {code}: {' '.join(argv)}")
    return maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)  # bytes on macOS, KiB elsewhere


def stages(subcommand: str, path: str, out_dir: str, formats: str) -> dict:
    """Traced MiB: the peak of cli.run, then [held, peak] of each stage of the same pipeline."""
    import tracemalloc

    from prosotime import cli
    from prosotime.annot import durations, load_annotation

    mib = 1 << 20
    tracemalloc.start()
    with open(os.devnull, "w") as devnull:
        stdout, sys.stdout = sys.stdout, devnull
        try:
            code = cli.run([subcommand, path, "--out-dir", out_dir, "--formats", formats])
        finally:
            sys.stdout = stdout
    if code != 0:
        raise SystemExit(f"cli.run exited {code}")
    result = {"cli.run": round(tracemalloc.get_traced_memory()[1] / mib, 2)}
    tracemalloc.stop()

    def drain(chunks) -> int:
        return sum(map(len, chunks))

    keep = []  # every stage's result, alive to the end (the CLI itself drops the tier after durations)
    plan = [("load", lambda: load_annotation(path).tiers[0]), ("durations", lambda: durations(keep[0]))]
    if subcommand == "metrics":
        from prosotime.rhythm import metrics_report, quadrant_analysis, quadrant_csv_chunks
        from prosotime.svgplot import svg_quadrants_chunks

        plan += [("metrics_report", lambda: metrics_report(keep[1])),
                 ("quadrant_analysis", lambda: quadrant_analysis(keep[1]))]
        renders = [("quadrants.csv", lambda: drain(quadrant_csv_chunks(keep[3]))),
                   ("quadrants.svg", lambda: drain(svg_quadrants_chunks(keep[3])))]
    else:
        from prosotime.svgplot import svg_timetree_chunks
        from prosotime.timetree import induce_time_tree, tree_texts

        parts: list[str] = []
        plan += [("induce", lambda: induce_time_tree(keep[1])),
                 ("report rows", lambda: sum(1 for _ in tree_texts(keep[2], parts)))]
        renders = [("timetree.svg", lambda: drain(svg_timetree_chunks(keep[2])))]
    plan += [(name, render) for name, render in renders if name.rpartition(".")[2] in formats]
    tracemalloc.start()
    for name, stage in plan:
        tracemalloc.reset_peak()
        keep.append(stage())
        held, peak = tracemalloc.get_traced_memory()
        result[name] = [round(held / mib, 2), round(peak / mib, 2)]
    tracemalloc.stop()
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[10_000, 100_000])
    parser.add_argument("--forms", nargs="+", choices=("csv", "long"), default=["csv"])
    parser.add_argument("--formats", nargs="+", choices=("default", "json"), default=["default"])
    parser.add_argument("--stages", action="store_true", help="also trace cli.run and each stage with tracemalloc")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="the source tree to measure (default: this checkout's src)")
    parser.add_argument("--stage-child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.stage_child:
        print(json.dumps(stages(*args.stage_child)))
        return

    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    print("| intervals | form | subcommand | formats | child ru_maxrss (MiB) |"
          + (" traced (MiB): cli.run peak; stage held/peak |" if args.stages else ""))
    print("| --- | --- | --- | --- | --- |" + (" --- |" if args.stages else ""))
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            for form in args.forms:
                path = Path(tmp) / (f"tier{n}.csv" if form == "csv" else f"tier{n}.TextGrid")
                write_tier(path, n, form)
                for sub in ("metrics", "timetree"):
                    for fmt in args.formats:
                        formats = "json,csv,svg" if fmt == "default" else "json"
                        argv = ["-m", "prosotime.cli", sub, str(path), "--out-dir", str(Path(tmp) / "out"),
                                "--formats", formats]
                        row = f"| {n} | {form} | {sub} | {fmt} | {child_maxrss(env, argv):.1f} |"
                        if args.stages:
                            out = subprocess.run([sys.executable, __file__, "--stage-child", sub, str(path),
                                                  str(Path(tmp) / "out"), formats], env=env, check=True,
                                                 capture_output=True, text=True).stdout
                            traced = json.loads(out)
                            row += " " + "; ".join(f"{k} {v}" if k == "cli.run" else f"{k} {v[0]}/{v[1]}"
                                                   for k, v in traced.items()) + " |"
                        print(row, flush=True)
                path.unlink()


if __name__ == "__main__":
    main()
