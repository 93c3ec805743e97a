#!/usr/bin/env python3
"""prosotime benchmark: CLI batch workloads, end to end and layer by layer.

Run from the repository root::

    python3 benchmark/run.py --workload speech_f0 --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 20   # one after another

Workloads are named in BENCHMARK.json.  Inputs come from --seed alone and are
generated (untimed, cached per seed) under benchmark/.work/, together with a
ground-truth sidecar that the program never reads.

--trace 0 is the timed run.  The load is a closed loop with one client: one
``python -m prosotime.cli <op> --out-dir <dir>`` child at a time, with
PYTHONPATH=src.  A run makes a fixed number of passes over the workload's op
list, round(--seconds / PASS_SECONDS) (see workloads.py), so that every commit
is timed on the same work and the latency percentiles always fall on the same
ops.  Every child's own rusage comes from os.wait4 (see launcher.py).  Cold
starts (``--help``) are sampled before every fourth op.  Each op is checked
against its schema and a generator-derived oracle on its first success; later
passes must reproduce the checked artifacts byte for byte.  An op fails on a
nonzero exit, "Traceback" on stderr, a timeout or a failed check.

End-to-end metrics: setup_s (median cold start), wall_s (median pass time),
ops_per_s (ops that passed, per second of their pass), cpu_s (median pass sum
of children's user+sys), latency_p50_s, latency_tail_s (at the highest
percentile with 10 samples beyond it; the percentile and the sample count are
printed beside it) and peak_rss_mb (largest child ru_maxrss).  Percentiles
are Harrell-Davis estimates.  Times are scaled to the speed of the host that
defined the benchmark (see _normalize); the raw figures are in the results.
error_rate (failed / attempted) is printed too; it is not a bounded metric
because it reads 0 on most workloads.

--trace 1 is the traced run, measured apart from the timed one: it parses
``python -X importtime``, then, for about --seconds / 2, alternates passes that
run each op in-process through ``cli.run(argv)`` (checking its outputs) with
untraced and traced layer-by-layer replays (see replay.py); one more replay
runs under tracemalloc.  Per-layer times are medians over the passes.

Stdout ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
"correct" is false when any op delivered a wrong output or none succeeded; a
crash is a failed op, not a wrong output.  The lines before it (prefixed "#")
give every figure, the environment and the failed ops; the full record goes to
benchmark/.work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = WORK / "out"

SETUP_EVERY = 4  # one cold start before every 4th op; setup_s is their median
IMPORT_SAMPLES = 5
OP_TIMEOUT_S = 60.0
# no op starts after this much measured op time, so a run ends within 180 s
MEASURE_CAP_S = 90.0
TAIL_BEYOND = 10  # latency_tail_s is at the highest percentile with this many samples beyond it
# launcher.reference() on the host that defined the benchmark (2-core Xeon VM,
# median of 150); timed figures are scaled to that host speed
REF_NOMINAL_S = 0.022


def _child_env() -> dict:
    """Children import prosotime from src/ and cache bytecode under .work/, so
    that after the first start every module loads compiled, as it would from
    an installed package, whatever the caller's PYTHONDONTWRITEBYTECODE.

    BLAS runs on one thread, as it does for a user who runs one file per core;
    otherwise a child's wall time depends on whether the other core is idle.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PROSOTIME_OUT_DIR", None)
    return env


class Launcher:
    """The small process that forks every timed child (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, cwd=ROOT, env=_child_env(), text=True)

    def run(self, argv: list[str], stdout_path: Path) -> dict:
        """Run one child to its end: wall time, its own rusage, exit code and stderr."""
        stderr_path = stdout_path.with_suffix(".stderr")
        req = {"argv": argv, "stdout": str(stdout_path), "stderr": str(stderr_path), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        rec = json.loads(reply)
        rec["stderr"] = stderr_path.read_text(encoding="utf-8", errors="replace")
        return rec

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1].strip()[:200] if lines else ""


def _resolve(op: dict, inputs: Path) -> dict:
    argv = [a.replace("{in}", f"{inputs}/", 1).replace("{out}", f"{OUT}/", 1) for a in op["argv"]]
    return {**op, "argv": argv}


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Verifier:
    """Checks an op's outputs fully once, then by digest on later passes."""

    def __init__(self, checks):
        self.checks = checks
        self.digests: dict[str, str] = {}

    def __call__(self, op: dict, out: Path) -> str | None:
        """None when the outputs are right, else why they are wrong."""
        digest = _digest(out)
        if op["id"] in self.digests:
            if digest != self.digests[op["id"]]:
                return "artifacts differ from those checked on an earlier pass"
            return None
        try:
            self.checks.check(op, out, SRC)
        except self.checks.CheckError as exc:
            return f"check: {exc}"
        except Exception as exc:  # an output the oracle cannot even read is wrong
            return f"check: unreadable output ({exc!r})"
        self.digests[op["id"]] = digest
        return None


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, steadier run to run than any single one of them."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    weights = np.diff(betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n))
    return float(weights @ x)


# ---------------------------------------------------------------------------
# timed run
# ---------------------------------------------------------------------------


def _normalize(rec: dict) -> dict:
    """Scale a child's times to the reference host speed.

    The host's speed drifts by a quarter over minutes; the reference loop
    timed around each child tracks it, so scaled times of one commit agree
    from run to run while a change to the program still shows in full.
    """
    scale = REF_NOMINAL_S / rec["ref_s"]
    rec["raw_wall_s"], rec["raw_cpu_s"] = rec["wall_s"], rec["cpu_s"]
    rec["wall_s"] *= scale
    rec["cpu_s"] *= scale
    return rec


def setup_sample(launch: Launcher) -> float:
    """One cold start: a fresh interpreter running the CLI's --help."""
    rec = launch.run([sys.executable, "-m", "prosotime.cli", "--help"], OUT / "setup.stdout")
    if rec["exit"] != 0:
        raise SystemExit(f"error: prosotime.cli --help failed: {_last_line(rec['stderr'])}")
    return _normalize(rec)["wall_s"]


def run_op(op: dict, verify: Verifier, launch: Launcher) -> dict:
    out = OUT / op["id"]
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = [sys.executable, "-m", "prosotime.cli", *op["argv"], "--out-dir", str(out)]
    rec = _normalize(launch.run(argv, OUT / f"{op['id']}.stdout"))
    stderr = rec.pop("stderr")
    rec.update(op=op["id"], error=None, wrong=False)
    if rec.pop("timed_out"):
        rec["error"] = f"timeout after {OP_TIMEOUT_S:g} s"
    elif "Traceback" in stderr or rec["exit"] != 0:
        rec["error"] = f"exit {rec['exit']}: {_last_line(stderr)}"
    else:
        rec["error"] = verify(op, out)
        rec["wrong"] = rec["error"] is not None
    return rec


def timed(ops: list[dict], passes: int, verify: Verifier, launch: Launcher) -> tuple[dict, list[dict], dict]:
    setup_sample(launch)  # warms the bytecode and page caches
    setup, runs, measured = [], [], 0.0
    for _ in range(passes):
        recs = []
        for k, op in enumerate(ops):
            if measured >= MEASURE_CAP_S:
                break
            if k % SETUP_EVERY == 0:  # cold starts spread over the run, not bunched
                setup.append(setup_sample(launch))
            recs.append(run_op(op, verify, launch))
            measured += recs[-1]["raw_wall_s"]
        runs.append(recs)
    complete = [p for p in runs if len(p) == len(ops)] or runs
    records = [r for p in runs for r in p]
    lat = [r["wall_s"] for r in records]
    tail_p = max(0.5, (len(lat) - 1 - TAIL_BEYOND) / max(1, len(lat) - 1))
    metrics = {
        "setup_s": _median(setup),
        "wall_s": _median([sum(r["wall_s"] for r in p) for p in complete]),
        "ops_per_s": _median([sum(r["error"] is None for r in p) / sum(r["wall_s"] for r in p) for p in complete]),
        "cpu_s": _median([sum(r["cpu_s"] for r in p) for p in complete]),
        "latency_p50_s": quantile(lat, 0.5),
        "latency_tail_s": quantile(lat, tail_p),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "error_rate": sum(r["error"] is not None for r in records) / len(records),
    }
    notes = {
        "passes": len(runs),
        "measured_s": round(measured, 3),
        "latency_tail_pct": round(100.0 * tail_p, 2),
        "latency_samples": len(lat),
        "setup_samples": len(setup),
        "host_speed": round(_median([REF_NOMINAL_S / r["ref_s"] for r in records]), 4),
        "raw_wall_s": round(_median([sum(r["raw_wall_s"] for r in p) for p in complete]), 4),
    }
    return metrics, records, notes


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def import_seconds(launch: Launcher) -> dict:
    """numpy's share of importing prosotime.cli and prosotime's own (the rest),
    from -X importtime."""
    argv = [sys.executable, "-X", "importtime", "-c", "import prosotime.cli"]
    numpy_s, own_s = [], []
    for _ in range(IMPORT_SAMPLES + 1):
        rec = launch.run(argv, OUT / "importtime.stdout")
        # lines read "import time: <self us> | <cumulative us> | <indent><module>"
        cumulative = {m.group(2): int(m.group(1)) / 1e6 for m in
                      re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", rec["stderr"], re.M)}
        numpy_s.append(cumulative.get("numpy", 0.0))
        own_s.append(cumulative.get("prosotime.cli", 0.0) - numpy_s[-1])
    return {"import.numpy.s": _median(numpy_s[1:]), "import.prosotime.s": _median(own_s[1:])}


def _cli_pass(cli, ops: list[dict], verify: Verifier) -> tuple[float, list[dict]]:
    """Every op once through the CLI's own run(argv), in this process."""
    records, total = [], 0.0
    for op in ops:
        out = OUT / op["id"]
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rec = {"op": op["id"], "error": None, "wrong": False}
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run([*op["argv"], "--out-dir", str(out)])
            if code != 0:
                rec["error"] = f"run() returned {code}"
        except Exception as exc:  # the CLI let an exception escape: a failed op
            rec["error"] = f"{type(exc).__name__}: {exc}"[:200]
        rec["wall_s"] = time.perf_counter() - start
        total += rec["wall_s"]
        if rec["error"] is None:
            rec["error"] = verify(op, out)
            rec["wrong"] = rec["error"] is not None
        records.append(rec)
    return total, records


def traced(ops: list[dict], seconds: float, verify: Verifier, launch: Launcher,
           trace_file: Path) -> tuple[dict, list[dict], dict]:
    metrics = import_seconds(launch)
    sys.path.insert(0, str(SRC))
    from prosotime import cli

    import replay

    argvs = [(op["id"], op["argv"]) for op in ops]
    cli_runs, plain, spans = [], [], []
    start = time.perf_counter()
    # half the time for these passes leaves the rest for imports, checks and
    # the tracemalloc pass, so a traced run lasts about as long as a timed one
    while not spans or time.perf_counter() - start < seconds / 2:
        cli_runs.append(_cli_pass(cli, ops, verify))
        plain.append(replay.replay_pass(argvs, replay.Tracer("off"))[0])
        tracer = replay.Tracer("spans")
        spans.append((replay.replay_pass(argvs, tracer)[0], tracer))
    tracemalloc.start()
    try:
        memory = replay.Tracer("memory")
        replay.replay_pass(argvs, memory)
    finally:
        tracemalloc.stop()

    per_pass = [tr.self_times() for _, tr in spans]
    layer_s = {name: _median([t.get(name, 0.0) for t in per_pass]) for name in per_pass[0]}
    layer_total = [sum(v for k, v in t.items() if not k.startswith("op.")) for t in per_pass]
    last = spans[-1][1]
    metrics.update({f"{name}.s": v for name, v in layer_s.items() if not name.startswith("op.")})
    metrics.update(last.counts)
    metrics.update(last.maxima)
    metrics.update(memory.maxima)
    metrics.update({f"{layer}.errors": n for layer, n in last.errors.items()})
    frames = last.counts.get("pitch.frames", 0)
    metrics["pitch.voiced_ratio"] = last.counts.get("pitch.voiced_frames", 0) / frames if frames else 0.0
    records = [r for _, recs in cli_runs for r in recs]
    metrics["cli.run.s"] = _median([t for t, _ in cli_runs])
    metrics["cli.self.s"] = _median([t - layers for (t, _), layers in zip(cli_runs, layer_total)])
    outputs = [p for op in ops for p in (OUT / op["id"]).iterdir() if p.is_file()]
    metrics["cli.bytes_written"] = sum(p.stat().st_size for p in outputs)
    metrics["cli.artifacts"] = len(outputs)
    metrics["cli.errors"] = sum(r["error"] is not None and not r["wrong"] for r in cli_runs[0][1])
    metrics["trace.overhead_ratio"] = _median([t for t, _ in spans]) / _median(plain)

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                                      "spans": [list(s) for s in spans[0][1].spans]}), encoding="utf-8")
    notes = {"passes": len(spans), "trace_file": str(trace_file.relative_to(ROOT))}
    return metrics, records, notes


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "prosotime").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg()),
        "commit": commit, "src_sha256": src.hexdigest()[:16], "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help='a workload named in BENCHMARK.json, or "all"')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.pycache_prefix = str(WORK / "pycache")  # keep bytecode out of src/

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "prosotime" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/prosotime/cli.py or BENCHMARK.json; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload == "all":  # every workload in turn, each in its own process
        return max(subprocess.call([sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
                                    "--seconds", str(args.seconds), "--trace", str(args.trace)])
                   for w in spec["workloads"])
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    OUT.mkdir(parents=True, exist_ok=True)
    launch = Launcher()  # before this process grows
    try:
        env = environment(args.seed)
        import checks
        import workloads

        inputs, ops = workloads.prepare(args.workload, args.seed, WORK / "inputs")
        ops = [_resolve(op, inputs) for op in ops]
        verify = Verifier(checks)
        tag = f"{args.workload}-{args.seed}-trace{args.trace}"
        if args.trace:
            values, records, notes = traced(ops, args.seconds, verify, launch, WORK / "traces" / f"{tag}.json")
            wanted = spec["per_layer"]
        else:
            passes = max(2, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
            values, records, notes = timed(ops, passes, verify, launch)
            wanted = spec["end_to_end"]
    finally:
        launch.close()
    # a layer the workload never reaches reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    failed = [r for r in records if r["error"] is not None]
    result = {
        "correct": not any(r["wrong"] for r in records) and len(failed) < len(records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} " +
          " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    for name, m in metrics.items():
        beside = f" (p{notes['latency_tail_pct']} of {notes['latency_samples']})" if name == "latency_tail_s" else ""
        print(f"# {name} = {m['value']:.6g} {m['unit']}{beside}")
    if not args.trace:
        print(f"# error_rate = {values['error_rate']:.6g} ratio ({len(failed)}/{len(records)} ops failed)")
    print("# " + " ".join(f"{k}={v}" for k, v in notes.items()))
    for rec in failed:
        print(f"# failed {rec['op']}: {rec['error']}")

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(
        {"environment": env, "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
         "values": values, "notes": notes, "records": records, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
