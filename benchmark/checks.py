"""Output checks: every JSON report against its shipped schema, plus an oracle
per subcommand derived from the generator's ground truth, never from the bytes
a seed happened to produce.

Each check takes the op, its output directory and the source root, and raises
CheckError on a wrong output.
"""

from __future__ import annotations

import json
import math
import re
import sys
import threading
from pathlib import Path

import jsonschema
import numpy as np

from workloads import PAUSE_LABELS, PITCH_ACCENTS


class CheckError(Exception):
    """An output that a correct program would not have produced."""


_validators: dict = {}


def _deep(fn, *args):
    """Run fn in a thread with a large stack: chain trees nest hundreds deep and
    both json and jsonschema recurse once per level."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # re-raised in the caller's thread
            box["error"] = exc

    old_limit = sys.getrecursionlimit()
    old_stack = threading.stack_size(512 * 1024 * 1024)
    sys.setrecursionlimit(max(old_limit, 200_000))
    try:
        worker = threading.Thread(target=target)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(old_stack)
        sys.setrecursionlimit(old_limit)
    if "error" in box:
        raise box["error"]
    return box.get("value")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _report(out: Path, name: str, schema: str, src: Path) -> dict:
    path = out / name
    _require(path.is_file(), f"missing report {name}")
    report = _deep(json.loads, path.read_text(encoding="utf-8"))
    if schema not in _validators:
        doc = json.loads((src / "prosotime" / "schemas" / f"{schema}.schema.json").read_text())
        _validators[schema] = jsonschema.Draft202012Validator(doc)
    errors = _deep(lambda: [e.message for e in _validators[schema].iter_errors(report)])
    _require(not errors, f"{name} breaks {schema}.schema.json: {errors[:1]}")
    return report


def _svgs_closed(out: Path) -> None:
    for svg in out.glob("*.svg"):
        text = svg.read_text(encoding="utf-8")
        _require(text.startswith("<svg") and text.endswith("</svg>\n"), f"{svg.name} is not a closed SVG")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _stem(argv: list[str]) -> str:
    return Path(argv[1]).stem


def sexpr_shape(sexpr: str) -> tuple[list[str], int]:
    """Leaf labels left to right and the maximum paren nesting, iteratively."""
    labels, depth, deepest, after_open = [], 0, 0, False
    for tok in re.findall(r"\(|\)|[^\s()]+", sexpr):
        if tok == "(":
            depth += 1
            deepest = max(deepest, depth)
            after_open = True
        elif tok == ")":
            depth -= 1
        elif after_open:  # the mark of the node just opened
            after_open = False
        else:
            labels.append(tok)
    return labels, deepest


# ---------------------------------------------------------------------------
# pitch
# ---------------------------------------------------------------------------


def _check_f0(op, out, src):
    stem, truth = _stem(op["argv"]), op["truth"]
    rep = _report(out, f"{stem}.f0.json", "f0", src)
    median = rep["median_f0_hz"]
    _require(median is not None and _close(median, truth["median_f0_hz"], 0.03),
             f"median F0 {median} Hz, generator {truth['median_f0_hz']:.2f} Hz")
    _require(len(rep["ipus"]) == len(truth["pauses"]) + 1,
             f"{len(rep['ipus'])} IPUs for {len(truth['pauses'])} pauses")
    _require((out / f"{stem}.f0.csv").is_file(), "missing F0 CSV")
    _svgs_closed(out)


def _check_contour(op, out, src):
    argv, truth = op["argv"], op["truth"]
    rep = _report(out, f"{_stem(argv)}.contour.json", "contour", src)
    model = rep["model"]
    domain = truth["domain"]
    got = None if model["domain"] is None else [model["domain"]["start_s"], model["domain"]["end_s"]]
    _require(got == (None if domain is None else list(domain)), f"domain {got}, asked {domain}")
    # refit the same CSV with numpy's own least squares
    rows = np.genfromtxt(argv[1], delimiter=",", skip_header=1, missing_values="", filling_values=np.nan)
    t, f0 = rows[:, 0], rows[:, 1]
    voiced = ~np.isnan(f0)
    origin = t[0]
    if domain is not None:
        voiced &= (t >= domain[0]) & (t <= domain[1])
        origin = domain[0]
    x, y = t[voiced] - origin, f0[voiced]
    _require(model["voiced_frame_count"] == len(x), f"{model['voiced_frame_count']} frames fitted, CSV has {len(x)}")
    ours = np.polynomial.Polynomial.fit(x, y, model["degree"])(x)
    theirs = np.polynomial.polynomial.polyval(x, model["coeffs"])
    _require(float(np.max(np.abs(ours - theirs))) <= 1e-6 * float(np.max(np.abs(y))),
             "contour polynomial differs from a numpy least-squares refit")
    rmse = float(np.sqrt(np.mean((ours - y) ** 2)))
    _require(_close(model["rmse"], rmse, 1e-6), f"rmse {model['rmse']} vs refit {rmse}")
    _svgs_closed(out)


# ---------------------------------------------------------------------------
# envelope spectra
# ---------------------------------------------------------------------------


def _check_aems(op, out, src):
    stem, truth = _stem(op["argv"]), op["truth"]
    rep = _report(out, f"{stem}.aems.json", "aems", src)
    rate = truth["syllable_hz"]
    _require(bool(rep["zones"]), "no rhythm zone found")
    zone = rep["zones"][0]
    _require(zone["lo_hz"] <= rate <= zone["hi_hz"] and _close(zone["center_hz"], rate, 0.2),
             f"dominant zone {zone['lo_hz']:.2f}-{zone['hi_hz']:.2f} Hz centred at "
             f"{zone['center_hz']:.3f} Hz; syllable rate {rate:.3f} Hz")
    expected_bins = int(math.floor(rep["cutoff_hz"] / rep["resolution_hz"] + 1e-9)) + 1
    _require(rep["n_bins"] == expected_bins, f"{rep['n_bins']} bins, expected {expected_bins}")
    rows = (out / f"{stem}.spectrum.csv").read_text(encoding="utf-8").count("\n") - 1
    _require(rows == rep["n_bins"], f"spectrum CSV has {rows} rows for {rep['n_bins']} bins")
    _svgs_closed(out)


def _check_spectree(op, out, src):
    stem = _stem(op["argv"])
    rep = _report(out, f"{stem}.spectree.json", "spectree", src)
    params = rep["aems_params"]
    res = params["env_rate"] / params["n_samples"]
    leaves, _ = sexpr_shape(rep["sexpr"])
    want = [f"{k * res:g}Hz" for k in range(rep["n_bins"])]
    _require(leaves == want, f"spectral tree fringe has {len(leaves)} leaves, not the {len(want)} bins in order")
    _svgs_closed(out)


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------


def _kept(truth) -> tuple[list[str], np.ndarray]:
    kept = [(lab, b - a) for lab, a, b in truth["intervals"] if lab not in PAUSE_LABELS]
    return [lab for lab, _ in kept], np.array([d for _, d in kept])


def rhythm_oracle(d: np.ndarray) -> dict:
    """The five dispersion metrics; PIM by the sorted-rank (Gini) identity."""
    n = len(d)
    mean = d.mean()
    logs = np.sort(np.log(d))
    a, b = d[:-1], d[1:]
    return {
        "variance": float(np.sum((d - mean) ** 2) / (n - 1)),
        "pim": float(2.0 * np.sum((2.0 * np.arange(n) - n + 1.0) * logs)),
        "pfd": float(100.0 * np.sum(np.abs(d - mean)) / np.sum(d)),
        "rpvi": float(np.mean(np.abs(a - b))),
        "npvi": float(100.0 * np.mean(np.abs(a - b) / ((a + b) / 2.0))),
    }


def _check_metrics(op, out, src):
    stem = _stem(op["argv"])
    rep = _report(out, f"{stem}.metrics.json", "metrics", src)
    _, d = _kept(op["truth"])
    _require(rep["n"] == len(d), f"n={rep['n']}, tier keeps {len(d)} durations")
    for name, want in rhythm_oracle(d).items():
        got = rep["metrics"][name]
        _require(abs(got - want) <= 1e-9 * max(1.0, abs(want)), f"{name}={got!r}, oracle {want!r}")
    quads = rep["quadrants"]
    _require(quads is not None and sum(quads["counts"].values()) == len(d) - 1,
             "quadrant counts do not partition the successive pairs")
    _svgs_closed(out)


def chain_sexpr(labels: list[str]) -> str:
    """The right-branching tree of a rising chain closed by its shortest item."""
    inner = f"(s {labels[-1]})"
    for lab in reversed(labels[1:-1]):
        inner = f"(s (w {lab}) {inner})"
    return f"(r (w {labels[0]}) {inner})"


def _check_timetree(op, out, src):
    stem, truth = _stem(op["argv"]), op["truth"]
    rep = _report(out, f"{stem}.timetree.json", "timetree", src)
    labels, _ = _kept(truth)
    fringe, _ = sexpr_shape(rep["sexpr"])
    _require(rep["n"] == len(labels), f"n={rep['n']}, tier keeps {len(labels)} items")
    _require(fringe == labels, "tree fringe differs from the tier's kept labels")
    if truth.get("chain"):
        _require(rep["sexpr"] == chain_sexpr(labels), "rising chain is not right-branching")
    _svgs_closed(out)


# ---------------------------------------------------------------------------
# tone grammars
# ---------------------------------------------------------------------------

_CLASS = {"%H": "B", "%L": "B", "H-": "P", "L-": "P", "H%": "F", "L%": "F",
          **{a: "A" for a in PITCH_ACCENTS}}
_TUNE = re.compile(r"(?:B(?:A+P)+F)+")


def tune_ok(text: str) -> bool:
    """Regex oracle of the intonation grammar over symbol classes."""
    return _TUNE.fullmatch("".join(_CLASS.get(s, "?") for s in text.split())) is not None


def _check_enum(op, out, src):
    rep = _report(out, "intonation.json", "intonation", src)
    strings = rep["strings"]
    seqs = [tuple(s.split()) for s in strings]
    _require(rep["count"] == len(strings), "count differs from the number of strings")
    _require(rep["max_len"] == op["truth"]["max_len"], "max_len not echoed")
    _require(all(a < b for a, b in zip(seqs, seqs[1:])), "strings are not sorted and unique")
    _require(all(0 < len(s) <= rep["max_len"] for s in seqs), "a string exceeds max_len")
    _require(all(tune_ok(s) for s in strings), "an enumerated string is rejected by the regex oracle")


def _check_check(op, out, src):
    rep = _report(out, "intonation.json", "intonation", src)
    text = op["argv"][2]
    want = op["truth"]["accepted"]
    _require(tune_ok(text) == want, "generator and regex oracle disagree")
    _require(rep["accepted"] == want, f"accepted={rep['accepted']}, oracle {want}")


_TONE_RULE = {("H", "H"): "h", ("L", "L"): "l", ("H", "L"): "!l", ("L", "H"): "^h"}


def _check_tone_gen(op, out, src):
    rep = _report(out, "tones.json", "tonegen", src)
    tones = op["truth"]["tones"].split()
    want = [{"H": "hc", "L": "lc"}[tones[0]]] + [_TONE_RULE[p] for p in zip(tones, tones[1:])]
    _require(rep["lexical"] == tones, "lexical tones not echoed")
    _require(rep["phonetic"] == want, "phonetic labels break the H/L transition rule")
    _require([t["label"] for t in rep["targets"]] == want, "target labels differ from the phonetic tape")
    lo, hi = rep["params"]["floor_hz"], rep["params"]["ceiling_hz"]
    _require(all(lo <= t["hz"] <= hi for t in rep["targets"]), "a target lies outside [floor, ceiling]")
    _svgs_closed(out)


ORACLES = {
    "f0": _check_f0,
    "contour": _check_contour,
    "aems": _check_aems,
    "spectree": _check_spectree,
    "metrics": _check_metrics,
    "timetree": _check_timetree,
    "enum": _check_enum,
    "check": _check_check,
    "tone-gen": _check_tone_gen,
}


def check(op: dict, out: Path, src: Path) -> None:
    """Raise CheckError unless op's outputs in out are correct."""
    ORACLES[op["check"]](op, out, src)
