"""Seeded input generators and the op list of every benchmark workload.

Each generator writes its inputs, a ground-truth sidecar (``truth.json``, which
the program never reads) and a manifest of ops.  An op is one CLI invocation::

    {"id": ..., "argv": [...], "check": <oracle name>, "truth": {...}}

An argv entry beginning with ``{in}`` names a file in the input directory and
one beginning with ``{out}`` names a file that an earlier op of the same pass
wrote (``{out}<op id>/<file>``).  Sizes are fixed per workload; the seed only
changes content, so every seed costs the program about the same work.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import struct
from pathlib import Path

import numpy as np

RATE = 16000
WORKLOADS = ("speech_f0", "long_aems", "annotation_tiers", "tone_grammar")
_SALT = {name: k for k, name in enumerate(WORKLOADS)}

# Lengths in seconds of the speech_f0 files and of the long_aems recordings.
SPEECH_DURS = (30, 60, 90, 120)
LONG_DUR = 300

# Seconds one pass over each op list took (scaled to the reference host
# speed) on the 2-core Xeon VM that defined the benchmark.  A run measures
# round(--seconds / PASS_SECONDS) passes (at least 2), so every later commit
# is timed on the same work.
PASS_SECONDS = {"speech_f0": 7.4, "long_aems": 6.5, "annotation_tiers": 9.2, "tone_grammar": 6.2}

PAUSE_LABELS = ("sil", "", "#", "<p>")  # the CLI's default exclusion set
PITCH_ACCENTS = ("H*", "L*", "H*+L", "H+L*", "L*+H", "L+H*")


# ---------------------------------------------------------------------------
# signals and file writers
# ---------------------------------------------------------------------------


def _write_wav(path: Path, samples: np.ndarray, form: str) -> None:
    """Write a RIFF/WAVE file: ``pcm16`` mono, ``pcm16x2`` stereo or ``f32`` mono."""
    if form == "f32":
        payload = samples.astype("<f4").tobytes()
        tag, channels, bits = 3, 1, 32
    else:
        ints = np.clip(np.rint(samples * 32767.0), -32768, 32767).astype("<i2")
        channels = 2 if ints.ndim == 2 else 1
        payload = ints.tobytes()
        tag, bits = 1, 16
    block = channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        tag, channels, RATE, RATE * block, block, bits, b"data", len(payload),
    )
    path.write_bytes(header + payload)


def _speech(rng, dur_s: float, f0_median: float, syll_hz: float, pauses) -> tuple[np.ndarray, dict]:
    """Voiced speech-like signal: a harmonic F0 glide under a syllable envelope.

    Syllable lengths are jittered around 1/syll_hz so the envelope spectrum
    has a broad hump at the syllable rate, as real speech does.  Pauses are
    silent but for a -80 dB noise floor.
    """
    n = int(dur_s * RATE)
    t = np.arange(n) / RATE
    lengths = np.exp(rng.normal(np.log(1.0 / syll_hz), 0.25, size=int(dur_s * syll_hz * 2) + 8))
    bounds = np.concatenate([[0.0], np.cumsum(lengths)])
    bounds = bounds[bounds < dur_s]
    idx = np.searchsorted(bounds, t, side="right") - 1
    seg = np.append(np.diff(bounds), dur_s - bounds[-1])
    env = 0.1 + 0.9 * np.sin(np.pi * (t - bounds[idx]) / seg[idx]) ** 2
    del idx
    glide_period = rng.uniform(2.0, 4.0)
    glide_phase = rng.uniform(0.0, 2.0 * np.pi)
    f0 = f0_median * (1.0 + 0.12 * np.sin(2.0 * np.pi * t / glide_period + glide_phase))
    phase = 2.0 * np.pi * np.cumsum(f0) / RATE
    x = np.sin(phase)
    x += 0.5 * np.sin(2.0 * phase)
    x += 0.25 * np.sin(3.0 * phase)
    x *= env * (0.7 / 1.75)
    for a, b in pauses:
        x[int(a * RATE) : int(b * RATE)] = 0.0
    x += 1e-4 * rng.standard_normal(n)
    glide = {"f0_median_hz": f0_median, "period_s": glide_period, "phase": glide_phase}
    return x, {"syllable_hz": len(bounds) / dur_s, "glide": glide}


def glide_hz(glide: dict, t) -> np.ndarray:
    """The generator's F0 at times t."""
    t = np.asarray(t, dtype=float)
    return glide["f0_median_hz"] * (
        1.0 + 0.12 * np.sin(2.0 * np.pi * t / glide["period_s"] + glide["phase"])
    )


def _pauses(rng, dur_s: float) -> list[tuple[float, float]]:
    """One 0.4-0.8 s pause per 10 s stratum, never within 1.5 s of an edge."""
    k = max(1, int(dur_s // 10))
    width = (dur_s - 3.0) / k
    out = []
    for j in range(k):
        length = rng.uniform(0.4, 0.8)
        start = 1.5 + j * width + rng.uniform(0.5, width - length - 0.5)
        out.append((round(start, 3), round(start + length, 3)))
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _gen_speech_f0(rng, root: Path):
    ops, truth = [], {}
    for k, dur in enumerate(SPEECH_DURS):
        name = f"speech_{k:02d}"
        pauses = _pauses(rng, dur)
        x, info = _speech(rng, dur, rng.uniform(110.0, 220.0), rng.uniform(3.5, 5.5), pauses)
        _write_wav(root / f"{name}.wav", x, "pcm16")
        # frames the tracker sees as speech: 40 ms frames at a 10 ms hop that
        # lie clear of every pause
        centers = (np.arange(0, dur * RATE - 640 + 1, 160) + 320) / RATE
        speech = np.ones(len(centers), bool)
        for a, b in pauses:
            speech &= (centers < a - 0.03) | (centers > b + 0.03)
        edges = [0.0] + [v for p in pauses for v in p] + [float(dur)]
        ipus = list(zip(edges[::2], edges[1::2]))
        lo, hi = max(ipus, key=lambda u: u[1] - u[0])
        ipu = (round(lo + 0.1, 3), round(hi - 0.1, 3))
        truth[name] = {
            "duration_s": dur,
            "median_f0_hz": float(np.median(glide_hz(info["glide"], centers[speech]))),
            "pauses": pauses,
            "glide": info["glide"],
            "ipu": ipu,
        }
        f0_id, csv = f"f0-{name}", f"{{out}}f0-{name}/{name}.f0.csv"
        ops.append({"id": f0_id, "argv": ["f0", f"{{in}}{name}.wav"], "check": "f0", "truth": truth[name]})
        ops.append({"id": f"contour-{name}", "argv": ["contour-fit", csv],
                    "check": "contour", "truth": {**truth[name], "domain": None}})
        ops.append({"id": f"contour-ipu-{name}",
                    "argv": ["contour-fit", csv, "--start-s", repr(ipu[0]), "--end-s", repr(ipu[1])],
                    "check": "contour", "truth": {**truth[name], "domain": ipu}})
    return ops, truth


def _gen_long_aems(rng, root: Path):
    ops, truth = [], {}
    for form in ("pcm16", "pcm16x2", "f32"):
        name = f"long_{form}"
        # syllable rates stay below 3.8 Hz: from about 4.2 Hz the envelope hump
        # reaches aems's default 5 Hz cutoff, and detect_zones, which reports
        # interior maxima only, then finds no zone for the oracle to place
        x, info = _speech(rng, LONG_DUR, rng.uniform(110.0, 220.0), rng.uniform(2.5, 3.8), [])
        if form == "pcm16x2":
            right = 0.9 * x + 1e-3 * rng.standard_normal(len(x))
            x = np.stack([x, right], axis=1)
        _write_wav(root / f"{name}.wav", x, form)
        del x
        truth[name] = {"duration_s": LONG_DUR, "form": form, "syllable_hz": info["syllable_hz"]}
        wav = f"{{in}}{name}.wav"
        ops.append({"id": f"aems20-{name}", "argv": ["aems", wav, "--cutoff-hz", "20"],
                    "check": "aems", "truth": truth[name]})
        ops.append({"id": f"aems-{name}", "argv": ["aems", wav], "check": "aems", "truth": truth[name]})
        ops.append({"id": f"spectree20-{name}", "argv": ["spectree", wav, "--cutoff-hz", "20"],
                    "check": "spectree", "truth": truth[name]})
    return ops, truth


def _intervals(rng, n: int) -> list[tuple[str, float, float]]:
    """n intervals with lognormal durations; about 5% carry a pause label."""
    out, t = [], 0.0
    for i in range(n):
        if rng.random() < 0.05:
            label = PAUSE_LABELS[int(rng.integers(len(PAUSE_LABELS)))]
            dur = rng.lognormal(np.log(0.30), 0.3)
        else:
            label = f"syl{i}"
            dur = rng.lognormal(np.log(0.18), 0.45)
        end = round(t + max(dur, 0.02), 6)
        out.append((label, t, end))
        t = end
    return out


def _chain(n: int) -> list[tuple[str, float, float]]:
    """n strictly rising durations then one shorter than all: under
    --polarity lower each pass joins only the last pair, so the tree is a
    right-branching chain of depth n."""
    out, t = [], 0.0
    for i in range(n):
        end = round(t + 0.05 + 1e-4 * i, 6)
        out.append((f"c{i}", t, end))
        t = end
    out.append(("end", t, round(t + 0.01, 6)))
    return out


def _csv_text(tier: str, ivs) -> str:
    rows = ["tier,label,start_s,end_s"]
    rows += [f"{tier},{lab},{a!r},{b!r}" for lab, a, b in ivs]
    return "\n".join(rows) + "\n"


def _textgrid_text(tier: str, ivs, long_form: bool) -> str:
    xmax = ivs[-1][2]
    if long_form:
        lines = ['File type = "ooTextFile"', 'Object class = "TextGrid"', "",
                 "xmin = 0", f"xmax = {xmax!r}", "tiers? <exists>", "size = 1", "item []:",
                 "    item [1]:", '        class = "IntervalTier"', f'        name = "{tier}"',
                 "        xmin = 0", f"        xmax = {xmax!r}", f"        intervals: size = {len(ivs)}"]
        for k, (lab, a, b) in enumerate(ivs, 1):
            lines += [f"        intervals [{k}]:", f"            xmin = {a!r}",
                      f"            xmax = {b!r}", f'            text = "{lab}"']
    else:
        lines = ['File type = "ooTextFile"', 'Object class = "TextGrid"', "", "0", repr(xmax),
                 "<exists>", "1", '"IntervalTier"', f'"{tier}"', "0", repr(xmax), str(len(ivs))]
        for lab, a, b in ivs:
            lines += [repr(a), repr(b), f'"{lab}"']
    return "\n".join(lines) + "\n"


# (intervals, file form) of every annotation_tiers tier
TIERS = ((100, "csv"), (100, "long"), (100, "short"),
         (1000, "csv"), (1000, "long"), (1000, "short"), (10000, "csv"))
CHAINS = (300, 2000)


def _gen_annotation_tiers(rng, root: Path):
    ops, truth = [], {}
    files = []
    for n, form in TIERS:
        name = f"tier{n}_{form}"
        ivs = _intervals(rng, n)
        fname = f"{name}.csv" if form == "csv" else f"{name}.TextGrid"
        text = _csv_text("syl", ivs) if form == "csv" else _textgrid_text("syl", ivs, form == "long")
        (root / fname).write_text(text, encoding="utf-8")
        truth[name] = {"intervals": ivs}
        files.append((name, fname))
        ops.append({"id": f"metrics-{name}", "argv": ["metrics", f"{{in}}{fname}"],
                    "check": "metrics", "truth": truth[name]})
    combos = list(itertools.product(("iambic", "trochaic"), ("higher", "lower"), ("binary", "nary")))
    for k, (rel, pol, ar) in enumerate(combos):
        name, fname = files[k % len(files)]
        ops.append({"id": f"timetree-{rel}-{pol}-{ar}-{name}",
                    "argv": ["timetree", f"{{in}}{fname}", "--relation", rel, "--polarity", pol, "--arity", ar],
                    "check": "timetree", "truth": truth[name]})
    for n in CHAINS:
        name = f"chain{n}"
        ivs = _chain(n)
        (root / f"{name}.csv").write_text(_csv_text("syl", ivs), encoding="utf-8")
        truth[name] = {"intervals": ivs, "chain": True}
        ops.append({"id": f"timetree-{name}", "argv": ["timetree", f"{{in}}{name}.csv", "--polarity", "lower"],
                    "check": "timetree", "truth": truth[name]})
    return ops, truth


def _tune(rng, n_symbols: int) -> list[str]:
    """A well-formed tune of about n_symbols symbols; long ones iterate the pattern."""
    out: list[str] = []
    while True:
        out.append(("%H", "%L")[rng.integers(2)])
        phrase_end = len(out) + max(3, min(n_symbols - len(out), int(rng.integers(8, 40))))
        while True:
            out += [PITCH_ACCENTS[i] for i in rng.integers(len(PITCH_ACCENTS), size=int(rng.integers(1, 4)))]
            out.append(("H-", "L-")[rng.integers(2)])
            if len(out) >= phrase_end - 1:
                break
        out.append(("H%", "L%")[rng.integers(2)])
        if len(out) >= n_symbols - 3:
            return out


def _spoil(rng, tune: list[str]) -> list[str]:
    """Make a tune ill-formed while keeping every symbol in the alphabet."""
    kind = int(rng.integers(3))
    if kind == 0:  # no final boundary tone
        return tune[:-1]
    if kind == 1:  # phrase accent straight after an initial boundary
        starts = [i for i, s in enumerate(tune) if s in ("%H", "%L")]
        i = starts[int(rng.integers(len(starts)))]
        return tune[: i + 1] + ["H-"] + tune[i + 1 :]
    return ["H%"] + tune  # final boundary tone in first position


# symbol lengths of the intonation check tunes; each is checked valid and spoiled
TUNE_LENGTHS = (4, 40, 400, 4000, 30000)
TONE_COUNTS = (1000, 10000)
ENUM_MAX_LEN = 7


def _gen_tone_grammar(rng, root: Path):
    ops = [{"id": "enum", "argv": ["intonation", "enum", "--max-len", str(ENUM_MAX_LEN)],
            "check": "enum", "truth": {"max_len": ENUM_MAX_LEN}}]
    truth: dict = {"tunes": [], "tones": []}
    for n in TUNE_LENGTHS:
        good = _tune(rng, n)
        for accepted, tune in ((True, good), (False, _spoil(rng, good))):
            text = " ".join(tune)
            truth["tunes"].append({"symbols": len(tune), "accepted": accepted})
            ops.append({"id": f"check-{n}-{'ok' if accepted else 'bad'}",
                        "argv": ["intonation", "check", text],
                        "check": "check", "truth": {"accepted": accepted}})
    for n in TONE_COUNTS:
        tones = " ".join(("H", "L")[i] for i in rng.integers(2, size=n))
        truth["tones"].append({"n": n})
        ops.append({"id": f"tone-gen-{n}", "argv": ["tone-gen", tones],
                    "check": "tone-gen", "truth": {"tones": tones}})
    return ops, truth


_GENERATORS = {
    "speech_f0": _gen_speech_f0,
    "long_aems": _gen_long_aems,
    "annotation_tiers": _gen_annotation_tiers,
    "tone_grammar": _gen_tone_grammar,
}


def prepare(workload: str, seed: int, cache: Path) -> tuple[Path, list[dict]]:
    """Inputs and op list for (workload, seed), generated once and then cached.

    Only the latest seed of each workload is kept, so the cache stays at one
    input set per workload.
    """
    version = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:8]  # a generator change invalidates
    root = cache / f"{workload}-{seed}-{version}"
    manifest = root / "ops.json"
    if not manifest.exists():
        for old in cache.glob(f"{workload}-*"):
            shutil.rmtree(old)
        tmp = cache / f".{workload}-{seed}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        rng = np.random.default_rng([seed, _SALT[workload]])
        ops, truth = _GENERATORS[workload](rng, tmp)
        (tmp / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
        (tmp / "ops.json").write_text(json.dumps(ops), encoding="utf-8")
        tmp.rename(root)
    return root, json.loads(manifest.read_text(encoding="utf-8"))
