"""The F0 contour as stdlib columns: F0Track over array("d"), written and drawn in Python.

The former numpy code is kept below as oracles: F0Track's array check (with
audio's former _frozen_array), the F0 CSV writer over .tolist() blocks and
the F0 SVG writer that computed its dots as arrays.  The tone-gen artifacts
of a fixed 200-tone string are pinned by their sha256, as the numpy code
wrote them.
"""

import contextlib
import hashlib
import io
import math
import random
import tracemalloc
from array import array
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosotime import F0Track, PitchTargetSequence, build_pierrehumbert, recognize, synthesize_contour
from prosotime.cli import run
from prosotime.errors import AnalysisError, DegenerateInputError, ParameterError, _positive
from prosotime.pitch import f0_track_to_csv
from prosotime.svgplot import _ACCENT, _H, _ROWS, _W, _axes, _circle, _Frame, _head, _rows, svg_f0_track

ORACLE = settings(max_examples=600, derandomize=True, deadline=None)
_LEAF = 1 << 13  # the frames the former check and CSV writer took at a time


def _former_frozen_array(values, what, rule, lo=-np.inf, *, nan_ok=False):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DegenerateInputError(f"{what} must form a non-empty 1-D array")
    least, most = (np.fmin, np.fmax) if nan_ok else (np.minimum, np.maximum)
    a, b = least.reduce(arr, initial=np.inf), most.reduce(arr, initial=-np.inf)
    if not (lo <= a and b <= np.inf and -np.inf < a and b < np.inf):
        ok = (lo <= arr) & (arr <= np.inf) & np.isfinite(arr) | nan_ok & np.isnan(arr)
        raise ParameterError(f"{what} must be {rule}, got {arr[np.argmin(ok)]}")
    return arr


def _former_check(times_s, f0_hz, hop_s):
    """The former F0Track constructor's checks, with the later rule that a step is positive: its (times, f0,
    hop_s), or its error."""
    times = _former_frozen_array(times_s, "frame times", "finite")
    f0 = _former_frozen_array(f0_hz, "voiced f0", "finite and > 0", np.finfo(float).smallest_subnormal,
                              nan_ok=True)
    if len(times) != len(f0):
        raise ParameterError(f"{len(times)} times vs {len(f0)} f0 values")
    h = _positive(hop_s, "hop_s")
    for lo in range(0, len(times) - 1, _LEAF):
        with np.errstate(over="ignore"):
            step = np.diff(times[lo : lo + _LEAF + 1])
        close = np.abs(step - h) <= np.maximum(1e-6 * np.maximum(np.abs(step), h), 1e-9)
        close &= np.isfinite(step) & (step > 0)  # a step that is not positive is refused too
        if not close.all():
            i = int(np.argmin(close))
            raise ParameterError(
                f"frame times must advance uniformly by hop_s={h}, "
                f"got step {float(step[i])} at t={float(times[lo + i])}"
            )
    return times, f0, h


def _former_csv(times, f0):
    lines = ["time_s,f0_hz\n"]
    for lo in range(0, len(times), _LEAF):
        for t, v in zip(times[lo : lo + _LEAF].tolist(), f0[lo : lo + _LEAF].tolist()):
            lines.append(f"{t!r},\n" if math.isnan(v) else f"{t!r},{v!r}\n")
    return "".join(lines)


def _former_svg(times, f0):
    """The former svg_f0_track(track) without models: the dots computed as arrays."""
    t_lo, t_hi, v_lo, v_hi = 0.0, 1.0, 0.0, 1.0
    if len(f0) and not math.isnan(f0_min := np.fmin.reduce(f0).item()):
        t_lo, t_hi = times[[0, -1]].tolist()
        v_lo, v_hi = f0_min * 0.9, np.fmax.reduce(f0).item() * 1.1
    frame = _Frame(t_lo, t_hi, v_lo, v_hi, 50, 20, _W - 70, _H - 70)
    dot = _circle("%.3f", "%.3f", "2", _ACCENT)
    parts = [_head(_W, _H, "F0 track with polynomial contour models")]
    for a in range(0, len(f0), _ROWS):
        voiced = ~np.isnan(f0[a:a + _ROWS])
        ts, vs = times[a:a + _ROWS][voiced], f0[a:a + _ROWS][voiced]
        parts += _rows(dot, len(ts), lambda c, d: (frame.x(ts[c:d]), frame.y(vs[c:d])))
    parts += _axes(frame, "time (s)", "F0 (Hz)")
    parts.append("</svg>\n")
    return "".join(parts)


def _outcome(call, *args):
    try:
        return "value", call(*args)
    except AnalysisError as exc:
        return type(exc).__name__, str(exc)


EDGE_F0 = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e308, 150.0]
BAD_F0 = [-1.0, -5e-324, -1e-310, 0.0, -0.0, math.inf, -math.inf]
GOOD_F0 = st.one_of(st.floats(60.0, 400.0), st.floats(60.0, 400.0), st.just(math.nan), st.none(),
                    st.sampled_from(EDGE_F0), st.floats(5e-324, allow_infinity=False))
ANY_F0 = st.one_of(GOOD_F0, st.sampled_from(BAD_F0), st.floats(allow_nan=False))
ANY_TIME = st.one_of(st.floats(), st.sampled_from([-1e308, 1e308, 1.7e308, math.nan, math.inf, -math.inf]))


@st.composite
def tracks(draw):
    """(times, f0, hop_s) as F0Track takes them: runs of equal F0, NaN and None runs, uniform or uneven times."""
    values = draw(st.sampled_from([GOOD_F0, GOOD_F0, ANY_F0]))
    f0 = [v for v, k in draw(st.lists(st.tuples(values, st.integers(1, 5)), max_size=10)) for _ in range(k)]
    n = max(0, len(f0) + draw(st.sampled_from([0] * 10 + [-1, 1])))  # now and then a length mismatch
    hop = draw(st.one_of(st.just(0.01), st.floats(1e-12, 1e3), st.sampled_from([16.0, 1e300])))
    kind = draw(st.sampled_from(["uniform", "uniform", "uneven", "any"]))
    if kind == "any":
        times = draw(st.lists(ANY_TIME, min_size=n, max_size=n))
    else:
        t0 = draw(st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 1e17, -1e17, 1e17 + 16, -1e308])))
        times = [t0 + k * hop for k in range(n)]
        if kind == "uneven" and n > 1:  # one step off by d, from frame k on
            k = draw(st.integers(1, n - 1))
            d = draw(st.sampled_from([1e-6, 2e-6, 3e-6, 1e-3, 1.0])) * hop * draw(st.sampled_from([1, -1]))
            d = draw(st.sampled_from([d, d, 1e-9, -2e-9, 1e308, -1e308]))
            times[k:] = [t + d for t in times[k:]]
    given_hop = draw(st.one_of(st.just(hop), st.just(hop), st.just(hop),
                               st.sampled_from([0.0, -hop, math.nan, math.inf, hop * (1 + 3e-6)])))
    if draw(st.booleans()) and None not in f0:  # the same columns as ndarrays
        return np.asarray(times, dtype=np.float64), np.asarray(f0, dtype=np.float64), given_hop
    return times, f0, given_hop


class TestFormerOracles:
    @ORACLE
    @given(tracks())
    def test_check_accepts_and_refuses_as_former(self, track):
        former, new = _outcome(_former_check, *track), _outcome(F0Track, *track)
        assert former[0] == new[0]
        if new[0] != "value":
            assert new == former
            return
        (times, f0, hop), built = former[1], new[1]
        assert built.times_s.tobytes() == times.tobytes() and built.f0_hz.tobytes() == f0.tobytes()
        assert built.hop_s == hop and len(built) == len(times)
        assert built.voiced_count == int(np.count_nonzero(~np.isnan(f0)))
        assert f0_track_to_csv(built) == _former_csv(times, f0)
        assert svg_f0_track(built) == _former_svg(times, f0)

    @pytest.mark.parametrize("seed, run", [(0, 4), (1, 1)], ids=["runs", "distinct"])
    def test_long_track_across_chunks_matches_former_writers(self, seed, run):
        # a random walk with unvoiced stretches over 3 SVG chunks and 2 former CSV blocks
        rng = np.random.default_rng(seed)
        n = 2 * _LEAF + 7
        f0 = np.repeat(150.0 + np.cumsum(rng.normal(0.0, 0.2, n // run + 1)), run)[:n]  # stays within 60-240 Hz
        f0[rng.random(n) < 0.2] = np.nan
        times = np.arange(n) * 0.01 + 3.0
        track = F0Track(times, f0, 0.01)
        assert f0_track_to_csv(track) == _former_csv(times, f0)
        assert svg_f0_track(track) == _former_svg(times, f0)

    @ORACLE
    @given(hz=st.lists(st.floats(60.0, 400.0), min_size=1, max_size=30),
           tone_dur_ms=st.one_of(st.floats(1e-3, 400.0), st.sampled_from([150.0, 55.0, 5.0, 15.0, 25.0])))
    def test_synthesized_columns_are_the_former_arrays(self, hz, tone_dur_ms):
        track = synthesize_contour(PitchTargetSequence([("h", v) for v in hz]), tone_dur_ms)
        per = max(1, round(tone_dur_ms / 1000.0 / 0.01))
        f0, times = np.repeat(hz, per), np.arange(len(hz) * per) * 0.01
        assert track.f0_hz.tobytes() == f0.tobytes() and track.times_s.tobytes() == times.tobytes()
        assert f0_track_to_csv(track) == _former_csv(times, f0)
        assert svg_f0_track(track) == _former_svg(times, f0)
        assert len(F0Track(track.times_s, track.f0_hz, track.hop_s)) == len(track)  # built unchecked, it passes the checks


class TestColumns:
    def test_arrays_are_read_only_views(self):
        track = F0Track([0.0, 0.01], [100.0, None], 0.01)
        for arr in (track.times_s, track.f0_hz):
            assert arr.dtype == np.float64 and not arr.flags.writeable and arr.base is not None
            with pytest.raises(ValueError):
                arr.flags.writeable = True
        assert not track.f0_hz.flags.owndata

    @pytest.mark.parametrize("bad", [[[0.0], [0.01]], 5.0, np.zeros((2, 1))])
    def test_not_one_dimensional(self, bad):
        with pytest.raises(DegenerateInputError, match="frame times must form a non-empty 1-D array"):
            F0Track(bad, [100.0, 100.0], 0.01)

    def test_other_dtypes_convert_as_numpy(self):
        track = F0Track(np.arange(3, dtype=np.int32), np.array([100, 110, 120], dtype=np.float32), 1.0)
        assert track.times_s.tolist() == [0.0, 1.0, 2.0] and track.f0_hz.tolist() == [100.0, 110.0, 120.0]
        track = F0Track(np.arange(6.0)[::2], (100.0, 110.0, 120.0), 2.0)  # a strided array
        assert track.times_s.tolist() == [0.0, 2.0, 4.0]

    def test_overflowing_sum_of_finite_times_is_accepted(self):
        times = [1e308, math.nextafter(1e308, math.inf)]  # one positive step, of the float spacing at 1e308
        track = F0Track(times, [100.0, 100.0], times[1] - times[0])  # the sum is inf, every time finite
        assert len(track) == 2


INDEX = st.one_of(st.none(), st.integers(-70, 70))


class TestSynthesizedColumns:
    """A synthesized contour's columns, computed from its targets, read as the arrays they stand for."""

    @staticmethod
    def columns(hz, per):
        track = synthesize_contour(PitchTargetSequence([("h", v) for v in hz]), per * 10.0)
        return track, (np.arange(len(hz) * per) * 0.01).tolist(), np.repeat(hz, per).tolist()

    @ORACLE
    @given(hz=st.lists(st.floats(60.0, 400.0), min_size=1, max_size=8), per=st.integers(1, 6),
           start=INDEX, stop=INDEX, step=st.one_of(st.none(), st.integers(-7, 7).filter(bool)))
    def test_slices_are_arrays_of_the_frames(self, hz, per, start, stop, step):
        track, times, f0 = self.columns(hz, per)
        for column, frames in ((track._times, times), (track._f0, f0)):
            got = column[start:stop:step]
            assert type(got) is array and got.typecode == "d"
            assert got.tolist() == frames[start:stop:step]

    @pytest.mark.parametrize("per", [1, 3, 15])
    def test_slices_at_target_edges(self, per):
        hz = [100.0 + k for k in range(7)]
        track, times, f0 = self.columns(hz, per)
        n = len(f0)
        edges = sorted({min(max(k * per + d, 0), n) for k in range(len(hz) + 1) for d in (-1, 0, 1)})
        for a in edges:
            for b in edges:
                assert track._f0[a:b].tolist() == f0[a:b] and track._times[a:b].tolist() == times[a:b]
        assert track._f0[n:].tolist() == track._f0[5:2].tolist() == track._times[-1:0].tolist() == []

    def test_items_iteration_and_bisect(self):
        track, times, f0 = self.columns([170.0, 119.0, 200.5], 4)
        assert len(track._times) == len(track._f0) == 12
        assert [*track._times] == times and [*track._f0] == f0
        assert [track._f0[k] for k in range(-12, 12)] == f0[-12:] + f0
        assert [track._times[k] for k in range(-12, 12)] == times[-12:] + times
        for bad in (12, -13):
            with pytest.raises(IndexError):
                track._f0[bad]
            with pytest.raises(IndexError):
                track._times[bad]
        for t in (-1.0, 0.0, 0.035, 0.04, 0.0400001, 0.11, 0.2):
            assert bisect_left(track._times, t) == bisect_left(times, t)
            assert bisect_right(track._times, t) == bisect_right(times, t)

    def test_arrays_are_built_on_access(self):
        track, times, f0 = self.columns([170.0, 119.0], 3)
        for arr, frames in ((track.times_s, times), (track.f0_hz, f0)):
            assert arr.dtype == np.float64 and not arr.flags.writeable and arr.tolist() == frames
        assert [v.tolist() for v in track.voiced_frames()] == [times, f0] and track.voiced_count == 6


def _traced_peak(call) -> float:
    """The traced peak of call(), in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_tone_gen_frames_take_no_memory_beyond_the_report(tmp_path):
    # 10**5 tones make 1.5e6 frames: the CSV and SVG writers hold a block of them, the report the targets
    tones = " ".join(random.Random(5).choice("HL") for _ in range(100_000))

    def tone_gen(*formats):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["tone-gen", tones, *formats, "--out-dir", str(tmp_path)]) == 0

    tone_gen("--formats", "json")  # once untraced, so that the traced runs import nothing
    full = _traced_peak(tone_gen)
    assert full - _traced_peak(lambda: tone_gen("--formats", "json")) < 1.0  # 24.1 MB with the frames as arrays


def test_recognize_reads_its_symbols_in_windows():
    fsm, tune = build_pierrehumbert(), " ".join(["%H", *["H*", "L-"] * 49_999, "L%"])
    recognize(fsm, "%H H* L- L%")
    assert _traced_peak(lambda: recognize(fsm, tune)) < 0.5  # 5.6 MB for the list of the 10**5 symbols


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


TONES_200 = " ".join("HLHHLLHL"[(i * 7 + i // 3) % 8] for i in range(200))


@pytest.mark.parametrize("extra, digests", [
    ([], {
        "tones.json": "d93ab5f08c389784158bbd4fb71f018acc3b6e61971e0cd10b6e396df28e47cf",
        "tones.f0.csv": "b3b0f0955b0085024b5399dbd0fa3ced1d1e530f2b566deea86dc4f08efd6137",
        "tones.f0.svg": "d8abe50dd43a4f9781c7466a916d70d5a53b7c92ff8ddcbf1ecaac49fb03f32a",
    }),
    (["--tone-dur-ms", "55"], {
        "tones.json": "42e025bd52bbc4050ab3683616d374800a5492439b3d89b0a4248398278bc6aa",
        "tones.f0.csv": "5826b126b6f0d368dc8ad77800c442c6ec8954c7cec18e57b07b9eae428ecccb",
        "tones.f0.svg": "a09160ab8df5041675704872e87f488b247db13d24dc9cff3cc96fcf08d62319",
    }),
], ids=["default", "55ms"])
def test_tone_gen_bytes_pinned(extra, digests, tmp_path, capsys):
    # the digests of the artifacts the numpy contour wrote
    assert run(["tone-gen", TONES_200, *extra, "--out-dir", str(tmp_path)]) == 0
    assert {p.name: _sha(p) for p in tmp_path.iterdir()} == digests


def test_json_only_tone_gen_builds_no_contour(tmp_path, monkeypatch, capsys):
    from prosotime import fsm

    def refuse(*args, **kwargs):
        raise AssertionError("built a contour that no render asks for")

    monkeypatch.setattr(fsm, "synthesize_contour", refuse)
    assert run(["tone-gen", "H L H L", "--tone-dur-ms", "2.5e6", "--formats", "json", "--out-dir", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["tones.json"]
    assert '"n_frames": 1000000' in (tmp_path / "tones.json").read_text()
