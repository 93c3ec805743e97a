"""SVG renderers and the batch command-line interface."""

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import struct
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import prosotime
from prosotime import (
    TreeParams,
    aems,
    detect_zones,
    estimate_f0_autocorr,
    fit_contour,
    fit_polynomial,
    induce_time_tree,
    quadrant_analysis,
    realize_pitch,
    synthesize_am,
    synthesize_contour,
    transduce_tones,
    write_wav_pcm16,
)
from prosotime.cli import _Blocks, _median, _report_chunks, run
from prosotime.svgplot import (
    svg_f0_track,
    svg_heatmap,
    svg_quadrants,
    svg_spectrum,
    svg_timetree,
)

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "prosotime" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def report_from(capsys):
    out = capsys.readouterr().out
    return json.loads(out[out.index("{\n"):])


@pytest.fixture
def tones_f0_csv_path(tmp_path):
    from prosotime.pitch import f0_track_to_csv

    path = tmp_path / "tones.f0.csv"
    path.write_text(f0_track_to_csv(synthesize_contour(realize_pitch(transduce_tones("H L H L H")))))
    return path


class TestSvgRenderers:
    def test_spectrum_svg_marks_each_zone(self, am_wave):
        spec = aems(am_wave, cutoff_hz=20.0)
        zones = detect_zones(spec)
        svg = svg_spectrum(spec, zones=zones)
        assert svg.startswith("<svg")
        assert svg.count('stroke="#228844"') == len(zones) > 0

    def test_spectrum_svg_without_zones(self, am_wave):
        spec = aems(am_wave, cutoff_hz=20.0)
        svg = svg_spectrum(spec)
        assert 'stroke="#228844"' not in svg

    def test_spectrum_svg_with_fit_overlay(self, am_wave):
        spec = aems(am_wave, cutoff_hz=20.0)
        fit = fit_polynomial(spec.freqs, spec.magnitudes, 5)
        svg = svg_spectrum(spec, fit=fit)
        assert 'stroke="#cc4400"' in svg

    def test_heatmap_constant_spectrum_all_blue(self, am_wave):
        from prosotime import Spectrum

        spec = Spectrum(0.5, np.full(11, 3.0), 5.0, {})
        svg = svg_heatmap(spec)
        import re

        fills = set(re.findall(r'fill="(rgb\([^)]*\))"', svg))
        assert fills == {"rgb(0,0,255)"}  # nothing maps to the hot end

    def test_f0_svg_draws_voiced_dots(self):
        track = synthesize_contour(realize_pitch(transduce_tones("H L H")))
        model = fit_contour(track, 1)
        svg = svg_f0_track(track, models=(model,))
        assert svg.count("<circle") == track.voiced_count
        assert 'stroke="#cc4400"' in svg

    def test_timetree_svg_has_all_leaves(self):
        tree = induce_time_tree([("miss", 3.0), ("jones", 2.0), ("came", 3.0), ("home", 1.0)])
        svg = svg_timetree(tree)
        for word in ("miss", "jones", "came", "home"):
            assert word in svg

    @pytest.mark.parametrize("seq, digest", [
        ([("miss", 3.0), ("jones", 2.0), ("came", 3.0), ("home", 1.0)],
         "d8a803fc3a485dc912c9ee40fdad06938abec5747e818f956ca75a2bae78bd45"),
        ([("i0", 1.0), ("i1", 2.0), ("i2", 3.0), ("i3", 4.0), ("i4", 5.0), ("i5", 0.0)],
         "f9ddc5148784af8efb738e1ccbc2fa0d2871e5398e3ef984e02bc4fad2d54825"),
    ])
    def test_timetree_svg_bytes_pinned(self, seq, digest):
        svg = svg_timetree(induce_time_tree(seq, TreeParams("iambic", "lower")))
        assert hashlib.sha256(svg.encode()).hexdigest() == digest

    def test_spectrum_and_heatmap_svg_bytes_pinned(self):
        from prosotime import FrequencyZone, PolyFit, Spectrum

        spec = Spectrum(0.5, [0.1, 0.4, 1.3, 0.7, 0.2, 0.9, 0.5, 0.05, 0.3, 0.6, 0.15], 5.0, {})
        fit = PolyFit(2, (0.2, 0.3, -0.05), (0.0, 5.0), 0.1, (0.5, 0.1, -0.3))
        zones = (FrequencyZone(1.0, 0.5, 1.5, 0.9), FrequencyZone(2.5, 2.0, 3.25, 0.4))
        one_bin = Spectrum(0.5, [2.0], 5.0, {})
        constant = Spectrum(0.5, np.full(11, 3.0), 5.0, {})
        cases = {
            "spectrum_fit_zones": svg_spectrum(spec, fit=fit, zones=zones),
            "spectrum_one_bin": svg_spectrum(one_bin, fit=fit),
            "heatmap": svg_heatmap(spec),
            "heatmap_constant": svg_heatmap(constant),
            "heatmap_one_bin": svg_heatmap(one_bin),
        }
        assert {k: _sha(v) for k, v in cases.items()} == {
            "spectrum_fit_zones": "444fc8d99c759da7bf38141bd846c08ac7fd67c261f4c511f314641e02e6a25f",
            "spectrum_one_bin": "14454c09db11f4a22c7e08fa75891ab4960a76800bf13b1ff19a63c3529561c3",
            "heatmap": "0c033fee0225310f237531e48623af1bbf8645495c06951713cdcde0dbf2da8e",
            "heatmap_constant": "51eee08706d2310cb70853a04cf3980e734348bd4f8a7c873b84e1d9b90f5001",
            "heatmap_one_bin": "ccdc54e0e7a91a51d616ec765904a162f7fc86782c9003f0d95ee59ed1b65ecc",
        }

    def test_f0_track_svg_bytes_pinned(self):
        from prosotime import IPU, F0Track, PolyContourModel, PolyFit

        times = [0.01 * k for k in range(12)]
        f0 = [None, 180.0, 185.5, 190.25, None, None, 172.0, 168.5, 165.0, 161.75, None, None]
        track = F0Track(times, f0, 0.01)
        whole = PolyContourModel(PolyFit(1, (186.0, -200.0), (0.0, 0.08), 2.0, (178.0, -8.0)), None, 7)
        part = PolyContourModel(PolyFit(2, (172.0, -250.0, 100.0), (0.0, 0.03), 0.5, (168.0, -5.0, 1.5)),
                                IPU(0.06, 0.09), 4)
        unvoiced = F0Track(times[:5], [None] * 5, 0.01)
        # one frame so far from zero that widening its empty time range is a no-op
        far = F0Track([1e17], [150.0], 0.01)
        cases = {
            "models": svg_f0_track(track, models=(whole, part)),
            "unvoiced": svg_f0_track(unvoiced),
            "one_frame_far": svg_f0_track(far, models=(fit_contour(far, 0),)),
        }
        assert {k: _sha(v) for k, v in cases.items()} == {
            "models": "4384aad43f75bfdfbcba7d114b3898d5706b49cf855fb8b6550ba88cf4b0234f",
            "unvoiced": "53992c4bd8e44d2a0c2a4255f93067c16d0a12316d3994df6c5bba6336ae9269",
            "one_frame_far": "084b5fb464e3ef73dd582231e595ad484d79619b18a521f57f323850ec5f3cb4",
        }

    @pytest.mark.parametrize("flags, digest", [
        ([], "8ec908bb55ca1e6a15019405024135123085609130e2828d6b28d5dca7c478be"),
        (["--degree", "2"], "1679d4db869c80b57cfcbeae23adf1b1a49922001a4a79ca579be146a96f05cb"),
        (["--degree", "2", "--start-s", "0.1", "--end-s", "0.5"],
         "e75aec874a941676d8b7e90a0ac39ada87c64254665110fdb59ebcc77cc47aea"),
    ], ids=["whole", "degree-2", "domain"])
    def test_contour_fit_svg_bytes_pinned(self, flags, digest, tones_f0_csv_path, tmp_path, capsys):
        # recorded with the numpy fit and polyline, before the contour was fitted and drawn in Python
        out = tmp_path / "out"
        assert run(["contour-fit", str(tones_f0_csv_path), *flags, "--out-dir", str(out)]) == 0
        assert hashlib.sha256((out / "tones.f0.contour.svg").read_bytes()).hexdigest() == digest

    def test_quadrant_svg_bytes_pinned(self):
        svg = svg_quadrants(quadrant_analysis([1.0, 2.5, 1.5, 4.0, 0.5, 3.0, 2.0, 2.0, 6.0]))
        assert _sha(svg) == "d4e6073f7519841c6e5ae14942c3e5f00dc1f82f7d2657b192615f280ae0f9ab"

    def test_quadrant_svg_labels_counts(self):
        stats = quadrant_analysis([1, 1, 5, 5, 1, 1, 5, 5])
        svg = svg_quadrants(stats)
        assert "LL=2" in svg and "SS=2" in svg

    def test_all_renderers_deterministic(self, am_wave):
        spec = aems(am_wave, cutoff_hz=20.0)
        track = synthesize_contour(realize_pitch(transduce_tones("H L H")))
        tree = induce_time_tree([("a", 1.0), ("b", 2.0)])
        stats = quadrant_analysis([1, 1, 5, 5, 1, 1, 5, 5])
        for render, arg in (
            (svg_spectrum, spec),
            (svg_heatmap, spec),
            (svg_f0_track, track),
            (svg_timetree, tree),
            (svg_quadrants, stats),
        ):
            assert render(arg) == render(arg)


class TestRowTemplates:
    """The batched rows rest on two equivalences with the per-element writers they replaced."""

    EDGES = [-0.0, 0.0, -0.0004, 0.0004, 0.0005, -0.0005, 0.0015, 2.5e-4, 1 / 3, -2.0005, 1e15, 1e16, -1e16,
             math.inf, -math.inf, math.nan]

    def test_template_formats_as_fmt(self):
        from prosotime.svgplot import _ROWS, _fmt, _rows

        values = np.array(self.EDGES * (_ROWS // len(self.EDGES) + 2))  # over two batches
        rows = list(_rows("%.3f;", len(values), lambda a, b: (values[a:b],)))
        assert len(rows) == 2
        assert "".join(rows) == "".join(f"{_fmt(v)};" for v in values.tolist())

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
           st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_array_frame_maps_as_the_scalar_frame(self, values, lo, hi):
        from prosotime.svgplot import _fmt, _Frame, _rows

        frame = _Frame(lo, hi, lo, hi, 50, 20, 570.0, 290.0)
        xs = np.array(values)
        rows = "".join(_rows("%.3f,%.3f ", len(xs), lambda a, b: (frame.x(xs[a:b]), frame.y(xs[a:b]))))
        assert rows == "".join(f"{_fmt(frame.x(v))},{_fmt(frame.y(v))} " for v in values)

    def test_heatmap_rounds_half_to_even_as_round(self):
        from prosotime import Spectrum
        from prosotime.aems import zscore
        from prosotime.svgplot import _fmt

        spec = Spectrum(0.5, np.arange(511.0), 5.0, {})
        z = zscore(spec.magnitudes).tolist()
        ts = [min(max((v - min(z)) / (max(z) - min(z)), 0.0), 1.0) for v in z]
        assert sum(255 * t % 1 == 0.5 for t in ts) > 100  # halfway values, where floor(x + 0.5) would differ
        cell_w = 570.0 / len(z)
        expect = [f'x="{_fmt(50.0 + k * cell_w)}" y="16.000" width="{_fmt(cell_w)}" height="68.000" '
                  f'fill="rgb({round(255 * t)},0,{round(255 * (1.0 - t))})"' for k, t in enumerate(ts)]
        assert re.findall(r'x="[^"]*" y="[^"]*" width="[^"]*" height="[^"]*" fill="rgb[^"]*"', svg_heatmap(spec)) == expect


def _block_spectrum(n):
    """A spectrum of n bins with exact integer magnitudes 0..1008, in no order."""
    from prosotime import Spectrum

    return Spectrum(0.05, np.array([float(k * 7919 % 1009) for k in range(n)]), n * 0.05, {})


def _block_stats(n):
    """Quadrant stats of n exact z-score pairs, in every quadrant and at the origin."""
    from prosotime.rhythm import QuadrantStats

    return QuadrantStats([((k * 37 % 41 - 20) / 8, (k * 53 % 43 - 21) / 8) for k in range(n)])


def _block_writers():
    """(name, chunks, public string) of each row writer a block size reaches, over a spectrum, stats or track."""
    from prosotime.aems import spectrum_csv_chunks, spectrum_to_csv
    from prosotime.pitch import f0_track_csv_chunks, f0_track_to_csv
    from prosotime.rhythm import quadrant_csv_chunks, quadrant_to_csv
    from prosotime.svgplot import svg_f0_track_chunks, svg_heatmap_chunks, svg_quadrants_chunks, svg_spectrum_chunks

    zones = (prosotime.FrequencyZone(4.0, 3.5, 4.5, 0.9), prosotime.FrequencyZone(10.0, 9.0, 11.25, 0.4))
    return {
        "spectrum": [("heatmap", svg_heatmap_chunks, svg_heatmap),
                     ("spectrum_svg", lambda spec: svg_spectrum_chunks(spec, zones=zones),
                      lambda spec: svg_spectrum(spec, zones=zones)),
                     ("spectrum_csv", spectrum_csv_chunks, spectrum_to_csv)],
        "stats": [("quadrant_csv", quadrant_csv_chunks, quadrant_to_csv),
                  ("quadrant_svg", svg_quadrants_chunks, svg_quadrants)],
        "track": [("f0_csv", f0_track_csv_chunks, f0_track_to_csv),
                  ("f0_svg", svg_f0_track_chunks, svg_f0_track)],
    }


def _magnitudes(n, seed, kind):
    rng = np.random.default_rng(seed)
    return {"random": rng.random(n) * 1e3, "integers": rng.integers(0, 4, n).astype(float),
            "constant": np.full(n, 2.5), "zero": np.zeros(n)}[kind]


class TestRowBlocks:
    """Every row writer formats at most svgplot._ROWS rows a chunk, and the block size never shows in the text."""

    # sha256 of each render, recorded before the writers formatted their rows in blocks of 1 024
    DIGESTS = {
        1023: {"heatmap": "7942e8f97ba7d9def3f11ea58c690fcd6ac26e5b55ec83afb177ec0764282f89",
               "spectrum_svg": "8e6da3bcf5a37bd4c9913058ec395389c1ee9135674f10149229dcadf095ed08",
               "spectrum_csv": "03993518865bfdf91338b74c409110e1ecc600f2c7d5dcd5cf84f8f4f0155292",
               "quadrant_csv": "ac6dc37e4fac23a695a3401887c4a8d22e2ee05591d30781bed96854a562ea21",
               "quadrant_svg": "ad7a6984d9cdb774bb8f9bcb0a1ba7227ce8de95bf47c39f5d983904d220e3d9"},
        1024: {"heatmap": "e9c4d8a9a7294d278024a734a25a1309604e96b4f0ae4d0aa3357f268b64eb9b",
               "spectrum_svg": "43c9a1504d24754c4fd9df7705e30f707c6c81b0345aafac26a15b48dddf52ee",
               "spectrum_csv": "be9c3259740f04b1b22ce1079b68df9924b52515e6bf43ab2e071f615064632c",
               "quadrant_csv": "9370266d7e80a53dd39c68260e421978289264a551469c301392edc618aafee5",
               "quadrant_svg": "f773afcf6c95b4dd055147aec65510fc440e49a4d7406b7c811cd0de6a8da744"},
        1025: {"heatmap": "016f0e7af041f754d56eb7e3bf237b8547c43bae5fb7a06e4837015c3424dc65",
               "spectrum_svg": "be29ce4c8f7151873534326762c77f15e8e272fd426188f7ab47be07ea122a7c",
               "spectrum_csv": "673c7afa6642a23edc0ad833d780277fba3ef03321792cf6497ca0de22b5c0c8",
               "quadrant_csv": "6e1d4327decd499557d1a7b94910b14e2f50ccd6e978a0b68375ed46283cbfcf",
               "quadrant_svg": "d1a8e33410563c9870f2682ac643e905394668ec018015432d71a177bdc07f52"},
        3000: {"quadrant_csv": "5bc226dc0b3707870120f1f47f271fe5862ed71870098bc604fc059bcea72d0f",
               "quadrant_svg": "bd125cfcd61dcadc1629b9871900a7ae63a570061b226f6267edbfb38e71dfc4"},
        6001: {"heatmap": "3426a80d1e1875b478cb726cd341371652ff2271ece90ea314596558348b2c1a",
               "spectrum_svg": "b6c33832508a65a7b86a67641e2f8567b9602dd823c631727b2dd7ce11caec3f",
               "spectrum_csv": "165ebdb3cba7b9249dc987b9ba395b173d6e08f460a4e3d6415f61fe54e0c18c"},
    }

    @pytest.mark.parametrize("n", sorted(DIGESTS))
    def test_bytes_pinned_at_the_block_edges(self, n):
        writers = _block_writers()
        digests = self.DIGESTS[n]
        for kind, build in (("spectrum", _block_spectrum), ("stats", _block_stats)):
            for name, chunks, whole in writers[kind]:
                if name in digests:
                    arg = build(n)
                    assert _sha(whole(arg)) == digests[name], name
                    assert _sha("".join(chunks(arg))) == digests[name], name

    def test_spectrum_renders_take_a_block_not_the_spectrum(self):
        # 6 001 bins, as aems --cutoff-hz 20 gives: each render, read a chunk at a time, holds one
        # block of 1 024 rows; a batch of 4 096 heatmap rows took 1.25 MB
        spec = _block_spectrum(6001)
        for name, chunks, _ in _block_writers()["spectrum"]:
            assert len(list(chunks(spec))) > 2  # once untraced, so that the traced read imports nothing
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in chunks(spec):
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - base < 0.6 * 2**20, name

    @given(spectrum=st.builds(_magnitudes, st.integers(2, 3000), st.integers(0, 2**32 - 1),
                              st.sampled_from(["random", "integers", "constant", "zero"])),
           resolution=st.sampled_from([0.05, 0.5, 1 / 3]),
           points=st.one_of(
               st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1, max_size=40),
               st.builds(lambda n, seed: np.random.default_rng(seed).integers(-3, 4, (n, 2)) / 2,
                         st.integers(1, 3000), st.integers(0, 2**32 - 1)).map(np.ndarray.tolist)),
           f0=st.lists(st.one_of(st.floats(60.0, 400.0), st.just(150.0), st.just(math.nan)), max_size=60))
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_block_size_never_shows_in_the_text(self, spectrum, resolution, points, f0):
        from unittest import mock

        from prosotime import F0Track, Spectrum, svgplot
        from prosotime.rhythm import QuadrantStats

        args = {"spectrum": Spectrum(resolution, spectrum, len(spectrum) * resolution, {}),
                "stats": QuadrantStats(points),
                "track": F0Track([k * 0.01 for k in range(len(f0))], f0, 0.01)}
        writers = [(name, chunks, args[kind]) for kind, group in _block_writers().items()
                   for name, chunks, _ in group]
        want = {name: "".join(chunks(arg)) for name, chunks, arg in writers}
        for size in (1, 2, 7, 1024):
            with mock.patch.object(svgplot, "_ROWS", size):
                for name, chunks, arg in writers:
                    assert "".join(chunks(arg)) == want[name], (name, size)


class TestCliCalibrate:
    def test_exit_zero_and_report(self, tmp_path, capsys):
        code = run(["calibrate", "--json", "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("calibrate"))
        assert rep["pass"] is True
        assert abs(rep["peak_hz"] - 5.0) <= 0.5
        assert (tmp_path / "calibrate.json").exists()


class TestCliAems:
    def test_report_schema_and_dominant(self, am_wav_path, tmp_path, capsys):
        code = run(["aems", str(am_wav_path), "--cutoff-hz", "20", "--json",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("aems"))
        assert rep["dominant_hz"] == pytest.approx(5.0, abs=0.5)

    def test_report_names_its_zone_picking_parameters(self, am_wav_path, tmp_path, capsys):
        argv = ["aems", str(am_wav_path), "--min-prominence", "0.25", "--min-separation-hz", "0.5"]
        assert run([*argv, "--json", "--out-dir", str(tmp_path)]) == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("aems"))
        assert (rep["params"]["min_prominence"], rep["params"]["min_separation_hz"]) == (0.25, 0.5)

    def test_artifacts_written_inside_out_dir(self, am_wav_path, tmp_path):
        out = tmp_path / "results"
        assert run(["aems", str(am_wav_path), "--out-dir", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["am.aems.json", "am.heatmap.svg", "am.spectrum.csv", "am.spectrum.svg"]
        for p in out.iterdir():
            assert out in p.resolve().parents

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert run(["aems", str(tmp_path / "nope.wav"), "--out-dir", str(tmp_path)]) == 1

    def test_unknown_format_exits_two(self, am_wav_path, tmp_path):
        assert run(["aems", str(am_wav_path), "--out-dir", str(tmp_path),
                    "--formats", "json,xlsx"]) == 2

    def test_format_selection_limits_artifacts(self, am_wav_path, tmp_path):
        out = tmp_path / "jsononly"
        assert run(["aems", str(am_wav_path), "--out-dir", str(out),
                    "--formats", "json"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["am.aems.json"]

    def test_one_bin_spectrum_fits_degree_zero(self, tmp_path, capsys):
        # 0.15 s at 16 kHz: 15 envelope samples, 6.7 Hz resolution, so the
        # default 5 Hz cutoff keeps only the DC bin
        wav = tmp_path / "short.wav"
        write_wav_pcm16(wav, synthesize_am(200.0, 5.0, 1.0, 0.15, 16000))
        code = run(["aems", str(wav), "--json", "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("aems"))
        assert rep["n_bins"] == 1
        assert rep["poly_degree"] == 0
        assert rep["zones"] == []

    def test_byte_deterministic_artifacts(self, am_wav_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["aems", str(am_wav_path), "--cutoff-hz", "20",
                        "--out-dir", str(out)]) == 0
        for pa in sorted(out_a.iterdir()):
            pb = out_b / pa.name
            assert pa.read_bytes() == pb.read_bytes()


class TestCliMetrics:
    def test_report_schema(self, words_csv_path, tmp_path, capsys):
        code = run(["metrics", str(words_csv_path), "--tier", "words", "--json",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("metrics"))
        assert rep["metrics"]["npvi"] == pytest.approx(60.0, abs=0.01)

    def test_constant_durations_still_succeed(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text(
            "tier,label,start_s,end_s\n"
            "w,a,0.0,0.5\nw,b,0.5,1.0\nw,c,1.0,1.5\n"
        )
        code = run(["metrics", str(path), "--json", "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("metrics"))
        assert rep["quadrants"] is None
        assert rep["metrics"]["variance"] == 0.0

    @pytest.mark.parametrize("marks, code", [(1, 0), (2, 1)])
    def test_one_byte_order_mark_is_dropped_and_a_second_is_text(self, words_csv_path, tmp_path, capsys,
                                                                  marks, code):
        path = tmp_path / "marked.csv"
        path.write_bytes(b"\xef\xbb\xbf" * marks + words_csv_path.read_bytes())
        assert run(["metrics", str(path), "--out-dir", str(tmp_path / "out")]) == code
        refusal = "bad CSV header ['\\ufefftier', 'label', 'start_s', 'end_s']"
        assert (refusal in capsys.readouterr().err) == (marks == 2)

    def test_missing_tier_exits_one(self, words_csv_path, tmp_path, capsys):
        code = run(["metrics", str(words_csv_path), "--tier", "nope",
                    "--out-dir", str(tmp_path)])
        assert code == 1
        assert "no tier named" in capsys.readouterr().err

    def test_textgrid_input_accepted(self, tmp_path, capsys):
        grid = tmp_path / "g.TextGrid"
        grid.write_text(
            'File type = "ooTextFile"\nObject class = "TextGrid"\n\n'
            "0\n1.2\n<exists>\n1\n"
            '"IntervalTier"\n"words"\n0\n1.2\n3\n'
            '0\n0.3\n"ba"\n0.3\n0.9\n"naa"\n0.9\n1.2\n"na"\n'
        )
        code = run(["metrics", str(grid), "--json", "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        assert rep["n"] == 3

    @pytest.mark.parametrize("encode", [
        lambda t: t.encode("utf-8"),
        lambda t: t.encode("utf-8-sig"),
        lambda t: t.encode("utf-16"),
        lambda t: "\ufeff".encode("utf-16-be") + t.encode("utf-16-be"),
    ], ids=["utf-8", "utf-8-bom", "utf-16", "utf-16-be"])
    def test_textgrid_recognised_by_content_in_any_encoding(self, encode, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_bytes(encode(
            'File type = "ooTextFile"\nObject class = "TextGrid"\n\n'
            "0\n1.2\n<exists>\n1\n"
            '"IntervalTier"\n"words"\n0\n1.2\n3\n'
            '0\n0.3\n"ba"\n0.3\n0.9\n"naa"\n0.9\n1.2\n"na"\n'
        ))
        code = run(["metrics", str(path), "--json", "--out-dir", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        assert report_from(capsys)["n"] == 3

    @pytest.mark.parametrize("subcommand", ["metrics", "timetree"])
    @pytest.mark.parametrize("lead", ["\n", "  \n  "], ids=["blank-line", "spaces"])
    def test_textgrid_after_leading_whitespace_read_as_by_its_extension(self, subcommand, lead, tmp_path,
                                                                      capsys):
        text = (lead + 'File type = "ooTextFile"\nObject class = "TextGrid"\n\n'
                "0\n1.2\n<exists>\n1\n"
                '"IntervalTier"\n"words"\n0\n1.2\n3\n'
                '0\n0.3\n"ba"\n0.3\n0.9\n"naa"\n0.9\n1.2\n"na"\n')
        reports = []
        for name in ("lead.txt", "lead.TextGrid"):
            (tmp_path / name).write_text(text)
            code = run([subcommand, str(tmp_path / name), "--json", "--out-dir", str(tmp_path / name[5:])])
            assert code == 0, capsys.readouterr().err
            reports.append({k: v for k, v in report_from(capsys).items() if k != "input"})
        assert reports[0] == reports[1]

    # one sniff rule: a first non-blank line naming the ooTextFile type makes a TextGrid under any
    # name, as the TextGrid reader's own header check; a .txt without it is read as CSV
    @pytest.mark.parametrize("name", ["g.txt", "g.TextGrid"])
    @pytest.mark.parametrize("head, code, refusal", [
        ('\ufeff\ufeffFile type = "ooTextFile"\nObject class = "TextGrid"\n', 0, None),
        ('File type = "chronology"\nObject class = "TextGrid"\n', 1,
         {"g.txt": "bad CSV header", "g.TextGrid": "not a TextGrid: first line"}),
    ], ids=["two-marks", "chronology"])
    def test_the_header_rule_decides_under_either_name(self, name, head, code, refusal, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(head + '\n0\n1.2\n<exists>\n1\n"IntervalTier"\n"words"\n0\n1.2\n3\n'
                               '0\n0.3\n"ba"\n0.3\n0.9\n"naa"\n0.9\n1.2\n"na"\n', encoding="utf-8")
        assert run(["metrics", str(path), "--json", "--out-dir", str(tmp_path / "out")]) == code
        if refusal is None:
            assert report_from(capsys)["n"] == 3
        else:
            assert f"error: {refusal[name]}" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["metrics", "timetree"])
class TestExcludedLabelsReported:
    """metrics and timetree name the pause labels whose intervals they skipped."""

    def test_default_set(self, subcommand, tmp_path, capsys):
        path = tmp_path / "paused.csv"
        path.write_text("tier,label,start_s,end_s\nw,a,0.0,0.2\nw,sil,0.2,0.5\nw,b,0.5,0.9\nw,<p>,0.9,1.0\n"
                        "w,c,1.0,1.1\n")
        assert run([subcommand, str(path), "--json", "--out-dir", str(tmp_path)]) == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema(subcommand))
        assert rep["exclude"] == ["", "#", "<p>", "sil"]
        assert rep["n"] == 3

    def test_given_labels_replace_the_default(self, subcommand, tmp_path, capsys):
        path = tmp_path / "paused.csv"
        path.write_text("tier,label,start_s,end_s\nw,a,0.0,0.2\nw,sil,0.2,0.5\nw,um,0.5,0.9\nw,b,0.9,1.0\n")
        argv = [subcommand, str(path), "--exclude", "um", "--exclude", "a", "--exclude", "um"]
        assert run([*argv, "--json", "--out-dir", str(tmp_path)]) == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema(subcommand))
        assert rep["exclude"] == ["a", "um"]
        assert rep["n"] == 2  # sil and b


class TestCliTimetree:
    def test_prints_reference_sexpr(self, words_csv_path, tmp_path, capsys):
        code = run(["timetree", str(words_csv_path), "--relation", "iambic",
                    "--polarity", "lower", "--json", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "(r (w (w miss) (s jones)) (s (w came) (s home)))"
        rep = json.loads(out[out.index("{\n"):])
        jsonschema.validate(rep, load_schema("timetree"))

    def test_spectree_from_wav(self, am_wav_path, tmp_path, capsys):
        code = run(["spectree", str(am_wav_path), "--cutoff-hz", "20", "--json",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("spectree"))
        assert rep["params"]["polarity"] == "higher"

    def test_spectree_lower_polarity_is_usage_error(self, am_wav_path, tmp_path, capsys):
        code = run(["spectree", str(am_wav_path), "--polarity", "lower",
                    "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "--polarity" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_spectree_decodes_no_whole_signal(self, tmp_path, monkeypatch):
        # spectree streams the data chunk through the peak picker: no read_wav, no n-sample array
        def refuse(path):
            raise AssertionError("spectree read the whole signal")

        monkeypatch.setattr(importlib.import_module("prosotime.audio"), "read_wav", refuse)
        path = tmp_path / "long.wav"
        write_wav_pcm16(path, synthesize_am(200.0, 5.0, 1.0, 60.0, 16000))
        argv = ["spectree", str(path), "--out-dir", str(tmp_path / "out")]
        assert run(argv) == 0  # once untraced, so that the traced run imports nothing
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 60 * 16000 * 8  # a quarter of the float64 signal

    def test_spectree_nodes_label_every_bin(self, am_wav_path, tmp_path, capsys):
        assert run(["spectree", str(am_wav_path), "--json", "--out-dir", str(tmp_path)]) == 0
        rep = report_from(capsys)
        nodes = rep["nodes"]
        assert nodes[0]["parent"] is None and nodes[0]["mark"] == "r"
        labels = [node["label"] for node in nodes if "label" in node]
        assert len(labels) == rep["n_bins"]
        assert labels == re.findall(r"\([sw] ([^()\s]+)\)", rep["sexpr"])
        assert all(node["parent"] < k for k, node in enumerate(nodes) if k)

    def test_deep_rising_chain(self, tmp_path, capsys):
        # rising durations closed by the shortest: a right-branching tree of depth n
        n = 1500
        durs = [0.001 * (k + 2) for k in range(n - 1)] + [0.001]
        rows, t = ["tier,label,start_s,end_s"], 0.0
        for k, d in enumerate(durs):
            rows.append(f"words,c{k},{t!r},{t + d!r}")
            t += d
        csv_path = tmp_path / "chain.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code = run(["timetree", str(csv_path), "--polarity", "lower", "--formats", "json,svg",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        sexpr = capsys.readouterr().out.strip()
        assert sexpr.endswith(f"(s c{n - 1})" + ")" * (n - 1))
        rep = json.loads((tmp_path / "chain.timetree.json").read_text())
        jsonschema.validate(rep, load_schema("timetree"))
        assert rep["sexpr"] == sexpr
        assert len(rep["nodes"]) == 2 * n - 1
        assert (tmp_path / "chain.timetree.svg").exists()

    def test_long_rising_chain_json(self, tmp_path):
        # n rising intervals closed by one shorter: n passes of one join each
        n = 20_000
        rows, t = ["tier,label,start_s,end_s"], 0.0
        for k in range(n + 1):
            end = round(t + (0.05 + 1e-4 * k if k < n else 0.01), 6)
            rows.append(f"syl,c{k},{t!r},{end!r}")
            t = end
        csv_path = tmp_path / "chain.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code = run(["timetree", str(csv_path), "--polarity", "lower", "--formats", "json",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        nodes = json.loads((tmp_path / "chain.timetree.json").read_text())["nodes"]
        assert len(nodes) == 2 * n + 1
        assert [node["label"] for node in nodes if "label" in node] == [f"c{k}" for k in range(n + 1)]


def _seeded_intervals(n, seed):
    rng = random.Random(seed)
    out, t = [], 0.0
    for k in range(n):
        end = round(t + rng.uniform(0.02, 0.4), 6)
        out.append((f"s{k}", t, end))
        t = end
    return out


# labels a JSON string must escape: non-ASCII (an astral one too), a quote, a
# backslash, control characters, line separators and lone surrogates
HOSTILE_LABELS = ("é", "音声", "\U0001f600", 'say "hi"', "back\\slash", "tab\tand\nnewline",
                  "\x01\x1f\x7f", "\u2028\u2029", "\udcff", "\ud800x", "plain", "\\\"\\")
TREE_FLAGS = [(rel, pol, ar) for rel in ("iambic", "trochaic") for pol in ("higher", "lower")
              for ar in ("binary", "nary")]


# the report items added after TestTreeReportBytesPinned's digests were recorded
ADDED_TREE_ITEMS = re.compile(rb'  "(exclude|prosotime_version)": (\[[^\]]*\]|"[^"]*"),\n')


def _tree_report_bytes(argv, out):
    """The JSON report bytes of one tree subcommand run, less ADDED_TREE_ITEMS; stdout goes to a
    string, which takes lone surrogates."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([*argv, "--formats", "json", "--out-dir", str(out)]) == 0
    data = next(out.glob("*.json")).read_bytes()
    added = {key: json.loads(value) for key, value in ADDED_TREE_ITEMS.findall(data)}
    assert added == {b"prosotime_version": prosotime.__version__,
                     **({b"exclude": ["", "#", "<p>", "sil"]} if argv[0] == "timetree" else {})}
    return ADDED_TREE_ITEMS.sub(b"", data)


class TestTreeReportBytesPinned:
    """sha256 of whole tree reports, recorded before the one-pass report writer."""

    REFERENCE = [("miss", 0.0, 0.3), ("jones", 0.3, 0.5), ("came", 0.5, 0.8), ("home", 0.8, 0.9)]
    DIGESTS = {
        "reference-iambic-higher-binary": "c53152e04031c3fc895cacd8fa68a72dd338b296071a58dddf56971f886acdc2",
        "reference-iambic-higher-nary": "df22f544c07e6eb44fee5f701136d2fee4c455f6f6b94964e04cbbe34cb1552c",
        "reference-iambic-lower-binary": "e0c0564e96831759dbfd80763e0c54b398eac623183c4282f338c76519455321",
        "reference-iambic-lower-nary": "936348bea649cf6b190dbc6cee946ed6b87ac1536cda7f60976e3aecf25a2732",
        "reference-trochaic-higher-binary": "4ea67ad41392723636991ac9db55948e3f3af75510bb84d2bed0d4467db2b9b8",
        "reference-trochaic-higher-nary": "3f942aaeb9eff37908a87255d796ce290ea10227d51cfc80956b85a39120ebca",
        "reference-trochaic-lower-binary": "2bdb6d2d38aa64750547c36da6f9431b5187edc1739f833018be376e32b3dfcc",
        "reference-trochaic-lower-nary": "f2323b9bad0aca88daf5ea37cd67bbb08c76135fa5fc68280db4fdbbaaf1ba44",
        "seeded200-iambic-higher-binary": "0faa82c3eeae3da8ac53824c244efcfeba38f6fc1411c740532d77d985ffc542",
        "seeded200-iambic-higher-nary": "40fc62bb40db858617616f801b42f5ca716ff2e506654df45f41864d5d1fd019",
        "seeded200-iambic-lower-binary": "d758dd9d8986b46ed09bead3d46fd57cedeae68b7d3af118816d0acd3f957e42",
        "seeded200-iambic-lower-nary": "9f6f2a1f8f9081ca159ab118b3c8aac3858c3f2964c811686eff98e9d3ebc0f7",
        "seeded200-trochaic-higher-binary": "4aaf94375d1c65ef2e01e690b637c02590f85f0bba2d6faff7ce8b16e75c7e23",
        "seeded200-trochaic-higher-nary": "494a388e2674330dce7227d1b87b9792e92727017d07e9d3cbc4bbf2b40f071b",
        "seeded200-trochaic-lower-binary": "8fc322853dcae95bd74cb338b6881fff72309557e86d62f389f1b463c364c107",
        "seeded200-trochaic-lower-nary": "041328ddfd7aab069ebeeb0d9d28c21a409fa5050ce07bc918b65e73203e94df",
        "leaf": "f62b4ec632ef2b479326e52453c478fb6f7eed7d25d2cae03fd73759d3a81e46",
        "hostile-binary": "9a34c9b48410f28c9990928a3015dfd0510778422d5a2f8af97593d35eb59223",
        "hostile-nary": "574b7e7412c8140d9532c20f1b7b06a8575daab6747a4199e8c3ebd735a38333",
        "spectree": "0b91cb8826b09bca93168860f9053f5bbdf9ecc9cb5548f17632694fe3996a31",
    }

    @pytest.mark.parametrize("tier", ["reference", "seeded200"])
    @pytest.mark.parametrize("flags", TREE_FLAGS, ids="-".join)
    def test_timetree_reports(self, tier, flags, tmp_path, monkeypatch):
        ivs = self.REFERENCE if tier == "reference" else _seeded_intervals(200, 20)
        monkeypatch.chdir(tmp_path)
        rows = "".join(f"w,{lab},{a!r},{b!r}\n" for lab, a, b in ivs)
        Path(f"{tier}.csv").write_text("tier,label,start_s,end_s\n" + rows)
        rel, pol, ar = flags
        argv = ["timetree", f"{tier}.csv", "--relation", rel, "--polarity", pol, "--arity", ar]
        data = _tree_report_bytes(argv, tmp_path / "out")
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[f"{tier}-{rel}-{pol}-{ar}"]

    def test_bare_leaf_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("leaf.csv").write_text("tier,label,start_s,end_s\nw,solo,0.0,0.25\n")
        data = _tree_report_bytes(["timetree", "leaf.csv"], tmp_path / "out")
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS["leaf"]

    @pytest.mark.parametrize("arity", ["binary", "nary"])
    def test_hostile_label_report(self, arity, tmp_path, monkeypatch):
        # no file can carry a lone surrogate, so the tier is handed over in memory
        from prosotime.annot import AnnotationDoc, Interval, Tier

        durs = [0.11, 0.3, 0.2, 0.25, 0.15, 0.4, 0.05, 0.33, 0.21, 0.12, 0.5, 0.07]
        ivs, t = [], 0.0
        for label, d in zip(HOSTILE_LABELS, durs):
            ivs.append(Interval(label, t, t + d))
            t += d
        doc = AnnotationDoc((Tier("w", ivs),), "hostile.csv")
        monkeypatch.setattr(importlib.import_module("prosotime.annot"), "load_annotation", lambda path: doc)
        monkeypatch.chdir(tmp_path)
        data = _tree_report_bytes(["timetree", "hostile.csv", "--arity", arity], tmp_path / "out")
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[f"hostile-{arity}"]

    def test_spectree_report(self, am_wav_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = _tree_report_bytes(["spectree", am_wav_path.name], tmp_path / "out")
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS["spectree"]


class TestCliToneGen:
    def test_report_schema(self, tmp_path, capsys):
        code = run(["tone-gen", "H L H L H", "--json", "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("tonegen"))
        assert rep["phonetic"] == ["hc", "!l", "^h", "!l", "^h"]
        assert rep["targets"][0]["hz"] == 170.0

    def test_bad_tone_exits_one(self, tmp_path):
        assert run(["tone-gen", "H M L", "--out-dir", str(tmp_path)]) == 1

    def test_custom_registers(self, tmp_path, capsys):
        code = run(["tone-gen", "H L", "--p-h0", "200", "--k-dst", "0.5",
                    "--json", "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        assert [t["hz"] for t in rep["targets"]] == [200.0, 100.0]

    def test_frames_over_the_cap_exit_one(self, tmp_path, capsys):
        # 1e11 frames: refused before any frame is built
        assert run(["tone-gen", "H", "--tone-dur-ms", "1e12", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--tone-dur-ms 1e+12 makes 1e+11 frames for each of 1 targets" in err
        assert "cap of 10000000" in err
        assert list(tmp_path.iterdir()) == []
        # the largest duration over many targets: a frame count beyond the float range
        assert run(["tone-gen", " ".join(["H"] * 2000), "--tone-dur-ms", "1.7e308",
                    "--out-dir", str(tmp_path)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_a_target_at_or_below_zero_hz_exits_one(self, tmp_path, capsys):
        # a floor below zero lets the low register start below zero: the contour refuses it, and no artifact stays
        assert run(["tone-gen", "L L H", "--floor-hz", "-100", "--p-l0", "-50", "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: voiced f0 must be finite and > 0, got -50.0\n"
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith("tones.")] == []


class TestCliIntonation:
    def test_check_accepts(self, tmp_path, capsys):
        code = run(["intonation", "check", "%H H* H- H%", "--json",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("intonation"))
        assert rep["accepted"] is True

    def test_check_rejects_but_exits_zero(self, tmp_path, capsys):
        code = run(["intonation", "check", "%H H%", "--json", "--out-dir", str(tmp_path)])
        assert code == 0
        assert report_from(capsys)["accepted"] is False

    def test_enum_count(self, tmp_path, capsys):
        code = run(["intonation", "enum", "--max-len", "4", "--json",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("intonation"))
        assert rep["count"] == 48

    def test_unknown_symbol_exits_one(self, tmp_path):
        assert run(["intonation", "check", "%H X* H- H%", "--out-dir", str(tmp_path)]) == 1

    def test_negative_max_len_is_usage_error(self, tmp_path, capsys):
        assert run(["intonation", "enum", "--max-len", "-1", "--out-dir", str(tmp_path)]) == 2
        assert "--max-len" in capsys.readouterr().err

    def test_check_without_string_is_usage_error(self, tmp_path, capsys):
        assert run(["intonation", "check", "--out-dir", str(tmp_path)]) == 2
        assert "symbol string" in capsys.readouterr().err

    def test_enum_with_string_is_usage_error(self, tmp_path, capsys):
        assert run(["intonation", "enum", "%H H* L- L%", "--out-dir", str(tmp_path)]) == 2
        assert "symbol string" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_enum_over_the_string_cap_exits_one_quickly(self, tmp_path, capsys):
        # about 5e8 strings up to length 12: counted, not enumerated
        start = time.perf_counter()
        assert run(["intonation", "enum", "--max-len", "12", "--out-dir", str(tmp_path)]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--max-len 12 gives more than 2000000 strings" in err
        assert list(tmp_path.iterdir()) == []


class TestCliF0AndContour:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, math.inf, -math.inf]),
                              st.floats(allow_nan=False)), min_size=1, max_size=12))
    def test_median_matches_np_median(self, values):  # of voiced frames, which hold no NaN
        xs = np.array(values, dtype=float)
        with np.errstate(all="ignore"):  # np.median overflows (1e308 + 1e308) and meets inf - inf
            want = float(np.median(xs))
        got = _median(xs)
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_negative_degree_is_usage_error(self, tones_f0_csv_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["contour-fit", str(tones_f0_csv_path), "--degree", "-1", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: --degree must be >= 0, got -1\n"
        assert not out.exists()

    def test_f0_report(self, tmp_path, capsys, sine_200):
        wav = tmp_path / "s.wav"
        write_wav_pcm16(wav, sine_200)
        code = run(["f0", str(wav), "--json", "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("f0"))
        assert rep["median_f0_hz"] == pytest.approx(200.0, abs=2.0)
        assert len(rep["ipus"]) == 1
        # the report names the IPU thresholds it applied
        ipu_params = {k: rep["params"][k] for k in ("silence_db", "min_pause_ms", "min_ipu_ms")}
        assert ipu_params == {"silence_db": -40.0, "min_pause_ms": 200.0, "min_ipu_ms": 100.0}

    def test_contour_fit_from_csv(self, tmp_path, capsys):
        from prosotime.pitch import f0_track_to_csv

        track = synthesize_contour(realize_pitch(transduce_tones("H L H L H")))
        csv_path = tmp_path / "t.f0.csv"
        csv_path.write_text(f0_track_to_csv(track))
        code = run(["contour-fit", str(csv_path), "--degree", "1", "--json",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("contour"))
        assert rep["model"]["coeffs"][1] < 0

    def test_contour_window_must_be_complete(self, tmp_path, capsys):
        track = synthesize_contour(realize_pitch(transduce_tones("H L")))
        from prosotime.pitch import f0_track_to_csv

        csv_path = tmp_path / "t.f0.csv"
        csv_path.write_text(f0_track_to_csv(track))
        code = run(["contour-fit", str(csv_path), "--degree", "1",
                    "--start-s", "0.0", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_contour_fit_on_binary_file_is_parse_error(self, am_wav_path, tmp_path, capsys):
        code = run(["contour-fit", str(am_wav_path), "--out-dir", str(tmp_path)])
        assert code == 1
        with pytest.raises(UnicodeDecodeError) as exc:
            am_wav_path.read_bytes().decode("utf-8")
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err and f"(byte {exc.value.start})" in err

    def test_contour_fit_accepts_a_byte_order_mark(self, tmp_path, capsys):
        from prosotime.pitch import f0_track_to_csv

        text = f0_track_to_csv(synthesize_contour(realize_pitch(transduce_tones("H L H"))))
        reports = []
        for name, data in (("plain", text.encode()), ("bom", text.encode("utf-8-sig")),
                           ("utf16", text.encode("utf-16")), ("utf16be", ("\ufeff" + text).encode("utf-16-be"))):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(data)
            code = run(["contour-fit", str(path), "--degree", "1", "--json",
                        "--out-dir", str(tmp_path / name)])
            assert code == 0, capsys.readouterr().err
            rep = report_from(capsys)
            reports.append({k: v for k, v in rep.items() if k != "input"})
        assert reports[0] == reports[1] == reports[2] == reports[3]

    def test_contour_fit_bad_byte_after_bom_names_its_file_offset(self, tmp_path, capsys):
        path = tmp_path / "t.f0.csv"
        data = b"\xef\xbb\xbftime_s,f0_hz\n0.0,1\xff\n"
        path.write_bytes(data)
        code = run(["contour-fit", str(path), "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        bad = data.index(b"\xff")
        assert "not valid UTF-8" in err and f"(byte {bad})" in err

    # a table that ends in one undecodable unit, right after header
    @pytest.mark.parametrize("argv, header", [
        (["metrics"], "tier,label,start_s,end_s\nw,a,0,1\nw,"),
        (["timetree"], "tier,label,start_s,end_s\nw,a,0,1\nw,"),
        (["contour-fit", "--degree", "0"], "time_s,f0_hz\n0.0,100\n0.01,"),
    ], ids=["metrics", "timetree", "contour-fit"])
    @pytest.mark.parametrize("encoding, bad", [
        ("utf-8", b"\xff"), ("utf-8-sig", b"\xc3("), ("utf-16", b"\x00\xdc"),
    ], ids=["utf-8", "utf-8-bom", "utf-16"])
    def test_undecodable_input_names_the_file_and_byte(self, argv, header, encoding, bad, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(header.encode(encoding) + bad)
        assert run([argv[0], str(path), *argv[1:], "--out-dir", str(tmp_path / "out")]) == 1
        name = "UTF-16" if encoding == "utf-16" else "UTF-8"
        err = capsys.readouterr().err
        assert err == f"error: {path}: not valid {name} text (byte {len(header.encode(encoding))})\n"

    # A text file is decoded 8192 bytes at a time: a bad byte at the end of the first chunk, at the
    # start of the second and far later must still be named by its offset in the file.  A UTF-8 lead
    # byte with no continuation; in UTF-16, a high surrogate with no low one, named by its unit's
    # first byte.
    @pytest.mark.parametrize("offset", [8191, 8192, 70_001])
    @pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
    @pytest.mark.parametrize("name", ["tier.csv", "tier.TextGrid", "tier.txt", "track.f0.csv"])
    def test_a_bad_byte_past_the_first_chunk_names_its_file_offset(self, name, encoding, offset, tmp_path,
                                                                   capsys):
        if name == "track.f0.csv":
            argv = ["contour-fit", "--degree", "1"]
            text = "time_s,f0_hz\n" + "".join(f"{k / 100!r},{100 + k % 7}\n" for k in range(8000))
        elif name == "tier.csv":
            argv = ["metrics"]
            text = "tier,label,start_s,end_s\n" + "".join(f"w,s{k},{k},{k + 1}\n" for k in range(5000))
        else:
            argv = ["metrics"]
            text = ('File type = "ooTextFile"\nObject class = "TextGrid"\n\nxmin = 0\nxmax = 2000\n'
                    'tiers? <exists>\nsize = 1\nitem []:\n    item [1]:\n        class = "IntervalTier"\n'
                    '        name = "w"\n        xmin = 0\n        xmax = 2000\n        intervals: size = 2000\n'
                    + "".join(f"        intervals [{k + 1}]:\n            xmin = {k}\n            xmax = {k + 1}\n"
                              f'            text = "s{k}"\n' for k in range(2000)))
        data = bytearray(text.encode(encoding))
        assert len(data) > 75_000
        if encoding == "utf-8":
            data[offset], bad = 0xE2, offset
        else:
            bad = offset - offset % 2
            data[bad + 1] = 0xD8  # the BOM is b"\xff\xfe": units are little-endian
        path = tmp_path / name
        path.write_bytes(data)
        assert run([argv[0], str(path), *argv[1:], "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: not valid {encoding.upper()} text (byte {bad})\n"

    # as when a file was decoded whole, a bad byte outranks a parse error met before it, and the
    # bytes after a TextGrid's last tier, which its reader leaves unread, must decode too
    @pytest.mark.parametrize("argv, text", [
        (["metrics"], "tier,label\n"),
        (["contour-fit"], "time_s\n"),
        (["metrics"], 'File type = "ooTextFile"\nObject class = "TextGrid"\n0\n1.2\n<exists>\n1\n"IntervalTier"\n'
                      '"words"\n0\n1.2\n3\n0\n0.3\n"ba"\n0.3\n0.9\n"naa"\n0.9\n1.2\n"na"\n'),
    ], ids=["csv-header", "f0-header", "textgrid"])
    def test_a_bad_byte_after_what_the_parser_reads_is_the_error(self, argv, text, tmp_path, capsys):
        path = tmp_path / "late.txt"
        data = text.encode() + b"\n" * 70_000 + b"\xff\n"
        path.write_bytes(data)
        assert run([argv[0], str(path), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {path}: not valid UTF-8 text (byte {len(data) - 2})\n"


class TestCliPlumbing:
    def test_unknown_subcommand_exits_two(self, tmp_path):
        assert run(["frobnicate", "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["aems", "{wav}", "--cutoff-hz", "nan"],
        ["spectree", "{wav}", "--cutoff-hz", "nan"],
        ["aems", "{wav}", "--window-ms", "inf"],
        ["tone-gen", "H L H", "--tone-dur-ms", "inf"],
        ["f0", "{wav}", "--hop-ms", "0"],
        ["aems", "{wav}", "--smooth-ms", "-5"],
        ["contour-fit", "{wav}", "--start-s", "nan", "--end-s", "1"],
    ])
    def test_bad_float_flags_are_usage_errors(self, argv, am_wav_path, tmp_path, capsys):
        argv = [a.format(wav=am_wav_path) for a in argv]
        out = tmp_path / "out"
        assert run(argv + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error: argument --" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["f0", "{wav}", "--voicing-ratio", "5"],
        ["f0", "{wav}", "--voicing-ratio", "-1"],
        ["aems", "{wav}", "--env-rate", "100000"],
    ])
    def test_out_of_range_parameters_exit_one(self, argv, am_wav_path, tmp_path, capsys):
        argv = [a.format(wav=am_wav_path) for a in argv]
        assert run(argv + ["--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and ("voicing_ratio" in err or "env_rate" in err)

    @pytest.mark.parametrize("argv, name", [
        (["aems", "{wav}", "--smooth-ms", "1e308"], "smooth_ms"),
        (["aems", "{wav}", "--window-ms", "1e308"], "window_ms"),
        (["f0", "{wav}", "--frame-ms", "1e308"], "frame_ms"),
        (["f0", "{wav}", "--hop-ms", "1e308"], "hop_ms"),
        (["f0", "{wav}", "--frame-ms", "1e300"], "frame_ms"),
        (["f0", "{wav}", "--hop-ms", "1e300"], "hop_ms"),
    ])
    def test_window_beyond_any_array_exits_one(self, argv, name, am_wav_path, tmp_path, capsys):
        argv = [a.format(wav=am_wav_path) for a in argv]
        assert run(argv + ["--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"error: {name}=" in err

    @pytest.mark.parametrize("argv, message", [
        (["aems", "--smooth-ms", "1e308"], "error: smooth_ms=1e+308 ms at rate 100.0 exceeds the largest array"),
        (["aems", "--smooth-ms", "1"], "error: smoothing window shorter than one envelope sample"),
        (["aems", "--cutoff-hz", "60"], "error: cutoff 60.0 Hz exceeds the envelope Nyquist 50.0 Hz"),
        (["spectree", "--cutoff-hz", "60"], "error: cutoff 60.0 Hz exceeds the envelope Nyquist 50.0 Hz"),
        # several bad: the smoothing window, then the cutoff, then the peak picker's window_ms
        (["aems", "--cutoff-hz", "60", "--smooth-ms", "1e308", "--window-ms", "1e308"], "error: smooth_ms="),
        (["aems", "--cutoff-hz", "60", "--window-ms", "1e308"], "error: cutoff 60.0 Hz"),
    ])
    def test_aems_parameters_checked_before_any_block_is_read(self, argv, message, am_wav_path, tmp_path,
                                                              monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("read the data chunk before checking the parameters")

        monkeypatch.setattr(importlib.import_module("prosotime.aems"), "_block_peaks", refuse)
        assert run([argv[0], str(am_wav_path), *argv[1:], "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith(message)

    def test_frame_longer_than_the_signal_gives_an_empty_track(self, am_wav_path, tmp_path, capsys):
        # 5.7e17 ms is 9.1e18 samples at 16 kHz: an int64, but no array of that width fits
        assert run(["f0", str(am_wav_path), "--frame-ms", "5.7e17", "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("frames=0 voiced=0 ")

    def test_subnormal_fmin_runs_like_a_tiny_one(self, am_wav_path, tmp_path, capsys):
        outs = []
        for fmin in ("5e-324", "1e-300"):
            assert run(["f0", str(am_wav_path), "--fmin", fmin, "--out-dir", str(tmp_path)]) == 0
            out, err = capsys.readouterr()
            assert "Traceback" not in err
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("cmd", ["aems", "f0"])
    def test_nan_sample_in_float_wav_exits_one(self, cmd, tmp_path, capsys):
        samples = (0.8 * np.sin(2 * np.pi * 150.0 * np.arange(16000) / 16000)).astype("<f4")
        samples[8000] = np.nan
        payload = samples.tobytes()
        path = tmp_path / "nan.wav"
        path.write_bytes(struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
            3, 1, 16000, 64000, 4, 32, b"data", len(payload)) + payload)
        assert run([cmd, str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "must be finite" in err

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_one_frame_f0_csv_with_non_finite_time_exits_one(self, time, tmp_path, capsys):
        path = tmp_path / "one.f0.csv"
        path.write_text(f"time_s,f0_hz\n{time},100\n")
        code = run(["contour-fit", str(path), "--degree", "0", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "finite" in err and "row 2" in err

    @pytest.mark.parametrize("name, text, where", [
        ("g.TextGrid",
         'File type = "ooTextFile"\nObject class = "TextGrid"\n\nxmin = 0\nxmax = 1\n'
         'tiers? <exists>\nsize = 1\nitem []:\n    item [1]:\n        class = "IntervalTier"\n'
         '        name = "w"\n        xmin = 0\n        xmax = 1\n        intervals: size = 1e400\n',
         "line 14"),
        ("bare_cr.csv", "tier,label,start_s,end_s\nw,a\rb,0,1\n", "line 2"),
        ("huge_field.csv", "tier,label,start_s,end_s\nw," + "x" * 200_000 + ",0,1\n", "line 2"),
    ], ids=["textgrid-count-1e400", "csv-bare-cr", "csv-field-limit"])
    def test_malformed_annotation_exits_one(self, name, text, where, tmp_path, capsys):
        path = tmp_path / name
        path.write_bytes(text.encode())
        assert run(["timetree", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and where in err

    @pytest.mark.parametrize("argv, name, text, what", [
        (["metrics"], "big.csv",
         "tier,label,start_s,end_s\nw,a,0,1e200\nw,b,1e200,1.0000001e200\nw,c,1.0000001e200,2e200\n",
         "squared deviations"),
        (["contour-fit", "--degree", "3"], "tiny.f0.csv",
         "time_s,f0_hz\n" + "".join(f"{k * 1e-300!r},{100.0 + k}\n" for k in range(10)),
         "overflow the float range"),
        (["contour-fit", "--degree", "1"], "big.f0.csv",
         "time_s,f0_hz\n" + "".join(f"{k / 100!r},{1e300 if k % 2 else 1e-300!r}\n" for k in range(10)),
         "residuals overflow the float range"),
    ], ids=["metrics-variance-overflow", "contour-fit-coefficient-overflow", "contour-fit-residual-overflow"])
    def test_non_finite_results_exit_one(self, argv, name, text, what, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "out"
        assert run([argv[0], str(path), *argv[1:], "--json", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and what in err
        assert not list(out.glob("*"))

    def test_non_finite_report_value_is_an_analysis_error(self):
        from prosotime import AnalysisError

        for report in ({"variance": float("inf")}, {"z": [1.0, float("nan")]},
                       {"rows": lambda: iter([{"a": 1.0}, {"a": -math.inf}])}):
            with pytest.raises(AnalysisError, match="non-finite"):
                "".join(_report_chunks(report))

    def test_lazy_rows_sit_between_their_neighbours(self):
        from prosotime import AnalysisError

        rows = [{"a": 1.5, "b": None}, {"a": -0.0, "b": "\u00e9\ud800"}]
        for report in ({}, {"a": 1}, {"z": [2]}, {"a": {"x": 1}, "n": True, "z": "s"}):
            assert "".join(_report_chunks({**report, "m": lambda: iter(rows)})) == _encoded({**report, "m": rows})
        # every other value is still checked
        for report in ({"a": float("nan")}, {"z": [float("inf")]}):
            with pytest.raises(AnalysisError, match="non-finite"):
                "".join(_report_chunks({**report, "m": lambda: iter(rows)}))

    def test_env_var_sets_out_dir(self, am_wav_path, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("PROSOTIME_OUT_DIR", str(target))
        assert run(["aems", str(am_wav_path)]) == 0
        assert (target / "am.aems.json").exists()

    def test_weird_input_names_sanitized(self, tmp_path, am_wave):
        wav = tmp_path / "my file (v2).wav"
        write_wav_pcm16(wav, am_wave)
        out = tmp_path / "out"
        assert run(["aems", str(wav), "--out-dir", str(out)]) == 0
        assert (out / "my_file__v2_.aems.json").exists()

    def test_json_reports_are_stable(self, words_csv_path, tmp_path, capsys):
        run(["metrics", str(words_csv_path), "--json", "--out-dir", str(tmp_path / "1")])
        first = capsys.readouterr().out
        run(["metrics", str(words_csv_path), "--json", "--out-dir", str(tmp_path / "2")])
        second = capsys.readouterr().out
        assert first == second


# every SVG renderer and CSV writer, in both its str and its chunk form
RENDERERS = {
    "prosotime.svgplot": [f"svg_{plot}{form}" for plot in ("spectrum", "heatmap", "f0_track", "timetree", "quadrants")
                          for form in ("", "_chunks")],
    "prosotime.pitch": ["f0_track_to_csv", "f0_track_csv_chunks"],
    "prosotime.aems": ["spectrum_to_csv", "spectrum_csv_chunks"],
    "prosotime.rhythm": ["quadrant_to_csv", "quadrant_csv_chunks"],
}


class TestLazyStreamedArtifacts:
    @pytest.mark.parametrize("argv, fixture, written", [
        (["f0"], "am_wav_path", "am.f0.json"),
        (["tone-gen", "H L H L"], None, "tones.json"),
        (["timetree"], "words_csv_path", "words.timetree.json"),
        (["spectree"], "am_wav_path", "am.spectree.json"),
        (["aems"], "am_wav_path", "am.aems.json"),
        (["metrics"], "words_csv_path", "words.metrics.json"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_json_only_renders_no_svg_or_csv(self, argv, fixture, written, request, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("rendered an artifact that --formats json drops")

        for module, names in RENDERERS.items():
            for name in names:  # by module object: prosotime.aems is also a function
                monkeypatch.setattr(importlib.import_module(module), name, refuse)
        if fixture is not None:
            argv = [argv[0], str(request.getfixturevalue(fixture)), *argv[1:]]
        out = tmp_path / "out"
        assert run([*argv, "--formats", "json", "--out-dir", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == [written]

    @pytest.mark.parametrize("formats", ["json", "csv", "svg", "csv,svg"])
    def test_non_finite_report_exits_one_whatever_the_formats(self, formats, words_csv_path, tmp_path,
                                                              monkeypatch, capsys):
        from prosotime import rhythm

        real = rhythm.metrics_report
        monkeypatch.setattr(rhythm, "metrics_report", lambda seq: {**real(seq), "pim": math.inf})
        out = tmp_path / "out"
        assert run(["metrics", str(words_csv_path), "--formats", formats, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "non-finite" in err
        assert not list(out.glob("*"))

    def test_chunks_join_to_the_public_string(self, am_wave):
        from prosotime import F0Track
        from prosotime.aems import shape_zones, spectrum_csv_chunks, spectrum_to_csv
        from prosotime.pitch import f0_track_csv_chunks, f0_track_to_csv
        from prosotime.rhythm import quadrant_csv_chunks, quadrant_to_csv
        from prosotime.svgplot import (svg_f0_track_chunks, svg_heatmap_chunks, svg_quadrants_chunks,
                                       svg_spectrum_chunks, svg_timetree_chunks)

        spec = aems(am_wave, cutoff_hz=20.0)
        fit, zones = shape_zones(spec)
        track = synthesize_contour(realize_pitch(transduce_tones("H L H L H")))
        no_frames = F0Track([], [], 0.01)
        tree = induce_time_tree([("a", 1.0), ("b", 2.0), ("c", 0.5)])
        stats = quadrant_analysis([1.0, 2.5, 1.5, 4.0, 0.5, 3.0])
        cases = [
            (svg_spectrum, svg_spectrum_chunks, (spec, fit, zones)),
            (svg_heatmap, svg_heatmap_chunks, (spec,)),
            (svg_f0_track, svg_f0_track_chunks, (track, [fit_contour(track, 2)])),
            (svg_f0_track, svg_f0_track_chunks, (no_frames,)),
            (svg_timetree, svg_timetree_chunks, (tree,)),
            (svg_quadrants, svg_quadrants_chunks, (stats,)),
            (f0_track_to_csv, f0_track_csv_chunks, (track,)),
            (f0_track_to_csv, f0_track_csv_chunks, (no_frames,)),
            (spectrum_to_csv, spectrum_csv_chunks, (spec,)),
            (quadrant_to_csv, quadrant_csv_chunks, (stats,)),
        ]
        for whole, chunks, args in cases:
            parts = list(chunks(*args))
            assert all(isinstance(part, str) for part in parts)
            assert "".join(parts) == whole(*args)
        # no chunk holds more than 1 024 lines, so a long track (3 000 frames here) is never held as one string
        long_track = synthesize_contour(realize_pitch(transduce_tones("H L " * 100)))
        parts = list(f0_track_csv_chunks(long_track))
        assert "".join(parts) == f0_track_to_csv(long_track)
        assert max(part.count("\n") for part in parts) <= 1024 and len(parts) > 1 + len(long_track) // 1024
        # the spectrum CSV, quadrant CSV and quadrant SVG come in blocks too: 3 000 rows in 3 chunks
        # (the CSVs' header in a fourth), none of more than 1 024 rows, none a chunk per row
        rows = {"spectrum_csv": "\n", "quadrant_csv": "\n", "quadrant_svg": "<circle"}
        for kind, arg in (("spectrum", _block_spectrum(3000)), ("stats", _block_stats(3000))):
            for name, chunks, whole in _block_writers()[kind]:
                if name in rows:
                    parts = list(chunks(arg))
                    assert "".join(parts) == whole(arg)
                    counts = [part.count(rows[name]) for part in parts]
                    assert max(counts) <= 1024 and 2 < sum(c > 0 for c in counts) <= 4, name
        assert f0_track_to_csv(no_frames) == "time_s,f0_hz\n"

    @pytest.mark.parametrize("n_tones", [1_000, 10_000])
    def test_f0_svg_write_is_bounded(self, n_tones, tmp_path, monkeypatch):
        # from its first chunk on, the SVG (8.5 MB at 10 000 tones) takes the voiced-frame arrays
        # (2.4 MB there), a batch of rows and a batch of writes; never the whole document
        from prosotime import svgplot

        render, base = svgplot.svg_f0_track_chunks, []

        def traced(*args):
            base.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            yield from render(*args)

        monkeypatch.setattr(svgplot, "svg_f0_track_chunks", traced)
        argv = ["tone-gen", " ".join("HL" * (n_tones // 2)), "--formats", "svg", "--out-dir", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0  # once untraced, so that the traced run imports nothing
            tracemalloc.start()
            try:
                assert run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (tmp_path / "tones.f0.svg").read_text().count("<circle") == 15 * n_tones
        assert peak - base[-1] < 6 * 2**20

    def test_render_failing_after_its_first_batch_leaves_no_file(self, tmp_path):
        from prosotime import DegenerateInputError
        from prosotime.cli import _WRITE_CHARS, _write

        target = tmp_path / "plot.svg"

        def render():
            yield from ["<x/>" * 25] * (_WRITE_CHARS // 100 + 1)  # 100 characters a chunk
            assert target.stat().st_size > 0  # the first batch reached the file
            raise DegenerateInputError("cannot draw")

        with pytest.raises(DegenerateInputError, match="cannot draw"):
            _write(tmp_path, "plot.svg", render)
        assert not target.exists()

    def test_render_failing_partway_exits_like_its_error(self, tmp_path, monkeypatch, capsys):
        from prosotime import DegenerateInputError

        def render(track, models=()):
            yield from ["<circle/>"] * 10_000
            raise DegenerateInputError("cannot draw")

        monkeypatch.setattr("prosotime.svgplot.svg_f0_track_chunks", render)
        out = tmp_path / "out"
        assert run(["tone-gen", "H L H", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error: cannot draw" in err
        assert [p.name for p in out.iterdir()] == []  # the CSV written before the failure is removed too

    def test_rerun_replaces_every_artifact_with_a_new_file(self, am_wav_path, tmp_path, monkeypatch, capsys):
        from prosotime import DegenerateInputError

        out, keep = tmp_path / "out", tmp_path / "keep"
        argv = ["f0", str(am_wav_path), "--out-dir", str(out)]
        assert run(argv) == 0
        keep.mkdir()
        for artifact in out.iterdir():
            os.link(artifact, keep / artifact.name)
        before = {p.name: p.read_bytes() for p in keep.iterdir()}
        assert sorted(before) == ["am.f0.csv", "am.f0.json", "am.f0.svg"]
        assert run(argv) == 0
        for name, data in before.items():
            assert not (out / name).samefile(keep / name)  # replaced, not rewritten in place
            assert (out / name).read_bytes() == data == (keep / name).read_bytes()

        def render(track, models=()):
            yield "<svg>"
            raise DegenerateInputError("cannot draw")

        monkeypatch.setattr("prosotime.svgplot.svg_f0_track_chunks", render)
        assert run(argv) == 1
        assert "error: cannot draw" in capsys.readouterr().err
        assert not (out / "am.f0.svg").exists()  # a failed render still leaves no file
        assert {p.name: p.read_bytes() for p in keep.iterdir()} == before

    @pytest.mark.parametrize("argv, fixture, renderer", [
        (["f0"], "am_wav_path", "svg_f0_track_chunks"),
        (["contour-fit"], "tones_f0_csv_path", "svg_f0_track_chunks"),
        (["timetree"], "words_csv_path", "svg_timetree_chunks"),
        (["spectree"], "am_wav_path", "svg_timetree_chunks"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_failed_render_leaves_no_report(self, argv, fixture, renderer, request, tmp_path, monkeypatch,
                                            capsys):
        from prosotime import DegenerateInputError

        def render(*args, **kwargs):
            yield "<svg>"
            raise DegenerateInputError("cannot draw")

        monkeypatch.setattr(f"prosotime.svgplot.{renderer}", render)
        out = tmp_path / "out"
        assert run([argv[0], str(request.getfixturevalue(fixture)), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error: cannot draw" in err
        assert not list(out.glob("*.json"))

    @pytest.mark.parametrize("argv, fixture, written, summary_lines", [
        (["calibrate"], None, "calibrate.json", 1),
        (["aems"], "am_wav_path", "am.aems.json", 1),
        (["metrics"], "words_csv_path", "words.metrics.json", 1),
        (["timetree"], "words_csv_path", "words.timetree.json", 1),
        (["spectree"], "am_wav_path", "am.spectree.json", 1),
        (["tone-gen", "H L H L"], None, "tones.json", 2),
        (["intonation", "check", "%H H* H- H%"], None, "intonation.json", 1),
        (["intonation", "enum"], None, "intonation.json", 1),
        (["f0"], "am_wav_path", "am.f0.json", 1),
        (["contour-fit"], "tones_f0_csv_path", "tones.f0.contour.json", 1),
    ], ids=lambda v: "-".join(v[:2]) if isinstance(v, list) else None)
    def test_json_flag_echoes_the_written_report(self, argv, fixture, written, summary_lines, request, tmp_path,
                                                 capsys):
        if fixture is not None:
            argv = [argv[0], str(request.getfixturevalue(fixture)), *argv[1:]]
        out = tmp_path / "out"
        assert run([*argv, "--json", "--out-dir", str(out)]) == 0
        echoed = capsys.readouterr().out.split("\n", summary_lines)[-1]
        assert echoed == (out / written).read_text(encoding="utf-8")
        assert json.loads(echoed)["prosotime_version"] == prosotime.__version__


class TestStaleArtifacts:
    """An artifact this input does not produce removes a file of that name left by an earlier run."""

    @pytest.fixture
    def two_words_csv(self, tmp_path):
        """A words.csv of 2 intervals, too few for quadrants, in its own directory so its stem is `words`."""
        path = tmp_path / "two" / "words.csv"
        path.parent.mkdir()
        path.write_text("tier,label,start_s,end_s\nwords,a,0.0,0.3\nwords,b,0.3,0.5\n")
        return path

    def test_metrics_without_quadrants_removes_old_ones(self, words_csv_path, two_words_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["metrics", str(words_csv_path), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.quadrants.*")) == ["words.quadrants.csv", "words.quadrants.svg"]
        assert run(["metrics", str(two_words_csv), "--out-dir", str(out)]) == 0
        assert json.loads((out / "words.metrics.json").read_text())["quadrants"] is None
        assert [p.name for p in out.iterdir()] == ["words.metrics.json"]

    def test_empty_tone_string_removes_old_track(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["tone-gen", "H L", "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["tones.f0.csv", "tones.f0.svg", "tones.json"]
        assert run(["tone-gen", "", "--out-dir", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["tones.json"]

    def test_unlisted_formats_are_left_alone(self, words_csv_path, two_words_csv, tmp_path, capsys):
        out, keep = tmp_path / "out", tmp_path / "keep"
        assert run(["tone-gen", "H L", "--out-dir", str(out)]) == 0
        assert run(["metrics", str(words_csv_path), "--out-dir", str(out)]) == 0
        keep.mkdir()
        for artifact in out.iterdir():
            if artifact.suffix != ".json":
                os.link(artifact, keep / artifact.name)
        assert len(list(keep.iterdir())) == 4
        assert run(["tone-gen", "", "--formats", "json", "--out-dir", str(out)]) == 0
        assert run(["metrics", str(two_words_csv), "--formats", "json", "--out-dir", str(out)]) == 0
        for kept in keep.iterdir():
            assert (out / kept.name).samefile(kept)  # the very same file, not rewritten

    def test_removing_creates_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["tone-gen", "", "--formats", "csv,svg", "--out-dir", str(out)]) == 0
        assert not out.exists()


def _synthesis_refused(argv, monkeypatch):
    """calibrate reads no input: make its synthesis fail."""
    from prosotime import DegenerateInputError

    def refuse(*args, **kwargs):
        raise DegenerateInputError("no signal")

    monkeypatch.setattr("prosotime.audio.synthesize_am", refuse)
    return argv


def _input_truncated(argv, monkeypatch):
    Path(argv[1]).write_bytes(b"RIFF")
    return argv


def _last_arg(value):
    return lambda argv, monkeypatch: [*argv[:-1], value]


class TestFailedRunRemovesItsNames:
    """A run that exits 1 removes every file of its names in the listed formats; exit 2 touches nothing."""

    # (argv, input fixture, the flags that make the same input fail with exit 1, or a change that does)
    CASES = [
        (["calibrate"], None, _synthesis_refused),
        (["aems"], "am_wav_path", ["--window-ms", "1e6"]),
        (["spectree"], "am_wav_path", _input_truncated),
        (["f0"], "am_wav_path", ["--frame-ms", "1e-9"]),
        (["metrics"], "words_csv_path", ["--tier", "nosuch"]),
        (["timetree"], "words_csv_path", ["--tier", "nosuch"]),
        (["contour-fit"], "tones_f0_csv_path", ["--degree", "5000"]),
        (["tone-gen", "H L H"], None, _last_arg("H M L")),
        (["intonation", "check", "%H H* H- H%"], None, _last_arg("%H X* H- H%")),
    ]

    @staticmethod
    def _runs(argv, fixture, fail, request, monkeypatch, out, *flags):
        """Run argv, which succeeds, then its failing form, into out; the second run's flags come last."""
        if fixture is not None:
            argv = [argv[0], str(request.getfixturevalue(fixture)), *argv[1:]]
        assert run([*argv, "--out-dir", str(out)]) == 0
        assert list(out.iterdir())
        bad = fail(argv, monkeypatch) if callable(fail) else [*argv, *fail]
        return run([*bad, "--out-dir", str(out), *flags])

    @pytest.mark.parametrize("argv, fixture, fail", CASES, ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_failure_after_success_leaves_none_of_its_names(self, argv, fixture, fail, request, tmp_path,
                                                            monkeypatch, capsys):
        out = tmp_path / "out"
        assert self._runs(argv, fixture, fail, request, monkeypatch, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_unlisted_formats_of_a_failed_run_are_left_alone(self, request, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        argv, fixture, fail = self.CASES[3]
        kept = {"am.f0.csv", "am.f0.svg"}
        assert self._runs(argv, fixture, fail, request, monkeypatch, out, "--formats", "json") == 1
        assert {p.name for p in out.iterdir()} == kept

    def test_usage_error_leaves_the_output_directory_as_it_was(self, tones_f0_csv_path, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["contour-fit", str(tones_f0_csv_path), "--out-dir", str(out)]
        assert run(argv) == 0
        before = {p.name: (p.stat().st_ino, p.read_bytes()) for p in out.iterdir()}
        assert sorted(before) == ["tones.f0.contour.json", "tones.f0.contour.svg"]
        assert run([*argv, "--start-s", "0.1"]) == 2  # found by the handler, after the input is read
        assert run([*argv, "--degree", "-1"]) == 2  # found by the handler, before the input is read
        assert run([*argv, "--degree", "x"]) == 2  # found by argparse
        assert run([*argv, "--formats", "json,xlsx"]) == 2
        assert {p.name: (p.stat().st_ino, p.read_bytes()) for p in out.iterdir()} == before


def _report_items(value):
    """Every (key, value) of every dict in a report, at any depth."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key, item
            yield from _report_items(item)
    elif isinstance(value, list):
        for item in value:
            yield from _report_items(item)


class TestEveryFlagInItsReport:
    """Each flag a subcommand applies appears in its report, with the value the run used."""

    IO_DESTS = {"json", "out_dir", "formats", "stem", "func", "outputs", "subcommand"}
    # dest -> (report key, the report's form of the parsed value), for the flags the report names otherwise
    RENAMED = {"wav": ("input", str), "annot": ("input", str), "f0csv": ("input", str), "string": ("input", str),
               "tones": ("lexical", str.split), "exclude": ("exclude", sorted)}
    # check recognizes one string, so no length bound applies; enum takes no string (given one, it exits 2)
    UNUSED = {("intonation", "check"): {"max_len"}, ("intonation", "enum"): {"string"}}
    RUNS = [
        ["calibrate"],
        ["aems", "{am_wav_path}", "--cutoff-hz", "20", "--window-ms", "25", "--env-rate", "80",
         "--smooth-ms", "60", "--min-prominence", "0.2", "--min-separation-hz", "0.5"],
        ["metrics", "{words_csv_path}", "--tier", "words", "--exclude", "sil", "--exclude", "#"],
        ["timetree", "{words_csv_path}", "--tier", "words", "--exclude", "x", "--relation", "trochaic",
         "--arity", "nary", "--polarity", "lower"],
        ["spectree", "{am_wav_path}", "--cutoff-hz", "20", "--relation", "trochaic", "--arity", "nary"],
        ["tone-gen", "H L H", "--p-h0", "180", "--p-l0", "100", "--k-usw", "1.05", "--k-dd", "0.95",
         "--k-dst", "0.6", "--k-ter", "0.8", "--floor-hz", "50", "--ceiling-hz", "300", "--tone-dur-ms", "120"],
        ["intonation", "check", "%H H* H- H%"],
        ["intonation", "enum", "--max-len", "5"],
        ["f0", "{am_wav_path}", "--fmin", "70", "--fmax", "450", "--frame-ms", "35", "--hop-ms", "12",
         "--voicing-ratio", "0.4"],
        ["contour-fit", "{tones_f0_csv_path}", "--degree", "2", "--start-s", "0.1", "--end-s", "0.5"],
    ]

    def test_every_subcommand_is_run(self):
        from prosotime.cli import build_parser

        sub = next(a for a in build_parser()._actions if a.dest == "subcommand")
        assert {argv[0] for argv in self.RUNS} == set(sub.choices)

    @pytest.mark.parametrize("argv", RUNS, ids=lambda argv: "-".join(argv[:2]).strip("{}"))
    def test_flags_appear_with_their_values(self, argv, request, tmp_path, capsys):
        from prosotime.cli import build_parser

        argv = [re.sub(r"\{(\w+)\}", lambda m: str(request.getfixturevalue(m[1])), a) for a in argv]
        args = build_parser().parse_args(argv)
        assert run([*argv, "--json", "--out-dir", str(tmp_path)]) == 0
        items = list(_report_items(report_from(capsys)))
        skip = self.IO_DESTS | self.UNUSED.get(tuple(argv[:2]), set())
        for dest, value in vars(args).items():
            if dest in skip:
                continue
            key, form = self.RENAMED.get(dest, (dest, lambda v: v))
            assert (key, form(value)) in items, f"{dest}={value!r} is not in the {argv[0]} report"


def _encoded(report):
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.sampled_from([2**63, -(2**64), 10**300, -(10**4000)]),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 1e16, 1e-7, 5e-324, 1.5e300]),
    st.text(st.characters(blacklist_categories=())),  # lone surrogates too
    st.sampled_from(["é", "音声", "\U0001f600", '"', "\\", "\x00\x1f\x7f", "\t\n\r", " ", "\ud800",
                     "􏰀", "%s", "%%", "", "null"]),
)
_KEYS = st.one_of(st.text(st.characters(blacklist_categories=()), max_size=4), st.sampled_from(["%s", "a%", "%(x)s"]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(_KEYS, inner, max_size=5),
                            # rows that share their keys, as the reports' tables do
                            st.lists(st.fixed_dictionaries({"a": inner, "b%s": _JSON_SCALARS}), max_size=6),
                            # rows of two shapes, as a tree's nodes and leaves are
                            st.lists(st.one_of(st.fixed_dictionaries({"a": inner, "b%s": _JSON_SCALARS}),
                                               st.fixed_dictionaries({"b%s": inner})), max_size=6)),
    max_leaves=40,
)


def _column_blocks(rows, size):
    """rows (dicts) as column blocks of size rows: each row's sorted keys, and each key's values in row order."""
    blocks = []
    for a in range(0, len(rows), size):
        columns = {}
        for row in rows[a:a + size]:
            for key, value in row.items():
                columns.setdefault(key, []).append(value)
        blocks.append(([tuple(sorted(row)) for row in rows[a:a + size]], columns))
    return blocks


def _as_blocks(value, size):
    """value with every list of dicts in it, at any depth, given as _Blocks of size rows."""
    if isinstance(value, dict):
        return {key: _as_blocks(item, size) for key, item in value.items()}
    if not isinstance(value, list):
        return value
    items = [_as_blocks(item, size) for item in value]
    return _Blocks(iter, _column_blocks(items, size)) if all(type(item) is dict for item in items) else items


class TestReportWriter:
    """cli._report_chunks, the one report serializer, against json.dumps(sort_keys=True, indent=2, allow_nan=False)."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(report=st.dictionaries(_KEYS, _JSON_VALUES, max_size=6), rows=st.integers(1, 4))
    def test_matches_json_dumps(self, report, rows):
        from prosotime import cli

        want = _encoded(report)
        assert "".join(_report_chunks(report)) == want
        # each list as a lazy row source, read a few items at a time
        lazy = {k: (lambda v=v: iter(v)) if isinstance(v, list) else v for k, v in report.items()}
        saved, cli._ROWS = cli._ROWS, rows
        try:
            assert "".join(_report_chunks(lazy)) == want
        finally:
            cli._ROWS = saved
        # each list of dicts, at any depth, as column blocks of a few rows, and of every row in one block
        for size in (rows, 10):
            blocked = _as_blocks(report, size)
            assert "".join(_report_chunks(blocked)) == want
            assert "".join(_report_chunks(blocked)) == want  # a second render calls the blocks again

    def test_scalars_and_subclasses_as_json_writes_them(self):
        class Label(str):
            pass

        report = {"f": np.float64(0.1), "i": True, "n": None, "s": Label("x"), "t": (1, 2.5), "z": -0.0,
                  "rows": [{}, {"a": []}, {"a": {}}, {"a": [1, {"b": None}]}, [], 7]}
        assert "".join(_report_chunks(report)) == _encoded(report)
        with pytest.raises(TypeError, match="not JSON serializable"):
            "".join(_report_chunks({"a": np.int64(1)}))

    def test_values_read_after_a_row_source_see_its_walk(self):
        seen = []

        def rows():
            for k in range(5):
                seen.append(k)
                yield {"k": k}

        report = {"a_rows": rows, "b_count": lambda: len(seen), "c": lambda: [1, 2]}
        text = "".join(_report_chunks(report))
        assert text == _encoded({"a_rows": [{"k": k} for k in range(5)], "b_count": 5, "c": [1, 2]})

    def test_non_finite_row_leaves_the_chunks_before_it(self):
        from prosotime import AnalysisError

        rows = [{"v": 1.0}] * 5000 + [{"v": math.nan}]
        # the rows as items, and as column blocks whose last holds the NaN in its float column
        for given in (lambda: iter(rows), _Blocks(iter, _column_blocks(rows, 256))):
            out = []
            with pytest.raises(AnalysisError, match=r"non-finite number .*: nan\)"):
                for chunk in _report_chunks({"a": 1, "rows": given}):
                    out.append(chunk)
            text = "".join(out)
            assert text.startswith('{\n  "a": 1,\n  "rows": [\n    {\n      "v": 1.0\n    },')  # rows went out first
            assert text.count('"v": 1.0') == 4864  # all but the block of the NaN, whose rows are written together


class TestStreamedReportMemory:
    """The report writer holds a batch of rows, never a whole row-heavy report."""

    def test_timetree_report_never_holds_the_nodes_text(self, tmp_path, monkeypatch):
        from prosotime import cli

        path = tmp_path / "tier.csv"
        rows = "".join(f"w,x{k},{k / 10:.2f},{k / 10 + 0.02 + (k % 7) / 100:.2f}\n" for k in range(10_000))
        path.write_text("tier,label,start_s,end_s\n" + rows)
        out = tmp_path / "out"
        render, base = cli._report_chunks, []

        def traced(report):
            base.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            yield from render(report)

        monkeypatch.setattr(cli, "_report_chunks", traced)
        argv = ["timetree", str(path), "--formats", "json", "--out-dir", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0  # once untraced, so that the traced run imports nothing
            tracemalloc.start()
            try:
                assert run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        report = json.loads((out / "tier.timetree.json").read_text())
        assert sum("label" in row for row in report["nodes"]) == 10_000
        nodes_text = len(json.dumps(report["nodes"], indent=2).replace("\n", "\n  "))  # about 2 MB
        # a batch of rows, and the s-expression (a fifteenth of the nodes text) in a few copies while it is written
        assert peak - base[-1] < nodes_text / 2

    def test_enum_max_len_9_stays_small(self, tmp_path):
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            tracemalloc.start()
            try:
                assert run(["intonation", "enum", "--max-len", "9", "--out-dir", str(out)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert stdout.getvalue() == "count=1176528\n"
        assert (out / "intonation.json").stat().st_size > 40 * 2**20  # 1 176 528 strings, written
        assert peak < 8 * 2**20  # the strings and the text took about 200 MB when built whole
