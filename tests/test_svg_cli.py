"""SVG renderers and the batch command-line interface."""

import hashlib
import importlib
import json
import math
import os
import re
import struct
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

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
from prosotime.cli import run
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
    def test_f0_report(self, tmp_path, capsys, sine_200):
        wav = tmp_path / "s.wav"
        write_wav_pcm16(wav, sine_200)
        code = run(["f0", str(wav), "--json", "--out-dir", str(tmp_path)])
        assert code == 0
        rep = report_from(capsys)
        jsonschema.validate(rep, load_schema("f0"))
        assert rep["median_f0_hz"] == pytest.approx(200.0, abs=2.0)
        assert len(rep["ipus"]) == 1

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
        (["aems", "{wav}", "--smooth-ms", "1e308"], "window_ms"),
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
        from prosotime.cli import _dumps

        with pytest.raises(AnalysisError, match="non-finite"):
            _dumps({"variance": float("inf")})

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
        # one chunk per line: the track is never held as one string
        assert len(list(f0_track_csv_chunks(track))) == len(track) + 1
        assert f0_track_to_csv(no_frames) == "time_s,f0_hz\n"

    def test_render_failing_after_its_first_batch_leaves_no_file(self, tmp_path):
        from prosotime import DegenerateInputError
        from prosotime.cli import _BATCH, _write

        target = tmp_path / "plot.svg"

        def render():
            yield from ["<x/>" * 25] * _BATCH
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
        assert [p.name for p in out.iterdir()] == ["tones.f0.csv"]

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
