"""Interval-annotation parsing: long/short TextGrid forms, CSV, durations."""

import pytest

from prosotime import (
    AnnotationWarning,
    DurationSequence,
    Interval,
    ParameterError,
    ParseError,
    Tier,
    annotation_to_csv,
    durations,
    parse_csv_annotation,
    parse_f0_csv,
    parse_textgrid,
)
from prosotime.annot import load_annotation

LONG_FORM = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 1.0
tiers? <exists>
size = 1
item []:
    item [1]:
        class = "IntervalTier"
        name = "words"
        xmin = 0
        xmax = 1.0
        intervals: size = 3
        intervals [1]:
            xmin = 0
            xmax = 0.40
            text = "hello"
        intervals [2]:
            xmin = 0.40
            xmax = 0.55
            text = ""
        intervals [3]:
            xmin = 0.55
            xmax = 1.0
            text = "world"
"""

SHORT_FORM = """File type = "ooTextFile"
Object class = "TextGrid"

0
1.0
<exists>
1
"IntervalTier"
"words"
0
1.0
3
0
0.40
"hello"
0.40
0.55
""
0.55
1.0
"world"
"""


class TestTextGridForms:
    def test_long_form_parses(self):
        doc = parse_textgrid(LONG_FORM)
        tier = doc.tier("words")
        assert [iv.label for iv in tier.intervals] == ["hello", "", "world"]
        assert tier.intervals[0].end_s == pytest.approx(0.40)

    def test_short_form_parses(self):
        doc = parse_textgrid(SHORT_FORM)
        assert [iv.label for iv in doc.tier("words").intervals] == ["hello", "", "world"]

    def test_long_and_short_forms_agree(self):
        a = parse_textgrid(LONG_FORM)
        b = parse_textgrid(SHORT_FORM)
        assert a.tier_names == b.tier_names
        assert a.tier("words").intervals == b.tier("words").intervals

    def test_utf8_bom_accepted(self):
        doc = parse_textgrid(LONG_FORM.encode("utf-8-sig"))
        assert doc.tier_names == ("words",)

    def test_utf16_accepted(self):
        doc = parse_textgrid(LONG_FORM.encode("utf-16"))
        assert doc.tier_names == ("words",)

    def test_quote_escapes_in_labels(self):
        text = LONG_FORM.replace('text = "hello"', 'text = "say ""hi"""')
        doc = parse_textgrid(text)
        assert doc.tier("words").intervals[0].label == 'say "hi"'

    def test_empty_tier_allowed(self):
        text = SHORT_FORM.split('"IntervalTier"')[0] + '"IntervalTier"\n"empty"\n0\n1.0\n0\n'
        doc = parse_textgrid(text)
        assert doc.tier("empty").intervals == ()


class TestTextGridErrors:
    def test_wrong_file_type(self):
        with pytest.raises(ParseError):
            parse_textgrid('File type = "chronology"\n')

    def test_point_tier_warns_and_is_skipped(self, tmp_path):
        text = LONG_FORM.replace('"IntervalTier"', '"TextTier"').replace(
            "intervals: size = 3", "points: size = 1"
        )
        # a point tier has (time, mark) pairs; rebuild a minimal one
        text = """File type = "ooTextFile"
Object class = "TextGrid"

0
1.0
<exists>
1
"TextTier"
"pitch marks"
0
1.0
2
0.25
"H*"
0.75
"L-"
"""
        with pytest.warns(AnnotationWarning) as caught:
            doc = parse_textgrid(text)
        assert doc.tier_names == ()
        (tmp_path / "marks.TextGrid").write_text(text)
        with pytest.warns(AnnotationWarning) as caught_too:
            assert load_annotation(str(tmp_path / "marks.TextGrid")).tier_names == ()
        assert caught[0].filename == caught_too[0].filename == __file__  # the warning names its caller's line

    def test_unknown_tier_class_rejected(self):
        text = SHORT_FORM.replace('"IntervalTier"', '"SpectrogramTier"')
        with pytest.raises(ParseError, match="unknown tier class") as exc:
            parse_textgrid(text)
        assert exc.value.line == 8

    def test_overlap_rejected_with_line_number(self):
        text = LONG_FORM.replace("xmax = 0.40", "xmax = 0.50", 1)
        with pytest.raises(ParseError) as exc:
            parse_textgrid(text)
        assert "line" in str(exc.value)
        assert exc.value.line == 11  # the tier's name

    def test_empty_interval_reported_at_its_xmax(self):
        with pytest.raises(ParseError, match="end_s > start_s") as exc:
            parse_textgrid(LONG_FORM.replace("xmax = 0.40", "xmax = 0.0", 1))
        assert exc.value.line == 17

    def test_document_without_values_reported_at_line_1(self):
        with pytest.raises(ParseError, match="unexpected end of document while reading global xmin") as exc:
            parse_textgrid('File type = "ooTextFile"\nObject class = "TextGrid"\n\n\n')
        assert exc.value.line == 1

    def test_duplicate_tier_names_rejected(self):
        doubled = SHORT_FORM.replace("\n1\n", "\n2\n", 1) + (
            '"IntervalTier"\n"words"\n0\n1.0\n0\n'
        )
        with pytest.raises(ParseError, match="duplicate tier name") as exc:
            parse_textgrid(doubled)
        assert exc.value.line == 23  # the second tier's name

    def test_truncated_file(self):
        with pytest.raises(ParseError) as exc:
            parse_textgrid(SHORT_FORM[: len(SHORT_FORM) // 2])
        assert exc.value.line == 8  # the cut falls inside "IntervalTier"

    @pytest.mark.parametrize("form, last_line", [(LONG_FORM, 25), (SHORT_FORM, 20)], ids=["long", "short"])
    def test_end_of_document_reported_at_the_last_value(self, form, last_line):
        # drop the last label; the blank lines after the cut carry no value
        cut = "\n".join(form.split("\n")[:-2]) + "\n\n\n"
        with pytest.raises(ParseError, match="unexpected end of document while reading interval 3 text") as exc:
            parse_textgrid(cut)
        assert exc.value.line == last_line


# characters that str.splitlines() treats as line ends but a TextGrid does not
NOT_LINE_ENDS = ("\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


class TestTextGridLineEnds:
    @pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=[f"U+{ord(c):04X}" for c in NOT_LINE_ENDS])
    @pytest.mark.parametrize("form, world_line", [(LONG_FORM, 26), (SHORT_FORM, 21)], ids=["long", "short"])
    def test_only_cr_and_lf_end_a_line(self, form, world_line, char):
        text = form.replace('"hello"', f'"hel{char}lo"')
        assert parse_textgrid(text).tier("words").intervals[0].label == f"hel{char}lo"
        # a line after the label keeps its number
        with pytest.raises(ParseError, match="unterminated quoted string") as exc:
            parse_textgrid(text.replace('"world"', '"world'))
        assert exc.value.line == world_line

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
    @pytest.mark.parametrize("form, world_line", [(LONG_FORM, 26), (SHORT_FORM, 21)], ids=["long", "short"])
    def test_cr_and_crlf_end_lines(self, form, world_line, end):
        assert parse_textgrid(form.replace("\n", end)) == parse_textgrid(form)
        with pytest.raises(ParseError, match="unterminated quoted string") as exc:
            parse_textgrid(form.replace('"world"', '"world').replace("\n", end))
        assert exc.value.line == world_line


class TestIntervalAndTier:
    def test_interval_validation(self):
        with pytest.raises(ParameterError):
            Interval("x", 1.0, 0.5)

    def test_tier_requires_sorted_intervals(self):
        with pytest.raises(ParameterError):
            Tier("t", (Interval("b", 0.5, 1.0), Interval("a", 0.0, 0.5)))

    def test_tier_rejects_overlap_beyond_tolerance(self):
        with pytest.raises(ParameterError):
            Tier("t", (Interval("a", 0.0, 0.55), Interval("b", 0.5, 1.0)))

    def test_tier_allows_millisecond_slop(self):
        tier = Tier("t", (Interval("a", 0.0, 0.5005), Interval("b", 0.5, 1.0)))
        assert len(tier.intervals) == 2


class TestCsvAnnotation:
    def test_parse_and_round_trip(self, words_csv_path):
        doc = parse_csv_annotation(words_csv_path.read_text())
        assert doc.tier_names == ("words",)
        again = parse_csv_annotation(annotation_to_csv(doc))
        assert again.tier("words").intervals == doc.tier("words").intervals

    @pytest.mark.parametrize("parse, text", [
        (parse_csv_annotation, "tier,label,start_s,end_s\nw,a,0,1\n"),
        (parse_f0_csv, "time_s,f0_hz\n0.0,100\n0.01,110\n"),
    ], ids=["annotation", "f0"])
    def test_a_str_loses_one_leading_byte_order_mark(self, parse, text):
        parse("\ufeff" + text)
        with pytest.raises(ParseError, match="bad CSV header"):
            parse("\ufeff\ufeff" + text)

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_csv_annotation("a,b,c,d\nwords,x,0,1\n")

    def test_bad_float_reports_row(self):
        text = "tier,label,start_s,end_s\nwords,x,zero,1\n"
        with pytest.raises(ParseError) as exc:
            parse_csv_annotation(text)
        assert "row" in str(exc.value)

    def test_rows_sorted_per_tier(self):
        text = (
            "tier,label,start_s,end_s\n"
            "w,b,0.5,1.0\n"
            "w,a,0.0,0.5\n"
        )
        doc = parse_csv_annotation(text)
        assert [iv.label for iv in doc.tier("w").intervals] == ["a", "b"]

    def test_overlap_names_both_rows(self):
        text = (
            "tier,label,start_s,end_s\n"
            "w,a,0.0,0.6\n"
            "w,b,0.5,1.0\n"
        )
        with pytest.raises(ParseError):
            parse_csv_annotation(text)

    def test_quoted_labels_with_commas(self):
        text = 'tier,label,start_s,end_s\nw,"a, b",0.0,0.5\n'
        doc = parse_csv_annotation(text)
        assert doc.tier("w").intervals[0].label == "a, b"
        again = parse_csv_annotation(annotation_to_csv(doc))
        assert again.tier("w").intervals[0].label == "a, b"

    def test_multiple_tiers_keep_first_appearance_order(self):
        text = (
            "tier,label,start_s,end_s\n"
            "phones,x,0.0,0.1\n"
            "words,y,0.0,0.5\n"
            "phones,z,0.1,0.2\n"
        )
        doc = parse_csv_annotation(text)
        assert doc.tier_names == ("phones", "words")

    # the csv module reads a NUL as text from Python 3.11 on, and refuses it before
    @pytest.mark.parametrize("text, line", [
        ("tier,label,start_s,end_s\nw,a\x00,0,1\n", 2),
        ("tier,la\x00bel,start_s,end_s\nw,a,0,1\n", 1),
        ('tier,label,start_s,end_s\nw,"a\nb\x00",0,1\n', 3),
    ], ids=["row", "header", "quoted-second-line"])
    def test_nul_is_malformed_at_its_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_csv_annotation(text)
        assert str(exc.value) == f"malformed CSV: line contains NUL (line {line})"

    def test_earlier_row_error_precedes_a_nul(self):
        for row2 in ("w,a,0", "w,a,x,1"):
            with pytest.raises(ParseError, match=r"\(row 2\)$"):
                parse_csv_annotation(f"tier,label,start_s,end_s\n{row2}\nw,b\x00,1,2\n")

    def test_bare_cr_is_named(self):
        with pytest.raises(ParseError) as exc:
            parse_csv_annotation("tier,label,start_s,end_s\nw,a\rb,0,1\n")
        assert str(exc.value) == (
            "malformed CSV: a bare CR (carriage return) inside a row; rows end at LF or CRLF (line 2)"
        )
        # inside quotes a CR is label text
        doc = parse_csv_annotation('tier,label,start_s,end_s\nw,"a\rb",0,1\n')
        assert doc.tier("w").intervals[0].label == "a\rb"


class TestDurations:
    def test_silence_labels_excluded_by_default(self):
        tier = Tier(
            "w",
            (
                Interval("a", 0.0, 0.3),
                Interval("sil", 0.3, 0.4),
                Interval("", 0.4, 0.5),
                Interval("#", 0.5, 0.6),
                Interval("<p>", 0.6, 0.7),
                Interval("b", 0.7, 1.0),
            ),
        )
        seq = durations(tier)
        assert seq.labels == ("a", "b")
        assert seq.values == pytest.approx((0.3, 0.3))

    def test_custom_exclusion(self):
        tier = Tier("w", (Interval("um", 0.0, 0.2), Interval("b", 0.2, 0.5)))
        seq = durations(tier, exclude_labels={"um"})
        assert seq.labels == ("b",)

    def test_duration_sequence_validates_positive(self):
        with pytest.raises(ParameterError):
            DurationSequence((("a", -0.1),))
