"""Parser fuzzing: random and mutated bytes end in a value or an AnalysisError.

Derandomized and bounded, so that every run feeds the same cases and the
suite stays a few seconds long.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosotime import (
    AnalysisError,
    AnnotationWarning,
    ParseError,
    parse_csv_annotation,
    parse_f0_csv,
    parse_textgrid,
)

TEXTGRID_LONG = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 1.0
tiers? <exists>
size = 2
item []:
    item [1]:
        class = "IntervalTier"
        name = "words"
        xmin = 0
        xmax = 1.0
        intervals: size = 2
        intervals [1]:
            xmin = 0
            xmax = 0.4
            text = "say ""hi"" now"
        intervals [2]:
            xmin = 0.4
            xmax = 1.0
            text = "sil"
    item [2]:
        class = "TextTier"
        name = "tones"
        xmin = 0
        xmax = 1.0
        points: size = 1
        points [1]:
            number = 0.2
            mark = "H*"
"""

TEXTGRID_SHORT = """File type = "ooTextFile"
Object class = "TextGrid"

0
1.0
<exists>
1
"IntervalTier"
"words"
0
1.0
2
0
0.4
"a"
0.4
1.0
"b"
"""

CSV_DOC = 'tier,label,start_s,end_s\nwords,a,0.0,0.3\nwords,"b, c",0.3,0.5\nphones,x,0.0,0.1\n'
F0_DOC = "time_s,f0_hz\n0.0,\n0.01,120.5\n0.02,121.0\n0.03,\n"

BOMS = (b"", b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff")
# fragments that have broken a parser before, or sit on a format's edge
TOKENS = (b"\r", b"\n", b'"', b",", b"\x00", b"\xff", b"1e400", b"-1e400", b"nan", b"inf",
          b"-0", b"<exists>", b"size = ", b"[]:", b"9" * 30, b"\xef\xbb\xbf", b"\xed\xa0\x80")


@st.composite
def mutated(draw, seeds):
    """A seed document after up to four splices of random bytes or tokens, behind a BOM."""
    doc = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(doc)))
        j = draw(st.integers(i, min(len(doc), i + 12)))
        doc[i:j] = draw(st.binary(max_size=6) | st.sampled_from(TOKENS))
    return draw(st.sampled_from(BOMS)) + bytes(doc)


def _seeds(*texts):
    return [t.encode() for t in texts] + [t.encode("utf-16") for t in texts]


TEXTGRIDS = mutated(_seeds(TEXTGRID_LONG, TEXTGRID_SHORT))
CSVS = mutated(_seeds(CSV_DOC))
F0_CSVS = mutated([F0_DOC.encode()])
RANDOM = st.sampled_from(BOMS).flatmap(lambda bom: st.binary(max_size=64).map(lambda b: bom + b))


def _value_or_analysis_error(parse, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # dropped intervals warn; that is a value
        try:
            parse(data)
        except AnalysisError:
            pass


FUZZ = settings(max_examples=250, derandomize=True, deadline=None)


class TestParserFuzz:
    @FUZZ
    @given(data=st.one_of(TEXTGRIDS, RANDOM))
    def test_textgrid(self, data):
        _value_or_analysis_error(parse_textgrid, data)

    @FUZZ
    @given(data=st.one_of(CSVS, RANDOM))
    def test_csv_annotation(self, data):
        _value_or_analysis_error(parse_csv_annotation, data)

    @FUZZ
    @given(data=st.one_of(F0_CSVS, RANDOM))
    def test_f0_csv(self, data):
        # parse_f0_csv takes text; latin-1 maps every byte string onto some text
        _value_or_analysis_error(parse_f0_csv, data.decode("latin-1"))

    def test_seeds_are_valid_documents(self):
        with pytest.warns(AnnotationWarning, match="point tier"):
            assert len(parse_textgrid(TEXTGRID_LONG.encode("utf-16")).tiers) == 1
        assert len(parse_textgrid(TEXTGRID_SHORT).tiers) == 1
        assert len(parse_csv_annotation(b"\xef\xbb\xbf" + CSV_DOC.encode()).tiers) == 2
        assert parse_f0_csv(F0_DOC).voiced_count == 2

    @pytest.mark.parametrize("parse", [parse_textgrid, parse_csv_annotation])
    @pytest.mark.parametrize("data", [b"\xff\xfeA", b"\xef\xbb\xbftier\xff", b"\xfe\xff\xd8\x00"])
    def test_undecodable_text_after_a_bom_is_a_parse_error(self, parse, data):
        with pytest.raises(ParseError, match="not valid UTF"):
            parse(data)
