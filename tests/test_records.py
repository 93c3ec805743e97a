"""The frozen records of every module: repr, equality, immutability, pickling and construction.

The pinned reprs and messages are those the records had as frozen dataclasses.
"""

import copy
import pickle
import re
from array import array
from dataclasses import FrozenInstanceError
from typing import NamedTuple

import numpy as np
import pytest

from prosotime.aems import Envelope, FrequencyZone, PolyFit, Spectrum
from prosotime.annot import AnnotationDoc, DurationSequence, Interval, Tier
from prosotime.audio import WavSource, Waveform
from prosotime.fsm import MultiTapeFSM, PitchTargetSequence, TerracingParams, Transition
from prosotime.pitch import IPU, F0Track, PolyContourModel
from prosotime.rhythm import QuadrantStats
from prosotime.timetree import TimeTree, TreeParams


class Case(NamedTuple):
    cls: type
    args: tuple  # every argument, by position
    names: str  # the parameter names, in order
    text: str  # repr(cls(*args))
    other: tuple | None = None  # arguments of an unequal record; None for a record compared by identity
    required: int | None = None  # how many leading arguments suffice, when the rest have defaults
    short_text: str = ""  # repr(cls(*args[:required]))


IVS = (Interval("a", 0.0, 0.5), Interval("b", 0.5, 1.0))
TIER_TEXT = ("Tier(name='words', intervals=(Interval(label='a', start_s=0.0, end_s=0.5), "
             "Interval(label='b', start_s=0.5, end_s=1.0)))")
FIT = PolyFit(1, (1.0, 2.0), (0.0, 1.0), 0.125, (1.5, 1.0))
FIT_TEXT = "PolyFit(degree=1, coeffs=(1.0, 2.0), domain=(0.0, 1.0), rmse=0.125)"
ARC = Transition("q", "q", ("a",))
TERRACING = (170.0, 110.0, 1.02, 0.98, 0.7, 0.9, 60.0, 400.0)

CASES = [
    Case(Interval, ("a", 0.5, 1.25), "label start_s end_s", "Interval(label='a', start_s=0.5, end_s=1.25)",
         other=("a", 0.5, 1.5)),
    Case(Tier, ("words", IVS), "name intervals", TIER_TEXT, other=("words", IVS[:1])),
    Case(AnnotationDoc, ((Tier("words", IVS),), "x.csv"), "tiers source",
         f"AnnotationDoc(tiers=({TIER_TEXT},), source='x.csv')", other=((), "x.csv"),
         required=1, short_text=f"AnnotationDoc(tiers=({TIER_TEXT},), source='<unknown>')"),
    Case(DurationSequence, ([("a", 0.5), ("b", 0.25)],), "items",
         "DurationSequence(_labels=['a', 'b'], _values=array('d', [0.5, 0.25]))", other=([("a", 0.5)],)),
    Case(Waveform, (np.array([0.0, 0.5, -0.5]), 8000), "samples rate",
         "Waveform(samples=array([ 0. ,  0.5, -0.5]), rate=8000)"),
    Case(WavSource, (8000, 3, list), "rate n blocks", "WavSource(rate=8000, n=3, blocks=<class 'list'>)"),
    Case(Envelope, (np.array([0.0, 1.0]), 100.0), "values rate", "Envelope(values=array([0., 1.]), rate=100.0)"),
    Case(Spectrum, (0.5, np.array([1.0, 2.0]), 20.0, {"a": 1}), "resolution_hz magnitudes cutoff_hz params",
         "Spectrum(resolution_hz=0.5, magnitudes=array([1., 2.]), cutoff_hz=20.0, params={'a': 1})",
         required=3, short_text="Spectrum(resolution_hz=0.5, magnitudes=array([1., 2.]), cutoff_hz=20.0, params={})"),
    Case(FrequencyZone, (5.0, 4.0, 6.0, 0.5), "center_hz lo_hz hi_hz prominence",
         "FrequencyZone(center_hz=5.0, lo_hz=4.0, hi_hz=6.0, prominence=0.5)", other=(5.0, 4.0, 6.0, 0.25)),
    Case(PolyFit, (1, (1.0, 2.0), (0.0, 1.0), 0.125, (1.5, 1.0)), "degree coeffs domain rmse scaled_coeffs",
         FIT_TEXT, other=(1, (1.0, 3.0), (0.0, 1.0), 0.125, (1.5, 1.0)), required=4, short_text=FIT_TEXT),
    Case(Transition, ("q", "q", ["a"]), "src dst labels", "Transition(src='q', dst='q', labels=('a',))",
         other=("q", "q", ["b"])),
    Case(MultiTapeFSM, ({"q"}, "q", {"q"}, 1, [ARC]), "states start finals n_tapes transitions",
         "MultiTapeFSM(states=frozenset({'q'}), start='q', finals=frozenset({'q'}), n_tapes=1, "
         "transitions=(Transition(src='q', dst='q', labels=('a',)),))",
         other=({"q"}, "q", {"q"}, 1, [Transition("q", "q", ("b",))])),
    Case(TerracingParams, TERRACING, "p_h0 p_l0 k_usw k_dd k_dst k_ter floor_hz ceiling_hz",
         "TerracingParams(p_h0=170.0, p_l0=110.0, k_usw=1.02, k_dd=0.98, k_dst=0.7, k_ter=0.9, "
         "floor_hz=60.0, ceiling_hz=400.0)", other=(180.0, *TERRACING[1:]), required=0,
         short_text="TerracingParams(p_h0=170.0, p_l0=110.0, k_usw=1.02, k_dd=0.98, k_dst=0.7, k_ter=0.9, "
                    "floor_hz=60.0, ceiling_hz=400.0)"),
    Case(PitchTargetSequence, ([("H", 170)], 50.0, 400.0), "items floor_hz ceiling_hz",
         "PitchTargetSequence(items=(('H', 170.0),), floor_hz=50.0, ceiling_hz=400.0)",
         other=([("H", 170)], 60.0, 400.0), required=1,
         short_text="PitchTargetSequence(items=(('H', 170.0),), floor_hz=60.0, ceiling_hz=400.0)"),
    Case(F0Track, (np.array([0.0, 0.01]), np.array([100.0, np.nan]), 0.01), "times_s f0_hz hop_s",
         "F0Track(times_s=array([0.  , 0.01]), f0_hz=array([100.,  nan]), hop_s=0.01)"),
    Case(IPU, (0.5, 1.0), "start_s end_s", "IPU(start_s=0.5, end_s=1.0)", other=(0.5, 2.0)),
    Case(PolyContourModel, (FIT, IPU(0.0, 1.0), 5), "fit domain voiced_frame_count",
         f"PolyContourModel(fit={FIT_TEXT}, domain=IPU(start_s=0.0, end_s=1.0), voiced_frame_count=5)",
         other=(FIT, None, 5)),
    Case(QuadrantStats, ([(0.5, -0.5), (-0.5, 0.5)],), "points", "QuadrantStats(points=((0.5, -0.5), (-0.5, 0.5)))",
         other=([(0.5, -0.5)],)),
    Case(TimeTree, (("s", "w", "r"), (2.0, 1.0, 2.0), ("a", "b", None), ((), (), (0, 1))), "marks values labels kids",
         "TimeTree(marks=('s', 'w', 'r'), values=(2.0, 1.0, 2.0), labels=('a', 'b', None), kids=((), (), (0, 1)))",
         other=(("w", "s", "r"), (1.0, 2.0, 2.0), ("a", "b", None), ((), (), (0, 1)))),
    Case(TreeParams, ("trochaic", "lower", "nary"), "relation polarity arity",
         "TreeParams(relation='trochaic', polarity='lower', arity='nary')", other=("trochaic", "lower", "binary"),
         required=0, short_text="TreeParams(relation='iambic', polarity='higher', arity='binary')"),
]


# the column records, each with the columns its builders hand to Record._of, read back from a constructed record
COLUMN_RECORDS = [
    (Tier("words", IVS), lambda t: (t.name, list(t.labels), array("d", t.starts), array("d", t.ends))),
    (DurationSequence([("a", 0.5), ("b", 0.25)]), lambda d: (list(d._labels), array("d", d._values))),
    (QuadrantStats([(0.5, -0.5), (-0.5, 0.5)]), lambda q: (q.z_i, q.z_next)),
    (TimeTree(("s", "w", "r"), (2.0, 1.0, 2.0), ("a", "b", None), ((), (), (0, 1))),
     lambda t: (t._marks, array("d", t._values), t.labels, array("i", t._offsets), array("i", t._children))),
    (F0Track(np.array([0.0, 0.01]), np.array([100.0, np.nan]), 0.01),
     lambda f: (array("d", f._times), array("d", f._f0), f.hop_s)),
    (PitchTargetSequence([("H", 170), ("L", 110)], 50.0, 400.0),
     lambda p: (p.labels, array("d", p._hz), p.floor_hz, p.ceiling_hz)),
]


@pytest.mark.parametrize("record, columns", COLUMN_RECORDS, ids=[type(r).__name__ for r, _ in COLUMN_RECORDS])
def test_of_over_the_columns(record, columns):
    """Cls._of over a record's columns, which skips __init__, gives the record again."""
    twin = type(record)._of(*columns(record))
    assert type(twin) is type(record) and repr(twin) == repr(record) and vars(twin).keys() == vars(record).keys()
    if type(record).__eq__ is not object.__eq__:  # F0Track compares by identity
        assert twin == record and record == twin and hash(twin) == hash(record)


def _missing(cls: type, names: list[str]) -> str:
    """CPython's message for a call of cls that leaves out the required names."""
    quoted = [repr(n) for n in names]
    listed = " and ".join(quoted) if len(quoted) < 3 else ", ".join(quoted[:-1]) + ", and " + quoted[-1]
    plural = "argument" if len(names) == 1 else "arguments"
    return f"{cls.__name__}.__init__() missing {len(names)} required positional {plural}: {listed}"


@pytest.mark.parametrize("case", CASES, ids=[case.cls.__name__ for case in CASES])
def test_record(case):
    cls, args, names = case.cls, case.args, case.names.split()
    record = cls(*args)
    assert repr(record) == case.text

    # construction by keyword, and with defaults
    assert repr(cls(**dict(zip(names, args)))) == case.text
    if case.required is not None:
        assert repr(cls(*args[:case.required])) == case.short_text
    required = names[:case.required]
    if required:
        with pytest.raises(TypeError) as exc:
            cls()
        assert str(exc.value) == _missing(cls, required)
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) got an unexpected keyword argument 'bogus'$"):
        cls(*args, bogus=1)

    # == and hash: by value, or by identity
    twin = cls(*args)
    if case.other is None:
        assert record == record and record != twin and hash(record) == object.__hash__(record)
    else:
        assert record == twin and not record != twin and hash(record) == hash(twin)
        assert record != cls(*case.other) and cls(*case.other) != record
    assert record != object() and (record == object()) is False

    # no attribute can be assigned or deleted, properties and hidden ones included
    attributes = {*names, *vars(record), "bogus",
                  *(name for name in dir(cls) if isinstance(getattr(cls, name), property))}
    for name in sorted(attributes):
        with pytest.raises(FrozenInstanceError, match=re.escape(f"cannot assign to field {name!r}")):
            setattr(record, name, 0)
        with pytest.raises(FrozenInstanceError, match=re.escape(f"cannot delete field {name!r}")):
            delattr(record, name)
    assert repr(record) == case.text

    # pickle and copies keep every attribute, fields or not
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and repr(clone) == case.text and vars(clone).keys() == vars(record).keys()
        assert (clone == record) is (case.other is not None)


def test_hidden_attributes_survive_a_copy():
    """PolyFit's scaled coefficients and a machine's arc tables are no fields, yet are pickled and copied."""
    fit = PolyFit(1, (1.0, 2.0), (0.0, 2.0), 0.0, (3.0, 2.0))  # 1 + 2x = 3 + 2t, t = x - 1 in [-1, 1]
    assert fit == PolyFit(1, (1.0, 2.0), (0.0, 2.0), 0.0, (9.0, 9.0))  # compared without them
    fsm = MultiTapeFSM({"q"}, "q", {"q"}, 1, [ARC])
    for clone in (pickle.loads(pickle.dumps(fit)), copy.copy(fit)):
        assert clone.evaluate([0.0, 2.0]).tolist() == fit.evaluate([0.0, 2.0]).tolist() == [1.0, 5.0]
    for clone in (pickle.loads(pickle.dumps(fsm)), copy.copy(fsm)):
        assert clone.alphabet(0) == ("a",) and clone._arcs == fsm._arcs
