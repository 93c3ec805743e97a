"""Multi-tape machines: intonation grammar recognition and tone terracing."""

import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosotime import (
    AlphabetError,
    MultiTapeFSM,
    ParameterError,
    PitchTargetSequence,
    TerracingParams,
    Transition,
    build_pierrehumbert,
    build_terracing,
    enumerate_strings,
    realize_pitch,
    recognize,
    synthesize_contour,
    transduce_tones,
)
from prosotime.fsm import PIERREHUMBERT_ALPHABET, PITCH_ACCENTS, count_strings

BOUNDARY_INITIAL = ("%H", "%L")
PHRASE_ACCENTS = ("H-", "L-")
BOUNDARY_FINAL = ("H%", "L%")

ORACLE_RE = re.compile(
    r"^(%H|%L)"                                   # initial boundary tone
    r"((ACC)+(H-|L-))+"                           # one or more intermediate groups
    r"(H%|L%)$".replace("ACC", "(H\\*|L\\*|L\\+H\\*|L\\*\\+H|H\\+L\\*|H\\*\\+L)")
)


def oracle_accepts(tokens):
    """Regex-on-token-string reference for the intonation grammar."""
    for tok in tokens:
        if tok not in PIERREHUMBERT_ALPHABET:
            raise ValueError(tok)
    return ORACLE_RE.match("".join(tokens)) is not None


class TestIntonationGrammar:
    def test_minimal_tune_accepted(self):
        fsm = build_pierrehumbert()
        assert recognize(fsm, "%H H* H- H%")
        assert recognize(fsm, ["%L", "L*+H", "L-", "L%"])

    def test_iterated_accents_and_groups(self):
        fsm = build_pierrehumbert()
        assert recognize(fsm, "%H H* H* H* H- H%")
        assert recognize(fsm, "%H H* H- L* L- H%")

    def test_rejects_malformed(self):
        fsm = build_pierrehumbert()
        assert not recognize(fsm, "%H H%")                 # no accent, no phrase tone
        assert not recognize(fsm, "H* H- H%")              # missing initial boundary
        assert not recognize(fsm, "%H H* H%")              # missing phrase accent
        assert not recognize(fsm, "%H H* H- H% H%")        # trailing garbage
        assert not recognize(fsm, [])                      # empty

    def test_unknown_symbol_raises(self):
        fsm = build_pierrehumbert()
        with pytest.raises(AlphabetError):
            recognize(fsm, "%H X* H- H%")

    def test_enumeration_counts(self):
        fsm = build_pierrehumbert()
        assert enumerate_strings(fsm, 3) == []
        strings = enumerate_strings(fsm, 4)
        # shortest tunes: initial boundary x accent x phrase accent x final boundary
        expect = sorted(
            " ".join(t)
            for t in itertools.product(BOUNDARY_INITIAL, PITCH_ACCENTS,
                                       PHRASE_ACCENTS, BOUNDARY_FINAL)
        )
        assert len(strings) == 2 * len(PITCH_ACCENTS) * 2 * 2  # 48
        assert strings == expect

    def test_enumerated_strings_all_recognized(self):
        fsm = build_pierrehumbert()
        for s in enumerate_strings(fsm, 5):
            assert recognize(fsm, s)

    def test_agrees_with_pattern_oracle_exhaustive_short(self):
        fsm = build_pierrehumbert()
        checked = 0
        for n in range(1, 5):
            for tokens in itertools.product(PIERREHUMBERT_ALPHABET, repeat=n):
                assert recognize(fsm, tokens) == oracle_accepts(tokens), tokens
                checked += 1
        assert checked == 12 + 12**2 + 12**3 + 12**4

    def test_agrees_with_pattern_oracle_random_long(self):
        fsm = build_pierrehumbert()
        rng = np.random.default_rng(1234)
        alphabet = list(PIERREHUMBERT_ALPHABET)
        # uniform random length-5/6 strings rarely hit the language, so mix in
        # mutated accepted strings to exercise the accepting region too
        accepted_pool = [s.split() for s in enumerate_strings(build_pierrehumbert(), 6)]
        hits = 0
        for trial in range(100_000):
            if trial % 2 == 0:
                n = int(rng.choice([5, 6]))
                tokens = tuple(rng.choice(alphabet, n))
            else:
                base = list(accepted_pool[int(rng.integers(len(accepted_pool)))])
                if rng.random() < 0.5:  # random single-symbol mutation
                    base[int(rng.integers(len(base)))] = str(rng.choice(alphabet))
                tokens = tuple(base)
            got = recognize(fsm, tokens)
            assert got == oracle_accepts(tokens), tokens
            hits += got
        assert hits > 0  # the accepting region was actually sampled


SPACES = "".join(c for c in map(chr, range(0x110000)) if c.isspace())  # what str.split() splits at
UNKNOWN = ("Q", "H", "%", "L*+", "h*", "H\u200b*")  # no symbol of the grammar; U+200B is no space


def _any(symbols):
    return "(" + "|".join(map(re.escape, symbols)) + ")"


_TUNE = f"{_any(BOUNDARY_INITIAL)}(( {_any(PITCH_ACCENTS)})+ {_any(PHRASE_ACCENTS)})+ {_any(BOUNDARY_FINAL)}"
ITERATED_RE = re.compile(f"{_TUNE}( {_TUNE})*")  # the pattern one or more times, over space-joined symbols


def split_outcome(fsm, text):
    """recognize(fsm, text) as it was: text.split() listed, every symbol tested, then the machine run."""
    tokens = text.split()
    unknown = [t for t in tokens if t not in PIERREHUMBERT_ALPHABET]
    if unknown:
        return "AlphabetError", f"symbol {unknown[0]!r} not in tape-0 alphabet {list(fsm.alphabet())}"
    return "value", ITERATED_RE.fullmatch(" ".join(tokens)) is not None


def outcome(fsm, symbols):
    try:
        return "value", recognize(fsm, symbols)
    except AlphabetError as exc:
        return "AlphabetError", str(exc)


@st.composite
def spaced_tunes(draw):
    """A tune, often accepted, now and then spoiled or given an unknown symbol, joined by any whitespace."""
    tokens = draw(st.sampled_from(ENUMERATED)).split() * draw(st.integers(1, 3))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        symbol = draw(st.sampled_from(PIERREHUMBERT_ALPHABET + UNKNOWN * draw(st.sampled_from([0, 1]))))
        tokens.insert(draw(st.integers(0, len(tokens))), symbol)
    space = st.text(st.sampled_from(SPACES), min_size=1, max_size=3)
    edges = st.one_of(st.just(""), space)
    return draw(edges) + "".join(t + draw(space) for t in tokens[:-1]) + tokens[-1] + draw(edges)


ENUMERATED = enumerate_strings(build_pierrehumbert(), 7)


class TestStreamedRecognition:
    """recognize reads a str in windows and an iterable once; the outcome is that of the split-based code."""

    def test_windows_end_where_split_ends_a_symbol(self):
        # a window runs on through the characters of r"\S", which are those str.split() keeps
        assert "".join(c for c in map(chr, range(0x110000)) if not re.fullmatch(r"\S", c)) == SPACES

    @pytest.mark.parametrize("window", [1, 2, 7, 4096])
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(text=spaced_tunes())
    def test_windows_match_the_split_oracle(self, window, text):
        from prosotime import fsm as fsm_module

        fsm = build_pierrehumbert()
        with mock.patch.object(fsm_module, "_WINDOW", window):
            assert outcome(fsm, text) == split_outcome(fsm, text)
        assert outcome(fsm, (t for t in text.split())) == split_outcome(fsm, text)  # a generator, read once

    @pytest.mark.parametrize("window", [1, 2, 7, 4096])
    @pytest.mark.parametrize("text, bad", [
        ("L% H* Q", "Q"),  # rejected at its first symbol
        ("%H H* L- L% H%\u3000H*\tX Y", "X"),  # rejected at the H% after a whole tune
        ("%H H*\x1cL-\u2028L%\x85Q", "Q"),
    ])
    def test_unknown_symbol_after_a_rejecting_prefix(self, window, text, bad):
        from prosotime import fsm as fsm_module

        fsm = build_pierrehumbert()
        with mock.patch.object(fsm_module, "_WINDOW", window):
            with pytest.raises(AlphabetError, match=f"symbol '{bad}' not in"):
                recognize(fsm, text)
        with pytest.raises(AlphabetError, match=f"symbol '{bad}' not in"):
            recognize(fsm, iter(text.split()))

    def test_generator_is_read_once_to_its_end(self):
        fsm, read = build_pierrehumbert(), []

        def symbols():
            for s in ("%H", "H*", "L-", "L%", "L%", "H*"):  # rejected at the second L%
                read.append(s)
                yield s

        assert recognize(fsm, symbols()) is False
        assert read == ["%H", "H*", "L-", "L%", "L%", "H*"]


class TestCompiledMachine:
    @staticmethod
    def machine(*arcs):
        return MultiTapeFSM(
            states=frozenset({"a", "b"}), start="a", finals=frozenset({"b"}), n_tapes=2,
            transitions=tuple(Transition(src, dst, labels) for src, dst, labels in arcs),
        )

    def test_deterministic_machine_accepted(self):
        fsm = self.machine(("a", "b", ("x", "y")), ("b", "b", ("x", "y")))
        assert fsm.alphabet(1) == ("y",)
        assert recognize(fsm, "y y", tape=1)

    def test_empty_label_rejected(self):
        with pytest.raises(ParameterError):
            self.machine(("a", "b", ("x", None)))

    def test_duplicate_source_label_rejected(self):
        with pytest.raises(ParameterError):
            self.machine(("a", "b", ("x", "y")), ("a", "a", ("x", "z")))
        with pytest.raises(ParameterError):  # deterministic on tape 0, not on tape 1
            self.machine(("a", "b", ("x", "y")), ("a", "a", ("z", "y")))

    def test_enumeration_complete_against_oracle(self):
        expect = [
            " ".join(tokens)
            for n in range(6)
            for tokens in itertools.product(PIERREHUMBERT_ALPHABET, repeat=n)
            if oracle_accepts(tokens)
        ]
        assert enumerate_strings(build_pierrehumbert(), 5) == sorted(
            expect, key=str.split
        )

    def test_enumeration_count_at_seven(self):
        assert len(enumerate_strings(build_pierrehumbert(), 7)) == 19920


@st.composite
def single_tape_machines(draw):
    """Deterministic acceptors over states a, b, c and symbols x, y, z, starting at a."""
    states = ("a", "b", "c")
    arcs = draw(st.dictionaries(st.tuples(st.sampled_from(states), st.sampled_from("xyz")),
                                st.sampled_from(states), max_size=9))
    return MultiTapeFSM(
        states=frozenset(states), start="a", finals=frozenset(draw(st.sets(st.sampled_from(states)))),
        n_tapes=1, transitions=tuple(Transition(src, dst, (sym,)) for (src, sym), dst in arcs.items()),
    )


def enumerate_reference(fsm, max_len, tape=0):
    """Every accepted string up to max_len by the unpruned preorder walk: each prefix is entered."""
    arcs = {(t.src, t.labels[tape]): t.dst for t in fsm.transitions}
    alphabet = sorted({sym for _, sym in arcs})
    accepted, stack = [], [(fsm.start, ())]
    while stack:
        state, prefix = stack.pop()
        if state in fsm.finals:
            accepted.append(" ".join(prefix))
        if len(prefix) < max_len:
            for sym in reversed(alphabet):  # pushed last-first, popped in order
                if (state, sym) in arcs:
                    stack.append((arcs[state, sym], prefix + (sym,)))
    return accepted


@st.composite
def small_machines(draw):
    """Deterministic acceptors of one to five states: dead states, unreachable finals and a final start
    all occur."""
    states = [f"q{k}" for k in range(draw(st.integers(1, 5)))]
    arcs = draw(st.dictionaries(st.tuples(st.sampled_from(states), st.sampled_from("xyz")),
                                st.sampled_from(states), max_size=12))
    return MultiTapeFSM(
        states=frozenset(states), start=draw(st.sampled_from(states)),
        finals=frozenset(draw(st.sets(st.sampled_from(states)))), n_tapes=1,
        transitions=tuple(Transition(src, dst, (sym,)) for (src, sym), dst in arcs.items()),
    )


def _acceptor(start, finals, arcs):
    states = {start, *finals, *(a for a, _, _ in arcs), *(b for _, _, b in arcs)}
    return MultiTapeFSM(states=frozenset(states), start=start, finals=frozenset(finals), n_tapes=1,
                        transitions=tuple(Transition(a, b, (sym,)) for a, sym, b in arcs))


class TestPrunedEnumeration:
    """enumerate_strings enters only prefixes that can still reach a final state; the unpruned walk is
    its reference."""

    @pytest.mark.parametrize("max_len", range(9))
    def test_intonation_grammar(self, max_len):
        fsm = build_pierrehumbert()
        assert enumerate_strings(fsm, max_len) == enumerate_reference(fsm, max_len)

    @pytest.mark.parametrize("tape", range(3))
    def test_every_tape_of_the_terracing_machine(self, tape):
        fsm = build_terracing()
        for max_len in range(8):
            assert enumerate_strings(fsm, max_len, tape) == enumerate_reference(fsm, max_len, tape)

    @pytest.mark.parametrize("fsm", [
        _acceptor("a", {"c"}, [("a", "x", "b"), ("b", "x", "b"), ("a", "y", "c")]),  # b is dead
        _acceptor("a", {"c"}, [("a", "x", "b"), ("b", "y", "a")]),  # c is unreachable
        _acceptor("a", {"a"}, [("a", "x", "a"), ("a", "y", "b")]),  # the start is final
        _acceptor("a", {"d"}, [("a", "x", "b"), ("b", "x", "c"), ("c", "x", "d"), ("a", "y", "d")]),
    ], ids=["dead-state", "unreachable-final", "final-start", "long-and-short-path"])
    def test_named_shapes(self, fsm):
        for max_len in range(7):
            assert enumerate_strings(fsm, max_len) == enumerate_reference(fsm, max_len)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(small_machines(), st.integers(0, 6))
    def test_small_machines(self, fsm, max_len):
        assert enumerate_strings(fsm, max_len) == enumerate_reference(fsm, max_len)


class TestStringCount:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.one_of(st.just(build_pierrehumbert()), single_tape_machines()), st.integers(0, 6))
    def test_count_equals_enumeration(self, fsm, max_len):
        assert count_strings(fsm, max_len) == len(enumerate_strings(fsm, max_len))

    def test_over_the_cap_raises_before_enumerating(self):
        # about 5e8 strings up to length 12; the count passes the cap at length 10
        with pytest.raises(ParameterError, match=r"--max-len 12 gives more than 2000000 strings"):
            enumerate_strings(build_pierrehumbert(), 12)

    def test_count_stops_where_paths_end(self):
        fsm = TestCompiledMachine.machine(("a", "b", ("x", "y")))
        assert count_strings(fsm, 10**12) == 1


class TestMachineShape:
    def test_pierrehumbert_dict(self):
        fsm = build_pierrehumbert()
        assert fsm.n_tapes == 1
        assert fsm.start in fsm.states
        assert fsm.finals <= fsm.states

    def test_terracing_dict_has_three_tapes(self):
        fsm = build_terracing()
        assert fsm.n_tapes == 3
        labels = {t.labels for t in fsm.transitions}
        assert ("H", "hc", "init_high") in labels
        assert ("L", "!l", "downstep") in labels


class TestToneTransduction:
    def test_alternating_tones(self):
        assert transduce_tones("H L H L H") == ("hc", "!l", "^h", "!l", "^h")

    def test_level_run(self):
        assert transduce_tones("H H H") == ("hc", "h", "h")
        assert transduce_tones("L L L") == ("lc", "l", "l")

    def test_empty_input(self):
        assert transduce_tones("") == ()

    def test_bad_tone_rejected(self):
        with pytest.raises(AlphabetError):
            transduce_tones("H M L")

    @pytest.mark.parametrize("tones, bad", [
        (["M", "H"], "'M'"),
        (("H", "L", "H", "h"), "'h'"),
        (["H", ["L"]], "['L']"),
        (iter(["L", None]), "None"),
    ])
    def test_bad_element_of_a_sequence_rejected(self, tones, bad):
        with pytest.raises(AlphabetError, match=re.escape(f"lexical tones are H or L, got {bad}")):
            transduce_tones(tones)

    def test_sequence_input_matches_string_input(self):
        assert transduce_tones(["L", "L", "H"]) == transduce_tones("L L H") == ("lc", "l", "^h")


class TestPitchRealization:
    def test_level_high_run_upsweeps(self):
        targets = realize_pitch(("hc", "h", "h")).targets_hz
        assert targets[0] == pytest.approx(170.0)
        assert targets[1] == pytest.approx(173.4)
        assert targets[2] == pytest.approx(176.868)

    def test_alternation_values(self):
        labels = transduce_tones("H L H L H")
        targets = realize_pitch(labels).targets_hz
        assert targets == pytest.approx((170.0, 119.0, 153.0, 107.1, 137.7))

    def test_downstep_terraces_highs(self):
        for n in range(2, 11):
            labels = transduce_tones("H L " * n)
            targets = realize_pitch(labels).targets_hz
            highs = targets[0::2]
            for a, b in zip(highs, highs[1:]):
                assert a > b, f"H targets must strictly fall, n={n}"

    def test_lows_fall_until_floor(self):
        labels = transduce_tones("H L " * 10)
        lows = realize_pitch(labels).targets_hz[1::2]
        for a, b in zip(lows, lows[1:]):
            assert a > b or a == b == 60.0

    def test_high_run_strictly_rises_until_ceiling(self):
        for n in range(2, 11):
            labels = transduce_tones("H " * n)
            targets = realize_pitch(labels).targets_hz
            for a, b in zip(targets, targets[1:]):
                assert b > a or a == b == 400.0

    def test_clamps_respected(self):
        long_low = realize_pitch(("lc",) + ("l",) * 200)
        assert min(long_low.targets_hz) == 60.0
        long_high = realize_pitch(("hc",) + ("h",) * 200)
        assert max(long_high.targets_hz) == 400.0
        for t in long_low.targets_hz + long_high.targets_hz:
            assert 60.0 <= t <= 400.0
        for seq in (long_low, long_high):  # built unchecked, the targets pass the constructor's range test
            assert PitchTargetSequence(seq.items, seq.floor_hz, seq.ceiling_hz) == seq

    def test_upstep_after_low_register(self):
        targets = realize_pitch(("lc", "^h")).targets_hz
        assert targets[0] == pytest.approx(110.0)
        assert targets[1] == pytest.approx(153.0)  # 0.9 * initial high register

    def test_initials_only_at_start(self):
        with pytest.raises(ParameterError):
            realize_pitch(("hc", "lc"))

    def test_an_upsweep_of_a_zero_register_by_an_infinite_ratio_is_refused(self):
        # 0 * inf is NaN, the one target that clamping does not bring into range
        p = TerracingParams(p_h0=0.0, p_l0=-10.0, k_usw=float("inf"), floor_hz=-20.0)
        with pytest.raises(ParameterError, match=re.escape("target nan Hz for 'h' outside [-20.0, 400.0]")):
            realize_pitch(("hc", "h", "h"), p)

    def test_custom_params(self):
        p = TerracingParams(p_h0=200.0, k_dst=0.5)
        targets = realize_pitch(transduce_tones("H L"), p).targets_hz
        assert targets == pytest.approx((200.0, 100.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_target_refused_anywhere(self, bad, position):
        # min and max pass over a NaN after their first value: the range check must not
        items = [("H", 100.0), ("L", 90.0), ("H", 110.0)]
        label = items[position][0]
        items[position] = (label, bad)
        with pytest.raises(ParameterError, match=re.escape(f"target {bad} Hz for {label!r} outside [60.0, 400.0]")):
            PitchTargetSequence(items)

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            TerracingParams(k_dd=1.1)  # downdrift must lower the register
        with pytest.raises(ParameterError):
            TerracingParams(floor_hz=500.0, ceiling_hz=400.0)
        with pytest.raises(ParameterError):
            TerracingParams(p_h0=100.0, p_l0=150.0)  # high start must exceed low


class TestContourSynthesis:
    def test_frame_layout(self):
        targets = realize_pitch(transduce_tones("H L H"))
        track = synthesize_contour(targets, tone_dur_ms=150.0)
        assert track.hop_s == pytest.approx(0.01)
        assert len(track.times_s) == 45  # 3 tones x 15 frames
        assert track.voiced_count == 45

    def test_values_step_through_targets(self):
        targets = realize_pitch(transduce_tones("H L"))
        track = synthesize_contour(targets, tone_dur_ms=20.0)
        assert track.f0_hz[0] == pytest.approx(170.0)
        assert track.f0_hz[-1] == pytest.approx(119.0)

    @pytest.mark.parametrize("tone_dur_ms", [2.5, 10.0, 15.0, 150.0, 1234.5])
    def test_frames_match_the_list_construction(self, tone_dur_ms):
        # 2 000 targets from a long tone string; the reference is the former
        # construction through two Python lists
        targets = realize_pitch(transduce_tones(" ".join(["H", "L", "H", "H", "L"] * 400)))
        track = synthesize_contour(targets, tone_dur_ms=tone_dur_ms)
        per = max(1, round(tone_dur_ms / 1000.0 / 0.01))
        f0 = [hz for _, hz in targets.items for _ in range(per)]
        times = [k * 0.01 for k in range(len(f0))]
        assert track.f0_hz.tobytes() == np.array(f0).tobytes()
        assert track.times_s.tobytes() == np.array(times).tobytes()

    def test_empty_targets_rejected(self):
        from prosotime import DegenerateInputError

        with pytest.raises(DegenerateInputError):
            synthesize_contour(PitchTargetSequence(()))

    @pytest.mark.parametrize("params, labels, bad", [
        (TerracingParams(p_l0=-50.0, floor_hz=-100.0), ("lc", "l", "^h"), -50.0),
        (TerracingParams(p_l0=0.0, floor_hz=-100.0), ("lc", "^h"), 0.0),
        (TerracingParams(p_h0=1e308, k_usw=2.0, ceiling_hz=float("inf")), ("hc", "h"), float("inf")),  # it overflows
    ], ids=["negative", "zero", "infinite"])
    def test_a_target_outside_the_voiced_range_is_refused(self, params, labels, bad):
        targets = realize_pitch(labels, params)
        with pytest.raises(ParameterError, match=re.escape(f"voiced f0 must be finite and > 0, got {bad}")):
            synthesize_contour(targets)
