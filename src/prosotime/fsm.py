"""Multi-tape finite-state machinery for intonation and tone grammars.

Two machines are bundled.  The intonation grammar is a single-tape acceptor
over ToBI-style symbols: an initial boundary tone, then one or more
intermediate groups (each one or more pitch accents closed by a phrase
accent), then a final boundary tone, with the whole pattern iterable.  The
terracing grammar is a 3-tape transducer (lexical tone, phonetic label,
pitch action) whose six arcs encode initial highs/lows, upsweep, downdrift,
downstep and upstep; a two-register multiplicative model turns the emitted
actions into pitch targets in Hz.

Machines are deterministic on every tape and have no empty arcs.  The
constructor checks this and compiles each tape once into a
(state, symbol) -> arc table, so recognition, enumeration and transduction
are plain table walks.

Note on iteration: stretches of same-type accents are common in real
intonation but the grammar does not constrain accent choice within a group;
it accepts any accent sequence.
"""

from __future__ import annotations

import math
import re
from array import array
from itertools import chain, islice, repeat
from operator import floordiv, mul
from typing import TYPE_CHECKING, Iterable, Iterator

from ._record import Record
from .errors import AlphabetError, DegenerateInputError, ParameterError

if TYPE_CHECKING:
    from .pitch import F0Track

__all__ = [
    "Transition",
    "MultiTapeFSM",
    "PitchTargetSequence",
    "TerracingParams",
    "recognize",
    "count_strings",
    "enumerate_strings",
    "iter_strings",
    "build_pierrehumbert",
    "build_terracing",
    "transduce_tones",
    "realize_pitch",
    "synthesize_contour",
    "PIERREHUMBERT_ALPHABET",
]

PIERREHUMBERT_ALPHABET = (
    "%H", "%L",
    "H*", "L*", "H*+L", "H+L*", "L*+H", "L+H*",
    "H-", "L-",
    "H%", "L%",
)

PITCH_ACCENTS = ("H*", "L*", "H*+L", "H+L*", "L*+H", "L+H*")

# Caps checked before allocating: the intonation grammar makes 19 920 strings up
# to length 7 (1.2e6 up to 9); 10 000 tones of 150 ms make 150 000 frames.
MAX_STRINGS = 2_000_000
MAX_CONTOUR_FRAMES = 10_000_000
_HOP_S = 0.01  # the frame hop of a synthesized contour
_WINDOW = 4096  # characters of a str that recognize splits at once, with the rest of the symbol they end in


class Transition(Record):
    """One arc with one label per tape."""

    src: str
    dst: str
    labels: tuple[str, ...]

    def __init__(self, src: str, dst: str, labels: Iterable[str]) -> None:
        vars(self).update(src=src, dst=dst, labels=tuple(labels))


class MultiTapeFSM(Record):
    """A deterministic finite-state machine reading/writing a fixed number of tapes.

    Besides its fields it holds, per tape, the (state, symbol) -> arc table
    (_arcs) and the sorted symbols (_alphabets).
    """

    states: frozenset[str]
    start: str
    finals: frozenset[str]
    n_tapes: int
    transitions: tuple[Transition, ...]

    def __init__(self, states: Iterable[str], start: str, finals: Iterable[str], n_tapes: int,
                 transitions: Iterable[Transition]) -> None:
        vars(self).update(states=frozenset(states), start=start, finals=frozenset(finals), n_tapes=n_tapes,
                          transitions=tuple(transitions))
        if self.start not in self.states:
            raise ParameterError(f"start state {self.start!r} not among states")
        if not self.finals <= self.states:
            raise ParameterError("final states must be a subset of states")
        if self.n_tapes < 1:
            raise ParameterError("machines need at least one tape")
        arcs = tuple({} for _ in range(self.n_tapes))
        for t in self.transitions:
            if t.src not in self.states or t.dst not in self.states:
                raise ParameterError(f"transition {t} references unknown states")
            if len(t.labels) != self.n_tapes:
                raise ParameterError(
                    f"transition {t} has {len(t.labels)} labels for {self.n_tapes} tapes"
                )
            for tape, label in enumerate(t.labels):
                if label is None:
                    raise ParameterError(f"transition {t} has an empty label on tape {tape}")
                if (t.src, label) in arcs[tape]:
                    raise ParameterError(
                        f"transition {t} makes tape {tape} nondeterministic at {t.src!r}"
                    )
                arcs[tape][(t.src, label)] = t
        vars(self).update(_arcs=arcs, _alphabets=tuple(tuple(sorted({s for _, s in a})) for a in arcs))

    def alphabet(self, tape: int = 0) -> tuple[str, ...]:
        """Sorted distinct symbols on one tape."""
        self._check_tape(tape)
        return self._alphabets[tape]

    def _check_tape(self, tape: int) -> None:
        if not 0 <= tape < self.n_tapes:
            raise ParameterError(f"tape {tape} out of range for {self.n_tapes}-tape machine")


def recognize(fsm: MultiTapeFSM, symbols: Iterable[str] | str, tape: int = 0) -> bool:
    """True iff the start-to-final path spells the input on the given tape.

    A str is split a window at a time and an iterable read once; an unknown
    symbol anywhere, even past a rejection, raises AlphabetError naming the first.
    """
    alphabet = fsm.alphabet(tape)
    if isinstance(symbols, str):  # str.split() of windows of about _WINDOW characters, each ended where a symbol ends
        windows = re.finditer(rf".{{1,{_WINDOW}}}\S*", symbols, re.DOTALL)
        symbols = chain.from_iterable(window[0].split() for window in windows)
    seq = iter(symbols)
    table = fsm._arcs[tape]
    state = fsm.start
    for sym in seq:
        arc = table.get((state, sym))
        if arc is None:  # rejected, unless sym is no symbol at all; the rest is read for an unknown one
            known = set(alphabet)
            for sym in chain((sym,), seq):
                if sym not in known:
                    raise AlphabetError(f"symbol {sym!r} not in tape-{tape} alphabet {list(alphabet)}")
            return False
        state = arc.dst
    return state in fsm.finals


def count_strings(fsm: MultiTapeFSM, max_len: int, tape: int = 0) -> int:
    """Number of accepted strings of length <= max_len on one tape; above MAX_STRINGS, a ParameterError.

    Each string is one path from the start of the deterministic machine, so
    this counts the paths into each state, one length at a time.
    """
    if max_len < 0:
        raise ParameterError(f"max_len must be >= 0, got {max_len}")
    fsm._check_tape(tape)
    paths, total = {fsm.start: 1}, 0  # state -> paths of the current length ending there
    for length in range(max_len + 1):
        total += sum(n for state, n in paths.items() if state in fsm.finals)
        if total > MAX_STRINGS:
            raise ParameterError(f"--max-len {max_len} gives more than {MAX_STRINGS} strings "
                                 f"({total} up to length {length})")
        following: dict[str, int] = {}
        for (src, _), arc in fsm._arcs[tape].items():
            if src in paths:
                following[arc.dst] = following.get(arc.dst, 0) + paths[src]
        if not following:
            break
        paths = following
    return total


def enumerate_strings(fsm: MultiTapeFSM, max_len: int, tape: int = 0) -> list[str]:
    """All accepted strings of length <= max_len on one tape, lexicographically.

    Symbols within a string are joined by single spaces.  More than
    MAX_STRINGS strings is a ParameterError, raised before any is built.
    """
    count_strings(fsm, max_len, tape)
    return list(iter_strings(fsm, max_len, tape))


def iter_strings(fsm: MultiTapeFSM, max_len: int, tape: int = 0) -> Iterator[str]:
    """The strings of enumerate_strings, one at a time and with no cap.

    Ordering is lexicographic over the symbol sequences, which a preorder walk
    taking symbols in sorted order yields directly.  The walk enters only
    prefixes that can still reach a final state within max_len.
    """
    if max_len < 0:
        raise ParameterError(f"max_len must be >= 0, got {max_len}")
    fsm._check_tape(tape)
    table = fsm._arcs[tape]
    # need[state]: fewest symbols from state to a final state, by a backward breadth-first pass
    need, frontier, steps = dict.fromkeys(fsm.finals, 0), set(fsm.finals), 0
    while frontier:
        steps += 1
        frontier = {src for (src, _), arc in table.items() if arc.dst in frontier and src not in need}
        need.update(dict.fromkeys(frontier, steps))
    # per state, the (symbol, destination) arcs into states that can reach a final one, last symbol first
    arcs: dict[str, list[tuple[str, str]]] = {state: [] for state in fsm.states}
    for (src, sym), arc in sorted(table.items(), reverse=True):
        if arc.dst in need:
            arcs[src].append((sym, arc.dst))
    stack = [(fsm.start, "", 0)]
    while stack:
        state, text, length = stack.pop()
        if state in fsm.finals:
            yield text
        for sym, dst in arcs[state]:  # pushed last-first, popped in order
            if length + 1 + need[dst] <= max_len:
                stack.append((dst, f"{text} {sym}" if length else sym, length + 1))


# ---------------------------------------------------------------------------
# intonation grammar
# ---------------------------------------------------------------------------


def build_pierrehumbert() -> MultiTapeFSM:
    """Single-tape acceptor for tone-sequence intonation patterns.

    Pattern: an initial boundary tone (%H or %L), one or more intermediate
    groups -- each one or more pitch accents closed by exactly one phrase
    accent (H- or L-) -- a final boundary tone (H% or L%), and the whole
    pattern one or more times.
    """
    t = []
    for b in ("%H", "%L"):
        t.append(Transition("init", "group", (b,)))
        t.append(Transition("final", "group", (b,)))  # pattern iterates
    for a in PITCH_ACCENTS:
        t.append(Transition("group", "accent", (a,)))
        t.append(Transition("accent", "accent", (a,)))
        t.append(Transition("phrase", "accent", (a,)))  # next intermediate group
    for p in ("H-", "L-"):
        t.append(Transition("accent", "phrase", (p,)))
    for b in ("H%", "L%"):
        t.append(Transition("phrase", "final", (b,)))
    return MultiTapeFSM(
        states=frozenset({"init", "group", "accent", "phrase", "final"}),
        start="init",
        finals=frozenset({"final"}),
        n_tapes=1,
        transitions=tuple(t),
    )


# ---------------------------------------------------------------------------
# tone terracing
# ---------------------------------------------------------------------------


class TerracingParams(Record):
    """Registers and ratios of the two-register terracing model.

    The four ratios correspond to the four pitch actions: upsweep raises the
    high register (k_usw > 1), downdrift lowers the low register (k_dd < 1),
    downstep maps the high register onto the following low (k_dst < 1), and
    upstep terraces each new high below the previous high register
    (k_ter < 1).  All targets are clamped to [floor_hz, ceiling_hz].
    """

    p_h0: float
    p_l0: float
    k_usw: float
    k_dd: float
    k_dst: float
    k_ter: float
    floor_hz: float
    ceiling_hz: float

    def __init__(self, p_h0: float = 170.0, p_l0: float = 110.0, k_usw: float = 1.02,
                 k_dd: float = 0.98, k_dst: float = 0.70, k_ter: float = 0.90,
                 floor_hz: float = 60.0, ceiling_hz: float = 400.0) -> None:
        vars(self).update(p_h0=p_h0, p_l0=p_l0, k_usw=k_usw, k_dd=k_dd, k_dst=k_dst, k_ter=k_ter,
                          floor_hz=floor_hz, ceiling_hz=ceiling_hz)
        if not self.k_usw > 1:
            raise ParameterError(f"k_usw must be > 1, got {self.k_usw}")
        for name in ("k_dd", "k_dst", "k_ter"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ParameterError(f"{name} must be in (0, 1), got {v}")
        if not self.floor_hz < self.p_l0 < self.p_h0 < self.ceiling_hz:
            raise ParameterError(
                "need floor_hz < p_l0 < p_h0 < ceiling_hz, got "
                f"{self.floor_hz}, {self.p_l0}, {self.p_h0}, {self.ceiling_hz}"
            )


class PitchTargetSequence(Record):
    """Ordered (phonetic label, target Hz) pairs within the model's range.

    The pairs are held as two columns, the `labels` tuple and the Hz in
    array("d"); `items` and `targets_hz` build their tuples when asked.
    realize_pitch clamps its targets into the range and builds the sequence
    over them with PitchTargetSequence._of(labels, hz, floor_hz, ceiling_hz).
    """

    items: tuple[tuple[str, float], ...]
    floor_hz: float
    ceiling_hz: float

    def __init__(self, items: Iterable[tuple[str, float]], floor_hz: float = 60.0,
                 ceiling_hz: float = 400.0) -> None:
        items = tuple((str(lab), float(hz)) for lab, hz in items)
        for lab, hz in items:
            if not floor_hz <= hz <= ceiling_hz:  # NaN is never inside
                raise ParameterError(f"target {hz} Hz for {lab!r} outside [{floor_hz}, {ceiling_hz}]")
        self._fill(tuple(lab for lab, _ in items), array("d", [hz for _, hz in items]), floor_hz, ceiling_hz)

    def _fill(self, labels: tuple[str, ...], hz: array, floor_hz: float, ceiling_hz: float) -> None:
        vars(self).update(labels=labels, _hz=hz, floor_hz=floor_hz, ceiling_hz=ceiling_hz)

    @property
    def items(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.labels, self._hz))

    @property
    def targets_hz(self) -> tuple[float, ...]:
        return tuple(self._hz)

    def __len__(self) -> int:
        return len(self.labels)


def build_terracing() -> MultiTapeFSM:
    """3-tape tone terracing transducer: lexical tape, phonetic tape, action tape.

    Start at 0; every non-empty tone string ends in state H or L (both
    final).  Same-tone arcs reinforce the current register (upsweep /
    downdrift), different-tone arcs assimilate across registers (downstep /
    upstep).
    """
    arcs = (
        ("0", "H", "H", "hc", "init_high"),
        ("0", "L", "L", "lc", "init_low"),
        ("H", "H", "H", "h", "upsweep"),
        ("L", "L", "L", "l", "downdrift"),
        ("H", "L", "L", "!l", "downstep"),
        ("L", "H", "H", "^h", "upstep"),
    )
    return MultiTapeFSM(
        states=frozenset({"0", "H", "L"}),
        start="0",
        finals=frozenset({"H", "L"}),
        n_tapes=3,
        transitions=tuple(Transition(src, dst, labels) for src, dst, *labels in arcs),
    )


_TERRACING = build_terracing()


def transduce_tones(lexical: str | Iterable[str]) -> tuple[str, ...]:
    """Map a lexical tone string to phonetic labels along the terracing machine.

    The machine is input-deterministic and complete over {H, L}, so the path
    (and the emitted second tape) is unique, and a tone with no arc is not
    H or L.
    """
    tones = lexical.split() if isinstance(lexical, str) else lexical
    table = _TERRACING._arcs[0]
    state = _TERRACING.start
    out: list[str] = []
    for tone in tones:
        try:
            arc = table[(state, tone)]
        except (KeyError, TypeError):  # TypeError: an unhashable tone
            raise AlphabetError(f"lexical tones are H or L, got {tone!r}") from None
        out.append(arc.labels[1])
        state = arc.dst
    return tuple(out)


def realize_pitch(
    labels: Iterable[str] | str, params: TerracingParams = TerracingParams()
) -> PitchTargetSequence:
    """Turn phonetic terracing labels into pitch targets via two registers.

    The high and low registers start at p_h0/p_l0; initial labels pin them,
    upsweep/downdrift move a register within its own terrace, and
    downstep/upstep derive the next low/high target from the high register.
    Targets and registers are clamped to [floor_hz, ceiling_hz] after every
    update.  hc/lc may only appear as the first label.
    """
    seq = labels.split() if isinstance(labels, str) else list(labels)
    alphabet = _TERRACING.alphabet(1)
    for lab in seq:
        if lab not in alphabet:
            raise AlphabetError(f"unknown phonetic label {lab!r}")

    def clamp(x: float) -> float:
        return min(max(x, params.floor_hz), params.ceiling_hz)

    r_h = params.p_h0
    r_l = params.p_l0
    hz = array("d")
    for k, lab in enumerate(seq):
        if lab in ("hc", "lc") and k != 0:
            raise ParameterError(f"malformed sequence: initial label {lab!r} at position {k}")
        if lab == "hc":
            p = clamp(params.p_h0)
            r_h = p
        elif lab == "lc":
            p = clamp(params.p_l0)
            r_l = p
        elif lab == "h":
            r_h = clamp(r_h * params.k_usw)
            p = r_h
        elif lab == "l":
            r_l = clamp(r_l * params.k_dd)
            p = r_l
        elif lab == "!l":
            p = clamp(r_h * params.k_dst)
            r_l = p
        else:  # ^h
            p = clamp(r_h * params.k_ter)
            r_h = p
        hz.append(p)
    # clamp keeps each target in range but a NaN, which 0 * inf makes (k_usw = inf on a 0 Hz register)
    if any(map(math.isnan, hz)):
        return PitchTargetSequence(zip(seq, hz), params.floor_hz, params.ceiling_hz)  # whose check refuses it
    return PitchTargetSequence._of(tuple(seq), hz, params.floor_hz, params.ceiling_hz)


def synthesize_contour(targets: PitchTargetSequence, tone_dur_ms: float = 150.0) -> F0Track:
    """Piecewise-constant F0 track from pitch targets, one segment per target.

    Frame hop is 10 ms; each target contributes tone_dur_ms worth of voiced
    frames at its own frequency.  More than MAX_CONTOUR_FRAMES frames, or a
    target outside 0 < hz < inf, is a ParameterError.  The track holds the
    targets, not the frames: its columns compute the values of
    np.arange(n) * hop_s and np.repeat(targets_hz, per) as they are read,
    without numpy; below the cap the times step uniformly.
    """
    from .pitch import F0Track, _voiced_range

    per = _frames_per_target(targets, tone_dur_ms)
    _voiced_range(targets._hz)  # refuses a target a floor_hz <= 0 or an infinite ceiling_hz let through; none is NaN
    n = len(targets) * per
    return F0Track._of(_Frames(n), _Frames(n, targets._hz, per), _HOP_S)


class _Frames:
    """A read-only column of a synthesized contour's n frames, computed as it is read: each of the targets hz
    repeated per times (its F0), or without hz, k * _HOP_S at frame k (its times).

    It answers len, int indexing (negative too), slices, as array("d"), and
    iteration: what F0Track's readers use of an array("d") column.
    """

    def __init__(self, n: int, hz: array | None = None, per: int = 1) -> None:
        self._n, self._hz, self._per = n, hz, per

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[float]:
        return self._values(range(self._n))

    def __getitem__(self, k: int | slice) -> float | array:
        frames = range(self._n)[k]  # IndexError past either end
        if isinstance(frames, range):
            return array("d", self._values(frames))
        return next(self._values(range(frames, frames + 1)))

    def _values(self, frames: range) -> Iterator[float]:
        if self._hz is None:
            return map(mul, frames, repeat(_HOP_S))  # k * hop_s, k converted to float exactly
        if frames.step != 1:
            return map(self._hz.__getitem__, map(floordiv, frames, repeat(self._per)))
        first, skip = divmod(frames.start, self._per)  # the target of the first frame, and its frames before it
        targets = memoryview(self._hz)[first:-(-frames.stop // self._per)]  # those of the frames, not copied
        return islice(chain.from_iterable(map(repeat, targets, repeat(self._per))), skip, skip + len(frames))


def _frames_per_target(targets: PitchTargetSequence, tone_dur_ms: float) -> int:
    """The frames each target of synthesize_contour holds, after its refusals."""
    if len(targets) == 0:
        raise DegenerateInputError("cannot synthesize a contour from zero targets")
    if tone_dur_ms <= 0:
        raise ParameterError(f"tone_dur_ms must be > 0, got {tone_dur_ms}")
    per = max(1, round(tone_dur_ms / 1000.0 / _HOP_S))
    if len(targets) * per > MAX_CONTOUR_FRAMES:
        raise ParameterError(f"--tone-dur-ms {tone_dur_ms:g} makes {per:.3g} frames for each of {len(targets)} "
                             f"targets, more than the cap of {MAX_CONTOUR_FRAMES} in all")
    return per
