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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

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


@dataclass(frozen=True)
class Transition:
    """One arc with one label per tape."""

    src: str
    dst: str
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class MultiTapeFSM:
    """A deterministic finite-state machine reading/writing a fixed number of tapes."""

    states: frozenset[str]
    start: str
    finals: frozenset[str]
    n_tapes: int
    transitions: tuple[Transition, ...]
    # per tape: (state, symbol) -> arc, and the sorted symbols
    _arcs: tuple[dict[tuple[str, str], Transition], ...] = field(init=False, repr=False, compare=False)
    _alphabets: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "transitions", tuple(self.transitions))
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
        object.__setattr__(self, "_arcs", arcs)
        object.__setattr__(
            self, "_alphabets", tuple(tuple(sorted({s for _, s in a})) for a in arcs)
        )

    def alphabet(self, tape: int = 0) -> tuple[str, ...]:
        """Sorted distinct symbols on one tape."""
        self._check_tape(tape)
        return self._alphabets[tape]

    def _check_tape(self, tape: int) -> None:
        if not 0 <= tape < self.n_tapes:
            raise ParameterError(f"tape {tape} out of range for {self.n_tapes}-tape machine")


def recognize(fsm: MultiTapeFSM, symbols: Iterable[str] | str, tape: int = 0) -> bool:
    """True iff the start-to-final path spells the input on the given tape.

    Unknown symbols raise AlphabetError.
    """
    alphabet = fsm.alphabet(tape)
    seq = symbols.split() if isinstance(symbols, str) else list(symbols)
    known = set(alphabet)
    for sym in seq:
        if sym not in known:
            raise AlphabetError(f"symbol {sym!r} not in tape-{tape} alphabet {list(alphabet)}")
    table = fsm._arcs[tape]
    state = fsm.start
    for sym in seq:
        arc = table.get((state, sym))
        if arc is None:
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

    Symbols within a string are joined by single spaces; ordering is
    lexicographic over the symbol sequences, which a preorder walk taking
    symbols in sorted order yields directly.  More than MAX_STRINGS strings
    is a ParameterError, raised before any is built.
    """
    count_strings(fsm, max_len, tape)
    alphabet = fsm.alphabet(tape)
    table = fsm._arcs[tape]
    accepted: list[str] = []
    stack: list[tuple[str, tuple[str, ...]]] = [(fsm.start, ())]
    while stack:
        state, prefix = stack.pop()
        if state in fsm.finals:
            accepted.append(" ".join(prefix))
        if len(prefix) < max_len:
            for sym in reversed(alphabet):  # pushed last-first, popped in order
                arc = table.get((state, sym))
                if arc is not None:
                    stack.append((arc.dst, prefix + (sym,)))
    return accepted


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


@dataclass(frozen=True)
class TerracingParams:
    """Registers and ratios of the two-register terracing model.

    The four ratios correspond to the four pitch actions: upsweep raises the
    high register (k_usw > 1), downdrift lowers the low register (k_dd < 1),
    downstep maps the high register onto the following low (k_dst < 1), and
    upstep terraces each new high below the previous high register
    (k_ter < 1).  All targets are clamped to [floor_hz, ceiling_hz].
    """

    p_h0: float = 170.0
    p_l0: float = 110.0
    k_usw: float = 1.02
    k_dd: float = 0.98
    k_dst: float = 0.70
    k_ter: float = 0.90
    floor_hz: float = 60.0
    ceiling_hz: float = 400.0

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class PitchTargetSequence:
    """Ordered (phonetic label, target Hz) pairs within the model's range."""

    items: tuple[tuple[str, float], ...]
    floor_hz: float = 60.0
    ceiling_hz: float = 400.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "items", tuple((str(lab), float(hz)) for lab, hz in self.items)
        )
        for lab, hz in self.items:
            if not self.floor_hz <= hz <= self.ceiling_hz:
                raise ParameterError(
                    f"target {hz} Hz for {lab!r} outside [{self.floor_hz}, {self.ceiling_hz}]"
                )

    @property
    def targets_hz(self) -> tuple[float, ...]:
        return tuple(hz for _, hz in self.items)

    def __len__(self) -> int:
        return len(self.items)


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
    for lab in seq:
        if lab not in _TERRACING.alphabet(1):
            raise AlphabetError(f"unknown phonetic label {lab!r}")

    def clamp(x: float) -> float:
        return min(max(x, params.floor_hz), params.ceiling_hz)

    r_h = params.p_h0
    r_l = params.p_l0
    items: list[tuple[str, float]] = []
    for k, lab in enumerate(seq):
        if lab in ("hc", "lc") and k != 0:
            raise ParameterError(
                f"malformed sequence: initial label {lab!r} at position {k}"
            )
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
        items.append((lab, p))
    return PitchTargetSequence(
        items=tuple(items), floor_hz=params.floor_hz, ceiling_hz=params.ceiling_hz
    )


def synthesize_contour(targets: PitchTargetSequence, tone_dur_ms: float = 150.0) -> F0Track:
    """Piecewise-constant F0 track from pitch targets, one segment per target.

    Frame hop is 10 ms; each target contributes tone_dur_ms worth of voiced
    frames at its own frequency.  More than MAX_CONTOUR_FRAMES frames is a
    ParameterError, raised before any is built.
    """
    import numpy as np  # recognition and enumeration never need numpy

    from .pitch import F0Track

    if len(targets) == 0:
        raise DegenerateInputError("cannot synthesize a contour from zero targets")
    if tone_dur_ms <= 0:
        raise ParameterError(f"tone_dur_ms must be > 0, got {tone_dur_ms}")
    hop_s = 0.01
    per = max(1, round(tone_dur_ms / 1000.0 / hop_s))
    if len(targets) * per > MAX_CONTOUR_FRAMES:
        raise ParameterError(f"--tone-dur-ms {tone_dur_ms:g} makes {per:.3g} frames for each of {len(targets)} "
                             f"targets, more than the cap of {MAX_CONTOUR_FRAMES} in all")
    f0 = np.repeat(targets.targets_hz, per)
    return F0Track(times_s=np.arange(len(f0)) * hop_s, f0_hz=f0, hop_s=hop_s)
