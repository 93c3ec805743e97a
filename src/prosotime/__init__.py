"""Time-domain prosody toolkit.

Rhythm dispersion metrics, metrical time trees, multi-tape prosodic
grammars, amplitude envelope modulation spectra, and F0 contour modeling,
with a batch command line (``prosotime``) emitting JSON, CSV and SVG.

Public names resolve lazily (PEP 562): ``import prosotime`` loads no
submodule, and numpy is imported only by the first name that needs it.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines, in __all__ order
_EXPORTS = {
    "audio": ("Waveform", "read_wav", "write_wav_pcm16", "synthesize_am"),
    "_polyfit": ("PolyFit", "fit_polynomial"),
    "aems": (
        "Envelope", "Spectrum", "FrequencyZone",
        "rectify_full_wave", "extract_envelope_peaks", "smooth_envelope",
        "dft_magnitude", "aems", "detect_zones", "zscore",
    ),
    "annot": (
        "Interval", "Tier", "AnnotationDoc", "DurationSequence",
        "parse_textgrid", "parse_csv_annotation", "annotation_to_csv", "durations",
        "AnnotationWarning",
    ),
    "rhythm": (
        "QuadrantStats", "variance", "pim", "pfd", "rpvi", "npvi",
        "quadrant_analysis", "metrics_report",
    ),
    "timetree": (
        "TimeTree", "TreeParams", "induce_time_tree", "induce_spectral_hierarchy",
        "to_sexpr", "tree_to_dict",
    ),
    "fsm": (
        "Transition", "MultiTapeFSM", "PitchTargetSequence",
        "TerracingParams", "recognize", "enumerate_strings", "build_pierrehumbert",
        "build_terracing", "transduce_tones", "realize_pitch", "synthesize_contour",
    ),
    "pitch": (
        "F0Track", "IPU", "PolyContourModel", "estimate_f0_autocorr",
        "segment_ipus", "fit_contour", "parse_f0_csv",
    ),
    "errors": (
        "AnalysisError", "ParameterError", "DegenerateInputError",
        "SingularityError", "FormatError", "ParseError", "AlphabetError",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:  # a submodule, bound on first use
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package module, whose ``aems`` stays the function.

    Loading a submodule binds it on its package; for ``prosotime.aems`` that
    would shadow the public function of the same name, so that one binding
    is dropped.
    """

    def __setattr__(self, name: str, value) -> None:
        if name == "aems" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
