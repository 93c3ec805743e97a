"""Exception types shared across the toolkit.

Everything analysis-related derives from AnalysisError so callers (and the
CLI) can distinguish "your data/parameters made this impossible" from plain
bugs.
"""

import math


class AnalysisError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(AnalysisError):
    """A parameter value is out of its legal range (e.g. Nyquist violation)."""


class DegenerateInputError(AnalysisError):
    """Input is structurally valid but too small/constant to analyse."""


class SingularityError(AnalysisError):
    """A linear system turned out rank-deficient."""


class FormatError(AnalysisError):
    """A file is not in the expected format (names the offending part)."""


class ParseError(FormatError):
    """Malformed document content, addressed by line/row or byte offset."""

    def __init__(self, message, line=None, row=None, offset=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if row is not None:
            loc.append(f"row {row}")
        if offset is not None:
            loc.append(f"byte {offset}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.row = row
        self.offset = offset


class AlphabetError(ParameterError):
    """A symbol is not in the machine's alphabet for the given tape."""


def _positive(value, what, kind=float):
    """kind(value), when that is finite and > 0; ParameterError otherwise."""
    try:
        v = kind(value)
        ok = v > 0 and math.isfinite(v)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ParameterError(f"{what} must be finite and > 0, got {value}")
    return v
