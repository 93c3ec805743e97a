"""The CLI's help and usage-error texts, pinned byte for byte.

run() builds argparse only for argv that the fast path does not take, and
the parser is built from the same table the fast path reads; these texts
were recorded before that table existed, so that every help text, usage line
and error message stays argparse's own.

argparse's wording changes between Python versions, so the texts are kept per
version.  They are recorded for 3.10 and 3.11, whose patch releases no longer
change argparse; 3.12 and 3.13 reworded its messages within their series, so
they have no record and skip.  To record the running version (COLUMNS=80 is
set here)::

    PYTHONPATH=src python tests/test_cli_texts.py

On every version, the parser's arguments are also compared with
cli_actions.json, a description of each action (option strings, dest,
default, type, choices, nargs, help, metavar, ...) and each subcommand's
defaults, recorded from the parser that the table replaced; its texts depend
on no Python version.  To record it::

    PYTHONPATH=src python tests/test_cli_texts.py actions
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from prosotime.cli import OUT_DIR_ENV, build_parser, run

TEXTS = Path(__file__).with_name("cli_texts.json")
ACTIONS = Path(__file__).with_name("cli_actions.json")
_VERSION = "%d.%d" % sys.version_info[:2]
SUBCOMMANDS = ("calibrate", "aems", "metrics", "timetree", "spectree", "tone-gen", "intonation", "f0", "contour-fit")
HELP = [["--help"], *([sub, "--help"] for sub in SUBCOMMANDS)]
# "{f0}" names a small F0 CSV; the other file names are never opened, as argparse refuses the argv first
USAGE = [
    [],
    ["frobnicate"],
    ["metrics", "words.csv", "--no-such-flag"],
    ["metrics"],
    ["timetree", "words.csv", "--relation", "x"],
    ["aems", "am.wav", "--cutoff-hz", "nan"],
    ["aems", "am.wav", "--cutoff-hz", "-1"],
    ["aems", "am.wav", "--env-rate", "1.5"],
    ["f0", "am.wav", "--f", "1"],
    ["intonation", "check", "--max-len", "3", "H*"],
    ["metrics", "words.csv", "--", "--json"],
    ["contour-fit", "{f0}", "--start-s", "0.1"],
    ["contour-fit", "{f0}", "--degree", "-1"],
]
F0_CSV = "time_s,f0_hz\n" + "".join(f"{k / 100!r},{100 + k % 7}\n" for k in range(20))


def _outcome(argv: list[str], root: Path) -> list:
    """[exit code, stdout, stderr] of run(argv), with COLUMNS=80 and the output directory under root."""
    (root / "track.f0.csv").write_text(F0_CSV)
    argv = [a.replace("{f0}", str(root / "track.f0.csv")) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80", OUT_DIR_ENV: str(root / "out")}), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    return [code, stdout.getvalue(), stderr.getvalue()]


def _plain(value):
    """value as JSON data: a callable by its name, a tuple as a list."""
    if callable(value):
        return value.__name__
    return list(value) if isinstance(value, tuple) else value


def _actions(parser) -> dict:
    """Each parser's actions and defaults, the top-level parser's under "", as JSON data."""
    (sub,) = [a for a in parser._actions if a.choices is not None and not a.option_strings]
    helps = {a.dest: a.help for a in sub._choices_actions}
    described = {}
    for name, p in [("", parser), *sub.choices.items()]:
        described[name] = {
            "help": helps.get(name),
            "defaults": {key: _plain(value) for key, value in sorted(p._defaults.items())},
            "actions": [[type(a).__name__, a.option_strings, a.dest, _plain(a.default), _plain(a.type),
                         _plain(a.choices) if name else None, a.nargs, a.help, a.metavar, a.required]
                        for a in p._actions],
        }
    return described


def test_parser_matches_the_recorded_actions():
    assert _actions(build_parser()) == json.loads(ACTIONS.read_text(encoding="utf-8"))


def _recorded() -> dict:
    texts = json.loads(TEXTS.read_text(encoding="utf-8")) if TEXTS.exists() else {}
    return texts.get(_VERSION, {})


@pytest.mark.parametrize("argv", HELP + USAGE, ids=lambda argv: " ".join(argv) or "(empty)")
def test_text_matches_the_record(argv, tmp_path):
    want = _recorded().get(json.dumps(argv))
    if want is None:
        pytest.skip(f"no text recorded on Python {_VERSION}")
    assert _outcome(argv, tmp_path) == want
    assert not (tmp_path / "out").exists()


def test_the_record_names_every_case():
    versions = json.loads(TEXTS.read_text(encoding="utf-8"))
    for texts in versions.values():
        assert sorted(texts) == sorted(json.dumps(argv) for argv in HELP + USAGE)
        assert {code for code, _, _ in texts.values()} == {0, 2}


if __name__ == "__main__" and sys.argv[1:] == ["actions"]:
    lines = []  # one action to a line
    for name, described in _actions(build_parser()).items():
        actions = ",\n   ".join(json.dumps(action, ensure_ascii=False) for action in described["actions"])
        lines.append(f' {json.dumps(name)}: {{"help": {json.dumps(described["help"])},'
                     f' "defaults": {json.dumps(described["defaults"])},\n  "actions": [\n   {actions}]}}')
    ACTIONS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded the parser's actions in {ACTIONS}", file=sys.stderr)
elif __name__ == "__main__":
    texts = json.loads(TEXTS.read_text(encoding="utf-8")) if TEXTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        texts[_VERSION] = {json.dumps(argv): _outcome(argv, Path(tmp)) for argv in HELP + USAGE}
    TEXTS.write_text(json.dumps(texts, indent=1, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(HELP + USAGE)} texts for Python {_VERSION} in {TEXTS}", file=sys.stderr)
