"""The package's import surface: lazy public names and the CLI's import budget.

Every check runs in a fresh interpreter, because what a process has imported
depends on everything imported before it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _python(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


class TestLazyPackage:
    def test_import_loads_no_submodule(self):
        _python("-c", """
import sys
import prosotime
assert "numpy" not in sys.modules
assert [m for m in sys.modules if m.startswith("prosotime.")] == []
""")

    def test_star_import_binds_every_name_from_its_home_module(self):
        _python("-c", """
import sys
import prosotime
from prosotime import *
names = prosotime.__all__
assert len(names) == len(set(names)) == 65, len(names)
for name in names:
    obj = globals()[name]
    if name == "__version__":
        assert obj == prosotime.__version__
        continue
    home = obj.__module__
    assert home.startswith("prosotime."), (name, home)
    assert getattr(sys.modules[home], name) is obj, name
""")

    @pytest.mark.parametrize("first", [
        "import prosotime.aems",
        "from prosotime.aems import spectrum_to_csv",
        "import prosotime.rhythm",
        "import prosotime.cli",
        "from prosotime import aems",
        "from prosotime import *",
    ])
    def test_aems_stays_the_function_whatever_is_imported_first(self, first):
        _python("-c", f"""
{first}
import prosotime
import prosotime.aems
import prosotime.pitch
from prosotime import aems
from prosotime.aems import aems as home
assert aems is home and prosotime.aems is home and callable(aems)
""")

    def test_dir_lists_all(self):
        _python("-c", """
import prosotime
assert set(prosotime.__all__) <= set(dir(prosotime))
""")

    def test_unknown_attribute_raises_attribute_error(self):
        _python("-c", """
import prosotime
assert not hasattr(prosotime, "no_such_name")
try:
    prosotime.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise SystemExit("no AttributeError")
""")

    def test_submodules_resolve_as_attributes(self):
        _python("-c", """
import prosotime
assert callable(prosotime.fsm.count_strings)
assert prosotime.errors.ParseError is prosotime.ParseError
""")


def _imported_modules(importtime_stderr: str) -> list[str]:
    # lines read "import time: <self us> | <cumulative us> | <indent><module>"
    return re.findall(r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)$", importtime_stderr, re.M)


# The records are built without dataclasses, whose import costs about 3 ms a process, most
# of it in inspect, ast and dis; numpy imports inspect itself, the symbolic subcommands never.
# The JSON writer takes its string escape from _json, not from json.encoder, whose package
# loads json.decoder and json.scanner with their regexes.
SYMBOLIC_UNLOADED = ("dataclasses", "inspect", "ast", "json.decoder", "json.scanner")
# run() parses a plain command line itself; argparse, with the gettext and locale it loads, only for --help
# and usage errors
ARGPARSE = ("argparse", "gettext", "locale")


@pytest.mark.parametrize("argv, loads", [
    (["--help"], "argparse"),
    (["intonation", "check", "%H H* L- L%", "--out-dir", "{out}"], "prosotime.fsm"),
    (["intonation", "enum", "--max-len", "2", "--out-dir", "{out}"], "prosotime.fsm"),
    (["timetree", "{csv}", "--out-dir", "{out}"], "prosotime.svgplot"),
    (["timetree", "{csv}", "--relation", "trochaic", "--arity", "nary", "--json",
      "--out-dir", "{out}"], "prosotime.timetree"),
    (["metrics", "{csv}", "--out-dir", "{out}"], "prosotime.rhythm"),
    (["tone-gen", "H L H L H", "--out-dir", "{out}"], "prosotime.fsm"),
    (["contour-fit", "{f0csv}", "--out-dir", "{out}"], "prosotime._polyfit"),
    (["contour-fit", "{f0csv}", "--degree", "1", "--start-s", "0.05", "--end-s", "0.15", "--out-dir", "{out}"],
     "prosotime.svgplot"),
], ids=["help", "intonation-check", "intonation-enum", "timetree", "timetree-nary", "metrics", "tone-gen",
        "contour-fit", "contour-fit-domain"])
def test_symbolic_subcommands_never_import_numpy(argv, loads, words_csv_path, tmp_path):
    # contour-fit solves a system it can certify with the standard library, as this one
    f0csv = tmp_path / "track.f0.csv"
    f0csv.write_text("time_s,f0_hz\n" + "".join(f"{k / 100!r},{100 + k % 7}\n" for k in range(20)))
    argv = [a.format(csv=words_csv_path, f0csv=f0csv, out=tmp_path / "out") for a in argv]
    proc = _python("-X", "importtime", "-m", "prosotime.cli", *argv)
    modules = _imported_modules(proc.stderr)
    assert loads in modules
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []
    assert [m for m in modules if m in SYMBOLIC_UNLOADED + (() if argv == ["--help"] else ARGPARSE)] == []


@pytest.mark.parametrize("argv, unloaded", [
    (["f0", "{wav}"], ()),
    (["aems", "{wav}"], ()),
    (["spectree", "{wav}"], ()),
    (["calibrate"], ()),
    # fit_legendre defers this ramp to fit_polynomial from degree 22 on: numpy loads, the audio modules do not
    (["contour-fit", "{ramp}", "--degree", "30"], ("prosotime.aems", "prosotime.audio")),
], ids=["f0", "aems", "spectree", "calibrate", "contour-fit-deferred"])
def test_signal_subcommands_never_import_numpy_ma(argv, unloaded, am_wav_path, tmp_path):
    # np.median and np.unique import numpy.ma, which costs about 4 ms a process; numpy.polynomial about 2.5 ms
    ramp = tmp_path / "ramp.f0.csv"
    ramp.write_text("time_s,f0_hz\n" + "".join(f"{k / 100:.2f},{100 + k % 7}\n" for k in range(500)))
    argv = [a.format(wav=am_wav_path, ramp=ramp) for a in argv] + ["--out-dir", str(tmp_path / "out")]
    _python("-c", f"""
import sys
from prosotime.cli import run
assert run({argv!r}) == 0
assert "numpy" in sys.modules
loaded = [m for m in ("numpy.ma", "numpy.polynomial", "dataclasses", *{ARGPARSE!r}, *{unloaded!r}) if m in sys.modules]
assert loaded == [], loaded
""")


def test_tree_induction_imports_no_annotation_reader():
    # timetree takes any (label, value) pairs, so the TextGrid/CSV parsers stay unloaded
    _python("-c", """
import sys
import prosotime.timetree
assert "prosotime.annot" not in sys.modules
assert "csv" not in sys.modules
""")


@pytest.mark.parametrize("argv", [["calibrate"]], ids=["calibrate"])
def test_numeric_subcommand_does_import_numpy(argv, tmp_path):
    # the guard above would pass vacuously if the parse found no numpy anywhere
    proc = _python("-X", "importtime", "-m", "prosotime.cli", *argv, "--out-dir", str(tmp_path))
    modules = _imported_modules(proc.stderr)
    assert "numpy" in modules and "dataclasses" not in modules
