"""The CLI as a process: how `prosotime` ends, a stdout it cannot write, and
child runs that match run() in process byte for byte.

Each check starts `python -m prosotime.cli`, the path of the console script's
`main()`, in a fresh interpreter.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prosotime.cli import run

ROOT = Path(__file__).resolve().parents[1]
CHECK = ["intonation", "check", "%H H* L- L%"]
# stdout is block-buffered unless PYTHONUNBUFFERED is set; each mode fails at its own write
BUFFERING = {"buffered": None, "unbuffered": "1"}


def _env(unbuffered=None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


def _cli(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "prosotime.cli", *args], env=_env(), capture_output=True,
                          timeout=120)


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}


def _assert_one_error_line(stderr: bytes) -> None:
    text = stderr.decode()
    assert "Exception ignored" not in text and "Traceback" not in text, text
    lines = text.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), text


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")


@pytest.mark.parametrize("mode", BUFFERING)
class TestStdoutFailure:
    """A stdout that cannot be written is an OSError in run(): one error line and exit 1."""

    @needs_dev_full
    def test_summary_to_full_device(self, mode, tmp_path):
        out = tmp_path / "out"
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "prosotime.cli", *CHECK, "--out-dir", str(out)],
                                  stdout=full, stderr=subprocess.PIPE, env=_env(BUFFERING[mode]), timeout=120)
        assert proc.returncode == 1
        _assert_one_error_line(proc.stderr)
        assert _files(out) == {}  # the report written before the failure is removed

    @needs_dev_full
    def test_help_to_full_device(self, mode):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "prosotime.cli", "--help"], stdout=full,
                                  stderr=subprocess.PIPE, env=_env(BUFFERING[mode]), timeout=120)
        assert proc.returncode == 1
        _assert_one_error_line(proc.stderr)

    def test_json_report_into_closed_pipe(self, mode, tmp_path):
        out = tmp_path / "out"
        argv = [sys.executable, "-m", "prosotime.cli", "intonation", "enum", "--max-len", "7", "--json",
                "--out-dir", str(out)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(BUFFERING[mode]))
        assert proc.stdout.read(10) == b"count=1992"  # then stop reading, as `head -c 10` does
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        _assert_one_error_line(stderr)
        assert "Broken pipe" in stderr.decode()
        assert _files(out) == {}


@pytest.mark.parametrize("subcommand, rows", [
    ("timetree", ["words,café,0.0,0.5", "words,b,0.5,0.8"]),  # a leaf label in the s-expression
    ("metrics", ["wörter,a,0.0,0.5", "wörter,b,0.5,0.8"]),  # the tier name
])
def test_summary_stdout_cannot_encode(subcommand, rows, tmp_path):
    # a summary that stdout's encoding cannot encode ends as an unwritable stdout does
    csv, out = tmp_path / "tier.csv", tmp_path / "out"
    csv.write_text("\n".join(["tier,label,start_s,end_s", *rows, ""]), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "prosotime.cli", subcommand, str(csv), "--out-dir", str(out)],
                          env=dict(_env(), PYTHONIOENCODING="ascii"), capture_output=True, timeout=120)
    assert proc.returncode == 1
    _assert_one_error_line(proc.stderr)
    assert "'ascii' codec can't encode" in proc.stderr.decode()
    assert _files(out) == {}  # the report and the SVG written before the summary are removed


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["summary", "json"])
def test_process_without_stdout_writes_its_files(extra, tmp_path):
    # started with fd 1 closed, Python sets sys.stdout to None and print() writes nothing
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m prosotime.cli "$@" >&-', sys.executable, *CHECK, *extra,
                           "--out-dir", str(tmp_path)], env=_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert list(_files(tmp_path)) == ["intonation.json"]


def _in_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


@pytest.fixture
def f0_csv_path(tmp_path):
    path = tmp_path / "track.f0.csv"
    path.write_text("time_s,f0_hz\n" + "".join(f"{k / 100!r},{100 + k % 7 * 3}\n" for k in range(60)))
    return path


@pytest.mark.parametrize("argv, code", [
    (["calibrate"], 0),
    (["aems", "{wav}", "--cutoff-hz", "20"], 0),
    (["metrics", "{csv}"], 0),
    (["timetree", "{csv}", "--arity", "nary", "--json"], 0),
    (["spectree", "{wav}"], 0),
    (["tone-gen", "H L H L H", "--json"], 0),
    (CHECK, 0),
    (["f0", "{wav}"], 0),
    (["contour-fit", "{f0csv}", "--degree", "2"], 0),
    (["intonation", "enum", "--max-len", "6", "--json"], 0),  # about 74 kB: more than a pipe holds
    (["metrics", "{missing}"], 1),
    (["aems", "{wav}", "--cutoff-hz", "nan"], 2),
], ids=["calibrate", "aems", "metrics", "timetree", "spectree", "tone-gen", "intonation-check", "f0",
        "contour-fit", "intonation-enum", "exit-1", "exit-2"])
def test_child_matches_run_in_process(argv, code, am_wav_path, words_csv_path, f0_csv_path, tmp_path,
                                      monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal width
    argv = [a.format(wav=am_wav_path, csv=words_csv_path, f0csv=f0_csv_path, missing=tmp_path / "missing.csv")
            for a in argv]
    child = _cli(*argv, "--out-dir", str(tmp_path / "child"))
    here = _in_process([*argv, "--out-dir", str(tmp_path / "here")])
    assert (child.returncode, child.stdout, child.stderr) == here
    assert here[0] == code
    assert _files(tmp_path / "child") == _files(tmp_path / "here")
    assert code != 0 or _files(tmp_path / "here")


_ATEXIT_CHILD = """
import atexit, os, sys

out = sys.argv[1]
atexit.register(lambda: print("atexit", sorted(os.listdir(out)) if os.path.exists(out) else None))
sys.argv = ["prosotime", *sys.argv[2:], "--out-dir", out]
from prosotime.cli import main
main()
print("main returned")
"""


@pytest.mark.parametrize("argv, code, files", [
    (CHECK, 0, ["intonation.json"]),
    (["metrics", "{missing}"], 1, None),
    (["intonation", "enum", "--max-len", "-1"], 2, None),
], ids=["ok", "exit-1", "exit-2"])
def test_main_runs_atexit_callbacks_then_exits_with_run_code(argv, code, files, tmp_path):
    argv = [a.format(missing=tmp_path / "missing.csv") for a in argv]
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", _ATEXIT_CHILD, str(out), *argv], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    # the callback's own print is flushed after it: it runs once, with the artifacts in place
    assert proc.stdout.splitlines()[-1] == f"atexit {files}"
    assert proc.stdout.count("atexit") == 1
    assert "Traceback" not in proc.stderr


_TEARDOWN_CHILD = """
import os, sys

class Teardown:
    def __del__(self, write=os.write):  # module globals may be gone by then
        write(1, b"teardown\\n")

marker = Teardown()
if sys.argv[1] == "traced":
    sys.settrace(lambda *args: None)
sys.argv = ["prosotime", "intonation", "check", "%H H* L- L%", "--out-dir", sys.argv[2]]
from prosotime.cli import main
main()
"""


@pytest.mark.parametrize("how, teardown", [("plain", False), ("traced", True)])
def test_main_skips_teardown_unless_traced(how, teardown, tmp_path):
    proc = subprocess.run([sys.executable, "-c", _TEARDOWN_CHILD, how, str(tmp_path)], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("accepted=true\n")
    assert ("teardown" in proc.stdout) == teardown


def test_profiled_cli_prints_its_table(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "prosotime.cli", *CHECK,
                           "--out-dir", str(tmp_path)], env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("accepted=true\n")
    assert "function calls" in proc.stdout and "Ordered by" in proc.stdout
    assert (tmp_path / "intonation.json").exists()
