"""Golden CLI transcripts: stdout, stderr and exit code of every command.

Each case runs ``main(argv)`` in-process on one of the files in
``tests/data`` and compares what it printed, byte for byte, with the
transcript stored under ``tests/data/golden``.  The stdout of
``scripts/walkthrough.py`` and of ``scripts/survey_random_complexes.py
--count 200 --seed 3`` is pinned the same way.  To record the transcripts
again (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
INDEX = GOLDEN / "cases.json"
SCRIPTS = Path(__file__).parents[1] / "scripts"
WALKTHROUGH = SCRIPTS / "walkthrough.py"
SURVEY = (SCRIPTS / "survey_random_complexes.py", "--count", "200", "--seed", "3")

FILES = ("demo", "demo_nonfaces", "two_edges")
COMMANDS = (
    "info", "shellable", "shelling-order", "vertex-decomposable",
    "k-decomposable", "shedding", "dual", "nonfaces", "link", "delete",
    "linear-quotients",
)
PERMUTATION = ("--permutation", "3,2,1,0,4,5,6,7")
# (file, command, tag, flags) beyond each command's defaults
VARIANTS = (
    ("demo", "shelling-order", "random5", ("--random", "--seed", "5")),
    ("demo", "linear-quotients", "random5", ("--random", "--seed", "5")),
    ("demo", "shelling-order", "perm", PERMUTATION),
    ("demo", "linear-quotients", "perm", PERMUTATION),
    ("demo_nonfaces", "shelling-order", "perm", PERMUTATION),
    ("demo", "k-decomposable", "k1", ("--k", "1")),
    ("demo", "shedding", "k1", ("--k", "1")),
    ("demo", "link", "face-a", ("--face", "a")),
    ("demo", "delete", "face-a", ("--face", "a")),
)


def cases() -> list[tuple[str, list[str]]]:
    """(case id, argv with the file name relative to ``tests/data``)."""
    plain = [(f, c, "", ()) for f in FILES for c in COMMANDS]
    out = []
    for file, command, tag, flags in plain + list(VARIANTS):
        for as_json in (False, True):
            name = "-".join(p for p in (file, command, tag, "json" if as_json else "") if p)
            argv = [command, *flags, *(["--json"] if as_json else []), f"{file}.cplx"]
            out.append((name, argv))
    return out


def capture(argv: list[str]) -> tuple[int, str, str]:
    from shellability.cli import main

    resolved = argv[:-1] + [str(DATA / argv[-1])]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(resolved)
    return code, out.getvalue(), err.getvalue()


def script_stdout(script: Path, *args: str) -> bytes:
    run = subprocess.run([sys.executable, str(script), *args], capture_output=True, check=True)
    return run.stdout


def walkthrough() -> bytes:
    return script_stdout(WALKTHROUGH)


def survey() -> bytes:
    return script_stdout(*SURVEY)


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name, argv in cases():
        code, out, err = capture(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode())
        index[name] = {"argv": argv, "exit": code, "stderr": err}
    INDEX.write_text(json.dumps(index, indent=1) + "\n")
    (GOLDEN / "walkthrough.out").write_bytes(walkthrough())
    (GOLDEN / "survey.out").write_bytes(survey())


def test_every_case_is_recorded():
    assert sorted(json.loads(INDEX.read_text())) == sorted(n for n, _ in cases())
    assert len(cases()) == 84


@pytest.mark.parametrize("name,argv", cases(), ids=[n for n, _ in cases()])
def test_transcript(name, argv):
    expected = json.loads(INDEX.read_text())[name]
    code, out, err = capture(argv)
    assert expected["argv"] == argv
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert err == expected["stderr"]
    assert code == expected["exit"]


def test_walkthrough():
    assert walkthrough() == (GOLDEN / "walkthrough.out").read_bytes()


def test_survey():
    assert survey() == (GOLDEN / "survey.out").read_bytes()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record()
