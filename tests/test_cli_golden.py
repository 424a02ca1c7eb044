"""Golden runs of every shipped CLI entry point.

Each case runs `cli.main` once and compares its exit code and its full
output, byte for byte, with a file under tests/golden/.  Rewrites that
claim to keep words, receipts and exit codes unchanged are held to it.

To regenerate the files after an intended output change, run
`PYTHONPATH=src python tests/test_cli_golden.py` from the repository root.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chevcalc import cli

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
GOLDEN = Path(__file__).resolve().parent / "golden"

# the five refusals are the intended outcomes of those instance files
INSTANCE_EXIT = {
    "decomposition_a2": 0,
    "dilate_a2": 0,
    "empty_word": 0,
    "for_dilation_a2": 0,
    "for_dilation_c2_defect": 0,
    "lgp_cover23": 0,
    "lgp_cover23_global": 0,
    "lgp_cover23_interleaved": 0,
    "lgp_cover24": 17,
    "lgp_disagreeing_data": 20,
    "lgp_nilpotent_cover_z9": 0,
    "lgp_not_trivial_at_zero": 11,
    "lgp_unit": 0,
    "moving_t_a2": 0,
    "moving_t_a2_no_level_side": 12,
    "sp_relinc_c2_z5t": 0,
    "sp_relinc_c2z": 13,
    "splitting_a2": 0,
}
SUITES = ("steinberg", "absolute", "gij", "relcomm", "eee")
# `tables --system E8` prints 694 KB, too much for a golden file; its
# sha256 pins it instead
TABLES_E8_SHA256 = "9520a15ff3a4dabd44b87aced2c69bf77f7339262bcca2027b343fc585e2dc6e"


def _cases():
    out = []
    for name, code in sorted(INSTANCE_EXIT.items()):
        path = str(INSTANCES / (name + ".json"))
        argv = ["lgp", "--problem", path] if name.startswith("lgp_") else [
            "demo", "--instance", path]
        out.append((name + ".json", argv, code))
    for system in ("A2", "B3", "C2", "F4", "G2"):
        out.append(("tables_%s.txt" % system, ["tables", "--system", system], 0))
    for suite in SUITES:
        argv = ["verify", "--suite", suite, "--system", "A2", "--ring", "Z[t]",
                "--ideal", "3", "--ideal2", "t", "--count", "4", "--seed", "11"]
        out.append(("verify_%s.json" % suite, argv, 0))
    return out


CASES = _cases()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_every_instance_has_a_case():
    assert sorted(p.stem for p in INSTANCES.glob("*.json")) == sorted(INSTANCE_EXIT)


@pytest.mark.parametrize("golden,argv,code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(golden, argv, code):
    got_code, text = _run(argv)
    assert got_code == code
    assert text == (GOLDEN / golden).read_text()


def test_tables_e8_digest():
    code, text = _run(["tables", "--system", "E8"])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == TABLES_E8_SHA256


def test_the_module_runs_as_a_process():
    # `python -m chevcalc.cli` in a fresh interpreter, as a shell runs it:
    # the exit code and the bytes on stdout come from the process itself
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "chevcalc.cli", *argv],
                              cwd=ROOT, env=env, capture_output=True, timeout=60)

    tables = run("tables", "--system", "A2")
    assert tables.returncode == 0
    assert tables.stdout == (GOLDEN / "tables_A2.txt").read_bytes()
    assert run("lgp", "--problem", "instances/lgp_cover24.json").returncode == 17


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for golden, argv, code in CASES:
        got_code, text = _run(argv)
        if got_code != code:
            sys.exit("%s exited %d, expected %d" % (golden, got_code, code))
        (GOLDEN / golden).write_text(text)
