"""Byte-stable default reports.

Each documented quintic runs through ``solve --json --svg``, ``config``,
``compare`` and ``verify`` as separate processes; the exit code, stdout,
stderr and every file written must equal the stored golden record byte for
byte.  ``python tests/test_golden.py`` rewrites the records, which is only
right when a change of report is intended and stated.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "hendecagon": "1,1,-4,-3,3,1",
    "readme": "1,0,-110,-55,2310,979",
    "hendecagon_times_2": "2,2,-8,-6,6,2",
    "zero_constant": "1,1,-4,-3,3,0",
    "tiny_constant": "1,0,0,0,0,1e-300",
    # five roots; five of the panels' lines miss their panel and are not drawn
    # (case 252 of the seed-0 unit-batch corpus)
    "lines_off_panel": "1.0,-4.220453770745659,1.1446624457767816,8.170406641073082,"
                       "-1.9519895871521022,-4.0921899837055085",
}

COMMANDS = {
    "solve": ["solve", "--json", "report.json", "--svg", "folds.svg"],
    "config": ["config"],
    "compare": ["compare"],
}


def _env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def run_case(coeffs: str, workdir: Path) -> dict:
    """Every command's exit code, output and written files, in run order."""
    record = {}
    runs = [(name, [*argv, "--coeffs", coeffs]) for name, argv in COMMANDS.items()]
    runs.append(("verify", ["verify", "--json", "report.json"]))
    for name, argv in runs:
        result = subprocess.run(
            [sys.executable, "-m", "origami_quintic.cli", *argv],
            cwd=workdir, capture_output=True, env=_env(),
        )
        record[name] = {
            "argv": argv,
            "code": result.returncode,
            "stdout": result.stdout.decode("utf-8"),
            "stderr": result.stderr.decode("utf-8"),
        }
    record["files"] = {
        path.name: path.read_bytes().decode("utf-8") for path in sorted(workdir.iterdir())
    }
    return record


@pytest.mark.parametrize("name", sorted(CASES))
def test_default_reports_are_byte_stable(name, tmp_path):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert run_case(CASES[name], tmp_path) == want


def test_tiny_constant_root():
    # t^5 + 1e-300 is solved in its 2^-199 frame; its one real root is -(1e-300)^(1/5)
    record = json.loads((GOLDEN / "tiny_constant.json").read_text(encoding="utf-8"))
    report = json.loads(record["files"]["report.json"])
    assert report["config"]["exponent"] == -199
    (sol,) = report["solutions"]
    assert sol["t"] == pytest.approx(-(1e-300 ** 0.2), rel=1e-15)
    t = Fraction(sol["t"])
    # the exact quintic changes sign within 1e-15 relative of t
    assert (t * (1 - Fraction(1, 10**15))) ** 5 + Fraction(1e-300) > 0
    assert (t * (1 + Fraction(1, 10**15))) ** 5 + Fraction(1e-300) < 0


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, coeffs in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            record = run_case(coeffs, Path(tmp))
        text = json.dumps(record, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
