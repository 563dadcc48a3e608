"""The operations each workload runs, and the checks applied to every result.

An attempt never aborts the run: whatever it raises or exits with is
recorded as an ``Outcome`` and counted.  The library is reached only
through module attributes (``lib.foldconfig.build_config``), so the tracer
in ``tracing.py`` sees every call once it has rebound those attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from corpus import Case

TOL = 1e-9  # verification tolerance, the CLI's default
# a returned root matches a reference root within this share of the case's
# largest root magnitude
ROOT_MATCH_RTOL = 1e-6
CLI_COMMANDS = ("solve", "verify", "compare")
CLI_TIMEOUT_S = 20.0
WARMUP_CASES = {"unit-batch": 20, "wide-scale": 20, "cli-report": 2}


@dataclass
class Outcome:
    """One attempt: a library solve, or one CLI command on one case."""

    op: str  # "solve" for a library attempt, else the CLI command
    seconds: float
    verified: bool
    error: str | None = None  # exception class or CLI failure reason
    refs: int = 0  # reference roots; set on solve attempts only
    matched: int = 0
    spurious: int = 0
    report_bytes: int = 0
    scale: float = 1.0  # raw to reference-speed seconds, see calibration.py

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def load_library(src: Path) -> SimpleNamespace:
    """Import the package under test from ``src``."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import origami_quintic  # noqa: F401  (the import is what setup times)
    from origami_quintic import cli, foldconfig, foldsolve, geometry, polynomial, render

    return SimpleNamespace(cli=cli, foldconfig=foldconfig, foldsolve=foldsolve,
                           geometry=geometry, polynomial=polynomial, render=render)


def match_roots(case: Case, returned: list[float]) -> tuple[int, int]:
    """(matched reference roots, spurious returned roots), one to one."""
    tol = ROOT_MATCH_RTOL * case.root_scale
    free = [r for r, _ in case.roots]
    spurious = 0
    for t in sorted(returned):
        best = min(free, key=lambda r: abs(r - t), default=None)
        if best is not None and abs(best - t) <= tol:
            free.remove(best)
        else:
            spurious += 1
    return len(case.roots) - len(free), spurious


def solve_case(lib: SimpleNamespace, case: Case) -> Outcome:
    """normalize_monic -> build_config -> solve_all, timed as one attempt."""
    start = time.perf_counter()
    try:
        q = lib.polynomial.normalize_monic(case.coeffs)
        cfg = lib.foldconfig.build_config(q)
        sols = lib.foldsolve.solve_all(cfg, q)
    except Exception as exc:  # every failure is counted by class, never fatal
        seconds = time.perf_counter() - start
        return Outcome("solve", seconds, False, type(exc).__name__, refs=len(case.roots))
    seconds = time.perf_counter() - start
    verified = all(s.residuals.passes(TOL) for s in sols)
    matched, spurious = match_roots(case, [s.t for s in sols])
    return Outcome("solve", seconds, verified, None if verified else "residual_above_tol",
                   refs=len(case.roots), matched=matched, spurious=spurious)


def cli_argv(command: str, case: Case, tmp: Path) -> list[str]:
    report, svg = str(tmp / "report.json"), str(tmp / "folds.svg")
    if command == "solve":
        return ["solve", f"--coeffs={case.coeffs_arg}", "--json", report, "--svg", svg]
    if command == "verify":
        return ["verify", "--json", report]
    return ["compare", f"--coeffs={case.coeffs_arg}"]


def cli_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("ORIGAMI_QUINTIC_TOL", None)  # the default tolerance is the one measured
    return env


def spawn_case(case: Case, tmp: Path, env: dict[str, str]) -> list[Outcome]:
    """The three CLI processes for one case, one after the other."""
    _clear(tmp)
    outcomes = []
    for command in CLI_COMMANDS:
        argv = [sys.executable, "-m", "origami_quintic.cli", *cli_argv(command, case, tmp)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            seconds = time.perf_counter() - start
            outcomes.append(Outcome(command, seconds, False, "timeout"))
            continue
        seconds = time.perf_counter() - start
        outcomes.append(_check_cli(command, case, tmp, seconds, proc.returncode,
                                   proc.stdout, proc.stderr))
    return outcomes


def main_case(lib: SimpleNamespace, case: Case, tmp: Path) -> list[Outcome]:
    """The same three commands through in-process ``cli.main``."""
    _clear(tmp)
    outcomes = []
    for command in CLI_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(cli_argv(command, case, tmp))
            except Exception as exc:  # cli.main should never raise; count it if it does
                code = f"raised {type(exc).__name__}"
        seconds = time.perf_counter() - start
        outcomes.append(_check_cli(command, case, tmp, seconds, code,
                                   out.getvalue(), err.getvalue()))
    return outcomes


def solved_case(outcomes: list[Outcome]) -> bool:
    """A CLI case is a verified solve when its solve and verify both pass."""
    return all(o.verified for o in outcomes if o.op in ("solve", "verify"))


def warm_up(lib: SimpleNamespace, workload: str, cases: list[Case], tmp: Path) -> None:
    """The pass run before timing: first calls, lazy imports, file cache."""
    for case in cases[: WARMUP_CASES[workload]]:
        if workload == "cli-report":
            main_case(lib, case, tmp)
        else:
            solve_case(lib, case)


def _clear(tmp: Path) -> None:
    for name in ("report.json", "folds.svg"):
        with contextlib.suppress(FileNotFoundError):
            (tmp / name).unlink()


def _check_cli(command: str, case: Case, tmp: Path, seconds: float, code,
               stdout: str, stderr: str) -> Outcome:
    """Exit code, stderr and the JSON each command leaves behind."""
    outcome = Outcome(command, seconds, False)
    if command == "solve":
        # the report exists for exit 0 and for exit 3 (residual above tol)
        outcome.refs = len(case.roots)
        try:
            text = (tmp / "report.json").read_text(encoding="utf-8")
            roots = [float(s["t"]) for s in json.loads(text)["solutions"]]
        except FileNotFoundError:
            roots = None
        except (ValueError, KeyError, TypeError):
            outcome.error = "report_unparsable"
            return outcome
        if roots is not None:
            outcome.report_bytes = len(text.encode("utf-8"))
            outcome.matched, outcome.spurious = match_roots(case, roots)
        elif code == 0:
            outcome.error = "report_missing"
            return outcome
        if code == 0 and roots and not _is_svg(tmp / "folds.svg"):
            outcome.error = "svg_missing"
            return outcome
    elif command == "compare" and code == 0:
        try:
            json.loads(stdout)
        except ValueError:
            outcome.error = "report_unparsable"
            return outcome
    if "Traceback" in stderr:
        outcome.error = "traceback"
    elif code != 0:
        outcome.error = f"exit_{code}"
    else:
        outcome.verified = True
    return outcome


def _is_svg(path: Path) -> bool:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read(256).lstrip().startswith(("<svg", "<?xml"))
    except OSError:
        return False
