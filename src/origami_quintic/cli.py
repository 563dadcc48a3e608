"""Command-line front door: solve, config, compare, verify.

Exit codes: 0 success, 2 configuration error, 3 verification failure,
64 usage error, 65 unreadable report file.  JSON goes to stdout unless
--json PATH is given; reports are byte-stable across runs unless --timing
is requested.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import NamedTuple

from . import foldconfig, foldsolve, polynomial
from .errors import ConfigMismatch, DegenerateDegree, OrigamiQuinticError
from .foldconfig import Branch, FoldConfig
from .foldsolve import FoldSolution
from .geometry import Line, canonical_gap, fold_xi
from .polynomial import Quintic, worst_item

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64
EXIT_DATA = 65

DEFAULT_TOL = 1e-9
DEFAULT_ROOT_TOL = 1e-12
H_MIN, H_MAX = 2.0**-128, 2.0**128
TOL_ENV_VAR = "ORIGAMI_QUINTIC_TOL"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; we need 64
        raise UsageError(message)


class RunReport(NamedTuple):
    """Everything one solve run produces, in JSON-ready form."""

    raw: list[float]
    monic: Quintic
    config: FoldConfig | None
    solutions: list[FoldSolution]
    warnings: list[str]
    timing_ms: float | None = None


def parse_coeffs(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 6:
        raise UsageError(f"--coeffs needs 6 comma-separated values, got {len(parts)}")
    try:
        return [polynomial.parse_coefficient(p) for p in parts]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def read_quintic(text: str) -> tuple[list[float], Quintic]:
    """The raw --coeffs values and their monic form.

    Dividing by a tiny leading coefficient can overflow; a monic
    coefficient that is not finite is a usage error naming it.
    """
    raw = parse_coeffs(text)
    monic = polynomial.normalize_monic(raw)
    for i, value in enumerate(monic.coeffs):
        if not math.isfinite(value):
            raise UsageError(
                f"monic coefficient {i} is {value!r}: {raw[i]!r} / {raw[0]!r} overflows"
            )
    return raw, monic


def _config_dict(cfg: FoldConfig) -> dict:
    return {**cfg._asdict(), "branch": cfg.branch.value}


def _solution_dict(sol: FoldSolution) -> dict:
    return {
        "t": sol.t,
        "s": sol.s,
        "xi": sol.xi._asdict(),
        "chi": sol.chi._asdict(),
        "q_image": [sol.q_image.x, sol.q_image.y],
        "p_image": [sol.p_image.x, sol.p_image.y],
        "residuals": sol.residuals.as_dict(),
        "parallel_case": sol.parallel_case,
        "multiplicity": sol.multiplicity,
        "diagnostics": list(sol.diagnostics),
    }


def report_to_dict(report: RunReport) -> dict:
    out = {
        "quintic": {"raw": report.raw, "monic": list(report.monic.coeffs)},
        "config": None if report.config is None else _config_dict(report.config),
        "solutions": [_solution_dict(s) for s in report.solutions],
        "warnings": report.warnings,
    }
    if report.timing_ms is not None:
        out["timing_ms"] = report.timing_ms
    return out


def _line_from_dict(data: dict) -> Line:
    return Line(float(data["a"]), float(data["b"]), float(data["c"]))


def config_from_dict(data: dict) -> FoldConfig:
    return FoldConfig._make(Branch(data[name]) if name == "branch" else float(data[name])
                            for name in FoldConfig._fields)


def _dump(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _tol(args) -> float:
    """The verification tolerance: --tol, else the environment, else the default."""
    if args.tol is not None:
        source, tol = "--tol", args.tol
    else:
        env = os.environ.get(TOL_ENV_VAR)
        if env is None:
            return DEFAULT_TOL
        try:
            source, tol = TOL_ENV_VAR, float(env)
        except ValueError:
            raise UsageError(f"{TOL_ENV_VAR} is not a number: {env!r}") from None
    if not 0.0 <= tol < math.inf:
        raise UsageError(f"{source} must be a finite number >= 0, got {tol!r}")
    return tol


def _check_options(args) -> None:
    """Resolve --tol and reject numeric options the solver cannot use.

    h is held to [2^-128, 2^128], where every power of h that the
    construction forms (up to h^6) is a finite, nonzero float.
    """
    if hasattr(args, "tol"):
        args.tol = _tol(args)
    h = getattr(args, "h_override", None)
    if h is not None and not H_MIN <= h <= H_MAX:
        raise UsageError(f"--h must be from 2^-128 to 2^128, got {h!r}")
    root_tol = getattr(args, "root_tol", None)
    if root_tol is not None and not 0.0 < root_tol < math.inf:
        raise UsageError(f"--root-tol must be a finite number > 0, got {root_tol!r}")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--coeffs", required=True,
                     help="six coefficients, descending degree; fractions like -22/5 allowed")
    sub.add_argument("--h", type=float, default=None, dest="h_override",
                     help="override the automatic choice of h")
    sub.add_argument("--branch", choices=["plus", "minus"], default="plus")
    sub.add_argument("--json", default=None, metavar="PATH",
                     help="write the JSON report here instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="origami-quintic",
                     description="Solve quintics through the two-simultaneous-fold construction.")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="solve the quintic and verify every fold")
    _add_common(solve)
    solve.add_argument("--svg", default=None, metavar="PATH",
                       help="write an SVG gallery of the solutions")
    solve.add_argument("--timing", action="store_true", help="include timing_ms in the report")

    config = subs.add_parser("config", help="emit the fold configuration only")
    _add_common(config)

    compare = subs.add_parser("compare",
                              help="direct construction vs. the depressed-form route")
    _add_common(compare)

    verify = subs.add_parser("verify", help="re-check a stored solve report")
    verify.add_argument("--json", required=True, metavar="PATH")
    for sub in (solve, verify):
        sub.add_argument("--tol", type=float, default=None,
                         help=f"verification tolerance (default {DEFAULT_TOL}, env {TOL_ENV_VAR})")
    for sub in (solve, compare):
        sub.add_argument("--root-tol", type=float, default=DEFAULT_ROOT_TOL)
    return parser


def _solve_report(args, tol: float) -> RunReport:
    raw, monic = read_quintic(args.coeffs)
    warnings: list[str] = []
    start = time.perf_counter()
    if monic.a0 == 0.0:
        quartic = monic.coeffs[:5]
        warnings.append(
            "constant term is zero: t = 0 is an exact root; the remaining factor "
            f"is the quartic {list(quartic)}, outside the two-fold construction"
        )
        return RunReport(raw=raw, monic=monic, config=None, solutions=[],
                         warnings=warnings)
    cfg = foldconfig.build_config(monic, h_override=args.h_override,
                                  branch=Branch(args.branch))
    solutions = foldsolve.solve_all(cfg, monic, root_tol=args.root_tol)
    for sol in solutions:
        for diag in sol.diagnostics:
            warnings.append(f"diagnostic {diag} at t = {sol.t!r}")
        if not sol.residuals.passes(tol):
            name, worst = sol.residuals.worst_field
            warnings.append(
                f"residual {worst:.3e} ({name}) above tol {tol:.3e} at t = {sol.t!r}"
            )
    elapsed = (time.perf_counter() - start) * 1000.0
    timing = elapsed if getattr(args, "timing", False) else None
    return RunReport(raw=raw, monic=monic, config=cfg, solutions=solutions,
                     warnings=warnings, timing_ms=timing)


def cmd_solve(args) -> int:
    tol = args.tol
    report = _solve_report(args, tol)
    _dump(report_to_dict(report), args.json)
    if args.svg and report.solutions:
        from . import render  # only --svg draws, so only --svg loads render

        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render.render_gallery(report.config, report.solutions))
    if any(not s.residuals.passes(tol) for s in report.solutions):
        return EXIT_VERIFY
    return EXIT_OK


def cmd_config(args) -> int:
    raw, monic = read_quintic(args.coeffs)
    cfg = foldconfig.build_config(monic, h_override=args.h_override,
                                  branch=Branch(args.branch))
    foldsolve.check_roundtrip(cfg, monic.coeffs)
    _dump({"quintic": {"raw": raw, "monic": list(monic.coeffs)},
           "config": _config_dict(cfg)}, args.json)
    return EXIT_OK


def cmd_compare(args) -> int:
    raw, monic = read_quintic(args.coeffs)
    branch = Branch(args.branch)

    direct_cfg = foldconfig.build_config(monic, h_override=args.h_override, branch=branch)
    direct_sols = foldsolve.solve_all(direct_cfg, monic, root_tol=args.root_tol)
    direct_roots = [s.t for s in direct_sols]

    pipeline = foldconfig.nishimura_pipeline(monic, branch=branch)
    scaled_sols = foldsolve.solve_all(pipeline.config, pipeline.scaled,
                                      root_tol=args.root_tol)
    scaled_roots = [s.t for s in scaled_sols]
    mapped = sorted(t * pipeline.scale - pipeline.shift for t in scaled_roots)
    if len(mapped) == len(direct_roots):
        gaps = [abs(a - b) for a, b in zip(mapped, direct_roots)]
    else:
        gaps = []

    _dump(
        {
            "quintic": {"raw": raw, "monic": list(monic.coeffs)},
            "direct": {
                "config": _config_dict(direct_cfg),
                "max_abs_parameter": direct_cfg.max_abs_parameter,
                "roots": direct_roots,
            },
            "nishimura": {
                "depressed": list(pipeline.depressed.coeffs),
                "shift": pipeline.shift,
                "scale": pipeline.scale,
                "scaled": list(pipeline.scaled.coeffs),
                "precondition_holds": pipeline.precondition_holds,
                "config": _config_dict(pipeline.config),
                "max_abs_parameter": pipeline.config.max_abs_parameter,
                "roots_scaled": scaled_roots,
                "roots_mapped_back": mapped,
            },
            "max_root_gap": max(gaps) if gaps else None,
        },
        args.json,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    tol = args.tol
    try:
        with open(args.json, encoding="utf-8") as handle:
            data = json.load(handle)
        # a tampered monic need not be monic; only its length and lead are checked
        monic = [float(c) for c in data["quintic"]["monic"]]
        polynomial.normalize_monic(monic)
        cfg = None if data["config"] is None else config_from_dict(data["config"])
        stored = data["solutions"]
        if not isinstance(stored, list):
            raise TypeError(f"solutions is {type(stored).__name__}, not a list")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"unreadable report: {exc}", file=sys.stderr)
        return EXIT_DATA

    if cfg is None:
        # no configuration was built (t = 0 short circuit); nothing to re-check
        return EXIT_OK
    foldsolve.check_roundtrip(cfg, monic)

    gaps = [("", 0.0)]
    for entry in stored:
        try:
            t = float(entry["t"])
            xi = _line_from_dict(entry["xi"])
            chi = _line_from_dict(entry["chi"])
        except (ValueError, KeyError, TypeError) as exc:
            print(f"unreadable solution entry: {exc}", file=sys.stderr)
            return EXIT_DATA
        name, worst = foldsolve.verify(cfg, t).worst_field
        at = f" at t = {t!r}"
        gaps += ((name + at, worst),
                 ("xi gap" + at, canonical_gap(xi, fold_xi(t, cfg.h))),
                 ("chi gap" + at, canonical_gap(chi, foldsolve.chi_from_xi(cfg, t))))
    name, worst = worst_item(gaps)
    if not worst <= tol:
        print(f"verification failed: worst residual {worst:.3e} ({name}) > tol {tol:.3e}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_options(args)
        handlers = {
            "solve": cmd_solve,
            "config": cmd_config,
            "compare": cmd_compare,
            "verify": cmd_verify,
        }
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateDegree as exc:
        print(f"not a quintic: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigMismatch as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (OrigamiQuinticError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
