"""Command-line front door: solve, config, compare, verify.

Exit codes: 0 success, 2 configuration error, 3 verification failure, 64
usage error (a ValueError, from parse_args or the library: a zero lead, an h
out of range; or an OSError), 65 unreadable report file.  JSON goes to stdout
unless --json PATH is given; reports carry their schema number (none means
schema 1) and are byte-stable across runs unless --timing is requested.  A
report depends on no setting but the raw coefficients, h and branch, which
it stores, and --tol, which decides only the exit code and warnings.  verify
exits 65 on another schema, else reruns solve's report builder on the stored
raw coefficients, h and branch and compares the stored report with the JSON
of the rebuild, what solve would write, in one walk: floats within --tol
relative to max(1, |rebuilt|), everything else exactly in type and value.  A
differing shape exits 65, any other difference 3, naming the field's JSON
path; warnings and timing_ms are not compared.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from types import SimpleNamespace

from . import foldconfig, foldsolve, polynomial
from .errors import ConfigMismatch, OrigamiQuinticError, ZeroConstantTerm
from .foldconfig import FoldConfig
from .foldsolve import FoldSolution
from .polynomial import Quintic, worst_item

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64
EXIT_DATA = 65
SCHEMA = 8


def parse_coeffs(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError(f"--coeffs needs 6 comma-separated values, got {len(parts)}")
    return [polynomial.parse_coefficient(p) for p in parts]


def _head(raw: list[float], monic: Quintic) -> dict:
    """The start of every payload: the schema and the quintic, raw and monic."""
    return {"schema": SCHEMA, "quintic": {"raw": raw, "monic": monic}}


def _config_dict(cfg: FoldConfig) -> dict:
    out = foldconfig.drawn(cfg)._asdict()  # the caller's lengths
    if not cfg.exponent:  # the quintic is its own frame: the key is left out
        del out["exponent"]
    return out


def _solution_dict(sol: FoldSolution) -> dict:
    """The solution's own fields; json writes its Points and diagnostics as arrays."""
    return {**sol._asdict(), "xi": sol.xi._asdict(), "chi": sol.chi._asdict(),
            "residuals": sol.residuals._asdict()}


def _dump(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _solve_report(raw: list[float], h: float | None, branch: str, tol: float, timing: bool
                  ) -> tuple[dict, FoldConfig | None, list[FoldSolution], tuple[str, float]]:
    """The report of solving raw at h (None: chosen) on branch, with timing_ms
    when timing is set; the configuration (None when the constant term is zero)
    and solutions it writes; and their worst residual ("<field> at t = <t>",
    value), a NaN first, ("", 0.0) with none, on which solve and verify exit 3
    unless it is <= --tol.  tol is read only by the warnings."""
    monic = polynomial.normalize_monic(raw)
    report = _head(raw, monic)
    start = time.perf_counter()
    try:
        cfg = foldconfig.build_config(monic, h_override=h, branch=branch)
    except ZeroConstantTerm:  # raised after the branch and h are checked
        report.update(config=None, solutions=[], warnings=[
            "constant term is zero: t = 0 is an exact root; the remaining factor is the "
            f"quartic {list(monic[:5])}, outside the two-fold construction"])
        return report, None, [], ("", 0.0)
    config, warnings = _config_dict(cfg), []
    solutions = foldsolve.solve_all(cfg, monic)
    for sol in solutions:
        for diag in sol.diagnostics:
            warnings.append(f"diagnostic {diag} at t = {sol.t!r}")
        if not sol.residuals.passes(tol):
            name, worst = sol.residuals.worst_field
            warnings.append(f"residual {worst:.3e} ({name}) above tol {tol:.3e} at t = {sol.t!r}")
    elapsed = (time.perf_counter() - start) * 1000.0
    report.update(config=config, solutions=[_solution_dict(s) for s in solutions],
                  warnings=warnings)
    if timing:
        report["timing_ms"] = elapsed
    return report, cfg, solutions, worst_item([("", 0.0)] + [(f"{field} at t = {sol.t!r}", value)
        for sol in solutions for field, value in [sol.residuals.worst_field]])


def cmd_solve(args) -> int:
    report, cfg, solutions, (_, worst) = _solve_report(
        parse_coeffs(args.coeffs), args.h_override, args.branch, args.tol, args.timing)
    _dump(report, args.json)
    if args.svg and solutions:
        from . import render  # only --svg draws, so only --svg loads render

        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render.render_gallery(cfg, solutions))
    return EXIT_OK if worst <= args.tol else EXIT_VERIFY


def cmd_config(args) -> int:
    raw = parse_coeffs(args.coeffs)
    monic = polynomial.normalize_monic(raw)
    cfg = foldconfig.build_config(monic, h_override=args.h_override, branch=args.branch)
    config = _config_dict(cfg)
    foldsolve.check_roundtrip(cfg, foldconfig.balance(monic, cfg.exponent))
    _dump({**_head(raw, monic), "config": config}, args.json)
    return EXIT_OK


def _match_roots(one: list, other: list) -> tuple[float | None, int]:
    """Pair each root of the shorter of two (root, multiplicity) lists, repeated
    by its multiplicity, with the nearest unpaired root of the other: the
    largest gap of a pair (None without a pair) and how many are left unpaired."""
    one, other = sorted(([t for t, m in roots for _ in range(m)] for roots in (one, other)),
                        key=len)
    gaps = []
    for t in one:
        nearest = min(other, key=lambda r: abs(r - t))
        other.remove(nearest)
        gaps.append(abs(nearest - t))
    return max(gaps, default=None), len(other)


def _route(config: dict, roots: list) -> dict:
    """A compare section: one route's configuration dict and its (root, multiplicity) roots."""
    return {"config": config, "max_abs_parameter": max(abs(config[v]) for v in "hbckpq"),
            "roots": [t for t, _ in roots]}


def cmd_compare(args) -> int:
    raw = parse_coeffs(args.coeffs)
    monic = polynomial.normalize_monic(raw)
    direct_cfg = foldconfig.build_config(monic, h_override=args.h_override, branch=args.branch)
    direct_config = _config_dict(direct_cfg)
    direct = [(s.t, s.multiplicity) for s in foldsolve.solve_all(direct_cfg, monic)]
    # the depressed-form route, exact in u = 5t + a4: choose_h picks its scale h;
    # its errors name it; a root u maps back to t = (u - a4) / 5, rounded once
    na, da = monic.a4.as_integer_ratio()
    try:
        depressed = polynomial._depressed_in_u(monic)
        if depressed.a0 == 0.0:
            raise ZeroConstantTerm("the depressed quintic's constant term is zero; "
                                   f"t = -a4/5 = {-na / (5 * da)!r} is a root")
        dep_cfg = foldconfig.build_config(depressed, branch=args.branch)
        dep_config = _config_dict(dep_cfg)
        dep_sols = foldsolve.solve_all(dep_cfg, depressed)
    except OrigamiQuinticError as exc:  # the same class, so the same exit code
        raise type(exc)(f"depressed-form route: {exc}") from None
    mapped = [((nu * da - na * du) / (5 * du * da), s.multiplicity)  # roots of the input
              for s in dep_sols for nu, du in [s.t.as_integer_ratio()]]
    gap, unmatched = _match_roots(direct, mapped)

    _dump({**_head(raw, monic), "direct": _route(direct_config, direct),
           "depressed": {"quintic": depressed, **_route(dep_config, mapped)},
           "max_root_gap": gap, "unmatched_roots": unmatched}, args.json)
    return EXIT_OK


def _difference(stored, rebuilt, tol: float, path: str = "") -> tuple[int, str] | None:
    """The first field, in walk order, where a stored report departs from its
    rebuild: an exit code and a message naming the field's JSON path, such as
    solutions.0.chi.a.  None when they agree."""
    if type(stored) is not type(rebuilt):  # so true is not 1, nor null 0.0
        return EXIT_DATA, f"{path} is {type(stored).__name__}, not {type(rebuilt).__name__}"
    if isinstance(rebuilt, list):  # walked as a dict keyed by index
        stored, rebuilt = dict(enumerate(stored)), dict(enumerate(rebuilt))
    if isinstance(rebuilt, dict):
        if stored.keys() != rebuilt.keys():  # a root more or less fails the check
            code = EXIT_VERIFY if path == "solutions" else EXIT_DATA
            return code, (f"{path or 'report'} has {len(stored)} entries {sorted(stored)}, "
                          f"rebuilt {sorted(rebuilt)}")
        faults = (_difference(stored[key], rebuilt[key], tol, f"{path}.{key}".lstrip("."))
                  for key in rebuilt)
        return next(filter(None, faults), None)
    if isinstance(rebuilt, float):  # the roundtrip gate's relative gap; NaN fails
        same = polynomial.coefficient_gap([stored], [rebuilt]) <= tol
    else:
        same = stored == rebuilt
    return None if same else (EXIT_VERIFY, f"{path} is {stored!r}, rebuilt {rebuilt!r}")


def cmd_verify(args) -> int:
    tol = args.tol
    try:
        with open(args.json, encoding="utf-8") as handle:
            stored = json.load(handle)
        schema = stored.get("schema", 1)
        if schema != SCHEMA:
            print(f"unreadable report: schema {schema!r}, but verify reads schema {SCHEMA}; "
                  "re-run solve", file=sys.stderr)
            return EXIT_DATA
        raw, cfg = [float(v) for v in stored["quintic"]["raw"]], stored["config"]
        h, branch = (None, "plus") if cfg is None else (float(cfg["h"]), cfg["branch"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError,
            RecursionError) as exc:
        print(f"unreadable report: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        rebuilt, _, _, (name, worst) = _solve_report(raw, h, branch, tol, timing=False)
    except (OrigamiQuinticError, ValueError, OverflowError) as exc:
        print(f"verification failed: no rebuild: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    # warnings and timing_ms follow solve's --tol and the clock, so they are not compared
    stored = {key: value for key, value in stored.items() if key not in ("warnings", "timing_ms")}
    del rebuilt["warnings"]
    fault = _difference(stored, json.loads(json.dumps(rebuilt)), tol)  # as solve writes it
    if fault is not None:
        code, message = fault
        print(f"{'unreadable report' if code == EXIT_DATA else 'verification failed'}: {message}",
              file=sys.stderr)
        return code
    if not worst <= tol:
        print(f"verification failed: worst residual {worst:.3e} ({name}) > tol {tol:.3e}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# each command's handler and flags: flag -> (attribute, value, default); the value is str,
# float or the tuple of its choices, () for a switch, which sets True; ... marks required
_COMMON = {"--coeffs": ("coeffs", str, ...), "--h": ("h_override", float, None),
           "--branch": ("branch", foldconfig.BRANCHES, "plus"), "--json": ("json", str, None)}
_TOL = {"--tol": ("tol", float, 1e-9)}
_COMMANDS = {"solve": (cmd_solve, {**_COMMON, "--svg": ("svg", str, None),
                                   "--timing": ("timing", (), False), **_TOL}),
             "config": (cmd_config, _COMMON), "compare": (cmd_compare, _COMMON),
             "verify": (cmd_verify, {"--json": ("json", str, ...), **_TOL})}
_is_flag = re.compile(r"-(?!\d+$|\d*\.\d+$)[^ ]+$").match  # a flag, not "-", -1, -.5 or spaced


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The command and its flags' attributes read from argv, or None once -h or --help printed
    the usage.  A bad value is refused at once; a missing flag, then a stray token, at the end."""
    command, table, args, extras = None, {}, {}, []
    tokens = iter(argv)
    for token in tokens:
        flag, eq, text = token.partition("=")
        attribute, value, _ = table.get(flag, (None, None, None))
        if token in ("-h", "--help"):  # the usage of the command, or of every command
            for name in [command] if command else _COMMANDS:
                words = [("{}" if default is ... else "[{}]").format(
                    f"{option} {dest.upper()}" if kind else option)
                    for option, (dest, kind, default) in _COMMANDS[name][1].items()]
                print(f"usage: origami-quintic {name}", *words)
            return None
        if command is None and not _is_flag(token):
            if token not in _COMMANDS:
                raise ValueError(f"argument command: invalid choice: {token!r}")
            command, table = token, _COMMANDS[token][1]
            args = {attribute: default for attribute, _, default in table.values()}
        elif attribute is None:  # no flag of the command; nothing after "--" is a flag either
            extras += [token, *tokens] if token == "--" else [token]
        elif value == () and not eq:  # a switch: no value may follow it
            args[attribute] = True
        elif not eq and _is_flag(text := next(tokens, "--")):  # "--": argv has ended
            raise ValueError(f"argument {flag}: expected one argument")
        elif isinstance(value, tuple) and text not in value:
            raise ValueError(f"argument {flag}: {text!r} is not one of {value}")
        else:
            try:
                args[attribute] = text if isinstance(value, tuple) else value(text)
            except ValueError:
                raise ValueError(f"argument {flag}: invalid float value: {text!r}") from None
    missing = [flag for flag, (attribute, *_) in table.items() if args[attribute] is ...]
    if command is None or missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing) or 'command'}")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    if not 0.0 <= args.get("tol", 0.0) < math.inf:
        raise ValueError(f"--tol must be a finite number >= 0, got {args['tol']!r}")
    return SimpleNamespace(command=command, **args)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return EXIT_OK if args is None else _COMMANDS[args.command][0](args)
    except (ValueError, OSError) as exc:  # OSError: an unwritable output path
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigMismatch as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OrigamiQuinticError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
