"""Benchmark of the origami-quintic solver: library, CLI, and per-layer trace.

    python3 perfbench/run.py --workload unit-batch --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/``; CLI
processes run as ``python -m origami_quintic.cli`` with ``PYTHONPATH=src``.
All load comes from this one process and thread as a closed loop: the next
solve or CLI process starts only after the previous one has finished.

Workloads (cases come from ``corpus.py``, built from the seed):

* ``unit-batch``: in-process normalize_monic -> build_config -> solve_all
  over roots with |r| <= 4.  Root isolation does most of the work.
* ``wide-scale``: the same pipeline with every case's roots scaled by a
  log-uniform factor, plus the scale extremes.  The choice of h, the
  conditioning of (b, c) and (k, p, q) and the coefficient-roundtrip gate
  decide the outcome here; the solver currently fails on a large share.
* ``cli-report``: per case, three processes in order: ``solve --json R
  --svg S``, ``verify --json R``, ``compare``.  Interpreter start and
  imports dominate; render, the JSON report and the depressed-form route
  run only here.

The library workloads spend ``LIB_SHARE`` of the run in the library loop and
the rest spawning the same three CLI processes over their own cases, so every
workload reports every metric.  Every time is in reference-speed units: see
``calibration.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it runs the workload's in-process stream once
untraced and once traced (the goodput difference is the tracing overhead),
spawns ``python -c pass`` and ``python -c "import origami_quintic"`` to split
the CLI start-up, and writes the spans to ``.perfbench/spans-<workload>.tsv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An attempt fails
when it raises, returns a root above the 1e-9 tolerance, or (CLI) exits
non-zero, prints a traceback or leaves a report that does not parse.  Such
failures are the solver's measured defects and are counted, never fatal.
``attempted`` and ``failed`` count the check pass: before the timed loop,
every run makes the workload's own operation once over each case of the
same fixed corpus (``CHECK_SEED``), so the two counts depend on the program
alone, not on the seed or on how far a time-limited loop got.  The timed
loop's attempts are checked too and go into ``verified_frac`` and
``root_match_frac``.  ``correct`` is false when the documented examples (the
hendecagon and README quintics, first in every corpus) do not come back
verified with exactly their reference roots, or when nothing was attempted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import calibration
import corpus
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
WORKLOADS = ("unit-batch", "wide-scale", "cli-report")
CORPUS_SIZE = {"unit-batch": 2000, "wide-scale": 2000, "cli-report": 400}
# the check pass: the same cases in every run, whatever --seed says
CHECK_SEED = 0
CHECK_CASES = {"unit-batch": 2000, "wide-scale": 2000, "cli-report": 4}
LIB_SHARE = 0.5
LIB_BLOCK_S = 0.1  # in-process work between two speed measurements
SPAWN_BLOCK_S = 1.0  # CLI work between two speed measurements
SETUP_RUNS = 7
START_PROBES = 5
MAIN_PROBE_CASES = 10  # traced in-process cli.main cases on the library workloads
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
# each tail stops at a percentile that every run of the workload reaches with
# at least ten samples beyond it, so the chosen percentile stays the same
TAIL_CAP = {"solve": 95.0, "solve_process": 75.0, "cli": 90.0, "cli_phase": 75.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "goodput_per_s": "1/s",
    "solve_p50_us": "us",
    "solve_tail_us": "us",
    "cli_p50_ms": "ms",
    "cli_tail_ms": "ms",
    "verified_frac": "ratio",
    "root_match_frac": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "origami_quintic" / "__init__.py").is_file():
        print(f"no package to measure: {SRC / 'origami_quintic'} is missing", file=sys.stderr)
        return 2

    calibration.pin_to_one_cpu()
    # the result goes to the real stdout; anything else the measured code
    # writes to file descriptor 1 (LAPACK prints DLASCL warnings there) goes
    # to stderr, so that the JSON object stays the last line
    result_out = os.fdopen(os.dup(1), "w")
    sys.stdout.flush()
    os.dup2(2, 1)
    cases = corpus.generate(args.workload, args.seed, CORPUS_SIZE[args.workload])
    env = workloads.cli_env(SRC)
    setup = [] if args.trace else _setup_times(args.workload, args.seed, env)

    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        lib = workloads.load_library(SRC)
        workloads.warm_up(lib, args.workload, cases, tmp)
        checked = _check_pass(lib, args.workload, tmp, env)
        if args.trace:
            metrics, lines, ops = _traced_run(lib, args, cases, tmp, env)
            units = tracing.metric_units()
        else:
            metrics, lines, ops = _timed_run(lib, args, cases, tmp, env)
            metrics["setup_s"] = statistics.median(setup)
            lines.insert(0, f"set-up runs (reference s): {' '.join(f'{s:.4f}' for s in setup)}")
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    fixed_ok = all(_fixed_ok(outs) for case, outs in checked + ops if case.kind == "fixed")
    attempted = sum(len(outs) for _, outs in checked)
    failed = sum(not o.verified for _, outs in checked for o in outs)
    timed = [o for _, outs in ops for o in outs]
    numpy = sys.modules.get("numpy")
    result = {
        "correct": fixed_ok and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with result_out:
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}  python {platform.python_version()}  "
              f"numpy {numpy.__version__ if numpy else 'not loaded'}  nproc {os.cpu_count()}",
              file=result_out)
        for line in lines:
            print("  " + line, file=result_out)
        print(f"  timed loop: {len(timed)} attempts, {sum(not o.verified for o in timed)} failed",
              file=result_out)
        print(f"  check pass (corpus seed {CHECK_SEED}, {len(checked)} cases): attempted "
              f"{attempted}  failed {failed}  by class: "
              f"{_failure_classes([o for _, outs in checked for o in outs])}", file=result_out)
        print(f"  documented examples ok {fixed_ok}", file=result_out)
        print(json.dumps(result), file=result_out)
    return 0


def _check_pass(lib, workload: str, tmp: Path, env: dict[str, str]) -> list:
    """The workload's own operation, once over each case of the fixed check
    corpus, untimed: (case, [Outcome]) pairs whose counts are the result's
    ``attempted`` and ``failed``.  The solver is deterministic, so every run
    of the same code gives the same counts."""
    cases = corpus.generate(workload, CHECK_SEED, CHECK_CASES[workload])
    if workload == "cli-report":
        return [(case, workloads.spawn_case(case, tmp, env)) for case in cases]
    return [(case, [workloads.solve_case(lib, case)]) for case in cases]


def _setup_times(workload: str, seed: int, env: dict[str, str]) -> list[float]:
    """Each set-up in a fresh interpreter: import the package, run the
    warm-up pass (see setup_probe.py); in reference seconds, scaled as the
    CLI processes are, since a set-up is the same kind of work."""
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
             "--workload", workload, "--seed", str(seed)]

    def once() -> float:
        proc = subprocess.run(probe, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        return float(proc.stdout.split()[-1])

    return _calibrated(once, SETUP_RUNS, lambda: calibration.process_factor(env))


def _spawn_times(argv: list[str], env: dict[str, str]) -> list[float]:
    """Spawn-to-exit times of ``python <argv>``, in reference seconds as the
    CLI processes are, so that the two compare."""

    def once() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=60)
        return time.perf_counter() - start

    return _calibrated(once, START_PROBES, lambda: calibration.process_factor(env))


def _calibrated(measure, count: int, speed) -> list[float]:
    """``count`` results of ``measure()``, each scaled to reference seconds by
    the ``speed()`` factors measured just before and after it."""
    times = []
    before = speed()
    for _ in range(count):
        raw = measure()
        after = speed()
        times.append(raw * 0.5 * (before + after))
        before = after
    return times


# --------------------------------------------------------------------------
# the closed loop

@dataclass
class Loop:
    ops: list  # (case, [Outcome]) in the order run
    wall: float  # reference seconds of work, speed measurements excluded
    raw_wall: float  # the same in raw seconds
    scales: list[float]  # one per block


def _loop(cases, seconds: float, run_case, block_s: float, speed) -> Loop:
    """Run cases in order, each after the previous one finished, for about
    ``seconds``; measure the ``speed()`` factor between blocks of at least
    ``block_s``."""
    ops, wall, raw_wall, scales = [], 0.0, 0.0, []
    deadline = time.perf_counter() + seconds
    before = speed()
    while not ops or time.perf_counter() < deadline:
        block = []
        start = time.perf_counter()
        while not block or (time.perf_counter() - start < block_s
                            and time.perf_counter() < deadline):
            case = cases[(len(ops) + len(block)) % len(cases)]
            block.append((case, run_case(case)))
        elapsed = time.perf_counter() - start
        after = speed()
        factor = 0.5 * (before + after)
        for _, outs in block:
            for o in outs:
                o.scale = factor
        ops += block
        wall += elapsed * factor
        raw_wall += elapsed
        scales.append(factor)
        before = after
    return Loop(ops, wall, raw_wall, scales)


def _library_loop(lib, cases, seconds: float) -> Loop:
    return _loop(cases, seconds, lambda case: [workloads.solve_case(lib, case)],
                 LIB_BLOCK_S, calibration.cpu_factor)


def _spawn_loop(cases, seconds: float, tmp: Path, env: dict[str, str]) -> Loop:
    return _loop(cases, seconds, lambda case: workloads.spawn_case(case, tmp, env),
                 SPAWN_BLOCK_S, lambda: calibration.process_factor(env))


def _main_loop(lib, cases, seconds: float, tmp: Path) -> Loop:
    return _loop(cases, seconds, lambda case: workloads.main_case(lib, case, tmp),
                 LIB_BLOCK_S, calibration.cpu_factor)


def _goodput(loop: Loop) -> float:
    """Verified solves per reference second: a library attempt that passes,
    or a CLI case whose solve and verify both pass."""
    return sum(workloads.solved_case(outs) for _, outs in loop.ops) / loop.wall


def _case_medians(loop: Loop) -> list[float]:
    """Each case's median attempt time, in reference seconds."""
    times: dict[int, list[float]] = {}
    for case, outs in loop.ops:
        times.setdefault(id(case), []).extend(o.ref_seconds for o in outs)
    return [statistics.median(ts) for ts in times.values()]


def _scale_note(loop: Loop) -> str:
    return (f"speed factor median {statistics.median(loop.scales):.4f} "
            f"(min {min(loop.scales):.4f}, max {max(loop.scales):.4f}, "
            f"{len(loop.scales)} blocks)")


# --------------------------------------------------------------------------
# trace 0: end-to-end metrics

def _timed_run(lib, args, cases, tmp, env):
    if args.workload == "cli-report":
        lib_loop = None
        cli_loop = _spawn_loop(cases, args.seconds, tmp, env)
        primary = [o for _, outs in cli_loop.ops for o in outs]
        solves = [o for o in primary if o.op == "solve"]
        goodput, solve_cap = _goodput(cli_loop), "solve_process"
    else:
        lib_loop = _library_loop(lib, cases, args.seconds * LIB_SHARE)
        cli_loop = _spawn_loop(cases, args.seconds * (1 - LIB_SHARE), tmp, env)
        primary = solves = [o for _, outs in lib_loop.ops for o in outs]
        goodput, solve_cap = _goodput(lib_loop), "solve"
    processes = [o for _, outs in cli_loop.ops for o in outs]
    solve_times = [o.ref_seconds for o in solves]
    cli_times = [o.ref_seconds for o in processes]
    # the library loop cycles its corpus: rank inputs by their median time,
    # so that the tail shows slow cases rather than scheduler hiccups
    tail_samples = _case_medians(lib_loop) if lib_loop else solve_times

    refs = sum(o.refs for o in solves)
    matched = sum(o.matched for o in solves)
    spurious = sum(o.spurious for o in solves)
    failed = sum(not o.verified for o in primary)
    solve_p, solve_tail = _tail(tail_samples, TAIL_CAP[solve_cap])
    attempt_p, attempt_tail = _tail(solve_times, TAIL_CAP[solve_cap])
    cli_p, cli_tail = _tail(cli_times, TAIL_CAP["cli" if lib_loop is None else "cli_phase"])
    metrics = {
        "goodput_per_s": goodput,
        "solve_p50_us": statistics.median(solve_times) * 1e6,
        "solve_tail_us": solve_tail * 1e6,
        "cli_p50_ms": statistics.median(cli_times) * 1e3,
        "cli_tail_ms": cli_tail * 1e3,
        "verified_frac": 1.0 - failed / len(primary),
        "root_match_frac": matched / (refs + spurious),
    }
    what = "CLI processes" if lib_loop is None else "library attempts"
    lines = [f"{name:<16} {metrics[name]!r} {unit}" for name, unit in END_TO_END_UNITS.items()
             if name in metrics]
    lines += [
        f"solve latency: {len(solve_times)} attempts, raw p50 "
        f"{statistics.median(o.seconds for o in solves) * 1e6:.1f} us; tail = p{solve_p:g} "
        f"of {len(tail_samples)} {'case medians' if lib_loop else 'attempts'} "
        f"({_beyond(len(tail_samples), solve_p)} beyond); attempt p{attempt_p:g} "
        f"{attempt_tail * 1e6:.1f} us",
        f"CLI latency: {len(cli_times)} processes, tail = p{cli_p:g} "
        f"({_beyond(len(cli_times), cli_p)} samples beyond); raw p50 "
        f"{statistics.median(o.seconds for o in processes) * 1e3:.2f} ms",
        f"failed_frac {failed / len(primary)!r} ratio ({failed} of {len(primary)} {what})",
        f"root_mismatch_frac {(refs - matched + spurious) / refs!r} ratio "
        f"({refs - matched} reference roots missed, {spurious} spurious, of {refs})",
        f"failures by class ({what}): {_failure_classes(primary)}",
    ]
    if lib_loop is not None:
        lines += [f"failures by class (CLI processes): {_failure_classes(processes)}",
                  f"library loop: {_scale_note(lib_loop)}"]
    lines.append(f"CLI loop: {_scale_note(cli_loop)}")
    return metrics, lines, (lib_loop.ops if lib_loop else []) + cli_loop.ops


# --------------------------------------------------------------------------
# trace 1: per-layer metrics

def _traced_run(lib, args, cases, tmp, env):
    start = time.perf_counter()
    interp = _spawn_times(["-c", "pass"], env)
    imported = _spawn_times(["-c", "import origami_quintic"], env)
    half = max(args.seconds - (time.perf_counter() - start), 1.0) / 2

    if args.workload == "cli-report":
        def stream():
            return _main_loop(lib, cases, half, tmp)
    else:
        def stream():
            return _library_loop(lib, cases, half)

    plain = stream()
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        traced = stream()
        probe_ops = []
        probe_start = time.perf_counter()
        if args.workload != "cli-report":
            # the library loop never reaches cli.main or render: trace a few
            # in-process CLI cases so that every layer is measured
            probe_ops = [(c, workloads.main_case(lib, c, tmp))
                         for c in cases[:MAIN_PROBE_CASES]]
        traced_s = traced.raw_wall + time.perf_counter() - probe_start
    finally:
        tracer.restore()
    tracer.write(WORK_DIR / f"spans-{args.workload}.tsv.gz")

    metrics = tracing.layer_metrics(tracer, round(traced_s * 1e9),
                                    statistics.median(traced.scales))
    reports = [o.report_bytes for _, outs in traced.ops + probe_ops for o in outs
               if o.op == "solve" and o.report_bytes]
    untraced_goodput, traced_goodput = _goodput(plain), _goodput(traced)
    metrics.update({
        "cli.interp_ms": statistics.median(interp) * 1e3,
        "cli.import_ms": (statistics.median(imported) - statistics.median(interp)) * 1e3,
        "cli.report_bytes": statistics.median(reports) if reports else 0,
        "trace.goodput_untraced_per_s": untraced_goodput,
        "trace.goodput_traced_per_s": traced_goodput,
        "trace.overhead_frac": 1.0 - traced_goodput / untraced_goodput,
    })
    units = tracing.metric_units()
    lines = [f"{name:<40} {metrics[name]!r} {unit}" for name, unit in units.items()]
    names = [*tracing.span_names(), "geometry"]
    shares = sorted(((metrics[f"{n}.self_share"], n) for n in names), reverse=True)
    lines += ["largest self-time shares: " + ", ".join(f"{n} {s:.3f}" for s, n in shares[:4]),
              f"untraced loop: {_scale_note(plain)}", f"traced loop: {_scale_note(traced)}"]
    return metrics, lines, plain.ops + traced.ops + probe_ops


# --------------------------------------------------------------------------
# statistics and checks

def _tail(samples: list[float], cap: float) -> tuple[float, float]:
    """The highest percentile up to ``cap`` with at least ten samples beyond
    it (p50 when there are too few), and its value by nearest rank."""
    xs = sorted(samples)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if p <= cap and _beyond(len(xs), p) >= 10:
            chosen = p
    return chosen, xs[max(math.ceil(chosen / 100 * len(xs)) - 1, 0)]


def _beyond(n: int, p: float) -> int:
    return n - math.ceil(p / 100 * n)


def _failure_classes(outcomes) -> str:
    counts = Counter(o.error for o in outcomes if not o.verified)
    return ", ".join(f"{k} {v}" for k, v in counts.most_common()) or "none"


def _fixed_ok(outcomes) -> bool:
    """A documented example comes back verified with exactly its roots."""
    for o in outcomes:
        if not o.verified:
            return False
        if o.refs and (o.matched != o.refs or o.spurious):
            return False
    return True


if __name__ == "__main__":
    sys.exit(main())
