"""Byte-stable default reports and bit-stable roots.

Each documented quintic runs through ``solve --json --svg``, ``config``,
``compare`` and ``verify`` as separate processes; the exit code, stdout,
stderr and every file written must equal the stored golden record byte for
byte.  ``real_roots`` on a few thousand seeded quintics must give the stored
digest of its roots and multiplicities, and ``build_config`` + ``solve_all``
on two thousand more the stored digest of every configuration, solution and
error, bit for bit.  ``python tests/test_golden.py`` rewrites the records and
the digests, which is only right when a change of report, roots or solutions
is intended and stated.
"""

import hashlib
import json
import math
import os
import random
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


# The digests' quintics are built with exact arithmetic only (Fractions, each
# coefficient rounded once, and ldexp), and real_roots uses only IEEE + - * /
# and integers, so its digest is the same on every platform and Python version.
# build_config and solve_all also take square roots, math.hypot and a log2,
# as the reports above do.

def _expand(factors) -> list[float]:
    """Monic coefficients of the product of these exact factors (each a list
    of Fractions, highest degree first), each rounded once to a float."""
    poly = [Fraction(1)]
    for factor in factors:
        out = [Fraction(0)] * (len(poly) + len(factor) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        poly = out
    return [float(c) for c in poly]


def _linear(r):
    return [Fraction(1), -r]


def _pair(rng):
    """A quadratic factor with a complex pair of roots."""
    x, y = Fraction(rng.randint(-400, 400), 100), Fraction(rng.randint(1, 300), 100)
    return [Fraction(1), -2 * x, x * x + y * y]


def _simple(rng):
    real = rng.choice((1, 3, 5))
    return _expand([_linear(Fraction(rng.randint(-4000, 4000), 1000)) for _ in range(real)]
                   + [_pair(rng) for _ in range((5 - real) // 2)])


def _repeated(rng):
    pattern = rng.choice(((2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2), (4, 1), (5,), (2, 1, 0),
                          (3, 0), (1, 2, 0)))  # a 0 stands for a complex pair
    factors = []
    for mult in pattern:
        if mult:
            factors += [_linear(Fraction(rng.randint(-16, 16), rng.randint(1, 8)))] * mult
        else:
            factors.append(_pair(rng))
    return _expand(factors)


def _clustered(rng):
    base = Fraction(rng.randint(-3000, 3000), 1000)
    gap = Fraction(1, 10 ** rng.randint(2, 7))
    size = rng.randint(2, 5)
    roots = [base + i * gap * rng.randint(1, 3) for i in range(size)]
    roots += [Fraction(rng.randint(-4000, 4000), 1000) for _ in range(5 - size)]
    return _expand([_linear(r) for r in roots])


def _dyadic(rng):
    shift = rng.randint(0, 6)
    return _expand([_linear(Fraction(rng.randint(-6, 6), 2**shift)) for _ in range(5)])


def _several_scale(rng):
    return [1.0] + [rng.choice((-1.0, 1.0)) * math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-40, 40))
                    for _ in range(5)]


ROOT_FAMILIES = {"simple": _simple, "repeated": _repeated, "clustered": _clustered,
                 "dyadic": _dyadic, "several_scale": _several_scale}
ROOT_CASES = 600  # per family
ROOT_DIGEST = GOLDEN / "real_roots_digest.json"
SOLVE_CASES = 400  # per family
SOLVE_DIGEST = GOLDEN / "solve_all_digest.json"


def _digests(cases: int, first_seed: int, outcome) -> dict:
    """Per family, the case count and the sha256 of outcome on each seeded
    quintic's coefficients: the repr of what it returned, or the class and
    message of what it raised.  Family i draws from random.Random(first_seed + i)."""
    digests = {}
    for seed, (family, build) in enumerate(ROOT_FAMILIES.items(), first_seed):
        rng, lines = random.Random(seed), []
        for _ in range(cases):
            coeffs = build(rng)
            try:
                lines.append(repr(outcome(coeffs)))
            except Exception as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
        text = "\n".join(lines).encode("ascii")
        digests[family] = {"cases": cases, "sha256": hashlib.sha256(text).hexdigest()}
    return digests


def root_digests() -> dict:
    """real_roots' roots and multiplicities on 600 quintics per family."""
    from origami_quintic.polynomial import Quintic, real_roots

    return _digests(ROOT_CASES, 0, lambda coeffs: real_roots(Quintic(*coeffs)))


def solve_digests() -> dict:
    """The configuration, in its frame, and every FoldSolution of build_config
    + solve_all, on 400 other quintics per family."""
    from origami_quintic.foldconfig import build_config
    from origami_quintic.foldsolve import solve_all
    from origami_quintic.polynomial import Quintic

    def solve(coeffs):
        q = Quintic(*coeffs)
        cfg = build_config(q)
        return cfg, solve_all(cfg, q)

    return _digests(SOLVE_CASES, len(ROOT_FAMILIES), solve)


def test_real_roots_are_bit_stable():
    assert root_digests() == json.loads(ROOT_DIGEST.read_text(encoding="utf-8"))


def test_solve_all_is_bit_stable():
    assert solve_digests() == json.loads(SOLVE_DIGEST.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    ROOT_DIGEST.write_text(json.dumps(root_digests(), indent=1) + "\n", encoding="utf-8")
    SOLVE_DIGEST.write_text(json.dumps(solve_digests(), indent=1) + "\n", encoding="utf-8")
    for name, coeffs in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            record = run_case(coeffs, Path(tmp))
        text = json.dumps(record, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
