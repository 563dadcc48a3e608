import math

import numpy as np
import pytest

from origami_quintic import Branch, FoldConfig, build_config, normalize_monic

HENDECAGON = (1.0, 1.0, -4.0, -3.0, 3.0, 1.0)

# its roots, from the closed form 2*cos(2*pi*i/11), i = 1..5
HENDECAGON_ROOTS = sorted(2.0 * math.cos(2.0 * math.pi * i / 11.0) for i in range(1, 6))


@pytest.fixture
def hendecagon():
    return normalize_monic(HENDECAGON)


@pytest.fixture
def hendecagon_config(hendecagon):
    return build_config(hendecagon)


def make_config(h, b, c, k, p, q, branch=Branch.PLUS, D=0.0):
    """Config straight from a parameter tuple (no inverse solve involved)."""
    return FoldConfig(h=h, b=b, c=c, k=k, p=p, q=q, branch=branch, D=D)


def residual_grid(cfg: FoldConfig, ts: np.ndarray) -> np.ndarray:
    """Vectorized mirror of residual_g, written out independently from the
    parameters: the reference that criterion 5 and TestResidualG compare
    the library against."""
    h, b, c, k, p, q = cfg.h, cfg.b, cfg.c, cfg.k, cfg.p, cfg.q
    n2 = 1.0 + b * b
    fx, fy = c / n2, c * b / n2
    inv = 1.0 / math.sqrt(n2)
    dx, dy = -b * inv, inv
    xi_n2 = ts * ts + h * h
    ax, ay = fx + dx, fy + dy
    d = (ts * ax - h * ay - ts * ts) / xi_n2
    axr, ayr = ax - 2.0 * d * ts, ay + 2.0 * d * h
    bx, by = fx - dx, fy - dy
    d = (ts * bx - h * by - ts * ts) / xi_n2
    bxr, byr = bx - 2.0 * d * ts, by + 2.0 * d * h
    ca, cb = byr - ayr, axr - bxr
    cc = ca * axr + cb * ayr
    d = (ca * p + cb * q - cc) / (ca * ca + cb * cb)
    return p - 2.0 * d * ca - k
