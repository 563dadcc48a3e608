"""Solve real quintics with a single two-simultaneous-fold origami operation.

The pipeline maps the six coefficients of a quintic to a point/line
configuration (two points, three lines) such that the admissible pairs of
simultaneous folds hit the x axis exactly at the roots; every geometric
incidence is reconstructed and verified numerically, and solutions can be
emitted as JSON reports or SVG diagrams.
"""

from .errors import (
    ConfigMismatch,
    DegenerateP,
    InexactFrame,
    NegativeDiscriminant,
    NoValidH,
    OrigamiQuinticError,
    SingularSystem,
    SturmOverflow,
    ZeroConstantTerm,
)
from .foldconfig import (
    FoldConfig,
    build_config,
    choose_h,
    compute_bc,
    compute_kpq,
    config_quintic,
    discriminant,
    forward_coefficients,
)
from .foldsolve import (
    CHI_EQUALS_N,
    LOW_CONFIDENCE,
    FoldSolution,
    IncidenceResiduals,
    solve_all,
    verify,
)
from .geometry import (
    Line,
    Point,
    fold_xi,
)
from .polynomial import (
    Quintic,
    evaluate,
    normalize_monic,
    real_roots,
)

__version__ = "0.1.0"


# render is imported on first use: only drawing needs it
def __getattr__(name: str):
    if name == "render_gallery":
        from . import render

        return getattr(render, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CHI_EQUALS_N",
    "ConfigMismatch",
    "DegenerateP",
    "FoldConfig",
    "FoldSolution",
    "IncidenceResiduals",
    "InexactFrame",
    "LOW_CONFIDENCE",
    "Line",
    "NegativeDiscriminant",
    "NoValidH",
    "OrigamiQuinticError",
    "Point",
    "Quintic",
    "SingularSystem",
    "SturmOverflow",
    "ZeroConstantTerm",
    "build_config",
    "choose_h",
    "compute_bc",
    "compute_kpq",
    "config_quintic",
    "discriminant",
    "evaluate",
    "fold_xi",
    "forward_coefficients",
    "normalize_monic",
    "real_roots",
    "render_gallery",
    "solve_all",
    "verify",
]
