"""Solve real quintics with a single two-simultaneous-fold origami operation.

The pipeline maps the six coefficients of a quintic to a point/line
configuration (two points, three lines) such that the admissible pairs of
simultaneous folds hit the x axis exactly at the roots; every geometric
incidence is reconstructed and verified numerically, and solutions can be
emitted as JSON reports or SVG diagrams.
"""

from .errors import (
    ConfigMismatch,
    DegenerateDegree,
    DegenerateP,
    EmptySolutions,
    NegativeDiscriminant,
    NoScaleFound,
    NotDepressed,
    NoValidH,
    OrigamiQuinticError,
    SingularSystem,
    SturmOverflow,
    ZeroConstantTerm,
    ZeroScale,
)
from .foldconfig import (
    Branch,
    FoldConfig,
    NishimuraReport,
    build_config,
    choose_h,
    compute_bc,
    compute_kpq,
    config_quintic,
    discriminant,
    find_scale_for_precondition,
    forward_coefficients,
    nishimura_pipeline,
    nishimura_precondition,
)
from .foldsolve import (
    CHI_EQUALS_N,
    LOW_CONFIDENCE,
    FoldSolution,
    IncidenceResiduals,
    chi_from_xi,
    solve_all,
    verify,
)
from .geometry import (
    Line,
    Point,
    canonical,
    fold_xi,
    reflect_line,
    reflect_point,
)
from .polynomial import (
    Quintic,
    depress,
    evaluate,
    normalize_monic,
    real_roots,
    scale,
)

__version__ = "0.1.0"

# render is imported on first use: only drawing needs it
_RENDER_NAMES = ("Viewport", "render_gallery", "render_solution")


def __getattr__(name: str):
    if name in _RENDER_NAMES:
        from . import render

        return getattr(render, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Branch",
    "CHI_EQUALS_N",
    "ConfigMismatch",
    "DegenerateDegree",
    "DegenerateP",
    "EmptySolutions",
    "FoldConfig",
    "FoldSolution",
    "IncidenceResiduals",
    "LOW_CONFIDENCE",
    "Line",
    "NegativeDiscriminant",
    "NishimuraReport",
    "NoScaleFound",
    "NotDepressed",
    "NoValidH",
    "OrigamiQuinticError",
    "Point",
    "Quintic",
    "SingularSystem",
    "SturmOverflow",
    "Viewport",
    "ZeroConstantTerm",
    "ZeroScale",
    "build_config",
    "canonical",
    "chi_from_xi",
    "choose_h",
    "compute_bc",
    "compute_kpq",
    "config_quintic",
    "depress",
    "discriminant",
    "evaluate",
    "find_scale_for_precondition",
    "fold_xi",
    "forward_coefficients",
    "nishimura_pipeline",
    "nishimura_precondition",
    "normalize_monic",
    "real_roots",
    "reflect_line",
    "reflect_point",
    "render_gallery",
    "render_solution",
    "scale",
    "solve_all",
    "verify",
]
