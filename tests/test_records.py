"""The result records are NamedTuples: their reprs, immutability and the
checks that Quintic and Line make when they are built; and the package's
public names."""

import pytest

import origami_quintic
import origami_quintic.cli
from origami_quintic import (
    IncidenceResiduals,
    Line,
    Point,
    Quintic,
    build_config,
    solve_all,
)

MONIC_MESSAGE = "expected a monic quintic; call normalize_monic first"
NORMAL_MESSAGE = "line normal must be nonzero"


def test_reprs(hendecagon):
    cfg = build_config(hendecagon)
    assert repr(hendecagon) == "Quintic(a5=1.0, a4=1.0, a3=-4.0, a2=-3.0, a1=3.0, a0=1.0)"
    assert repr(cfg) == (
        "FoldConfig(h=1.0, b=0.0, c=0.0, k=-1.5, p=-2.5, q=-3.0, "
        "branch='plus', D=0.0, exponent=0)"
    )
    assert repr(solve_all(cfg, hendecagon)[0]) == (
        "FoldSolution(t=-1.9189859472289947, s=-1.5692593530931405, "
        "xi=Line(a=-1.9189859472289947, b=-1.0, c=3.682507065662362), "
        "chi=Line(a=-0.5728783807575333, b=-0.8196403850839873, c=3.0183315093740024), "
        "q_image=Point(x=-3.8379718944579895, y=-1.0), "
        "p_image=Point(x=-1.4999999999999998, y=-1.5692593530931405), "
        "residuals=IncidenceResiduals(q_on_m=0.0, p_on_l=2.220446049250313e-16, "
        "bisect=1.1102230246251565e-16, quintic_value=9.992007221626409e-16, "
        "equidistant=0.0, intersection_on_chi=0.0), "
        "parallel_case=False, multiplicity=1, diagnostics=())"
    )


def test_records_are_immutable(hendecagon):
    cfg = build_config(hendecagon)
    sol = solve_all(cfg, hendecagon)[0]
    records = [
        (Point(1.0, 2.0), "x"),
        (Line(1.0, 2.0, 3.0), "c"),
        (hendecagon, "a0"),
        (cfg, "h"),
        (sol.residuals, "bisect"),
        (sol, "t"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
        with pytest.raises(AttributeError):
            record.extra = 0.0


def test_records_are_tuples():
    line = Line(1.0, 2.0, 3.0)
    assert tuple(line) == (1.0, 2.0, 3.0) == line
    assert line._replace(c=4.0) == Line(1.0, 2.0, 4.0)
    assert Point(*Point(1.0, 2.0)) == Point(1.0, 2.0)


def test_quintic_must_be_monic():
    with pytest.raises(ValueError, match=MONIC_MESSAGE):
        Quintic(2.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=MONIC_MESSAGE):
        Quintic(1.0, 0.0, 0.0, 0.0, 0.0, 1.0)._replace(a5=0.5)
    with pytest.raises(ValueError, match=MONIC_MESSAGE):
        Quintic._make([3.0, 0.0, 0.0, 0.0, 0.0, 1.0])


def test_line_normal_must_be_nonzero():
    with pytest.raises(ValueError, match=NORMAL_MESSAGE):
        Line(0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=NORMAL_MESSAGE):
        Line(a=0.0, b=-0.0, c=0.0)
    with pytest.raises(ValueError, match=NORMAL_MESSAGE):
        Line(0.0, 1.0, 1.0)._replace(b=0.0)


def test_public_surface():
    names = origami_quintic.__all__
    assert len(set(names)) == len(names)
    for name in names:  # render_gallery through the package's lazy __getattr__
        getattr(origami_quintic, name)
    # second names for geometry's float kernels and for worst_field[1]
    for name in ("reflect_point", "reflect_line", "canonical"):
        assert name not in names
        assert not hasattr(origami_quintic, name)
        assert not hasattr(origami_quintic.geometry, name)
    assert not hasattr(IncidenceResiduals, "worst")
    # the branch is a string of foldconfig.BRANCHES, as a report writes it
    assert "Branch" not in names
    assert not hasattr(origami_quintic, "Branch")
    assert not hasattr(origami_quintic.foldconfig, "Branch")
    # an input fault is a ValueError, with no class of its own
    for name in ("UsageError", "DegenerateDegree", "EmptySolutions"):
        assert name not in names
        assert not hasattr(origami_quintic, name)
        assert not hasattr(origami_quintic.cli, name)
        assert not hasattr(origami_quintic.errors, name)
