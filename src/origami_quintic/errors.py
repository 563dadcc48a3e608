"""Exception hierarchy for the quintic two-fold construction: each class is a
construction that failed on a valid input; an input fault is a ValueError."""


class OrigamiQuinticError(Exception):
    """Base class for all library errors: a construction that failed on a
    valid input.  An argument outside its domain is a ValueError instead."""


class SturmOverflow(OrigamiQuinticError):
    """The root bound is beyond the float range, or an isolation probe, a
    midpoint or a nudge off a root, overflows: no Sturm sign is taken there."""


class ZeroConstantTerm(OrigamiQuinticError):
    """Constant term is zero: t = 0 is an exact root and the remaining
    factor is a quartic, outside the two-fold construction."""


class InexactFrame(OrigamiQuinticError):
    """A coefficient does not scale exactly into the quintic's 2^e frame, or
    a length out of it where a report or a drawing writes it: it overflows,
    underflows, or is a subnormal that loses bits.  The quintic has roots at scales too far apart for one frame.
    Also: a coefficient of the quintic in u = 5t + a4 overflows, or its constant underflows."""


class NoValidH(OrigamiQuinticError):
    """The trial sequence for h exhausted without a nonnegative discriminant."""


class NegativeDiscriminant(OrigamiQuinticError):
    """The configuration discriminant is negative at the chosen h."""


class SingularSystem(OrigamiQuinticError):
    """The closed-form (k, p, q) is not finite: its terms overflow or are NaN."""


class DegenerateP(OrigamiQuinticError):
    """Computed P lies on line l (p = k) at the h given, or at every trial h."""


class ConfigMismatch(OrigamiQuinticError):
    """A fold configuration does not reproduce the source quintic."""
