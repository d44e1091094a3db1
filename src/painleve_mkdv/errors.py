"""Exception hierarchy shared by all modules."""


class PainleveError(Exception):
    """Base class for library errors."""


class DomainError(PainleveError, ValueError):
    """Parameters outside the admissible domain."""


class DegenerateParamsError(PainleveError, ValueError):
    """Operation undefined where d, and so nu = -i d^2/2, is zero: at the pair
    (alpha, k) = (0, 0), or at a pair so near it that d^2 underflows."""


class PoleError(PainleveError, ValueError):
    """Special function evaluated at a pole."""


class SpecFunRangeError(PainleveError, ValueError):
    """Argument outside the supported evaluation range (would overflow)."""


class BranchCutError(PainleveError, ValueError):
    """Evaluation point lies on (or too close to) a branch cut or segment cut."""


class SectorBoundaryError(PainleveError, ValueError):
    """Evaluation point lies on a sector boundary ray of a sectional matrix."""


class BlowupError(PainleveError, RuntimeError):
    """ODE trajectory exceeded the blow-up guard; launch data amplified an error."""


class FitConvergenceError(PainleveError, RuntimeError):
    """Nonlinear least-squares fit failed to converge within the iteration budget."""


class QuadratureError(PainleveError, RuntimeError):
    """Contour or panel quadrature failed to reach the requested accuracy."""


class GridRangeError(PainleveError, ValueError):
    """Requested window is not covered by the available solution grid."""


class ConfigError(PainleveError, ValueError):
    """Malformed run configuration (bad key, bad value, missing field)."""
