"""Exception hierarchy shared by all modules."""


class CalabiLabError(Exception):
    """Base class for all library errors."""


class AdmissibilityError(CalabiLabError):
    """A metric profile violates its admissibility invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        msg = "; ".join(str(v) for v in self.violations) or "inadmissible profile"
        super().__init__(msg)


class DegenerateWeight(CalabiLabError):
    """A weighted affine projection has a negative weight or singular normal equations."""


class DomainError(CalabiLabError):
    """A function was evaluated outside its domain.

    Carries the offending value and, when known, the grid node.
    """

    def __init__(self, tag, value, node=None):
        self.tag = tag
        self.value = value
        self.node = node
        loc = f" at node x={node!r}" if node is not None else ""
        super().__init__(f"{tag}: value {value!r} outside domain{loc}")


class SingularPotential(CalabiLabError):
    """Re h(phi), which the solver divides by, vanishes or changes sign on
    the momentum interval."""


class RangeError(CalabiLabError):
    """A target left the range of the function being inverted (f' in a
    solve), or the Newton inversion could not reach it."""


class ConvergenceError(CalabiLabError):
    """An iterative solve stagnated.  Carries the residual trace."""

    def __init__(self, message, trace=None):
        self.trace = list(trace) if trace is not None else []
        super().__init__(message)


class PathExitsClass(CalabiLabError):
    """A finite transport left the admissible cone."""

    def __init__(self, t_max):
        self.t_max = t_max
        super().__init__(f"transport leaves the admissible cone near t={t_max!r}")


class ConfigError(CalabiLabError):
    """Bad run configuration or expression syntax (CLI exit code 2)."""
