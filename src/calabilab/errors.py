"""Exception hierarchy shared by all modules."""


class CalabiLabError(Exception):
    """Base class for all library errors."""


class AdmissibilityError(CalabiLabError):
    """A metric profile violates its admissibility invariants.  A profile
    that a solve converged to carries the solver's residual trace."""

    def __init__(self, violations, trace=None):
        self.violations = list(violations)
        self.trace = list(trace) if trace is not None else []
        msg = "; ".join(str(v) for v in self.violations) or "inadmissible profile"
        super().__init__(msg)


class DegenerateWeight(CalabiLabError):
    """A weighted affine projection has a negative weight or singular normal equations."""


class DomainError(CalabiLabError):
    """A function was evaluated outside its domain.

    Carries the offending value and, when known, the grid node or, for a
    value not sampled on the grid, what was being evaluated.
    """

    def __init__(self, tag, value, node=None, where=None):
        self.tag = tag
        self.value = value
        self.node = node
        loc = f" at node x={node!r}" if node is not None else ""
        if where is not None:
            loc += f" ({where})"
        super().__init__(f"{tag}: value {value!r} outside domain{loc}")


class SingularPotential(CalabiLabError):
    """Re h(phi), which the solver divides by, vanishes or changes sign on
    the momentum interval."""


class RangeError(CalabiLabError):
    """A Newton step of the critical-metric solve, halved as far as the
    solver allows, still leaves the domain of f or the branch of f' through
    the start, or makes Re h f'(s) overflow; the message names the node."""


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


class NonFiniteError(CalabiLabError, ValueError):
    """A computed value overflowed to inf or nan; the message names the
    quantity.  Also a ValueError, as a non-finite sample is a bad value."""


class ConfigError(CalabiLabError):
    """Bad run configuration or expression syntax (CLI exit code 2)."""
