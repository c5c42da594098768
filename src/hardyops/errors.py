"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation.

    Raised for bad exponent windows, couplings below the critical value,
    malformed point geometry, and similar precondition failures.
    """


class ConvergenceError(RuntimeError):
    """An iterative or adaptive procedure exhausted its budget.

    Raised by root finding and adaptive quadrature when the requested
    tolerance cannot be certified within the refinement budget.
    """


class ConstructionError(RuntimeError):
    """A discrete operator failed a structural sanity check.

    Raised when a grid is not log-uniform or too coarse for the near-field
    solve, when an operator loses the nonnegativity guaranteed by the
    continuum theory, or when a potential escapes its declared sandwich
    bounds.
    """
