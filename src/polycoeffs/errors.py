"""Exception types raised across the package."""


class ZeroConstantTerm(ValueError):
    """A series with zero constant term was asked for its inverse."""


class NonzeroInnerConstant(ValueError):
    """Series composition requires the inner series to vanish at 0."""


class NegativeN(ValueError):
    """An operation defined only for non-negative row index got a negative one."""


class TooLarge(ValueError):
    """Parameters exceed the guard rails of an exponential-time routine."""


class DomainError(ValueError):
    """A numeric evaluation point lies outside the convergence region."""


class MismatchError(RuntimeError):
    """A built-in self-check disagreed with direct computation.

    This signals an implementation bug, never bad user input.  ``params``
    names the point that disagreed, ``computed`` is the checked value and
    ``expected`` the direct one; each is ``None`` when the check has none.
    """

    def __init__(self, message: str, *, params=None, computed=None, expected=None):
        super().__init__(message)
        self.params = params
        self.computed = computed
        self.expected = expected
