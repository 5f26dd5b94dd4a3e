"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates an operation's precondition."""


class DomainError(ValueError):
    """A numeric argument lies outside the function's domain."""


class BudgetError(RuntimeError):
    """An exact computation would exceed its budget (subsets or search nodes)."""


class UndefinedCurveError(ArithmeticError):
    """The first moment curve is undefined at the requested overlap."""


class CertificationError(RuntimeError):
    """Certification was requested on inputs that cannot support it."""
