"""Exception types shared by the numerical modules."""


class EvaluationError(RuntimeError):
    """A numerical evaluation (series, quadrature, contour) failed to converge.

    Carries whatever partial diagnostics were available at the point of
    failure in the ``diagnostics`` dict.
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class RootNotFoundError(RuntimeError):
    """A bracketed root search exhausted its horizon without a sign change."""

