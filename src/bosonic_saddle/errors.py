"""Exception types shared across the package."""


class BosonicSaddleError(Exception):
    """Base class for all library errors."""


class BadDimension(BosonicSaddleError):
    """Matrix or mode-count dimension is out of range."""


class NotUnitary(BosonicSaddleError):
    """Matrix failed the unitarity check; carries the max deviation."""

    def __init__(self, deviation: float):
        self.deviation = deviation
        super().__init__(f"matrix is not unitary: max |U^dag U - I| = {deviation:.3e}")


class MarginMismatch(BosonicSaddleError):
    """Input and output occupations do not carry the same particle total."""


class TooLarge(BosonicSaddleError):
    """Problem size exceeds a hard guard for a brute-force oracle."""


class NoConvergence(BosonicSaddleError):
    """The homotopy solver lost a path or kept no converged root."""


class NoSaddlesFound(BosonicSaddleError):
    """Saddle-point approximation has no saddles to work with."""


class DegenerateSaddle(BosonicSaddleError):
    """All converged scaling solutions have (near-)zero entries p_kl.

    Saddles with a vanishing entry make the integrand exponent infinite,
    so they are excluded; if nothing else is found, the approximation is
    undefined for this network/occupation combination.
    """


class NonPositiveMatrix(BosonicSaddleError):
    """Sinkhorn scaling requires a strictly positive matrix."""


class NonPositiveIntensity(BosonicSaddleError):
    """Classical saddle approximation requires |U_kl|^2 > 0 everywhere."""


class FormMismatch(BosonicSaddleError):
    """The two reduced forms of the constrained Hessian determinant disagree.

    This signals an invalid saddle (margins not actually satisfied) rather
    than a numerical problem with the determinant itself.
    """


class ZeroScalingComponent(BosonicSaddleError):
    """A scaling vector component is zero; the saddle exponent is undefined."""


class EmptyMode(BosonicSaddleError):
    """An operation requiring strictly positive occupations got a zero count."""


class CoalescingSaddles(BosonicSaddleError):
    """Two saddle points (nearly) coalesce; the leading-order formula diverges.

    The offending diagnostics record is attached as ``diagnostics``.
    """

    def __init__(self, message: str, diagnostics=None):
        self.diagnostics = diagnostics
        super().__init__(message)
