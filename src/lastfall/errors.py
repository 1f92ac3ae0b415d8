"""Exception types raised across the library."""


class LastfallError(Exception):
    """Base class for library-specific errors."""


class NonPrimeCharacteristic(LastfallError):
    pass


class UnsupportedField(LastfallError, ValueError):
    """A field shape outside e >= 1, n >= 1 and order <= gf.MAX_ORDER."""


class ReducibleModulus(LastfallError):
    """A supplied modulus factors over its base field; carries the modulus."""

    def __init__(self, which, coeffs):
        self.which = which
        self.coeffs = tuple(coeffs)
        super().__init__(f"modulus {which} = {list(coeffs)} is reducible")


class DivisionByZero(LastfallError, ZeroDivisionError):
    pass


class NotABasis(LastfallError):
    pass


class RingMismatch(LastfallError):
    pass


class UnassignedVariable(LastfallError):
    pass


class DegreeTooHigh(LastfallError):
    pass


class StepBudgetExceeded(LastfallError):
    pass


class EnumerationBudgetExceeded(LastfallError, ValueError):
    """An exhaustive enumeration would visit more points than its budget."""


class OracleInconsistent(LastfallError):
    """A truncation oracle reported fewer ideal elements in some degrees than
    the span, which lies inside the ideal, already holds."""


class CampaignExhausted(LastfallError, RuntimeError):
    """A verification campaign ran out of draws before it had the rows it
    was asked for."""


class NotADivisor(LastfallError):
    pass


class DegreeExceedsBound(LastfallError):
    pass


class NotReducible(LastfallError):
    """The companions of one elimination stage share a nonzero kernel vector
    in W; carries the stage and their monic symbolic gcd with f_W."""

    def __init__(self, stage, gcd):
        self.stage = stage
        self.gcd = tuple(gcd)
        super().__init__(f"not reducible at stage {stage}: the stage companions "
                         f"and f_W have a symbolic gcd of degree {len(self.gcd) - 1}")


class CoordinateNotInField(LastfallError):
    pass


class MalformedInput(LastfallError, ValueError):
    """Input that describes no valid object, such as a negative exponent."""
