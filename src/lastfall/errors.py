"""Exception types raised across the library, and the readers of values from
outside it: :func:`as_int` and :func:`as_codes` read every integer that a
caller, a JSON file or a config hands in, with one rule (an ``int`` or a
numpy integer, never a ``bool``), and refuse anything else, or a value out
of range, with :class:`MalformedInput`; :func:`json_value` reads a JSON key."""

import operator

import numpy as np


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


def as_int(value, what, least=None, below=None):
    """`value` as an int, with least <= value < below where given."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(
            value, (int, np.integer))) or (least is not None and value < least) or (
            below is not None and value >= below):
        raise MalformedInput(f"{what} must be an integer{_bounds(least, below)}, got {value!r}")
    return int(value)


def as_codes(values, below, what, length=None):
    """The list, tuple or numpy array `values` as a tuple of ints in
    [0, below), `length` of them where given; a `below` of None sets no
    upper bound.  The items are read at C speed, with no Python call per
    item."""
    if isinstance(values, np.ndarray):  # its Python scalars read faster
        values = values.tolist()
    try:
        codes = tuple(map(operator.index, values))
        if not isinstance(values, (list, tuple)) or bool in map(type, values) or (
                length not in (None, len(codes))) or codes and (
                min(codes) < 0 or below is not None and max(codes) >= below):
            raise TypeError
    except TypeError:
        count = "" if length is None else f"{length} "
        raise MalformedInput(f"{what} must be a list of {count}integers"
                             f"{_bounds(0, below)}, got {values!r}") from None
    return codes


def _bounds(least, below):
    return " and".join(f" {op} {b}" for op, b in ((">=", least), ("<", below)) if b is not None)


def json_value(obj, key, kind=None):
    """obj[key], refusing a non-object, a missing key or a value not of `kind`."""
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedInput(f"missing key {key!r}")
    if kind is not None and not isinstance(obj[key], kind):
        raise MalformedInput(f"{key!r} must be a {kind.__name__}, got {type(obj[key]).__name__}")
    return obj[key]
