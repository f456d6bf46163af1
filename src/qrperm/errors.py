"""Shared exception types.

Every refusal in this package is a typed error naming the offending
value, so callers can distinguish "bad parameter" from "bad size cap"
without parsing messages.
"""


class QrpermError(ValueError):
    pass


class InvalidModulusError(QrpermError):
    """Modulus failed a structural requirement (not prime, zero, ...)."""


class NotAUnitError(QrpermError):
    """Element is not invertible; carries the offending gcd."""

    def __init__(self, value, modulus, gcd):
        self.value = value
        self.modulus = modulus
        self.gcd = gcd
        super().__init__(
            f"{value} is not a unit mod {modulus} (gcd {gcd})")


class NotAPermutationError(QrpermError):
    """Requested parameters do not define a bijection."""


class InvalidGeneratorError(QrpermError):
    """Element has the wrong multiplicative order (by default: is not a
    primitive root); carries its actual order and the expected one."""

    def __init__(self, value, modulus, order, expected=None):
        self.value = value
        self.modulus = modulus
        self.order = order
        self.expected = modulus - 1 if expected is None else expected
        super().__init__(
            f"{value} has order {order} mod {modulus}, not {self.expected}")


class AmbiguousOrderError(QrpermError):
    """A ranking hit a tie that the caller did not allow; carries the pair."""

    def __init__(self, pair, detail=""):
        self.pair = pair
        super().__init__(f"tie between {pair[0]} and {pair[1]}{detail}")


class SizeRefusedError(QrpermError):
    """Input exceeds a documented size cap."""
