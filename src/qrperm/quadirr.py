"""Exact arithmetic for quadratic irrationals (a + b*sqrt(d)) / c.

The point of this module is one predicate: compare fractional parts
{alpha*s} vs {alpha*t} with no floating point anywhere.  Everything
reduces to the sign of M + B*sqrt(d) for integers M, B, which is decided
by comparing M^2 against B^2*d (sign-aware; equality is impossible for
square-free d >= 2 and B != 0, which is exactly why the comparator never
reports a tie for irrational alpha and s != t).

{q*alpha} itself is written here once: frac_surd gives its surd form
(A + B*sqrt(d))/c from q and floor(q*alpha), for Python ints and int64
arrays alike, and surd_float its float64 value.  frac_compare,
frac_float, the vectorised Sos prefix keys and the discrelation boxes of
ranksets all go through them, so the float keys of a scan are
frac_float's bits because they run the same code.

Canonical form: c > 0, gcd(a, b, c) = 1, d square-free and >= 2, b != 0.
Rational alphas are handled by fractions.Fraction throughout the
package; this module only owns the irrational case plus the shared
parser for alpha handles ("golden", "sqrt:D", "quad:a,b,d,c", "rat:p/q",
optionally prefixed with "-").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import QrpermError
from .modular import factorize


def is_square_free(d: int) -> bool:
    if d < 1:
        return False
    return all(e == 1 for e in factorize(d).values())


@dataclass(frozen=True)
class QuadraticIrrational:
    """(a + b*sqrt(d)) / c in canonical form."""

    a: int
    b: int
    d: int
    c: int

    def __post_init__(self):
        if self.c == 0:
            raise QrpermError("zero denominator")
        if self.b == 0:
            raise QrpermError("b = 0 is rational; use Fraction instead")
        if self.d < 2 or not is_square_free(self.d):
            raise QrpermError(f"d = {self.d} must be square-free and >= 2")
        a, b, c = self.a, self.b, self.c
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "b", b // g)
        object.__setattr__(self, "c", c // g)

    def __float__(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def __neg__(self) -> "QuadraticIrrational":
        return QuadraticIrrational(-self.a, -self.b, self.d, self.c)


def golden() -> QuadraticIrrational:
    return QuadraticIrrational(1, 1, 5, 2)


def sqrt_irr(d: int) -> QuadraticIrrational:
    return QuadraticIrrational(0, 1, d, 1)


def sign_of_surd(m: int, b: int, d: int) -> int:
    """Sign of m + b*sqrt(d), exactly.  d must be square-free >= 2."""
    if b == 0:
        return (m > 0) - (m < 0)
    if b > 0:
        if m >= 0:
            return 1
        # m < 0: sign decided by b^2 d vs m^2
        lhs, rhs = b * b * d, m * m
    else:
        if m <= 0:
            return -1
        lhs, rhs = m * m, b * b * d
    if lhs == rhs:  # impossible for square-free d, kept for safety
        return 0
    return 1 if lhs > rhs else -1


def floor_surd(a: int, b: int, d: int, c: int) -> int:
    """floor((a + b*sqrt(d)) / c), exact.  Allows b = 0; requires c != 0."""
    if c == 0:
        raise QrpermError("zero denominator")
    if c < 0:
        a, b, c = -a, -b, -c
    r = math.isqrt(b * b * d)
    approx = a + (r if b >= 0 else -(r + 1))
    q = approx // c
    # fix up with exact comparisons: want q*c <= a + b*sqrt(d) < (q+1)*c
    while sign_of_surd(a - q * c, b, d) < 0:
        q -= 1
    while sign_of_surd(a - (q + 1) * c, b, d) >= 0:
        q += 1
    return q


def floor_multiple(alpha: QuadraticIrrational, s: int) -> int:
    """floor(alpha * s), exact."""
    return floor_surd(alpha.a * s, alpha.b * s, alpha.d, alpha.c)


def frac_surd(alpha: QuadraticIrrational, q, fl):
    """(A, B) with {q*alpha} = (A + B*sqrt(d)) / c, given fl =
    floor(q*alpha).  q and fl are ints or int64 arrays alike; linear in
    (q, fl), so a difference of two points is frac_surd of the
    differences."""
    return alpha.a * q - alpha.c * fl, alpha.b * q


def surd_float(alpha: QuadraticIrrational, big_a, big_b):
    """(A + B*sqrt(d)) / c in float64, for ints or int64 arrays: the one
    operation order of every float {q*alpha} in the package."""
    return (big_a + big_b * math.sqrt(alpha.d)) / alpha.c


def frac_compare(alpha, s: int, t: int) -> int:
    """Compare {alpha*s} with {alpha*t}: -1, 0 or +1.

    alpha is a QuadraticIrrational, Fraction, or int.  For irrational
    alpha the result is never 0 when s != t.
    """
    if s == t:
        return 0
    if isinstance(alpha, QuadraticIrrational):
        fl = floor_multiple(alpha, s) - floor_multiple(alpha, t)
        return sign_of_surd(*frac_surd(alpha, s - t, fl), alpha.d)
    alpha = Fraction(alpha)
    num, den = alpha.numerator, alpha.denominator
    rs = num * s % den
    rt = num * t % den
    return (rs > rt) - (rs < rt)


def frac_float(alpha, s: int) -> float:
    """{alpha*s} as a float, from the exact floor.

    Error is bounded by |b*s|*sqrt(d)*eps/c, about 4e-12 for s <= 1e4
    and the constants used in this package; the integer part carries no
    error at all.
    """
    if isinstance(alpha, QuadraticIrrational):
        return surd_float(alpha,
                          *frac_surd(alpha, s, floor_multiple(alpha, s)))
    alpha = Fraction(alpha)
    return float(alpha.numerator * s % alpha.denominator) / alpha.denominator


def parse_alpha(text: str):
    """Parse an alpha handle: golden | sqrt:D | quad:a,b,d,c | rat:p/q.

    A leading '-' negates the value.  Returns QuadraticIrrational or
    Fraction.  Errors name the offending field.
    """
    s = text.strip()
    neg = s.startswith("-")
    if neg:
        s = s[1:]
    try:
        if s == "golden":
            val = golden()
        elif s.startswith("sqrt:"):
            d = int(s.split(":", 1)[1])
            if d < 2 or not is_square_free(d):
                raise QrpermError(
                    f"alpha sqrt:{d}: d must be square-free and >= 2")
            val = sqrt_irr(d)
        elif s.startswith("quad:"):
            parts = s.split(":", 1)[1].split(",")
            if len(parts) != 4:
                raise QrpermError(
                    f"alpha {text!r}: quad needs exactly a,b,d,c")
            a, b, d, c = (int(x) for x in parts)
            val = QuadraticIrrational(a, b, d, c)
        elif s.startswith("rat:"):
            num, _, den = s.split(":", 1)[1].partition("/")
            val = Fraction(int(num), int(den) if den else 1)
        else:
            raise QrpermError(f"alpha {text!r}: unknown handle")
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, QrpermError):
            raise
        raise QrpermError(f"alpha {text!r}: {exc}") from exc
    return -val if neg else val


def alpha_label(alpha) -> str:
    """Stable text form for provenance records; parse_alpha round-trips it."""
    if isinstance(alpha, QuadraticIrrational):
        if alpha == golden():
            return "golden"
        if alpha == -golden():
            return "-golden"
        if alpha.a == 0 and alpha.b == 1 and alpha.c == 1:
            return f"sqrt:{alpha.d}"
        return f"quad:{alpha.a},{alpha.b},{alpha.d},{alpha.c}"
    f = Fraction(alpha)
    return f"rat:{f.numerator}/{f.denominator}"
