"""Continued fractions and bounded-quotient searches.

Expansions are exact.  Finite expansions are canonical (last partial
quotient >= 2, except the single-term integer case), so every rational
has one representation and denominators of [0; a_1..a_m] are exactly the
continuants K(a_1..a_m).

One recurrence gives every convergent: _convergent_stream yields
(a_i, p_i, q_i) along any quotient sequence, and _quotient_stream, the
one place that unrolls a periodic tail (it cycles forever), turns an
expansion into one.  _convergents_upto, which stops at the last
q_i <= n, serves the three-distance walk of sos_perm and the quotient
profile of scan_sos.

Quadratic irrationals get the classical (P + sqrt(D))/Q surd recurrence
with period detection on the (P, Q) state, so golden -> [1; (1)],
sqrt(2) -> [1; (2)], sqrt(3) -> [1; (1, 2)] terminate with an explicit
periodic tail instead of a truncation.

bounded_average_check is the "bounded in average by B" predicate (every
prefix mean of the partial quotients is <= B), and zaremba_search scans
numerators k coprime to n for the expansion of k/n with the smallest
maximal quotient, breaking ties by maximal prefix average.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import QrpermError
from .quadirr import QuadraticIrrational, floor_surd


@dataclass(frozen=True)
class ContinuedFraction:
    """[a0; q_1, q_2, ...] with an optional periodic tail.

    periodic_tail = i means quotients[i:] repeats forever; None means
    the expansion is finite (and canonical: last quotient >= 2 unless
    the value is an integer and quotients is empty).
    """

    a0: int
    quotients: tuple[int, ...]
    periodic_tail: int | None = None

    def __post_init__(self):
        if any(q < 1 for q in self.quotients):
            raise QrpermError("partial quotients must be >= 1")
        if self.periodic_tail is not None:
            if not 0 <= self.periodic_tail < len(self.quotients):
                raise QrpermError("periodic tail index out of range")
        elif self.quotients and self.quotients[-1] < 2:
            raise QrpermError("canonical finite form needs last quotient >= 2")

    def __str__(self) -> str:
        if self.periodic_tail is None:
            body = ", ".join(str(q) for q in self.quotients)
            return f"[{self.a0}; {body}]" if body else f"[{self.a0}]"
        head = ", ".join(str(q) for q in self.quotients[:self.periodic_tail])
        tail = ", ".join(str(q) for q in self.quotients[self.periodic_tail:])
        sep = ", " if head else ""
        return f"[{self.a0}; {head}{sep}({tail})]"


def cf_of_rational(num: int, den: int) -> ContinuedFraction:
    """Canonical expansion of num/den via the Euclidean algorithm."""
    if den == 0:
        raise QrpermError("zero denominator")
    if den < 0:
        num, den = -num, -den
    a0 = num // den
    rem = num - a0 * den
    quotients: list[int] = []
    a, b = den, rem
    while b:
        q, r = divmod(a, b)
        quotients.append(q)
        a, b = b, r
    # canonical form: fold a trailing 1 into its predecessor (a lone
    # quotient 1 cannot occur: den/rem > 1 whenever 0 < rem < den)
    if len(quotients) >= 2 and quotients[-1] == 1:
        quotients.pop()
        quotients[-1] += 1
    return ContinuedFraction(a0, tuple(quotients))


def cf_of_quadratic(alpha: QuadraticIrrational) -> ContinuedFraction:
    """Expansion of a quadratic irrational with exact period detection."""
    # normalize to (P + sqrt(D)) / Q with the sqrt coefficient +1
    if alpha.b > 0:
        p_, d_, q_ = alpha.a, alpha.b * alpha.b * alpha.d, alpha.c
    else:
        p_, d_, q_ = -alpha.a, alpha.b * alpha.b * alpha.d, -alpha.c
    if (d_ - p_ * p_) % q_:
        p_ *= abs(q_)
        d_ *= q_ * q_
        q_ *= abs(q_)
    terms: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    while len(terms) <= 10_000:
        state = (p_, q_)
        if state in seen:
            k0, k = seen[state], len(terms)
            if k0 == 0:
                # purely periodic from a0: rotate the block one step so
                # it starts at a_1
                block = terms[1:k] + terms[0:1]
                return ContinuedFraction(terms[0], tuple(block), 0)
            return ContinuedFraction(terms[0], tuple(terms[1:k]), k0 - 1)
        seen[state] = len(terms)
        a_i = floor_surd(p_, 1, d_, q_)
        terms.append(a_i)
        p_next = a_i * q_ - p_
        q_next = (d_ - p_next * p_next) // q_
        p_, q_ = p_next, q_next
    raise QrpermError("period not closed within 10000 terms")


def _quotient_stream(cf: ContinuedFraction):
    """a_1, a_2, ...: the stored quotients, then the periodic tail
    forever; a finite expansion ends after its last quotient."""
    yield from cf.quotients
    if cf.periodic_tail is not None:
        yield from itertools.cycle(cf.quotients[cf.periodic_tail:])


def _convergent_stream(a0: int, quotients):
    """(a_i, p_i, q_i) for i = 1, 2, ...: each partial quotient of
    [a0; a_1, a_2, ...] with its convergent p_i/q_i, from the recurrence
    x_i = a_i*x_{i-1} + x_{i-2}, (p_{-1}, q_{-1}) = (1, 0) and
    (p_0, q_0) = (a0, 1).  q_i is the continuant K(a_1..a_i)."""
    p_prev, p, q_prev, q = 1, a0, 0, 1
    for a in quotients:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        yield a, p, q


def _convergents_upto(cf: ContinuedFraction, n: int):
    """(a_i, p_i, q_i) from _convergent_stream for the convergents of cf
    with q_i <= n, in order."""
    return itertools.takewhile(
        lambda t: t[2] <= n, _convergent_stream(cf.a0, _quotient_stream(cf)))


@dataclass(frozen=True)
class AverageCheck:
    ok: bool
    bound: Fraction
    max_prefix_average: Fraction
    witness_prefix: int | None  # length of the first violating prefix


def _parse_bound(bound) -> Fraction:
    """A quotient bound B > 0 from an int, a Fraction or "p/q" text."""
    try:
        bound = Fraction(bound)
    except (TypeError, ValueError, ZeroDivisionError):
        raise QrpermError(f"bound must be a number, got {bound!r}") from None
    if bound <= 0:
        raise QrpermError("bound must be positive")
    return bound


def bounded_average_check(quotients, bound) -> AverageCheck:
    """Is every prefix mean of the quotients <= bound?  Exact."""
    bound = _parse_bound(bound)
    quotients = tuple(quotients)
    total = 0
    witness = None
    best = Fraction(0)
    for m, a in enumerate(quotients, start=1):
        total += a
        avg = Fraction(total, m)
        if avg > best:
            best = avg
        if witness is None and avg > bound:
            witness = m
    return AverageCheck(witness is None, bound, best, witness)


@dataclass(frozen=True)
class ZarembaResult:
    n: int
    bound: Fraction
    k: int
    quotients: tuple[int, ...]
    max_quotient: int
    max_prefix_average: Fraction
    certifies: bool  # winner's expansion is bounded in average by bound


def zaremba_search(n: int, bound) -> ZarembaResult:
    """Best numerator k coprime to n: minimize the maximal partial
    quotient of k/n, then the maximal prefix average, then k itself.

    certifies reports whether the winner's expansion is bounded in
    average by `bound`, i.e. whether this k witnesses n's membership in
    the continuant set F(bound).
    """
    if n < 2:
        raise QrpermError("n must be >= 2")
    bound = _parse_bound(bound)
    best = None
    for k in range(1, n):
        if math.gcd(k, n) != 1:
            continue
        quot = cf_of_rational(k, n).quotients
        maxq = max(quot)
        chk = bounded_average_check(quot, bound)
        key = (maxq, chk.max_prefix_average, k)
        if best is None or key < best[0]:
            best = (key, k, quot, maxq, chk)
    assert best is not None  # k = 1 is always coprime
    _, k, quot, maxq, chk = best
    return ZarembaResult(n, bound, k, quot, maxq, chk.max_prefix_average,
                         chk.ok)
