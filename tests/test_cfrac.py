"""Continued fractions: expansions, convergents, Zaremba search."""

import itertools
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrperm import (
    ContinuedFraction,
    QrpermError,
    QuadraticIrrational,
    bounded_average_check,
    cf_of_quadratic,
    cf_of_rational,
    golden,
    sign_of_surd,
    sqrt_irr,
    zaremba_search,
)
from qrperm.cfrac import (_convergent_stream, _convergents_upto,
                          _quotient_stream)


def _decimal_cf_terms(x: Decimal, count: int) -> list[int]:
    out = []
    for _ in range(count):
        a = int(x.to_integral_value(rounding="ROUND_FLOOR"))
        out.append(a)
        x = 1 / (x - a)
    return out


# ------------------------------------------------------------ expansions

def test_quadratic_expansions_frozen():
    assert str(cf_of_quadratic(golden())) == "[1; (1)]"
    assert str(cf_of_quadratic(sqrt_irr(2))) == "[1; (2)]"
    assert str(cf_of_quadratic(sqrt_irr(3))) == "[1; (1, 2)]"
    cf = cf_of_quadratic(sqrt_irr(3))
    assert list(itertools.islice(_quotient_stream(cf), 6)) == [1, 2] * 3


def test_quadratic_expansion_matches_decimal_oracle():
    getcontext().prec = 80
    cases = [
        (golden(), (1 + Decimal(5).sqrt()) / 2),
        (sqrt_irr(2), Decimal(2).sqrt()),
        (sqrt_irr(7), Decimal(7).sqrt()),
        (QuadraticIrrational(3, -2, 7, 5), (3 - 2 * Decimal(7).sqrt()) / 5),
        (QuadraticIrrational(1, 1, 13, 3), (1 + Decimal(13).sqrt()) / 3),
    ]
    for alpha, dec in cases:
        cf = cf_of_quadratic(alpha)
        want = _decimal_cf_terms(dec, 16)
        assert cf.a0 == want[0]
        assert list(itertools.islice(_quotient_stream(cf), 15)) == want[1:]


def test_rational_expansions_canonical():
    assert (cf_of_rational(7, 10).a0, cf_of_rational(7, 10).quotients) \
        == (0, (1, 2, 3))
    assert cf_of_rational(5, 8).quotients == (1, 1, 1, 2)
    assert cf_of_rational(3, 1).quotients == ()
    assert cf_of_rational(-7, 10).a0 == -1
    with pytest.raises(QrpermError, match="zero denominator"):
        cf_of_rational(1, 0)


@given(st.integers(-200, 200), st.integers(1, 200))
@settings(max_examples=200)
def test_rational_expansion_reconstructs_value(num, den):
    cf = cf_of_rational(num, den)
    # canonical: last quotient >= 2, and folding the expansion back up
    # recovers the value exactly
    if cf.quotients:
        assert cf.quotients[-1] >= 2
    value = Fraction(0)
    for q in reversed(cf.quotients):
        value = 1 / (q + value)
    assert cf.a0 + value == Fraction(num, den)


def test_continued_fraction_validation():
    with pytest.raises(QrpermError, match="last quotient"):
        ContinuedFraction(1, (2, 1))
    with pytest.raises(QrpermError, match=">= 1"):
        ContinuedFraction(1, (0, 2))
    with pytest.raises(QrpermError, match="tail"):
        ContinuedFraction(1, (1, 2), 2)


# ----------------------------------------------------------- convergents

def test_convergents_frozen():
    golden_cf = cf_of_quadratic(golden())
    assert [(p, q) for _, p, q in _convergents_upto(golden_cf, 5)] == [
        (2, 1), (3, 2), (5, 3), (8, 5)]
    # the stream starts at [a0; a_1], and a finite expansion's stream
    # ends with the value itself
    cf = ContinuedFraction(0, (1, 2, 3))
    assert [(p, q) for _, p, q in _convergents_upto(cf, 10**6)] == [
        (1, 1), (2, 3), (7, 10)]
    assert [q for _, _, q in _convergents_upto(cf, 9)] == [1, 3]
    assert list(_convergents_upto(cf_of_rational(3, 1), 10)) == []
    assert list(_convergents_upto(cf_of_quadratic(sqrt_irr(2)), 0)) == []


def test_convergent_error_bound_exact():
    # |alpha - p_s/q_s| < 1/(q_s q_{s+1}), checked by surd signs with no
    # floating point: v = (alpha q_s - p_s) q_{s+1} must lie in (-1, 1)
    for alpha in (golden(), sqrt_irr(2), sqrt_irr(3),
                  QuadraticIrrational(1, 1, 13, 3)):
        cf = cf_of_quadratic(alpha)
        stream = _convergent_stream(cf.a0, _quotient_stream(cf))
        cons = [(cf.a0, 1)] + [(p, q) for _, p, q in
                               itertools.islice(stream, 11)]
        for (p, q), (_, qn) in zip(cons, cons[1:]):
            a_term = (alpha.a * q - p * alpha.c) * qn
            b_term = alpha.b * q * qn
            assert sign_of_surd(a_term - alpha.c, b_term, alpha.d) < 0
            assert sign_of_surd(a_term + alpha.c, b_term, alpha.d) > 0


@given(st.integers(2, 300), st.data())
@settings(max_examples=120)
def test_continuant_is_denominator(n, data):
    k = data.draw(st.integers(1, n - 1).filter(lambda x: math.gcd(x, n) == 1))
    quotients = cf_of_rational(k, n).quotients
    assert list(_convergent_stream(0, quotients))[-1][2] == n


# ------------------------------------------------------ shared streams

@given(st.integers(-50, 50), st.lists(st.integers(1, 40), max_size=12))
@settings(max_examples=200)
def test_convergent_stream_matches_fraction_values(a0, quotients):
    got = list(_convergent_stream(a0, quotients))
    assert [a for a, _, _ in got] == quotients
    for i, (_, p, q) in enumerate(got, start=1):
        # [a0; a_1..a_i] folded up from the right, in exact arithmetic
        value = Fraction(0)
        for a in reversed(quotients[:i]):
            value = 1 / (a + value)
        value += a0
        assert q > 0 and (p, q) == (value.numerator, value.denominator)


def test_quotient_stream_agrees_with_quotient():
    for cf in (cf_of_quadratic(golden()), cf_of_quadratic(sqrt_irr(3)),
               cf_of_quadratic(QuadraticIrrational(1, 1, 13, 3)),
               cf_of_rational(355, 113)):
        head = list(itertools.islice(_quotient_stream(cf), 40))
        if cf.periodic_tail is None:
            assert head == list(cf.quotients)   # finite: the stream ends
            continue
        # a_i is the stored quotient, or the tail entry at i's offset
        # into the period
        tail, m = cf.periodic_tail, len(cf.quotients)
        assert head == [cf.quotients[i if i < m
                                     else tail + (i - m) % (m - tail)]
                        for i in range(40)]
    assert list(_quotient_stream(cf_of_rational(3, 1))) == []


# ----------------------------------------------------- averages, zaremba

def test_bounded_average_check():
    chk = bounded_average_check((1, 2, 1, 2), 2)
    assert chk.ok and chk.witness_prefix is None
    assert chk.max_prefix_average == Fraction(3, 2)
    chk = bounded_average_check((1, 5, 1, 1), 2)
    assert not chk.ok and chk.witness_prefix == 2
    assert chk.max_prefix_average == Fraction(3)
    with pytest.raises(QrpermError, match="positive"):
        bounded_average_check((1, 2), 0)


def test_zaremba_frozen_examples():
    z = zaremba_search(6, 5)
    assert (z.k, z.quotients, z.max_quotient) == (5, (1, 5), 5)
    z = zaremba_search(10, 5)
    assert (z.k, z.quotients, z.max_quotient) == (7, (1, 2, 3), 3)
    assert z.max_prefix_average == Fraction(2)
    assert z.certifies
    z = zaremba_search(2, 5)
    assert (z.k, z.quotients, z.max_quotient) == (1, (2,), 2)
    with pytest.raises(QrpermError):
        zaremba_search(1, 5)


def test_zaremba_winner_reconstructs_denominator():
    for n in range(2, 120):
        z = zaremba_search(n, 5)
        assert list(_convergent_stream(0, z.quotients))[-1][2] == n
        assert math.gcd(z.k, n) == 1
        # the winner's quotients really are the expansion of k/n
        assert cf_of_rational(z.k, n).quotients == z.quotients


def test_zaremba_winner_minimizes_max_quotient():
    for n in (17, 30, 47, 60):
        z = zaremba_search(n, 5)
        rivals = [max(cf_of_rational(k, n).quotients)
                  for k in range(1, n) if math.gcd(k, n) == 1]
        assert z.max_quotient == min(rivals)
