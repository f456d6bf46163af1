"""Permutation family tables, algebraic identities, and constructor errors."""

import functools
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrperm import (
    AmbiguousOrderError,
    InvalidGeneratorError,
    NotAPermutationError,
    NotAUnitError,
    Permutation,
    QrpermError,
    bit_reversal,
    eta_power,
    frac_compare,
    from_text,
    golden,
    identity_perm,
    invert,
    lambda_inv,
    mod_inv,
    parse_alpha,
    psi,
    random_perm,
    reversal_perm,
    rho_exp,
    sos_perm,
    sqrt_irr,
    to_text,
)

from conftest import PRIMES_TO_200


# ---------------------------------------------------------------- tables

def test_psi_frozen_tables():
    assert psi(5, 2).image == (0, 2, 4, 1, 3)
    assert psi(6, 5).image == (0, 5, 4, 3, 2, 1)
    assert psi(7, 1).image == tuple(range(7))
    assert psi(1, 1).image == (0,)


def test_psi_rejects_non_unit():
    with pytest.raises(NotAUnitError) as exc:
        psi(6, 3)
    assert exc.value.gcd == 3


def test_lambda_frozen_tables():
    assert lambda_inv(7, 1).image == (0, 1, 4, 5, 2, 3, 6)
    assert lambda_inv(5, 2).image == (0, 2, 1, 4, 3)


def test_lambda_rejects_zero_multiplier():
    with pytest.raises(NotAUnitError):
        lambda_inv(7, 0)
    with pytest.raises(QrpermError):
        lambda_inv(8, 1)  # not prime


def test_eta_frozen_tables():
    assert eta_power(5, 1, 3).image == (0, 1, 3, 2, 4)
    assert eta_power(7, 1, 5).image == lambda_inv(7, 1).image


def test_eta_rejects_bad_exponents():
    with pytest.raises(NotAPermutationError, match="gcd"):
        eta_power(7, 1, 3)  # gcd(3, 6) = 3
    with pytest.raises(QrpermError, match="linear"):
        eta_power(7, 1, 1)
    with pytest.raises(QrpermError):
        eta_power(7, 1, 6)  # k = p - 1 is outside [2, p-1)


def test_eta_at_top_exponent_is_twisted_inversion():
    # s^(p-2) = s^(-1) mod p, so the largest admissible exponent gives
    # exactly the twisted-inversion family
    for p in [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101]:
        for a in (1, 2):
            assert eta_power(p, a, p - 2).image == lambda_inv(p, a).image


def test_rho_frozen_tables():
    assert rho_exp(7, 1, 3).image == (0, 3, 2, 6, 4, 5, 1)
    assert rho_exp(5, 1, 2).image == (0, 2, 4, 3, 1)


def test_rho_rejects_non_generator():
    with pytest.raises(InvalidGeneratorError) as exc:
        rho_exp(7, 1, 2)  # order of 2 mod 7 is 3
    assert exc.value.order == 3
    assert "not 6" in str(exc.value)   # a primitive root has order p - 1
    with pytest.raises(NotAUnitError):
        rho_exp(7, 0, 3)
    with pytest.raises(NotAUnitError):
        rho_exp(7, 1, 0)


def test_sos_frozen_tables():
    assert sos_perm(5, golden()).image == (3, 1, 4, 2, 0)
    assert sos_perm(4, sqrt_irr(2)).image == (1, 3, 0, 2)
    assert sos_perm(1, golden()).image == (0,)


def test_bit_reversal_frozen_table():
    assert bit_reversal(8).image == (0, 4, 2, 6, 1, 5, 3, 7)
    assert bit_reversal(1).image == (0,)
    assert bit_reversal(2).image == (0, 1)
    with pytest.raises(QrpermError, match="power of two"):
        bit_reversal(12)


def test_identity_and_reversal():
    assert identity_perm(4).image == (0, 1, 2, 3)
    assert reversal_perm(4).image == (3, 2, 1, 0)


@pytest.mark.parametrize("n", [0, -3])
def test_random_perm_refuses_size_below_one(n):
    with pytest.raises(QrpermError, match=r"^n must be >= 1$"):
        random_perm(n, 1)


def test_random_perm_pinned_and_deterministic():
    # regression pin: the generator is part of the file format contract
    assert random_perm(12, 7).image == (10, 11, 5, 1, 7, 4, 8, 2, 9, 6, 0, 3)
    assert random_perm(12, 7).image == random_perm(12, 7).image
    assert random_perm(12, 8).image != random_perm(12, 7).image
    assert random_perm(1, 0).image == (0,)


# ------------------------------------------------------ sos vs Decimal

def _decimal_sos_order(n, dec_alpha):
    keys = [(dec_alpha * s) % 1 for s in range(1, n + 1)]
    return sorted(range(1, n + 1), key=lambda s: keys[s - 1])


@pytest.mark.parametrize("label,make", [
    ("golden", lambda: ((1 + Decimal(5).sqrt()) / 2, golden())),
    ("sqrt2", lambda: (Decimal(2).sqrt(), sqrt_irr(2))),
    ("sqrt3", lambda: (Decimal(3).sqrt(), sqrt_irr(3))),
])
def test_sos_matches_decimal_oracle_large(label, make):
    getcontext().prec = 60
    dec_alpha, alpha = make()
    n = 10**4
    order = _decimal_sos_order(n, dec_alpha)
    image = [0] * n
    for rank, s in enumerate(order):
        image[s - 1] = rank
    assert sos_perm(n, alpha).image == tuple(image)


@pytest.mark.parametrize("label", [
    "golden", "-golden", "sqrt:2", "sqrt:61", "sqrt:1000001", "-sqrt:13",
    "quad:1,3,13,5"])
def test_sos_walk_matches_comparator_sort(label):
    alpha = parse_alpha(label)
    cmp = functools.cmp_to_key(lambda u, v: frac_compare(alpha, u, v))
    for n in range(1, 81):
        order = sorted(range(1, n + 1), key=cmp)
        image = [0] * n
        for rank, s in enumerate(order):
            image[s - 1] = rank
        assert sos_perm(n, alpha).image == tuple(image), n


def test_sos_walk_certificate_rejects_swapped_extremes(monkeypatch):
    # a flipped comparator swaps p1 and pN; the surd certificate must
    # catch it, since nothing else checks the walk's order
    import qrperm.families as families
    real = families.frac_compare
    monkeypatch.setattr(families, "frac_compare",
                        lambda alpha, s, t: -real(alpha, s, t))
    for n in (2, 5, 17, 100):
        with pytest.raises(QrpermError, match="certificate"):
            sos_perm(n, golden())


def test_sos_rational_tie_handling():
    # residues 5s mod 8 are distinct for s = 1..8; s = 9 repeats s = 1
    with pytest.raises(AmbiguousOrderError):
        sos_perm(9, Fraction(5, 8))
    sigma = sos_perm(9, Fraction(5, 8), tie_break=True)
    # ties broken by smaller s first; order is still a bijection on ranks
    assert sorted(sigma.image) == list(range(9))
    assert sigma(0) < sigma(8)
    # at or below the denominator no tie exists and the flag is irrelevant
    assert sos_perm(8, Fraction(5, 8)).image == \
        sos_perm(8, Fraction(5, 8), tie_break=True).image


def test_sos_integer_alpha_is_fully_tied():
    with pytest.raises(AmbiguousOrderError):
        sos_perm(3, 2)


# -------------------------------------------------------------- algebra

def test_invert_psi_is_psi_of_inverse_multiplier():
    assert invert(psi(5, 2)).image == psi(5, 3).image
    for p in (7, 11, 13):
        for k in range(2, p):
            assert invert(psi(p, k)).image == psi(p, mod_inv(k, p)).image


def test_psi_composition_multiplies():
    for n in (5, 12, 60):
        units = [k for k in range(1, n) if math.gcd(k, n) == 1]
        for k in units:
            for j in units:
                got = tuple(psi(n, k).image[t] for t in psi(n, j).image)
                assert got == psi(n, k * j % n).image


def test_compose_with_inverse_is_identity():
    for sigma in (psi(11, 7), lambda_inv(13, 2), rho_exp(11, 1, 2),
                  random_perm(40, 3)):
        inv = invert(sigma).image
        assert tuple(sigma.image[t] for t in inv) == tuple(range(sigma.n))
        assert tuple(inv[t] for t in sigma.image) == tuple(range(sigma.n))


def test_rho_conjugates_psi_to_shift():
    # rho(s + 1) = tau * rho(s) for s >= 1: the exponential map turns
    # multiplication by tau into an index shift away from 0
    sigma = rho_exp(13, 1, 2)
    for s in range(1, 12):
        assert sigma(s + 1) == 2 * sigma(s) % 13


# ----------------------------------------------------------- bijection

def _family_members(p):
    yield psi(p, 2)
    yield psi(p, p - 2)
    yield lambda_inv(p, 1)
    yield lambda_inv(p, 2)
    for k in range(2, p - 1):
        if math.gcd(k, p - 1) == 1:
            yield eta_power(p, 1, k)
    from qrperm import find_primitive_root
    yield rho_exp(p, 1, find_primitive_root(p))


def test_every_family_member_is_a_bijection_small_primes():
    for p in [q for q in PRIMES_TO_200 if 5 <= q <= 61]:
        for sigma in _family_members(p):
            assert sorted(sigma.image) == list(range(p))


def test_every_family_member_is_a_bijection_spot_199():
    for sigma in _family_members(199):
        assert sorted(sigma.image) == list(range(199))


@given(st.integers(2, 300), st.integers(0, 2**64 - 1))
@settings(max_examples=60)
def test_random_perm_is_bijection(n, seed):
    assert sorted(random_perm(n, seed).image) == list(range(n))


# ------------------------------------------------------------ file I/O

def test_text_round_trip_is_bit_exact():
    for sigma in (psi(5, 2), sos_perm(16, golden()), random_perm(24, 5),
                  bit_reversal(8)):
        back = from_text(to_text(sigma))
        assert back.image == sigma.image
        assert back.n == sigma.n
        assert back.family == sigma.family
        assert back.params == sigma.params
        assert to_text(back) == to_text(sigma)


def test_from_text_validates_shape():
    with pytest.raises(QrpermError, match="three lines"):
        from_text("3\n0 1 2\n")
    with pytest.raises(QrpermError, match="provenance"):
        from_text("3\n0 1 2\nfamily=custom\n")
    with pytest.raises(NotAPermutationError):
        from_text("3\n0 1 1\n# family=custom\n")
    with pytest.raises(NotAPermutationError):
        from_text("3\n0 1\n# family=custom\n")
    with pytest.raises(QrpermError, match="integers"):
        from_text("three\n0 1 2\n# family=custom\n")
    with pytest.raises(QrpermError, match="integers"):
        from_text("3\n0 1 2.5\n# family=custom\n")


def test_permutation_validation():
    with pytest.raises(QrpermError):
        Permutation(0, ())
    with pytest.raises(NotAPermutationError):
        Permutation(3, (0, 1, 3))
    sigma = Permutation(3, (2, 0, 1))
    assert sigma(0) == 2
    assert sigma.param_dict() == {}
