import math

import pytest
from hypothesis import given, strategies as st

from qrperm.errors import InvalidModulusError, NotAUnitError, QrpermError
from qrperm.families import eta_power, lambda_inv, rho_exp
from qrperm.modular import (as_prime, as_unit, factorize,
                            find_primitive_root, is_prime, is_primitive_root,
                            mod_inv, multiplicative_order)


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i in range(limit + 1) if flags[i]]


PRIMES_TO_200 = sieve(200)


# phi and the divisor count from factorize: a missing prime or a wrong
# exponent breaks the identities they are checked against below
def euler_phi(n):
    return math.prod(p**(e - 1) * (p - 1) for p, e in factorize(n).items())


def divisor_count(n):
    return math.prod(e + 1 for e in factorize(n).values())


def test_is_prime_against_sieve():
    known = set(sieve(10_000))
    for n in range(10_001):
        assert is_prime(n) == (n in known), n


def test_mod_inv_examples():
    assert mod_inv(4, 7) == 2
    assert mod_inv(1, 9) == 1
    with pytest.raises(NotAUnitError) as exc:
        mod_inv(6, 9)
    assert exc.value.gcd == 3
    with pytest.raises(InvalidModulusError):
        mod_inv(1, 0)


def test_mod_inv_involution():
    for m in (7, 9, 12, 101):
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                assert mod_inv(mod_inv(a, m), m) == a


def test_euler_phi_examples():
    assert euler_phi(12) == 4
    assert euler_phi(1) == 1
    for p in (7, 31, 101):
        assert euler_phi(p) == p - 1


def test_phi_divisor_sum_identity():
    # sum of phi(d) over divisors d of n equals n; the divisors come in
    # pairs (d, n/d) with d <= sqrt(n), one divisor when d = n/d
    for n in range(1, 10_001):
        total = 0
        for d in range(1, math.isqrt(n) + 1):
            if n % d == 0:
                total += euler_phi(d)
                if d * d != n:
                    total += euler_phi(n // d)
        assert total == n


def test_divisor_count():
    assert divisor_count(12) == 6
    assert divisor_count(1) == 1
    assert divisor_count(97) == 2


def test_factorize_roundtrip():
    for n in (2, 12, 97, 360, 2**10, 9973 * 3):
        prod = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_primitive_root_examples():
    assert find_primitive_root(7) == 3
    assert find_primitive_root(5) == 2
    assert find_primitive_root(2) == 1


def test_primitive_root_is_generator():
    for p in PRIMES_TO_200:
        tau = find_primitive_root(p)
        assert pow(tau, p - 1, p) == 1
        for q in factorize(p - 1) if p > 2 else ():
            assert pow(tau, (p - 1) // q, p) != 1
        assert is_primitive_root(tau, p)


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    for p in (5, 13, 199):
        assert multiplicative_order(1, p) == 1


def test_order_divides_group_order():
    for p in PRIMES_TO_200:
        for x in range(1, p):
            t = multiplicative_order(x, p)
            assert (p - 1) % t == 0
            assert pow(x, t, p) == 1


def test_order_rejects_zero():
    with pytest.raises(NotAUnitError):
        multiplicative_order(0, 7)


@pytest.mark.parametrize("call", [
    lambda: as_unit(14, 7), lambda: lambda_inv(7, 14),
    lambda: eta_power(7, -7, 5), lambda: rho_exp(7, 0, 3),
    lambda: rho_exp(7, 1, 7), lambda: multiplicative_order(7, 7)])
def test_prime_moduli_share_one_unit_check(call):
    with pytest.raises(NotAUnitError) as exc:
        call()
    assert (exc.value.value, exc.value.modulus, exc.value.gcd) == (0, 7, 7)


def test_prime_modulus_validates():
    assert as_prime(101) == 101
    with pytest.raises(InvalidModulusError):
        as_prime(100)
    assert as_prime(13) == 13
    with pytest.raises(QrpermError):
        as_prime(15)
    assert as_unit(-5, 7) == 2


@given(st.integers(2, 500))
def test_phi_counts_units(n):
    assert euler_phi(n) == sum(1 for a in range(1, n + 1)
                               if math.gcd(a, n) == 1)
