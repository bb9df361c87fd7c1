import random

import pytest

from mecdsa import fieldmath
from mecdsa._kernels import mod_inv
from mecdsa.fieldmath import is_probable_prime, sqrt_mod
from mecdsa.registry import default_registry

from .oracles import fermat_inv

SMALL_PRIME_FIELDS = [17, 19, 41, 73, 97, 113, 193, 241, 257]


def test_inverse_trivia():
    assert mod_inv(1, 17) == 1
    assert mod_inv(16, 17) == 16  # -1 is its own inverse


def test_inverse_of_three_matches_exhaustive_search():
    # oracle: scan every residue for the one that multiplies 3 to 1
    expected = next(y for y in range(1, 17) if 3 * y % 17 == 1)
    assert expected == 6
    assert mod_inv(3, 17) == expected


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        mod_inv(0, 17)


def test_division_and_pow():
    # dividing by x is multiplying by mod_inv(x), which Fermat's little
    # theorem pins to x^(p-2); checked for every unit of F_17
    for x in range(1, 17):
        assert x * mod_inv(x, 17) % 17 == 1
        assert mod_inv(x, 17) == pow(x, 17 - 2, 17)


def test_sqrt_zero():
    assert sqrt_mod(0, 17) == 0


def test_sqrt_known_residue_f17():
    # exhaustive squaring: 6^2 = 36 = 2 and 11^2 = 121 = 2 (mod 17)
    roots = {y for y in range(17) if y * y % 17 == 2}
    assert roots == {6, 11}
    assert sqrt_mod(2, 17) in roots


def test_sqrt_nonresidue_f17():
    assert all(y * y % 17 != 3 for y in range(17))
    assert sqrt_mod(3, 17) is None


@pytest.mark.parametrize("p", SMALL_PRIME_FIELDS)
def test_sqrt_agrees_with_exhaustive_squaring(p):
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, set()).add(y)
    for x in range(p):
        root = sqrt_mod(x, p)
        if x in squares:
            assert root in squares[x]
        else:
            assert root is None


def test_sqrt_refuses_composite_modulus_instead_of_looping():
    # 1 is a square mod 9 but no z has z^4 = -1 (mod 9), so the search
    # for a non-residue would never end
    with pytest.raises(ValueError, match="not prime"):
        sqrt_mod(1, 9)


def test_sqrt_tests_primality_only_for_tonelli_shanks(monkeypatch):
    tested = []
    monkeypatch.setattr(fieldmath, "is_probable_prime", lambda n: tested.append(n) or True)
    secp256k1 = default_registry().get("secp256k1")
    assert secp256k1.p % 4 == 3
    assert sqrt_mod(4, secp256k1.p) in (2, secp256k1.p - 2)
    assert tested == []
    assert sqrt_mod(2, 17) in (6, 11)
    assert tested == [17]


def test_sqrt_on_builtin_fields():
    rnd = random.Random(1)
    for _, entry in enumerate(default_registry().names()):
        c = default_registry().get(entry)
        for _ in range(5):
            y = rnd.randrange(1, c.p)
            x = y * y % c.p
            root = sqrt_mod(x, c.p)
            assert root is not None and root * root % c.p == x


def test_inverse_roundtrip_random_draws():
    rnd = random.Random(42)
    registry = default_registry()
    for name in registry.names():
        p = registry.get(name).p
        for _ in range(1000):
            x = rnd.randrange(1, p)
            inv = mod_inv(x, p)
            assert inv == fermat_inv(x, p)
            assert x * inv % p == 1


def test_probable_prime_trivia():
    assert not is_probable_prime(0)
    assert not is_probable_prime(1)
    assert is_probable_prime(2)
    assert is_probable_prime(17)
    assert not is_probable_prime(10**6)


def test_probable_prime_secp256k1_modulus():
    p = default_registry().get("secp256k1").p
    assert is_probable_prime(p)


def test_probable_prime_agrees_with_sieve_below_million():
    limit = 10**6
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for m in range(limit):
        assert is_probable_prime(m) == bool(sieve[m]), m
