"""The group-law kernels against the independent oracles: exhaustively
on the toy curves, which between them cover a = 0, a = p - 3 and general
a, and on seeded random scalars plus OpenSSL on the full-size curves.
"""

import random

import pytest

from mecdsa import _kernels
from mecdsa.curve import scalar_mul
from mecdsa.registry import default_registry

from .conftest import TEST17, TOY23, TOY23M3, TOY43
from .oracles import (
    affine_ladder,
    chord_tangent_add,
    enum_points,
    fermat_inv,
    repeated_add,
)

TOYS = (TEST17, TOY23, TOY43, TOY23M3)


@pytest.mark.parametrize("c", TOYS, ids=lambda c: c.name)
def test_scalar_mul_matches_repeated_add_from_every_toy_point(c):
    for raw in enum_points(c.a, c.b, c.p):
        for k in range(0, 3 * c.n + 1):
            assert _kernels.scalar_mul(k, raw, c.a, c.p) == repeated_add(
                k, raw, c.a, c.p
            ), (c.name, raw, k)


@pytest.mark.parametrize("c", TOYS, ids=lambda c: c.name)
def test_point_add_matches_chord_tangent_on_full_toy_table(c):
    points = enum_points(c.a, c.b, c.p)
    for p1 in points:
        for p2 in points:
            assert _kernels.point_add(p1, p2, c.a, c.p) == chord_tangent_add(
                p1, p2, c.a, c.p
            ), (c.name, p1, p2)


def test_two_torsion_chains():
    # y^2 = x^3 - x over F_23 has three y = 0 points of order two
    p, a = 23, 22
    for x0 in (0, 1, 22):
        for k in range(0, 8):
            want = repeated_add(k, (x0, 0), a, p)
            assert _kernels.scalar_mul(k, (x0, 0), a, p) == want
            assert want == (None if k % 2 == 0 else (x0, 0))


def test_scalar_mul_rejects_negative_scalars():
    with pytest.raises(ValueError):
        _kernels.scalar_mul(-1, (TEST17.gx, TEST17.gy), TEST17.a, TEST17.p)


def test_scalar_mul_matches_affine_ladder_on_builtins():
    rnd = random.Random(2718)
    registry = default_registry()
    for name in registry.names():
        c = registry.get(name)
        base = (c.gx, c.gy)
        scalars = [0, 1, 2, c.n - 1, c.n, c.n + 1]
        scalars += [rnd.randrange(1, c.n) for _ in range(10)]
        for k in scalars:
            assert _kernels.scalar_mul(k, base, c.a, c.p) == affine_ladder(
                k, base, c.a, c.p
            ), (name, k)


def test_mod_inv_matches_fermat_and_rejects_zero():
    rnd = random.Random(3)
    for m in (17, 19, 23, default_registry().get("p256").n):
        for _ in range(20):
            a = rnd.randrange(1, m)
            assert _kernels.mod_inv(a, m) == fermat_inv(a, m)
    with pytest.raises(ZeroDivisionError):
        _kernels.mod_inv(0, 17)


def test_group_law_does_not_count_as_scheme_inversions(monkeypatch):
    # Counting wrappers replace the public name; kernel-internal
    # inversions must not reach it.
    calls = []
    original = _kernels.mod_inv

    def counting(a, m):
        calls.append((a, m))
        return original(a, m)

    monkeypatch.setattr(_kernels, "mod_inv", counting)
    c = TEST17
    g = (c.gx, c.gy)
    g2 = _kernels.point_add(g, g, c.a, c.p)
    assert g2 == chord_tangent_add(g, g, c.a, c.p)
    assert _kernels.point_add(g, g2, c.a, c.p) == chord_tangent_add(g, g2, c.a, c.p)
    assert _kernels.scalar_mul(5, g, c.a, c.p) == repeated_add(5, g, c.a, c.p)
    assert calls == []


@pytest.mark.parametrize("name", ["secp256k1", "p256"])
def test_scalar_mul_matches_openssl(name):
    pytest.importorskip("cryptography")
    from cryptography.hazmat.primitives.asymmetric import ec

    openssl_curve = {"secp256k1": ec.SECP256K1(), "p256": ec.SECP256R1()}[name]
    c = default_registry().get(name)
    rnd = random.Random(20181808)
    scalars = [1, 2, c.n - 1] + [rnd.randrange(1, c.n) for _ in range(20)]
    for d in scalars:
        ours = scalar_mul(d, c.base, c)
        theirs = ec.derive_private_key(d, openssl_curve).public_key().public_numbers()
        assert (ours.x, ours.y) == (theirs.x, theirs.y), (name, d)
