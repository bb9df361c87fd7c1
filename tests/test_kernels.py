"""The group-law kernels against the independent oracles: exhaustively
on the toy curves, which between them cover a = 0, a = p - 3 and general
a; on random small curves of composite order drawn by Hypothesis; and on
seeded random scalars plus OpenSSL on the full-size curves.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
# Small enough that enumerating a curve's points costs milliseconds.
SMALL_PRIMES = [q for q in range(5, 256) if all(q % f for f in range(2, q))]


def _joint_oracle(u, p1, v, p2, a, p, mul):
    """u*p1 + v*p2 from the oracles' own multiply and addition."""
    return chord_tangent_add(mul(u, p1, a, p), mul(v, p2, a, p), a, p)


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
    # y^2 = x^3 - x over F_23 has 24 points, three of them (y = 0) of
    # order two; the joint ladder adds each to every point of the curve
    p, a = 23, 22
    points = enum_points(a, 0, p)
    assert len(points) == 24
    for x0 in (0, 1, 22):
        for k in range(0, 8):
            want = repeated_add(k, (x0, 0), a, p)
            assert _kernels.scalar_mul(k, (x0, 0), a, p) == want
            assert want == (None if k % 2 == 0 else (x0, 0))
        for q in points:
            for u in range(0, 4):
                for v in range(0, 25):
                    want = _joint_oracle(u, (x0, 0), v, q, a, p, repeated_add)
                    got = _kernels.double_scalar_mul(u, (x0, 0), v, q, a, p)
                    assert got == want, (x0, q, u, v)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_match_oracles_on_random_small_curves(data):
    # a random curve's order is rarely prime, so its points include ones
    # of small order, which the prime-order toys lack
    p = data.draw(st.sampled_from(SMALL_PRIMES))
    a, b = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    assume((4 * a**3 + 27 * b**2) % p != 0)
    points = enum_points(a, b, p)
    p1, p2 = data.draw(st.sampled_from(points)), data.draw(st.sampled_from(points))
    scalars = st.integers(0, 4 * len(points))
    u, v = data.draw(scalars), data.draw(scalars)
    up1 = repeated_add(u, p1, a, p)
    assert _kernels.scalar_mul(u, p1, a, p) == up1
    want = chord_tangent_add(up1, repeated_add(v, p2, a, p), a, p)
    assert _kernels.double_scalar_mul(u, p1, v, p2, a, p) == want


def test_scalar_mul_rejects_negative_scalars():
    c = TEST17
    g = (c.gx, c.gy)
    with pytest.raises(ValueError):
        _kernels.scalar_mul(-1, g, c.a, c.p)
    for u, v in ((-1, 1), (1, -1), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            _kernels.double_scalar_mul(u, g, v, g, c.a, c.p)


@pytest.mark.parametrize("c", TOYS, ids=lambda c: c.name)
def test_double_scalar_mul_matches_oracle_for_every_toy_q_and_scalar_pair(c):
    # u*G + v*Q for every Q and every u, v in 0..n.  Since G generates the
    # group, this passes through u*G = -v*Q (the sum is O) and u*G = v*Q
    # (the sum is a doubling) on every curve.
    g = (c.gx, c.gy)
    g_mults = [repeated_add(u, g, c.a, c.p) for u in range(c.n + 1)]
    cancels = doubles = 0
    for q in enum_points(c.a, c.b, c.p):
        q_mults = [repeated_add(v, q, c.a, c.p) for v in range(c.n + 1)]
        for u, ug in enumerate(g_mults):
            for v, vq in enumerate(q_mults):
                want = chord_tangent_add(ug, vq, c.a, c.p)
                got = _kernels.double_scalar_mul(u, g, v, q, c.a, c.p)
                assert got == want, (c.name, q, u, v)
                if ug is not None and vq is not None:
                    cancels += want is None
                    doubles += ug == vq
    assert cancels and doubles


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


def test_double_scalar_mul_matches_affine_ladder_on_builtins():
    rnd = random.Random(1808)
    registry = default_registry()
    for name in registry.names():
        c = registry.get(name)
        g = (c.gx, c.gy)
        q = affine_ladder(rnd.randrange(1, c.n), g, c.a, c.p)
        pairs = [(rnd.randrange(1, c.n), rnd.randrange(1, c.n)) for _ in range(20)]
        for edge in (0, 1, c.n - 1):
            pairs += [(edge, rnd.randrange(1, c.n)), (rnd.randrange(1, c.n), edge)]
        for u, v in pairs:
            want = _joint_oracle(u, g, v, q, c.a, c.p, affine_ladder)
            assert _kernels.double_scalar_mul(u, g, v, q, c.a, c.p) == want, (name, u, v)


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
    assert _kernels.double_scalar_mul(5, g, 6, g2, c.a, c.p) == repeated_add(
        17, g, c.a, c.p
    )
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
