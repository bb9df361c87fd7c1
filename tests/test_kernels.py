"""The group-law kernels against the independent oracles: exhaustively
on the toy curves, which between them cover a = 0, a = p - 3 and general
a; on random small curves of composite order drawn by Hypothesis; and on
seeded random scalars plus OpenSSL on the full-size curves.  The
verifier's u*G + v*Q from curve's cached tables is checked the same way,
on the GLV path on TOY43 and secp256k1.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mecdsa import _kernels, curve
from mecdsa.curve import CurveParams, Point, scalar_mul
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


def _pair(u, p1, v, p2, a, p):
    """u*p1 + v*p2 from a fresh table of each point and one joint pass."""
    tables = (_kernels.odd_multiples(pt, _kernels.FRESH_W, a, p) for pt in (p1, p2))
    return _kernels.wnaf_sum(zip((u, v), tables), a, p)


def _joint_oracle(u, p1, v, p2, a, p, mul):
    """u*p1 + v*p2 from the oracles' own multiply and addition."""
    return chord_tangent_add(mul(u, p1, a, p), mul(v, p2, a, p), a, p)


def _point(raw):
    return Point() if raw is None else Point(*raw)


def _base_form(u, v, q, c):
    """curve's u*G + v*Q from its cached G tables, as a raw tuple."""
    got = curve.double_scalar_mul_base(u, v, _point(q), c)
    return None if got.is_infinity else (got.x, got.y)


def _naf(k, w):
    """Width-w NAF digits of k >= 0, lowest first, one bit at a time
    (Hankerson, Menezes and Vanstone, Algorithm 3.35)."""
    digits = []
    while k:
        d = 0
        if k & 1:
            d = k % (1 << w)
            if d >= 1 << (w - 1):
                d -= 1 << w
            k -= d
        digits.append(d)
        k >>= 1
    return digits


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
            got = curve.point_add(_point(p1), _point(p2), c)
            want = chord_tangent_add(p1, p2, c.a, c.p)
            assert got == _point(want), (c.name, p1, p2)


def test_two_torsion_chains():
    # y^2 = x^3 - x and y^2 = x^3 - 3x (a = p - 3, 7^2 = 3) over F_23 have
    # 24 points each, three of them (y = 0) of order two; the joint pass
    # adds each to every point of the curve.  Its table of odd multiples
    # holds P throughout, as 2P = O.
    p = 23
    for a, roots in ((22, (0, 1, 22)), (20, (0, 7, 16))):
        points = enum_points(a, 0, p)
        assert len(points) == 24
        for x0 in roots:
            for k in range(0, 41):
                want = repeated_add(k, (x0, 0), a, p)
                assert _kernels.scalar_mul(k, (x0, 0), a, p) == want
                assert want == (None if k % 2 == 0 else (x0, 0))
            for q in points:
                for u in range(0, 4):
                    for v in range(0, 25):
                        want = _joint_oracle(u, (x0, 0), v, q, a, p, repeated_add)
                        got = _pair(u, (x0, 0), v, q, a, p)
                        assert got == want, (a, x0, q, u, v)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_match_oracles_on_random_small_curves(data):
    # a random curve's order is rarely prime, so its points include ones
    # of small order, which the prime-order toys lack
    p = data.draw(st.sampled_from(SMALL_PRIMES))
    # a = 0 and a = p - 3 take their own doubling formulas
    a = data.draw(st.sampled_from((0, p - 3)) | st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    assume((4 * a**3 + 27 * b**2) % p != 0)
    points = enum_points(a, b, p)
    p1, p2 = data.draw(st.sampled_from(points)), data.draw(st.sampled_from(points))
    scalars = st.integers(0, 4 * len(points))
    u, v = data.draw(scalars), data.draw(scalars)
    up1 = repeated_add(u, p1, a, p)
    assert _kernels.scalar_mul(u, p1, a, p) == up1
    want = chord_tangent_add(up1, repeated_add(v, p2, a, p), a, p)
    assert _pair(u, p1, v, p2, a, p) == want
    # point_add reads only a and p of its curve
    c = CurveParams("random", p, a, b, 0, 0, 1, 1)
    got = curve.point_add(_point(p1), _point(p2), c)
    assert got == _point(chord_tangent_add(p1, p2, a, p))


def test_scalar_mul_rejects_negative_scalars():
    c = TEST17
    g = (c.gx, c.gy)
    with pytest.raises(ValueError):
        _kernels.scalar_mul(-1, g, c.a, c.p)
    for u, v in ((-1, 1), (1, -1), (c.n, 1), (1, c.n)):
        with pytest.raises(ValueError):
            curve.double_scalar_mul_base(u, v, c.base, c)


@pytest.mark.parametrize("c", TOYS, ids=lambda c: c.name)
def test_double_scalar_mul_matches_oracle_for_every_toy_q_and_scalar_pair(c):
    # u*G + v*Q for every Q and every u, v in 0..n.  Since G generates the
    # group, this passes through u*G = -v*Q (the sum is O) and u*G = v*Q
    # (the sum is a doubling) on every curve.  The base form, for u, v < n,
    # takes G from curve's cache, and on TOY43 splits u and v by GLV.
    g = (c.gx, c.gy)
    g_mults = [repeated_add(u, g, c.a, c.p) for u in range(c.n + 1)]
    cancels = doubles = 0
    for q in enum_points(c.a, c.b, c.p):
        q_mults = [repeated_add(v, q, c.a, c.p) for v in range(c.n + 1)]
        for u, ug in enumerate(g_mults):
            for v, vq in enumerate(q_mults):
                want = chord_tangent_add(ug, vq, c.a, c.p)
                got = _pair(u, g, v, q, c.a, c.p)
                assert got == want, (c.name, q, u, v)
                if u < c.n and v < c.n:
                    assert _base_form(u, v, q, c) == want, (c.name, q, u, v)
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
    # The GLV edges lam and n - lam split to halves (0, 1) and (0, -1).
    rnd = random.Random(1808)
    registry = default_registry()
    assert [name for name in registry.names() if curve._glv(registry.get(name))] == [
        "secp256k1"
    ]
    for name in registry.names():
        c = registry.get(name)
        g = (c.gx, c.gy)
        q = affine_ladder(rnd.randrange(1, c.n), g, c.a, c.p)
        pairs = [(rnd.randrange(1, c.n), rnd.randrange(1, c.n)) for _ in range(20)]
        glv = curve._glv(c)
        edges = (0, 1, c.n - 1) + ((glv[1], c.n - glv[1]) if glv else ())
        for edge in edges:
            pairs += [(edge, rnd.randrange(1, c.n)), (rnd.randrange(1, c.n), edge)]
        pairs += [(e1, e2) for e1 in edges for e2 in edges]
        for u, v in pairs:
            want = _joint_oracle(u, g, v, q, c.a, c.p, affine_ladder)
            assert _pair(u, g, v, q, c.a, c.p) == want, (name, u, v)
            assert _base_form(u, v, q, c) == want, (name, u, v)


def test_glv_split_recombines_to_k_with_halves_below_2_129():
    c = default_registry().get("secp256k1")
    beta, lam, basis = curve._glv(c)
    # beta and lam are nontrivial cube roots of unity, matched on G
    assert beta != 1 and pow(beta, 3, c.p) == 1
    assert lam != 1 and pow(lam, 3, c.n) == 1
    assert _kernels.scalar_mul(lam, (c.gx, c.gy), c.a, c.p) == (beta * c.gx % c.p, c.gy)
    a1, b1, a2, b2 = basis
    assert (a1 + b1 * lam) % c.n == 0 and (a2 + b2 * lam) % c.n == 0
    assert abs(a1 * b2 - a2 * b1) == c.n
    rnd = random.Random(3574)
    scalars = [0, 1, 2, c.n - 1, lam, c.n - lam] + [rnd.randrange(c.n) for _ in range(500)]
    for k in scalars:
        k1, k2 = curve._glv_split(k, basis, c.n)
        assert (k1 + k2 * lam - k) % c.n == 0, k
        assert abs(k1) < 2**129 and abs(k2) < 2**129, (k, k1, k2)
    assert curve._glv_split(lam, basis, c.n) == (0, 1)
    assert curve._glv_split(c.n - lam, basis, c.n) == (0, -1)


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
    g2 = _pair(1, g, 1, g, c.a, c.p)
    assert g2 == chord_tangent_add(g, g, c.a, c.p)
    g3 = _pair(1, g, 1, g2, c.a, c.p)
    assert g3 == chord_tangent_add(g, g2, c.a, c.p)
    assert _kernels.scalar_mul(5, g, c.a, c.p) == repeated_add(5, g, c.a, c.p)
    assert _pair(5, g, 6, g2, c.a, c.p) == repeated_add(17, g, c.a, c.p)
    assert calls == []


@pytest.mark.parametrize("name", ["secp256k1", "p256"])
def test_ladder_inversions_do_not_grow_with_the_scalar(name, monkeypatch):
    # One inversion takes 2P of the fresh table to affine, one the table,
    # and one the sum, at any scalar length; an affine group law would pay
    # one per group operation.  The base form builds only Q's table, so it
    # pays 3 as well once G's tables are cached.
    c = default_registry().get(name)
    g = (c.gx, c.gy)
    rnd = random.Random(20)
    q = _kernels.scalar_mul(rnd.randrange(1, c.n), g, c.a, c.p)
    curve._base_terms(c)
    calls = []
    original = _kernels._inv

    def counting(a, m):
        calls.append(a)
        return original(a, m)

    monkeypatch.setattr(_kernels, "_inv", counting)
    single, base = set(), set()
    for bits in (2, 64, 256):
        k, v = (rnd.getrandbits(bits) | 1 << (bits - 1) for _ in range(2))
        calls.clear()
        _kernels.scalar_mul(k, g, c.a, c.p)
        single.add(len(calls))
        calls.clear()
        _base_form(k % c.n, v % c.n, q, c)
        base.add(len(calls))
    assert single == base == {3}, (single, base)


@pytest.mark.parametrize("name", ["secp256k1", "p256"])
def test_ladder_group_operations_follow_closed_forms(name, monkeypatch):
    # A fresh table of odd multiples P..15P costs one doubling (2P) and 7
    # mixed additions (each entry is the one before plus 2P).  The pass
    # makes one doubling per digit position, up to the highest nonzero
    # NAF digit of any scalar, and one addition per nonzero digit.  Every
    # multiply pays 3 inversions.  The base form reads G's tables from the
    # cache (width 7), builds one of Q (width 5), and on secp256k1 runs
    # the GLV halves of u and v over G, phi(G), Q and phi(Q).
    c = default_registry().get(name)
    g = (c.gx, c.gy)
    rnd = random.Random(21)
    q = _kernels.scalar_mul(rnd.randrange(1, c.n), g, c.a, c.p)
    glv, g_tables = curve._base_terms(c)
    names = ("_jac_double", "_jac_add_affine", "_inv")
    counts = dict.fromkeys(names, 0)
    for fn in names:

        def counting(*args, fn=fn, original=getattr(_kernels, fn)):
            counts[fn] += 1
            return original(*args)

        monkeypatch.setattr(_kernels, fn, counting)

    def cost(mul, *args):
        counts.update(dict.fromkeys(names, 0))
        mul(*args)
        return tuple(counts[fn] for fn in names)

    def digits(*terms):
        """(digit positions, nonzero digits) of (scalar, width) terms."""
        nafs = [_naf(abs(k), w) for k, w in terms]
        return max(map(len, nafs)), sum(d != 0 for naf in nafs for d in naf)

    assert [len(table) for table in g_tables] == [32] * len(g_tables)
    # all-zero scalars have no digits, so this is the tables alone
    assert cost(_kernels.scalar_mul, 0, g, c.a, c.p) == (1, 7, 3)
    assert cost(_base_form, 0, 0, q, c) == (1, 7, 3)
    for bits in (1, 2, 3, 5, 8, 64, 255, 256, 256, 256):
        k, v = (rnd.getrandbits(bits) | 1 << (bits - 1) for _ in range(2))
        positions, nonzero = digits((k, 5))
        assert cost(_kernels.scalar_mul, k, g, c.a, c.p) == (1 + positions, 7 + nonzero, 3)
        u, v = k % c.n, v % c.n
        if glv is None:
            terms = ((u, 7), (v, 5))
        else:
            (u1, u2), (v1, v2) = (curve._glv_split(x, glv[2], c.n) for x in (u, v))
            terms = ((u1, 7), (u2, 7), (v1, 5), (v2, 5))
        positions, nonzero = digits(*terms)
        assert cost(_base_form, u, v, q, c) == (1 + positions, 7 + nonzero, 3), (bits, u, v)
        # GLV halves the doublings: its halves are below 2^129
        assert positions <= (130 if glv else c.n.bit_length() + 1)


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
