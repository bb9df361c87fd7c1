"""Independent reference implementations used as test oracles.

Nothing here imports from the package under test.  Inversion goes through
Fermat exponentiation, scalar multiplication through literal repeated
addition (or, on full-size curves, an affine right-to-left ladder built on
the same addition), and the signing procedures are straight-line transcriptions
with no retry logic (vectors are chosen so retries never trigger, and the
assertions document that).  Repeated addition is only practical on
toy-sized curves.
"""

import hashlib


def fermat_inv(a, n):
    """Inverse modulo a prime, via Fermat's little theorem."""
    assert a % n != 0
    return pow(a, n - 2, n)


def chord_tangent_add(pt1, pt2, a, p):
    """Affine group law, written independently of the package kernels."""
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if pt1 == pt2:
        slope = (3 * x1 * x1 + a) * fermat_inv(2 * y1 % p, p) % p
    else:
        slope = (y2 - y1) * fermat_inv((x2 - x1) % p, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return (x3, (slope * (x1 - x3) - y1) % p)


def repeated_add(k, pt, a, p):
    """k-fold sum by literally adding k times.  Toy curves only."""
    assert k >= 0
    acc = None
    for _ in range(k):
        acc = chord_tangent_add(acc, pt, a, p)
    return acc


def affine_ladder(k, pt, a, p):
    """k-fold sum by right-to-left double-and-add over chord_tangent_add,
    for curves too large to add k times."""
    assert k >= 0
    acc, addend = None, pt
    while k:
        if k & 1:
            acc = chord_tangent_add(acc, addend, a, p)
        addend = chord_tangent_add(addend, addend, a, p)
        k >>= 1
    return acc


def enum_points(a, b, p):
    """Every solution of y^2 = x^3 + ax + b over F_p, plus the identity."""
    points = [None]
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == rhs:
                points.append((x, y))
    return points


def group_table(points, a, p):
    """Brute-force addition table over an enumerated point set."""
    return {
        (pt1, pt2): chord_tangent_add(pt1, pt2, a, p)
        for pt1 in points
        for pt2 in points
    }


def hash_int(message):
    return int.from_bytes(hashlib.sha256(message).digest(), "big")


def ecdsa_sign_oracle(message, d, k, toy, mul=repeated_add):
    """Straight-line single-curve signing; asserts no retry is needed.
    ``mul`` is the scalar multiplication: ``affine_ladder`` on full-size
    curves."""
    p, a, _b, gx, gy, n = toy
    e = hash_int(message)
    x, _y = mul(k, (gx, gy), a, p)
    r = x % n
    assert r != 0, "oracle vector would need an r retry"
    s = fermat_inv(k, n) * (e + d * r) % n
    assert s != 0, "oracle vector would need an s retry"
    return (r, s)


def ecdsa_verify_oracle(message, r, s, public, toy, mul=repeated_add):
    """Straight-line single-curve verification; ``mul`` as for signing."""
    p, a, _b, gx, gy, n = toy
    if not (1 <= r <= n - 1 and 1 <= s <= n - 1):
        return False
    e = hash_int(message)
    w = fermat_inv(s, n)
    u = e * w % n
    v = r * w % n
    big_r = chord_tangent_add(mul(u, (gx, gy), a, p), mul(v, public, a, p), a, p)
    if big_r is None:
        return False
    return r == big_r[0] % n


def msign_oracle(message, ds, ks, toys):
    """Straight-line multi-curve signing; asserts no retry is needed."""
    e = hash_int(message)
    r_parts = []
    for k, toy in zip(ks, toys):
        p, a, _b, gx, gy, n = toy
        x, _y = repeated_add(k, (gx, gy), a, p)
        r_i = x % n
        assert r_i != 0, "oracle vector would need an r_i retry"
        r_parts.append(r_i)
    r = sum(r_parts)
    for toy in toys:
        assert r % toy[5] != 0, "oracle vector would need a full restart"
    ss = []
    for k, d, toy in zip(ks, ds, toys):
        n = toy[5]
        s_i = fermat_inv(k, n) * (e + d * r) % n
        assert s_i != 0, "oracle vector would need an s_i retry"
        ss.append(s_i)
    return (r, ss)


def mverify_oracle(message, r, ss, publics, toys):
    """Straight-line multi-curve verification; returns (verdict, R_list)."""
    t = len(toys)
    total_n = sum(toy[5] for toy in toys)
    if not (t <= r <= total_n - t):
        return False, []
    for s_i, toy in zip(ss, toys):
        if not (1 <= s_i <= toy[5] - 1):
            return False, []
    e = hash_int(message)
    recovered = []
    r_prime_sum = 0
    for s_i, q, toy in zip(ss, publics, toys):
        p, a, _b, gx, gy, n = toy
        w = fermat_inv(s_i, n)
        u = e * w % n
        v = r * w % n
        big_r = chord_tangent_add(
            repeated_add(u, (gx, gy), a, p), repeated_add(v, q, a, p), a, p
        )
        if big_r is None:
            return False, recovered
        recovered.append(big_r)
        r_prime_sum += big_r[0] % n
    return r == r_prime_sum, recovered
