"""Group-law kernels: field inversion, and one Straus pass for every
scalar multiply, with 4-bit windows for k*P and 2-bit ones for u*P + v*Q.

The group law is Jacobian only (Hankerson, Menezes and Vanstone, *Guide
to Elliptic Curve Cryptography*, 3.2.2 and 3.3.3).  One simultaneous
inversion (Montgomery 1987) takes the 16-entry table to affine and one
more the sum, so a multiply pays two at any scalar length.  The affine
chord-and-tangent law lives only in the test oracles, as the reference.

Points at this layer are ``None`` (the identity) or ``(x, y)`` tuples of
canonical residues; no on-curve checking happens here, that is the
caller's job.  Plain Python ints keep arbitrary-precision curve sizes
working unchanged.  Behaviour is defined for prime moduli only; a
composite modulus may surface as ZeroDivisionError.  Nothing here runs in
constant time.
"""


def mod_inv(a, m):
    """Inverse of a modulo m.  Raises ZeroDivisionError when none exists."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ZeroDivisionError(f"no inverse of {a} modulo {m}") from None


# The group law inverts through this private name, so that wrapping the
# public ``mod_inv`` to count calls sees only the scheme's own inversions.
_inv = mod_inv


def _jac_double(acc, a, p):
    """2*acc for a Jacobian acc, on any curve: a enters as a*Z^4."""
    # Z3 = 2*Y*Z, so the identity and points of order two double to Z3 = 0.
    x, y, z = acc
    yy = y * y % p
    s = 4 * x * yy % p
    zz = z * z % p
    m = (3 * x * x + a * zz * zz) % p
    x3 = (m * m - 2 * s) % p
    return (x3, (m * (s - x3) - 8 * yy * yy) % p, 2 * y * z % p)


def _jac_add_affine(acc, pt, a, p):
    """acc + pt, for a Jacobian acc and an affine pt that is not None."""
    x1, y1, z1 = acc
    if z1 == 0:
        return (*pt, 1)
    x2, y2 = pt
    zz = z1 * z1 % p
    h = (x2 * zz - x1) % p
    r = (y2 * zz * z1 - y1) % p
    if h == 0 and r == 0:
        return _jac_double(acc, a, p)
    # acc = -pt has h = 0 and r != 0, so Z3 = Z1*h = 0 is the identity.
    hh = h * h % p
    hhh = h * hh % p
    v = x1 * hh % p
    x3 = (r * r - hhh - 2 * v) % p
    return (x3, (r * (v - x3) - y1 * hhh) % p, z1 * h % p)


def _to_affine(points, p):
    """Jacobian points to affine, Z = 0 to None, with one inversion of
    the product of the nonzero Z, peeling each Z^-1 off it from the back."""
    prefix, prod = [], 1
    for _, _, z in points:
        prefix.append(prod)
        if z:
            prod = prod * z % p
    inv = _inv(prod, p)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        if z:
            zi, inv = inv * prefix[i] % p, inv * z % p
            zi2 = zi * zi % p
            out[i] = (x * zi2 % p, y * zi2 * zi % p)
    return out


def _straus(pairs, a, p):
    """Sum of k*pt over m = 1, 2 or 4 (k, pt) pairs, k >= 0 and not reduced.

    Table entry i, read as m digits of w = 4/m bits, is the sum of digit*pt;
    each w-bit window costs w doublings and at most one mixed addition.
    """
    if any(k < 0 for k, _ in pairs):
        raise ValueError("scalars must be non-negative")
    w = 4 // len(pairs)
    mask = (1 << w) - 1
    # A Jacobian (X, Y, Z) stands for the affine (X/Z^2, Y/Z^3), each
    # coordinate reduced mod p; any Z = 0 is the identity, as here.
    table = [(1, 1, 0)]
    for i in range(1, 16):
        # step the lowest nonzero digit: entry i is entry i - 2^(w*d) + pt
        d = ((i & -i).bit_length() - 1) // w
        prev, pt = table[i - (1 << w * d)], pairs[-1 - d][1]
        table.append(prev if pt is None else _jac_add_affine(prev, pt, a, p))
    table = _to_affine(table, p)
    top = max(k.bit_length() for k, _ in pairs)
    acc = (1, 1, 0)
    # Round the top window up to w bits, so windows end at bit 0.
    for shift in range(-(-top // w) * w - w, -1, -w):
        i = 0
        for k, _ in pairs:
            i = i << w | (k >> shift) & mask
        for _ in range(w):
            acc = _jac_double(acc, a, p)
        if table[i] is not None:
            acc = _jac_add_affine(acc, table[i], a, p)
    return _to_affine([acc], p)[0]


def double_scalar_mul(u, p1, v, p2, a, p):
    """u*p1 + v*p2, u, v >= 0 and not reduced, so order checks like n*P
    work: 2-bit windows, table entry i<<2 | j = i*p1 + j*p2."""
    return _straus(((u, p1), (v, p2)), a, p)


def scalar_mul(k, pt, a, p):
    """k-fold group sum of pt, k >= 0 and not reduced: 4-bit windows."""
    return _straus(((k, pt),), a, p)
