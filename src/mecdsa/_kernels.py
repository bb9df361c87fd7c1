"""Group-law kernels: field inversion, tables of odd multiples, and one
interleaved signed-window pass for every scalar multiply.

The group law is Jacobian only (Hankerson, Menezes and Vanstone, *Guide
to Elliptic Curve Cryptography*, 3.2.2).  A multiply is a sum of k*P
terms, each with a table of P's odd multiples, and one pass over their
width-w NAF digits (3.3.1 and 3.3.3): one doubling per digit position
and one mixed addition per nonzero digit.  A fresh table costs one
doubling, 2^(w-2) - 1 additions and two inversions, one for 2P and one
simultaneous inversion (Montgomery 1987) for the whole table; a third
returns the sum, so a multiply pays three at any scalar length.
The affine chord-and-tangent law lives only in the test oracles, as the
reference.

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
    """2*acc for a Jacobian acc, on any curve: M = 3X^2 + a*Z^4, with Z^2
    skipped when a = 0 and M = 3(X - Z^2)(X + Z^2) when a = p - 3."""
    # Z3 = 2*Y*Z, so the identity and points of order two double to Z3 = 0.
    x, y, z = acc
    yy = y * y % p
    s = 4 * x * yy % p
    if a == 0:
        m = 3 * x * x % p
    else:
        zz = z * z % p
        m = (3 * (x - zz) * (x + zz) if a == p - 3 else 3 * x * x + a * zz * zz) % p
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


def _wnaf(k, w):
    """(position, digit) of each nonzero width-w NAF digit of k >= 0, lowest
    first: every digit is odd with |digit| < 2^(w-1), and at least w - 1
    zero digits follow each one."""
    out, pos, mask, top = [], 0, (1 << w) - 1, 1 << (w - 1)
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & mask
        if d >= top:
            d -= 1 << w
        out.append((pos, d))
        # k - d is a multiple of 2^w, so the next w - 1 digits are zero
        k = (k - d) >> w
        pos += w
    return out


def odd_multiples(pt, w, a, p):
    """Affine table [P, 3P, ..., (2^(w-1) - 1)*P] of 2^(w-2) entries of
    the affine point P, or of None entries when P is None, for w >= 2.

    Each entry is the one before plus 2P, one mixed addition; one
    inversion takes 2P to affine first and one more the table.
    """
    size = 1 << (w - 2)
    if pt is None:
        return [None] * size
    (two,) = _to_affine([_jac_double((*pt, 1), a, p)], p)
    entry = (*pt, 1)
    entries = [entry]
    for _ in range(size - 1):
        if two is not None:
            entry = _jac_add_affine(entry, two, a, p)
        entries.append(entry)
    return _to_affine(entries, p)


def wnaf_sum(terms, a, p):
    """Sum of k*P over (k, table) terms, one interleaved signed-window pass.

    A table holds the affine odd multiples of its P (``odd_multiples``),
    and its length 2^(w-2) sets the width w of k's NAF digits.  k may be
    negative: its digits then add their entries with y negated.  The pass
    makes one doubling per digit position, from the highest one that
    adds a point down, and one mixed addition per nonzero digit whose
    entry is not the identity.
    """
    adds = {}
    for k, table in terms:
        w = len(table).bit_length() + 1
        for pos, d in _wnaf(abs(k), w):
            pt = table[abs(d) >> 1]
            if pt is not None:
                if (d < 0) != (k < 0):
                    pt = (pt[0], -pt[1] % p)
                adds.setdefault(pos, []).append(pt)
    # A Jacobian (X, Y, Z) stands for the affine (X/Z^2, Y/Z^3), each
    # coordinate reduced mod p; any Z = 0 is the identity, as here.
    acc = (1, 1, 0)
    for pos in range(max(adds, default=-1), -1, -1):
        acc = _jac_double(acc, a, p)
        for pt in adds.get(pos, ()):
            acc = _jac_add_affine(acc, pt, a, p)
    return _to_affine([acc], p)[0]


# Window width of the table a multiply builds for each of its points:
# 8 entries, 1 doubling and 7 mixed additions, then about one addition per
# 6 bits of scalar.
FRESH_W = 5


def scalar_mul(k, pt, a, p):
    """k-fold group sum of pt, k >= 0 and not reduced, so order checks
    like n*P work: a fresh table of pt, then one pass."""
    if k < 0:
        raise ValueError("scalars must be non-negative")
    return wnaf_sum(((k, odd_multiples(pt, FRESH_W, a, p)),), a, p)
