"""Group-law kernels: field inversion, affine point addition, and one
scalar-multiplication ladder: 2-bit Straus-Shamir interleaving for the
joint u*P + v*Q, of which k*P is the v = 0 case.

The ladder keeps its table of small multiples affine and its accumulator
in Jacobian coordinates (Hankerson, Menezes and Vanstone, *Guide to
Elliptic Curve Cryptography*, 3.2.2), so a whole multiply pays one field
inversion to return to affine form, plus one per table entry it computes.

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


def _double(pt, a, p):
    if pt is None:
        return None
    x, y = pt
    if y == 0:
        return None
    lam = (3 * x * x + a) * _inv(2 * y, p) % p
    x3 = (lam * lam - 2 * x) % p
    return (x3, (lam * (x - x3) - y) % p)


def point_add(p1, p2, a, p):
    """Affine group law: identity, inverse pairs, tangent doubling, chord."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        return _double(p1, a, p)
    lam = (y2 - y1) * _inv((x2 - x1) % p, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


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


def double_scalar_mul(u, p1, v, p2, a, p):
    """u*p1 + v*p2 in one joint pass (Straus-Shamir, 2-bit windows).

    One affine table holds i*p1 + j*p2 for i, j in 0..3; each 2-bit window
    of u and v then costs two Jacobian doublings and at most one mixed
    addition, and one inversion maps the sum back to affine.  u, v >= 0
    and are used as given (no reduction), so order checks like n*P work.
    """
    if u < 0 or v < 0:
        raise ValueError("scalars must be non-negative")
    col = [None, p1, _double(p1, a, p)]
    col.append(point_add(col[2], p1, a, p))
    row = [None, p2, _double(p2, a, p)]
    row.append(point_add(row[2], p2, a, p))
    table = [point_add(x, y, a, p) for x in col for y in row]
    top = max(u.bit_length(), v.bit_length())
    # The accumulator (X, Y, Z) stands for the affine (X/Z^2, Y/Z^3), each
    # coordinate reduced mod p; any Z = 0 is the identity, as here.
    acc = (1, 1, 0)
    # Round the top window up to an even bit count, so windows end at bit 0.
    for shift in range(top + (top & 1) - 2, -1, -2):
        acc = _jac_double(_jac_double(acc, a, p), a, p)
        entry = table[((u >> shift) & 3) << 2 | ((v >> shift) & 3)]
        if entry is not None:
            acc = _jac_add_affine(acc, entry, a, p)
    x, y, z = acc
    if z == 0:
        return None
    zi = _inv(z, p)
    zi2 = zi * zi % p
    return (x * zi2 % p, y * zi2 * zi % p)


def scalar_mul(k, pt, a, p):
    """k-fold group sum of pt, k >= 0 and not reduced: the joint ladder
    with v = 0."""
    return double_scalar_mul(k, pt, 0, None, a, p)
