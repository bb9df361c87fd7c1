"""Short-Weierstrass curves: group law, scalar multiplication, point
compression, text encodings, and parameter validation.

Curve arithmetic delegates the group law to ``mecdsa._kernels``, one
plain-Python module; this module owns the typed surface and the multiply
policy: every window width, the per-curve cache and GLV.  Points here are
affine, and the test suite checks the kernel against independent oracles.
One signed-window pass serves every multiply: ``scalar_mul`` computes k*P
from a fresh table of P, and ``double_scalar_mul_base`` the verifier's
u*G + v*Q, with the tables of the base point G cached per curve and, on
curves that admit it, the GLV endomorphism halving the doublings.
``point_add`` is the same pass over two one-entry tables.

Points are checked once, where they enter.  The group law, the
multiplies and the encoders take points known to be on the curve: a
validated curve's base, a decoded or decompressed point, one that passed
``is_on_curve`` (as each public key does in ``mverify``), or a result of
the group law.
"""

import functools
from collections import namedtuple

from mecdsa import _kernels
from mecdsa.errors import FormatError, InvalidPointError
from mecdsa.fieldmath import is_probable_prime, sqrt_mod


class Point(namedtuple("Point", "x y")):
    """An affine point, or the identity when both coordinates are None.

    Immutable and hashable.  As a named tuple it also compares equal to
    the plain tuple of its coordinates: ``Point(5, 1) == (5, 1)``.
    """

    __slots__ = ()

    def __new__(cls, x: "int | None" = None, y: "int | None" = None):
        self = super().__new__(cls, x, y)
        if (self.x is None) != (self.y is None):
            raise ValueError("either both coordinates or neither")
        if self.x is not None and (self.x < 0 or self.y < 0):
            raise ValueError("coordinates must be non-negative")
        return self

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x:#x}, {self.y:#x})"


INFINITY = Point()


class CurveParams(namedtuple("CurveParams", "name p a b gx gy n h")):
    """One named curve y^2 = x^3 + ax + b over F_p with base point of
    order n and cofactor h: a name and seven ints, immutable and hashable.

    The constructor keeps whatever integers it is given; judging them is
    ``validate_curve_params``'s job, so that broken parameter sets can be
    constructed and then reported on rather than exploding here.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.p < 2:
            raise ValueError("field modulus must be >= 2")
        for label in ("a", "b", "gx", "gy", "n", "h"):
            if getattr(self, label) < 0:
                raise ValueError(f"parameter {label} must be non-negative")
        return self

    @property
    def base(self) -> Point:
        return Point(self.gx, self.gy)

    @property
    def coord_bytes(self) -> int:
        """Fixed byte width of one coordinate in every encoding."""
        return (self.p.bit_length() + 7) // 8


def is_on_curve(pt: Point, c: CurveParams) -> bool:
    """True for the identity and for field points satisfying the curve
    equation; False otherwise, including coordinates >= p."""
    if pt.is_infinity:
        return True
    if pt.x >= c.p or pt.y >= c.p:
        return False
    return (pt.y * pt.y - (pt.x * pt.x * pt.x + c.a * pt.x + c.b)) % c.p == 0


def _wrap(raw) -> Point:
    return INFINITY if raw is None else Point(raw[0], raw[1])


def _raw(pt: Point):
    return None if pt.is_infinity else (pt.x, pt.y)


def point_add(pt: Point, other: Point, c: CurveParams) -> Point:
    """Group law: 1*pt + 1*other, one pass over two one-entry tables."""
    terms = ((1, (_raw(pt),)), (1, (_raw(other),)))
    return _wrap(_kernels.wnaf_sum(terms, c.a, c.p))


# Window widths.  A table built for one multiply (width 5, 8 entries)
# costs 1 doubling and 7 mixed additions, and its pass then adds about
# once per 6 bits of scalar.  The cached tables of G, and of phi(G) under GLV
# (width 7, 32 entries each), are built once per curve; that width was
# chosen by timing verification on secp256k1 and P-256.
_FRESH_W = 5
_BASE_W = 7


def scalar_mul(k: int, pt: Point, c: CurveParams) -> Point:
    """k-fold group sum for k >= 0, from a fresh table of pt and one pass;
    k is not reduced modulo anything, so order checks like n*P work."""
    if k < 0:
        raise ValueError("scalars must be non-negative")
    table = _kernels.odd_multiples(_raw(pt), _FRESH_W, c.a, c.p)
    return _wrap(_kernels.wnaf_sum(((k, table),), c.a, c.p))


def _cube_root_of_unity(m):
    """A root of x^2 + x + 1 modulo m, or None: g^((m-1)/3) for the first
    g that does not give 1.  For a prime m = 1 (mod 3) two in three g do."""
    for g in range(2, m):
        root = pow(g, (m - 1) // 3, m)
        if root != 1:
            return root if (root * root + root + 1) % m == 0 else None
    return None


def _glv_basis(n, lam):
    """Short vectors (a1, b1), (a2, b2) with a + b*lam = 0 (mod n), from the
    extended Euclidean algorithm on (n, lam): Hankerson, Menezes and
    Vanstone, *Guide to ECC*, Algorithm 3.74."""
    # invariant: r = s*n + t*lam, so (r, -t) is in the lattice
    r0, t0, r1, t1 = n, 0, lam, 1
    while r1 * r1 >= n:
        q = r0 // r1
        r0, t0, r1, t1 = r1, t1, r0 - q * r1, t0 - q * t1
    # r0 is the last remainder >= sqrt(n), and r1 the first below it
    q = r0 // r1
    r2, t2 = r0 - q * r1, t0 - q * t1
    if r0 * r0 + t0 * t0 <= r2 * r2 + t2 * t2:
        return r1, -t1, r0, -t0
    return r1, -t1, r2, -t2


def _glv(c: CurveParams, table):
    """(beta, lam, basis) of the GLV endomorphism phi(x, y) = (beta*x, y),
    which is lam*P on every point of c, or None where that cannot be relied
    on (Gallant, Lambert and Vanstone, CRYPTO 2001).  ``table`` holds G's
    odd multiples, over which lam*G is one pass.

    phi is an automorphism when a = 0 and beta^3 = 1 (mod p), so it acts
    as some lam on G's subgroup.  The subgroup is every point when h = 1
    and the group order is n: n^2 > 16p leaves n the only multiple of
    itself in the Hasse interval, and (n - p - 1)^2 <= 4p puts it there.
    """
    if not (
        c.a == 0
        and c.p % 3 == 1
        and c.n % 3 == 1
        and c.h == 1
        and c.n * c.n > 16 * c.p
        and (c.n - c.p - 1) ** 2 <= 4 * c.p
    ):
        return None
    beta, lam = _cube_root_of_unity(c.p), _cube_root_of_unity(c.n)
    if beta is None or lam is None:
        return None
    # lam*G is phi(G) for one of the two nontrivial roots beta, beta^2
    lam_g = _kernels.wnaf_sum(((lam, table),), c.a, c.p)
    for b in (beta, beta * beta % c.p):
        if lam_g == (b * c.gx % c.p, c.gy):
            return b, lam, _glv_basis(c.n, lam)
    return None


def _glv_split(k, basis, n):
    """(k1, k2) with k1 + k2*lam = k (mod n), each about half k's length
    (Algorithm 3.74): subtract from (k, 0) the lattice point nearest to it."""
    a1, b1, a2, b2 = basis
    # round(x / n) as (2x + n) // 2n, exact for negative x too
    c1 = (2 * b2 * k + n) // (2 * n)
    c2 = (-2 * b1 * k + n) // (2 * n)
    return k - c1 * a1 - c2 * a2, -c1 * b1 - c2 * b2


def _phi(table, beta, p):
    """The table of phi(P) from that of P: x times beta."""
    return [None if pt is None else (beta * pt[0] % p, pt[1]) for pt in table]


@functools.lru_cache(maxsize=16)
def _base_terms(c: CurveParams):
    """G's half of the verify sum on c, built on its first use: GLV data or
    None, and the odd-multiples tables of G, and of phi(G) under GLV.

    Keyed by the whole frozen value of c, so two curves that share a name
    but not a base point never share a table.
    """
    table = _kernels.odd_multiples((c.gx, c.gy), _BASE_W, c.a, c.p)
    glv = _glv(c, table)
    if glv is None:
        return None, (table,)
    return glv, (table, _phi(table, glv[0], c.p))


def double_scalar_mul_base(u: int, v: int, other: Point, c: CurveParams) -> Point:
    """u*G + v*other for the base point G and 0 <= u, v < n, in one pass.

    G's tables come from a cache, and other gets a fresh table.  Where c
    admits GLV, u and v split into halves of about half the length of n,
    which halves the doublings; phi(other)'s table is other's, with x
    times beta.
    """
    if not (0 <= u < c.n and 0 <= v < c.n):
        raise ValueError("scalars must lie in [0, n - 1]")
    glv, g_tables = _base_terms(c)
    q_table = _kernels.odd_multiples(_raw(other), _FRESH_W, c.a, c.p)
    if glv is None:
        terms = zip((u, v), (*g_tables, q_table))
    else:
        beta, _, basis = glv
        scalars = (*_glv_split(u, basis, c.n), *_glv_split(v, basis, c.n))
        terms = zip(scalars, (*g_tables, q_table, _phi(q_table, beta, c.p)))
    return _wrap(_kernels.wnaf_sum(terms, c.a, c.p))


def decompress_point(prefix: int, x_bytes: bytes, c: CurveParams) -> Point:
    """Recover (x, y) from a parity prefix (02 even / 03 odd) and x."""
    if prefix not in (0x02, 0x03):
        raise FormatError(f"bad compression prefix {prefix:#04x}")
    if len(x_bytes) != c.coord_bytes:
        raise FormatError(
            f"x must be exactly {c.coord_bytes} bytes, got {len(x_bytes)}"
        )
    x = int.from_bytes(x_bytes, "big")
    if x >= c.p:
        raise FormatError("x lies outside the field")
    rhs = (x * x * x + c.a * x + c.b) % c.p
    y = sqrt_mod(rhs, c.p)
    if y is None:
        raise InvalidPointError("x is not the abscissa of any curve point")
    want_odd = prefix == 0x03
    if bool(y & 1) != want_odd:
        y = (c.p - y) % c.p
    if bool(y & 1) != want_odd:
        # rhs == 0: the only root is y = 0, which is even.
        raise InvalidPointError("no root with the requested parity")
    return Point(x, y)


def compress_point(pt: Point, c: CurveParams) -> bytes:
    if pt.is_infinity:
        raise InvalidPointError("the identity has no compressed form")
    prefix = b"\x03" if pt.y & 1 else b"\x02"
    return prefix + pt.x.to_bytes(c.coord_bytes, "big")


def encode_point(pt: Point, c: CurveParams) -> str:
    """Text form: 04 | x | y as fixed-width lowercase hex, none for the
    identity.  The compressed text form is ``compress_point(pt, c).hex()``."""
    if pt.is_infinity:
        raise InvalidPointError("the identity has no text form")
    w = c.coord_bytes
    return (b"\x04" + pt.x.to_bytes(w, "big") + pt.y.to_bytes(w, "big")).hex()


def decode_point(text: str, c: CurveParams) -> Point:
    """Inverse of both text forms; the point is checked on-curve."""
    try:
        blob = bytes.fromhex(text)
    except ValueError:
        raise FormatError(f"not a hex point encoding: {text!r}") from None
    if not blob:
        raise FormatError("empty point encoding")
    w = c.coord_bytes
    prefix = blob[0]
    if prefix in (0x02, 0x03):
        return decompress_point(prefix, blob[1:], c)
    if prefix == 0x04:
        if len(blob) != 1 + 2 * w:
            raise FormatError(
                f"uncompressed point must be {1 + 2 * w} bytes, got {len(blob)}"
            )
        pt = Point(
            int.from_bytes(blob[1 : 1 + w], "big"),
            int.from_bytes(blob[1 + w :], "big"),
        )
        if not is_on_curve(pt, c):
            raise InvalidPointError(f"{pt!r} is not on curve {c.name}")
        return pt
    raise FormatError(f"bad point prefix {prefix:#04x}")


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


class ValidationReport:
    """Outcome of validate_curve_params, one entry per check."""

    def __init__(self, curve_name: str, strict: bool):
        self.curve_name = curve_name
        self.strict = strict
        self.checks: "list[CheckResult]" = []

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        mode = "strict" if self.strict else "relaxed"
        lines = [f"validation of {self.curve_name} ({mode}):"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"  {status} {c.name}{suffix}")
        return "\n".join(lines)


_STRICT_BOUNDS = (
    ("order-above-2^160", lambda c: c.n > 2**160),
    ("order-above-4-sqrt-p", lambda c: c.n * c.n > 16 * c.p),
)


def meets_strict_bounds(c: CurveParams) -> bool:
    """Whether c passes the two order-size bounds that only strict mode checks."""
    return all(bound(c) for _, bound in _STRICT_BOUNDS)


def validate_curve_params(c: CurveParams, strict: bool = True) -> ValidationReport:
    """Run every parameter check and report each one pass/fail.

    Relaxed mode drops only the two order-size bounds, never an algebraic
    check, so toy curves stay honest.  A check that blows up on garbage
    input counts as failed, not as an error.
    """
    report = ValidationReport(curve_name=c.name, strict=strict)

    def run(name, fn, detail=""):
        try:
            passed = bool(fn())
            note = "" if passed else detail
        except Exception as exc:
            passed, note = False, f"{detail + ': ' if detail else ''}{exc}"
        report.checks.append(CheckResult(name, passed, note))
        return passed

    run("field-modulus-prime", lambda: is_probable_prime(c.p))
    run(
        "coefficients-in-field",
        lambda: c.a < c.p and c.b < c.p,
        "a or b is not in [0, p-1]",
    )
    run(
        "discriminant-nonzero",
        lambda: (4 * c.a**3 + 27 * c.b**2) % c.p != 0,
        "4a^3 + 27b^2 = 0 (mod p): singular curve",
    )
    base_ok = run(
        "base-point-on-curve",
        lambda: not c.base.is_infinity and is_on_curve(c.base, c),
    )
    run("order-prime", lambda: is_probable_prime(c.n))
    run(
        "order-kills-base",
        lambda: base_ok
        and c.n >= 1
        and scalar_mul(c.n, c.base, c).is_infinity,
        "n*P != O",
    )
    run("cofactor-positive", lambda: c.h >= 1)
    run(
        "cofactor-group-size",
        lambda: (c.h * c.n - (c.p + 1)) ** 2 <= 4 * c.p,
        "h*n falls outside the Hasse interval",
    )
    if strict:
        for name, bound in _STRICT_BOUNDS:
            run(name, lambda: bound(c))
    return report
