"""Short-Weierstrass curves: group law, scalar multiplication, point
compression, text encodings, and parameter validation.

Curve arithmetic delegates to ``mecdsa._kernels``, one plain-Python
module; this module owns the typed surface.  Points here are affine, and
the test suite checks the kernel against independent oracles.  One
Jacobian Straus pass serves every multiply: ``scalar_mul`` computes k*P,
``double_scalar_mul`` u*P + v*Q jointly, and ``point_add`` is its
u = v = 1 case.

Points are checked once, where they enter.  The group law, the joint
ladder and the encoders take points known to be on the curve: a
validated curve's base, a decoded or decompressed point, one that passed
``is_on_curve`` (as each public key does in ``mverify``), or a result of
the group law.
"""

from dataclasses import dataclass, field

from mecdsa import _kernels
from mecdsa.errors import FormatError, InvalidPointError
from mecdsa.fieldmath import is_probable_prime, sqrt_mod


@dataclass(frozen=True)
class Point:
    """An affine point, or the identity when both coordinates are None."""

    x: "int | None" = None
    y: "int | None" = None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("either both coordinates or neither")
        if self.x is not None and (self.x < 0 or self.y < 0):
            raise ValueError("coordinates must be non-negative")

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x:#x}, {self.y:#x})"


INFINITY = Point()


@dataclass(frozen=True)
class CurveParams:
    """One named curve y^2 = x^3 + ax + b over F_p with base point of
    order n and cofactor h.

    The constructor keeps whatever integers it is given; judging them is
    ``validate_curve_params``'s job, so that broken parameter sets can be
    constructed and then reported on rather than exploding here.
    """

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int
    h: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("field modulus must be >= 2")
        for label in ("a", "b", "gx", "gy", "n", "h"):
            if getattr(self, label) < 0:
                raise ValueError(f"parameter {label} must be non-negative")

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
    """Group law: the joint ladder's 1*pt + 1*other."""
    return double_scalar_mul(1, pt, 1, other, c)


def scalar_mul(k: int, pt: Point, c: CurveParams) -> Point:
    """k-fold group sum for k >= 0; k is not reduced modulo anything."""
    return _wrap(_kernels.scalar_mul(k, _raw(pt), c.a, c.p))


def double_scalar_mul(u: int, pt: Point, v: int, other: Point, c: CurveParams) -> Point:
    """u*pt + v*other in one joint pass, for u, v >= 0; neither is reduced."""
    return _wrap(_kernels.double_scalar_mul(u, _raw(pt), v, _raw(other), c.a, c.p))


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
    """Text form: "inf", or 04 | x | y as fixed-width lowercase hex.  The
    compressed text form is ``compress_point(pt, c).hex()``."""
    if pt.is_infinity:
        return "inf"
    w = c.coord_bytes
    return (b"\x04" + pt.x.to_bytes(w, "big") + pt.y.to_bytes(w, "big")).hex()


def decode_point(text: str, c: CurveParams) -> Point:
    """Inverse of encode_point; the decoded point is checked on-curve."""
    if text == "inf":
        return INFINITY
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


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    """Outcome of validate_curve_params, one entry per check."""

    curve_name: str
    strict: bool
    checks: "list[CheckResult]" = field(default_factory=list)

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
        and _kernels.scalar_mul(c.n, (c.gx, c.gy), c.a, c.p) is None,
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
