import random

import pytest

from mecdsa.curve import (
    INFINITY,
    CurveParams,
    Point,
    compress_point,
    decode_point,
    decompress_point,
    encode_point,
    is_on_curve,
    point_add,
    scalar_mul,
    validate_curve_params,
)
from mecdsa.errors import FormatError, InvalidPointError
from mecdsa.registry import default_registry

from .conftest import TEST17, TOY23, TOY23M3, TOY43
from .oracles import chord_tangent_add, enum_points, group_table, repeated_add

# frozen enumeration facts: (curve, group size, sample multiples)
TOY_GROUP_SIZES = [(TEST17, 19), (TOY23, 29), (TOY43, 31), (TOY23M3, 31)]


def as_pt(raw):
    return INFINITY if raw is None else Point(*raw)


def test_point_constructor_contract():
    assert Point().is_infinity
    assert Point(x=5, y=1) == Point(5, 1)
    # a named tuple: equal to the plain tuple of its coordinates
    assert Point(5, 1) == (5, 1) and Point() == (None, None)
    for x, y in ((3, None), (None, 3)):
        with pytest.raises(ValueError, match="both coordinates or neither"):
            Point(x=x, y=y)
    for x, y in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="coordinates must be non-negative"):
            Point(x, y)


def test_curve_params_constructor_contract():
    fields = dict(name="test17", p=17, a=2, b=2, gx=5, gy=1, n=19, h=1)
    assert CurveParams(**fields) == CurveParams(*fields.values()) == TEST17
    for p in (0, 1):
        with pytest.raises(ValueError, match="field modulus must be >= 2"):
            CurveParams(**{**fields, "p": p})
    for label in ("a", "b", "gx", "gy", "n", "h"):
        with pytest.raises(ValueError, match=f"parameter {label} must be non-negative"):
            CurveParams(**{**fields, label: -1})


def test_infinity_is_on_every_curve():
    assert is_on_curve(INFINITY, TEST17)
    assert is_on_curve(INFINITY, default_registry().get("secp256k1"))


def test_secp256k1_base_point_on_curve():
    c = default_registry().get("secp256k1")
    assert is_on_curve(c.base, c)


def test_origin_not_on_secp256k1():
    c = default_registry().get("secp256k1")
    assert not is_on_curve(Point(0, 0), c)  # 0 != 7


def test_coordinates_outside_field_rejected():
    assert is_on_curve(Point(17, 1), TEST17) is False
    with pytest.raises(InvalidPointError):
        decode_point("041101", TEST17)  # x = p


def test_add_identity_and_inverse():
    g = TEST17.base
    assert point_add(g, INFINITY, TEST17) == g
    assert point_add(INFINITY, g, TEST17) == g
    assert point_add(g, Point(5, 16), TEST17) == INFINITY  # -G = (5, 17 - 1)


def test_double_matches_brute_force_table():
    # frozen from the exhaustive table; re-derived below in the full sweep
    assert point_add(TEST17.base, TEST17.base, TEST17) == Point(6, 3)


@pytest.mark.parametrize("curve,size", TOY_GROUP_SIZES)
def test_toy_constants_rederived_by_enumeration(curve, size):
    points = enum_points(curve.a, curve.b, curve.p)
    assert len(points) == size  # group order, h = 1
    assert (curve.gx, curve.gy) in points
    # base point order equals the full group order
    acc, order = None, 0
    while True:
        acc = chord_tangent_add(acc, (curve.gx, curve.gy), curve.a, curve.p)
        order += 1
        if acc is None:
            break
    assert order == curve.n == size


def test_full_test17_table_matches_enumeration():
    points = enum_points(TEST17.a, TEST17.b, TEST17.p)
    table = group_table(points, TEST17.a, TEST17.p)
    for (raw1, raw2), want in table.items():
        got = point_add(as_pt(raw1), as_pt(raw2), TEST17)
        assert got == as_pt(want), (raw1, raw2)
        assert is_on_curve(got, TEST17)  # closure


def test_scalar_mul_trivia():
    g = TEST17.base
    assert scalar_mul(0, g, TEST17) == INFINITY
    assert scalar_mul(1, g, TEST17) == g
    with pytest.raises(ValueError):
        scalar_mul(-1, g, TEST17)


def test_scalar_mul_matches_repeated_addition_on_test17():
    g = (TEST17.gx, TEST17.gy)
    for k in range(0, 20):
        want = as_pt(repeated_add(k, g, TEST17.a, TEST17.p))
        assert scalar_mul(k, TEST17.base, TEST17) == want
    assert scalar_mul(19, TEST17.base, TEST17) == INFINITY


def test_order_kills_base_on_every_builtin():
    registry = default_registry()
    for name in registry.names():
        c = registry.get(name)
        assert scalar_mul(c.n, c.base, c) == INFINITY


def test_associativity_spot_check():
    rnd = random.Random(99)
    registry = default_registry()
    for name in registry.names():
        c = registry.get(name)
        pool = [scalar_mul(rnd.randrange(1, c.n), c.base, c) for _ in range(8)]
        for _ in range(25):
            pa, pb, pc = (rnd.choice(pool) for _ in range(3))
            left = point_add(point_add(pa, pb, c), pc, c)
            right = point_add(pa, point_add(pb, pc, c), c)
            assert left == right
            assert is_on_curve(left, c)


def test_decompress_secp256k1_base():
    c = default_registry().get("secp256k1")
    x_bytes = c.gx.to_bytes(32, "big")
    pt = decompress_point(0x02, x_bytes, c)
    assert pt == c.base
    assert encode_point(pt, c).endswith("fb10d4b8")


def test_decompress_p256_base():
    # P-256's base point y is odd, so the canonical compressed prefix is 03
    c = default_registry().get("p256")
    x_bytes = c.gx.to_bytes(32, "big")
    assert decompress_point(0x03, x_bytes, c) == c.base
    assert format(c.gy, "x").endswith("37bf51f5")
    # prefix 02 selects the even root, which is p - gy
    assert decompress_point(0x02, x_bytes, c) == Point(c.gx, c.p - c.gy)


def test_decompress_bad_prefix():
    c = default_registry().get("secp256k1")
    with pytest.raises(FormatError):
        decompress_point(0x05, c.gx.to_bytes(32, "big"), c)


def test_decompress_nonresidue():
    # on TEST17, x = 1 has no curve point (rhs is a non-residue)
    assert all(x != 1 for (x, _y) in enum_points(2, 2, 17)[1:])
    with pytest.raises(InvalidPointError):
        decompress_point(0x02, bytes([1]), TEST17)


def test_decompress_wrong_width():
    c = default_registry().get("secp256k1")
    with pytest.raises(FormatError):
        decompress_point(0x02, c.gx.to_bytes(33, "big"), c)


def test_compress_roundtrip_all_toy_points():
    for curve in (TEST17, TOY23, TOY43):
        for raw in enum_points(curve.a, curve.b, curve.p)[1:]:
            pt = Point(*raw)
            blob = compress_point(pt, curve)
            assert decompress_point(blob[0], blob[1:], curve) == pt


def test_point_text_encoding_roundtrip():
    c = default_registry().get("secp256k1")
    for text in (compress_point(c.base, c).hex(), encode_point(c.base, c)):
        assert decode_point(text, c) == c.base
    # the identity has no text form, either way
    with pytest.raises(FormatError, match="^not a hex point encoding: 'inf'$"):
        decode_point("inf", c)
    with pytest.raises(InvalidPointError, match="^the identity has no text form$"):
        encode_point(INFINITY, c)


def test_decode_point_rejects_garbage():
    c = default_registry().get("secp256k1")
    with pytest.raises(FormatError):
        decode_point("zz", c)
    with pytest.raises(FormatError):
        decode_point("04abcd", c)
    # off-curve uncompressed point
    bad = "04" + format(1, "064x") + format(1, "064x")
    with pytest.raises(InvalidPointError):
        decode_point(bad, c)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty point encoding"),
        ("05" + "00" * 32, "bad point prefix 0x05"),
        ("02" + "ff" * 32, "x lies outside the field"),
    ],
    ids=["empty", "prefix", "x-above-p"],
)
def test_decode_point_refusals_name_their_cause(text, message):
    c = default_registry().get("secp256k1")
    with pytest.raises(FormatError) as err:
        decode_point(text, c)
    assert str(err.value) == message


def test_compress_point_refuses_the_identity():
    with pytest.raises(InvalidPointError, match="^the identity has no compressed form$"):
        compress_point(INFINITY, TEST17)


def test_validate_secp256k1_strict_all_pass():
    c = default_registry().get("secp256k1")
    report = validate_curve_params(c, strict=True)
    assert report.ok
    assert {chk.name for chk in report.checks} >= {
        "field-modulus-prime",
        "discriminant-nonzero",
        "base-point-on-curve",
        "order-prime",
        "order-kills-base",
        "cofactor-positive",
        "order-above-2^160",
        "order-above-4-sqrt-p",
    }


def test_validate_singular_curve_fails_discriminant():
    singular = CurveParams(name="bad", p=17, a=0, b=0, gx=0, gy=0, n=19, h=1)
    report = validate_curve_params(singular, strict=False)
    failed = {chk.name for chk in report.failures()}
    assert "discriminant-nonzero" in failed


@pytest.mark.parametrize("coeff", ["a", "b"])
def test_validate_refuses_coefficient_outside_the_field(coeff):
    # SEC 1 v2 3.1.1.2.1 step 2: a and b must be residues in [0, p-1].
    # a + p and b + p give the same curve equation, so only this check
    # notices them.
    c = default_registry().get("secp256k1")
    shifted = CurveParams(**{**c._asdict(), coeff: getattr(c, coeff) + c.p})
    report = validate_curve_params(shifted, strict=True)
    assert {chk.name for chk in report.failures()} == {"coefficients-in-field"}


def test_validate_test17_modes():
    relaxed = validate_curve_params(TEST17, strict=False)
    assert relaxed.ok, str(relaxed)
    strict = validate_curve_params(TEST17, strict=True)
    assert not strict.ok
    # n = 19 clears 4*sqrt(17) but is nowhere near 2^160
    failed = {chk.name for chk in strict.failures()}
    assert failed == {"order-above-2^160"}


def test_validate_wrong_cofactor_fails():
    wrong = CurveParams(
        name="h2", p=TEST17.p, a=TEST17.a, b=TEST17.b,
        gx=TEST17.gx, gy=TEST17.gy, n=TEST17.n, h=2,
    )
    report = validate_curve_params(wrong, strict=False)
    assert not report.ok
    assert "cofactor-group-size" in {chk.name for chk in report.failures()}


def test_validation_report_formatting():
    report = validate_curve_params(TEST17, strict=True)
    text = str(report)
    assert "FAIL order-above-2^160" in text
    assert "PASS base-point-on-curve" in text
