import pytest

from mecdsa.curve import CurveParams, validate_curve_params
from mecdsa.errors import (
    CurveValidationError,
    DuplicateCurveError,
    FormatError,
    UnknownCurveError,
)
from mecdsa.registry import (
    CurveRegistry,
    format_curve_config,
    parse_curve_config,
    parse_kv_lines,
)

from .conftest import TEST17

TEST17_CONFIG = """\
# toy curve used across the test suite
name = test17
p = 11
a = 2
b = 2
base = 040501   # uncompressed: x = 5, y = 1
n = 13
h = 1
strict = false
"""


@pytest.fixture
def fresh_registry():
    return CurveRegistry()


def test_builtin_names(registry):
    assert registry.names() == ["p256", "secp256k1", "secp256r1", "sm2"]


def test_get_secp256k1_constants(registry):
    c = registry.get("secp256k1")
    assert c.a == 0 and c.b == 7 and c.h == 1


def test_get_p256_order_decimal(registry):
    c = registry.get("p256")
    assert c.n == 115792089210356248762697446949407573529996955224135760342422259061068512044369
    assert c.p == 115792089210356248762697446949407573530086143415290314195533631308867097853951


def test_p256_and_secp256r1_are_the_same_curve(registry):
    a = registry.get("p256")
    b = registry.get("secp256r1")
    assert (a.p, a.a, a.b, a.gx, a.gy, a.n, a.h) == (b.p, b.a, b.b, b.gx, b.gy, b.n, b.h)


def test_get_is_case_insensitive(registry):
    assert registry.get("SECP256K1") == registry.get("secp256k1")


def test_unknown_name_lists_available(registry):
    with pytest.raises(UnknownCurveError) as err:
        registry.get("nosuch")
    assert "secp256k1" in str(err.value)


def test_every_builtin_passes_strict_validation(registry):
    for name in registry.names():
        report = validate_curve_params(registry.get(name), strict=True)
        assert report.ok, str(report)


# Frozen from `openssl ecparam -name NAME -param_enc explicit -text -noout`
# (OpenSSL 3.5.6) for NAME = secp256k1, prime256v1 and SM2; gx and gy are
# the two halves of the uncompressed generator 04 | gx | gy.
OPENSSL_SECP256K1 = dict(
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
    a=0,
    b=7,
    gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    h=1,
)
OPENSSL_PRIME256V1 = dict(
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    h=1,
)
OPENSSL_SM2 = dict(
    p=0xFFFFFFFEFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF00000000FFFFFFFFFFFFFFFF,
    a=0xFFFFFFFEFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF00000000FFFFFFFFFFFFFFFC,
    b=0x28E9FA9E9D9F5E344D5A9E4BCF6509A7F39789F515AB8F92DDBCBD414D940E93,
    gx=0x32C4AE2C1F1981195F9904466A39C9948FE30BBFF2660BE1715A4589334C74C7,
    gy=0xBC3736A2F4F6779C59BDCEE36B692153D0A9877CC62A474002DF32E52139F0A0,
    n=0xFFFFFFFEFFFFFFFFFFFFFFFFFFFFFFFF7203DF6B21C6052B53BBF40939D54123,
    h=1,
)
OPENSSL_PARAMS = {
    "p256": OPENSSL_PRIME256V1,
    "secp256k1": OPENSSL_SECP256K1,
    "secp256r1": OPENSSL_PRIME256V1,
    "sm2": OPENSSL_SM2,
}


@pytest.mark.parametrize("name", sorted(OPENSSL_PARAMS))
def test_builtin_constants_match_openssl(registry, name):
    # the built-ins are not validated at run time; this and the strict
    # validation above are what stand behind their constants
    assert registry.get(name) == CurveParams(name=name, **OPENSSL_PARAMS[name])


def test_list_curves_shape_and_idempotence(registry):
    listing = registry.list_curves()
    assert [name for name, _, _ in listing] == registry.names()
    assert all(bits == 256 for _, bits, _ in listing)
    assert listing == registry.list_curves()


def test_load_custom_test17(fresh_registry):
    # hex in the document: p = 0x11 = 17, n = 0x13 = 19
    params = fresh_registry.load_custom(TEST17_CONFIG)
    assert params == TEST17
    assert "test17" in fresh_registry.names()
    assert len(fresh_registry.list_curves()) == 5


def test_load_custom_rejects_duplicate_names(fresh_registry):
    fresh_registry.load_custom(TEST17_CONFIG)
    with pytest.raises(DuplicateCurveError):
        fresh_registry.load_custom(TEST17_CONFIG.replace("name = test17", "name = TEST17"))


def test_reentered_builtin_is_bit_identical(fresh_registry):
    original = fresh_registry.get("secp256k1")
    text = format_curve_config(original).replace(
        "name = secp256k1", "name = k1copy"
    )
    copy = fresh_registry.load_custom(text)
    assert CurveParams(**{**copy._asdict(), "name": "secp256k1"}) == original


def test_perturbed_order_fails_validation(fresh_registry):
    original = fresh_registry.get("secp256k1")
    bad = format_curve_config(original).replace(
        "name = secp256k1", "name = k1bad"
    ).replace(format(original.n, "x"), format(original.n + 2, "x"))
    with pytest.raises(CurveValidationError) as err:
        fresh_registry.load_custom(bad)
    failed = {chk.name for chk in err.value.report.failures()}
    assert failed & {"order-prime", "order-kills-base"}


def test_config_roundtrip_every_builtin(registry):
    for name in registry.names():
        params = registry.get(name)
        text = format_curve_config(params)
        reparsed, strict = parse_curve_config(text)
        assert reparsed == params
        assert strict is True


def test_config_roundtrip_toy():
    text = format_curve_config(TEST17)
    reparsed, strict = parse_curve_config(text)
    assert reparsed == TEST17
    assert strict is False


def test_parse_rejects_missing_keys():
    with pytest.raises(FormatError) as err:
        parse_curve_config("name = x\np = 11\n")
    assert "missing keys" in str(err.value)


def test_parse_rejects_unknown_keys():
    with pytest.raises(FormatError):
        parse_curve_config(TEST17_CONFIG + "extra = 1\n")


def test_parse_rejects_duplicate_keys():
    with pytest.raises(FormatError):
        parse_curve_config(TEST17_CONFIG + "p = 11\n")


def test_parse_rejects_bad_strict_flag():
    with pytest.raises(FormatError):
        parse_curve_config(TEST17_CONFIG.replace("strict = false", "strict = maybe"))


def test_parse_rejects_bad_hex():
    with pytest.raises(FormatError):
        parse_curve_config(TEST17_CONFIG.replace("p = 11", "p = zz"))


@pytest.mark.parametrize("modulus", ["0", "1"])
def test_parse_rejects_degenerate_modulus(modulus):
    with pytest.raises(FormatError, match="modulus must be >= 2"):
        parse_curve_config(TEST17_CONFIG.replace("p = 11", f"p = {modulus}"))


def test_parse_rejects_compressed_infinity_base():
    with pytest.raises(FormatError):
        parse_curve_config(TEST17_CONFIG.replace("base = 040501", "base = inf"))


def test_parse_accepts_compressed_base():
    text = TEST17_CONFIG.replace("base = 040501", "base = 0305")
    params, _ = parse_curve_config(text)
    assert params == TEST17


def test_kv_parser_reports_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_kv_lines("a = 1\nnot a pair\n")
    assert "line 2" in str(err.value)


def test_kv_parser_refuses_an_empty_key():
    with pytest.raises(FormatError, match="^line 2: empty key$"):
        parse_kv_lines("a = 1\n = 5\n")


def test_parse_rejects_empty_name():
    with pytest.raises(FormatError, match="^curve name must not be empty$"):
        parse_curve_config(TEST17_CONFIG.replace("name = test17", "name ="))


def test_custom_curves_resolve_after_loading(fresh_registry):
    fresh_registry.load_custom(TEST17_CONFIG)
    assert fresh_registry.get("test17") == TEST17
    listing = dict(
        (name, source) for name, _, source in fresh_registry.list_curves()
    )
    assert listing["test17"] == "custom"
