import dataclasses

import pytest

from mecdsa import registry as registry_module
from mecdsa.cli import main
from mecdsa.curve import validate_curve_params
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
    text = format_curve_config(original, strict=True).replace(
        "name = secp256k1", "name = k1copy"
    )
    copy = fresh_registry.load_custom(text)
    assert dataclasses.replace(copy, name="secp256k1") == original


def test_perturbed_order_fails_validation(fresh_registry):
    original = fresh_registry.get("secp256k1")
    bad = format_curve_config(original, strict=True).replace(
        "name = secp256k1", "name = k1bad"
    ).replace(format(original.n, "x"), format(original.n + 2, "x"))
    with pytest.raises(CurveValidationError) as err:
        fresh_registry.load_custom(bad)
    failed = {chk.name for chk in err.value.report.failures()}
    assert failed & {"order-prime", "order-kills-base"}


def test_config_roundtrip_every_builtin(registry):
    for name in registry.names():
        params = registry.get(name)
        text = format_curve_config(params, strict=True)
        reparsed, strict = parse_curve_config(text)
        assert reparsed == params
        assert strict is True


def test_config_roundtrip_toy():
    text = format_curve_config(TEST17, strict=False)
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


def test_custom_curves_resolve_after_loading(fresh_registry):
    fresh_registry.load_custom(TEST17_CONFIG)
    assert fresh_registry.get("test17") == TEST17
    listing = dict(
        (name, source) for name, _, source in fresh_registry.list_curves()
    )
    assert listing["test17"] == "custom"


def test_builtins_validated_on_first_get_only(monkeypatch):
    validated = []

    def counting(params, **kwargs):
        validated.append(params.name)
        return validate_curve_params(params, **kwargs)

    monkeypatch.setattr(registry_module, "validate_curve_params", counting)
    reg = CurveRegistry()
    assert validated == []
    for _ in range(3):
        reg.get("secp256k1")
    reg.get("SECP256K1")
    assert validated == ["secp256k1"]
    reg.get("p256")
    assert validated == ["secp256k1", "p256"]


def test_broken_builtin_refused_on_get(monkeypatch, tmp_path):
    broken = tuple(
        row[:7] + (row[7] + 2,) + row[8:] if row[0] == "secp256k1" else row
        for row in registry_module._BUILTINS
    )
    monkeypatch.setattr(registry_module, "_BUILTINS", broken)
    reg = CurveRegistry()
    with pytest.raises(CurveValidationError) as err:
        reg.get("secp256k1")
    assert {chk.name for chk in err.value.report.failures()} & {
        "order-prime",
        "order-kills-base",
    }
    monkeypatch.chdir(tmp_path)
    assert main(["keygen", "--curves", "secp256k1"]) == 2
    assert not (tmp_path / "key.sec").exists()
