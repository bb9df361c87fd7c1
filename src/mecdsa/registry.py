"""Named curve parameter sets and user-supplied curve configs.

Built-ins carry the authoritative constants from the public standards
(FIPS 186-4, GB/T 32918, SEC 2 v2).  They are fixed facts of the program,
built once at import and checked by the test suite (strict validation,
and a comparison with OpenSSL's explicit parameters), not again in every
process.  Validation runs where parameters come from outside: custom
curves arrive as flat key-value config documents and are validated when
loaded, with a relaxed mode that drops only the order-size bounds so
small test curves can be loaded.

Lookups go through a ``CurveRegistry`` (``get``, ``names``,
``list_curves``, ``load_custom``).  ``default_registry()`` is the shared
built-ins-only instance; a caller that loads custom curves builds its own,
as every CLI command does.

A registry is append-only: entries are never removed, so nothing that
captured a CurveParams can be left dangling.  ``load_custom`` needs
exclusive access; reading is freely concurrent.
"""

import functools
from collections import namedtuple

from mecdsa._hex import hex_to_int, int_to_hex
from mecdsa.curve import (
    CurveParams,
    decode_point,
    encode_point,
    meets_strict_bounds,
    validate_curve_params,
)
from mecdsa.errors import (
    CurveValidationError,
    DuplicateCurveError,
    FormatError,
    UnknownCurveError,
)

# p, a, b, gx, gy, n, h of P-256, published under two names
_P256 = (
    0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
    0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    1,
)

# name, source, p, a, b, gx, gy, n, h
_BUILTINS = (
    ("p256", "FIPS 186-4", *_P256),
    (
        "sm2",
        "GB/T 32918",
        0xFFFFFFFEFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF00000000FFFFFFFFFFFFFFFF,
        0xFFFFFFFEFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF00000000FFFFFFFFFFFFFFFC,
        0x28E9FA9E9D9F5E344D5A9E4BCF6509A7F39789F515AB8F92DDBCBD414D940E93,
        0x32C4AE2C1F1981195F9904466A39C9948FE30BBFF2660BE1715A4589334C74C7,
        0xBC3736A2F4F6779C59BDCEE36B692153D0A9877CC62A474002DF32E52139F0A0,
        0xFFFFFFFEFFFFFFFFFFFFFFFFFFFFFFFF7203DF6B21C6052B53BBF40939D54123,
        1,
    ),
    ("secp256r1", "SEC 2 v2", *_P256),
    (
        "secp256k1",
        "SEC 2 v2",
        0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
        0,
        7,
        0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
        0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
        1,
    ),
)

_CONFIG_KEYS = ("name", "p", "a", "b", "base", "n", "h", "strict")


RegistryEntry = namedtuple("RegistryEntry", "params source")


_BUILTIN_ENTRIES = {
    name: RegistryEntry(
        CurveParams(name=name, p=p, a=a, b=b, gx=gx, gy=gy, n=n, h=h), source
    )
    for name, source, p, a, b, gx, gy, n, h in _BUILTINS
}


def parse_kv_lines(text: str) -> "dict[str, str]":
    """Parse a UTF-8 "key = value" document; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise FormatError(f"line {lineno}: empty key")
        if key in out:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_curve_config(text: str) -> "tuple[CurveParams, bool]":
    """Parse a curve config document into (params, strict flag).

    The base point is decoded here, so an encoding off the curve, or one
    needing a square root modulo a composite p, is refused (FormatError,
    InvalidPointError) before any validation runs; validate_curve_params
    makes every other check, in the caller or the registry.
    """
    kv = parse_kv_lines(text)
    missing = [k for k in _CONFIG_KEYS if k not in kv]
    if missing:
        raise FormatError(f"missing keys: {', '.join(missing)}")
    unknown = [k for k in kv if k not in _CONFIG_KEYS]
    if unknown:
        raise FormatError(f"unknown keys: {', '.join(sorted(unknown))}")
    name = kv["name"]
    if not name:
        raise FormatError("curve name must not be empty")
    p = hex_to_int(kv["p"], "p")
    a = hex_to_int(kv["a"], "a")
    b = hex_to_int(kv["b"], "b")
    n = hex_to_int(kv["n"], "n")
    h = hex_to_int(kv["h"], "h")
    if kv["strict"] not in ("true", "false"):
        raise FormatError(f"strict must be 'true' or 'false', got {kv['strict']!r}")
    strict = kv["strict"] == "true"
    try:
        shell = CurveParams(name=name, p=p, a=a, b=b, gx=0, gy=0, n=n, h=h)
        base = decode_point(kv["base"], shell)
    except ValueError as exc:  # p < 2, or a square root modulo a composite p
        raise FormatError(str(exc)) from None
    return CurveParams(name, p, a, b, base.x, base.y, n, h), strict


def format_curve_config(c: CurveParams) -> str:
    """Serialize params to the config format; parse_curve_config inverts it."""
    lines = [
        f"name = {c.name}",
        f"p = {int_to_hex(c.p)}",
        f"a = {int_to_hex(c.a)}",
        f"b = {int_to_hex(c.b)}",
        f"base = {encode_point(c.base, c)}",
        f"n = {int_to_hex(c.n)}",
        f"h = {int_to_hex(c.h)}",
        f"strict = {'true' if meets_strict_bounds(c) else 'false'}",
    ]
    return "\n".join(lines) + "\n"


class CurveRegistry:
    """Case-insensitive name -> CurveParams map, built-ins included."""

    def __init__(self):
        self._entries: "dict[str, RegistryEntry]" = dict(_BUILTIN_ENTRIES)

    def names(self) -> "list[str]":
        return sorted(self._entries)

    def get(self, name: str) -> CurveParams:
        """The named curve, whatever the case of ``name``."""
        entry = self._entries.get(name.lower())
        if entry is None:
            known = ", ".join(self.names())
            raise UnknownCurveError(f"unknown curve {name!r}; available: {known}")
        return entry.params

    def list_curves(self) -> "list[tuple[str, int, str]]":
        """(name, bit length of n, source) in deterministic name order."""
        return [
            (name, self._entries[name].params.n.bit_length(), self._entries[name].source)
            for name in self.names()
        ]

    def load_custom(self, text: str, source: str = "custom") -> CurveParams:
        """Parse, validate, and register a user-defined curve."""
        params, strict = parse_curve_config(text)
        key = params.name.lower()
        if key in self._entries:
            raise DuplicateCurveError(f"curve name {params.name!r} already registered")
        report = validate_curve_params(params, strict=strict)
        if not report.ok:
            raise CurveValidationError(report)
        self._entries[key] = RegistryEntry(params, source)
        return params


@functools.lru_cache(maxsize=1)
def default_registry() -> CurveRegistry:
    """The shared built-ins-only registry."""
    return CurveRegistry()
