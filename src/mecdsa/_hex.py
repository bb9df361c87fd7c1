"""Hex and byte-string helpers shared by the file formats.

Integers cross every file and module boundary as lowercase big-endian hex
without a radix prefix.
"""

from mecdsa.errors import FormatError

_HEX_DIGITS = set("0123456789abcdefABCDEF")


def int_to_hex(value: int) -> str:
    if value < 0:
        raise ValueError("negative integers have no hex form here")
    return format(value, "x")


def hex_to_int(text: str, what: str = "integer") -> int:
    if not text or any(ch not in _HEX_DIGITS for ch in text):
        raise FormatError(f"{what}: not a hex string: {text!r}")
    return int(text, 16)
