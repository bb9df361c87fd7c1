"""The message hash and the nonce sources that feed the signers.

ECDSA on one curve: e = H(m); pick a nonce k in [1, n-1]; (x, y) = k*P;
r = x mod n; s = k^-1 (e + d*r) mod n, with a fresh k whenever r or s
is 0.  Verification recomputes R = (e/s)*P + (r/s)*Q and accepts when r
matches R's x-coordinate mod n.  H is SHA-256 and e enters every formula
reduced modulo the order, so curves of any size work.

Plain ECDSA is MECDSA at t = 1, so those per-curve steps live in
``mecdsa.multi``, inside ``msign`` and ``mverify``; a one-curve
``msign``/``mverify`` is ECDSA bit for bit.  This module holds what
they draw on: H, and the sources of the secret scalars k and d.
"""

import hashlib
import random
import secrets

from mecdsa.errors import NonceExhaustedError, NonceRangeError


def hash_to_int(message: bytes) -> int:
    """SHA-256 digest of the message as a big-endian integer.

    The whole 256-bit digest is used; the signing and verification
    formulas then reduce it mod n.  FIPS 186-4 and SEC 1 instead keep only
    the leftmost l(n) bits of the digest, l(n) being the bit length of the
    order.  The two rules agree when l(n) >= 256, as on all four built-in
    curves, and differ on smaller orders (P-224, the toy curves).
    """
    return int.from_bytes(hashlib.sha256(message).digest(), "big")


class NonceSource:
    """Source of secret scalars in [1, order-1].

    Single-consumer: never share one across concurrent signers, or the
    draw order (and with it test reproducibility) is gone.
    """

    def draw(self, order: int) -> int:
        raise NotImplementedError


def _rejection_draw(randbits, order: int) -> int:
    """Draw l(order)-bit values from ``randbits`` until one is in [1, order-1]."""
    if order < 3:
        raise NonceRangeError("order too small to draw from")
    bits = order.bit_length()
    while True:
        k = randbits(bits)
        if 1 <= k <= order - 1:
            return k


class SystemNonceSource(NonceSource):
    """Rejection sampling from the operating system CSPRNG."""

    def draw(self, order: int) -> int:
        return _rejection_draw(secrets.randbits, order)


class SeededNonceSource(NonceSource):
    """Deterministic rejection sampling from a seeded PRNG.

    For reproducible tests and benchmarks only — not a CSPRNG.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def draw(self, order: int) -> int:
        return _rejection_draw(self._rng.getrandbits, order)


class ListNonceSource(NonceSource):
    """Explicit nonce list consumed in order (test mode).

    Makes every retry path deterministic.  Raises NonceExhaustedError
    when the list runs out and NonceRangeError for an out-of-range entry.
    """

    def __init__(self, values):
        self._values = list(values)
        self._next = 0

    @property
    def consumed(self) -> int:
        return self._next

    def draw(self, order: int) -> int:
        if self._next >= len(self._values):
            raise NonceExhaustedError(
                f"nonce list exhausted after {self._next} draws"
            )
        k = self._values[self._next]
        self._next += 1
        if not 1 <= k <= order - 1:
            raise NonceRangeError(f"nonce {k} outside [1, {order - 1}]")
        return k


__all__ = [
    "ListNonceSource",
    "NonceExhaustedError",
    "NonceSource",
    "SeededNonceSource",
    "SystemNonceSource",
    "hash_to_int",
]
