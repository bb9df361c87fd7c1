"""The per-curve steps of ECDSA, and the nonce sources that feed them.

ECDSA on one curve: e = H(m); pick a nonce k in [1, n-1]; (x, y) = k*P;
r = x mod n; s = k^-1 (e + d*r) mod n, with a fresh k whenever r or s
is 0.  Verification recomputes R = (e/s)*P + (r/s)*Q and accepts when r
matches R's x-coordinate mod n.  H is SHA-256 and e enters every formula
reduced modulo the order, so curves of any size work.

Plain ECDSA is MECDSA at t = 1: ``mecdsa.multi`` runs these steps once
per curve for both schemes, and a one-curve ``msign``/``mverify`` is
ECDSA bit for bit.  Each step (nonce point, s, public-key check,
recovery of R) is written once, with its operation tallies.

The private key d lies in [1, n-1]: d = n would give Q = O, which is
unusable.  Verification also rejects R = O, whose x-coordinate does not
exist.
"""

import hashlib
import random
import secrets

from mecdsa import _kernels
from mecdsa import curve as curvemod
from mecdsa.curve import CurveParams, Point
from mecdsa.errors import NonceExhaustedError, NonceRangeError
from mecdsa.opcount import Trace


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


def _nonce_point(
    curve: CurveParams, nonces: NonceSource, trace: "Trace | None"
) -> "tuple[int, Point, int]":
    """(k, k*P, r = x(k*P) mod n), drawing a fresh k while r = 0."""
    n = curve.n
    while True:
        k = nonces.draw(n)
        kp = curvemod.scalar_mul(k, curve.base, curve)
        if trace is not None:
            trace.counts.ec_mul += 1
        r = kp.x % n
        if r != 0:
            return k, kp, r
        if trace is not None:
            trace.retries += 1


def _sign_scalar(k: int, d: int, r: int, e: int, n: int, trace: "Trace | None") -> int:
    """s = k^-1 (e + d*r) mod n; r may be the unreduced multi-curve sum."""
    s = _kernels.mod_inv(k, n) * ((e + d * r) % n) % n
    if trace is not None:
        trace.counts.field_inv += 1
        trace.counts.field_mul += 2
        trace.counts.field_add += 1
    return s


def _public_key_ok(q: Point, curve: CurveParams) -> bool:
    """Q is not O and lies on the curve."""
    return not q.is_infinity and curvemod.is_on_curve(q, curve)


def _recover_r(
    e: int, r: int, s: int, q: Point, curve: CurveParams, trace: "Trace | None"
) -> "int | None":
    """x(R) mod n for R = (e/s)*P + (r/s)*Q, or None when R = O.

    R comes from one joint ladder pass, tallied as the paper's two EC
    multiplies and one EC add.  r may be the unreduced multi-curve sum.
    R and the residue go on the trace.
    """
    n = curve.n
    w = _kernels.mod_inv(s, n)
    big_r = curvemod.double_scalar_mul(e * w % n, curve.base, r * w % n, q, curve)
    if trace is not None:
        trace.counts.field_inv += 1
        trace.counts.field_mul += 2
        trace.counts.ec_mul += 2
        trace.counts.ec_add += 1
    if big_r.is_infinity:
        return None
    r_prime = big_r.x % n
    if trace is not None:
        trace.points.append(big_r)
        trace.r_values.append(r_prime)
    return r_prime


__all__ = [
    "ListNonceSource",
    "NonceExhaustedError",
    "NonceSource",
    "SeededNonceSource",
    "SystemNonceSource",
    "hash_to_int",
]
