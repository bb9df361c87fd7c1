"""The multi-curve signature scheme (MECDSA) and the run-it-t-times
ECDSA baseline, plus the binary wire encoding and the "r:s" text.

Over an ordered list of curves E_1..E_t (duplicates allowed), a
multi-signature on message m is (r, s_1..s_t):

  per curve:  (x_i, y_i) = k_i * P_i,   r_i = x_i mod n_i   (retry on 0)
  shared:     r = r_1 + ... + r_t       (a plain integer sum, no modulus)
  per curve:  s_i = k_i^-1 (e + d_i * r) mod n_i

If r = 0 (mod n_i) for any i — or any s_i lands on 0, which is a shared
failure because every s_j depends on r — the whole pass restarts with
fresh nonces for all curves.  Verification recomputes R_i =
(e/s_i)*P_i + (r/s_i)*Q_i per curve, in one signed-window pass over a
cached table of P_i and a fresh one of Q_i, tallied as the paper's two
EC multiplies and one EC add, and accepts when r equals
the sum of the recovered x-coordinates reduced per curve.  It refuses a
public key Q_i = O, one off the curve or, when the cofactor h_i is not 1,
outside the subgroup of P_i (n_i*Q_i != O, SEC 1 v2 3.2.2.1), and an
R_i = O, whose x-coordinate does not exist.
For t = 1 all of this is plain ECDSA, bit for bit, so ``msign`` and
``mverify`` hold the only copy of ECDSA's per-curve steps, each with its
tallies, and the library has no other signer: the t-ECDSA baseline is a
one-curve ``msign``/``mverify`` per curve, and its signature is the
tuple of those one-curve signatures.

Because r is unreduced it lies in [t, n_1+...+n_t - t] for any genuine
signature, which is also the verifier's first range check (closed
interval, boundaries accepted).

One weak curve is enough to forge.  The verifier checks only the sum of
the r'_i, and an honest curve's pair needs no secret: for any r, the
public (R_i, s_i) = (a*(e*P_i + r*Q_i), a^-1 mod n_i) verifies there for
every a.  A forger who can take discrete logs on one curve of the list
fixes r, makes such pairs on the others, and signs for whatever residue
is left on the weak curve (``tests/test_weak_curve_forgery.py``).  So a
MECDSA key is no stronger than its weakest curve.  The t-ECDSA baseline
keeps the property that one honest curve suffices, since each of its
pairs is a whole ECDSA signature, at 1024 bits against 769 at t = 2 on
two 256-bit curves.

Nonces are drawn in curve-index order from a single source, so test-mode
runs are reproducible; the r sum is the join point of the per-curve work.
"""

from collections import namedtuple

# The steps call the kernels through their modules, never by a name bound
# here, so that a wrapper set on the module (perfbench/tracer.py) sees them.
from mecdsa import _kernels
from mecdsa import curve as curvemod
from mecdsa._hex import hex_to_int, int_to_hex
from mecdsa.curve import CurveParams, Point
from mecdsa.ecdsa import NonceSource, hash_to_int
from mecdsa.errors import FormatError, NonceRangeError
from mecdsa.opcount import Trace


class MultiCurveConfig(namedtuple("MultiCurveConfig", "curves")):
    """Ordered list of t >= 1 validated curves; duplicates permitted."""

    __slots__ = ()

    def __new__(cls, curves: "tuple[CurveParams, ...]"):
        self = super().__new__(cls, tuple(curves))
        if len(self.curves) < 1:
            raise ValueError("a multi-curve config needs at least one curve")
        return self

    @property
    def t(self) -> int:
        return len(self.curves)

    @property
    def order_sum(self) -> int:
        return sum(c.n for c in self.curves)


class MultiCurveKeypair(namedtuple("MultiCurveKeypair", "config d q")):
    """Independent per-curve keypairs d and q, index-aligned with the config."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (len(self.d) == len(self.q) == self.config.t):
            raise ValueError("keypair lists must align with the config")
        return self


class MultiSignature(namedtuple("MultiSignature", "r s")):
    """(r, s_1..s_t): the shared unreduced sum plus one s per curve."""

    __slots__ = ()

    @property
    def t(self) -> int:
        return len(self.s)


def mkeygen(config: MultiCurveConfig, rng: NonceSource) -> MultiCurveKeypair:
    """One independent keypair per curve, drawn in index order: d_i
    uniform in [1, n_i - 1] and Q_i = d_i * P_i."""
    ds, qs = [], []
    for c in config.curves:
        try:
            d = rng.draw(c.n)
        except NonceRangeError as exc:
            raise NonceRangeError(f"cannot make a key on {c.name}: {exc}") from None
        ds.append(d)
        qs.append(curvemod.scalar_mul(d, c.base, c))
    return MultiCurveKeypair(config, tuple(ds), tuple(qs))


def msign(
    message: bytes,
    keypair: MultiCurveKeypair,
    nonces: NonceSource,
    trace: "Trace | None" = None,
) -> MultiSignature:
    """Multi-curve signing as described in the module docstring.

    Counted steps per retry-free run: t EC multiplies, t inversions,
    2t field multiplies, and 2t-1 additions (t from e + d_i*r, t-1 from
    the r summation, which the cost model classifies as field adds).
    """
    cfg = keypair.config
    e = hash_to_int(message)
    while True:
        rounds = []  # (k_i, k_i*P_i, r_i), a fresh k_i while r_i = 0
        for c in cfg.curves:
            while True:
                k = nonces.draw(c.n)
                kp = curvemod.scalar_mul(k, c.base, c)
                if trace is not None:
                    trace.counts.ec_mul += 1
                r_i = kp.x % c.n
                if r_i != 0:
                    break
                if trace is not None:
                    trace.retries += 1
            rounds.append((k, kp, r_i))
        r = sum(r_i for _, _, r_i in rounds)
        if trace is not None:
            trace.counts.field_add += cfg.t - 1
        if all(r % c.n != 0 for c in cfg.curves):
            ss = []
            for c, (k, _, _), d in zip(cfg.curves, rounds, keypair.d):
                s_i = _kernels.mod_inv(k, c.n) * ((e + d * r) % c.n) % c.n
                if trace is not None:
                    trace.counts.field_inv += 1
                    trace.counts.field_mul += 2
                    trace.counts.field_add += 1
                if s_i == 0:
                    break
                ss.append(s_i)
            else:
                if trace is not None:
                    for k, kp, r_i in rounds:
                        trace.nonces.append(k)
                        trace.points.append(kp)
                        trace.r_values.append(r_i)
                return MultiSignature(r, tuple(ss))
        # r = 0 mod some n_i, or an s_i = 0: every s_j depends on r, so
        # the whole round restarts with fresh nonces
        if trace is not None:
            trace.restarts += 1


def mverify(
    message: bytes,
    sig: MultiSignature,
    publics: "tuple[Point, ...]",
    config: MultiCurveConfig,
    trace: "Trace | None" = None,
) -> bool:
    """Accept or refuse; never raises for bad signatures.

    All range checks run before any curve arithmetic: r must lie in
    [t, sum(n_i) - t] and every s_i in [1, n_i - 1].
    """
    t = config.t
    if sig.t != t or len(publics) != t:
        return False
    if not (t <= sig.r <= config.order_sum - t):
        return False
    if not all(1 <= s_i <= c.n - 1 for c, s_i in zip(config.curves, sig.s)):
        return False
    if any(
        q.is_infinity
        or not curvemod.is_on_curve(q, c)
        or (c.h != 1 and not curvemod.scalar_mul(c.n, q, c).is_infinity)
        for c, q in zip(config.curves, publics)
    ):
        return False
    e = hash_to_int(message)
    r_sum = 0
    for c, s_i, q in zip(config.curves, sig.s, publics):
        w = _kernels.mod_inv(s_i, c.n)
        big_r = curvemod.double_scalar_mul_base(e * w % c.n, sig.r * w % c.n, q, c)
        if trace is not None:
            trace.counts.field_inv += 1
            trace.counts.field_mul += 2
            trace.counts.ec_mul += 2
            trace.counts.ec_add += 1
        if big_r.is_infinity:
            return False
        r_prime = big_r.x % c.n
        if trace is not None:
            trace.points.append(big_r)
            trace.r_values.append(r_prime)
        r_sum += r_prime
    if trace is not None:
        trace.counts.field_add += t - 1
    return sig.r == r_sum


def t_ecdsa_sign(
    message: bytes,
    keypair: MultiCurveKeypair,
    nonces: NonceSource,
    trace: "Trace | None" = None,
) -> "tuple[MultiSignature, ...]":
    """Baseline: an independent ECDSA signature per curve, same message;
    each is a one-curve ``msign``."""
    pairs = []
    for c, d, q in zip(keypair.config.curves, keypair.d, keypair.q):
        one = MultiCurveKeypair(MultiCurveConfig((c,)), (d,), (q,))
        pairs.append(msign(message, one, nonces, trace))
    return tuple(pairs)


def t_ecdsa_verify(
    message: bytes,
    pairs: "tuple[MultiSignature, ...]",
    publics: "tuple[Point, ...]",
    config: MultiCurveConfig,
    trace: "Trace | None" = None,
) -> bool:
    """Accept iff every per-curve signature verifies as a one-curve
    ``mverify``."""
    if len(pairs) != config.t or len(publics) != config.t:
        return False
    return all(
        mverify(message, pair, (q,), MultiCurveConfig((c,)), trace)
        for c, pair, q in zip(config.curves, pairs, publics)
    )


# Wire format: 0x01 | t | (2-byte big-endian length + minimal big-endian
# bytes) for r and then each s_i.  Strict decoding: exact lengths, no
# trailing bytes, no leading-zero (non-minimal) integers.

_WIRE_VERSION = 0x01


def encode_multisig(sig: MultiSignature) -> bytes:
    if sig.t < 1:
        raise FormatError("cannot encode a signature with no components")
    if sig.t > 255:
        raise FormatError("cannot encode more than 255 components")
    out = bytearray((_WIRE_VERSION, sig.t))
    for value in (sig.r, *sig.s):
        if value < 0:
            raise FormatError("signature integers must be non-negative")
        blob = value.to_bytes((value.bit_length() + 7) // 8, "big")
        if len(blob) > 0xFFFF:
            raise FormatError("integer too large for the wire format")
        out += len(blob).to_bytes(2, "big")
        out += blob
    return bytes(out)


def decode_multisig(data: bytes) -> MultiSignature:
    """Strict inverse of encode_multisig; FormatError carries the offset."""
    if len(data) < 2:
        raise FormatError("truncated header", offset=len(data))
    if data[0] != _WIRE_VERSION:
        raise FormatError(f"unsupported version byte {data[0]:#04x}", offset=0)
    t = data[1]
    if t == 0:
        raise FormatError("component count must be at least 1", offset=1)
    offset = 2
    values = []
    for _ in range(t + 1):
        if offset + 2 > len(data):
            raise FormatError("truncated length prefix", offset=offset)
        length = int.from_bytes(data[offset : offset + 2], "big")
        offset += 2
        if offset + length > len(data):
            raise FormatError("truncated integer", offset=offset)
        blob = data[offset : offset + length]
        if length > 0 and blob[0] == 0:
            raise FormatError("non-minimal integer encoding", offset=offset)
        values.append(int.from_bytes(blob, "big"))
        offset += length
    if offset != len(data):
        raise FormatError(f"{len(data) - offset} trailing bytes", offset=offset)
    return MultiSignature(values[0], tuple(values[1:]))


def format_signature(sig: MultiSignature) -> str:
    """Text form "r:s" of a one-curve signature, two lowercase hex integers."""
    (s,) = sig.s
    return f"{int_to_hex(sig.r)}:{int_to_hex(s)}"


def parse_signature(text: str) -> MultiSignature:
    parts = text.split(":")
    if len(parts) != 2:
        raise FormatError(f"signature must be 'r:s', got {text!r}")
    return MultiSignature(hex_to_int(parts[0], "r"), (hex_to_int(parts[1], "s"),))
