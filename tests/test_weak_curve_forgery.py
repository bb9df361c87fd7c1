"""One weak curve is enough to forge a MECDSA signature, at every t.

The verifier checks only that r = r'_1 + ... + r'_t, and on an honest
curve a pair verifies for any r without the secret key:
R_i = a*(e*P_i + r*Q_i) and s_i = a^-1 mod n_i give
(e/s_i)*P_i + (r/s_i)*Q_i = R_i.  So a forger who can take discrete logs
on curve 0 picks r, makes such pairs on curves 1..t-1, and signs as the
key holder on curve 0 for the residue that is left, whenever a point of
curve 0 has that x-coordinate mod n_0 (about half the time).

The attacker here sees the config, the public points, the message and a
log table of curve 0, never an honest d.  TEST17 plays the weak curve:
its 19 points are few enough to tabulate.  The t-ECDSA baseline does not
fall to this, since each of its pairs is a whole ECDSA signature on its
own curve.
"""

import random

import pytest

from mecdsa.curve import point_add, scalar_mul
from mecdsa.ecdsa import SeededNonceSource, hash_to_int
from mecdsa.multi import MultiCurveConfig, MultiSignature, mkeygen, mverify

from .conftest import TEST17, TOY23, TOY43

TRIES = 200


def log_table(c):
    """{k*P: k for k in [1, n-1]}: the discrete-log oracle that makes c weak."""
    return {scalar_mul(k, c.base, c): k for k in range(1, c.n)}


def _keyless_pair(c, q, e, r, rnd):
    """(x(R) mod n, s) verifying against public point q for this r, or None
    when the drawn R is the identity."""
    w = point_add(scalar_mul(e % c.n, c.base, c), scalar_mul(r % c.n, q, c), c)
    a = rnd.randrange(1, c.n)
    big_r = scalar_mul(a, w, c)
    if big_r.is_infinity:
        return None
    return big_r.x % c.n, pow(a, -1, c.n)


def forge(config, publics, message, log0, rnd):
    """A signature on ``message`` from public data and curve 0's logs
    only, or None when ``TRIES`` tries all miss."""
    weak = config.curves[0]
    by_residue = {pt.x % weak.n: pt for pt in log0}
    d0 = log0[publics[0]]
    e = hash_to_int(message)
    for _ in range(TRIES):
        r = rnd.randrange(config.t, config.order_sum - config.t + 1)
        pairs = [
            _keyless_pair(c, q, e, r, rnd)
            for c, q in zip(config.curves[1:], publics[1:])
        ]
        if None in pairs:
            continue
        x0 = by_residue.get(r - sum(residue for residue, _ in pairs))
        if x0 is None:
            continue
        s0 = pow(log0[x0], -1, weak.n) * (e + d0 * r) % weak.n
        if s0 != 0:
            return MultiSignature(r, (s0, *(s for _, s in pairs)))
    return None


def test_log_table_covers_the_weak_curve():
    # n - 1 distinct points k*P: every point but O has its log in the table
    assert len(log_table(TEST17)) == TEST17.n - 1


@pytest.mark.parametrize(
    "curves", [(TEST17, TOY23), (TEST17, TOY23, TOY43)], ids=["t2", "t3"]
)
def test_one_weak_curve_forges_mecdsa(curves):
    config = MultiCurveConfig(curves)
    victim = mkeygen(config, SeededNonceSource(len(curves)))
    log0 = log_table(TEST17)
    rnd = random.Random(1999)
    for i in range(10):
        message = b"never signed %d" % i
        sig = forge(config, victim.q, message, log0, rnd)
        assert sig is not None, message
        assert mverify(message, sig, victim.q, config), message
        assert not mverify(b"another message", sig, victim.q, config), message
