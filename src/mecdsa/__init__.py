"""Multi-curve ECDSA signatures.

One signature over t independently-chosen curves: per-curve nonce points
give residues r_i, the shared value r is their plain integer sum, and
each curve contributes one s_i binding r under its own order.  Compared
with running ECDSA once per curve, the signature carries a single r
instead of t of them.  At t = 1 the scheme is plain ECDSA, bit for bit,
so a one-curve config is how the package signs with ECDSA, and ECDSA's
per-curve steps are written once, in ``msign`` and ``mverify``.  The
package also ships the run-it-t-times baseline, whose signature is the
tuple of its t one-curve signatures, a cost-model bench, and a CLI.

NOT production-hardened: arithmetic is not constant-time, key files are
unencrypted, and nonce handling favors testability.  Desk-scale use only.
"""

from mecdsa.curve import (
    INFINITY,
    CurveParams,
    Point,
    decompress_point,
    is_on_curve,
    validate_curve_params,
)
from mecdsa.ecdsa import (
    ListNonceSource,
    NonceSource,
    SeededNonceSource,
    SystemNonceSource,
    hash_to_int,
)
from mecdsa.errors import (
    CurveValidationError,
    DuplicateCurveError,
    FormatError,
    InvalidPointError,
    MecdsaError,
    NonceExhaustedError,
    NonceRangeError,
    UnknownCurveError,
)
from mecdsa.fieldmath import is_probable_prime, sqrt_mod
from mecdsa.multi import (
    MultiCurveConfig,
    MultiCurveKeypair,
    MultiSignature,
    decode_multisig,
    encode_multisig,
    mkeygen,
    msign,
    mverify,
    t_ecdsa_sign,
    t_ecdsa_verify,
)
from mecdsa.opcount import OpCounts, Trace
from mecdsa.registry import CurveRegistry, default_registry

__version__ = "0.1.0"


__all__ = [
    "CurveParams",
    "CurveRegistry",
    "CurveValidationError",
    "DuplicateCurveError",
    "FormatError",
    "INFINITY",
    "InvalidPointError",
    "ListNonceSource",
    "MecdsaError",
    "MultiCurveConfig",
    "MultiCurveKeypair",
    "MultiSignature",
    "NonceExhaustedError",
    "NonceRangeError",
    "NonceSource",
    "OpCounts",
    "Point",
    "SeededNonceSource",
    "SystemNonceSource",
    "Trace",
    "UnknownCurveError",
    "decode_multisig",
    "decompress_point",
    "default_registry",
    "encode_multisig",
    "hash_to_int",
    "is_on_curve",
    "is_probable_prime",
    "mkeygen",
    "msign",
    "mverify",
    "sqrt_mod",
    "t_ecdsa_sign",
    "t_ecdsa_verify",
    "validate_curve_params",
]
