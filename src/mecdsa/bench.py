"""Cost-model report: predicted vs measured operation counts and signature
length accounting.

Counting granularity is the algorithm step (see ``mecdsa.opcount``); the
per-execution predictions for t curves are

    scheme    phase    Fp.add  Fp.mul  Fp.inv  EC.add  EC.mul
    t-ecdsa   sign       t       2t      t       0       t
    t-ecdsa   verify     0       2t      t       t       2t
    mecdsa    sign      2t-1     2t      t       0       t
    mecdsa    verify    t-1      2t      t       t       2t

Each scheme is signed once per report; the counted verify checks that
same signature, so both cells of a scheme come from one signing.

The scalar payload bounds in bits are 2*sum(l(n_i)) for t-ecdsa versus
max(l(n_i)) + t - 1 + sum(l(n_i)) for mecdsa, where l(n) is the bit
length of the order.  The t - 1 slack on the shared r is generous; the
tight variant replaces it with ceil(log2 t) and is reported too, without
changing any wire format.

Retried runs are reported with their actual (elevated) counts and a retry
flag, never silently dropped.
"""

import random
from collections import namedtuple

from mecdsa.ecdsa import NonceSource, SeededNonceSource
from mecdsa.multi import (
    MultiCurveConfig,
    MultiCurveKeypair,
    MultiSignature,
    mkeygen,
    msign,
    mverify,
    t_ecdsa_sign,
    t_ecdsa_verify,
)
from mecdsa.opcount import OpCounts, Trace

# scheme name -> (sign, verify)
_SCHEMES = {"mecdsa": (msign, mverify), "t-ecdsa": (t_ecdsa_sign, t_ecdsa_verify)}


def _check_scheme(scheme: str):
    if scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {tuple(_SCHEMES)}, got {scheme!r}")


def predicted_counts(scheme: str, phase: str, t: int) -> OpCounts:
    """Per-execution operation counts predicted by the cost model."""
    _check_scheme(scheme)
    if phase not in ("sign", "verify"):
        raise ValueError(f"phase must be one of ('sign', 'verify'), got {phase!r}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if phase == "sign":
        adds = 2 * t - 1 if scheme == "mecdsa" else t
        return OpCounts(adds, 2 * t, t, 0, t)
    adds = t - 1 if scheme == "mecdsa" else 0
    return OpCounts(adds, 2 * t, t, t, 2 * t)


def measure_counts(
    scheme: str, keypair: MultiCurveKeypair, message: bytes, nonces: NonceSource
) -> "tuple[Trace, Trace]":
    """Sign once and verify that signature, each with its own trace.

    Returns ``(sign_trace, verify_trace)``; ``nonces`` feeds the signing.
    """
    sign_fn, verify_fn = _SCHEMES[scheme]
    sign_trace, verify_trace = Trace(), Trace()
    sig = sign_fn(message, keypair, nonces, sign_trace)
    if not verify_fn(message, sig, keypair.q, keypair.config, verify_trace):
        raise AssertionError("genuine signature failed to verify")
    return sign_trace, verify_trace


def formula_sig_bits(scheme: str, orders: "list[int]", tight: bool = False) -> int:
    """Scalar payload bound in bits for a curve set, by the length formulas."""
    _check_scheme(scheme)
    lengths = [n.bit_length() for n in orders]
    if scheme == "t-ecdsa":
        return 2 * sum(lengths)
    t = len(lengths)
    slack = (t - 1).bit_length() if tight else t - 1
    return max(lengths) + slack + sum(lengths)


# Formula bounds vs measured minimal payloads, in bits.
LengthReport = namedtuple(
    "LengthReport",
    "t mecdsa_formula_bits mecdsa_tight_bits tecdsa_formula_bits"
    " mecdsa_measured_mean mecdsa_measured_max"
    " tecdsa_measured_mean tecdsa_measured_max",
)


def _payload_bits(sig: MultiSignature) -> int:
    return sig.r.bit_length() + sum(s.bit_length() for s in sig.s)


def signature_length_report(
    config: MultiCurveConfig, samples: int = 100, seed: int = 0
) -> LengthReport:
    """Measure minimal payload sizes over random signatures.

    Measured payloads are the bit lengths of the scalars themselves
    (headers and byte padding excluded), which is what the formulas
    bound.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = SeededNonceSource(seed)
    keypair = mkeygen(config, rng)
    m_bits, b_bits = [], []
    msg_rng = random.Random(seed ^ 0x5BD1E995)
    for _ in range(samples):
        message = msg_rng.randbytes(64)
        m_bits.append(_payload_bits(msign(message, keypair, rng)))
        pairs = t_ecdsa_sign(message, keypair, rng)
        b_bits.append(sum(_payload_bits(p) for p in pairs))
    orders = [c.n for c in config.curves]
    return LengthReport(
        t=config.t,
        mecdsa_formula_bits=formula_sig_bits("mecdsa", orders),
        mecdsa_tight_bits=formula_sig_bits("mecdsa", orders, tight=True),
        tecdsa_formula_bits=formula_sig_bits("t-ecdsa", orders),
        mecdsa_measured_mean=sum(m_bits) / samples,
        mecdsa_measured_max=max(m_bits),
        tecdsa_measured_mean=sum(b_bits) / samples,
        tecdsa_measured_max=max(b_bits),
    )


class CostReport(namedtuple("CostReport", "scheme phase counted predicted retried")):
    """One scheme x phase cell of the comparison."""

    __slots__ = ()

    @property
    def counts_match(self) -> bool:
        return self.counted == self.predicted


def cost_reports(config: MultiCurveConfig, seed: int = 0) -> "list[CostReport]":
    """Count all four scheme x phase cells.

    The keypair, the message and each scheme's nonces are drawn from the
    seed.  Each scheme is signed once, and its verify cell counts the
    check of that very signature, so the counts repeat exactly across
    runs.
    """
    keypair = mkeygen(config, SeededNonceSource(seed + 1))
    message = random.Random(seed).randbytes(64)
    reports = []
    for scheme in _SCHEMES:
        traces = measure_counts(scheme, keypair, message, SeededNonceSource(seed + 2))
        for phase, trace in zip(("sign", "verify"), traces):
            reports.append(
                CostReport(
                    scheme=scheme,
                    phase=phase,
                    counted=trace.counts,
                    predicted=predicted_counts(scheme, phase, config.t),
                    retried=trace.retried,
                )
            )
    return reports


def format_report_table(reports: "list[CostReport]", lengths: LengthReport) -> str:
    """Human-readable comparison table, one row per scheme x phase, then
    the signature lengths."""
    header = (
        f"{'scheme':<9} {'phase':<7} {'Fp.add':>6} {'Fp.mul':>6} {'Fp.inv':>6} "
        f"{'EC.add':>6} {'EC.mul':>6} {'match':>6}"
    )
    lines = [header, "-" * len(header)]
    for rep in reports:
        c = rep.counted
        lines.append(
            f"{rep.scheme:<9} {rep.phase:<7} {c.field_add:>6} {c.field_mul:>6} "
            f"{c.field_inv:>6} {c.ec_add:>6} {c.ec_mul:>6} "
            f"{'yes' if rep.counts_match else 'NO':>6}"
        )
    lines.append("")
    lines.append(
        f"signature payload bits (t={lengths.t}): "
        f"mecdsa formula={lengths.mecdsa_formula_bits} "
        f"tight={lengths.mecdsa_tight_bits} "
        f"measured mean={lengths.mecdsa_measured_mean:.1f} "
        f"max={lengths.mecdsa_measured_max}"
    )
    lines.append(
        f"{'':>29}t-ecdsa formula={lengths.tecdsa_formula_bits} "
        f"measured mean={lengths.tecdsa_measured_mean:.1f} "
        f"max={lengths.tecdsa_measured_max}"
    )
    return "\n".join(lines)


def report_kv_lines(reports: "list[CostReport]", lengths: LengthReport) -> str:
    """Machine-readable key = value mirror of the table."""
    lines = []
    for rep in reports:
        prefix = f"{rep.scheme}.{rep.phase}"
        for kind in ("counted", "predicted"):
            for key, value in vars(getattr(rep, kind)).items():
                lines.append(f"{prefix}.{kind}.{key} = {value}")
        lines.append(f"{prefix}.match = {'true' if rep.counts_match else 'false'}")
        lines.append(f"{prefix}.retried = {'true' if rep.retried else 'false'}")
    lines.append(f"length.t = {lengths.t}")
    lines.append(f"length.mecdsa.formula_bits = {lengths.mecdsa_formula_bits}")
    lines.append(f"length.mecdsa.tight_bits = {lengths.mecdsa_tight_bits}")
    lines.append(f"length.mecdsa.measured_mean_bits = {lengths.mecdsa_measured_mean:.2f}")
    lines.append(f"length.mecdsa.measured_max_bits = {lengths.mecdsa_measured_max}")
    lines.append(f"length.tecdsa.formula_bits = {lengths.tecdsa_formula_bits}")
    lines.append(f"length.tecdsa.measured_mean_bits = {lengths.tecdsa_measured_mean:.2f}")
    lines.append(f"length.tecdsa.measured_max_bits = {lengths.tecdsa_measured_max}")
    return "\n".join(lines)
