"""Cost-model report: predicted vs measured operation counts and signature
length accounting.

Counting granularity is the algorithm step (see ``mecdsa.opcount``); the
per-execution predictions for t curves are

    scheme    phase    Fp.add  Fp.mul  Fp.inv  EC.add  EC.mul
    t-ecdsa   sign       t       2t      t       0       t
    t-ecdsa   verify     0       2t      t       t       2t
    mecdsa    sign      2t-1     2t      t       0       t
    mecdsa    verify    t-1      2t      t       t       2t

and the scalar payload bounds in bits are 2*sum(l(n_i)) for t-ecdsa
versus max(l(n_i)) + t - 1 + sum(l(n_i)) for mecdsa, where l(n) is the
bit length of the order.  The t - 1 slack on the shared r is generous;
the tight variant replaces it with ceil(log2 t) and is reported too,
without changing any wire format.

Retried runs are reported with their actual (elevated) counts and a retry
flag, never silently dropped.
"""

import random
from dataclasses import asdict, dataclass

from mecdsa import multi
from mecdsa.ecdsa import NonceSource, SeededNonceSource
from mecdsa.multi import MultiCurveConfig, MultiCurveKeypair, mkeygen
from mecdsa.opcount import OpCounts, Trace

SCHEMES = ("mecdsa", "t-ecdsa")
PHASES = ("sign", "verify")


def _check_scheme_phase(scheme: str, phase: str):
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")


def predicted_counts(scheme: str, phase: str, t: int) -> OpCounts:
    """Per-execution operation counts predicted by the cost model."""
    _check_scheme_phase(scheme, phase)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if phase == "sign":
        adds = 2 * t - 1 if scheme == "mecdsa" else t
        return OpCounts(adds, 2 * t, t, 0, t)
    adds = t - 1 if scheme == "mecdsa" else 0
    return OpCounts(adds, 2 * t, t, t, 2 * t)


def measure_counts(
    scheme: str,
    phase: str,
    config: MultiCurveConfig,
    keypair: MultiCurveKeypair,
    message: bytes,
    nonces: NonceSource,
) -> Trace:
    """Run one sign or verify with counting instrumentation and return its
    trace.

    ``nonces`` feeds the signing side; for the verify phase the signature
    is produced first without instrumentation, then verified with it.
    """
    _check_scheme_phase(scheme, phase)
    if scheme == "mecdsa":
        sign_fn, verify_fn = multi.msign, multi.mverify
    else:
        sign_fn, verify_fn = multi.t_ecdsa_sign, multi.t_ecdsa_verify
    trace = Trace()
    if phase == "sign":
        sign_fn(message, keypair, nonces, trace)
    else:
        sig = sign_fn(message, keypair, nonces)
        ok = verify_fn(message, sig, keypair.q, config, trace)
        if not ok:
            raise AssertionError("genuine signature failed to verify")
    return trace


def ceil_log2(t: int) -> int:
    if t < 1:
        raise ValueError("t must be >= 1")
    return (t - 1).bit_length()


def formula_sig_bits(scheme: str, orders: "list[int]", tight: bool = False) -> int:
    """Scalar payload bound in bits for a curve set, by the length formulas."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    lengths = [n.bit_length() for n in orders]
    if scheme == "t-ecdsa":
        return 2 * sum(lengths)
    slack = ceil_log2(len(lengths)) if tight else len(lengths) - 1
    return max(lengths) + slack + sum(lengths)


@dataclass
class LengthReport:
    """Formula bounds vs measured minimal payloads, in bits."""

    t: int
    samples: int
    mecdsa_formula_bits: int
    mecdsa_tight_bits: int
    tecdsa_formula_bits: int
    mecdsa_measured_mean: float = 0.0
    mecdsa_measured_max: int = 0
    tecdsa_measured_mean: float = 0.0
    tecdsa_measured_max: int = 0


def _multisig_payload_bits(sig: multi.MultiSignature) -> int:
    return sig.r.bit_length() + sum(s.bit_length() for s in sig.s)


def _tecdsa_payload_bits(sig: multi.TEcdsaSignature) -> int:
    return sum(p.r.bit_length() + p.s.bit_length() for p in sig.pairs)


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
    orders = [c.n for c in config.curves]
    report = LengthReport(
        t=config.t,
        samples=samples,
        mecdsa_formula_bits=formula_sig_bits("mecdsa", orders),
        mecdsa_tight_bits=formula_sig_bits("mecdsa", orders, tight=True),
        tecdsa_formula_bits=formula_sig_bits("t-ecdsa", orders),
    )
    rng = SeededNonceSource(seed)
    keypair = mkeygen(config, rng)
    m_bits, b_bits = [], []
    msg_rng = random.Random(seed ^ 0x5BD1E995)
    for _ in range(samples):
        message = msg_rng.randbytes(64)
        m_bits.append(_multisig_payload_bits(multi.msign(message, keypair, rng)))
        b_bits.append(_tecdsa_payload_bits(multi.t_ecdsa_sign(message, keypair, rng)))
    report.mecdsa_measured_mean = sum(m_bits) / len(m_bits)
    report.mecdsa_measured_max = max(m_bits)
    report.tecdsa_measured_mean = sum(b_bits) / len(b_bits)
    report.tecdsa_measured_max = max(b_bits)
    return report


@dataclass
class CostReport:
    """One scheme x phase cell of the comparison."""

    scheme: str
    phase: str
    counted: OpCounts
    predicted: OpCounts
    retried: bool
    lengths: LengthReport

    @property
    def counts_match(self) -> bool:
        return self.counted == self.predicted


def cost_reports(
    config: MultiCurveConfig, seed: int = 0, length_samples: int = 100
) -> "list[CostReport]":
    """Count all four scheme x phase cells.

    The keypair, the message and each cell's nonces are drawn from the
    seed, and every cell gets a fresh nonce source, so the verify cells
    check the signatures the sign cells counted and the counts repeat
    exactly across runs.
    """
    lengths = signature_length_report(config, samples=length_samples, seed=seed)
    keypair = mkeygen(config, SeededNonceSource(seed + 1))
    message = random.Random(seed).randbytes(64)
    reports = []
    for scheme in SCHEMES:
        for phase in PHASES:
            trace = measure_counts(
                scheme, phase, config, keypair, message, SeededNonceSource(seed + 2)
            )
            reports.append(
                CostReport(
                    scheme=scheme,
                    phase=phase,
                    counted=trace.counts,
                    predicted=predicted_counts(scheme, phase, config.t),
                    retried=trace.retried,
                    lengths=lengths,
                )
            )
    return reports


def format_report_table(reports: "list[CostReport]") -> str:
    """Human-readable comparison table, one row per scheme x phase."""
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
    if reports:
        ln = reports[0].lengths
        lines.append("")
        lines.append(
            f"signature payload bits (t={ln.t}): "
            f"mecdsa formula={ln.mecdsa_formula_bits} tight={ln.mecdsa_tight_bits} "
            f"measured mean={ln.mecdsa_measured_mean:.1f} max={ln.mecdsa_measured_max}"
        )
        lines.append(
            f"{'':>29}t-ecdsa formula={ln.tecdsa_formula_bits} "
            f"measured mean={ln.tecdsa_measured_mean:.1f} max={ln.tecdsa_measured_max}"
        )
    return "\n".join(lines)


def report_kv_lines(reports: "list[CostReport]") -> str:
    """Machine-readable key = value mirror of the table."""
    lines = []
    for rep in reports:
        prefix = f"{rep.scheme}.{rep.phase}"
        for key, value in asdict(rep.counted).items():
            lines.append(f"{prefix}.counted.{key} = {value}")
        for key, value in asdict(rep.predicted).items():
            lines.append(f"{prefix}.predicted.{key} = {value}")
        lines.append(f"{prefix}.match = {'true' if rep.counts_match else 'false'}")
        lines.append(f"{prefix}.retried = {'true' if rep.retried else 'false'}")
    if reports:
        ln = reports[0].lengths
        lines.append(f"length.t = {ln.t}")
        lines.append(f"length.mecdsa.formula_bits = {ln.mecdsa_formula_bits}")
        lines.append(f"length.mecdsa.tight_bits = {ln.mecdsa_tight_bits}")
        lines.append(f"length.mecdsa.measured_mean_bits = {ln.mecdsa_measured_mean:.2f}")
        lines.append(f"length.mecdsa.measured_max_bits = {ln.mecdsa_measured_max}")
        lines.append(f"length.tecdsa.formula_bits = {ln.tecdsa_formula_bits}")
        lines.append(f"length.tecdsa.measured_mean_bits = {ln.tecdsa_measured_mean:.2f}")
        lines.append(f"length.tecdsa.measured_max_bits = {ln.tecdsa_measured_max}")
    return "\n".join(lines)
