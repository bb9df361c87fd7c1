"""Operation tallies and execution traces, at algorithm-step granularity.

A tallied operation is one explicit step of the signing or verification
procedure: computing k*P is a single EC multiply no matter how many
doublings run inside the kernel, and kernel internals are never counted.
Verification's R = u*P + v*Q runs as one signed-window pass but is still
tallied as the paper's 2 EC multiplies and 1 EC add.  This is the only
granularity at which the cost-model predictions are reproducible, so it
is the only one offered.
"""

from dataclasses import dataclass, field


@dataclass
class OpCounts:
    """Field add/mul/inv and EC add/mul tallies for one execution."""

    field_add: int = 0
    field_mul: int = 0
    field_inv: int = 0
    ec_add: int = 0
    ec_mul: int = 0


@dataclass
class Trace:
    """Optional instrumentation carrier for sign/verify calls.

    Counts accumulate for every step actually executed, retried attempts
    included.  The per-curve lists hold the *final accepted* round only:
    for signing the nonces k_i, the points k_i*P_i and the residues r_i;
    for verification the recomputed points R_i and residues r'_i.

    Traces record secrets (nonces).  They exist for tests, diagnostics
    and the cost model — never hand one production data.
    """

    counts: OpCounts = field(default_factory=OpCounts)
    nonces: "list[int]" = field(default_factory=list)
    points: list = field(default_factory=list)
    r_values: "list[int]" = field(default_factory=list)
    retries: int = 0
    restarts: int = 0

    @property
    def retried(self) -> bool:
        """True when a nonce was redrawn or the whole round restarted."""
        return self.retries > 0 or self.restarts > 0
