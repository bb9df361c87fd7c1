"""Operation tallies and execution traces, at algorithm-step granularity.

A tallied operation is one explicit step of the signing or verification
procedure: computing k*P is a single EC multiply no matter how many
doublings run inside the kernel, and kernel internals are never counted.
Verification's R = u*P + v*Q runs as one signed-window pass but is still
tallied as the paper's 2 EC multiplies and 1 EC add.  This is the only
granularity at which the cost-model predictions are reproducible, so it
is the only one offered.
"""


class OpCounts:
    """Field add/mul/inv and EC add/mul tallies for one execution."""

    def __init__(self, field_add=0, field_mul=0, field_inv=0, ec_add=0, ec_mul=0):
        self.field_add = field_add
        self.field_mul = field_mul
        self.field_inv = field_inv
        self.ec_add = ec_add
        self.ec_mul = ec_mul

    def __eq__(self, other):
        return isinstance(other, OpCounts) and vars(self) == vars(other)

    def __repr__(self):
        tallies = ", ".join(f"{key}={value}" for key, value in vars(self).items())
        return f"OpCounts({tallies})"


class Trace:
    """Optional instrumentation carrier for sign/verify calls.

    Counts accumulate for every step actually executed, retried attempts
    included.  The per-curve lists hold the *final accepted* round only:
    for signing the nonces k_i, the points k_i*P_i and the residues r_i;
    for verification the recomputed points R_i and residues r'_i.

    Traces record secrets (nonces).  They exist for tests, diagnostics
    and the cost model — never hand one production data.
    """

    def __init__(self):
        self.counts = OpCounts()
        self.nonces: "list[int]" = []
        self.points: list = []
        self.r_values: "list[int]" = []
        self.retries = 0
        self.restarts = 0

    @property
    def retried(self) -> bool:
        """True when a nonce was redrawn or the whole round restarted."""
        return self.retries > 0 or self.restarts > 0
