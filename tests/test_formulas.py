"""Each construction's Toffoli count against the closed form of its source.

One row per catalog entry that has a closed form: the formula, the source
it implements, and, where the code spends more than its source, why.  The
counting builds are cheap, so every row is checked over n = 2..1,024 and at
two larger powers of two.
"""
import pytest

from qarith import catalog
from qarith.circuit import CCX

SIZES = [*range(2, 1025), 4096, 8192]


def dkrs_toffolis(n: int) -> int:
    """Draper, Kutin, Rains & Svore 2004 (arXiv:quant-ph/0406142), in place.

    With M = n - 1 carries and L = floor(log2 M), one Brent-Kung tree makes
    2(M - w(M) - L) block-propagate CCX (its levels, computed and cleaned),
    M - w(M) generate-round CCX and M - 1 - L carry-round CCX.  Two trees
    and the 2M CCX of the generate bits give 10M - 6w(M) - 6L - 2, w(M) the
    Hamming weight.
    """
    m = n - 1
    return 10 * m - 6 * m.bit_count() - 6 * (m.bit_length() - 1) - 2


# (op class, algorithm, Toffolis at n, what the row says about its source)
ROWS = [
    ("inplace_adder", "DKRS", dkrs_toffolis, "as in the source"),
    ("outofplace_adder", "DKRS", dkrs_toffolis,
     "spends the in-place count: the carries go into an ancilla register "
     "and a second tree cleans them, where the source writes them into the "
     "sum with one tree"),
]


@pytest.mark.parametrize("op, algo, toffolis, source", ROWS,
                         ids=[f"{op}-{algo}" for op, algo, _, _ in ROWS])
def test_toffoli_count_is_the_closed_form(op, algo, toffolis, source):
    for n in SIZES:
        counts = catalog.build(op, algo, n, counting=True)
        assert counts.kinds.get(CCX, 0) == toffolis(n), (op, algo, n, source)


def test_dkrs_form_matches_recorded_builds_at_n_64():
    # 562 CCX, gate by gate, in both DKRS adders.
    for op in ("inplace_adder", "outofplace_adder"):
        gates = catalog.build(op, "DKRS", 64).gates
        assert sum(kind == CCX for kind, _, _ in gates) == dkrs_toffolis(64) == 562, op
