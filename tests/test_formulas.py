"""Each construction's Toffoli count and width against the closed form of
its source.

One row per catalog entry that has a closed form: the formulas, the source
it implements, and, where the code spends more than its source, why.  The
counting builds are cheap, so every row is checked over n = 1..1,024 and at
two larger powers of two; the QFT adder's rotations, a quadratic count, are
checked on a sparse grid.
"""
import pytest

from qarith import catalog
from qarith.adders import cla_bp_count
from qarith.circuit import CCX, CPHASE, RZ

SIZES = [*range(1, 1025), 4096, 8192]


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


# (op class, algorithm, Toffolis at n, qubits at n, sizes, what the row
# says about its source)
ROWS = [
    ("inplace_adder", "Gidney", lambda n: 2 * n - 2, lambda n: 3 * n - 1, SIZES,
     "Gidney 2018 (arXiv:1709.06648): n - 1 temporary-AND carries; the "
     "source uncomputes them by measurement, this unitary library by a "
     "second Toffoli each"),
    ("inplace_adder", "TTK", lambda n: 2 * n - 2, lambda n: 2 * n, SIZES,
     "Takahashi, Tani & Kunihiro 2010 (arXiv:0910.2530), no ancilla, as in "
     "the source's sum mod 2^n"),
    ("inplace_adder", "CDKM", lambda n: 2 * n, lambda n: 2 * n + 1, SIZES,
     "Cuccaro, Draper, Kutin & Moulton 2004 (arXiv:quant-ph/0410184), one "
     "ancilla; spends two Toffolis more than the source's sum mod 2^n: the "
     "top MAJ computes the carry out of bit n - 1 and the top UMA uncomputes "
     "it, where two CNOTs would do"),
    ("inplace_adder", "DKRS", dkrs_toffolis,
     lambda n: 3 * n - 1 + cla_bp_count(n), SIZES[1:], "as in the source"),
    ("outofplace_adder", "Gidney", lambda n: n - 1, lambda n: 3 * n, SIZES,
     "Gidney 2018 (arXiv:1709.06648): one Toffoli per carry, the carries "
     "rippling through the sum register itself, so no ancilla"),
    ("outofplace_adder", "DKRS", dkrs_toffolis,
     lambda n: 4 * n - 1 + cla_bp_count(n), SIZES[1:],
     "spends the in-place count: the carries go into an ancilla register "
     "and a second tree cleans them, where the source writes them into the "
     "sum with one tree"),
    ("multiplier", "Schoolbook", lambda n: 4 * n * n, lambda n: 6 * n, SIZES,
     "shift-and-add: for each bit of a, the partial product is computed and "
     "uncomputed by n Toffolis each and added by the (n + 1)-bit Gidney "
     "accumulator (2n Toffolis, n carries)"),
]


@pytest.mark.parametrize("op, algo, toffolis, qubits, sizes, source", ROWS,
                         ids=[f"{row[0]}-{row[1]}" for row in ROWS])
def test_toffoli_count_is_the_closed_form(op, algo, toffolis, qubits, sizes, source):
    for n in sizes:
        counts = catalog.build(op, algo, n, counting=True)
        assert (counts.kinds.get(CCX, 0), counts.num_qubits) == (toffolis(n), qubits(n)), \
            (op, algo, n, source)


def test_qft_adder_rotation_count_is_the_closed_form():
    # Draper 2000 (arXiv:quant-ph/0008033): a QFT and its inverse, n(n - 1)/2
    # controlled rotations each, around n(n + 1)/2 phase rotations, on the
    # 2n data qubits alone.  Every rotation is kept however small its angle.
    for n in [*range(1, 17), 64, 255, 1024, 1025, 4096]:
        counts = catalog.build("inplace_adder", "QFT", n, counting=True)
        assert (counts.kinds.get(CPHASE, 0), counts.kinds.get(RZ, 0), counts.num_qubits) \
            == (n * (n - 1) + n * (n + 1) // 2, 0, 2 * n), n


def test_dkrs_form_matches_recorded_builds_at_n_64():
    # 562 CCX, gate by gate, in both DKRS adders.
    for op in ("inplace_adder", "outofplace_adder"):
        gates = catalog.build(op, "DKRS", 64).gates
        assert sum(kind == CCX for kind, _, _ in gates) == dkrs_toffolis(64) == 562, op
