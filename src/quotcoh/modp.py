"""What only the F_p rows of an action serve: A - 1 packed, and the
summand counts.

The packed echelon elimination is intmat's (_packing, _row_basis_mod_p),
over Z/m for any m > 1, which it also runs for discriminant groups.  At a
prime it gives, from the rows of A - 1 that _pack_minus_one packs, and
kept across calls, the kernel filtration that Jordan profiles are read
from (profiles), and, with the packed norm map, the two mod-p ranks of
the closed-form summand counts of an order-p Z[G]-lattice
(_module_analysis, which lattices calls).

The layers that use this module import it only where they call it,
except profiles, which always does: the K3 and Hilbert-scheme tables
build no mod-p profile and check no summand count, so a process that
prints them never compiles this module.
"""

from __future__ import annotations

from typing import Sequence

from .intmat import IntMatrix, _packing, _row_basis_mod_p


def _pack_minus_one(rows: Sequence[Sequence[int]], p: int, packing: tuple) -> list[int]:
    """The rows of A - 1, for the square A with these rows, packed by
    `packing` with a residue in every slot: slot i of row i holds
    (x_ii - 1) mod p."""
    bits, pack = packing[0], packing[1]
    return [pack([x % p for x in row]) + (((row[i] - 1) % p - row[i] % p) << i * bits)
            for i, row in enumerate(rows)]


def _module_analysis(action: IntMatrix, sigma: IntMatrix, p: int) -> tuple[int, int, int]:
    """Summand counts (l_plus, l_minus, l_p) of Z^n under an action A with
    A^p = 1 over Z and norm map sigma = 1 + A + ... + A^(p-1), in closed
    form from tr A and rank_p(sigma); no invariant form is needed.
    lattices hands them out as its BNSInvariants record.

    The preconditions are the caller's: lattices' GLattice and
    curtis_reiner_check check that p is prime and A square, and establish
    A^p = 1 by intmat.norm_map, whose sigma they pass, hence the
    underscore.  By
    Diederichsen-Reiner (Curtis-Reiner, Methods of Representation Theory I,
    section 34) Z^n is then a sum of trivial summands Z, ideals of Z[zeta]
    and locally free summands, which reduce mod p to N_1, N_(p-1) and N_p.
    Their ranks are 1, p - 1 and p, their traces 1, -1 and 0, and sigma,
    which is (A - 1)^(p-1) mod p, has rank 0, 0 and 1 on them.  So
    n - tr A = p (l_minus + l_p), l_p = rank_p(sigma),
    l_minus = (n - tr A)/p - l_p and l_plus = tr A + l_minus.

    At odd p a second mod-p elimination checks the counts:
    rank_p(A - 1) = (p - 2) l_minus + (p - 1) l_p, as A - 1 has rank 0,
    p - 2 and p - 1 on N_1, N_(p-1) and N_p.  A disagreement raises
    ValueError, as do n - tr A not divisible by p and a negative count.
    At p = 2, sigma = A + 1 is A - 1 mod 2, so the check would read
    rank_2(sigma) = l_p again and is skipped; the trace alone tells Z
    from Z^-.  The checks are consequences of A^p = 1, not a test of it:
    [[1, 2], [0, 1]] at p = 2 passes them as Z^2, and [[-1, 2], [0, -1]],
    of infinite order, as (Z^-)^2.
    """
    n = action.nrows
    trace = sum(row[i] for i, row in enumerate(action.rows))
    packing = _packing(p, n)
    pack = packing[1]
    l_p = len(_row_basis_mod_p([pack([x % p for x in row]) for row in sigma.rows], p, packing))
    free_and_cyclotomic, rest = divmod(n - trace, p)
    l_minus = free_and_cyclotomic - l_p
    l_plus = trace + l_minus
    if rest or l_minus < 0 or l_plus < 0:
        raise ValueError(
            f"rank bookkeeping failed: n = {n}, tr A = {trace} and rank_p(sigma) = {l_p} "
            f"give no order-{p} summand counts"
        )
    if p > 2:
        rank_p = len(_row_basis_mod_p(_pack_minus_one(action.rows, p, packing), p, packing))
        expected = (p - 2) * l_minus + (p - 1) * l_p
        if rank_p != expected:
            raise ValueError(
                f"rank {rank_p} of A - 1 mod {p} disagrees with "
                f"(p - 2) l_minus + (p - 1) l_p = {expected}"
            )
    return l_plus, l_minus, l_p
