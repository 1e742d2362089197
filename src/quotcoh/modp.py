"""The packed echelon elimination over F_p, and what only it serves.

One echelon elimination over F_p takes rows packed into one Python int
each and returns its basis packed the same way; it reduces a row mod p in
all its slots at once (Barrett's division by multiplication) and unpacks
nothing.  It gives ranks mod p (intmat.rank_mod_p), which count the
basis; kept across calls, the kernel filtration that Jordan profiles are
read from (profiles); and the two mod-p ranks of the closed-form summand
counts of an order-p Z[G]-lattice (_module_analysis, which lattices
calls).

The module imports nothing from the package, and the layers that use it
import it only where they call it, except profiles, which always does:
the K3 and Hilbert-scheme tables build no mod-p profile and check no
summand count, so a process that prints them never compiles this module.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:
    from .intmat import IntMatrix


# the unsigned machine word of each width, as array and memoryview name it
_MACHINE_WORDS = {memoryview(b"").cast(c).itemsize: c for c in "QIHB"}


def _packing(p: int, n: int) -> tuple[int, Callable, Callable]:
    """(slot bits, pack, reduce) for rows of n entries over F_p held as one int.

    Entry j of a row is slot j of the int, bits 8 w j to 8 w (j + 1), where
    w is the fewest bytes that hold every value below 2 X, X = 2 n p^2,
    rounded up to a machine word of 1, 2, 4 or 8 bytes where one is wide
    enough and the machine is little-endian, so that array packs the row
    in C.  X bounds every slot of _row_basis_mod_p: an incoming row is
    below n p^2, and each of at most n clearing steps adds less than p^2.
    pack takes entries below 2 X.  Lengths and byte orders are passed
    explicitly, as Python 3.10 has no defaults for them.

    reduce maps every slot below X to its residue mod p with a dozen int
    operations and no loop over entries, by Barrett's quotient
    q = floor(x M / 2^s) = floor(x / p), M = ceil(2^s / p), 2^s > X p: with
    M = (2^s + e) / p, 0 <= e < p, the error x e / (p 2^s) is below 1 / p.
    The even slots and the odd ones, shifted down, are multiplied by M
    apart, so each product x M has its empty neighbour slot as headroom.
    It fits there: the one spare bit gives X <= 2^(w' - 1) with w' = 8 w
    the slot width, and the least such s has 2^s <= 2 X p, so M <= 2 X
    and x M < 2 X^2 <= 2^(2 w' - 1); the quotient q < X / p fits its slot.
    """
    bound = 2 * n * p * p
    w = max(1, ((2 * bound - 1).bit_length() + 7) // 8)
    if w <= 8 and sys.byteorder == "little":
        from array import array  # loaded by the first elimination, not at start-up

        w = 1 << (w - 1).bit_length()
        code = _MACHINE_WORDS[w]

        def pack(row):
            return int.from_bytes(array(code, row).tobytes(), "little")
    else:
        def pack(row):
            return int.from_bytes(b"".join([x.to_bytes(w, "little") for x in row]), "little")

    bits = 8 * w
    s = (bound * p).bit_length()
    m = -(-(1 << s) // p)
    # a 1 at the foot of each pair of slots, the last one alone for odd n
    feet = int.from_bytes((b"\1" + bytes(2 * w - 1)) * ((n + 1) // 2), "little")
    even, high = feet * ((1 << bits) - 1), feet * ((1 << 2 * bits) - (1 << s))

    def reduce(r):
        q = (r & even) * m & high | ((r >> bits & even) * m & high) << bits
        return r - p * (q >> s)

    return bits, pack, reduce


def _pack_minus_one(rows: Sequence[Sequence[int]], p: int, packing: tuple) -> list[int]:
    """The rows of A - 1, for the square A with these rows, packed by
    `packing` with a residue in every slot: slot i of row i holds
    (x_ii - 1) mod p."""
    bits, pack = packing[0], packing[1]
    return [pack([x % p for x in row]) + (((row[i] - 1) % p - row[i] % p) << i * bits)
            for i, row in enumerate(rows)]


def _row_basis_mod_p(rows: Iterable[int], p: int, packing: tuple,
                     basis: list | None = None, top: int | None = None) -> list[int]:
    """Echelon basis over F_p of the span of `rows`, packed by `packing`.

    Each row is an int of n slots of `packing`, _packing(p, n), every slot
    below n p^2, and so is each row of the basis returned, monic, with a
    residue in every slot.  Each incoming row is cleared at the leading
    columns of the basis so far, in order, and kept, made monic, if anything
    is left; a basis row is zero left of its leading column and at the
    leading columns before it.  With `top`, only a row left nonzero below
    bit `top` is kept, in `basis`, the (shift of the leading slot, monic
    row) pairs that each call extends, so one elimination can take its rows
    over several calls; the call returns the other nonzero rows, reduced,
    instead of the basis.

    A clearing step is one product and one sum of ints, r + (p - f) b, with
    nothing reduced: p - f > 0 and b's slots are residues, so every slot
    stays non-negative and below X = 2 n p^2, and slot lead of the sum is
    f + (p - f) = 0 mod p.  One reduce then takes each cleared row to its
    residues (exact below X, as a slot of w bits has X <= 2^(w - 1), so
    every Barrett product x M < 2^(2 w) stays in its pair of slots), so
    the row is zero when the int is, its leading slot is read off its
    lowest set bit, and it is made monic by one more reduce, of products
    of two residues.  Nothing is unpacked.
    """
    bits, _, reduce = packing
    mask = (1 << bits) - 1
    low = -1 if top is None else (1 << top) - 1
    basis = [] if basis is None else basis
    rest = []
    for r in rows:
        if not r:
            continue
        for shift, b in basis:
            f = (r >> shift & mask) % p
            if f:
                r += (p - f) * b
        r = reduce(r)
        if r & low:
            shift = ((r & -r).bit_length() - 1) // bits * bits
            pivot = r >> shift & mask
            if pivot != 1:
                r = reduce(r * pow(pivot, -1, p))
            basis.append((shift, r))
        elif r:
            rest.append(r)
    return rest if top is not None else [b for _, b in basis]


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
