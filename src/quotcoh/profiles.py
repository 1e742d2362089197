"""Jordan profiles of order-p actions over the prime field F_p.

An endomorphism of a finite-dimensional F_p-vector space whose p-th power
is the identity has minimal polynomial dividing (X-1)^p, so it decomposes
into unipotent Jordan blocks N_q of sizes 1 <= q <= p.  The profile
(multiset of block sizes) is the complete isomorphism invariant of the
module.  Profiles are extracted from the rank filtration of (A - 1)^k
rather than from an explicit Jordan basis; only the counts matter.

The one piece of module algebra kept here is Sym^k of a permutation
module N_1^r + N_p^s, in closed form: G permutes the size-k multisets of
the basis, and each orbit is fixed or free.  The general algebra (tensor
products by Green's formula, symmetric powers of any profile, the dense
Sym^k matrix) is the tests' oracle, in tests/reference.py.  The
Hilbert-scheme front end needs none of it: its modules are permutation
modules, whose summands it counts directly.

Everything here is over F_p.  The summand counts of an order-p action over
Z, which tell the trivial Z from the cyclotomic Z^- at p = 2, where both
reduce to N_1, are lattices._module_analysis: a closed form in the trace,
which sees that difference, and rank_p(sigma), which counts the N_p
blocks; the profile is their test oracle.
"""

from __future__ import annotations

import operator
from math import comb
from typing import Mapping, Sequence

from .intmat import IntMatrix, _Frozen, _pack_minus_one, _packing, _row_basis_mod_p, is_prime


class JordanProfile(_Frozen):
    """Multiset of Jordan block sizes of an order-p action mod p.

    blocks is a sorted tuple of (size, count) pairs with positive counts.
    """

    __slots__ = ("p", "blocks")

    def __init__(self, p: int, blocks: tuple[tuple[int, int], ...]):
        blocks = tuple((operator.index(q), operator.index(c)) for q, c in blocks)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        for q, c in blocks:
            if not (1 <= q <= p):
                raise ValueError(f"block size {q} outside 1..{p}")
            if c <= 0:
                raise ValueError("block counts must be positive")
        if tuple(sorted(blocks)) != blocks:
            raise ValueError("blocks must be sorted")
        if len({q for q, _ in blocks}) != len(blocks):
            raise ValueError("duplicate block size")
        _Frozen.__init__(self, p, blocks)

    @classmethod
    def from_counts(cls, p: int, counts: Mapping[int, int]) -> "JordanProfile":
        blocks = tuple(sorted((q, c) for q, c in counts.items() if c))
        return cls(p, blocks)

    def count(self, q: int) -> int:
        return dict(self.blocks).get(q, 0)

    def dimension(self) -> int:
        return sum(q * c for q, c in self.blocks)

    def __repr__(self) -> str:
        inside = " + ".join(f"N{q}^{c}" if c > 1 else f"N{q}" for q, c in self.blocks)
        return f"JordanProfile(p={self.p}, {inside or '0'})"


def _profile_from_rows(rows: Sequence[Sequence[int]], p: int) -> JordanProfile:
    """Profile of the square matrix A with these rows, from the ranks of (A - 1)^k mod p.

    With B = A - 1 and E_k an echelon basis of rowspace(B^k), rowspace(B^(k+1))
    is rowspace(E_k B), so round k multiplies only rank(B^k) rows.  The ranks
    strictly decrease until they reach 0 or stall, within n + 1 rounds.  In
    characteristic p, (A - 1)^p = A^p - 1, as C(p, i) = 0 for 0 < i < p, so A
    has order dividing p exactly when the ranks reach 0 within p rounds.

    B's rows are packed once, by one intmat._packing that serves every
    round, with residues in every slot (intmat._pack_minus_one), and e B is
    the int sum_i e_i packed(B_i), unreduced: e's entries and B's slots are
    residues, so each slot stays below n p^2, and the products go back into
    intmat._row_basis_mod_p as they are.  There a clearing step adds less
    than p^2 to a slot, at most n times, so every slot stays below the
    X = 2 n p^2 that the packing's reduce takes to residues exactly: a slot
    of w bits has X <= 2^(w - 1), so each Barrett product x M < 2^(2 w)
    stays in its pair of slots.  The basis comes back packed, and each of
    its rows is unpacked once, for the entries e_i of its product.
    """
    n = len(rows)
    packing = _packing(p, n)
    unpack = packing[2]
    b = _pack_minus_one(rows, p, packing)
    ranks, span = [n], b
    while ranks[-1]:
        basis = _row_basis_mod_p(span, p, packing)
        ranks.append(len(basis))
        # a rank that repeats above 0 never falls again, and one above 0 at
        # k >= p is past the p-th power: either way B^p != 0
        if ranks[-1] == ranks[-2] or (ranks[-1] and len(ranks) > p):
            raise ValueError("matrix is not of order dividing p over F_p")
        span = [sum(x * row for x, row in zip(unpack(e), b) if x) for e in basis]
    ranks.append(0)
    # blocks of size >= q number ranks[q-1] - ranks[q]
    counts = {
        q: ranks[q - 1] - 2 * ranks[q] + ranks[q + 1] for q in range(1, len(ranks) - 1)
    }
    return JordanProfile.from_counts(p, counts)


def jordan_profile(action: IntMatrix, p: int) -> JordanProfile:
    """Block-size counts of an integer matrix of order p, reduced mod p.

    The number of blocks of size >= q equals
    rank((A-1)^(q-1)) - rank((A-1)^q) over F_p.  Any prime is accepted;
    a matrix with A^p != 1 mod p raises ValueError.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not action.is_square():
        raise ValueError("action must be square")
    return _profile_from_rows(action.rows, p)


def sym_power(a: JordanProfile, k: int) -> JordanProfile:
    """Profile of the k-th symmetric power of a permutation module N_1^r + N_p^s.

    G permutes the size-k multisets of the module's basis, and as p is
    prime each orbit is fixed or free.  A multiset is fixed when it gives
    the p vectors of each free orbit one multiplicity, so the fixed ones
    number F = [t^k] (1 - t)^-r (1 - t^p)^-s, and
    Sym^k = N_1^F + N_p^((C(r + p s + k - 1, k) - F) / p).  A block of any
    other size, or k < 0, raises ValueError.
    """
    p = a.p
    if any(q not in (1, p) for q, _ in a.blocks):
        raise ValueError(f"{a} is not a permutation module N_1^r + N_{p}^s")
    if k < 0:
        raise ValueError("negative symmetric power")
    r, s = a.count(1), a.count(p)
    fixed = [1] + [0] * k
    for step in (1,) * r + (p,) * s:
        # times 1/(1 - t^step)
        for j in range(step, k + 1):
            fixed[j] += fixed[j - step]
    n = r + p * s
    total = comb(n + k - 1, k) if n + k else 1
    return JordanProfile.from_counts(p, {1: fixed[k], p: (total - fixed[k]) // p})
