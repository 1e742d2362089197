"""Jordan profiles of order-p actions over the prime field F_p.

An endomorphism of a finite-dimensional F_p-vector space whose p-th power
is the identity has minimal polynomial dividing (X-1)^p, so it decomposes
into unipotent Jordan blocks N_q of sizes 1 <= q <= p.  The profile
(multiset of block sizes) is the complete isomorphism invariant of the
module.  Profiles are read from the kernel filtration L_k = ker (A - 1)^k,
grown by preimages in one elimination over F_p, rather than from an
explicit Jordan basis; only the counts matter.

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
    """Profile of the square A with these rows from L_k = {x : x B^k = 0}, B = A - 1 mod p.

    The blocks of size >= k number dim L_k - dim L_(k-1).  Each row [a | c]
    fills 2n slots of one intmat._packing and keeps a - c B in L, the part
    of the filtration found so far.  The seeds are [B_i | e_i]; each later
    round feeds the c's the round before found, a basis of L_k modulo
    L_(k-1), as [c | 0].  intmat._row_basis_mod_p keeps the rows with a
    pivot in the a half as its basis, from call to call, and hands back the
    rest, a = 0: then c B is in L_k, so c is in L_(k+1).

    The rows that enter are independent, the seeds by their c halves and
    the fed rows by their a halves, c's found before, and clearing keeps
    them so; with a = 0, the c's found are independent, those of a round
    modulo L_k.  The seeds hand back dim L_1 of them.  The kept a halves
    span Im B plus what was fed, so feeding a basis of L_k hands back
    dim Im B + dim L_k - dim(Im B + L_k) = dim(L_k & Im B) rows, & the
    intersection.  x -> x B maps L_(k+1) onto L_k & Im B with kernel L_1,
    so dim L_(k+1) = dim L_1 + dim(L_k & Im B): the c's found span L_(k+1).

    As (A - 1)^p = A^p - 1 mod p, A has order dividing p exactly when L_p
    is everything; a round that finds nothing new below n, or one past p,
    raises ValueError.  At most 2n rows enter, as residues, and the basis
    holds at most n, so the work is O(n^2) packed row operations whatever
    p is, nothing multiplied or unpacked, and slots stay below X = 4 n p^2.
    """
    n = len(rows)
    packing = _packing(p, 2 * n)
    bits = packing[0]
    top = n * bits
    fed = [r + (1 << top + i * bits) for i, r in enumerate(_pack_minus_one(rows, p, packing))]
    basis, found = [], []  # found[k - 1] = dim L_k - dim L_(k-1)
    while sum(found) < n:
        new = _row_basis_mod_p(fed, p, packing, basis, top) if len(found) < p else []
        if not new:
            raise ValueError("matrix is not of order dividing p over F_p")
        found.append(len(new))
        fed = [r >> top for r in new]
    found.append(0)
    return JordanProfile.from_counts(p, {q: found[q - 1] - found[q] for q in range(1, len(found))})


def jordan_profile(action: IntMatrix, p: int) -> JordanProfile:
    """Block-size counts of an integer matrix of order p, reduced mod p.

    The number of blocks of size >= q equals
    dim ker (A-1)^q - dim ker (A-1)^(q-1) over F_p.  Any prime is accepted;
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
