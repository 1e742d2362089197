"""Jordan profiles of order-p actions over the prime field F_p.

An endomorphism of a finite-dimensional F_p-vector space whose p-th power
is the identity has minimal polynomial dividing (X-1)^p, so it decomposes
into unipotent Jordan blocks N_q of sizes 1 <= q <= p.  The profile
(multiset of block sizes) is the complete isomorphism invariant of the
module, and it is all that is needed downstream: cohomology dimensions of
the group acting, tensor products, symmetric powers.

Profiles are extracted from the rank filtration of (A - 1)^k rather than
from an explicit Jordan basis; only the counts matter.  Tensor products
of single blocks follow Green's formula, and symmetric powers of single
blocks use closed forms wherever a block is trivial (N_1) or free (N_p).
Only Sym^k of a middle block N_q, 2 <= q <= p-1, builds the induced
matrix on a representative unipotent block and re-extracts its profile.
Results are memoized per (p, block sizes, exponent), so concurrent
callers simply recompute the same pure value.  The Hilbert-scheme front
end needs none of this algebra: its modules are permutation modules,
whose summands it counts directly.

Everything here is over F_p.  The summand counts of an order-p action over
Z, which tell the trivial Z from the cyclotomic Z^- at p = 2, where both
reduce to N_1, are lattices._module_analysis: a closed form in the trace,
which sees that difference, and rank_p(sigma), which counts the N_p
blocks; the profile is their test oracle.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from typing import Mapping, Sequence

from .intmat import IntMatrix, _Frozen, _row_basis_mod_p, is_prime


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

    @classmethod
    def zero(cls, p: int) -> "JordanProfile":
        return cls(p, ())

    @classmethod
    def single(cls, p: int, q: int, count: int = 1) -> "JordanProfile":
        return cls.from_counts(p, {q: count})

    @property
    def counts(self) -> dict[int, int]:
        return dict(self.blocks)

    def count(self, q: int) -> int:
        return dict(self.blocks).get(q, 0)

    def dimension(self) -> int:
        return sum(q * c for q, c in self.blocks)

    def total_blocks(self) -> int:
        return sum(c for _, c in self.blocks)

    def __add__(self, other: "JordanProfile") -> "JordanProfile":
        return direct_sum(self, other)

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
    """
    n = len(rows)
    b = [[(x - (i == j)) % p for j, x in enumerate(row)] for i, row in enumerate(rows)]
    # e B = sum_i e_i B_i, along the nonzeros of e and of B's rows
    nonzeros = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    ranks, span = [n], b
    while ranks[-1]:
        span = _row_basis_mod_p(span, p)
        ranks.append(len(span))
        # a rank that repeats above 0 never falls again, and one above 0 at
        # k >= p is past the p-th power: either way B^p != 0
        if ranks[-1] == ranks[-2] or (ranks[-1] and len(ranks) > p):
            raise ValueError("matrix is not of order dividing p over F_p")
        products = []
        for e in span:
            image = [0] * n
            for x, terms in zip(e, nonzeros):
                if x:
                    for j, y in terms:
                        image[j] += x * y
            products.append(image)
        span = products
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


def cohomology_dim(prof: JordanProfile, i: int) -> int:
    """dim_F H^i(G, M) for the module M with the given profile.

    Every block contributes one dimension in degree 0; blocks of size < p
    contribute one dimension in every positive degree, the free blocks
    N_p contribute nothing there.
    """
    if i < 0:
        raise ValueError("negative degree")
    if i == 0:
        return prof.total_blocks()
    return sum(c for q, c in prof.blocks if q < prof.p)


def direct_sum(a: JordanProfile, b: JordanProfile) -> JordanProfile:
    if a.p != b.p:
        raise ValueError("profiles live over different primes")
    counts = a.counts
    for q, c in b.blocks:
        counts[q] = counts.get(q, 0) + c
    return JordanProfile.from_counts(a.p, counts)


def representative_matrix(prof: JordanProfile) -> IntMatrix:
    """Block-diagonal unipotent matrix with the given profile (canonical)."""
    blocks = []
    for q, c in prof.blocks:
        jb = IntMatrix([[1 if j == i or j == i + 1 else 0 for j in range(q)] for i in range(q)])
        blocks.extend([jb] * c)
    if not blocks:
        return IntMatrix([], ncols=0)
    return IntMatrix.block_diagonal(*blocks)


@lru_cache(maxsize=None)
def _tensor_single(p: int, r: int, s: int) -> JordanProfile:
    """N_r tensor N_s by Green's formula (Green 1962; Renaud, J. Algebra 58,
    1979): for r <= s it is the sum of N_(s-r+2i-1) over 1 <= i <= min(r, p-s)
    plus N_p^max(0, r+s-p); r = 1 gives N_s, s = p the free N_p^r."""
    r, s = min(r, s), max(r, s)
    counts = {s - r + 2 * i - 1: 1 for i in range(1, min(r, p - s) + 1)}
    counts[p] = max(0, r + s - p)
    return JordanProfile.from_counts(p, counts)


def tensor(a: JordanProfile, b: JordanProfile) -> JordanProfile:
    """Profile of the tensor product module (dimensions multiply)."""
    if a.p != b.p:
        raise ValueError("profiles live over different primes")
    counts: dict[int, int] = {}
    for q1, c1 in a.blocks:
        for q2, c2 in b.blocks:
            for q, c in _tensor_single(a.p, q1, q2).blocks:
                counts[q] = counts.get(q, 0) + c * c1 * c2
    return JordanProfile.from_counts(a.p, counts)


def sym_power_matrix(m: IntMatrix, k: int) -> IntMatrix:
    """Matrix of the induced action on degree-k monomials (exact, over Z).

    Basis: monomials e_{t_1}***e_{t_k} with t_1 <= ... <= t_k, ordered
    lexicographically.  Index t of the module maps to column t of m.
    """
    if not m.is_square():
        raise ValueError("symmetric powers need a square matrix")
    n = m.nrows
    basis = list(combinations_with_replacement(range(n), k))
    index = {mono: i for i, mono in enumerate(basis)}
    cols = [[(s, m[s, t]) for s in range(n) if m[s, t] != 0] for t in range(n)]
    out = [[0] * len(basis) for _ in range(len(basis))]
    for j, mono in enumerate(basis):
        acc: dict[tuple[int, ...], int] = {(): 1}
        for t in mono:
            nxt: dict[tuple[int, ...], int] = {}
            for partial, coeff in acc.items():
                for s, ms in cols[t]:
                    key = tuple(sorted(partial + (s,)))
                    nxt[key] = nxt.get(key, 0) + coeff * ms
            acc = nxt
        for mono_out, coeff in acc.items():
            if coeff:
                out[index[mono_out]][j] += coeff
    return IntMatrix(out, ncols=len(basis))


@lru_cache(maxsize=None)
def _sym_single(p: int, q: int, k: int) -> JordanProfile:
    if k == 0 or q == 1:
        return JordanProfile.single(p, 1)
    if k == 1:
        return JordanProfile.single(p, q)
    if q == p:
        # N_p = F[G] permutes its basis freely, so Sym^k permutes the size-k multisets;
        # only the uniform multiset (when p | k) is fixed, every other orbit is free
        fixed = 1 if k % p == 0 else 0
        return JordanProfile.from_counts(p, {1: fixed, p: (comb(p + k - 1, k) - fixed) // p})
    jb = representative_matrix(JordanProfile.single(p, q))
    sym = sym_power_matrix(jb, k)
    return _profile_from_rows(sym.rows, p)


@lru_cache(maxsize=None)
def _sym_profile(p: int, blocks: tuple[tuple[int, int], ...], k: int) -> JordanProfile:
    if k == 0:
        return JordanProfile.single(p, 1)
    if not blocks:
        return JordanProfile.zero(p)
    (q, c), rest = blocks[0], blocks[1:]
    total = JordanProfile.zero(p)
    if q == 1:
        # trivial blocks: Sym^j of N_1^c is trivial of dimension C(c+j-1, j)
        for j in range(k + 1):
            tail = _sym_profile(p, rest, k - j)
            total = total + tensor(JordanProfile.single(p, 1, comb(c + j - 1, j)), tail)
        return total
    head = ((q, c - 1),) + rest if c > 1 else rest
    for j in range(k + 1):
        total = total + tensor(_sym_single(p, q, j), _sym_profile(p, head, k - j))
    return total


def sym_power(a: JordanProfile, k: int) -> JordanProfile:
    """Profile of the k-th symmetric power.

    Over a direct sum the symmetric power expands multiplicatively,
    Sym^k(A + B) = sum over i+j=k of Sym^i(A) tensor Sym^j(B), which
    reduces everything to memoized single-block powers Sym^k(N_q).
    """
    if k < 0:
        raise ValueError("negative symmetric power")
    return _sym_profile(a.p, a.blocks, k)
