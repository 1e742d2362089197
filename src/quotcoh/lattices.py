"""Integral lattices with prime-order isometries.

A lattice is a free Z-module with a non-degenerate symmetric bilinear
form, given by its Gram matrix.  With an isometry of prime order p the
interesting invariants are the counts (l_plus, l_minus, l_p) of trivial,
cyclotomic and free summands of the underlying Z[G]-module; they control
the group cohomology H^*(G, T) and the discriminant bookkeeping of the
quotient constructions.

Each answer has one record: bns_invariants and curtis_reiner_check
return BNSInvariants, and group_cohomology returns intmat.CohGroup, the
type of toric's cohomology tables.  The counts come in closed form from
two numbers of the action phi, with no use of the form and no Smith form
(_module_analysis, on intmat's packed elimination over F_p): by
Diederichsen-Reiner every summand is trivial, an ideal of Z[zeta] or
locally free, so l_p = rank_p(sigma), l_minus = (n - tr phi)/p - l_p and
l_plus = tr phi + l_minus, where sigma = 1 + phi + ... + phi^(p-1) is the
norm map.  One mod-p rank of phi - 1 checks them, and so the odd degrees
H^odd = (Z/p)^l_minus.  Im sigma is of full rank in the saturated T^G,
so H^2 = T^G / sigma T = tors coker(sigma) = (Z/p)^l_plus, from one Smith
form, which the even degrees compare with l_plus: the one second route
of the cohomology.  No result is kept between calls.  A Lattice reads
its determinant, its signature and a modulus for its discriminant group
off one symmetric congruence pass, which is also its non-degeneracy
check; likewise a GLattice keeps its norm map sigma from
intmat.norm_map, the one Horner pass that checks its order, since
(phi - 1) sigma = phi^p - 1 makes phi sigma = sigma equivalent to
phi^p = 1.  The discriminant group is the Smith diagonal of the Gram
matrix modulo that modulus, the gcd of D = |det| and three (n-1)-minors
the pass meets at step n - 2, which is a multiple of d_1 ... d_(n-1) and
often has about half of D's bits; d_n is D / (d_1 ... d_(n-1)).  A zero
pivot, as hyperbolic planes U(k) bring, takes one kind of move, the
addition of +-1 times a later row and column, applied to the pivot rows
already kept too, so the pass keeps no record of a move: its rows are
those of a move-free pass on a congruent E^T G E.  The
modulus splits into coprime parts by the pass's leading minors: the part
coprime to the leading k-minor is eliminated only on the pass's trailing
(n-k)x(n-k) block, rebuilt from the pivot rows the Lattice keeps by
running Sylvester's identity backwards, and a part whose block would be
more than half the matrix on G itself.  Each part runs intmat's packed
elimination over Z/c_k, unit pivots first, wherever they lie.

Two modeling notes, both validated against independent computations in
the test suite rather than assumed:

* the quotient lattice of the degree-k cohomology under the projection is
  modeled algebraically as the image of the norm map sigma = sum phi^i
  equipped with the rescaled form B(x, y)/p (the cup product on a p-fold
  quotient picks up exactly one factor of p);
* lattices are compared by the invariant triple (rank, signature,
  discriminant group) plus even/odd parity, never by isometry testing.
"""

from __future__ import annotations

import operator
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .intmat import (
    CohGroup,
    IntMatrix,
    _Frozen,
    _chain_mod,
    _divisor_chain,
    _pack_minus_one,
    _packing,
    _row_basis_mod_p,
    _smith,
    det_adjugate,
    image_basis,
    is_prime,
    norm_map,
)


class Lattice(_Frozen):
    """Non-degenerate integral lattice, carried by its Gram matrix.

    Equality, hashing and repr read the Gram matrix alone.  Besides det,
    signature and modulus the constructor keeps, from the same congruence
    pass, what discriminant_group rebuilds the pass's trailing blocks from:
    the n leading minors and the pivot rows of the steps i >= n/2, both in
    the frame of the congruent E^T G E the pass eliminates move-free.
    """

    __slots__ = ("gram", "det", "signature", "modulus", "_pass")
    _fields = ("gram",)
    # all read off the one congruence pass that checks non-degeneracy;
    # modulus is gcd(det, three (n-1)-minors), a multiple of d_1 ... d_(n-1)
    # dividing |det|, modulo which the discriminant group is eliminated
    det: int
    signature: tuple[int, int]
    modulus: int
    _pass: tuple[tuple[int, ...], list[list[int]]]

    def __init__(self, gram: IntMatrix):
        if not gram.is_square():
            raise ValueError(f"Gram matrix must be square, got {gram.nrows}x{gram.ncols}")
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        det, sig, minors, rows = _congruence(gram.rows)
        kept = (tuple(u[0] for u in rows), rows[(len(rows) + 1) // 2:])
        _Frozen.__init__(self, gram, det, sig, gcd(det, minors), kept)

    @property
    def rank(self) -> int:
        return self.gram.nrows

    def direct_sum(self, *others: "Lattice") -> "Lattice":
        return Lattice(IntMatrix.block_diagonal(self.gram, *(o.gram for o in others)))

    def is_even(self) -> bool:
        return all(self.gram[i, i] % 2 == 0 for i in range(self.rank))


class GLattice(_Frozen):
    """Lattice together with an isometry of prime order p.

    Equality and hashing leave out the flag allow_trivial, and they and
    repr leave out the validated Lattice kept for lattice() and the norm
    map kept for sigma(), both built by the constructor's checks.
    """

    __slots__ = ("gram", "action", "p", "allow_trivial", "_lattice", "_sigma")
    _fields = ("gram", "action", "p", "allow_trivial")
    _compared = ("gram", "action", "p")
    _lattice: Lattice
    # the norm map, from the pass that checks the order
    _sigma: IntMatrix

    def __init__(self, gram: IntMatrix, action: IntMatrix, p: int, allow_trivial: bool = False):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        lattice = Lattice(gram)  # validates symmetry / non-degeneracy
        n = lattice.rank
        if not (action.is_square() and action.nrows == n):
            raise ValueError("action shape does not match the Gram matrix")
        if action.transpose() * gram * action != gram:
            raise ValueError("action is not an isometry of the form")
        sigma = norm_map(action, p)
        if sigma is None:
            raise ValueError(f"action does not have order dividing {p}")
        if not allow_trivial and action == IntMatrix.identity(n):
            raise ValueError("trivial action must be flagged explicitly")
        _Frozen.__init__(self, gram, action, p, allow_trivial, lattice, sigma)

    @property
    def rank(self) -> int:
        return self.gram.nrows

    def lattice(self) -> Lattice:
        return self._lattice

    def sigma(self) -> IntMatrix:
        """Norm map sigma = phi^(p-1) + ... + phi + id, kept from the order check.

        The constructor builds it once, by intmat.norm_map, whose check
        A sigma = sigma is the proof of A^p = 1, so reading it costs nothing.
        """
        return self._sigma


def discriminant(l: Lattice) -> int:
    """Absolute value of the Gram determinant."""
    return abs(l.det)


def discriminant_group(l: Lattice) -> list[int]:
    """Elementary divisors (> 1) of the cokernel of the Gram matrix.

    Eliminated modulo l.modulus, the gcd of D = |det| and three
    (n-1)-minors that the congruence pass met: a multiple of
    d_1 ... d_(n-1), the gcd of all (n-1)-minors, that divides D, and often
    about half its bits.  Modulo it the elimination reads d_1 .. d_(n-1),
    and d_n = D / (d_1 ... d_(n-1)).  The modulus splits into coprime parts
    c_k (_modulus_parts), and each part eliminates the pass's trailing
    block T_k past the leading k-minor pi_k, a unit mod c_k, instead of G
    (_trailing_blocks), by one packed pass of unit pivots over Z/c_k and
    its unit-free rest (intmat._chain_mod); the g's of all parts pool into
    one divisor chain.
    """
    pivots, rows = l._pass
    parts = _modulus_parts(l.modulus, pivots)
    found = _chain_mod(l.gram.rows, parts.pop(0)) if 0 in parts else []
    for k, block in _trailing_blocks(pivots, rows):
        if not parts:
            break
        if k in parts:
            found += _chain_mod(_mirrored(block), parts.pop(k))
    return [d for d in _divisor_chain(found, l.rank, l.det, l.modulus) if d > 1]


def _modulus_parts(m: int, pivots: Sequence[int]) -> dict[int, int]:
    """Coprime parts {k: c_k} (c_k > 1) of m, each coprime to the leading
    k-minor pi_k = pivots[k - 1] of the matrix M = E^T G E that the
    congruence pass eliminates, pi_0 = 1.

    For k = n - 1 down to 1, c_k is the part of what is left of m that is
    coprime to pi_k, and what is left at the end is c_0.  pi_k is then a
    unit mod c_k, so the leading k-block of M is invertible over Z/c_k, and
    block elimination gives coker(G) = coker(M) = coker(T_k) over Z/c_k,
    where T_k = pi_k (the Schur complement of that block) is the pass's
    trailing block after k steps; by CRT coker(G) over Z/m is the sum of
    these.  A part with 2k < n goes to k = 0, eliminated on G itself, so
    that no block is rebuilt beyond half the matrix.
    """
    parts = {}
    for k in range(len(pivots) - 1, (len(pivots) - 1) // 2, -1):
        c = m
        while (g := gcd(c, pivots[k - 1])) > 1:
            c //= g
        if c > 1:
            parts[k] = c
            m //= c
    if m > 1:
        parts[0] = m
    return parts


def _trailing_blocks(pivots: Sequence[int], rows: Sequence[Sequence[int]]):
    """Yield (k, T_k), the symmetric trailing block of the congruence pass
    after k steps as its upper triangle (row r from column r on), for
    k = n - 1 down to n - len(rows), rows holding the pivot rows
    U_k .. U_(n-1) and pivots the n leading minors.

    Sylvester's identity runs backwards: row i of the block at step i is
    U_i, and the rest is (pi_i T_(i+1) + U_i^T U_i) / pi_(i+1), an exact
    division, with pi_(i+1) = U_i[0].  The pivot rows are those of a
    move-free pass on M = E^T G E, so T_k is the Bareiss block of M, whose
    entry (r, s) is the minor of M on rows 0 .. k-1, k + r and columns
    0 .. k-1, k + s; T_(n-1) is [[pi_n]], and T_0 is M.
    """
    n, t = len(pivots), []
    for i in range(n - 1, n - 1 - len(rows), -1):
        u = rows[i - n + len(rows)]
        prev = pivots[i - 1] if i else 1
        t = [list(u)] + [[(prev * y + x * z) // u[0] for y, z in zip(row, u[r:])]
                         for r, (x, row) in enumerate(zip(u[1:], t), 1)]
        yield i, t


def _mirrored(upper: Sequence[Sequence[int]]) -> list[list[int]]:
    """The symmetric matrix whose row r holds upper[r] from column r on."""
    return [[upper[s][r - s] for s in range(r)] + list(upper[r]) for r in range(len(upper))]


def _congruence(rows: Sequence[Sequence[int]]) -> tuple[
        int, tuple[int, int], int, list[list[int]]]:
    """det G, the signature (n_plus, n_minus) of a symmetric G, a multiple
    of the gcd of its (n-1)-minors and the pivot rows, from one symmetric
    congruence reduction over Z.

    The reduction is fraction-free (Bareiss): the rows below step k hold
    prev times the rational Schur complement, where prev is the previous
    pivot, so every update divides exactly.  The k-th rational pivot is
    pivot_k / pivot_(k-1), and only its sign is read.  The trailing block
    stays symmetric, so the updates keep only its upper triangle.

    A zero pivot a_ii takes one kind of move: row and column i gain c times
    row and column j, for the first j > i with a_ij != 0, which makes the
    pivot c (2 a_ij + c a_jj); c = 1 unless that is 0, and then c = -1, as
    the two values differ by 4 a_ij.  No such j means the pivot row is zero
    from the diagonal on, so the form is degenerate, and raises ValueError.
    The column half of the move is applied to the pivot rows already kept
    as well, so the pass is, step for step, a move-free pass on
    M = E^T G E, det E = 1, and the last pivot is det G.

    After k steps the trailing entries of a Bareiss elimination are
    (k+1)-minors of the matrix eliminated.  So at the start of step n - 2
    the three entries of the trailing 2x2 block are (n-1)-minors of a
    matrix congruent to G, and the gcd of all (n-1)-minors, which the
    congruence leaves unchanged, divides their gcd, the third value
    returned; it is 1 for n <= 1, the one 0-minor.

    Pivot row U_i is row i of the trailing block from column i on, in the
    frame of M; U_i[0] is the leading (i+1)-minor of M.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    pos = neg = 0
    prev = 1
    minors = 1
    for i in range(n):
        if i == n - 2:
            minors = gcd(a[i][i], a[i][i + 1], a[i + 1][i + 1])
        if a[i][i] == 0:
            j = next((t for t in range(i + 1, n) if a[i][t]), None)
            if j is None:
                raise ValueError("Gram matrix is degenerate")
            c = -1 if 2 * a[i][j] + a[j][j] == 0 else 1
            # row j of the block from column i on, column j above the diagonal
            a[i][i:] = [x + c * y for x, y in zip(a[i][i:], [u[j] for u in a[i:j]] + a[j][j:])]
            for row in a[:i + 1]:
                row[i] += c * row[j]
        top, pivot = a[i], a[i][i]
        for k in range(i + 1, n):
            f, row = top[k], a[k]
            row[k:] = [(x * pivot - f * y) // prev for x, y in zip(row[k:], top[k:])]
        if (pivot > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        prev = pivot
    return prev, (pos, neg), minors, [row[i:] for i, row in enumerate(a)]


def signature(l: Lattice) -> tuple[int, int]:
    """Exact (n_plus, n_minus), kept from the congruence pass that built l."""
    return l.signature


class LatticeInvariants(NamedTuple):
    rank: int
    signature: tuple[int, int]
    discriminant_group: tuple[int, ...]
    even: bool


def invariants(l: Lattice) -> LatticeInvariants:
    """The comparison key used throughout instead of isometry testing."""
    return LatticeInvariants(l.rank, signature(l), tuple(discriminant_group(l)), l.is_even())


class BNSInvariants(NamedTuple):
    """Counts of trivial / cyclotomic / free summands of an order-p Z[G]-lattice."""

    l_plus: int
    l_minus: int
    l_p: int


def _module_analysis(action: IntMatrix, sigma: IntMatrix, p: int) -> tuple[int, int, int]:
    """Summand counts (l_plus, l_minus, l_p) of Z^n under an action A with
    A^p = 1 over Z and norm map sigma = 1 + A + ... + A^(p-1), in closed
    form from tr A and rank_p(sigma); no invariant form is needed.
    bns_invariants and curtis_reiner_check hand them out as BNSInvariants.

    The preconditions are the caller's: GLattice and curtis_reiner_check
    check that p is prime and A square, and establish A^p = 1 by
    intmat.norm_map, whose sigma they pass, hence the underscore.  By
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


def bns_invariants(gl: GLattice) -> BNSInvariants:
    """Counts of trivial / cyclotomic / free summands of the Z[G]-lattice.

    In closed form from tr phi and rank_p(sigma) of the kept norm map
    (_module_analysis), checked at odd p against
    rank_p(phi - 1) = (p - 2) l_minus + (p - 1) l_p; no Smith form.
    """
    return BNSInvariants(*_module_analysis(gl.action, gl.sigma(), gl.p))


def group_cohomology(gl: GLattice, i: int) -> CohGroup:
    """H^i(G, T) for the (torsion-free) G-lattice T.

    Degree 0 is the free module of invariants, of rank l_plus + l_p.  Odd
    degrees give (Z/p)^l_minus, since H^1 is 0 on Z and on a locally free
    summand and Z/p on an ideal of Z[zeta]; they rest on the trace and
    mod-p rank checks of _module_analysis.  Positive even degrees give
    (Z/p)^l_plus, and that is also computed directly:
    (phi - 1) sigma = phi^p - 1 = 0 puts Im sigma in the saturated
    T^G = Ker(phi - 1), and rank sigma must equal rk T^G, so
    H^2 = T^G / sigma T = tors coker(sigma), from one Smith form of sigma.
    A disagreement of the two even routes is a fatal internal error.
    """
    i = operator.index(i)
    if i < 0:
        raise ValueError("negative degree")
    l_plus, l_minus, l_p = _module_analysis(gl.action, gl.sigma(), gl.p)
    if i == 0:
        return CohGroup(l_plus + l_p, ())
    if i % 2 == 1:
        return CohGroup(0, (gl.p,) * l_minus)
    snf = _smith(gl.sigma())
    if snf.rank != l_plus + l_p:
        raise RuntimeError(f"rank sigma = {snf.rank}, but rk T^G = {l_plus + l_p}")
    direct = tuple(d for d in snf.diagonal if d > 1)
    formula = (gl.p,) * l_plus
    if direct != formula:
        raise RuntimeError(
            f"group cohomology mismatch in degree {i}: direct {direct}, formula {formula}"
        )
    return CohGroup(0, formula)


def curtis_reiner_check(action: IntMatrix, p: int) -> BNSInvariants:
    """Summand counts of an exact order-p integer action, as bns_invariants gives them.

    Requires action^p = identity over Z, checked here by intmat.norm_map,
    whose norm map sigma then gives the counts in closed form from the
    trace and rank_p(sigma), checked at odd p against one more mod-p rank; a
    disagreement raises ValueError.  The trace tells the trivial summand Z
    from the cyclotomic Z^- at p = 2 as well, where the mod-2 profile sees
    only their sum.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not action.is_square():
        raise ValueError("action must be square")
    sigma = norm_map(action, p)
    if sigma is None:
        raise ValueError("action^p is not the identity over Z")
    return BNSInvariants(*_module_analysis(action, sigma, p))


def pushforward_quotient_lattice(gl: GLattice) -> Lattice:
    """Image of the norm map with the form B(x, y)/p.

    Models the projection to the quotient on torsion-free cohomology: the
    pairing of two pushed-forward classes picks up exactly one factor p.
    Intended for inputs where the relevant surjectivity defect vanishes;
    a non-integral Gram signals a violated precondition.
    """
    basis = image_basis(gl.sigma())
    # B G B^T as B (B G)^T, G being symmetric: the sparse basis is the left
    # factor of both products
    pairing = basis * (basis * gl.gram).transpose()
    entries = []
    for row in pairing.rows:
        if any(e % gl.p != 0 for e in row):
            raise ValueError("pushforward pairing is not divisible by p")
        entries.append(tuple(e // gl.p for e in row))
    return Lattice(IntMatrix._trusted(tuple(entries), basis.nrows))


def overlattice_from_glue(base: Lattice, glue: Sequence[Sequence]) -> Lattice:
    """Overlattice generated by `base` and rational glue vectors.

    Each glue vector (coordinates in the basis of `base`) must have prime
    order in the discriminant group and pair integrally with the base and
    with itself; the resulting Gram matrix must be integral.  Violations
    are rejected with the offending pairing.  The checks run on the
    integral vector w = denom * v: G v is integral iff G w = 0 mod denom,
    and v^T G v iff w^T G w = 0 mod denom^2.
    """
    from fractions import Fraction

    n = base.rank
    gram = base.gram.rows
    scaled = []  # (denom, denom * v) per glue vector
    for k, v in enumerate(glue):
        v = [Fraction(e) for e in v]
        if len(v) != n:
            raise ValueError(f"glue vector {k} has wrong length")
        denom = lcm(*(e.denominator for e in v)) if v else 1
        if denom != 1 and not is_prime(denom):
            raise ValueError(f"glue vector {k} has non-prime order {denom}")
        w = [e.numerator * (denom // e.denominator) for e in v]
        support = [(j, x) for j, x in enumerate(w) if x]
        gw = [sum(row[j] * x for j, x in support) for row in gram]
        for i, e in enumerate(gw):
            if e % denom:
                raise ValueError(
                    f"glue vector {k} pairs non-integrally with basis vector {i}: {Fraction(e, denom)}"
                )
        selfpair = sum(w[j] * gw[j] for j, _ in support)
        if selfpair % (denom * denom):
            raise ValueError(f"glue vector {k} has non-integral square {Fraction(selfpair, denom * denom)}")
        scaled.append((denom, w))
    if not scaled:
        return base
    denom = lcm(*(d for d, _ in scaled))
    gens = [[denom if i == j else 0 for j in range(n)] for i in range(n)]
    gens += [[e * (denom // d) for e in w] for d, w in scaled]
    # the generators include denom * I, so the basis has rank n
    basis = image_basis(IntMatrix(gens, ncols=n).transpose())
    pairing = basis * base.gram * basis.transpose()
    entries = []
    for i, row in enumerate(pairing.rows):
        for j, e in enumerate(row):
            if e % (denom * denom) != 0:
                raise ValueError(f"overlattice pairing ({i},{j}) is not integral")
        entries.append([e // (denom * denom) for e in row])
    return Lattice(IntMatrix(entries, ncols=n))


def dual_lattice(l: Lattice, scale: int = 1) -> Lattice:
    """The rescaled dual L^vee(scale), Gram scale adj(G) / det(G); rejects a non-integral result."""
    det, adj = det_adjugate(l.gram.rows)
    if any(scale * e % det for row in adj for e in row):
        raise ValueError("rescaled dual is not integral")
    return Lattice(IntMatrix([[scale * e // det for e in row] for row in adj], ncols=l.rank))


def _cartan(edges: list[tuple[int, int]], n: int) -> IntMatrix:
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        m[i][j] = m[j][i] = -1
    return IntMatrix(m, ncols=n)


_A_EDGES = lambda n: [(i, i + 1) for i in range(n - 1)]
# chain 0-1-2-3-4-5-6 with node 7 attached to node 4 (E8), resp. 0..4 + node 5 on 2 (E6)
_E8_EDGES = _A_EDGES(7) + [(4, 7)]
_E6_EDGES = _A_EDGES(5) + [(2, 5)]

_NAMED = {
    "U": lambda: IntMatrix([[0, 1], [1, 0]]),
    "A1": lambda: _cartan(_A_EDGES(1), 1),
    "A2": lambda: _cartan(_A_EDGES(2), 2),
    "A3": lambda: _cartan(_A_EDGES(3), 3),
    "A4": lambda: _cartan(_A_EDGES(4), 4),
    "E6": lambda: _cartan(_E6_EDGES, 6),
    "E8": lambda: _cartan(_E8_EDGES, 8),
    # positive definite binary form of determinant 7 (order-7 quotient block)
    "Lambda7": lambda: IntMatrix([[4, -3], [-3, 4]]),
    # invariant binary block paired with Lambda7 under the order-7 glue
    "Gamma7": lambda: IntMatrix([[4, 1], [1, 2]]),
    # rank-4 negative definite lattice of determinant 17 from the order-17 row
    "L17": lambda: IntMatrix([[-2, 1, 0, 1], [1, -2, 0, 0], [0, 0, -2, 1], [1, 0, 1, -4]]),
    # explicit binary blocks of the non-symplectic quotient rows
    "NS5": lambda: IntMatrix([[2, 5], [5, 10]]),
    "NS7": lambda: IntMatrix([[-4, 3], [3, -4]]),
    "NS19": lambda: IntMatrix([[-10, 9], [9, -10]]),
}


def named_lattice(name: str, scale: int = 1) -> Lattice:
    """Standard Gram matrices by name, multiplied by `scale`.

    "rank1" uses scale as the single diagonal entry, e.g.
    named_lattice("rank1", -10) = (-10).
    """
    if name == "rank1":
        if scale == 0:
            raise ValueError("rank1 lattice needs a nonzero entry")
        return Lattice(IntMatrix([[scale]]))
    if name == "L17dual17":
        return dual_lattice(named_lattice("L17"), 17)
    if name not in _NAMED:
        raise ValueError(f"unknown lattice name {name!r}")
    return Lattice(_NAMED[name]() * scale)
