"""Integral lattices with prime-order isometries.

A lattice is a free Z-module with a non-degenerate symmetric bilinear
form, given by its Gram matrix.  With an isometry of prime order p the
interesting invariants are the counts (l_plus, l_minus, l_p) of trivial,
cyclotomic and free summands of the underlying Z[G]-module; they control
the group cohomology H^*(G, T) and the discriminant bookkeeping of the
quotient constructions.

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

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import NamedTuple, Sequence

from .intmat import (
    IntMatrix,
    _smith,
    _smith_diagonal_mod,
    back_substitute,
    det_adjugate,
    image_basis,
    is_prime,
    kernel_saturated,
    order_divides,
    quotient_group,
)
from .profiles import jordan_profile


@dataclass(frozen=True)
class Lattice:
    """Non-degenerate integral lattice, carried by its Gram matrix."""

    gram: IntMatrix
    # the Gram determinant, computed once by the non-degeneracy check
    det: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        det = self.gram.det()
        if det == 0:
            raise ValueError("Gram matrix is degenerate")
        object.__setattr__(self, "det", det)

    @property
    def rank(self) -> int:
        return self.gram.nrows

    def rescaled(self, s: int) -> "Lattice":
        if s == 0:
            raise ValueError("zero rescale")
        return Lattice(self.gram * s)

    def direct_sum(self, *others: "Lattice") -> "Lattice":
        return Lattice(IntMatrix.block_diagonal(self.gram, *(o.gram for o in others)))

    def is_even(self) -> bool:
        return all(self.gram[i, i] % 2 == 0 for i in range(self.rank))


@dataclass(frozen=True)
class GLattice:
    """Lattice together with an isometry of prime order p."""

    gram: IntMatrix
    action: IntMatrix
    p: int
    allow_trivial: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        lattice = Lattice(self.gram)  # validates symmetry / non-degeneracy
        n = lattice.rank
        if not (self.action.is_square() and self.action.nrows == n):
            raise ValueError("action shape does not match the Gram matrix")
        if self.action.transpose() * self.gram * self.action != self.gram:
            raise ValueError("action is not an isometry of the form")
        if not order_divides(self.action, self.p):
            raise ValueError(f"action does not have order dividing {self.p}")
        if self.action == IntMatrix.identity(n) and not self.allow_trivial:
            raise ValueError("trivial action must be flagged explicitly")

    @property
    def rank(self) -> int:
        return self.gram.nrows

    def lattice(self) -> Lattice:
        return Lattice(self.gram)

    def sigma(self) -> IntMatrix:
        """Norm map sigma = phi^(p-1) + ... + phi + id.

        Horner's rule S <- I + phi S, p - 1 times, with row i of phi S the
        sum of a_ik S[k] over the nonzero entries a_ik of the action:
        O(p nnz(phi) n) instead of p dense products.  A nontrivial
        order-p isometry of a rank-n lattice has p <= n + 1, and the
        trivial action gives p I in closed form, so the work is bounded
        by the rank, not by p.
        """
        n = self.rank
        if self.action == IntMatrix.identity(n):
            return IntMatrix.identity(n) * self.p
        nonzeros = [[(k, a) for k, a in enumerate(row) if a] for row in self.action.rows]
        total = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(self.p - 1):
            step = []
            for i, terms in enumerate(nonzeros):
                row = [0] * n
                for k, a in terms:
                    row = [x + a * y for x, y in zip(row, total[k])]
                row[i] += 1
                step.append(row)
            total = step
        return IntMatrix(total, ncols=n)


def discriminant(l: Lattice) -> int:
    """Absolute value of the Gram determinant."""
    return abs(l.det)


def discriminant_group(l: Lattice) -> list[int]:
    """Elementary divisors (> 1) of the cokernel of the Gram matrix."""
    return [d for d in _smith_diagonal_mod(l.gram.rows, l.det) if d > 1]


def signature(l: Lattice) -> tuple[int, int]:
    """Exact (n_plus, n_minus) by symmetric congruence reduction over Z.

    The reduction is fraction-free (Bareiss): the rows below step k hold
    prev times the rational Schur complement, where prev is the previous
    pivot, so every update divides exactly.  The k-th rational pivot is
    pivot_k / pivot_(k-1), and only its sign is read.
    """
    n = l.rank
    a = [list(row) for row in l.gram.rows]
    pos = neg = 0
    prev = 1
    for i in range(n):
        if a[i][i] == 0:
            j = next((t for t in range(i + 1, n) if a[t][t] != 0), None)
            if j is not None:
                a[i], a[j] = a[j], a[i]
                for row in a[i:]:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((t for t in range(i + 1, n) if a[i][t] != 0), None)
                if j is None:
                    raise ValueError("degenerate form")
                # all remaining diagonal entries vanish, so this makes
                # a[i][i] = 2*a[i][j] != 0
                a[i] = [x + y for x, y in zip(a[i], a[j])]
                for row in a[i:]:
                    row[i] += row[j]
        pivot, tail = a[i][i], a[i][i + 1:]
        for row in a[i + 1:]:
            f = row[i]
            row[i + 1:] = [(x * pivot - f * y) // prev for x, y in zip(row[i + 1:], tail)]
        if (pivot > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        prev = pivot
    return pos, neg


class LatticeInvariants(NamedTuple):
    rank: int
    signature: tuple[int, int]
    discriminant_group: tuple[int, ...]
    even: bool


def invariants(l: Lattice) -> LatticeInvariants:
    """The comparison key used throughout instead of isometry testing."""
    return LatticeInvariants(l.rank, signature(l), tuple(discriminant_group(l)), l.is_even())


class BNSInvariants(NamedTuple):
    l_plus: int
    l_minus: int
    l_p: int


def bns_invariants(gl: GLattice) -> BNSInvariants:
    """Counts of trivial / cyclotomic / free summands of the Z[G]-lattice.

    l_p is the p-length of T / (T^G + Ker sigma), whose elementary
    divisors all equal p; then rk T^G = l_plus + l_p and
    rk T = l_plus + (p-1) l_minus + p l_p.  For p >= 3 the result is
    cross-checked against the mod-p Jordan profile.
    """
    return _bns(gl, gl.sigma())[0]


def _bns(gl: GLattice, sigma: IntMatrix) -> tuple[BNSInvariants, IntMatrix, IntMatrix]:
    """bns_invariants given the norm map, plus the saturated bases of
    T^G = Ker(phi - 1) and of Ker sigma that it computed on the way."""
    p, n = gl.p, gl.rank
    invariant = kernel_saturated(gl.action - IntMatrix.identity(n))
    ker_sigma = kernel_saturated(sigma)
    stacked = IntMatrix.vstack(invariant, ker_sigma)
    if stacked.nrows != n:
        raise ValueError("invariants and Ker sigma do not span: wrong-order action?")
    divisors = quotient_group(stacked, n)
    if any(d != p for d in divisors):
        raise ValueError(f"T/(T^G + Ker sigma) has divisors {divisors}, expected all {p}")
    l_p = len(divisors)
    l_plus = invariant.nrows - l_p
    remainder = n - l_plus - p * l_p
    if l_plus < 0 or remainder < 0 or remainder % (p - 1) != 0:
        raise ValueError("rank bookkeeping failed: input is not an order-p isometry")
    l_minus = remainder // (p - 1)

    prof = jordan_profile(gl.action, p)
    if p >= 3:
        ok = (prof.count(1), prof.count(p - 1), prof.count(p)) == (l_plus, l_minus, l_p)
    else:
        ok = prof.count(2) == l_p and prof.count(1) == l_plus + l_minus
    if not ok:
        raise ValueError("mod-p profile disagrees with the lattice-side invariants")
    return BNSInvariants(l_plus, l_minus, l_p), invariant, ker_sigma


class GroupCohomology(NamedTuple):
    free_rank: int
    divisors: tuple[int, ...]


def _coordinates_in_rowbasis(basis: IntMatrix, vectors: IntMatrix) -> IntMatrix:
    """Rows of `vectors` written in the saturated row basis `basis`."""
    snf = _smith(basis.transpose(), ("u", "v"))
    coords = []
    for row in vectors.rows:
        sol = back_substitute(snf, row)
        if sol is None:
            raise ValueError("vector outside the span of the basis")
        coords.append(sol)
    return IntMatrix(coords, ncols=basis.nrows)


def group_cohomology(gl: GLattice, i: int) -> GroupCohomology:
    """H^i(G, T) for the (torsion-free) G-lattice T.

    Degree 0 is the free module of invariants (rank reported); odd degrees
    give (Z/p)^l_minus and positive even degrees (Z/p)^l_plus.  The groups
    are computed both from those closed forms and directly as
    Ker sigma / Im(phi - 1) resp. Ker(phi - 1) / Im sigma; a disagreement
    is a fatal internal error.
    """
    if i < 0:
        raise ValueError("negative degree")
    sigma = gl.sigma()
    inv, invariant, ker_sigma = _bns(gl, sigma)
    if i == 0:
        return GroupCohomology(free_rank=inv.l_plus + inv.l_p, divisors=())
    if i % 2 == 1:
        kernel = ker_sigma
        im = image_basis(gl.action - IntMatrix.identity(gl.rank))
        expected = inv.l_minus
    else:
        kernel = invariant
        im = image_basis(sigma)
        expected = inv.l_plus
    if kernel.nrows == 0:
        direct: tuple[int, ...] = ()
    else:
        coords = _coordinates_in_rowbasis(kernel, im)
        direct = tuple(quotient_group(coords, kernel.nrows))
    formula = tuple([gl.p] * expected)
    if direct != formula:
        raise RuntimeError(
            f"group cohomology mismatch in degree {i}: direct {direct}, formula {formula}"
        )
    return GroupCohomology(free_rank=0, divisors=formula)


def pushforward_quotient_lattice(gl: GLattice) -> Lattice:
    """Image of the norm map with the form B(x, y)/p.

    Models the projection to the quotient on torsion-free cohomology: the
    pairing of two pushed-forward classes picks up exactly one factor p.
    Intended for inputs where the relevant surjectivity defect vanishes;
    a non-integral Gram signals a violated precondition.
    """
    basis = image_basis(gl.sigma())
    pairing = basis * gl.gram * basis.transpose()
    entries = []
    for row in pairing.rows:
        if any(e % gl.p != 0 for e in row):
            raise ValueError("pushforward pairing is not divisible by p")
        entries.append([e // gl.p for e in row])
    return Lattice(IntMatrix(entries, ncols=basis.nrows))


def overlattice_from_glue(base: Lattice, glue: Sequence[Sequence]) -> Lattice:
    """Overlattice generated by `base` and rational glue vectors.

    Each glue vector (coordinates in the basis of `base`) must have prime
    order in the discriminant group and pair integrally with the base and
    with itself; the resulting Gram matrix must be integral.  Violations
    are rejected with the offending pairing.  The checks run on the
    integral vector w = denom * v: G v is integral iff G w = 0 mod denom,
    and v^T G v iff w^T G w = 0 mod denom^2.
    """
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
    basis = image_basis(IntMatrix(gens, ncols=n).transpose())
    if basis.nrows != n:
        raise RuntimeError("overlattice basis has wrong rank")
    pairing = basis * base.gram * basis.transpose()
    entries = []
    for i, row in enumerate(pairing.rows):
        for j, e in enumerate(row):
            if e % (denom * denom) != 0:
                raise ValueError(f"overlattice pairing ({i},{j}) is not integral")
        entries.append([e // (denom * denom) for e in row])
    return Lattice(IntMatrix(entries, ncols=n))


def fujiki_constant(p: int, m: int, c) -> Fraction:
    """Top-intersection constant after rescaling the pushforward by c.

    C = (2m)! * p^(2m-1) / (m! * 2^m * c^m); with the construction's total
    rescale c = p this is p^(m-1) * (2m)! / (m! * 2^m).
    """
    if m < 2:
        raise ValueError("needs m >= 2")
    c = Fraction(c)
    return Fraction(factorial(2 * m) * p ** (2 * m - 1), factorial(m) * 2 ** m) / c ** m


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


def rank_one(d: int) -> Lattice:
    return named_lattice("rank1", d)
