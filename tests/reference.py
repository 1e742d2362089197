"""Reference routes and fixtures the tests check the package against.

Nothing in the package calls these; each is a slower or more general
route to something the package computes another way, or a fixture built
from the package's public types.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from quotcoh.engine import DegreeInvariants, GradedInvariants
from quotcoh.hilbert import K3_B2
from quotcoh.intmat import (
    IntMatrix, SmithDecomposition, _smith, det_adjugate, image_basis, primitive_vector, smith_decomposition,
)
from quotcoh.k3 import K3ActionSpec
from quotcoh.lattices import BNSInvariants
from quotcoh.toric import Cone, CyclicSingularity, Fan, _judge


# --- integer matrices --------------------------------------------------------

def solve_integer(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of a*x = b, or None if there is none."""
    if len(b) != a.nrows:
        raise ValueError("right-hand side has wrong length")
    return back_substitute(smith_decomposition(a), b)


def back_substitute(s: SmithDecomposition, b: Sequence[int]) -> tuple[int, ...] | None:
    """solve_integer(a, b) given an SNF s of a that tracks u and v, so one SNF serves many b."""
    ub = s.u.apply(b)
    y = [0] * s.v.nrows
    for i in range(s.u.nrows):
        d = s.diagonal[i] if i < len(s.diagonal) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
    return s.v.apply(y)


def kronecker(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The Kronecker product, a's entries each scaling a copy of b."""
    return IntMatrix(
        [[x * y for x in ra for y in rb] for ra in a.rows for rb in b.rows],
        ncols=a.ncols * b.ncols,
    )


def matrix_power(a: IntMatrix, k: int) -> IntMatrix:
    """a^k for a square a and k >= 0, by repeated squaring."""
    if not a.is_square():
        raise ValueError("powers need a square matrix")
    if k < 0:
        raise ValueError("negative power")
    result, base = IntMatrix.identity(a.nrows), a
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def smith_summand_counts(action: IntMatrix, p: int) -> BNSInvariants:
    """(l_plus, l_minus, l_p) of an order-p action from one Smith form of A - 1.

    The route the closed form in tr A and rank_p(sigma) replaced.  With
    r = rank(A - 1), rk T^G = n - r and Ker sigma = sat Im(A - 1), so
    H^1 = Ker sigma / Im(A - 1) is the torsion of coker(A - 1): one Z/p per
    cyclotomic summand.  A trivial summand adds 0 to r, a cyclotomic or a
    free one p - 1, so l_p = r/(p - 1) - l_minus and l_plus = n - r - l_p.
    """
    n = action.nrows
    snf = _smith(action - IntMatrix.identity(n))
    r = snf.rank
    torsion = [d for d in snf.diagonal if d > 1]
    if any(d != p for d in torsion):
        raise ValueError(f"coker(A - 1) has torsion {torsion}, expected all {p}")
    l_minus = len(torsion)
    l_p = r // (p - 1) - l_minus
    l_plus = n - r - l_p
    if r % (p - 1) or l_p < 0 or l_plus < 0:
        raise ValueError("rank bookkeeping failed: input is not an order-p action")
    return BNSInvariants(l_plus, l_minus, l_p)


# --- cones and fans ----------------------------------------------------------

def coordinates_of(c: Cone, point: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """Barycentric coordinates of a point in the simplicial cone c, or None.

    Cramer's rule in the span's coordinates of `toric._judge`: with
    C = P R, lam = adj(C) P x / det C.  None means R lam misses the point:
    it is outside the linear span.  Dependent rays raise ValueError.
    """
    point = [Fraction(x) for x in point]
    q = lcm(*(x.denominator for x in point))
    scaled = [x.numerator * (q // x.denominator) for x in point]
    basis, det, adj = _judge(c)
    x = scaled if basis is None else [sum(map(mul, row, scaled)) for row in basis]
    num = [sum(map(mul, a, x)) for a in adj]
    if any(sum(n * r[t] for n, r in zip(num, c.rays)) != det * y
           for t, y in enumerate(scaled)):
        return None  # point outside the linear span
    return tuple(Fraction(v, q * det) for v in num)


def adjugate_quotient_fan(s: CyclicSingularity) -> Fan:
    """The quotient's fan by two eliminations: an image basis, then its adjugate.

    The route the one Smith form of `toric.quotient_fan` replaced.  The
    columns of B, an image basis of [p I | weights], generate p * (refined
    lattice) in Z^n, and ray i solves B y = p e_i: y = p adj(B) e_i / det B
    by Cramer's rule, made primitive.
    """
    n = len(s.weights)
    gens = [[s.p if i == j else 0 for j in range(n)] for i in range(n)]
    gens.append(list(s.weights))
    basis = image_basis(IntMatrix(gens, ncols=n).transpose()).transpose()
    det, adj = det_adjugate(basis.rows)
    if any(s.p * e % det for row in adj for e in row):
        raise RuntimeError("standard basis vector missing from the refined lattice")
    rays = [primitive_vector([s.p * row[i] // det for row in adj]) for i in range(n)]
    return Fan.from_cones([Cone.from_rays(rays, ambient=n)], ambient=n)


def projective_space_fan(n: int) -> Fan:
    """Fan of n-dimensional projective space."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple([-1] * n))
    cones = [
        Cone.from_rays([rays[j] for j in range(n + 1) if j != skip], ambient=n)
        for skip in range(n + 1)
    ]
    return Fan.from_cones(cones, ambient=n)


def product_of_lines_fan() -> Fan:
    """Fan of the product of two projective lines."""
    cones = [Cone.from_rays([(sx, 0), (0, sy)], ambient=2) for sx in (1, -1) for sy in (1, -1)]
    return Fan.from_cones(cones, ambient=2)


# --- K3 surfaces ---------------------------------------------------------------

def k3_graded_invariants(spec: K3ActionSpec) -> GradedInvariants:
    """Module invariants of the K3 surface itself under the row's action."""
    one = DegreeInvariants.make(rank=1, l_plus=1)
    zero = DegreeInvariants.make()
    h2 = DegreeInvariants.make(rank=K3_B2, l_plus=spec.l_plus_2, l_pf=spec.l_p_2)
    return GradedInvariants(p=spec.p, n=2, eta=spec.n_sing, degrees=(one, zero, h2, zero, one))
