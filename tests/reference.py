"""Reference routes and fixtures the tests check the package against.

Nothing in the package calls these; each is a slower or more general
route to something the package computes another way, or a fixture built
from the package's public types.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations_with_replacement, repeat
from math import comb, gcd, lcm
from operator import index, mul
from typing import Iterable, Sequence

from quotcoh.engine import DegreeInvariants, GradedInvariants
from quotcoh.hilbert import K3_B2, _permutation_invariants
from quotcoh.intmat import (
    IntMatrix, SmithDecomposition, _pack_minus_one, _packing, _row_basis_mod_p, _smith,
    det_adjugate, image_basis, primitive_vector, smith_decomposition,
)
from quotcoh.k3 import K3ActionSpec
from quotcoh.lattices import BNSInvariants
from quotcoh.profiles import JordanProfile
from quotcoh.toric import Cone, CyclicSingularity, Fan, _judge, _xgcd


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


def matmul_dense(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a * b with every entry the dot product of a row of a and a column of b.

    The product that IntMatrix.__mul__ replaced by sums of b's rows.
    """
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions differ")
    cols = [tuple(row[j] for row in b.rows) for j in range(b.ncols)]
    return IntMatrix([[sum(map(mul, row, col)) for col in cols] for row in a.rows], ncols=b.ncols)


def smith_dense(m: IntMatrix, u: bool = False, below: IntMatrix | None = None) -> SmithDecomposition:
    """intmat._smith as it was before it skipped rows: every pivot search
    scans the whole trailing block, and every column operation runs over
    every row of the top block and of `below`.
    """
    nr, nc = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    if u:
        for i, row in enumerate(a):
            row.extend(int(i == j) for j in range(nr))
    if below is not None:
        a += [list(row) for row in below.rows]

    # in m's block, rows above s are zero from column s on, and so are columns
    # left of s from row s down: row operations touch columns s on (the rest of
    # m's row and all of u's), column operations rows s on (with all of below)
    s = 0
    while s < min(nr, nc):
        best = None
        for i in range(s, nr):
            for j in range(s, nc):
                e = a[i][j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
                    if best[0] == 1:  # nothing later can be smaller
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != s:
            a[s], a[bi] = a[bi], a[s]
        if bj != s:
            for row in a[s:]:
                row[s], row[bj] = row[bj], row[s]
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]

        top = a[s]
        pivot = top[s]
        clean = True
        for row in a[s + 1:nr]:
            q = row[s] // pivot
            if q:
                row[s:] = [x - q * y for x, y in zip(row[s:], top[s:])]
            if row[s]:
                clean = False
        for j in range(s + 1, nc):
            q = top[j] // pivot
            if q:
                for row in a[s:]:
                    row[j] -= q * row[s]
            if top[j]:
                clean = False
        if not clean:
            continue

        offender = None if pivot == 1 else next(
            ((i, j) for i in range(s + 1, nr) for j in range(s + 1, nc)
             if a[i][j] % pivot != 0),
            None,
        )
        if offender is not None:
            # fold the offending row into row s; the next pass shrinks the pivot
            top[s:] = [x + y for x, y in zip(top[s:], a[offender[0]][s:])]
            continue
        s += 1

    diag = tuple(a[i][i] for i in range(min(nr, nc)))
    return SmithDecomposition(
        u=IntMatrix(tuple(tuple(row[nc:]) for row in a[:nr]), nr) if u else None,
        d=IntMatrix(tuple(tuple(row[:nc]) for row in a[:nr]), nc),
        v=None if below is None else IntMatrix(tuple(map(tuple, a[nr:])), nc),
        diagonal=diag,
        rank=sum(1 for x in diag if x != 0),
    )


def chain_mod(rows: Sequence[Sequence[int]], m: int) -> list[int]:
    """The g's of one elimination of a square matrix A over Z/m, m > 1:
    coker over Z/m of A is the sum of the Z/g.

    The route intmat._chain_mod replaced by one packed pass of unit
    pivots, a division by the common factor of what is left and this loop
    as its fallback: the oracle of its pooled divisor chains.

    Each step brings the entry e of least gcd(e, m) to the pivot; a unit
    clears its column in one pass.  Otherwise rows or columns are combined
    by extended gcd until g = gcd(pivot, m) divides the rest of the pivot's
    row and column; each combination replaces g by a proper divisor, so
    there are at most log2(m) of them per step.  The step contributes Z/g.

    Only the input and each step's pivot row are reduced mod m, the pivot
    row once before it multiplies; the other rows take t - x s unreduced,
    in place.  Every value the elimination reads is read modulo m or a
    divisor g of m (gcd(e, m), e mod g, and x = e/g c^-1 mod m/g), and the
    extended gcd combinations reduce their inputs and what they write, so
    the pivots, the g's and the diagonal are those of full reduction.
    With x < m and a reduced pivot row a step adds less than m^2 to an
    entry, so after k steps |entry| < m + k m^2.

    A symmetric A, such as a Gram matrix, first runs a congruence phase,
    checked for in O(n^2).  While a diagonal entry of the trailing block is
    a unit mod m it is the pivot; failing that, a principal 2x2 block
    [[a_ii, a_ij], [a_ij, a_jj]] whose determinant is a unit, as the odd
    off-diagonal entries of an even Gram give at m even.  The rows and the
    columns of the pivot are cleared together, E^T A E with E invertible
    mod m, which keeps the cokernel over Z/m; the block stays symmetric mod
    m, so only its upper triangle is updated, by x < m times each pivot
    row, reduced once.  Each such step contributes one or two diagonal 1's
    and adds less than m^2 per row it removes.  What is left is mirrored
    and runs the elimination above.
    """
    n = len(rows)
    a = [[x % m for x in row] for row in rows]
    found = []
    if all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i)):
        # row i of the trailing block is read from column i on, its upper triangle
        def full(k):
            # row k in full, reduced: column k above the diagonal, then row k on
            return [e % m for e in [row[k] for row in a[:k]] + a[k][k:]]

        while True:
            k = next((i for i, row in enumerate(a) if gcd(row[i], m) == 1), None)
            if k is not None:
                top = full(k)
                unit = pow(top[k], -1, m)
                del a[k], top[k]
                for row in a:
                    del row[k]
                for i, row in enumerate(a):
                    x = top[i] * unit % m
                    if x:
                        row[i:] = [t - x * s for s, t in zip(top[i:], row[i:])]
                continue
            k, j = next(((k, j) for k, row in enumerate(a) for j in range(k + 1, len(a))
                         if gcd(row[k] * a[j][j] - row[j] * row[j], m) == 1), (None, None))
            if k is None:
                break
            # clear by the inverse (1/det) [[c, -b], [-b, p]] of the block [[p, b], [b, c]]
            u, v = full(k), full(j)
            p, b, c = u[k], u[j], v[j]
            unit = pow(p * c - b * b, -1, m)
            del a[j], a[k]
            for w in (u, v, *a):
                del w[j], w[k]
            for i, row in enumerate(a):
                x = (c * u[i] - b * v[i]) * unit % m
                y = (p * v[i] - b * u[i]) * unit % m
                if x or y:
                    row[i:] = [t - x * s - y * r for s, r, t in zip(u[i:], v[i:], row[i:])]
        for i, row in enumerate(a):
            row[:i] = [a[j][i] for j in range(i)]
    while a:
        best = None
        for i, row in enumerate(a):
            for j, e in enumerate(row):
                g = gcd(e, m)
                if best is None or g < best[0]:
                    best = (g, i, j)
                    if g == 1:
                        break
            if best[0] == 1:
                break
        g, bi, bj = best
        a[0], a[bi] = a[bi], a[0]
        if bj:
            for row in a:
                row[0], row[bj] = row[bj], row[0]
        while g > 1:
            top = a[0]
            i = next((i for i in range(1, len(a)) if a[i][0] % g), None)
            if i is not None:
                # [[x, y], [-e/h, p/h]] on rows 0 and i leaves h, 0 in column 0
                p, e = top[0] % m, a[i][0] % m
                h, x, y = _xgcd(p, e)
                a[0] = [(x * s + y * t) % m for s, t in zip(top, a[i])]
                a[i] = [(p // h * t - e // h * s) % m for s, t in zip(top, a[i])]
            else:
                j = next((j for j in range(1, len(top)) if top[j] % g), None)
                if j is None:
                    break
                p, e = top[0] % m, top[j] % m
                h, x, y = _xgcd(p, e)
                for row in a:
                    s, t = row[0], row[j]
                    row[0], row[j] = (x * s + y * t) % m, (p // h * t - e // h * s) % m
            g = gcd(a[0][0], m)
        top = [e % m for e in a[0]]
        # pivot = g c with c a unit mod m/g: row_i -= x row_0 clears a_i0 = g f
        unit = pow(top[0] // g, -1, m // g)
        del a[0]
        for row in a:
            x = row.pop(0) // g * unit % (m // g)
            if x:
                row[:] = [t - x * s for s, t in zip(top[1:], row)]
        found.append(g)
    return found


def pooled_chain(found: Iterable[int]) -> list[int]:
    """The invariant factors > 1 of the sum of the Z/g over `found`: what two
    eliminations over Z/m of one matrix agree on, whatever g's they take."""
    chain = [g for g in found if g > 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            h = gcd(chain[i], chain[j])
            chain[i], chain[j] = h, chain[i] // h * chain[j]
    return [g for g in chain if g > 1]


def row_basis_mod_p(rows: Iterable[Sequence[int]], p: int) -> list[list[int]]:
    """Echelon basis over F_p of the span of `rows`, on lists of residues.

    The kernel that intmat._row_basis_mod_p replaced by rows packed into one
    int: each incoming row is reduced, cleared at the leading columns of the
    basis so far, in order, entry by entry and reduced at every step, and
    kept, made monic, if anything is left.
    """
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        r = [x % p for x in row]
        for lead, b in basis:
            f = r[lead]
            if f:
                r[lead:] = [(x - f * y) % p for x, y in zip(r[lead:], b)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is not None:
            inv = pow(r[lead], -1, p)
            basis.append((lead, [x * inv % p for x in r[lead:]]))
    return [[0] * lead + b for lead, b in basis]


def slots(r: int, bits: int, n: int) -> list[int]:
    """The n slots of a row packed by intmat._packing with slots of `bits` bits, lowest first."""
    mask = (1 << bits) - 1
    return [r >> bits * j & mask for j in range(n)]


def rank_power_profile(rows: Sequence[Sequence[int]], p: int) -> JordanProfile:
    """Profile of the square A with these rows from the ranks of (A - 1)^k mod p.

    The route profiles._profile_from_rows replaced by one elimination of the
    kernel filtration.  With B = A - 1 and E_k an echelon basis of
    rowspace(B^k), rowspace(B^(k+1)) is rowspace(E_k B), so round k
    multiplies only rank(B^k) rows, e B = sum_i e_i packed(B_i), unreduced,
    and eliminates them from scratch: slots below n p^2, plus less than p^2
    for each of at most n clearing steps, stay below the packing's
    X = 2 n p^2.  The ranks
    strictly decrease until they reach 0 or stall; A has order dividing p
    exactly when they reach 0 within p rounds, as (A - 1)^p = A^p - 1 mod p.
    The blocks of size >= q number rank(B^(q-1)) - rank(B^q).
    """
    n = len(rows)
    packing = _packing(p, n)
    b = _pack_minus_one(rows, p, packing)
    ranks, span = [n], b
    while ranks[-1]:
        basis = _row_basis_mod_p(span, p, packing)
        ranks.append(len(basis))
        if ranks[-1] == ranks[-2] or (ranks[-1] and len(ranks) > p):
            raise ValueError("matrix is not of order dividing p over F_p")
        span = [sum(x * row for x, row in zip(slots(e, packing[0], n), b) if x) for e in basis]
    ranks.append(0)
    return JordanProfile.from_counts(
        p, {q: ranks[q - 1] - 2 * ranks[q] + ranks[q + 1] for q in range(1, len(ranks) - 1)}
    )


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


# --- the profile algebra -------------------------------------------------------

def single(p: int, q: int, count: int = 1) -> JordanProfile:
    """N_q^count."""
    return JordanProfile.from_counts(p, {q: count})


def zero(p: int) -> JordanProfile:
    """The zero module."""
    return JordanProfile(p, ())


def cohomology_dim(prof: JordanProfile, i: int) -> int:
    """dim_F H^i(G, M) for the module M with the given profile.

    Every block contributes one dimension in degree 0; blocks of size < p
    contribute one dimension in every positive degree, the free blocks
    N_p contribute nothing there.
    """
    if i < 0:
        raise ValueError("negative degree")
    if i == 0:
        return sum(c for _, c in prof.blocks)
    return sum(c for q, c in prof.blocks if q < prof.p)


def direct_sum(a: JordanProfile, b: JordanProfile) -> JordanProfile:
    if a.p != b.p:
        raise ValueError("profiles live over different primes")
    counts = dict(a.blocks)
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
        return single(p, 1)
    if k == 1:
        return single(p, q)
    if q == p:
        # N_p = F[G] permutes its basis freely, so Sym^k permutes the size-k multisets;
        # only the uniform multiset (when p | k) is fixed, every other orbit is free
        fixed = 1 if k % p == 0 else 0
        return JordanProfile.from_counts(p, {1: fixed, p: (comb(p + k - 1, k) - fixed) // p})
    jb = representative_matrix(single(p, q))
    sym = sym_power_matrix(jb, k)
    return rank_power_profile(sym.rows, p)


@lru_cache(maxsize=None)
def _sym_profile(p: int, blocks: tuple[tuple[int, int], ...], k: int) -> JordanProfile:
    if k == 0:
        return single(p, 1)
    if not blocks:
        return zero(p)
    (q, c), rest = blocks[0], blocks[1:]
    total = zero(p)
    if q == 1:
        # trivial blocks: Sym^j of N_1^c is trivial of dimension C(c+j-1, j)
        for j in range(k + 1):
            tail = _sym_profile(p, rest, k - j)
            total = direct_sum(total, tensor(single(p, 1, comb(c + j - 1, j)), tail))
        return total
    head = ((q, c - 1),) + rest if c > 1 else rest
    for j in range(k + 1):
        total = direct_sum(total, tensor(_sym_single(p, q, j), _sym_profile(p, head, k - j)))
    return total


def sym_power(a: JordanProfile, k: int) -> JordanProfile:
    """Profile of the k-th symmetric power of any profile.

    Over a direct sum the symmetric power expands multiplicatively,
    Sym^k(A + B) = sum over i+j=k of Sym^i(A) tensor Sym^j(B), which
    reduces everything to memoized single-block powers Sym^k(N_q).  The
    oracle of the closed form profiles.sym_power.
    """
    if k < 0:
        raise ValueError("negative symmetric power")
    return _sym_profile(a.p, a.blocks, k)


def graded_profile(m: int, h2_profile: JordanProfile) -> GradedInvariants:
    """Per-degree module invariants of the m-point Hilbert scheme from the
    mod-p profile of the surface's degree-2 cohomology, which must be
    N_1^a + N_p^b of dimension 22."""
    p = h2_profile.p
    if any(q not in (1, p) for q, _ in h2_profile.blocks):
        raise ValueError("degree-2 profile must consist of trivial and free blocks")
    return _permutation_invariants(m, h2_profile.count(1), h2_profile.count(p), p)


# --- cones and fans ----------------------------------------------------------

def cone_from_rays(rays: Iterable[Sequence[int]], ambient: int | None = None) -> Cone:
    """The cone of the primitive multiples of `rays`, sorted; `ambient` defaults to their length.

    Each check runs once, in this order: every entry is an int
    (operator.index), no ray is zero (primitive_vector raises), every ray
    has length `ambient`, and no two primitive rays coincide.  What passes
    is what the checking constructor `Cone` would accept, so the cone is
    built by `Cone._trusted`.
    """
    rays = [tuple(map(index, r)) for r in rays]
    if ambient is None:
        if not rays:
            raise ValueError("ambient dimension needed for the zero cone")
        ambient = len(rays[0])
    prim = tuple(sorted(map(primitive_vector, rays)))
    if any(len(r) != ambient for r in prim):
        raise ValueError("ray has wrong length")
    if len(set(prim)) != len(prim):
        raise ValueError("duplicate rays")
    return Cone._trusted(prim, ambient)


def fan_from_cones(cones: Sequence[Cone], ambient: int | None = None) -> Fan:
    """The fan of `cones`, sorted by their rays; `ambient` defaults to the first cone's."""
    if ambient is None:
        if not cones:
            raise ValueError("ambient dimension needed for the empty fan")
        ambient = cones[0].ambient
    return Fan(tuple(sorted(cones, key=lambda c: c.rays)), ambient)


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
    return fan_from_cones([cone_from_rays(rays, ambient=n)], ambient=n)


def parallelepiped_all_orders(judged: tuple) -> tuple[int, Iterable[tuple[int, ...]]]:
    """`toric._parallelepiped` as it read every adjugate column's order first.

    The generator is the first column of largest order D / gcd(D, column),
    found by `orders.index(max(orders))` over all the columns; the stream
    and, when no column has order D, the membership set are built as in
    the package.
    """
    _, det, adj = judged
    mod = abs(det)
    cols = [tuple(map(mod.__rmod__, col)) for col in zip(*adj)]
    orders = [mod // gcd(mod, *col) for col in cols]
    order = max(orders)
    gen = cols.pop(orders.index(order))
    multiples = zip(*(map(mod.__rmod__, range(x, x * order, x)) if x else repeat(0, order - 1) for x in gen))
    if order == mod:
        return mod, multiples
    zero = (0,) * len(gen)
    group = {zero, *multiples}
    for g in sorted(cols, key=lambda g: gcd(mod, *g)):
        base = list(group)
        step = g
        while step not in group:
            group.update(tuple((a + b) % mod for a, b in zip(h, step)) for h in base)
            step = tuple((a + b) % mod for a, b in zip(step, g))
    group.discard(zero)
    return mod, group


def surface_chain_sorted(resolved: Fan, original: Fan) -> tuple[int, ...]:
    """`toric.surface_chain` by sorting the resolved fan's rays by angle.

    The rays are ordered by the sign of their cross products and must run
    from one original ray to the other; the cones themselves are not read.
    """
    if resolved.ambient != 2:
        raise ValueError("chains only make sense for surfaces")
    (cone0,) = original.maximal
    v0, v1 = cone0.rays
    if v0[0] * v1[1] - v0[1] * v1[0] < 0:
        v0, v1 = v1, v0

    def cmp(a, b):
        cr = a[0] * b[1] - a[1] * b[0]
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    ordered = sorted(resolved.rays(), key=cmp_to_key(cmp))
    if ordered[0] != v0:
        ordered = ordered[::-1]
    if ordered[0] != v0 or ordered[-1] != v1:
        raise ValueError("resolved fan does not refine the original cone")
    chain = []
    for i in range(1, len(ordered) - 1):
        s = tuple(x + y for x, y in zip(ordered[i - 1], ordered[i + 1]))
        t = next(j for j in range(2) if ordered[i][j] != 0)
        b, rem = divmod(s[t], ordered[i][t])
        if rem != 0 or tuple(b * x for x in ordered[i]) != s:
            raise RuntimeError("rays do not satisfy the smooth chain relation")
        chain.append(-b)
    return tuple(chain)


def projective_space_fan(n: int) -> Fan:
    """Fan of n-dimensional projective space."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple([-1] * n))
    cones = [
        cone_from_rays([rays[j] for j in range(n + 1) if j != skip], ambient=n)
        for skip in range(n + 1)
    ]
    return fan_from_cones(cones, ambient=n)


def product_of_lines_fan() -> Fan:
    """Fan of the product of two projective lines."""
    cones = [cone_from_rays([(sx, 0), (0, sy)], ambient=2) for sx in (1, -1) for sy in (1, -1)]
    return fan_from_cones(cones, ambient=2)


# --- K3 surfaces ---------------------------------------------------------------

def k3_graded_invariants(spec: K3ActionSpec) -> GradedInvariants:
    """Module invariants of the K3 surface itself under the row's action."""
    one = DegreeInvariants.make(rank=1, l_plus=1)
    zero = DegreeInvariants.make()
    h2 = DegreeInvariants.make(rank=K3_B2, l_plus=spec.l_plus_2, l_pf=spec.l_p_2)
    return GradedInvariants(p=spec.p, n=2, eta=spec.n_sing, degrees=(one, zero, h2, zero, one))
