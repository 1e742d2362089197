"""Fans, regularity, and resolutions of cyclic quotient singularities.

The quotient of affine n-space by the diagonal order-p action with
weights (a_1, ..., a_n) coprime to p is the toric variety of the standard
positive cone viewed in the refined lattice Z^n + Z*(a_1,...,a_n)/p; a
resolution is any regular subdivision of its fan, and downstream
invariants do not depend on the one chosen.  `quotient_fan` reads the
cone's rays off one Smith form of [p I | weights]; they are primitive and
independent by construction, so the cone is built trusted, with one gcd
check per ray.

In dimension 2 `resolve` builds each cone's Hirzebruch-Jung chain
directly: the continued fraction of D/q, D the cone's determinant and q
read off a Bezout functional of its first ray, gives the new rays one by
one, and the output certifies itself in O(r) for r new rays (each new
cone has determinant +-1 and the chain closes at the second ray).  The
exceptional chain and its intersection matrix are the same
continued-fraction data, the determinant checked by its continuant in
O(r).  `surface_chain`, the independent check that the resolved fan's
rays satisfy the smooth chain relation, puts them in order by one walk
over the resolved cones from the first original ray to the second, also
O(r), and refuses a fan whose cones do not tile the original cone once.

From dimension 3 on, the subdivision repeatedly stellar-subdivides the
non-regular cone with the least rays at the primitive lattice point of
minimal positive weight in its fundamental parallelepiped (the least such
point on a tie), which strictly decreases cone multiplicities and so
terminates.  Every cone, full or lower-dimensional, is judged once by
`_judge`: the determinant and adjugate of its ray matrix in a basis of
the saturated span of its rays.  `resolve` holds each cone as its sorted
ray tuple and keeps the non-regular ones in a heap.  The point is found
in one walk of the parallelepiped, of order the cone's multiplicity,
that keeps only the least weight and its ties; the walk runs over the
multiples of the first adjugate column of order D, found by reducing the
columns mod D one at a time, and a lone least point is mapped into the
lattice without a `min`.  The walk holds the point's coordinates: w =
sum (lam_i / D) ray_i gives mu = adj(C) P w = sign(det C) lam, so the
target's support and w's face {i : lam_i > 0} need no solve.  A point
in the target's interior, as in most rounds, lies in no other cone, and
the round looks nothing up.  Otherwise the cones containing it are found
by intersecting the ray -> cones sets of the face's rays, smallest set
first: CPython's intersection walks the smaller of two sets and each
later set only filters that result, so a round pays for its smallest
face-ray set rather than for an original ray's, which grows with the
fan.  That index is built on first need, once, from the cones alive at
the first round whose point lies on a proper face (O(cones), bounded by
the output), and kept up from then on; a resolution whose rounds are all
interior never builds it.  A new cone spans what its parent spans, so
its judgement is a rank-one update of the parent's in the same basis,
made only when a later round reads the cone; one `_split` call gives all
children of a subdivided cone with their pending updates.  The cones the
package derives itself, here and in the plane, are built by
`Cone._trusted` and `Fan._trusted`, which set the two slots of the
frozen record through its slot descriptors.  Regularity alone
(`is_regular`, `is_simplicial`) reads a full-dimensional cone's |det|
from one elimination, without the adjugate.  Only combinatorial data of
these resolutions is reported.  In dimension 2 the stellar rounds reach
the same fan, and the tests keep them as the oracle for the chain.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from heapq import heapify, heappop, heappush
from itertools import repeat
from math import comb, gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .intmat import (
    CohGroup,
    IntMatrix,
    _Frozen,
    _smith,
    _xgcd,
    det_adjugate,
    is_prime,
    primitive_vector,
)


class Cone(_Frozen):
    """Cone spanned by primitive integer ray generators (strongly convex)."""

    __slots__ = ("rays", "ambient")

    def __init__(self, rays: tuple[tuple[int, ...], ...], ambient: int):
        for r in rays:
            if len(r) != ambient:
                raise ValueError("ray has wrong length")
            if all(x == 0 for x in r):
                raise ValueError("zero ray")
            if r != primitive_vector(r):
                raise ValueError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate rays")
        _Frozen.__init__(self, rays, ambient)

    @classmethod
    def _trusted(cls, rays: tuple[tuple[int, ...], ...], ambient: int) -> "Cone":
        """A cone from sorted, distinct, primitive rays of length `ambient`, built unchecked.

        For cones the package builds itself from validated input, where the
        caller has certified every ray: quotient_fan's Smith form columns,
        the Hirzebruch-Jung chains and the stellar rounds' new rays.
        """
        cone = _new(cls)
        # set through the slot descriptors, captured once: resolve builds thousands of
        # these, and setting the slots by name (object.__setattr__) took 0.75 us a cone
        # against 0.31 us here (Python 3.11)
        _set_cone_rays(cone, rays)
        _set_cone_ambient(cone, ambient)
        return cone

    def ray_matrix(self) -> IntMatrix:
        """Rays as columns."""
        return IntMatrix([list(r) for r in self.rays], ncols=self.ambient).transpose()

    def is_simplicial(self) -> bool:
        return self._index() != 0

    def _index(self) -> int:
        """Index of the span of the rays in its saturation; 0 for dependent rays.

        A full-dimensional cone reads |det| of its rays from one Bareiss
        elimination (IntMatrix.det), without the adjugate that `_judge`
        builds alongside; any other cone reads |det| of its `_judge`.
        """
        if len(self.rays) == self.ambient:
            return abs(IntMatrix._trusted(self.rays, self.ambient).det())
        try:
            return abs(_judge(self)[1])
        except ValueError:
            return 0


def _judge(c: Cone) -> tuple:
    """(P, det C, adj C) for the ray matrix C = P R of c in its span's coordinates.

    P is the first d rows of u from one Smith form u R v = D of the n x d
    ray matrix R: the last n - d rows of u vanish on the span of the
    rays, so P maps the lattice points of that span isomorphically onto
    Z^d and |det C| is the index of the rays' span in its saturation.  A
    full-dimensional cone takes P = None and C = R.  Dependent rays raise
    ValueError.
    """
    d = len(c.rays)
    if d == c.ambient:
        return (None, *det_adjugate(tuple(zip(*c.rays))))
    snf = _smith(c.ray_matrix(), u=True)
    if snf.rank != d:
        raise ValueError("coordinates need a simplicial cone")
    basis = snf.u.rows[:d]
    return (basis, *det_adjugate([[sum(map(mul, row, r)) for r in c.rays] for row in basis]))


def is_regular(c: Cone) -> bool:
    """True iff the rays extend to a basis of the ambient lattice."""
    return c._index() == 1


class Fan(_Frozen):
    """Fan given by its maximal cones; faces are implied."""

    __slots__ = ("maximal", "ambient")

    def __init__(self, maximal: tuple[Cone, ...], ambient: int):
        for c in maximal:
            if c.ambient != ambient:
                raise ValueError("mixed ambient dimensions")
        _Frozen.__init__(self, maximal, ambient)

    @classmethod
    def _trusted(cls, maximal: tuple[Cone, ...], ambient: int) -> "Fan":
        """A fan from cones of ambient dimension `ambient`, built unchecked.

        The twin of Cone._trusted, for the fans of quotient_fan and
        resolve, whose cones they built themselves in the fan's ambient
        dimension.
        """
        fan = _new(cls)
        _set_fan_maximal(fan, maximal)
        _set_fan_ambient(fan, ambient)
        return fan

    def rays(self) -> tuple[tuple[int, ...], ...]:
        out = {r for c in self.maximal for r in c.rays}
        return tuple(sorted(out))

    def all_cones_by_dim(self) -> dict[int, int]:
        """Counts of cones per dimension (faces of simplicial maximal cones)."""
        seen: set[frozenset] = set()
        counts: dict[int, int] = {}
        for c in self.maximal:
            if not c.is_simplicial():
                raise ValueError("face counting implemented for simplicial fans")
            nrays = len(c.rays)
            for mask in range(1 << nrays):
                sub = frozenset(c.rays[i] for i in range(nrays) if mask >> i & 1)
                if sub not in seen:
                    seen.add(sub)
                    counts[bin(mask).count("1")] = counts.get(bin(mask).count("1"), 0) + 1
        return counts

    def is_complete(self) -> bool:
        """Facet-pairing completeness test for full-dimensional simplicial fans."""
        n = self.ambient
        facets: dict[frozenset, int] = {}
        for c in self.maximal:
            if len(c.rays) != n or not c.is_simplicial():
                return False
            for i in range(n):
                f = frozenset(c.rays[:i] + c.rays[i + 1:])
                facets[f] = facets.get(f, 0) + 1
        return all(v == 2 for v in facets.values())


# the trusted constructors set a record's two slots through these, captured once
_new = object.__new__
_set_cone_rays, _set_cone_ambient = Cone.rays.__set__, Cone.ambient.__set__
_set_fan_maximal, _set_fan_ambient = Fan.maximal.__set__, Fan.ambient.__set__


class CyclicSingularity(_Frozen):
    """Isolated quotient point of type (1/p)(a_1, ..., a_n)."""

    __slots__ = ("p", "weights")

    def __init__(self, p: int, weights: Sequence[int]):
        weights = tuple(weights)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if len(weights) < 2:
            raise ValueError("need dimension at least 2")
        for a in weights:
            if not (1 <= a <= p - 1):
                raise ValueError(f"weight {a} outside 1..{p - 1}")
            if gcd(a, p) != 1:
                raise ValueError("weights must be coprime to p (isolated fixed point)")
        _Frozen.__init__(self, p, weights)


def quotient_fan(s: CyclicSingularity) -> Fan:
    """Fan of the quotient: the standard positive cone in the refined lattice.

    The refined lattice Z^n + Z*(weights)/p is normalized to Z^n by a
    change of basis B; the standard basis vectors become the (primitivized)
    rays of an index-p simplicial cone, ray i solving B y = p e_i.  One
    Smith form u M v = d of the n x (n+1) matrix M = [p I | weights] gives
    both: the columns of B = u^-1 D, D = diag(d_1, ..., d_n), generate
    p * (refined lattice), so p B^-1 = diag(p / d_j) u and ray i is column
    i of that.  Every e_i lies in the refined lattice iff M has rank n and
    each d_j divides p, the rows of u being primitive.

    The cone and the fan are built trusted: every entry is an int and every
    column has length n by construction, and the rank-n check makes the
    columns independent, so none is zero and no two coincide.  Column i
    holds the coordinates of e_i, a primitive vector of the refined
    lattice, in a basis of that lattice, so it is primitive already; a
    column with gcd != 1 raises RuntimeError instead of being divided out.
    """
    n, p = len(s.weights), s.p
    m = IntMatrix._trusted(
        tuple((0,) * i + (p,) + (0,) * (n - 1 - i) + (a,) for i, a in enumerate(s.weights)), n + 1)
    snf = _smith(m, u=True)
    if snf.rank != n or any(p % d for d in snf.diagonal):
        raise RuntimeError("standard basis vector missing from the refined lattice")
    scaled = [[p // d * x for x in row] for d, row in zip(snf.diagonal, snf.u.rows)]
    columns = sorted(zip(*scaled))
    if any(gcd(*col) != 1 for col in columns):
        raise RuntimeError("quotient cone ray is not primitive")
    return Fan._trusted((Cone._trusted(tuple(columns), n),), n)


def _parallelepiped(judged: tuple) -> tuple[int, Iterable[tuple[int, ...]]]:
    """(D, each D * lam once) for the nonzero lattice points sum lam_i ray_i, each lam_i in [0, 1).

    These are the nonzero lattice points of the fundamental parallelepiped
    of the judged cone, all with denominator D = |det C|: as P is an
    isomorphism on the span's lattice points, they are those with C lam
    integral, that is lam = c / D for c = +-adj(C) x mod D, x in Z^d, the
    subgroup of order D of (Z/D)^d generated by the columns of adj(C).
    They stream out as the multiples of the first column of largest order
    D / gcd(D, column).  The columns are reduced mod D one at a time and
    the first with gcd(D, column) = 1, of order D, is taken at once, as it
    nearly always can be: its multiples are stored nowhere.  Only when no
    column has order D are all the orders computed; then a membership set
    takes the multiples of the first column of largest order and the other
    columns add cosets.
    """
    _, det, adj = judged
    mod = abs(det)
    cols = []
    for col in zip(*adj):
        col = tuple(map(mod.__rmod__, col))
        if gcd(mod, *col) == 1:
            gen, order = col, mod
            break
        cols.append(col)
    else:
        orders = [mod // gcd(mod, *col) for col in cols]
        order = max(orders)
        gen = cols.pop(orders.index(order))
    # t gen mod D for t = 1 .. order - 1, one coordinate per iterator
    multiples = zip(*[map(mod.__rmod__, range(x, x * order, x)) if x else repeat(0, order - 1) for x in gen])
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


def _lattice_point(rays: tuple[tuple[int, ...], ...], lam: Sequence[int], mod: int) -> tuple[int, ...]:
    """The ambient point sum (lam_i / mod) ray_i."""
    return tuple([sum(map(mul, lam, col)) // mod for col in zip(*rays)])


def _stellar_point(rays: tuple[tuple[int, ...], ...],
                   judged: tuple) -> tuple[tuple[int, ...], tuple, tuple]:
    """(w, mu, face) for the parallelepiped point w of least weight sum(lam_i), the least among ties.

    The weights share the denominator D, so the integer sums decide: one
    pass keeps the running least sum and its tied points, and only those
    are mapped into the ambient lattice; a lone least point, as in most
    rounds, is mapped without a `min`.  The walk holds w's coordinates:
    w = sum (lam_i / D) ray_i, so P w = C lam / D and mu = adj(C) P w =
    det(C) lam / D = sign(det) lam, and w's face is {i : lam_i > 0}.  That
    is `_support(judged, w)`, read without the solve.
    """
    mod, points = _parallelepiped(judged)
    least, tied = len(judged[2]) * mod, []
    for lam in points:
        s = sum(lam)
        if s <= least:
            if s < least:
                least, tied = s, []
            tied.append(lam)
    if len(tied) == 1:
        lam = tied[0]
        w = _lattice_point(rays, lam, mod)
    else:
        w, lam = min((_lattice_point(rays, lam, mod), lam) for lam in tied)
    mu = lam if judged[1] > 0 else tuple([-x for x in lam])
    return w, mu, tuple([i for i, x in enumerate(lam) if x])


def _support(judged: tuple, w: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """(mu, positions i with lam_i > 0) for w = sum lam_i ray_i in the judged cone's span.

    mu = adj(C) P w = det(C) lam, so det * mu has the signs of lam and no
    division is needed; a full-dimensional cone reads w itself.
    """
    basis, det, adj = judged
    x = w if basis is None else [sum(map(mul, row, w)) for row in basis]
    mu = [sum(map(mul, a, x)) for a in adj]
    return mu, [i for i, m in enumerate(mu) if det * m > 0]


def _split(rays: tuple[tuple[int, ...], ...], parent: tuple, mu: Sequence[int], support: Iterable[int],
           w: tuple[int, ...]) -> list[tuple[tuple[tuple[int, ...], ...], tuple]]:
    """The children of the cone `rays` subdivided at w: for each i in `support`, ray i replaced by w.

    Each child is its sorted rays and its pending judgement, `_rank_one`'s
    arguments (parent, mu, i, k) with w moving to sorted position k; |det|
    of the child is |mu_i| already.  w is not a ray of the cone, so its
    place among the rays is found once: it lands at k0 = bisect_left(rays,
    w), one place earlier when the ray removed stands before it.
    """
    k0 = bisect_left(rays, w)
    out = []
    for i in support:
        new = list(rays)
        del new[i]
        k = k0 - 1 if i < k0 else k0
        new.insert(k, w)
        out.append((tuple(new), (parent, mu, i, k)))
    return out


def _rank_one(judged: tuple, mu: Sequence[int], i: int, k: int) -> tuple:
    """The judgement of the cone with ray i replaced by w, from its parent's judgement.

    w lies in the parent's span and mu_i != 0, so the new cone spans the
    same and keeps its P; its C' is C with column i replaced by P w, and
    this is a rank-one update (Sherman-Morrison in adjugate form), O(d^2):
    with mu = adj(C) P w, det C' = mu_i, row i of adj C' is adj_i, and row
    j != i is (mu_i adj_j - mu_j adj_i) / det C, an exact division; at
    j = i that would be 0, so row i is not computed.
    Sorting carries w from position i to position k, a cycle of |k - i|
    transpositions, so the rows of adj move with it and both det and adj
    take the sign (-1)^|k - i|.  That sign is folded into mu_i and adj_i
    first: every row j != i is linear in the pair, so it comes out
    negated with them.
    """
    basis, det, adj = judged
    mu_i, adj_i = mu[i], adj[i]
    if (k - i) % 2:
        mu_i, adj_i = -mu_i, tuple([-x for x in adj_i])
    new = [tuple([(mu_i * x - mu_j * y) // det for x, y in zip(a, adj_i)])
           for j, (a, mu_j) in enumerate(zip(adj, mu)) if j != i]
    new.insert(k, adj_i)
    return basis, mu_i, tuple(new)


def _hirzebruch_jung(c: Cone) -> list[Cone]:
    """The regular cones of the minimal subdivision of a plane cone, certified.

    For rays v0 < v1 with D = |det(v0, v1)| > 1, take y with y . v0 = 1
    (v0 is primitive) and q = -(y . v1) mod D in [1, D).  Then
    u1 = (q v0 + v1) / D is integral, and u0 = v0,
    u_(i+1) = b_i u_i - u_(i-1) along the continued fraction
    D/q = [b_1, ..., b_r] runs through the r new rays to u_(r+1) = v1
    (Fulton, Introduction to Toric Varieties, 2.6).  The chain is checked
    to close at v1, and each consecutive pair to have determinant +-1,
    which also makes its rays primitive and distinct: O(r) in all.
    """
    if len(c.rays) < 2:
        return [c]
    (v0, v1), rest = c.rays[:2], c.rays[2:]
    det = abs(v0[0] * v1[1] - v0[1] * v1[0])
    if rest or not det:
        raise ValueError("resolution implemented for simplicial fans")
    if det == 1:
        return [c]
    _, x, y = _xgcd(abs(v0[0]), abs(v0[1]))  # (x, y) . |v0| = 1
    x, y = (x if v0[0] >= 0 else -x), (y if v0[1] >= 0 else -y)
    q = -(x * v1[0] + y * v1[1]) % det
    prev, cur = v0, ((q * v0[0] + v1[0]) // det, (q * v0[1] + v1[1]) // det)
    chain = [prev, cur]
    for b in hj_continued_fraction(det, q):
        prev, cur = cur, (b * cur[0] - prev[0], b * cur[1] - prev[1])
        chain.append(cur)
    if cur != v1:
        raise RuntimeError("Hirzebruch-Jung chain does not close at the cone's second ray")
    cones = []
    for u, v in zip(chain, chain[1:]):
        if abs(u[0] * v[1] - u[1] * v[0]) != 1:
            raise RuntimeError("Hirzebruch-Jung chain has a non-regular cone")
        cones.append(Cone._trusted((u, v) if u < v else (v, u), 2))
    return cones


def _cones_through(on_ray: dict, rays: Sequence[tuple[int, ...]]) -> set:
    """The cones holding every one of `rays`: the intersection of their ray -> cones sets.

    CPython's set intersection walks the smaller of its first two sets and
    each later one only filters that result, so the sets go smallest
    first and the lookup costs the smallest of them.  An original ray's
    set grows with the fan, so a face led by two original rays would
    otherwise walk a set of that size.
    """
    stars = sorted((on_ray[r] for r in rays), key=len)
    return stars[0].intersection(*stars[1:])


def _ray_index(cones: Iterable[tuple[tuple[int, ...], ...]]) -> defaultdict:
    """The ray -> cones index of `cones`, each a sorted ray tuple: O(cones) to build."""
    on_ray: defaultdict[tuple[int, ...], set] = defaultdict(set)
    for c in cones:
        for r in c:
            on_ray[r].add(c)
    return on_ray


def resolve(f: Fan) -> Fan:
    """Regular subdivision with the same support.

    Precondition: the cones form a fan, that is any two meet in a common
    face, and none is a face of another: they are its maximal cones.
    `quotient_fan`'s single cone does, and subdivision keeps both
    properties.

    In the plane each cone is subdivided on its own by its
    Hirzebruch-Jung chain (`_hirzebruch_jung`), certified cone by cone in
    O(r) for r new rays: the minimal resolution, and the one the stellar
    rounds below reach too.  Its cones, all built in ambient 2, are sorted
    by their rays and the fan is built by `Fan._trusted`.

    From dimension 3 on, each round takes the non-regular cone with the
    least rays, stellar-subdivides it at `_stellar_point` w, and with it
    every cone that contains w: by the fan property these are the cones
    holding every ray of the target's face that has w in its relative
    interior.  The walk that finds w also gives the target's (mu, face),
    mu = sign(det C) lam for w = sum (lam_i / D) ray_i, equal to
    `_support` of w without its solve.  When the face is the whole target
    (w interior), the target is the only such cone, since a maximal cone
    is a face of no other.  Otherwise `_cones_through` finds them in a ray
    -> cones index, built by `_ray_index` at the first such round, once,
    from the cones then alive (O(cones), bounded by the output), and kept
    up from then on; `_support` is read once for each cone it returns
    other than the target.  Each such cone is replaced by the cones with
    one of those rays swapped for w, all from one `_split` call, whose
    judgements wait as pending rank-one updates until a round reads the
    cone, as its target or as a cone holding its w; a cone that reaches
    the output is never judged, and |mu_i| alone decides the heap.  So a
    round costs the stellar point, on a proper face the smallest ray ->
    cones set among the face's rays (a superset of the cones it returns),
    O(n^2) per cone it reads and a heap operation, not a pass over the
    fan; termination holds because each subdivision strictly decreases
    multiplicities.  The rounds hold each cone as its sorted ray tuple,
    unique in the fan, which Python hashes and orders in C; a `Cone` is
    built only for the output, and the output `Fan` by `Fan._trusted`.
    """
    n = f.ambient
    if n == 2:
        cones = [d for c in f.maximal for d in _hirzebruch_jung(c)]
        return Fan._trusted(tuple(sorted(cones, key=lambda c: c.rays)), 2)
    try:
        judged = {c.rays: _judge(c) for c in f.maximal}
    except ValueError:
        raise ValueError("resolution implemented for simplicial fans") from None
    on_ray = None  # the ray -> cones index, built at the first round that needs it
    bad = [c for c, (_, det, _) in judged.items() if abs(det) != 1]
    heapify(bad)
    while bad:
        target = heappop(bad)
        if target not in judged:
            continue  # subdivided since it was queued
        read = judged[target]
        if len(read) == 4:  # pending: _rank_one's arguments
            read = judged[target] = _rank_one(*read)
        w, mu, face = _stellar_point(target, read)
        # the one new ray of the round, so the new cones need no checks of their own
        if gcd(*w) != 1 or w in target:
            raise RuntimeError(f"stellar point {w} is not a new primitive ray")
        if len(face) == len(target):
            holding = (target,)  # w is interior to the target, which no other cone contains
        else:
            if on_ray is None:
                on_ray = _ray_index(judged)
            holding = _cones_through(on_ray, [target[i] for i in face])
        for c in holding:
            parent = judged.pop(c)
            if len(parent) == 4:
                parent = _rank_one(*parent)
            if on_ray is not None:
                for r in c:
                    on_ray[r].discard(c)
            c_mu, support = (mu, face) if c == target else _support(parent, w)
            for cone, pending in _split(c, parent, c_mu, support, w):
                judged[cone] = pending
                if on_ray is not None:
                    for r in cone:
                        on_ray[r].add(cone)
                if abs(c_mu[pending[2]]) != 1:
                    heappush(bad, cone)
    return Fan._trusted(tuple([Cone._trusted(c, n) for c in sorted(judged)]), n)


class HJResolution(NamedTuple):
    chain: tuple[int, ...]

    @property
    def exceptional_gram(self) -> IntMatrix:
        """The tridiagonal intersection matrix: the chain on the diagonal, 1 beside it.

        Built when read; hj_resolution's continuant has certified its
        determinant, so it skips the checking constructor.
        """
        r = len(self.chain)
        return IntMatrix._trusted(
            tuple(tuple(self.chain[i] if i == j else int(abs(i - j) == 1) for j in range(r))
                  for i in range(r)), r)


def hj_continued_fraction(p: int, a: int) -> list[int]:
    """p/a = b_1 - 1/(b_2 - 1/(...)) with all b_i >= 2."""
    if not (1 <= a < p):
        raise ValueError("need 1 <= a < p")
    out = []
    num, den = p, a
    while den > 0:
        b = -(-num // den)  # ceiling
        out.append(b)
        num, den = den, b * den - num
    return out


def _continuant(bs: Sequence[int]) -> int:
    """Determinant of the tridiagonal matrix with diagonal -b_1..-b_r and 1 beside it.

    Expanding along the last row gives D_k = -b_k D_(k-1) - D_(k-2) with
    D_0 = 1 and D_(-1) = 0: O(r) instead of an elimination.
    """
    before, det = 0, 1
    for b in bs:
        before, det = det, -b * det - before
    return det


def hj_resolution(p: int, a: int) -> HJResolution:
    """Exceptional chain of the surface singularity (1/p)(1, a).

    The chain of self-intersections is (-b_1, ..., -b_r) for the
    continued-fraction expansion of p/a; the intersection matrix is the
    tridiagonal matrix with that diagonal and 1 off the diagonal, of
    determinant +-p, checked by its continuant.  The result holds the chain
    alone; its exceptional_gram builds the matrix when read.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    bs = hj_continued_fraction(p, a)
    if abs(_continuant(bs)) != p:
        raise RuntimeError("exceptional intersection matrix has wrong determinant")
    return HJResolution(chain=tuple(-b for b in bs))


def surface_chain(resolved: Fan, original: Fan) -> tuple[int, ...]:
    """Self-intersection chain read off a resolved 2-dimensional fan.

    Consecutive rays v_(i-1) + v_(i+1) = b_i * v_i determine the chain
    (-b_1, ..., -b_r) of the new rays between the two original ones.

    The rays are put in order by a walk over the cones, O(r) for r new
    rays: the original rays are named so that v0 x v1 > 0, every cone of
    `resolved` must have two rays a, b, named so that a x b > 0, and a
    maps to b.  The walk starts at v0 and follows the map to v1, each ray
    on the way strictly inside the original cone.  A cone with another
    number of rays or with opposite rays, two cones that start at the same
    ray, a walk that breaks off or leaves the cone, and a cone left over
    after it are all refused as not refining the original cone: what
    passes is a chain of cones turning one way from v0 to v1, which tile
    the original cone once.
    """
    if resolved.ambient != 2:
        raise ValueError("chains only make sense for surfaces")
    (cone0,) = original.maximal
    v0, v1 = cone0.rays
    if v0[0] * v1[1] - v0[1] * v1[0] < 0:
        v0, v1 = v1, v0
    refused = "resolved fan does not refine the original cone"
    after = {}
    for c in resolved.maximal:
        if len(c.rays) != 2:
            raise ValueError(refused)
        a, b = c.rays
        cross = a[0] * b[1] - a[1] * b[0]
        if cross < 0:
            a, b = b, a
        if not cross or a in after:
            raise ValueError(refused)
        after[a] = b
    (x0, y0), (x1, y1) = v0, v1
    ordered = [v0]
    ray = after.pop(v0, None)
    while ray != v1:
        # the walk broke off, or reached a ray on or outside the original cone's boundary
        if ray is None or x0 * ray[1] <= y0 * ray[0] or ray[0] * y1 <= ray[1] * x1:
            raise ValueError(refused)
        ordered.append(ray)
        ray = after.pop(ray, None)
    if after:
        raise ValueError(refused)
    ordered.append(v1)
    chain = []
    for (xp, yp), (x, y), (xn, yn) in zip(ordered, ordered[1:], ordered[2:]):
        sx, sy = xp + xn, yp + yn
        b = sx // x if x else sy // y
        if b * x != sx or b * y != sy:
            raise RuntimeError("rays do not satisfy the smooth chain relation")
        chain.append(-b)
    return tuple(chain)


_Z = CohGroup(1, ())
_ZERO = CohGroup(0, ())


def punctured_quotient_cohomology(p: int, n: int) -> list[CohGroup]:
    """Integral cohomology of the punctured quotient (C^n minus 0)/G.

    Degrees 0..2n: Z in degree 0, Z/p in each positive even degree below
    the top, Z in degree 2n-1, zero elsewhere.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 2:
        raise ValueError("need n >= 2")
    out = [_ZERO] * (2 * n + 1)
    out[0] = _Z
    for m in range(1, n):
        out[2 * m] = CohGroup(0, (p,))
    out[2 * n - 1] = _Z
    return out


def relative_quotient_cohomology(p: int, n: int) -> list[CohGroup]:
    """Cohomology of the pair (quotient, punctured quotient).

    The cone point is contractible, so the long exact sequence shifts the
    punctured cohomology: zero in degrees 0 and 1, Z/p in odd degrees
    3, 5, ..., 2n-1, and Z on top.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 2:
        raise ValueError("need n >= 2")
    out = [_ZERO] * (2 * n + 1)
    for m in range(2, n + 1):
        out[2 * m - 1] = CohGroup(0, (p,))
    out[2 * n] = _Z
    return out


def betti_complete_smooth(f: Fan) -> list[int]:
    """Even Betti numbers (b_0, b_2, ..., b_2n) of a complete regular fan.

    b_2k = sum over i of (-1)^(i-k) C(i, k) d_(n-i), where d_j counts the
    j-dimensional cones; odd cohomology vanishes.
    """
    n = f.ambient
    if not all(is_regular(c) for c in f.maximal):
        raise ValueError("fan is not regular")
    if not f.is_complete():
        raise ValueError("fan is not complete")
    counts = f.all_cones_by_dim()
    d = [counts.get(j, 0) for j in range(n + 1)]
    return [
        sum((-1) ** (i - k) * comb(i, k) * d[n - i] for i in range(k, n + 1))
        for k in range(n + 1)
    ]
