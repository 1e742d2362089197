import contextlib
import copy
import hashlib
import io
import itertools
import json
import pathlib
import pickle
import random
import time
import tracemalloc
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotcoh.cli import main
from quotcoh import toric
from quotcoh.toric import (
    _continuant,
    _lattice_point,
    _parallelepiped,
    _rank_one,
    _split,
    CohGroup,
    Cone,
    CyclicSingularity,
    Fan,
    betti_complete_smooth,
    hj_continued_fraction,
    hj_resolution,
    is_regular,
    punctured_quotient_cohomology,
    quotient_fan,
    relative_quotient_cohomology,
    resolve,
    surface_chain,
)
from quotcoh.lattices import Lattice, signature
from quotcoh.intmat import (
    IntMatrix, _Frozen, _smith, det_adjugate, image_basis, is_prime, primitive_vector, smith_decomposition,
)
from reference import (
    adjugate_quotient_fan, cone_from_rays, coordinates_of, fan_from_cones, parallelepiped_all_orders,
    product_of_lines_fan, projective_space_fan, solve_integer, surface_chain_sorted,
)

PROPS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


class TestCones:
    def test_standard_cone_regular(self):
        assert is_regular(cone_from_rays([(1, 0), (0, 1)]))

    def test_index_two_cone(self):
        assert not is_regular(cone_from_rays([(1, 0), (1, 2)]))

    def test_index_two_in_dimension_three(self):
        assert not is_regular(cone_from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2)]))

    def test_non_simplicial_is_not_regular(self):
        c = cone_from_rays([(1, 0), (0, 1), (1, 1)])
        assert not c.is_simplicial()
        assert not is_regular(c)

    def test_empty_fan_needs_its_ambient_dimension(self):
        # the same refusal as the zero cone's, not an IndexError
        with pytest.raises(ValueError, match="ambient dimension needed for the zero cone"):
            cone_from_rays([])
        with pytest.raises(ValueError, match="ambient dimension needed for the empty fan"):
            fan_from_cones([])
        assert fan_from_cones([], ambient=3) == Fan((), 3)

    def test_rays_primitivized(self):
        c = cone_from_rays([(2, 4)])
        assert c.rays == ((1, 2),)

    def test_checked_constructor_refuses_bad_rays(self):
        for rays, ambient in ((((2, 4),), 2), (((1, 0), (1, 0)), 2), (((0, 0),), 2), (((1, 0, 0),), 2)):
            with pytest.raises(ValueError):
                Cone(rays, ambient)

    def test_trusted_cone_is_the_checked_cone(self):
        rays = ((0, 0, 1), (1, 0, 0), (1, 2, 0))
        trusted, checked = Cone._trusted(rays, 3), Cone(rays, 3)
        assert trusted == checked and hash(trusted) == hash(checked)
        assert (trusted.rays, trusted.ambient) == (rays, 3)
        # and the fan's twin
        fan, checked_fan = Fan._trusted((trusted,), 3), Fan((checked,), 3)
        assert fan == checked_fan and hash(fan) == hash(checked_fan)
        assert (fan.maximal, fan.ambient) == ((trusted,), 3)
        # set through their slots, the records stay frozen, and copy and pickle keep every field
        for record, fields in ((trusted, ("rays", "ambient")), (fan, ("maximal", "ambient"))):
            for name in fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))
                with pytest.raises(AttributeError):
                    delattr(record, name)
                assert getattr(record, name) is not None
            for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
                assert twin == record and type(twin) is type(record) and twin is not record
                assert [getattr(twin, name) for name in fields] == [getattr(record, name) for name in fields]

    def test_membership(self):
        c = cone_from_rays([(1, 0), (1, 2)])
        assert _contains(c, (1, 1))
        assert _contains(c, (1, 2))
        assert not _contains(c, (-1, 0))
        assert not _contains(c, (0, 1))


@st.composite
def ray_lists(draw):
    """(rays, ambient or None): short integer rays, some zero, repeated up to a
    multiple, of the wrong length, or holding a float."""
    n = draw(st.integers(1, 4))
    entries = st.integers(-4, 4)
    ray = st.one_of(
        st.lists(entries, min_size=n, max_size=n),
        st.lists(entries, min_size=n, max_size=n).map(lambda r: [2 * x for x in r]),
        st.just([0] * n),
        st.lists(entries, min_size=1, max_size=n + 1),
        st.lists(entries, min_size=n, max_size=n).map(lambda r: r[:-1] + [r[-1] + 0.5]),
    )
    rays = draw(st.lists(ray, max_size=5))
    rays += draw(st.lists(st.sampled_from(rays), max_size=2)) if rays else []
    return rays, draw(st.sampled_from([n, None]))


@PROPS
@given(ray_lists())
def test_from_rays_is_the_checked_constructor(case):
    # the oracle cone_from_rays checks once and ends in Cone._trusted, so it must
    # accept exactly what Cone accepts, and refuse the rest in order: a float entry,
    # a zero ray, a wrong length, then two rays with one primitive multiple
    rays, ambient = case
    n = ambient if ambient is not None else len(rays[0]) if rays else None
    if any(isinstance(x, float) for r in rays for x in r):
        refusal = TypeError, "'float' object cannot be interpreted as an integer"
    elif n is None:
        refusal = ValueError, "ambient dimension needed for the zero cone"
    elif not all(any(r) for r in rays):
        refusal = ValueError, "zero vector has no primitive multiple"
    elif any(len(r) != n for r in rays):
        refusal = ValueError, "ray has wrong length"
    elif len({primitive_vector(r) for r in rays}) != len(rays):
        refusal = ValueError, "duplicate rays"
    else:
        cone = cone_from_rays(rays, ambient)
        checked = Cone(tuple(sorted(primitive_vector(r) for r in rays)), n)
        assert cone == checked and hash(cone) == hash(checked)
        assert (cone.rays, cone.ambient) == (checked.rays, checked.ambient)
        return
    kind, message = refusal
    with pytest.raises(kind) as refused:
        cone_from_rays(rays, ambient)
    assert type(refused.value) is kind and str(refused.value) == message


def _oracle_coordinates(rays, ambient, point):
    """Exact rational Gauss elimination of the (ambient x d | point) system.

    An independent route to the barycentric coordinates: None outside the
    linear span, ValueError for dependent rays.
    """
    d = len(rays)
    a = [[Fraction(rays[j][i]) for j in range(d)] + [Fraction(point[i])] for i in range(ambient)]
    pivots = []
    r = 0
    for col in range(d):
        piv = next((i for i in range(r, ambient) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(ambient):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    if len(pivots) != d:
        raise ValueError("dependent rays")
    if any(a[i][d] != 0 for i in range(r, ambient)):
        return None
    lam = [Fraction(0)] * d
    for row_idx, col in enumerate(pivots):
        lam[col] = a[row_idx][d]
    return tuple(lam)


def _contains(c, point):
    """Membership of a point in the cone, by the rational oracle's coordinates."""
    lam = _oracle_coordinates(c.rays, c.ambient, point)
    return lam is not None and min(lam, default=0) >= 0


def _oracle_det(rows):
    """Determinant as the product of the pivots of a rational elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


def _oracle_multiplicity(c):
    """gcd of the maximal minors of the ray matrix: 0 iff the rays are dependent."""
    d = len(c.rays)
    g = 0
    for rows in itertools.combinations(range(c.ambient), d):
        g = gcd(g, _oracle_det([[r[t] for t in rows] for r in c.rays]))
    return g


def _random_cone(rng, n, d, bound=4):
    rays = set()
    while len(rays) < d:
        v = [rng.randint(-bound, bound) for _ in range(n)]
        if any(v):
            rays.add(primitive_vector(v))
    return cone_from_rays(sorted(rays), ambient=n)


def _test_points(rng, c):
    """Rational points inside the span (some with negative coordinates) and arbitrary ones."""
    points = [[0] * c.ambient]
    for _ in range(6):
        lam = [Fraction(rng.randint(-3, 9), rng.randint(1, 5)) for _ in c.rays]
        points.append([sum(l * r[t] for l, r in zip(lam, c.rays)) for t in range(c.ambient)])
    points += [list(r) for r in c.rays]
    points += [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(c.ambient)]
               for _ in range(3)]
    return points


def _cases():
    """(rng, cone) in dimensions 2-4: square, non-square and non-simplicial."""
    rng = random.Random(2019)
    for n in (2, 3, 4):
        for d in range(1, n + 2):
            for _ in range(12):
                yield rng, _random_cone(rng, n, d)


class TestIntegerConeRoute:
    """A cone's judgement, read as its index and as Cramer coordinates, against the rational oracles."""

    def test_coordinates_and_membership(self):
        kinds = set()
        for rng, c in _cases():
            for point in _test_points(rng, c):
                try:
                    want = _oracle_coordinates(c.rays, c.ambient, point)
                except ValueError:
                    with pytest.raises(ValueError):
                        coordinates_of(c, point)
                    kinds.add("dependent")
                    continue
                assert coordinates_of(c, point) == want
                kinds.add("outside" if want is None else
                          "inside" if min(want, default=0) >= 0 else "negative")
                kinds.add("square" if len(c.rays) == c.ambient else "non-square")
        assert kinds == {"dependent", "outside", "inside", "negative", "square", "non-square"}

    def test_multiplicity_regularity_and_dimension(self):
        seen = set()
        for _, c in _cases():
            mult = _oracle_multiplicity(c)
            assert c.is_simplicial() == (mult != 0) == (_smith(c.ray_matrix()).rank == len(c.rays))
            assert c._index() == mult
            if mult:
                seen.add((len(c.rays) == c.ambient, mult == 1))
            assert is_regular(c) == (mult == 1)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_dimension_of_dependent_square_cone(self):
        c = cone_from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
        assert _smith(c.ray_matrix()).rank == 2 and not c.is_simplicial() and not is_regular(c)

    def test_zero_cone(self):
        c = Cone((), 3)
        assert _smith(c.ray_matrix()).rank == 0 and is_regular(c)
        assert coordinates_of(c, [0, 0, 0]) == ()
        assert coordinates_of(c, [0, 1, 0]) is None


def _brute_force_parallelepiped(c):
    """All (weight, point) with point = sum lam_i ray_i integral, lam_i in [0, 1).

    By Cramer's rule every such lam_i is a multiple of 1/D, D the
    multiplicity, so the grid of those lam is exhaustive.
    """
    mult = _oracle_multiplicity(c)
    out = set()
    for lam in itertools.product(range(mult), repeat=len(c.rays)):
        scaled = [sum(x * r[t] for x, r in zip(lam, c.rays)) for t in range(c.ambient)]
        if any(lam) and all(s % mult == 0 for s in scaled):
            out.add((Fraction(sum(lam), mult), tuple(s // mult for s in scaled)))
    return out


def _candidates(c, judged=None):
    """The parallelepiped listing as the brute force writes it: [(weight, point)]."""
    mod, group = _parallelepiped(judged or toric._judge(c))
    return [(Fraction(sum(lam), mod), _lattice_point(c.rays, lam, mod)) for lam in group]


def _catalogue(monkeypatch, seed, dims=(3, 4)):
    """The benchmark's seeded pass over its toric catalogue (bench/gen.py), in dimensions `dims`."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "bench"))
    import gen

    return [CyclicSingularity(p, weights) for p, weights in gen.toric_pass(seed) if len(weights) in dims]


def _spy_on_rounds(monkeypatch):
    """Record (target cone, its judgement, stellar point) for every round resolve makes."""
    rounds = []
    choose = toric._stellar_point

    def spy(rays, judged):
        chosen = choose(rays, judged)
        rounds.append((Cone._trusted(rays, len(rays[0])), judged, chosen[0]))
        return chosen

    monkeypatch.setattr(toric, "_stellar_point", spy)
    return rounds


def _unimodular(draw, d):
    """A d x d unimodular matrix: a few random row additions, then maybe a row swap."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.permutations(range(d)))[:2]
        f = draw(st.integers(-3, 3))
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    if draw(st.booleans()):
        m[0], m[-1] = m[-1], m[0]
    return m


@st.composite
def judgements(draw):
    """(None, det C, adj C) for C = L diag(c) R, L and R unimodular, |det C| = D in 1..60.

    D's prime powers are spread over the diagonal, so the group of the
    adjugate's columns mod D is cyclic or not, and the first column of
    order D, if there is one, may sit at any position.
    """
    d, mod = draw(st.integers(2, 4)), draw(st.integers(1, 60))
    diag, rest, q = [1] * d, mod, 2
    while rest > 1:
        power = 1
        while rest % q == 0:
            rest //= q
            power *= q
        diag[draw(st.integers(0, d - 1))] *= power
        q += 1
    left, right = _unimodular(draw, d), _unimodular(draw, d)
    middle = [[x * c for x in row] for row, c in zip(right, diag)]
    return (None, *det_adjugate([[sum(map(mul, row, col)) for col in zip(*middle)] for row in left]))


def _first_generator(judged):
    """The position of the first adjugate column of order D, None without one."""
    mod = abs(judged[1])
    return next((k for k, col in enumerate(zip(*judged[2])) if gcd(mod, *col) == 1), None)


# ray matrices whose adjugates cover each case of the column scan: D = 1 and D = 2,
# no column of order D (one coset, then two), and in dimension 4 the first column of
# order D at each position, every column before it of a smaller order but not zero mod D
_SCAN_CASES = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0], [1, 2]],
    [[2, 0], [0, 3]],
    [[2, 0, 0], [0, 3, 0], [0, 0, 5]],
    [[2, 0, 0, 2], [-2, 1, -1, -2], [-1, -2, 0, 1], [-1, 1, 2, -2]],
    [[-2, -2, -1, -1], [-1, -1, 0, 0], [-1, 2, -1, -1], [-1, 1, 0, -2]],
    [[-1, 1, 2, 2], [-2, -2, -1, 0], [-2, -2, -2, 0], [1, -2, 1, 1]],
    [[1, 2, -2, 1], [-2, -1, 2, -1], [-2, -1, 1, 0], [2, 0, 2, 0]],
]


def _listed(parallelepiped):
    mod, points = parallelepiped
    return mod, list(points)


def test_scan_cases_cover_every_generator_position():
    judged = [(None, *det_adjugate(rows)) for rows in _SCAN_CASES]
    assert [abs(det) for _, det, _ in judged[:2]] == [1, 2]
    assert [_first_generator(j) for j in judged] == [0, 0, None, None, 0, 1, 2, 3]
    for k, (_, det, adj) in enumerate(judged[4:]):
        assert all(any(x % det for x in col) for col in list(zip(*adj))[:k])


# the first column of order D, found by the scan, is the one the parent picked after
# computing every column's order, and the points stream out in the parent's order
@pytest.mark.parametrize("rows", _SCAN_CASES)
def test_column_scan_streams_the_parents_points_on_each_case(rows):
    judged = (None, *det_adjugate(rows))
    assert _listed(_parallelepiped(judged)) == _listed(parallelepiped_all_orders(judged))


@PROPS
@given(judgements())
def test_column_scan_streams_the_parents_points(judged):
    assert _listed(_parallelepiped(judged)) == _listed(parallelepiped_all_orders(judged))


class TestParallelepiped:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_brute_force(self, p):
        rng = random.Random(p)
        for n in (2, 3, 4):
            for _ in range(3):
                sing = CyclicSingularity(p, tuple(rng.randrange(1, p) for _ in range(n)))
                (cone,) = quotient_fan(sing).maximal
                got = _candidates(cone)
                assert len(got) == len(set(got)) == p - 1
                assert set(got) == _brute_force_parallelepiped(cone)

    def test_cones_met_during_resolution(self):
        fan = quotient_fan(CyclicSingularity(13, (1, 5, 9)))
        for c in resolve(fan).maximal + fan.maximal:
            assert set(_candidates(c)) == _brute_force_parallelepiped(c)

    def test_stellar_point_is_the_least_brute_force_candidate(self, monkeypatch):
        # the stellar point is min((Fraction weight, point)) over the brute-force
        # listing; plane fans are resolved without it, so the scan oracle picks there
        met = []
        choose = toric._stellar_point

        def spy(rays, cofactors):
            chosen = choose(rays, cofactors)
            met.append((Cone._trusted(rays, len(rays[0])), chosen[0]))
            return chosen

        monkeypatch.setattr(toric, "_stellar_point", spy)
        tied = set()
        for p, weights in ((7, (1, 3)), (11, (1, 4)), (7, (1, 2, 4)), (11, (1, 3, 7)),
                           (5, (1, 2, 3, 4)), (7, (1, 1, 1, 4))):
            met.clear()
            (_scan_resolve if len(weights) == 2 else resolve)(quotient_fan(CyclicSingularity(p, weights)))
            assert met
            for c, w in met:
                listing = _brute_force_parallelepiped(c)
                least = min(listing)
                assert w == least[1]
                if sum(weight == least[0] for weight, _ in listing) > 1:
                    tied.add(len(weights))
        assert tied == {2, 3, 4}

    def test_groups_no_column_generates(self, monkeypatch):
        # no column of adj(C) has order D, so the other columns add cosets to its multiples:
        # 3 rounds of the seed-7 catalogue pass and 15 of these random singularities
        rounds = _spy_on_rounds(monkeypatch)
        for sing in _catalogue(monkeypatch, 7):
            resolve(quotient_fan(sing))
        rng = random.Random(0)
        primes = [p for p in range(3, 120) if is_prime(p)]
        for _ in range(100):
            p = rng.choice(primes)
            resolve(quotient_fan(CyclicSingularity(p, [rng.randrange(1, p) for _ in range(rng.choice((3, 4)))])))
        cosets = [r for r in rounds if all(gcd(r[1][1], *col) != 1 for col in zip(*r[1][2]))]
        assert len(cosets) == 18 and {len(c.rays) for c, _, _ in cosets} == {3, 4}
        for c, judged, w in cosets:
            got = _candidates(c, judged)
            listing = _brute_force_parallelepiped(c)
            assert len(got) == len(set(got)) == abs(judged[1]) - 1
            assert set(got) == listing and w == min(listing)[1]

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
    def test_tie_heavy_cones(self, monkeypatch, p):
        # (1/p)(1, 1, p - 2): t (1, 1, p - 2) mod p has weight sum 1 for each t < p / 2
        fan = quotient_fan(CyclicSingularity(p, (1, 1, p - 2)))
        listing = _brute_force_parallelepiped(fan.maximal[0])
        least = min(listing)
        assert sum(weight == least[0] for weight, _ in listing) == (p - 1) // 2
        assert set(_candidates(fan.maximal[0])) == listing
        rounds = _spy_on_rounds(monkeypatch)
        resolve(fan)
        assert rounds[0][2] == least[1]
        for c, judged, w in rounds:
            assert set(_candidates(c, judged)) == _brute_force_parallelepiped(c)
            assert w == min(_brute_force_parallelepiped(c))[1]

    def test_stellar_point_stores_no_group(self):
        # a column of adj(C) has order D here, so the walk keeps only the least
        # weight and its ties; a set of the 10006 points peaked at 2.3 MB
        (cone,) = quotient_fan(CyclicSingularity(10007, (1, 2, 3))).maximal
        judged = toric._judge(cone)
        tracemalloc.start()
        try:
            toric._stellar_point(cone.rays, judged)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_non_square_cones(self):
        for rays in ([(1, 0, 0), (1, 2, 0)], [(1, 1, 1), (1, -1, 3)], [(2, 1, 0, 1), (0, 1, 2, 3)],
                     [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 6, 2)]):
            c = cone_from_rays(rays)
            got = _candidates(c)
            assert len(got) == len(set(got)) == _oracle_multiplicity(c) - 1
            assert set(got) == _brute_force_parallelepiped(c)

    def test_resolves_a_non_square_fan(self):
        fan = fan_from_cones([cone_from_rays([(1, 0, 0), (1, 2, 0)]), cone_from_rays([(0, 0, 1)])])
        resolved = resolve(fan)
        assert all(is_regular(c) for c in resolved.maximal)
        assert (1, 1, 0) in resolved.rays()
        assert len(resolved.maximal) == 3
        assert resolved == _scan_resolve(fan)


# "p:weights" -> stdout of `quotcoh toric`, recorded with the Fraction-elimination route
# (29:1,3,25, 23:2,7,11, 13:1,5,9,11 and 10007:1,2,3 with the worklist resolve and
# the stored parallelepiped group)
_PINNED = json.loads((pathlib.Path(__file__).parent / "data" / "toric_cli_stdout.json").read_text())


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_toric_cli_stdout_pinned(case):
    p, weights = case.split(":")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["toric", "--p", p, "--weights", weights]) == 0
    assert buf.getvalue() == _PINNED[case]


# SHA-256 of `quotcoh toric` stdout for long A_(p-1) chains, recorded with the
# scan resolve and the Bareiss determinant (the p = 251 output is 576 KB)
_LONG_CHAINS = {
    "97:1,96": "bfd0268216a5adfab97ef5a6c6f16a8b3f5f8800fcbd8fb117e3ee8ee9895fac",
    "251:1,250": "673341fee523c72b1b718024f9ef5a2cadc1f04552343844bc145352c1ca7071",
    "503:1,502": "fd9b81e17e566158d59ca1b3a99b8949d78d298d2f303488c0db2e6b6db3228d",
}


def _toric_stdout_sha256(case):
    p, weights = case.split(":")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["toric", "--p", p, "--weights", weights]) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", ["97:1,96", "251:1,250"])
def test_toric_cli_long_chain_pinned(case):
    assert _toric_stdout_sha256(case) == _LONG_CHAINS[case]


def test_toric_cli_long_chain_is_bounded_by_its_output():
    # the scan resolve with a Bareiss Gram determinant took 9-10 s here on a 2-core Xeon
    start = time.perf_counter()
    assert _toric_stdout_sha256("503:1,502") == _LONG_CHAINS["503:1,502"]
    assert time.perf_counter() - start < 4.0


# "p:weights" -> SHA-256 of `quotcoh toric` stdout, recorded with the star lookup
# that intersected the ray -> cones sets in the support's order
_PINNED_SHA256 = json.loads((pathlib.Path(__file__).parent / "data" / "toric_cli_sha256.json").read_text())


@pytest.mark.parametrize("case", sorted(_PINNED_SHA256))
def test_toric_cli_stdout_sha256_pinned(case):
    assert _toric_stdout_sha256(case) == _PINNED_SHA256[case]


# seed -> SHA-256 of the benchmark's own toric outputs over gen.toric_pass(seed), every
# dimension: one JSON line [p, weights, quotient cone's rays, resolved cones' rays] per
# singularity, recorded before the column scan, the surface walk and the lean _smith
_CATALOGUE_SHA256 = json.loads((pathlib.Path(__file__).parent / "data" / "toric_catalogue_sha256.json").read_text())


@pytest.mark.parametrize("seed", sorted(_CATALOGUE_SHA256))
def test_toric_catalogue_outputs_pinned(monkeypatch, seed):
    digest = hashlib.sha256()
    for sing in _catalogue(monkeypatch, int(seed), dims=(2, 3, 4)):
        fan = quotient_fan(sing)
        record = [sing.p, list(sing.weights), fan.maximal[0].rays, [c.rays for c in resolve(fan).maximal]]
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == _CATALOGUE_SHA256[seed]


def _scan_solver(rays, ambient):
    """(D, D T) from one rational Gauss-Jordan elimination of [R | I], R the
    ambient x d matrix of independent rays: T R is the identity on its first
    d rows and zero below, so for a point w the first d entries of D T w are
    D > 0 times its coordinates, and the others vanish iff w is in the span."""
    d = len(rays)
    a = [[Fraction(rays[j][i]) for j in range(d)] + [Fraction(int(i == k)) for k in range(ambient)]
         for i in range(ambient)]
    for col in range(d):
        piv = next((i for i in range(col, ambient) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("dependent rays")
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(ambient):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    denominator = lcm(*(x.denominator for row in a for x in row[d:]))
    return denominator, [[int(x * denominator) for x in row[d:]] for row in a]


def _scan_subdivide(maximal, w, judged, solvers):
    """Star subdivision at w by a pass over every cone.

    judged[c] is (det R, adj R) of a square cone, whose det R adj(R) w has
    the signs of w's coordinates; solvers[c] is _scan_solver of any other
    cone, solved once and kept for the rounds after.
    """
    out = []
    for c in maximal:
        if c in judged:
            det, adj = judged[c]
            lam = [det * sum(map(mul, a, w)) for a in adj]
        else:
            if c not in solvers:
                solvers[c] = _scan_solver(c.rays, c.ambient)
            image = [sum(map(mul, row, w)) for row in solvers[c][1]]
            d = len(c.rays)
            lam = None if any(image[d:]) else image[:d]
        if lam is None or any(x < 0 for x in lam):
            out.append(c)
            continue
        support = [i for i, x in enumerate(lam) if x > 0]
        if len(support) == 1 and w == c.rays[support[0]]:
            out.append(c)  # w already a ray
            continue
        for i in support:
            rays = list(c.rays)
            rays[i] = w
            out.append(Cone(tuple(sorted(rays)), c.ambient))
    return out


def _scan_stellar_point(c, judged):
    """toric's stellar point of c, judged without toric's own route.

    A square cone passes det_adjugate of its rays.  Below full dimension the
    basis P of the span's lattice points is the first d rows of u from the
    public smith_decomposition u R v = D, checked against the rational
    multiplicity.
    """
    if c in judged:
        return toric._stellar_point(c.rays, (None, *judged[c]))[0]
    basis = smith_decomposition(c.ray_matrix()).u.rows[:len(c.rays)]
    det, adj = det_adjugate([[sum(map(mul, row, r)) for r in c.rays] for row in basis])
    assert abs(det) == _oracle_multiplicity(c)
    return toric._stellar_point(c.rays, (basis, det, adj))[0]


def _scan_resolve(f):
    """Oracle: the resolve that rescans every maximal cone on every round and
    judges each new cone by its own elimination: det_adjugate of a square
    cone's rays, the rational _oracle_multiplicity and _scan_solver below
    full dimension."""
    judged, index, solvers = {}, {}, {}
    maximal = list(f.maximal)
    while True:
        for c in maximal:
            if c in index:
                continue
            if len(c.rays) == c.ambient:
                judged[c] = det_adjugate(tuple(zip(*c.rays)))
                index[c] = abs(judged[c][0])
            else:
                index[c] = _oracle_multiplicity(c)
        bad = [c for c in maximal if index[c] != 1]
        if not bad:
            break
        target = min(bad, key=lambda c: c.rays)
        maximal = _scan_subdivide(maximal, _scan_stellar_point(target, judged), judged, solvers)
    return fan_from_cones(maximal, ambient=f.ambient)


def _weighted_projective_fan(q):
    """Fan of P(1, q_1, ..., q_n): rays e_1..e_n and -(q_1..q_n) made primitive, one cone per omitted ray."""
    n = len(q)
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(primitive_vector([-x for x in q]))
    return fan_from_cones([cone_from_rays(rays[:s] + rays[s + 1:], ambient=n) for s in range(n + 1)])


@st.composite
def singularities(draw):
    n = draw(st.integers(2, 4))
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
    return CyclicSingularity(p, tuple(draw(st.integers(1, p - 1)) for _ in range(n)))


@st.composite
def weighted_projective_fans(draw):
    n = draw(st.integers(2, 4))
    return _weighted_projective_fan([draw(st.integers(1, (13, 7, 5)[n - 2])) for _ in range(n)])


def _padded(fan, at):
    """The fan with a zero coordinate inserted at position `at` of every ray, and the ray e_at."""
    n = fan.ambient
    cones = [cone_from_rays([r[:at] + (0,) + r[at:] for r in c.rays], ambient=n + 1) for c in fan.maximal]
    return fan_from_cones(cones + [cone_from_rays([tuple(int(t == at) for t in range(n + 1))])])


# (full-dimensional fan, position of the new coordinate): padded, each cone is
# non-square beside a disjoint ray, of multiplicity 221, 29, 13 or 11
_SPANS = [
    (fan_from_cones([cone_from_rays([(1, 0, 0), (1, 13, 0), (0, 5, 17)])]), 2),
    (fan_from_cones([cone_from_rays([(1, 0), (1, 29)])]), 2),
    (quotient_fan(CyclicSingularity(13, (1, 5, 9))), 3),
    (quotient_fan(CyclicSingularity(11, (1, 4))), 0),
]
_LOWER_DIMENSIONAL_FANS = [_padded(fan, at) for fan, at in _SPANS]


@st.composite
def lower_dimensional_fans(draw):
    """A random non-square simplicial cone in R^3 or R^4 and a ray outside it.

    The cone's rays are (r, A r) with coordinates permuted, r running over
    the rays of a random d-dimensional cone: the graph of A is a saturated
    lattice, so the multiplicity is |det| of the r.
    """
    n = draw(st.integers(3, 4))
    d = draw(st.integers(2, n - 1))
    small = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any).map(primitive_vector)
    base = draw(st.lists(small, min_size=d, max_size=d, unique=True).filter(_oracle_det))
    graph = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                          min_size=n - d, max_size=n - d))
    order = draw(st.permutations(range(n)))
    rays = [r + tuple(sum(map(mul, row, r)) for row in graph) for r in base]
    cone = cone_from_rays([[r[t] for t in order] for r in rays])
    vectors = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any).map(primitive_vector)
    ray = draw(vectors.filter(lambda r: not _oracle_contains(cone, r)))
    return fan_from_cones([cone, cone_from_rays([ray])])


def _oracle_contains(c, point):
    lam = _oracle_coordinates(c.rays, c.ambient, point)
    return lam is not None and min(lam) >= 0


def _spy_on_updates(monkeypatch):
    """Record (parent rays, i, w, new rays, its judgement, the parent's) for every ray replacement.

    Wraps `_split`, which resolve calls once per subdivided cone, and
    records one entry per child.
    """
    calls = []
    split = toric._split

    def spy(c, judged, mu, support, w):
        out = split(c, judged, mu, support, w)
        assert [pending[2] for _, pending in out] == list(support)
        calls.extend((c, pending[2], w, cone, pending, judged) for cone, pending in out)
        return out

    monkeypatch.setattr(toric, "_split", spy)
    return calls


class TestWorklistResolve:
    """The worklist resolve against the scan it replaced."""

    @PROPS
    @given(singularities())
    def test_quotient_fans_match_the_scan(self, sing):
        fan = quotient_fan(sing)
        assert resolve(fan).maximal == _scan_resolve(fan).maximal

    @PROPS
    @given(weighted_projective_fans())
    def test_weighted_projective_fans_match_the_scan(self, fan):
        assert resolve(fan).maximal == _scan_resolve(fan).maximal

    @staticmethod
    def reordered(fan, rays):
        return Fan((Cone(tuple(rays), fan.ambient),), fan.ambient)

    @PROPS
    @given(singularities(), st.data())
    def test_any_ray_order_resolves_to_the_same_fan(self, sing, data):
        # the checked Cone keeps the order it is given, and the rounds key, order and
        # split cones by their sorted ray tuples
        fan = quotient_fan(sing)
        rays = data.draw(st.permutations(fan.maximal[0].rays))
        assert resolve(self.reordered(fan, rays)) == resolve(fan)

    @pytest.mark.parametrize("p, weights", [
        (7, (1, 2, 4)), (13, (1, 5, 9)), (11, (1, 3, 7, 9)), (7, (1, 3)),
    ])
    def test_every_ray_order_resolves_to_the_same_fan(self, p, weights):
        fan = quotient_fan(CyclicSingularity(p, weights))
        want = resolve(fan)
        for rays in itertools.permutations(fan.maximal[0].rays):
            assert resolve(self.reordered(fan, rays)) == want

    def test_reversed_rays_of_a_six_dimensional_cone(self):
        # with its rays reversed this cone resolved to 2 605 cones, another set
        fan = quotient_fan(CyclicSingularity(53, (2, 9, 21, 30, 44, 50)))
        resolved = resolve(self.reordered(fan, reversed(fan.maximal[0].rays)))
        assert resolved == resolve(fan) and len(resolved.maximal) == 2397

    def test_every_rank_one_update_is_the_elimination(self, monkeypatch):
        # rank-one updates run from dimension 3 on; plane fans take the Hirzebruch-Jung chain.
        # Below full dimension a new cone keeps its parent's basis P of the span
        calls = _spy_on_updates(monkeypatch)
        for p, weights in ((29, (1, 3, 25)), (17, (1, 4, 13)), (13, (1, 5, 9)), (11, (1, 3, 7, 9))):
            resolve(quotient_fan(CyclicSingularity(p, weights)))
        for q in ((1, 1, 3), (2, 3, 5), (3, 5, 7), (1, 2, 3, 4)):
            resolve(_weighted_projective_fan(q))
        for fan in _LOWER_DIMENSIONAL_FANS:
            resolve(fan)
        parities = set()
        for c, i, w, cone, pending, (parent_basis, _, _) in calls:
            basis, det, adj = _rank_one(*pending)
            assert basis is parent_basis
            rows = (tuple(zip(*cone)) if basis is None
                    else [[sum(map(mul, row, r)) for r in cone] for row in basis])
            assert (det, adj) == det_adjugate(rows)
            parities.add((basis is None, (cone.index(w) - i) % 2))
        assert len(calls) > 100 and parities == {(True, 0), (True, 1), (False, 0), (False, 1)}

    def test_rank_one_updates_only_the_cones_a_later_round_reads(self, monkeypatch):
        # a round reads its target and every cone holding its w, each update runs
        # once, and a cone that reaches the output is never updated
        calls = _spy_on_updates(monkeypatch)
        updated = []
        update = toric._rank_one
        monkeypatch.setattr(toric, "_rank_one", lambda *pending: updated.append(pending) or update(*pending))
        counts = [0, 0, 0]
        for sing in _catalogue(monkeypatch, 1):
            calls.clear()
            updated.clear()
            kept = {c.rays for c in resolve(quotient_fan(sing)).maximal}
            # a pending judgement is (parent judgement, mu, i, k); resolve keeps both objects alive
            created = {(id(call[4][0]), id(call[4][1]), *call[4][2:]): call[3] for call in calls}
            read = [created[id(judged), id(mu), i, k] for judged, mu, i, k in updated]
            assert len(read) == len(set(read)) and set(read) == set(created.values()) - kept
            counts = [counts[0] + len(calls), counts[1] + len(kept), counts[2] + len(read)]
        assert counts == [2191, 1520, 671]

    def test_one_support_per_cone_a_round_reads_and_no_cone_hashing(self, monkeypatch):
        # the walk gives the target's (mu, face), so _support reads only the other cones
        # holding w; the fan is keyed by ray tuples, so no record is hashed
        fans = [quotient_fan(sing) for sing in _catalogue(monkeypatch, 1)]
        calls = _spy_on_updates(monkeypatch)
        supports, hashes = [], []
        support, record_hash = toric._support, _Frozen.__hash__
        monkeypatch.setattr(toric, "_support", lambda judged, w: supports.append(w) or support(judged, w))
        monkeypatch.setattr(_Frozen, "__hash__", lambda record: hashes.append(record) or record_hash(record))
        read = rounds = 0
        for fan in fans:
            calls.clear()
            resolve(fan)
            read += len({(c, w) for c, _, w, *_ in calls})
            rounds += len({w for _, _, w, *_ in calls})
        monkeypatch.undo()
        assert hashes == []
        # every cone a round subdivides is read once, the target by the walk, and only those
        assert (read, rounds) == (741, 624)
        assert len(supports) == read - rounds == 117

    def test_star_lookup_costs_the_smallest_face_ray_star(self, monkeypatch):
        # CPython's set intersection walks the smaller of its first two sets, so each
        # round is charged that; intersected in the support's order, the rounds here
        # walked 83 347 cones; smallest first, and with interior rounds looking nothing
        # up, they walk 5 379 cones in 216 lookups over 281 rounds
        work, rounds, through = [], [], toric._cones_through

        class Star(set):
            def intersection(self, *others):
                work.append(min(len(self), *map(len, others[:1])))
                return set.intersection(self, *others)

        class Stars:
            def __init__(self, on_ray):
                self.on_ray = on_ray

            def __getitem__(self, r):
                return Star(self.on_ray[r])

        def spy(on_ray, rays):
            got = through(Stars(on_ray), rays)
            rounds.append(rays)
            assert len(work) == len(rounds), "the lookup is one intersection led by a ray's set"
            assert got == set.intersection(*(on_ray[r] for r in rays))
            return got

        monkeypatch.setattr(toric, "_cones_through", spy)
        resolved = resolve(quotient_fan(CyclicSingularity(53, (2, 9, 21, 30, 44, 50))))
        assert len(resolved.maximal) == 2397
        assert sum(work) <= 5 * len(resolved.maximal)

    def test_scan_solver_is_the_rational_oracle(self):
        solved = 0
        for rng, c in _cases():
            try:
                denominator, dt = _scan_solver(c.rays, c.ambient)
            except ValueError:
                with pytest.raises(ValueError):
                    _oracle_coordinates(c.rays, c.ambient, [0] * c.ambient)
                continue
            for point in _test_points(rng, c):
                image = [sum(map(mul, row, point)) for row in dt]
                want = _oracle_coordinates(c.rays, c.ambient, point)
                d = len(c.rays)
                assert (None if any(image[d:]) else [x / denominator for x in image[:d]]) == (
                    None if want is None else list(want))
            solved += 1
        assert solved > 100

    @pytest.mark.parametrize("fan, at", _SPANS)
    def test_lower_dimensional_fans_resolve_as_in_their_span(self, fan, at):
        # the padded cone's span is the original space; the plane cone's
        # stellar rounds reach its Hirzebruch-Jung chain
        resolved = resolve(_padded(fan, at))
        assert resolved == _padded(resolve(fan), at)
        assert all(is_regular(c) for c in resolved.maximal)

    @pytest.mark.parametrize("fan", _LOWER_DIMENSIONAL_FANS)
    def test_lower_dimensional_fans_match_the_scan(self, fan):
        assert resolve(fan) == _scan_resolve(fan)

    @PROPS
    @given(lower_dimensional_fans())
    def test_random_lower_dimensional_fans_match_the_scan(self, fan):
        assert resolve(fan).maximal == _scan_resolve(fan).maximal

    def test_stellar_point_must_be_a_new_primitive_ray(self, monkeypatch):
        # the round's one check on w is what lets _split skip the cone checks
        # (without it such a point would subdivide forever, hence the cap on rounds)
        choose = toric._stellar_point
        fan = quotient_fan(CyclicSingularity(7, (1, 2, 4)))
        # each keeps the walk's (mu, face) and replaces w alone
        for bad in (lambda w, rays: tuple(2 * x for x in w), lambda w, rays: rays[0]):
            rounds = []

            def capped(rays, cof, bad=bad):
                rounds.append(rays)
                assert len(rounds) < 50, "resolve accepted a point that is not a new primitive ray"
                w, mu, face = choose(rays, cof)
                return bad(w, rays), mu, face

            monkeypatch.setattr(toric, "_stellar_point", capped)
            with pytest.raises(RuntimeError, match="not a new primitive ray"):
                resolve(fan)

    def test_shared_faces_subdivide_every_cone_holding_w(self, monkeypatch):
        # the stellar point can lie on a face of several cones (P(1, 1, 2, 2),
        # P(1, 1, 2, 4), and (1/7)(1, 2, 4) once subdivided); all of them are
        # subdivided in its round, so no point is chosen twice
        calls = _spy_on_updates(monkeypatch)
        points = []
        choose = toric._stellar_point
        monkeypatch.setattr(toric, "_stellar_point",
                            lambda rays, cof: points.append(choose(rays, cof)) or points[-1])
        shared = 0
        for fan in (_weighted_projective_fan((1, 2, 2)), _weighted_projective_fan((1, 2, 4)),
                    quotient_fan(CyclicSingularity(7, (1, 2, 4)))):
            calls.clear()
            points.clear()
            resolve(fan)
            parents = {}
            for c, _, w, *_ in calls:
                parents.setdefault(w, set()).add(c)
            assert len(points) == len(set(points)) == len(parents)
            shared += sum(len(cones) > 1 for cones in parents.values())
        assert shared


def _spy_on_faces(monkeypatch):
    """Record (target judgement, (w, mu, face)) for every round resolve makes."""
    faces = []
    choose = toric._stellar_point

    def spy(rays, judged):
        faces.append((judged, choose(rays, judged)))
        return faces[-1][1]

    monkeypatch.setattr(toric, "_stellar_point", spy)
    return faces


def _walk_support_is_the_solve(faces):
    """Check each round's (mu, face) off the walk against _support; return the (det < 0, P is None) kinds met."""
    kinds = set()
    for judged, (w, mu, face) in faces:
        assert (list(mu), list(face)) == toric._support(judged, w)
        kinds.add((judged[1] < 0, judged[0] is None))
    return kinds


class TestWalkSupport:
    """The target's (mu, face) read off the stellar point's walk is the support a solve gives."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_catalogue_rounds(self, monkeypatch, seed):
        faces = _spy_on_faces(monkeypatch)
        for sing in _catalogue(monkeypatch, seed):
            resolve(quotient_fan(sing))
        assert _walk_support_is_the_solve(faces) == {(True, True), (False, True)}
        # points in the target's interior and on a proper face, in dimensions 3 and 4
        assert {(len(judged[2]), len(face) == len(judged[2])) for judged, (_, _, face) in faces} == {
            (3, True), (3, False), (4, True), (4, False)}

    def test_lower_dimensional_rounds(self, monkeypatch):
        faces = _spy_on_faces(monkeypatch)
        for fan in _LOWER_DIMENSIONAL_FANS:
            resolve(fan)
        assert _walk_support_is_the_solve(faces) == {(True, False), (False, False)}

    @PROPS
    @given(lower_dimensional_fans())
    def test_random_lower_dimensional_rounds(self, fan):
        with pytest.MonkeyPatch.context() as patch:
            faces = _spy_on_faces(patch)
            resolve(fan)
        _walk_support_is_the_solve(faces)
        assert all(judged[0] is not None for judged, _ in faces)

    # (1/7)(1, 1, 5) has three tied least points, and the last cone's point
    # (1, 0, 1) = ((1, 0, 0) + (1, 0, 2)) / 2 lies on a proper face
    @pytest.mark.parametrize("cone", [quotient_fan(CyclicSingularity(7, weights)).maximal[0]
                                      for weights in ((1, 2, 4), (1, 1, 5), (1, 2, 3, 4))]
                             + [cone_from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 2)])])
    def test_targets_of_either_sign(self, cone):
        # the rays sorted and with the first two swapped: det C changes sign and mu with it
        signs = set()
        for rays in (cone.rays, (cone.rays[1], cone.rays[0]) + cone.rays[2:]):
            judged = (None, *det_adjugate(tuple(zip(*rays))))
            out = toric._stellar_point(rays, judged)
            assert _walk_support_is_the_solve([(judged, out)]) == {(judged[1] < 0, True)}
            signs.add(judged[1] < 0)
        assert signs == {True, False}


def _spy_on_index(monkeypatch):
    """Record (the cones, the index) for every ray -> cones index resolve builds."""
    builds = []
    build = toric._ray_index

    def spy(cones):
        builds.append((set(cones), build(cones)))
        return builds[-1][1]

    monkeypatch.setattr(toric, "_ray_index", spy)
    return builds


def _live_cones(fan, calls):
    """The cones alive after the ray replacements `calls` (from _spy_on_updates) made in `fan`."""
    live = {c.rays for c in fan.maximal}
    for c, _, _, cone, *_ in calls:
        live.discard(c)
        live.add(cone)
    return live


class TestLazyIndex:
    """The ray -> cones index: built at the first round whose point lies on a proper face, once."""

    def test_interior_rounds_look_nothing_up(self, monkeypatch):
        # each of the 12 rounds of (1/13)(1, 4, 9) has its point in the target's interior
        fan = quotient_fan(CyclicSingularity(13, (1, 4, 9)))
        want = _scan_resolve(fan)
        builds, faces = _spy_on_index(monkeypatch), _spy_on_faces(monkeypatch)
        monkeypatch.setattr(toric, "_cones_through", lambda on_ray, rays: pytest.fail("a star lookup ran"))
        assert resolve(fan) == want
        assert len(faces) == 12 and builds == []

    def test_built_once_from_the_live_cones_and_kept_up(self, monkeypatch):
        # built from the cones alive at its round, and at every lookup equal to
        # the index rebuilt from the cones then alive
        fans = [quotient_fan(sing) for sing in _catalogue(monkeypatch, 1)] + [
            _weighted_projective_fan((1, 2, 2)), _weighted_projective_fan((1, 2, 4)),
            quotient_fan(CyclicSingularity(7, (1, 2, 4)))]
        calls = _spy_on_updates(monkeypatch)
        build, through, built, lookups = toric._ray_index, toric._cones_through, [], []

        def build_spy(cones):
            assert set(cones) == _live_cones(fan, calls)
            built.append(build(cones))
            return built[-1]

        def through_spy(on_ray, rays):
            want = {}
            for c in _live_cones(fan, calls):
                for r in c:
                    want.setdefault(r, set()).add(c)
            assert on_ray is built[-1] and {r: s for r, s in on_ray.items() if s} == want
            lookups.append(rays)
            return through(on_ray, rays)

        monkeypatch.setattr(toric, "_ray_index", build_spy)
        monkeypatch.setattr(toric, "_cones_through", through_spy)
        indexed = 0
        for fan in fans:
            calls.clear()
            built.clear()
            resolve(fan)
            assert len(built) <= 1
            indexed += len(built)
        # 26 of the 50 singularities at n = 3 and 17 of the 20 at n = 4 build it, and
        # so does each shared-face fan; the other 24 and 3 never do
        assert indexed == 26 + 17 + 3 and len(lookups) > 100

    def test_the_build_and_the_lookups_cost_at_most_the_output(self, monkeypatch):
        # charged the cones the index is built from and, per lookup, the smallest
        # face-ray set its intersection walks: 6 cones and 5 379 in the 216 lookups
        # of 281 rounds
        builds = _spy_on_index(monkeypatch)
        work, through = [], toric._cones_through
        monkeypatch.setattr(toric, "_cones_through", lambda on_ray, rays: work.append(
            min(len(on_ray[r]) for r in rays)) or through(on_ray, rays))
        resolved = resolve(quotient_fan(CyclicSingularity(53, (2, 9, 21, 30, 44, 50))))
        ((cones, _),) = builds
        assert len(resolved.maximal) == 2397
        assert len(cones) + sum(work) <= 5 * len(resolved.maximal)


class TestSurfaceResolve:
    """The plane route, each cone's Hirzebruch-Jung chain, against the stellar scan."""

    def test_determinant_sharing_a_factor_with_every_coordinate(self):
        # D = 6 is prime to neither coordinate of (2, 3), so q comes from the Bezout functional
        fan = fan_from_cones([cone_from_rays([(2, 3), (4, 9)])])
        resolved = resolve(fan)
        assert resolved == _scan_resolve(fan)
        assert resolved.rays() == ((1, 2), (2, 3), (4, 9))
        assert all(is_regular(c) for c in resolved.maximal)

    @pytest.mark.parametrize("fan", [projective_space_fan(2), product_of_lines_fan()]
                             + [_weighted_projective_fan(q) for q in ((1, 2), (2, 3), (3, 5), (4, 7), (6, 9),
                                                                     (5, 13), (11, 12))])
    def test_complete_fans(self, fan):
        resolved = resolve(fan)
        assert resolved == _scan_resolve(fan)
        assert resolved.is_complete() and all(is_regular(c) for c in resolved.maximal)

    def test_one_ray_cones_pass_through(self):
        rays = [cone_from_rays([(-1, 1)]), cone_from_rays([(0, -1)])]
        fan = fan_from_cones([cone_from_rays([(1, 0), (1, 5)])] + rays)
        resolved = resolve(fan)
        assert resolved == _scan_resolve(fan)
        assert set(rays) < set(resolved.maximal) and len(resolved.maximal) == 7

    @pytest.mark.parametrize("p", [p for p in range(2, 98) if is_prime(p)])
    def test_every_quotient_one_a(self, p):
        for a in range(1, p):
            fan = quotient_fan(CyclicSingularity(p, (1, a)))
            assert resolve(fan) == _scan_resolve(fan)

    def test_non_simplicial_cones_are_refused(self):
        for rays in ([(1, 0), (0, 1), (1, 1)], [(1, 0), (-1, 0)]):
            with pytest.raises(ValueError, match="simplicial"):
                resolve(fan_from_cones([cone_from_rays(rays)]))

    def test_chain_that_misses_the_second_ray_is_refused(self, monkeypatch):
        expand = toric.hj_continued_fraction
        monkeypatch.setattr(toric, "hj_continued_fraction", lambda d, q: expand(d, q) + [2])
        with pytest.raises(RuntimeError, match="does not close"):
            resolve(quotient_fan(CyclicSingularity(7, (1, 3))))


@st.composite
def plane_singularities(draw):
    p = draw(st.sampled_from([p for p in range(2, 501) if is_prime(p)]))
    return CyclicSingularity(p, (draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1))))


class TestSurfaceChain:
    """The walk over the resolved cones against the angular sort of their rays."""

    def test_catalogue_plane_fans(self, monkeypatch):
        for seed in (1, 2, 3):
            sings = _catalogue(monkeypatch, seed, dims=(2,))
            assert len(sings) == 60
            for sing in sings:
                fan = quotient_fan(sing)
                resolved = resolve(fan)
                assert surface_chain(resolved, fan) == surface_chain_sorted(resolved, fan)

    @PROPS
    @given(plane_singularities())
    def test_matches_the_sort_oracle(self, sing):
        fan = quotient_fan(sing)
        resolved = resolve(fan)
        chain = surface_chain(resolved, fan)
        assert chain == surface_chain_sorted(resolved, fan)
        a = sing.weights[1] * pow(sing.weights[0], -1, sing.p) % sing.p
        assert chain in (hj_resolution(sing.p, a).chain, hj_resolution(sing.p, a).chain[::-1])

    def test_mutant_fans_are_refused(self):
        # (1/13)(1, 5) has three new rays; the sort oracle, which reads only the rays,
        # still returns the chain for a dropped middle cone, an extra overlapping cone,
        # a one-ray cone and a three-ray cone
        fan = quotient_fan(CyclicSingularity(13, (1, 5)))
        cones = list(resolve(fan).maximal)
        v0, v1 = fan.maximal[0].rays
        if v0[0] * v1[1] - v0[1] * v1[0] < 0:
            v0, v1 = v1, v0
        u = [v0]
        while u[-1] != v1:
            (nxt,) = [r for c in cones if u[-1] in c.rays for r in c.rays
                      if r != u[-1] and u[-1][0] * r[1] - u[-1][1] * r[0] > 0]
            u.append(nxt)
        assert len(u) == 5

        def without(a, b):
            return [c for c in cones if set(c.rays) != {a, b}]

        def moved(i, ray):
            return [cone_from_rays([ray if r == u[i] else r for r in c.rays]) for c in cones]

        refused = {
            "first cone dropped": without(u[0], u[1]),
            "middle cone dropped": without(u[1], u[2]),
            "last cone dropped": without(u[3], u[4]),
            "extra overlapping cone": cones + [cone_from_rays([u[0], u[2]])],
            "extra cone beyond the second ray": cones + [cone_from_rays([u[4], (u[4][0] - 1, u[4][1])])],
            "one-ray cone": cones + [cone_from_rays([u[1]])],
            "three-ray cone": without(u[0], u[1]) + [cone_from_rays(u[:3])],
            "ray moved outside the cone": moved(1, tuple(-x for x in u[1])),
        }
        for mutant in refused.values():
            with pytest.raises(ValueError, match="^resolved fan does not refine the original cone$"):
                surface_chain(fan_from_cones(mutant, ambient=2), fan)
        # cones turning one way that wind once around the origin before they reach the
        # second ray: the walk closes, but its first new ray lies outside the cone
        loop = [(1, 0), (-1, 2), (-1, -1), (1, -1), (1, 1), (0, 1)]
        with pytest.raises(ValueError, match="^resolved fan does not refine the original cone$"):
            surface_chain(fan_from_cones([cone_from_rays(pair) for pair in zip(loop, loop[1:])]),
                          fan_from_cones([cone_from_rays([(1, 0), (0, 1)])]))
        # a ray moved along the chain, between its neighbours: the walk passes and the
        # chain relation fails, as in the oracle
        mutant = fan_from_cones(moved(2, tuple(x + y for x, y in zip(u[1], u[2]))), ambient=2)
        for chain in (surface_chain, surface_chain_sorted):
            with pytest.raises(RuntimeError, match="^rays do not satisfy the smooth chain relation$"):
                chain(mutant, fan)


@st.composite
def cones_and_points(draw):
    n = draw(st.integers(2, 4))
    bound = draw(st.sampled_from([2, 5, 2**40]))
    vectors = st.lists(st.integers(-bound, bound), min_size=n, max_size=n).filter(any).map(primitive_vector)
    return draw(st.lists(vectors, min_size=n, max_size=n, unique=True)), draw(vectors)


def _check_rank_one(rays, w):
    """Every replacement of a ray of the cone by w against det_adjugate and R adj(R) = det(R) I.

    Returns the parities of |k - i|, w moving from position i to k.
    """
    n = len(w)
    c = Cone(tuple(sorted(rays)), n)
    judged = (None, *det_adjugate(tuple(zip(*c.rays))))
    mu = [sum(map(mul, a, w)) for a in judged[2]]
    parities = set()
    for i, m in enumerate(mu):
        if m == 0:
            continue  # w in the span of the other rays
        ((rays, pending),) = _split(c.rays, judged, mu, [i], w)
        basis, det, adj = _rank_one(*pending)
        assert basis is None
        assert rays == tuple(sorted(c.rays[:i] + c.rays[i + 1:] + (w,)))
        assert (det, adj) == det_adjugate(tuple(zip(*rays)))
        assert Cone(rays, n).ray_matrix() * IntMatrix(adj, ncols=n) == IntMatrix.identity(n) * det
        parities.add((rays.index(w) - i) % 2)
    return parities


class TestRankOneUpdate:
    @PROPS
    @given(cones_and_points())
    def test_matches_the_elimination(self, case):
        rays, w = case
        if IntMatrix(rays).det() != 0 and w not in rays:
            _check_rank_one(rays, w)

    def test_both_permutation_signs(self):
        rng = random.Random(8)
        parities = set()
        for n in (2, 3, 4):
            for _ in range(40):
                rays = _random_cone(rng, n, n).rays
                w = primitive_vector([rng.randint(-6, 6) for _ in range(n - 1)] + [rng.randint(1, 6)])
                if IntMatrix(rays).det() != 0 and w not in rays:
                    parities |= _check_rank_one(rays, w)
        assert parities == {0, 1}


def _tridiagonal(bs):
    r = len(bs)
    return IntMatrix([[-bs[i] if i == j else int(abs(i - j) == 1) for j in range(r)] for i in range(r)],
                     ncols=r)


class TestContinuant:
    @PROPS
    @given(st.lists(st.integers(2, 9), min_size=1, max_size=60))
    def test_matches_bareiss(self, bs):
        assert _continuant(bs) == _tridiagonal(bs).det()

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_hj_chains(self, p):
        for a in range(1, p):
            bs = hj_continued_fraction(p, a)
            assert _continuant(bs) == _tridiagonal(bs).det() == (-1) ** len(bs) * p

    def test_long_chain_and_empty_chain(self):
        bs = hj_continued_fraction(97, 96)
        assert len(bs) == 96 and _continuant(bs) == _tridiagonal(bs).det() == 97
        assert _continuant([]) == 1


@st.composite
def wide_singularities(draw):
    """Any prime below 400 and 2 to 5 weights, for the quotient cone alone."""
    p = draw(st.sampled_from([p for p in range(2, 400) if is_prime(p)]))
    n = draw(st.integers(2, 5))
    return CyclicSingularity(p, tuple(draw(st.integers(1, p - 1)) for _ in range(n)))


class TestQuotientFan:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(wide_singularities())
    def test_one_smith_form_matches_the_adjugate_route(self, sing):
        assert quotient_fan(sing) == adjugate_quotient_fan(sing)

    @pytest.mark.parametrize("p, weights", [(1000003, (1, 2, 3)), (10007, (1, 2, 3, 4)), (1009, (1, 1008))])
    def test_large_primes_match_the_adjugate_route(self, p, weights):
        sing = CyclicSingularity(p, weights)
        assert quotient_fan(sing) == adjugate_quotient_fan(sing)

    @pytest.mark.parametrize("forge", [
        lambda snf: snf._replace(diagonal=snf.diagonal[:-1] + (2 * snf.diagonal[-1],)),
        lambda snf: snf._replace(rank=snf.rank - 1),
    ], ids=["d_n doubled", "rank n - 1"])
    def test_forged_smith_form_is_refused(self, monkeypatch, forge):
        # each d_j must divide p and M must have rank n, or some e_i is not in the refined lattice
        smith = toric._smith
        monkeypatch.setattr(toric, "_smith", lambda m, u=False: forge(smith(m, u=u)))
        with pytest.raises(RuntimeError, match="standard basis vector missing"):
            quotient_fan(CyclicSingularity(7, (1, 2, 3)))

    @PROPS
    @given(singularities())
    def test_trusted_quotient_cone_is_the_checked_cone(self, sing):
        _check_trusted_quotient_cone(sing)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_trusted_quotient_cones_of_the_catalogue(self, monkeypatch, seed):
        # some Smith forms give their columns out of order, so the cone must sort them
        catalogue = _catalogue(monkeypatch, seed, dims=(2, 3, 4))
        unsorted = sum(_check_trusted_quotient_cone(sing) for sing in catalogue)
        assert unsorted > 0

    @pytest.mark.parametrize("weights", [(1, 2), (1, 2, 3), (2, 3, 5, 6)])
    def test_imprimitive_column_is_refused(self, monkeypatch, weights):
        # u with every entry doubled keeps the true diagonal, so the rank and d_j | p
        # check passes, but every column then has an even gcd: refused, not divided out
        smith = toric._smith

        def doubled(m, u=False):
            snf = smith(m, u=u)
            doubled_u = [[2 * x for x in row] for row in snf.u.rows]
            return snf._replace(u=IntMatrix(doubled_u, ncols=len(doubled_u)))

        monkeypatch.setattr(toric, "_smith", doubled)
        with pytest.raises(RuntimeError, match="^quotient cone ray is not primitive$"):
            quotient_fan(CyclicSingularity(7, weights))

    @PROPS
    @given(singularities())
    def test_rays_are_the_smith_form_solutions(self, sing):
        # oracle: ray i solves B y = p e_i through a Smith form tracking u and v
        n, p = len(sing.weights), sing.p
        gens = [[p if i == j else 0 for j in range(n)] for i in range(n)] + [list(sing.weights)]
        basis = image_basis(IntMatrix(gens, ncols=n).transpose()).transpose()
        rays = [primitive_vector(solve_integer(basis, [p if t == i else 0 for t in range(n)]))
                for i in range(n)]
        assert quotient_fan(sing) == fan_from_cones([cone_from_rays(rays, ambient=n)], ambient=n)

    def test_a1_cone(self):
        fan = quotient_fan(CyclicSingularity(2, (1, 1)))
        (cone,) = fan.maximal
        assert cone._index() == 2

    def test_index_five(self):
        fan = quotient_fan(CyclicSingularity(5, (1, 2)))
        (cone,) = fan.maximal
        assert cone.is_simplicial()
        assert cone._index() == 5

    def test_three_dimensional(self):
        fan = quotient_fan(CyclicSingularity(3, (1, 1, 2)))
        (cone,) = fan.maximal
        assert cone._index() == 3

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            CyclicSingularity(4, (1, 2))
        with pytest.raises(ValueError):
            CyclicSingularity(5, (0, 2))

    def test_weights_given_as_a_list_are_stored_as_a_tuple(self):
        sing, twin = CyclicSingularity(5, [1, 2]), CyclicSingularity(5, (1, 2))
        assert sing.weights == (1, 2)
        assert sing == twin and hash(sing) == hash(twin)
        assert quotient_fan(sing) == quotient_fan(twin)


def _check_trusted_quotient_cone(sing):
    """Check quotient_fan's trusted cone against cone_from_rays of its Smith form's columns.

    Returns True if the Smith form gave the columns out of sorted order.
    """
    n, p = len(sing.weights), sing.p
    rows = [[p if j == i else 0 for j in range(n)] + [a] for i, a in enumerate(sing.weights)]
    m = IntMatrix(rows, ncols=n + 1)
    snf = _smith(m, u=True)
    columns = list(zip(*[[p // d * x for x in row] for d, row in zip(snf.diagonal, snf.u.rows)]))
    checked = cone_from_rays(columns, ambient=n)
    fan = quotient_fan(sing)
    (cone,) = fan.maximal
    assert cone == checked and hash(cone) == hash(checked)
    assert (cone.rays, cone.ambient) == (checked.rays, checked.ambient)
    assert fan == Fan((checked,), n) and fan.ambient == n
    # the checking constructor refuses a zero, repeated or imprimitive column
    assert cone == Cone(tuple(sorted(columns)), n)
    return columns != sorted(columns)


def _support_preserved(original: Fan, resolved: Fan, rng: random.Random, samples=25):
    (cone,) = original.maximal
    d = len(cone.rays)
    for _ in range(samples):
        coeffs = [Fraction(rng.randrange(0, 20), rng.randrange(1, 7)) for _ in range(d)]
        point = [
            sum(c * r[i] for c, r in zip(coeffs, cone.rays))
            for i in range(cone.ambient)
        ]
        assert any(_contains(c, point) for c in resolved.maximal)


class TestResolve:
    def test_regular_fan_unchanged(self):
        fan = fan_from_cones([cone_from_rays([(1, 0), (0, 1)])])
        assert resolve(fan) == fan

    def test_non_simplicial_cones_are_refused_in_dimension_three(self):
        # dependent rays, and more rays than the dimension: _judge's error, reworded
        for rays in ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]):
            with pytest.raises(ValueError, match="resolution implemented for simplicial fans"):
                resolve(fan_from_cones([cone_from_rays(rays)]))

    def test_a1_resolution(self):
        fan = quotient_fan(CyclicSingularity(2, (1, 1)))
        resolved = resolve(fan)
        assert len(resolved.rays()) == 3  # one exceptional curve
        assert all(is_regular(c) for c in resolved.maximal)
        assert surface_chain(resolved, fan) == (-2,)

    def test_5_2_resolution(self):
        fan = quotient_fan(CyclicSingularity(5, (1, 2)))
        resolved = resolve(fan)
        assert len(resolved.rays()) - 2 == 2
        chain = surface_chain(resolved, fan)
        assert chain in ((-3, -2), (-2, -3))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_chain_length_matches_continued_fraction(self, p):
        for a in range(1, p):
            fan = quotient_fan(CyclicSingularity(p, (1, a)))
            resolved = resolve(fan)
            assert all(is_regular(c) for c in resolved.maximal)
            chain = surface_chain(resolved, fan)
            hj = hj_resolution(p, a).chain
            assert chain in (hj, hj[::-1])

    def test_support_preserved(self):
        rng = random.Random(4)
        for p, weights in ((5, (1, 2)), (7, (1, 3)), (3, (1, 1, 2)), (5, (1, 2, 3))):
            fan = quotient_fan(CyclicSingularity(p, weights))
            resolved = resolve(fan)
            assert all(is_regular(c) for c in resolved.maximal)
            _support_preserved(fan, resolved, rng)

    def test_dimension_three(self):
        fan = quotient_fan(CyclicSingularity(3, (1, 1, 2)))
        resolved = resolve(fan)
        assert all(is_regular(c) for c in resolved.maximal)
        assert len(resolved.rays()) > 3


class TestHJ:
    def test_expansions(self):
        assert hj_continued_fraction(2, 1) == [2]
        assert hj_continued_fraction(5, 2) == [3, 2]
        assert hj_continued_fraction(3, 1) == [3]
        assert hj_continued_fraction(5, 4) == [2, 2, 2, 2]

    def test_chains_and_determinants(self):
        assert hj_resolution(2, 1).chain == (-2,)
        res = hj_resolution(5, 2)
        assert res.chain == (-3, -2)
        assert res.exceptional_gram == IntMatrix([[-3, 1], [1, -2]])
        assert abs(res.exceptional_gram.det()) == 5
        assert hj_resolution(3, 1).chain == (-3,)

    def test_gram_is_built_only_when_read(self, monkeypatch):
        built = []
        trusted = IntMatrix._trusted
        monkeypatch.setattr(IntMatrix, "_trusted",
                            staticmethod(lambda *args: built.append(args) or trusted(*args)))
        res = hj_resolution(1000003, 2)
        assert (tuple(res), built) == ((res.chain,), [])
        assert res.exceptional_gram.nrows == len(res.chain)
        assert len(built) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19])
    def test_determinant_is_p_and_negative_definite(self, p):
        for a in range(1, p):
            gram = hj_resolution(p, a).exceptional_gram
            assert abs(gram.det()) == p
            assert signature(Lattice(gram)) == (0, gram.nrows)


class TestClosedCohomologyTables:
    def test_punctured_5_2(self):
        assert [str(g) for g in punctured_quotient_cohomology(5, 2)] == [
            "Z", "0", "Z/5", "Z", "0",
        ]

    def test_punctured_2_3(self):
        table = punctured_quotient_cohomology(2, 3)
        assert table[4] == CohGroup(0, (2,))
        assert table[5] == CohGroup(1, ())
        assert table[6] == CohGroup(0, ())

    def test_punctured_degree_zero(self):
        for p in (2, 3, 5):
            assert punctured_quotient_cohomology(p, 2)[0] == CohGroup(1, ())

    def test_relative_5_2(self):
        table = relative_quotient_cohomology(5, 2)
        assert table[0] == CohGroup(0, ()) and table[1] == CohGroup(0, ())
        assert table[2] == CohGroup(0, ())
        assert table[3] == CohGroup(0, (5,))
        assert table[4] == CohGroup(1, ())

    def test_relative_2_3(self):
        table = relative_quotient_cohomology(2, 3)
        assert table[1] == CohGroup(0, ())
        assert table[3] == CohGroup(0, (2,))
        assert table[5] == CohGroup(0, (2,))
        assert table[6] == CohGroup(1, ())

    def test_relative_even_degrees_vanish_below_top(self):
        for p, n in ((3, 2), (5, 4), (2, 5)):
            table = relative_quotient_cohomology(p, n)
            for m in range(1, n):
                assert table[2 * m] == CohGroup(0, ())

    def test_exceptional_count_matches_relative_ranks(self):
        # degree-2 cohomology of the resolved germ has rank = chain length r,
        # and the exceptional fiber (a chain of r lines) has Euler
        # characteristic r + 1 = number of torus-fixed points = maximal cones
        for p, a in ((5, 2), (7, 4), (11, 3)):
            fan = quotient_fan(CyclicSingularity(p, (1, a)))
            resolved = resolve(fan)
            r = len(hj_resolution(p, a).chain)
            assert len(resolved.rays()) - 2 == r
            assert len(resolved.maximal) == r + 1


class TestBettiCompleteSmooth:
    def test_projective_plane(self):
        assert betti_complete_smooth(projective_space_fan(2)) == [1, 1, 1]

    def test_product_of_lines(self):
        assert betti_complete_smooth(product_of_lines_fan()) == [1, 2, 1]

    def test_projective_line(self):
        assert betti_complete_smooth(projective_space_fan(1)) == [1, 1]

    def test_projective_three_space(self):
        assert betti_complete_smooth(projective_space_fan(3)) == [1, 1, 1, 1]

    @pytest.mark.parametrize("q, betti", [
        ((1, 2), [1, 2, 1]),  # P(1, 1, 2) resolves to the Hirzebruch surface F_2
        ((2, 3), [1, 4, 1]),
        ((1, 1, 3), [1, 2, 2, 1]),
        ((2, 3, 5), [1, 8, 8, 1]),
        ((1, 2, 2), [1, 2, 2, 1]),  # stellar points on faces shared by several cones
        ((1, 2, 4), [1, 3, 3, 1]),
    ])
    def test_resolved_weighted_projective_space(self, q, betti):
        fan = _weighted_projective_fan(q)
        resolved = resolve(fan)
        assert resolved == _scan_resolve(fan)
        assert betti_complete_smooth(resolved) == betti
        assert sum(betti) == len(resolved.maximal)  # Euler characteristic: torus-fixed points

    def test_rejects_incomplete(self):
        fan = quotient_fan(CyclicSingularity(5, (1, 2)))
        with pytest.raises(ValueError):
            betti_complete_smooth(resolve(fan))

    def test_rejects_irregular(self):
        fan = quotient_fan(CyclicSingularity(5, (1, 2)))
        with pytest.raises(ValueError):
            betti_complete_smooth(fan)
