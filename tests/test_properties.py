"""Property tests for the exact kernels against independent oracles.

The integer signature and determinant are checked against the rational
congruence reduction and the Bareiss determinant, the Z[G]-module
counts in closed form from tr A and rank_p(sigma) against the Smith form
of A - 1 they replaced, the stacked quotient T / (T^G + Ker sigma) and
the coordinate routes to Ker sigma / Im(A - 1) and Ker(A - 1) / Im sigma,
every request of the augmented SNF against the full decomposition, the
image basis against d_i times the columns of u^-1, the Gauss-Jordan
adjugate against the n^2 signed minors it replaced, the Smith diagonal
modulo the determinant against the elimination over Z, on symmetric
Grams too, even and zero-diagonal ones by 2x2 pivot blocks (and its
unreduced entries against the bound D + n D^2), the discriminant group
modulo the (n-1)-minor gcd, split into coprime parts each eliminated on a
trailing block of the congruence pass, against the integer Smith form,
the trailing blocks rebuilt backwards against G and its minors, the F_p
kernel on packed rows against the list kernel it replaced, and its
slotwise Barrett reduction against x % p slot by slot,
the norm map against the naive sum of powers, the integral glue checks against the Fraction arithmetic they
replaced, the prefix sums of the quotient report against the per-degree
sums, and the mod-p ranks and Jordan profiles against Smith diagonals
over Z.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quotcoh import intmat, profiles
from quotcoh.engine import DegreeInvariants, GradedInvariants, _second_page_sums, u_dimensions
from quotcoh.intmat import (
    _MR_LIMIT,
    IntMatrix,
    _chain_mod,
    _divisor_chain,
    _packing,
    _row_basis_mod_p,
    _smith,
    det_adjugate,
    image_basis,
    is_prime,
    kernel_saturated,
    quotient_group,
    rank_mod_p,
    smith_decomposition,
)
from quotcoh.k3 import nikulin_involution
from quotcoh.lattices import (
    BNSInvariants,
    GLattice,
    Lattice,
    _congruence,
    _mirrored,
    _module_analysis,
    _modulus_parts,
    _trailing_blocks,
    bns_invariants,
    curtis_reiner_check,
    discriminant_group,
    group_cohomology,
    named_lattice,
    overlattice_from_glue,
    pushforward_quotient_lattice,
    signature,
)
from quotcoh.profiles import JordanProfile, jordan_profile
from quotcoh.selftest import (
    cycle_matrix,
    cyclotomic_companion,
    random_glattice,
    random_order_p_action,
    random_unimodular,
)
from quotcoh.toric import punctured_quotient_cohomology
from reference import (
    back_substitute, matmul_dense, matrix_power, row_basis_mod_p, smith_dense, smith_summand_counts,
    solve_integer,
)

PROPS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def fraction_signature(gram: IntMatrix) -> tuple[int, int]:
    """Oracle: symmetric congruence reduction over Q, rows and columns."""
    n = gram.nrows
    m = [[Fraction(e) for e in row] for row in gram.rows]
    pos = neg = 0
    for i in range(n):
        if m[i][i] == 0:
            j = next((t for t in range(i + 1, n) if m[t][t] != 0), None)
            if j is not None:
                m[i], m[j] = m[j], m[i]
                for row in m:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((t for t in range(i + 1, n) if m[i][t] != 0), None)
                if j is None:
                    raise ValueError("degenerate form")
                m[i] = [x + y for x, y in zip(m[i], m[j])]
                for row in m:
                    row[i] = row[i] + row[j]
        pivot = m[i][i]
        for j in range(i + 1, n):
            f = m[i][j] / pivot
            if f:
                m[j] = [x - f * y for x, y in zip(m[j], m[i])]
                for row in m:
                    row[j] = row[j] - f * row[i]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
    return pos, neg


@st.composite
def symmetric_forms(draw, max_n=8, bound=4):
    n = draw(st.integers(0, max_n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-bound, bound))
    # many zero diagonals drive the reduction through its moves
    zeros = draw(st.sets(st.integers(0, n - 1))) if n else set()
    for i in zeros:
        rows[i][i] = 0
    return IntMatrix(rows, ncols=n)


@st.composite
def int_matrices(draw, max_side=5, bound=9):
    nr, nc = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    if draw(st.booleans()):
        bound = draw(st.sampled_from([0, 1, 2]))
    rows = [[draw(st.integers(-bound, bound)) for _ in range(nc)] for _ in range(nr)]
    return IntMatrix(rows, ncols=nc)


class TestIntegerSignature:
    @PROPS
    @given(symmetric_forms())
    def test_matches_fraction_reduction(self, gram):
        try:
            want = fraction_signature(gram)
        except ValueError:
            assert gram.det() == 0
            with pytest.raises(ValueError, match="degenerate"):
                _congruence(gram.rows)
            return
        assert gram.det() != 0
        last_pivot, sig, minors, _ = _congruence(gram.rows)
        assert sig == want and last_pivot == gram.det()
        assert sum(want) == gram.nrows
        # a multiple of d_1 ... d_(n-1), the gcd of the (n-1)-minors
        assert minors % prod(_smith(gram).diagonal[:-1]) == 0
        lattice = Lattice(gram)
        assert (lattice.det, signature(lattice)) == (gram.det(), want)

    @pytest.mark.parametrize("rows", [
        [[0]],
        [[0, 0], [0, 0]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[1, 1], [1, 1]],
    ])
    def test_degenerate_forms_raise(self, rows):
        gram = IntMatrix(rows)
        for route in (fraction_signature, lambda g: _congruence(g.rows)):
            with pytest.raises(ValueError):
                route(gram)

    def test_zero_diagonal_blocks(self):
        # hyperbolic planes and a zero-diagonal triangle reach the add step
        for rows, want in [
            ([[0, 1], [1, 0]], (1, 1)),
            ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2)),
            ([[0, 3, 0, 0], [3, 0, 0, 0], [0, 0, 0, -2], [0, 0, -2, 0]], (2, 2)),
        ]:
            gram = IntMatrix(rows)
            last_pivot, sig, *_ = _congruence(gram.rows)
            assert sig == fraction_signature(gram) == want
            assert last_pivot == gram.det()


def stacked_quotient_bns(gl: GLattice) -> BNSInvariants:
    """Oracle: l_p is the p-length of T / (T^G + Ker sigma), whose elementary
    divisors all equal p; then rk T^G = l_plus + l_p and
    rk T = l_plus + (p-1) l_minus + p l_p."""
    p, n = gl.p, gl.rank
    invariant = kernel_saturated(gl.action - IntMatrix.identity(n))
    ker_sigma = kernel_saturated(gl.sigma())
    stacked = IntMatrix(invariant.rows + ker_sigma.rows, ncols=n)
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
    return BNSInvariants(l_plus, remainder // (p - 1), l_p)


def coordinates_in_rowbasis(basis: IntMatrix, vectors: IntMatrix) -> IntMatrix:
    """Rows of `vectors` written in the saturated row basis `basis`."""
    snf = smith_decomposition(basis.transpose())
    coords = []
    for row in vectors.rows:
        sol = back_substitute(snf, row)
        if sol is None:
            raise ValueError("vector outside the span of the basis")
        coords.append(sol)
    return IntMatrix(coords, ncols=basis.nrows)


def direct_cohomology(gl: GLattice, i: int) -> tuple[int, ...]:
    """Oracle: H^i (i > 0) as Ker sigma / Im(phi - 1) for odd i and
    Ker(phi - 1) / Im sigma for even i, each image written in a saturated
    basis of its kernel."""
    minus_one, sigma = gl.action - IntMatrix.identity(gl.rank), gl.sigma()
    kernel, image = (sigma, minus_one) if i % 2 else (minus_one, sigma)
    kernel = kernel_saturated(kernel)
    if kernel.nrows == 0:
        return ()
    coords = coordinates_in_rowbasis(kernel, image_basis(image))
    return tuple(quotient_group(coords, kernel.nrows))


class TestCoordinatesInRowBasis:
    def test_matches_per_row_solve(self):
        rng = random.Random(31)
        for _ in range(20):
            rows, rank = rng.randrange(1, 6), rng.randrange(1, 4)
            basis = kernel_saturated(IntMatrix(
                [[rng.randint(-3, 3) for _ in range(rows + rank)] for _ in range(rows)]))
            coeffs = IntMatrix([[rng.randint(-5, 5) for _ in range(basis.nrows)] for _ in range(4)],
                               ncols=basis.nrows)
            vectors = coeffs * basis
            got = coordinates_in_rowbasis(basis, vectors)
            assert got == coeffs
            assert got.rows == tuple(solve_integer(basis.transpose(), v) for v in vectors.rows)

    def test_vector_outside_the_span(self):
        basis = IntMatrix([[1, 0, 0], [0, 1, 1]])
        assert solve_integer(basis.transpose(), (0, 1, 0)) is None
        with pytest.raises(ValueError, match="outside the span"):
            coordinates_in_rowbasis(basis, IntMatrix([[1, 1, 1], [0, 1, 0]]))


@st.composite
def glattices(draw):
    """selftest's random G-lattices, half of them densely conjugated."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    gl = random_glattice(rng, p, max_dim=10)
    if draw(st.booleans()):
        w, w_inv = random_unimodular(rng, gl.rank, ops=8 * gl.rank)
        gl = GLattice(gram=w.transpose() * gl.gram * w, action=w_inv * gl.action * w,
                      p=p, allow_trivial=True)
    return gl


def averaged_form(action: IntMatrix, p: int) -> IntMatrix:
    """The positive definite invariant form sum (A^i)^T A^i."""
    n = action.nrows
    total, power = IntMatrix.zeros(n, n), IntMatrix.identity(n)
    for _ in range(p):
        total = total + power.transpose() * power
        power = power * action
    return total


def boundary_glattice(p: int, *blocks: IntMatrix) -> GLattice:
    action = IntMatrix.block_diagonal(*blocks)
    return GLattice(averaged_form(action, p), action, p, allow_trivial=True)


def trivial_glattice(p: int) -> GLattice:
    return GLattice(IntMatrix([[2, 1, 0], [1, 2, 0], [0, 0, -4]]), IntMatrix.identity(3), p,
                    allow_trivial=True)


BOUNDARY = {
    "trivial p=2": (lambda: trivial_glattice(2), (3, 0, 0)),
    "trivial p=2^61-1": (lambda: trivial_glattice(2**61 - 1), (3, 0, 0)),
    "Z[G]^3 p=5": (lambda: boundary_glattice(5, *[cycle_matrix(5)] * 3), (0, 0, 3)),
    "Z[G]^4 p=2": (lambda: boundary_glattice(2, *[cycle_matrix(2)] * 4), (0, 0, 4)),
    "cyclotomic^2 p=7": (lambda: boundary_glattice(7, *[cyclotomic_companion(7)] * 2), (0, 2, 0)),
    "cyclotomic^3 p=3": (lambda: boundary_glattice(3, *[cyclotomic_companion(3)] * 3), (0, 3, 0)),
    "rank 1 Z^- p=2": (lambda: boundary_glattice(2, IntMatrix([[-1]])), (0, 1, 0)),
    "rank 1 Z p=3": (lambda: boundary_glattice(3, IntMatrix([[1]])), (1, 0, 0)),
    "Nikulin involution": (nikulin_involution, (6, 0, 8)),
}


@st.composite
def counted_glattices(draw):
    """(G-lattice, its counts) for p up to 13, from drawn counts of trivial,
    cyclotomic and free blocks, the trivial action (allow_trivial) included,
    conjugated by a random unimodular matrix with the averaged form carried
    along: for A' = u A u^-1 the form u^-T F u^-1 is invariant."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    budget = max(12, 2 * p)
    l_p = draw(st.integers(0, budget // p))
    l_minus = draw(st.integers(0, (budget - p * l_p) // (p - 1)))
    l_plus = draw(st.integers(0 if l_p + l_minus else 1, budget - p * l_p - (p - 1) * l_minus))
    blocks = draw(st.permutations(
        [IntMatrix.identity(1)] * l_plus + [cyclotomic_companion(p)] * l_minus
        + [cycle_matrix(p)] * l_p))
    action = IntMatrix.block_diagonal(*blocks)
    form = IntMatrix.block_diagonal(*(averaged_form(b, p) for b in blocks))
    n = action.nrows
    u, u_inv = random_unimodular(random.Random(draw(st.integers(0, 2**32))), n, ops=3 * n)
    gl = GLattice(u_inv.transpose() * form * u_inv, u * action * u_inv, p, allow_trivial=True)
    return gl, BNSInvariants(l_plus, l_minus, l_p)


class TestModuleAnalysis:
    """bns_invariants, group_cohomology and curtis_reiner_check, all read from
    the closed form in tr A and rank_p(sigma), against the stacked quotient
    and the coordinate routes."""

    def check(self, gl):
        want = stacked_quotient_bns(gl)
        bns = bns_invariants(gl)
        assert bns == want
        # one record for the counts, whichever entry point answers
        cr = curtis_reiner_check(gl.action, gl.p)
        assert cr == bns and type(cr) is type(bns)
        assert (cr.l_p, cr.l_minus, cr.l_plus, cr.l_minus + cr.l_plus) == (
            want.l_p, want.l_minus, want.l_plus, want.l_minus + want.l_plus)
        # and one for a cohomology group, the type of toric's tables
        coh_group = type(punctured_quotient_cohomology(2, 2)[0])
        h0 = group_cohomology(gl, 0)
        assert h0 == (want.l_plus + want.l_p, ()) and type(h0) is coh_group
        for i in (1, 2, 3, 4):
            direct = direct_cohomology(gl, i)
            assert direct == (gl.p,) * (want.l_minus if i % 2 else want.l_plus)
            h = group_cohomology(gl, i)
            assert h == (0, direct) and type(h) is coh_group
        # the mod-p profile, a route the analysis does not run, is the oracle of
        # its trace and rank checks: N1^l_plus + N_(p-1)^l_minus + N_p^l_p, which
        # at p = 2 is N1^(l_plus + l_minus) + N2^l_p
        p, counts = gl.p, Counter()
        counts[1] += want.l_plus
        counts[p - 1] += want.l_minus
        counts[p] += want.l_p
        assert jordan_profile(gl.action, p) == JordanProfile.from_counts(p, counts)
        assert sum(gl.action[i, i] for i in range(gl.rank)) == want.l_plus - want.l_minus
        return want

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(glattices())
    def test_matches_the_replaced_routes(self, gl):
        self.check(gl)

    @pytest.mark.parametrize("name", list(BOUNDARY))
    def test_boundary_cases(self, name):
        build, counts = BOUNDARY[name]
        assert self.check(build()) == counts

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(counted_glattices())
    def test_closed_form_matches_the_smith_form_of_a_minus_one(self, case):
        gl, counts = case
        assert _module_analysis(gl.action, gl.sigma(), gl.p) == counts
        assert smith_summand_counts(gl.action, gl.p) == counts
        assert bns_invariants(gl) == curtis_reiner_check(gl.action, gl.p) == counts


class TestSmithOnDemand:
    """Every (u, below) request of the augmented elimination against the full decomposition."""

    def check(self, m):
        full = smith_decomposition(m)
        assert full.u * m * full.v == full.d
        assert abs(full.u.det()) == abs(full.v.det()) == 1
        for u in (False, True):
            for below in (None, IntMatrix.identity(m.ncols), m):
                s = _smith(m, u=u, below=below)
                assert (s.diagonal, s.rank, s.d) == (full.diagonal, full.rank, full.d)
                assert s.u == (full.u if u else None)
                assert s.v == (None if below is None else below * full.v)

    @staticmethod
    def check_image(m):
        """image_basis(m) against the route it replaced: row i is d_i times column i of u^-1."""
        full = smith_decomposition(m)
        det, adj = det_adjugate(full.u.rows)  # det u = +-1, so u^-1 = det * adj(u)
        want = [tuple(full.diagonal[i] * det * row[i] for row in adj) for i in range(full.rank)]
        assert image_basis(m) == IntMatrix(want, ncols=m.nrows)

    @PROPS
    @given(int_matrices())
    def test_tracked_transforms_equal_the_full_ones(self, m):
        self.check(m)

    @PROPS
    @given(int_matrices())
    def test_image_basis_is_d_times_the_inverse_of_u(self, m):
        self.check_image(m)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 4), (4, 2), (3, 3)])
    def test_empty_single_and_zero_matrices(self, shape):
        nr, nc = shape
        cases = [IntMatrix.zeros(nr, nc)]
        if nr and nc:
            cases.append(IntMatrix([[(-1) ** (i + j) * (i + 2 * j + 1) for j in range(nc)]
                                    for i in range(nr)], ncols=nc))
        for m in cases:
            self.check(m)
            self.check_image(m)


@st.composite
def sparse_or_dense_matrices(draw, max_side=7, nrows=None):
    """Matrices of 0 to max_side rows (or nrows) and columns, half of them
    sparse with whole rows and columns of zeros, the others dense."""
    nr = draw(st.integers(0, max_side)) if nrows is None else nrows
    nc = draw(st.integers(0, max_side))
    if draw(st.booleans()):
        entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 5])
        zero_rows = draw(st.sets(st.integers(0, max_side)))
        zero_cols = draw(st.sets(st.integers(0, max_side)))
    else:
        entry, zero_rows, zero_cols = st.integers(-30, 30), set(), set()
    rows = [[0 if i in zero_rows or j in zero_cols else draw(entry) for j in range(nc)]
            for i in range(nr)]
    return IntMatrix(rows, ncols=nc)


class TestSmithSkipsZeroRows:
    """_smith skips the rows that are zero in the trailing block, in its
    pivot search and in its column operations; the dense elimination it
    replaced (reference.smith_dense) must give the same diagonal, rank,
    u, d and v, bit for bit, for every request of u and `below`."""

    @staticmethod
    def check(m):
        for u in (False, True):
            for below in (None, IntMatrix.identity(m.ncols), m):
                assert _smith(m, u=u, below=below) == smith_dense(m, u=u, below=below)

    @PROPS
    @given(glattices())
    def test_norm_maps(self, gl):
        self.check(gl.sigma())

    @PROPS
    @given(sparse_or_dense_matrices())
    def test_sparse_and_dense_matrices(self, m):
        self.check(m)

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_empty_shapes(self, k):
        self.check(IntMatrix.zeros(0, k))
        self.check(IntMatrix.zeros(k, 0))
        for a, b in ((IntMatrix.zeros(k, 0), IntMatrix.zeros(0, 3)),
                     (IntMatrix.zeros(0, k), IntMatrix.zeros(k, 3)),
                     (IntMatrix.identity(k), IntMatrix.zeros(k, 0))):
            assert a * b == matmul_dense(a, b)

    @PROPS
    @given(sparse_or_dense_matrices(), st.data())
    def test_products_against_dot_products(self, a, data):
        # IntMatrix.__mul__ sums rows of b over the nonzero entries of a's rows
        b = data.draw(sparse_or_dense_matrices(nrows=a.ncols))
        product = a * b
        assert product == matmul_dense(a, b)
        assert all(type(row) is tuple and type(x) is int for row in product.rows for x in row)


class TestPushforwardPairing:
    """pushforward_quotient_lattice forms B G B^T as B (B G)^T, which needs G symmetric."""

    @PROPS
    @given(glattices())
    def test_either_order_of_the_products(self, gl):
        basis = image_basis(gl.sigma())
        want = basis * gl.gram * basis.transpose()
        assert basis * (basis * gl.gram).transpose() == want
        assert pushforward_quotient_lattice(gl).gram * gl.p == want


def laplace_det(rows) -> int:
    """Oracle: expansion along the first row, no elimination."""
    if not rows:
        return 1
    return sum((-1) ** j * x * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def minors_cofactors(rows):
    """Oracle: det R and adj(R), adj(R)[i][j] the signed minor of R without row j and column i."""
    n = len(rows)
    adj = tuple(
        tuple(
            (-1) ** (i + j) * laplace_det(
                [[x for t, x in enumerate(row) if t != i] for k, row in enumerate(rows) if k != j]
            )
            for j in range(n)
        )
        for i in range(n)
    )
    return laplace_det(rows), adj


@st.composite
def square_matrices(draw, max_n=5):
    n = draw(st.integers(0, max_n))
    # tiny entries make singular matrices common; 2**64 gives 60+ bit entries
    bound = draw(st.sampled_from([1, 2, 9, 2**64]))
    return [[draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(n)]


class TestBareissAdjugate:
    def check(self, rows):
        n = len(rows)
        want = minors_cofactors(rows)
        assert IntMatrix(rows, ncols=n).det() == want[0]
        if want[0] == 0:
            with pytest.raises(ValueError, match="singular"):
                det_adjugate(rows)
            return
        det, adj = det_adjugate(rows)
        assert (det, adj) == want
        r, a = IntMatrix(rows, ncols=n), IntMatrix(adj, ncols=n)
        assert r * a == a * r == IntMatrix.identity(n) * det

    @PROPS
    @given(square_matrices())
    def test_matches_the_minors_oracle(self, rows):
        self.check(rows)

    @pytest.mark.parametrize("rows", [
        [],
        [[1]],
        [[-7]],
        [[2**61 + 1]],
        [[0, 1], [1, 0]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[2**63 + i * j + (i == j) * 2**62 for j in range(5)] for i in range(5)],
        [[(-1) ** (i * j) * (2**60 + 3 * i + 7 * j) ** (1 + (i + j) % 2) for j in range(5)]
         for i in range(5)],
    ])
    def test_boundary_matrices(self, rows):
        self.check(rows)
        assert rows == [] or det_adjugate(rows)[0] != 0

    @pytest.mark.parametrize("rows", [
        [[0]],
        [[1, 2], [2, 4]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[2**64, 2**65], [3 * 2**64, 3 * 2**65]],
    ])
    def test_singular_matrices_raise(self, rows):
        self.check(rows)
        with pytest.raises(ValueError, match="singular"):
            det_adjugate(rows)

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="square"):
            det_adjugate([[1, 2]])


def sum_of_powers(gl):
    """Oracle: id + phi + ... + phi^(p-1) by dense products."""
    total = IntMatrix.zeros(gl.rank, gl.rank)
    power = IntMatrix.identity(gl.rank)
    for _ in range(gl.p):
        total = total + power
        power = power * gl.action
    return total


class TestNormMap:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32), st.sampled_from([2, 3, 5, 7]))
    def test_sigma_is_the_sum_of_powers(self, seed, p):
        gl = random_glattice(random.Random(seed), p, max_dim=10)
        assert gl.sigma() == sum_of_powers(gl)
        assert gl.sigma() * gl.action == gl.sigma()

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32), st.sampled_from([2, 3, 5, 7]))
    def test_densely_conjugated_action(self, seed, p):
        rng = random.Random(seed)
        gl = random_glattice(rng, p, max_dim=10)
        w, w_inv = random_unimodular(rng, gl.rank, ops=8 * gl.rank)
        dense = GLattice(gram=w.transpose() * gl.gram * w, action=w_inv * gl.action * w,
                         p=p, allow_trivial=True)
        assert dense.sigma() == sum_of_powers(dense) == w_inv * gl.sigma() * w

    @pytest.mark.parametrize("p", [2, 1000000007, 2305843009213693951])
    def test_identity_action_at_any_prime(self, p):
        gram = IntMatrix([[2, 1, 0], [1, 2, 0], [0, 0, -4]])
        gl = GLattice(gram=gram, action=IntMatrix.identity(3), p=p, allow_trivial=True)
        assert gl.sigma() == IntMatrix.identity(3) * p


@st.composite
def nonsingular_matrices(draw, max_n=6):
    """Dense random matrices with rows scaled by a prime, or U diag(d) V with
    repeated and prime-power d: most pivots are then not units modulo D."""
    n = draw(st.integers(0, max_n))
    if draw(st.booleans()):
        bound = draw(st.sampled_from([2, 9, 2**40]))
        rows = [[draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(n)]
        p = draw(st.sampled_from([2, 3, 5]))
        for i in draw(st.sets(st.integers(0, n - 1))) if n else ():
            rows[i] = [p * x for x in rows[i]]
    else:
        d = [draw(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 25, 7**4])) for _ in range(n)]
        rows = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(draw(st.integers(0, 3 * n)) if n > 1 else 0):
            i, j = draw(st.permutations(range(n)))[:2]
            q = draw(st.integers(-3, 3))
            if draw(st.booleans()):
                rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
            else:
                for row in rows:
                    row[i] += q * row[j]
    assume(IntMatrix(rows, ncols=n).det() != 0)
    return rows


# (n, the diagonal entries > 1 of U diag(d) V): every such entry shares one
# prime, so the elimination takes a long run of unit pivots and then at
# least one non-unit step per entry; D has 150 to 250 bits
LONG_RUNS = [
    (24, (3**4, 3**4, 3**4 * 5**6, 3**8 * 5**6 * 7**9, 3**8 * 5**12 * 7**9 * 11**4)),
    (32, (2**5, 2**5, 2**5 * 3**20, 2**10 * 3**40 * 13**10)),
    (40, (7**3, 7**3, 7**3 * 2**16, 7**6 * 2**16 * 3**11, 7**6 * 2**32 * 3**11)),
    (48, (5, 5, 5**2, 5**2 * 3**30, 5**4 * 3**30 * 2**40, 5**4 * 2**40 * 17**5)),
]


def long_run_matrix(case):
    n, tail = LONG_RUNS[case]
    rng = random.Random(case)
    d = (1,) * (n - len(tail)) + tail
    u, v = (random_unimodular(rng, n, ops=4 * n)[0] for _ in range(2))
    return u * IntMatrix.diagonal(d) * v


@st.composite
def symmetric_grams(draw, max_n=7):
    """Non-degenerate symmetric matrices, 1x1 included: dense ones, even ones
    (even diagonal), and S^T diag(d) S with d from units and repeated
    primes, so that the unit diagonal entries run out part-way; d of units
    only gives det +-1."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["dense", "even", "congruent", "unimodular"]))
    if kind in ("dense", "even"):
        bound = draw(st.sampled_from([2, 9, 2**40]))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(st.integers(-bound, bound))
            if kind == "even":
                rows[i][i] *= 2
    else:
        entries = [1, -1] if kind == "unimodular" else [1, -1, 2, 3, -4, 9, 12, 5**3]
        d = [draw(st.sampled_from(entries)) for _ in range(n)]
        rows = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(draw(st.integers(0, 3 * n)) if n > 1 else 0):
            # add q times row and column j to row and column i: a congruence
            i, j = draw(st.permutations(range(n)))[:2]
            q = draw(st.integers(-3, 3))
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[i] += q * row[j]
    assume(IntMatrix(rows, ncols=n).det() != 0)
    return rows


@st.composite
def even_or_zero_diagonal_grams(draw, max_n=8):
    """Non-degenerate symmetric matrices with every diagonal entry even, or zero."""
    n = draw(st.integers(1, max_n))
    bound = draw(st.sampled_from([1, 3, 9, 2**20]))
    zero = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-bound, bound))
        rows[i][i] = 0 if zero else 2 * rows[i][i]
    assume(IntMatrix(rows, ncols=n).det() != 0)
    return rows


def smith_diagonal_mod(rows, det, m):
    """The Smith diagonal of a non-singular square matrix eliminated over
    Z/m, d_1 ... d_(n-1) | m | |det|, as quotient_group and
    discriminant_group compose it."""
    return _divisor_chain(_chain_mod(rows, m) if m > 1 else [], len(rows), det, m)


class TestSmithDiagonalModDet:
    def check(self, rows):
        # modulo D, and modulo d_1 ... d_(n-1), the least modulus allowed
        m = IntMatrix(rows, ncols=len(rows))
        det, want = m.det(), _smith(m).diagonal
        for modulus in (abs(det), prod(want[:-1])):
            assert smith_diagonal_mod(rows, det, modulus) == want

    @PROPS
    @given(symmetric_grams())
    def test_symmetric_grams_match_the_elimination_over_z(self, rows):
        self.check(rows)

    @PROPS
    @given(nonsingular_matrices())
    def test_matches_the_elimination_over_z(self, rows):
        self.check(rows)

    @PROPS
    @given(even_or_zero_diagonal_grams())
    def test_even_and_zero_diagonal_grams(self, rows):
        # no unit on the diagonal modulo 2: the congruence phase goes on by 2x2
        # pivot blocks of unit determinant
        self.check(rows)

    @PROPS
    @given(even_or_zero_diagonal_grams())
    def test_even_grams_leave_only_their_2_radical(self, rows):
        # modulo a power of 2 an even form has no unit on its diagonal, and every
        # 2x2 step keeps the trailing block even; so the phase stops only where
        # that block is 0 mod 2, and n - rank_2(G) rows reach the general loop,
        # one g each
        gram = IntMatrix(rows, ncols=len(rows))
        assert len(_chain_mod(rows, 8)) == gram.nrows - rank_mod_p(gram, 2)

    @pytest.mark.parametrize("rows", [
        [],
        [[1]],
        [[-1]],
        [[12]],
        [[2, 1], [1, 1]],  # D = 1
        [[0, 1], [1, 0]],
        [[2, 0], [0, 3]],  # coprime divisors merge into (1, 6)
        [[4, 0], [0, 6]],  # (2, 12)
        [[9, 0, 0], [0, 3, 0], [0, 0, 27]],
        [[5 if i == j else 0 for j in range(4)] for i in range(4)],
        [[2, 4], [6, 2]],  # no unit anywhere, pivot needs a row combination
        [[6, 4], [4, 6]],
        [[7, 7, 0], [0, 7, 7], [7, 0, 7]],  # 7 times a determinant-2 matrix
        # 2x2 pivot blocks: U, U(2) + U, A2 + U(6), and a zero-diagonal entry
        [[0, 1], [1, 0]],
        [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 6], [0, 0, 6, 0]],
        [[2, 3, 4], [3, 0, 5], [4, 5, 2]],
    ])
    def test_boundary_matrices(self, rows):
        self.check(rows)

    @pytest.mark.parametrize("case", range(len(LONG_RUNS)))
    def test_long_runs_of_lazy_updates(self, case):
        m = long_run_matrix(case)
        tail = LONG_RUNS[case][1]
        assert 150 <= abs(m.det()).bit_length() <= 250
        diagonal = smith_diagonal_mod(m.rows, m.det(), abs(m.det()))
        assert diagonal == _smith(m).diagonal
        assert sum(d > 1 for d in diagonal) == len(tail) >= 3

    @pytest.mark.parametrize("case", range(len(LONG_RUNS)))
    def test_entries_stay_below_d_squared_times_n(self, case, monkeypatch):
        # the rows below the pivot go unreduced, so after k steps an entry is
        # below D + k D^2; the pivot search hands gcd every entry it scans
        m = long_run_matrix(case)
        det, want = m.det(), _smith(m).diagonal
        limit = 2 * abs(det).bit_length() + m.nrows.bit_length() + 2
        widest = []

        def bounded_gcd(a, b):
            widest.append(abs(a).bit_length())
            assert widest[-1] <= limit, f"an entry of {widest[-1]} bits, limit {limit}"
            return gcd(a, b)

        monkeypatch.setattr("quotcoh.intmat.gcd", bounded_gcd)
        assert smith_diagonal_mod(m.rows, det, abs(det)) == want
        assert max(widest) > abs(det).bit_length()  # the updates ran unreduced


@st.composite
def block_sums(draw):
    """U, U(k), A_n, E8(-1) and rank-1 blocks summed and put into a random
    unimodular basis, Q G Q^T: discriminants as smooth as the ladder's."""
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["U", "U(k)", "A", "E8(-1)", "rank1"]))
        if kind == "U(k)":
            blocks.append(named_lattice("U", draw(st.sampled_from([2, 3, 4, 6, -12]))))
        elif kind == "A":
            blocks.append(named_lattice(f"A{draw(st.integers(1, 4))}", draw(st.sampled_from([1, -1, 2]))))
        elif kind == "rank1":
            blocks.append(named_lattice("rank1", draw(st.sampled_from([-1, 2, -4, 6, 9, 27, -50]))))
        else:
            blocks.append(named_lattice("U") if kind == "U" else named_lattice("E8", -1))
    gram = blocks[0].direct_sum(*blocks[1:]).gram
    q, _ = random_unimodular(random.Random(draw(st.integers(0, 2**32))), gram.nrows,
                             ops=3 * gram.nrows)
    return (q * gram * q.transpose()).rows


def _trailing_minors(rows):
    """The three (n-1)-minors of G on rows and columns 0 .. n-3 and one of n-2, n-1 each."""
    n = len(rows)
    head = list(range(n - 2))

    def minor(i, j):
        return IntMatrix([[rows[r][c] for c in head + [j]] for r in head + [i]], ncols=n - 1).det()

    return minor(n - 2, n - 2), minor(n - 2, n - 1), minor(n - 1, n - 1)


class TestDiscriminantGroupModMinors:
    """discriminant_group, eliminated modulo Lattice.modulus (the gcd of D and
    the trailing 2x2 block of the congruence pass at step n - 2), against the
    integer Smith form of the Gram matrix."""

    @staticmethod
    def check(rows):
        gram = IntMatrix(rows, ncols=len(rows))
        lattice = Lattice(gram)
        diagonal = _smith(gram).diagonal
        assert discriminant_group(lattice) == [d for d in diagonal if d > 1]
        # d_1 ... d_(n-1), the gcd of all (n-1)-minors, divides it, and it divides D
        assert lattice.modulus % prod(diagonal[:-1]) == 0
        assert abs(lattice.det) % lattice.modulus == 0

    @PROPS
    @given(symmetric_forms())
    def test_zero_diagonal_forms(self, gram):
        # many zero diagonals send the congruence pass through its move, the
        # addition of a later row and column, at step n - 2 among others
        assume(gram.det() != 0)
        self.check(gram.rows)

    @PROPS
    @given(symmetric_grams(max_n=8))
    def test_grams(self, rows):
        self.check(rows)

    @PROPS
    @given(block_sums())
    def test_block_sums(self, rows):
        # smooth discriminants, as the ladder's, split into several parts
        self.check(rows)

    @pytest.mark.parametrize("rows", [
        [],
        [[5]],
        [[-1]],
        [[0, 2], [2, 0]],  # the addition at step 0 = n - 2
        [[0, 3], [3, 4]],  # the addition at step 0 = n - 2, of a nonzero a_jj
        [[0, 3], [3, -6]],  # the same with c = -1, as 2 a_01 + a_11 = 0
        [[1, 0, 0], [0, 0, 2], [0, 2, 0]],  # the addition at step n - 2
        [[1, 0, 0], [0, 0, 3], [0, 3, 5]],  # the addition at step n - 2, of a nonzero a_jj
        [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 0, 6], [0, 0, 6, 0]],  # even, addition at n - 2
        [[2, 0, 0], [0, 0, 1], [0, 1, 0]],  # even, D = -2
        [[2, 1], [1, 1]],  # D = 1
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],  # even, D = 1
        [[0, 2, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0], [0, 0, 0, 2, 0, 0],
         [0, 0, 2, 0, 0, 0], [0, 0, 0, 0, 0, 2], [0, 0, 0, 0, 2, 0]],  # U(2)^3, D = -64
        [[2 if i == j else 0 for j in range(5)] for i in range(5)],  # A1^5, D = 32
        [[4, -3], [-3, 4]],  # odd D = 7, even
        # (Z/3)^2 on T_2 and (Z/2)^3 on G pool into five g's, the chain 2 | 6 | 6
        # and two 1's, which must go: left in, they would stand for d_2 and d_3
        [[5, 1, -2, 0], [1, 3, 0, 0], [-2, 0, 0, 6], [0, 0, 6, 0]],
        [[2, -2, 2, 0], [-2, 6, 0, 4], [2, 0, 0, 2], [0, 4, 2, -2]],
        [[0, 0, 6], [0, 2, 0], [6, 0, 0]],  # an addition at step 0; all of m = 12 on G
        [[2, 0, 0], [0, 6, 0], [0, 0, 18]],
    ])
    def test_boundary_grams(self, rows):
        self.check(rows)

    @PROPS
    @given(symmetric_grams(max_n=8))
    def test_modulus_is_read_from_three_minors(self, rows):
        # with no zero leading principal minor before step n - 2 the congruence
        # pass makes no move there, so its trailing 2x2 block at step
        # n - 2 holds exactly the three minors on rows and columns 0 .. n - 3
        lattice = Lattice(IntMatrix(rows, ncols=len(rows)))
        n = len(rows)
        if n <= 1:
            assert lattice.modulus == 1
            return
        leading = [IntMatrix([row[:k] for row in rows[:k]], ncols=k).det() for k in range(1, n - 1)]
        if all(leading):
            assert lattice.modulus == gcd(lattice.det, *_trailing_minors(rows))


class TestTrailingBlocks:
    """discriminant_group eliminates each coprime part c_k of Lattice.modulus on
    the trailing block T_k of the congruence pass, rebuilt from its pivot rows
    by Sylvester's identity run backwards.  The pass keeps its rows in the
    frame of the matrix M = E^T G E it eliminates move-free, and T_0 is M."""

    def check_sweep(self, rows):
        *_, pivot_rows = _congruence(rows)
        pivots = tuple(u[0] for u in pivot_rows)
        blocks = [(k, _mirrored(t)) for k, t in _trailing_blocks(pivots, pivot_rows)]
        n = len(rows)
        assert [k for k, _ in blocks] == list(range(n - 1, -1, -1))
        if not n:
            return
        final = blocks[-1][1]
        assert blocks[0][1] == [[pivots[-1]]]
        assert IntMatrix(final).det() == pivots[-1] == IntMatrix(rows, ncols=n).det()
        # T_k is symmetric, and its entry (r, s) is the minor of T_0 on rows
        # 0 .. k-1, k + r and columns 0 .. k-1, k + s; so at (0, 0) it is the
        # leading (k+1)-minor, pivots[k]
        for k, t in blocks:
            assert all(t[r][s] == t[s][r] for r in range(len(t)) for s in range(r))
            for r in range(n - k):
                for s in range(r, n - k):
                    minor = [[final[i][j] for j in [*range(k), k + s]] for i in [*range(k), k + r]]
                    assert t[r][s] == IntMatrix(minor, ncols=k + 1).det()
        # no leading minor of T_0 is zero, so its pass makes no move and keeps
        # the same rows
        assert all(pivots)
        assert _congruence(final)[3] == pivot_rows
        # a move adds a later row and column to an earlier one, so T_0 = E^T G E
        # with E lower unitriangular, and each trailing principal block of T_0
        # is congruent to G's by the trailing block of E: their determinants agree
        for k in range(n):
            assert (IntMatrix([row[k:] for row in final[k:]]).det()
                    == IntMatrix([row[k:] for row in rows[k:]]).det())
        # with no zero leading minor of G the pass makes no move, and T_0 is G
        if all(IntMatrix([row[:k] for row in rows[:k]], ncols=k).det() for k in range(1, n + 1)):
            assert final == [list(row) for row in rows]
        lattice, moved = Lattice(IntMatrix(rows, ncols=n)), Lattice(IntMatrix(final))
        assert moved.signature == lattice.signature
        assert discriminant_group(moved) == discriminant_group(lattice)

    @PROPS
    @given(symmetric_forms())
    def test_sweep_rebuilds_zero_diagonal_forms(self, gram):
        # zero diagonals make the pass move at many steps
        assume(gram.det() != 0)
        self.check_sweep(gram.rows)

    @PROPS
    @given(symmetric_grams(max_n=8))
    def test_sweep_rebuilds_grams(self, rows):
        self.check_sweep(rows)

    @pytest.mark.parametrize("rows", [
        [[0, 0, 6], [0, 2, 0], [6, 0, 0]],  # an addition at step 0, of a zero a_jj
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],  # an addition at step 0
        [[1, 0, 0], [0, 0, 3], [0, 3, 5]],  # an addition at step 1, of a nonzero a_jj
        [[1, 0, 1], [0, 0, 1], [1, 1, 0]],  # an addition at step 1 that changes pivot row 0
        [[0, 1], [1, -2]],  # c = -1, as 2 a_01 + a_11 = 0
        # U + U(2) + A1 on the basis order 4, 0, 2, 1, 3: additions at steps 1 and 2
        [[2, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 2], [0, 1, 0, 0, 0], [0, 0, 2, 0, 0]],
    ])
    def test_sweep_in_the_frame_of_the_moves(self, rows):
        # each case has a zero leading minor, so the pass moves
        n = len(rows)
        assert not all(IntMatrix([row[:k] for row in rows[:k]], ncols=k).det()
                       for k in range(1, n + 1))
        self.check_sweep(rows)

    @staticmethod
    def check_parts(rows):
        lattice = Lattice(IntMatrix(rows, ncols=len(rows)))
        n, pivots = lattice.rank, (1,) + lattice._pass[0]
        parts = _modulus_parts(lattice.modulus, lattice._pass[0])
        assert prod(parts.values()) == lattice.modulus
        assert all(c > 1 and gcd(c, pivots[k]) == 1 for k, c in parts.items())
        assert all(gcd(a, b) == 1 for a, b in combinations(parts.values(), 2))
        # the half-matrix rule: a part lands on G itself or on a block of size <= n/2
        assert all(k == 0 or n <= 2 * k < 2 * n for k in parts)

    @PROPS
    @given(symmetric_grams(max_n=8))
    def test_parts_of_the_modulus(self, rows):
        self.check_parts(rows)

    @PROPS
    @given(block_sums())
    def test_parts_of_the_modulus_of_block_sums(self, rows):
        self.check_parts(rows)


LARGEST_DECIDED_PRIME = 3317044064679887385961813  # the last prime below intmat._MR_LIMIT


class TestPackedRowBasisModP:
    """intmat._row_basis_mod_p takes rows packed as one int of byte-aligned
    slots each and returns its basis packed the same way; unpacked, that
    basis must be the one of the list kernel it replaced
    (reference.row_basis_mod_p), exactly, at every prime is_prime decides,
    and the packing's reduce must take every slot below X = 2 n p^2 to its
    residue."""

    PRIMES = [2, 3, 13, 65537, 2**61 - 1, LARGEST_DECIDED_PRIME]

    def test_the_largest_prime_is_the_last_one_decided(self):
        assert is_prime(LARGEST_DECIDED_PRIME)
        assert not any(is_prime(q) for q in range(LARGEST_DECIDED_PRIME + 1, _MR_LIMIT))

    @staticmethod
    def rows(data, p, nrows, ncols):
        kind = data.draw(st.sampled_from(["residues", "minus one", "wide", "sparse"]))
        if kind == "minus one":
            # every entry -1 mod p: the largest residues, the worst case of the slot bound
            lift = data.draw(st.integers(-2, 2))
            return [[p * lift - 1] * ncols for _ in range(nrows)]
        entry = {
            "residues": st.integers(0, p - 1),
            "wide": st.integers(-p * p, p * p),
            "sparse": st.sampled_from([0, 0, 0, 1, -1, p - 1, p]),
        }[kind]
        return [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]

    @staticmethod
    def basis(rows, p, ncols):
        """The kernel's basis of `rows`, packed after reduction mod p, as
        rank_mod_p and the module analysis pack them, and unpacked."""
        packing = _packing(p, ncols)
        packed = [packing[1]([x % p for x in row]) for row in rows]
        return [packing[2](b) for b in _row_basis_mod_p(packed, p, packing)]

    @PROPS
    @given(st.sampled_from(PRIMES), st.integers(0, 8), st.integers(0, 8), st.data())
    def test_identical_bases(self, p, nrows, ncols, data):
        rows = self.rows(data, p, nrows, ncols)
        want = row_basis_mod_p(rows, p)
        assert self.basis(rows, p, ncols) == want
        # any iterable of packed rows, a generator too
        packing = _packing(p, ncols)
        packed = (packing[1]([x % p for x in row]) for row in rows)
        assert [packing[2](b) for b in _row_basis_mod_p(packed, p, packing)] == want

    @pytest.mark.parametrize("p", PRIMES)
    def test_no_rows_and_one_column(self, p):
        packing = _packing(p, 1)
        assert _row_basis_mod_p([], p, packing) == row_basis_mod_p([], p) == []
        assert _row_basis_mod_p(iter([]), p, packing) == []
        column = [[0], [p], [3 * p - 1], [1]]
        assert self.basis(column, p, 1) == row_basis_mod_p(column, p) == [[1]]

    @PROPS
    @given(st.sampled_from(PRIMES), st.integers(1, 8), st.data())
    def test_packed_products_as_the_profile_forms_them(self, p, n, data):
        # e B = sum_i e_i packed(B_i), slots up to n (p - 1)^2, goes back in unreduced
        b = [[x % p for x in row] for row in self.rows(data, p, n, n)]
        es = [[x % p for x in row] for row in self.rows(data, p, data.draw(st.integers(0, n)), n)]
        packing = _packing(p, n)
        packed = [packing[1](row) for row in b]
        products = [sum(x * row for x, row in zip(e, packed) if x) for e in es]
        plain = [[sum(x * row[j] for x, row in zip(e, b)) for j in range(n)] for e in es]
        found = _row_basis_mod_p(products, p, packing)
        assert [packing[2](r) for r in found] == row_basis_mod_p(plain, p)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 48, 300])
    def test_a_slot_holds_its_bound(self, p, n):
        # an incoming slot below n p^2 plus at most n clearing steps of less than p^2 each
        _, pack, unpack, _ = _packing(p, n)
        top = [2 * n * p * p - 1] * n
        assert unpack(pack(top)) == top
        assert unpack(pack(list(range(n)))) == list(range(n))

    @staticmethod
    def check_reduce(p, slots):
        _, pack, unpack, reduce = _packing(p, len(slots))
        assert unpack(reduce(pack(slots))) == [x % p for x in slots]

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 48, 300])
    def test_reduce_takes_every_slot_below_the_bound_to_its_residue(self, p, n):
        # X = 2 n p^2 bounds every slot the kernel reduces; odd n leaves the
        # last even slot without an odd partner
        top = 2 * n * p * p - 1
        self.check_reduce(p, [top] * n)
        self.check_reduce(p, list(range(n)))
        self.check_reduce(p, [top - j for j in range(n)])

    @pytest.mark.parametrize("p", PRIMES)
    def test_reduce_where_the_bound_nearly_fills_the_slot(self, p):
        # the n <= 400 whose X comes closest to the slot width: there only the
        # spare bit keeps each product x M inside its pair of slots
        n = max(range(1, 401), key=lambda n: 2 * n * p * p / 2 ** _packing(p, n)[0])
        self.check_reduce(p, [2 * n * p * p - 1] * n)

    @PROPS
    @given(st.sampled_from(PRIMES), st.sampled_from([0, 1, 2, 7, 48, 300]), st.data())
    def test_reduce_on_drawn_slots(self, p, n, data):
        # slots from a drawn seed, as n drawn integers each would take seconds
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        top = 2 * n * p * p - 1
        edges = [0, p - 1, p, top]
        self.check_reduce(p, [rng.choice(edges) if rng.random() < 0.25 else rng.randint(0, top)
                              for _ in range(n)])

    @PROPS
    @given(st.sampled_from([2, 3, 13]), st.integers(0, 8), st.integers(0, 8), st.data())
    def test_the_byte_path_of_a_big_endian_host(self, p, nrows, ncols, data):
        # a big-endian host packs through int.to_bytes at every p, a
        # little-endian one only for primes above about 2^27
        rows = self.rows(data, p, nrows, ncols)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(intmat.sys, "byteorder", "big")
            # slots of 18 bits: three bytes, where a machine word would take four
            assert _packing(13, 300)[0] == 24
            assert self.basis(rows, p, ncols) == row_basis_mod_p(rows, p)
            self.check_reduce(p, [2 * ncols * p * p - 1] * ncols)
            self.check_reduce(p, list(range(ncols)))

    @PROPS
    @given(st.sampled_from(PRIMES), st.integers(1, 6), st.data())
    def test_the_profile_hands_over_residues_and_products_below_n_p2(self, p, n, data):
        # B's packed rows hold residues, the diagonal (x_ii - 1) mod p too, so
        # each round's e B stays below n p^2, the bound the kernel takes;
        # A = I + u v^T has B of rank at most 1, so for n >= 2 e B is formed
        # unless B = 0 mod p
        if data.draw(st.booleans()):
            u, v = ([data.draw(st.integers(-p, p)) for _ in range(n)] for _ in range(2))
            rows = [[int(i == j) + u[i] * v[j] for j in range(n)] for i in range(n)]
        else:
            rows = self.rows(data, p, n, n)
        handed = []

        def spy(rows, p, packing):
            rows = list(rows)
            handed.append([x for r in rows for x in packing[2](r)])
            return _row_basis_mod_p(rows, p, packing)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(profiles, "_row_basis_mod_p", spy)
            try:
                jordan_profile(IntMatrix(rows), p)
            except ValueError:
                pass
        assert max(handed[0]) < p
        assert max(max(slots, default=0) for slots in handed) < n * p * p

    @pytest.mark.parametrize("p", [2, 13, 65537])
    def test_the_kernel_unpacks_nothing(self, p):
        # rank 2 of 40 rows: the basis comes back packed, and neither it nor a
        # dependent row is unpacked
        rng = random.Random(p)
        u, v = ([rng.randrange(p) for _ in range(40)] for _ in range(2))
        u[0], v[0], v[1] = 1, 0, 1
        rows = [[a * x + b * y for x, y in zip(u, v)]
                for a, b in ((rng.randrange(p), rng.randrange(p)) for _ in range(38))]
        rows[5:5] = [u, v]
        bits, pack, unpack, reduce = _packing(p, 40)
        unpacked = []

        def counted(r):
            unpacked.append(r)
            return unpack(r)

        packed = [pack([x % p for x in row]) for row in rows]
        found = _row_basis_mod_p(packed, p, (bits, pack, counted, reduce))
        assert unpacked == []
        assert [unpack(r) for r in found] == row_basis_mod_p(rows, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_the_profile_unpacks_the_bases_of_its_filtration(self, monkeypatch, p):
        # jordan_profile unpacks each basis row once, for its product e B: the
        # rows of the bases of (A - 1)^k, k >= 1, sum_k rank_p((A - 1)^k) in all
        blocks = [cycle_matrix(p), cycle_matrix(p), cyclotomic_companion(p), IntMatrix.identity(2)]
        a = IntMatrix.block_diagonal(*blocks)
        q, qi = random_unimodular(random.Random(p), a.nrows, ops=3 * a.nrows)
        a = q * a * qi
        b = a - IntMatrix.identity(a.nrows)
        want = sum(rank_mod_p(matrix_power(b, k), p) for k in range(1, p + 1))
        assert want > 0
        unpacked = []
        packing = profiles._packing

        def spy(p, n):
            bits, pack, unpack, reduce = packing(p, n)

            def counted(r):
                unpacked.append(r)
                return unpack(r)

            return bits, pack, counted, reduce

        monkeypatch.setattr(profiles, "_packing", spy)
        jordan_profile(a, p)
        assert len(unpacked) == want

    def test_slots_stay_machine_words(self):
        # every p and n up to 101 packs into words of at most 64 bits, so a
        # wider bound cannot send them to the byte path unnoticed
        primes = [q for q in range(2, 102) if is_prime(q)]
        assert max(_packing(p, n)[0] for p in primes for n in range(102)) <= 64


def fraction_overlattice(base, glue):
    """Oracle: the glue checks in Fraction arithmetic, as they were written first."""
    n = base.rank
    vectors = [tuple(Fraction(e) for e in v) for v in glue]
    for k, v in enumerate(vectors):
        if len(v) != n:
            raise ValueError(f"glue vector {k} has wrong length")
        denom = lcm(*(e.denominator for e in v)) if v else 1
        if denom != 1 and not is_prime(denom):
            raise ValueError(f"glue vector {k} has non-prime order {denom}")
        for i in range(n):
            pairing = sum(Fraction(base.gram[i, j]) * v[j] for j in range(n))
            if pairing.denominator != 1:
                raise ValueError(f"glue vector {k} pairs non-integrally with basis vector {i}: {pairing}")
        selfpair = sum(v[i] * Fraction(base.gram[i, j]) * v[j] for i in range(n) for j in range(n))
        if selfpair.denominator != 1:
            raise ValueError(f"glue vector {k} has non-integral square {selfpair}")
    if not vectors:
        return base
    denom = lcm(*(e.denominator for v in vectors for e in v), 1)
    gens = [[denom if i == j else 0 for j in range(n)] for i in range(n)]
    gens += [[int(e * denom) for e in v] for v in vectors]
    basis = image_basis(IntMatrix(gens, ncols=n).transpose())
    pairing = basis * base.gram * basis.transpose()
    entries = []
    for i, row in enumerate(pairing.rows):
        for j, e in enumerate(row):
            if e % (denom * denom) != 0:
                raise ValueError(f"overlattice pairing ({i},{j}) is not integral")
        entries.append([e // (denom * denom) for e in row])
    return Lattice(IntMatrix(entries, ncols=n))


@st.composite
def glued_lattices(draw, max_n=5):
    """A p-scaled base, where glue of denominator p often passes, with glue
    vectors over the denominators p, 4 (not prime) and 1."""
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 3))
    scale = draw(st.sampled_from([p, p * p, 1]))
    gram = IntMatrix(rows, ncols=n) * scale
    assume(gram.det() != 0)
    glue = []
    for _ in range(draw(st.integers(0, 3))):
        denom = draw(st.sampled_from([p, p, p, 4, 1]))
        length = n if draw(st.integers(0, 9)) else n + 1
        glue.append([Fraction(draw(st.integers(-denom, denom)), denom) for _ in range(length)])
    return Lattice(gram), glue


class TestIntegralGlue:
    @PROPS
    @given(glued_lattices())
    def test_matches_the_fraction_checks(self, case):
        base, glue = case
        try:
            want = fraction_overlattice(base, glue)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                overlattice_from_glue(base, glue)
            assert str(got.value) == str(exc)
        else:
            assert overlattice_from_glue(base, glue) == want


def per_degree_sums(inv):
    """Oracle: each sum in the closed forms of u_dimensions recomputed from scratch."""
    sums = {}
    for k in range(1, inv.n):
        sums[2 * k] = sum(inv.l_plus(2 * i) for i in range(k)) + sum(
            inv.l_minus(2 * i + 1) for i in range(k)
        )
        sums[2 * k + 1] = sum(inv.l_minus(2 * i) for i in range(k + 1)) + sum(
            inv.l_plus(2 * i + 1) for i in range(k)
        )
    return sums


@st.composite
def graded_invariants(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 12))
    degrees = []
    for _ in range(2 * n + 1):
        l_plus, l_minus, l_pf = (draw(st.integers(0, 50)) for _ in range(3))
        degrees.append(DegreeInvariants.make(
            rank=l_plus + (p - 1) * l_minus + p * l_pf, l_plus=l_plus, l_minus=l_minus, l_pf=l_pf,
        ))
    return GradedInvariants(p=p, n=n, eta=draw(st.integers(0, 50)), degrees=tuple(degrees),
                            strict=False)


class TestSecondPageSums:
    @PROPS
    @given(graded_invariants())
    def test_prefix_sums_match_the_per_degree_sums(self, inv):
        want = per_degree_sums(inv)
        assert _second_page_sums(inv) == want
        assert list(_second_page_sums(inv)) == list(want)
        zero = u_dimensions(inv, want)
        assert zero.u == dict.fromkeys(want, 0)
        assert set(zero.ubar.values()) <= {0}


def smith_rank_mod_p(m: IntMatrix, p: int) -> int:
    """Oracle: the rank over F_p is the number of Smith diagonal entries over Z that p does not divide."""
    return sum(1 for d in _smith(m).diagonal if d % p)


def smith_profile(a: IntMatrix, p: int) -> JordanProfile:
    """Oracle: A^p - 1 over Z for the order, Smith ranks of (A - 1)^k over Z for the blocks."""
    n = a.nrows
    eye = IntMatrix.identity(n)
    if any(x % p for row in (matrix_power(a, p) - eye).rows for x in row):
        raise ValueError("matrix is not of order dividing p over F_p")
    b, power, ranks = a - eye, eye, [n]
    while ranks[-1]:
        power = power * b
        ranks.append(smith_rank_mod_p(power, p))
    ranks.append(0)
    return JordanProfile.from_counts(
        p, {q: ranks[q - 1] - 2 * ranks[q] + ranks[q + 1] for q in range(1, len(ranks) - 1)}
    )


@st.composite
def actions_mod_p(draw):
    """Order-p actions, the same with one entry moved by a unit, and unipotent
    triangular matrices of size 0..12, whose order is p only when their
    nilpotent part dies by the p-th power."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["order p", "perturbed", "unipotent"]))
    if kind == "unipotent":
        n = draw(st.integers(0, 12))
        rows = [[int(i == j) if j <= i else rng.randrange(-3, 4) for j in range(n)] for i in range(n)]
        return p, IntMatrix(rows, ncols=n)
    rows = random_order_p_action(rng, p, max_dim=12).to_lists()
    if kind == "perturbed":
        rows[rng.randrange(len(rows))][rng.randrange(len(rows))] += rng.choice((-1, 1))
    return p, IntMatrix(rows)


class TestModPKernel:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(actions_mod_p())
    def test_profile_matches_the_smith_ranks(self, case):
        p, a = case
        try:
            want = smith_profile(a, p)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                jordan_profile(a, p)
        else:
            assert jordan_profile(a, p) == want

    @PROPS
    @given(st.data())
    def test_rank_at_word_size_primes(self, data):
        # 2^61 - 1 and 10^18 + 3: p^2 n overflows int64, so only exact arithmetic serves
        p = data.draw(st.sampled_from([2**61 - 1, 10**18 + 3]))
        nr, nc = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5))
        big = st.integers(-(2**64), 2**64)
        rows = [[data.draw(big) for _ in range(nc)] for _ in range(nr)]
        if nr > 1 and data.draw(st.booleans()):
            # a multiple of row 0 plus p times anything: dependent mod p only
            q = data.draw(st.integers(-3, 3))
            rows[-1] = [q * x + p * data.draw(st.integers(-5, 5)) for x in rows[0]]
        m = IntMatrix(rows, ncols=nc)
        assert rank_mod_p(m, p) == smith_rank_mod_p(m, p)
