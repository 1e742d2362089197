import random
import time

import pytest

from quotcoh import intmat
from quotcoh.intmat import (
    IntMatrix,
    image_basis,
    is_prime,
    kernel_saturated,
    norm_map,
    quotient_group,
    rank_mod_p,
    smith_decomposition,
)
from quotcoh.lattices import GLattice, pushforward_quotient_lattice
from reference import matrix_power, solve_integer


def random_matrix(rng, nrows, ncols, bound=9):
    return IntMatrix([[rng.randrange(-bound, bound + 1) for _ in range(ncols)] for _ in range(nrows)])


def cycle(n):
    return IntMatrix([[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)])


def e8_gram():
    edges = [(i, i + 1) for i in range(6)] + [(4, 7)]
    m = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in edges:
        m[i][j] = m[j][i] = -1
    return IntMatrix(m)


class TestSmithNormalForm:
    def test_divisibility_chain_forces_one_six(self):
        d = smith_decomposition(IntMatrix.diagonal([2, 3])).d
        assert d == IntMatrix.diagonal([1, 6])

    def test_identity_already_snf(self):
        for n in (1, 2, 5):
            d = smith_decomposition(IntMatrix.identity(n)).d
            assert d == IntMatrix.identity(n)

    def test_hyperbolic_plane_scaled(self):
        d = smith_decomposition(IntMatrix([[0, 2], [2, 0]])).d
        assert d == IntMatrix.diagonal([2, 2])

    def test_transforms_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(60):
            m = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
            s = smith_decomposition(m)
            u, d, v = s.u, s.d, s.v
            assert u * m * v == d
            assert abs(u.det()) == 1
            assert abs(v.det()) == 1
            diag = [d[i, i] for i in range(min(d.nrows, d.ncols))]
            assert all(x >= 0 for x in diag)
            nonzero = [x for x in diag if x]
            assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
            # off-diagonal must vanish
            for i in range(d.nrows):
                for j in range(d.ncols):
                    if i != j:
                        assert d[i, j] == 0

    def test_transforms_are_unimodular(self):
        rng = random.Random(11)
        for _ in range(20):
            m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
            s = smith_decomposition(m)
            assert abs(s.u.det()) == abs(s.v.det()) == 1


class TestRankModP:
    def test_identity(self):
        assert rank_mod_p(IntMatrix.identity(3), 5) == 3

    def test_row_vanishes_mod_p(self):
        assert rank_mod_p(IntMatrix([[5, 0], [0, 1]]), 5) == 1

    def test_cycle_minus_identity(self):
        m = cycle(5) - IntMatrix.identity(5)
        assert rank_mod_p(m, 5) == 4
        # nullspace is spanned by the all-ones vector
        assert m.apply([1] * 5) == (0,) * 5

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            rank_mod_p(IntMatrix.identity(2), 6)

    @pytest.mark.parametrize("ncols", [0, 3])
    def test_no_rows(self, ncols):
        assert rank_mod_p(IntMatrix([], ncols=ncols), 5) == 0

    def test_agrees_with_snf_diagonal(self):
        rng = random.Random(3)
        for p in (2, 3, 5, 7):
            for _ in range(25):
                m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
                diag = smith_decomposition(m).diagonal
                expected = sum(1 for x in diag if x % p != 0)
                assert rank_mod_p(m, p) == expected


class TestNormMap:
    def test_matches_the_power(self):
        from quotcoh.selftest import cyclotomic_companion, random_order_p_action

        rng = random.Random(13)
        pell = IntMatrix([[3, 4], [2, 3]])  # infinite order
        seen = set()
        for p in (2, 3, 5, 7, 11):
            cases = [IntMatrix.identity(n) for n in range(5)] + [
                IntMatrix([[-1]]), pell, cycle(3), cycle(p), cyclotomic_companion(p),
                random_order_p_action(rng, p, max_dim=12),
            ] + [random_matrix(rng, n, n, bound=2) for n in (1, 2, 3, 4)]
            for a in cases:
                want = matrix_power(a, p) == IntMatrix.identity(a.nrows)
                sigma = norm_map(a, p)
                assert (sigma is not None) == want
                if want:
                    assert sigma == sum((matrix_power(a, k) for k in range(1, p)), IntMatrix.identity(a.nrows))
                seen.add((p > a.nrows + 1, want))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_infinite_order_at_a_large_prime_is_bounded(self):
        # the power would have about p digits; Phi_p cannot divide a degree-2 minimal polynomial
        start = time.perf_counter()
        assert norm_map(IntMatrix([[3, 4], [2, 3]]), 1000000007) is None
        assert norm_map(IntMatrix.identity(2), 1000000007) == IntMatrix.identity(2) * 1000000007
        assert time.perf_counter() - start < 1.0


class TestKernelSaturated:
    def test_zero_matrix(self):
        assert kernel_saturated(IntMatrix.zeros(2, 2)) == IntMatrix.identity(2)

    def test_sum_zero_line(self):
        basis = kernel_saturated(IntMatrix([[1, 1]]))
        assert basis.nrows == 1
        (row,) = basis.rows
        assert sorted(row) == [-1, 1]

    def test_cycle_fixed_space(self):
        fixed = kernel_saturated(cycle(5) - IntMatrix.identity(5))
        assert fixed.nrows == 1
        assert abs(fixed[0, 0]) == 1 and len(set(fixed.rows[0])) == 1

    def test_saturated_means_torsion_free_quotient(self):
        rng = random.Random(19)
        for _ in range(40):
            m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 6), bound=6)
            basis = kernel_saturated(m)
            for row in basis.rows:
                assert m.apply(row) == (0,) * m.nrows
            if basis.nrows:
                assert quotient_group(basis, m.ncols) == []


class TestQuotientGroup:
    def test_two_torsion_square(self):
        assert quotient_group(IntMatrix.diagonal([2, 2]), 2) == [2, 2]

    def test_units_dropped(self):
        assert quotient_group(IntMatrix.diagonal([1, 6]), 2) == [6]

    def test_diagonal_antidiagonal_e8_pair(self):
        g = e8_gram()
        assert abs(g.det()) == 1
        rows = []
        for i in range(8):
            e = [0] * 8
            e[i] = 1
            rows.append(e + e)
        for i in range(8):
            e = [0] * 8
            e[i] = 1
            rows.append(e + [-x for x in e])
        sub = IntMatrix(rows, ncols=16)
        assert quotient_group(sub, 16) == [2] * 8

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            quotient_group(IntMatrix([[1, 2], [2, 4]]), 2)

    def test_unimodular_rows_leave_nothing_to_eliminate(self, monkeypatch):
        # D = 1: Z/1 has no elimination to run, and the quotient is trivial
        def no_elimination(rows, m):
            raise AssertionError(f"eliminated modulo {m}")

        monkeypatch.setattr(intmat, "_chain_mod", no_elimination)
        for sub in (IntMatrix.identity(3), IntMatrix([[2, 1], [1, 1]]), e8_gram()):
            assert quotient_group(sub, sub.nrows) == []


class TestSolveAndImage:
    def test_solve_roundtrip(self):
        rng = random.Random(23)
        for _ in range(30):
            m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
            x = [rng.randrange(-4, 5) for _ in range(m.ncols)]
            b = m.apply(x)
            sol = solve_integer(m, b)
            assert sol is not None
            assert m.apply(sol) == b

    def test_unsolvable(self):
        assert solve_integer(IntMatrix([[2]]), [1]) is None

    def test_image_basis_spans_image(self):
        rng = random.Random(29)
        for _ in range(30):
            m = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5), bound=5)
            basis = image_basis(m)
            # every column of m is an integer combination of the basis rows
            for column in m.transpose().rows:
                assert solve_integer(basis.transpose(), column) is not None
            # every basis row is in the image of m
            for row in basis.rows:
                assert solve_integer(m, row) is not None


def test_is_prime_small_values():
    assert [p for p in range(25) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23]


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(is_prime(n) == trial(n) for n in range(-3, 10**5))


@pytest.mark.parametrize("n", [3215031751, 2152302898747, 3474749660383, 341550071728321,
                               3825123056546413051, 318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # the least strong pseudoprimes to all prime bases up to 7, 11, 13, 17, 23 and 37
    assert not is_prime(n)


def test_is_prime_large_values():
    assert is_prime(1000000000000000003)
    assert is_prime(2**61 - 1)
    assert is_prime(3317044064679887385961813)  # the largest prime below the exact bound
    assert not is_prime(2**61 - 1 + 2)
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)  # composite, a strong pseudoprime to bases 2..41


class TestShapes:
    def test_negative_column_count_rejected(self):
        with pytest.raises(ValueError, match="negative column count"):
            IntMatrix([], ncols=-1)
        assert IntMatrix([], ncols=0).ncols == 0

    def test_float_column_count_rejected(self):
        # the column count goes through operator.index, as the entries do
        for build in (lambda: IntMatrix([], ncols=2.5), lambda: IntMatrix.zeros(0, 2.5),
                      lambda: IntMatrix([[1, 2]], ncols=2.0)):
            with pytest.raises(TypeError):
                build()
        assert type(IntMatrix([], ncols=True).ncols) is int

    def test_negative_identity_rejected(self):
        with pytest.raises(ValueError, match="negative size"):
            IntMatrix.identity(-1)
        assert IntMatrix.identity(0) == IntMatrix([], ncols=0)

    @pytest.mark.parametrize("nrows, ncols", [(-1, 2), (2, -1), (-1, -1)])
    def test_negative_zeros_rejected(self, nrows, ncols):
        with pytest.raises(ValueError, match="negative shape"):
            IntMatrix.zeros(nrows, ncols)


class TestTrustedResults:
    """Results the package builds without the per-entry check are well formed."""

    @staticmethod
    def well_formed(m, nrows, ncols):
        assert (m.nrows, m.ncols) == (nrows, ncols)
        assert all(type(row) is tuple and len(row) == ncols for row in m.rows)
        assert all(type(x) is int for row in m.rows for x in row)
        assert m == IntMatrix(m.rows, ncols=ncols)

    @pytest.mark.parametrize("nr, nc", [(0, 3), (3, 0), (2, 3), (4, 4)])
    def test_against_entrywise_formulas(self, nr, nc):
        rng = random.Random(10 * nr + nc)
        a, b = (IntMatrix([[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)], ncols=nc)
                for _ in range(2))
        t = a.transpose()
        self.well_formed(t, nc, nr)
        assert t == IntMatrix([[a.rows[i][j] for i in range(nr)] for j in range(nc)], ncols=nr)
        assert t.transpose() == a
        diff = a - b
        self.well_formed(diff, nr, nc)
        assert diff == IntMatrix([[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)], ncols=nc)
        gram = a * b.transpose()
        self.well_formed(gram, nr, nr)
        assert gram == IntMatrix([[sum(x * y for x, y in zip(r, s)) for s in b.rows] for r in a.rows],
                                 ncols=nr)
        self.well_formed(a * True, nr, nc)
        assert a * -3 == IntMatrix([[-3 * x for x in r] for r in a.rows], ncols=nc)
        self.well_formed(IntMatrix.identity(nc), nc, nc)
        assert a * IntMatrix.identity(nc) == a
        s = smith_decomposition(a)
        for m, shape in ((s.d, (nr, nc)), (s.u, (nr, nr)), (s.v, (nc, nc))):
            self.well_formed(m, *shape)
        assert s.u * a * s.v == s.d
        kernel = kernel_saturated(a)
        self.well_formed(kernel, nc - s.rank, nc)
        assert kernel == IntMatrix(s.v.transpose().rows[s.rank:], ncols=nc)
        image = image_basis(a)
        self.well_formed(image, s.rank, nr)
        assert image == IntMatrix((a * s.v).transpose().rows[:s.rank], ncols=nr)

    @pytest.mark.parametrize("gram, action, p", [
        ([[2, 1], [1, 2]], [[-1, 0], [0, -1]], 2),  # sigma = 0: a rank-0 pushforward
        ([[2, 1], [1, 2]], [[0, 1], [1, 0]], 2),
        ([[4, 1, 1], [1, 4, 1], [1, 1, 4]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]], 3),
    ])
    def test_pushforward_gram(self, gram, action, p):
        gl = GLattice(gram=IntMatrix(gram), action=IntMatrix(action), p=p)
        basis = image_basis(gl.sigma())
        pushed = pushforward_quotient_lattice(gl).gram
        self.well_formed(pushed, basis.nrows, basis.nrows)
        pairing = basis * gl.gram * basis.transpose()
        assert pushed == IntMatrix([[x // p for x in row] for row in pairing.rows], ncols=basis.nrows)
