import random
import time

import pytest

from quotcoh.intmat import IntMatrix
from quotcoh.lattices import GLattice, _module_analysis, curtis_reiner_check
from quotcoh import profiles
from quotcoh.profiles import JordanProfile, jordan_profile
from quotcoh.selftest import cycle_matrix, cyclotomic_companion, random_order_p_action
from reference import (
    _sym_single,
    cohomology_dim,
    direct_sum,
    kronecker,
    representative_matrix,
    single,
    sym_power,
    sym_power_matrix,
    tensor,
    zero,
)


class TestJordanProfile:
    def test_identity_is_trivial(self):
        assert jordan_profile(IntMatrix.identity(3), 5) == single(5, 1, 3)

    def test_cyclotomic_companion_is_one_block_of_size_p_minus_1(self):
        assert jordan_profile(cyclotomic_companion(5), 5) == single(5, 4)

    def test_cycle_is_one_free_block(self):
        assert jordan_profile(cycle_matrix(5), 5) == single(5, 5)

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            jordan_profile(IntMatrix([[2]]), 5)

    def test_large_prime_takes_logarithmic_work(self):
        p = 2147483647
        assert jordan_profile(IntMatrix([[1]]), p) == single(p, 1)

    def test_large_prime_rejected_before_int64_overflow(self):
        # the swap has order 2; the kernel works on Python ints, so only the order can refuse it
        with pytest.raises(ValueError, match="not of order dividing p"):
            jordan_profile(IntMatrix([[0, 1], [1, 0]]), 2147483647)

    def test_empty_matrix_is_the_zero_profile(self):
        assert jordan_profile(IntMatrix([], ncols=0), 5) == zero(5)

    def test_dimension_identity(self):
        rng = random.Random(5)
        for p in (2, 3, 5):
            for _ in range(15):
                a = random_order_p_action(rng, p, max_dim=12)
                prof = jordan_profile(a, p)
                assert prof.dimension() == a.nrows

    def test_profile_invariant_under_conjugation(self):
        from quotcoh.selftest import random_unimodular

        rng = random.Random(17)
        base = IntMatrix.block_diagonal(cycle_matrix(3), cyclotomic_companion(3))
        u, ui = random_unimodular(rng, base.nrows, ops=12)
        assert jordan_profile(u * base * ui, 3) == jordan_profile(base, 3)


class TestCohomologyDim:
    def test_free_block_vanishes_in_positive_degrees(self):
        assert cohomology_dim(single(5, 5), 1) == 0

    def test_trivial_blocks_persist(self):
        assert cohomology_dim(single(5, 1, 3), 7) == 3

    def test_degree_zero_counts_all_blocks(self):
        prof = JordanProfile.from_counts(5, {4: 2, 5: 1})
        assert cohomology_dim(prof, 0) == 3


class TestDirectSum:
    def test_counts_add(self):
        a = single(5, 1, 2)
        b = single(5, 5)
        assert direct_sum(a, b) == JordanProfile.from_counts(5, {1: 2, 5: 1})

    def test_zero_is_identity(self):
        a = JordanProfile.from_counts(7, {6: 2, 1: 1})
        assert direct_sum(zero(7), a) == a

    def test_same_size_merges(self):
        a = single(5, 4)
        assert direct_sum(a, a) == single(5, 4, 2)

    def test_mismatched_primes_rejected(self):
        with pytest.raises(ValueError):
            direct_sum(single(3, 1), single(5, 1))


class TestTensor:
    def test_unit(self):
        b = JordanProfile.from_counts(5, {4: 1, 5: 2})
        assert tensor(single(5, 1), b) == b

    def test_n2_squared_at_p2(self):
        n2 = single(2, 2)
        assert tensor(n2, n2) == single(2, 2, 2)

    def test_free_times_free(self):
        n5 = single(5, 5)
        assert tensor(n5, n5) == single(5, 5, 5)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_against_kronecker_oracle(self, p):
        for q1 in range(1, p + 1):
            for q2 in range(1, p + 1):
                a = single(p, q1)
                b = single(p, q2)
                oracle = jordan_profile(
                    kronecker(representative_matrix(a), representative_matrix(b)), p
                )
                assert tensor(a, b) == oracle

    def test_multiblock_against_oracle(self):
        p = 3
        a = JordanProfile.from_counts(p, {1: 2, 3: 1})
        b = JordanProfile.from_counts(p, {2: 1, 3: 1})
        oracle = jordan_profile(
            kronecker(representative_matrix(a), representative_matrix(b)), p
        )
        assert tensor(a, b) == oracle


class TestSymPower:
    def test_sym0(self):
        a = JordanProfile.from_counts(5, {5: 4, 1: 3})
        assert sym_power(a, 0) == single(5, 1)

    def test_sym2_of_trivial(self):
        assert sym_power(single(5, 1, 3), 2) == single(5, 1, 6)

    def test_sym2_of_k3_profile(self):
        # 23-dimensional module; its square is 276-dimensional and the
        # trivial part has dimension choose(4, 2) = 6
        a = JordanProfile.from_counts(5, {5: 4, 1: 3})
        s = sym_power(a, 2)
        assert s.dimension() == 276
        assert s.count(1) == 6
        oracle = jordan_profile(sym_power_matrix(representative_matrix(a), 2), 5)
        assert s == oracle

    @pytest.mark.parametrize("p,blocks,k", [
        (3, {3: 2}, 2),
        (3, {1: 1, 2: 1, 3: 1}, 3),
        (5, {4: 1, 1: 2}, 2),
        (5, {5: 1, 1: 1}, 3),
        (7, {7: 1}, 2),
        (2, {2: 2}, 3),
    ])
    def test_against_matrix_oracle(self, p, blocks, k):
        prof = JordanProfile.from_counts(p, blocks)
        oracle = jordan_profile(sym_power_matrix(representative_matrix(prof), k), p)
        assert sym_power(prof, k) == oracle

    def test_convolution_over_direct_sum(self):
        p = 5
        a = JordanProfile.from_counts(p, {1: 2})
        b = JordanProfile.from_counts(p, {5: 1, 4: 1})
        for k in range(4):
            expected = zero(p)
            for i in range(k + 1):
                expected = direct_sum(expected, tensor(sym_power(a, i), sym_power(b, k - i)))
            assert sym_power(direct_sum(a, b), k) == expected

    def test_random_profiles_against_oracle(self):
        rng = random.Random(41)
        for _ in range(20):
            p = rng.choice((2, 3, 5))
            blocks = {}
            dim = 0
            while dim < 4 or (dim <= 10 and rng.random() < 0.6):
                q = rng.randrange(1, p + 1)
                blocks[q] = blocks.get(q, 0) + 1
                dim += q
            prof = JordanProfile.from_counts(p, blocks)
            k = rng.randrange(4)
            oracle = jordan_profile(sym_power_matrix(representative_matrix(prof), k), p)
            assert sym_power(prof, k) == oracle
            other = single(p, rng.randrange(1, p + 1))
            kron = kronecker(representative_matrix(prof), representative_matrix(other))
            assert tensor(prof, other) == jordan_profile(kron, p)

    def test_free_blocks_have_free_symmetric_powers(self):
        # the input of every quotient computation relies on this
        for p in (5, 7):
            for k in range(2, 7 if p == 7 else 5):
                s = sym_power(single(p, p), k)
                assert s.blocks == ((p, s.dimension() // p),)


class TestFreeBlockSymPower:
    """Sym^k(N_p) in closed form: N_1^[p|k] + N_p^((C(p+k-1, k) - [p|k]) / p)."""

    @pytest.mark.parametrize(
        "p,k", [(p, k) for p in (2, 3, 5) for k in range(7)] + [(7, k) for k in range(5)]
    )
    def test_closed_form_matches_dense_oracle(self, p, k):
        free = single(p, p)
        oracle = jordan_profile(sym_power_matrix(representative_matrix(free), k), p)
        assert _sym_single(p, p, k) == oracle
        # the uniform multiset is the one fixed point, e.g. (2,2), (2,4), (3,3), (3,6), (5,5)
        assert oracle.count(1) == (1 if k % p == 0 else 0)


class TestPermutationSymPower:
    """profiles.sym_power, the closed form for N_1^r + N_p^s, against the algebra."""

    def test_matches_the_algebra_on_every_small_permutation_module(self):
        cases = 0
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            for s in range(22 // p + 1):
                for r in range(23 - p * s):
                    prof = JordanProfile.from_counts(p, {1: r, p: s})
                    for k in range(7):
                        assert profiles.sym_power(prof, k) == sym_power(prof, k), (p, r, s, k)
                        cases += 1
        assert cases == 3388

    @pytest.mark.parametrize("p", [5, 7])
    def test_k3_rows(self, p):
        from quotcoh.hilbert import k3_h2_profile

        h2 = k3_h2_profile(p)
        for k in range(7):
            assert profiles.sym_power(h2, k) == sym_power(h2, k)

    def test_refuses_a_middle_block(self):
        with pytest.raises(ValueError, match="not a permutation module"):
            profiles.sym_power(JordanProfile.from_counts(5, {1: 2, 3: 1}), 2)

    def test_refuses_a_negative_power(self):
        with pytest.raises(ValueError, match="negative"):
            profiles.sym_power(single(5, 5), -1)


class TestCurtisReiner:
    def test_cyclotomic_plus_trivial(self):
        action = IntMatrix.block_diagonal(cyclotomic_companion(5), IntMatrix.identity(2))
        assert curtis_reiner_check(action, 5) == (2, 1, 0)

    def test_cycle(self):
        assert curtis_reiner_check(cycle_matrix(5), 5) == (0, 0, 1)

    def test_identity(self):
        assert curtis_reiner_check(IntMatrix.identity(4), 7) == (4, 0, 0)

    def test_p2_reports_joint_sum(self):
        swap = IntMatrix([[0, 1], [1, 0]])
        action = IntMatrix.block_diagonal(swap, IntMatrix.identity(1), IntMatrix([[-1]]))
        # the integral analysis tells Z^- (l_minus) from Z (l_plus), which both reduce to N_1 mod 2
        result = curtis_reiner_check(action, 2)
        assert (result.l_p, result.l_minus, result.l_plus, result.l_minus + result.l_plus) == (
            1, 1, 1, 2)

    def test_p2_splits_z_from_z_minus(self):
        # diag(1, -1) reduces to N_1^2 mod 2; the trace 0 tells Z + Z^- from Z^2
        result = curtis_reiner_check(IntMatrix([[1, 0], [0, -1]]), 2)
        assert (*result, result.l_minus + result.l_plus) == (1, 1, 0, 2)

    def test_wrong_order_is_refused_by_the_trace(self):
        # the id predates the closed form, which no longer refuses it: the
        # counts and their check follow from the order and do not test it, so
        # [[1, 2], [0, 1]] at p = 2 (sigma = 1 + A) passes them as Z^2
        unipotent = IntMatrix([[1, 2], [0, 1]])
        assert _module_analysis(unipotent, unipotent + IntMatrix.identity(2), 2) == (2, 0, 0)
        # and the callers refuse it: it is no isometry of a non-degenerate form,
        # and its square is not the identity
        for gram in (IntMatrix.identity(2), IntMatrix([[0, 1], [1, 0]]), IntMatrix([[1, 0], [0, -2]])):
            with pytest.raises(ValueError, match="not an isometry"):
                GLattice(gram, unipotent, 2)
        with pytest.raises(ValueError, match="not the identity"):
            curtis_reiner_check(unipotent, 2)
        # likewise the infinite-order [[-1, 2], [0, -1]] passes as (Z^-)^2
        unipotent_times_minus_one = IntMatrix([[-1, 2], [0, -1]])
        assert _module_analysis(unipotent_times_minus_one, IntMatrix([[0, 2], [0, 0]]), 2) == (
            0, 2, 0)
        with pytest.raises(ValueError, match="not the identity"):
            curtis_reiner_check(unipotent_times_minus_one, 2)

    def test_rejects_non_order_p(self):
        with pytest.raises(ValueError):
            curtis_reiner_check(IntMatrix([[1, 1], [0, 1]]), 3)

    def test_infinite_order_at_a_large_prime_is_refused_quickly(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="action\\^p is not the identity over Z"):
            curtis_reiner_check(IntMatrix([[3, 4], [2, 3]]), 1000003)
        assert time.perf_counter() - start < 1.0

    def test_empty_matrix(self):
        assert curtis_reiner_check(IntMatrix([], ncols=0), 5) == (0, 0, 0)


class TestOrderPStructure:
    """Random exact order-p matrices have no middle-size blocks and satisfy
    the rank identities; the full 500-round suite is in the acceptance module."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_no_middle_blocks_and_rank_identities(self, p):
        from quotcoh.intmat import kernel_saturated

        rng = random.Random(100 + p)
        for _ in range(30):
            a = random_order_p_action(rng, p, max_dim=14)
            prof = jordan_profile(a, p)
            assert all(q in (1, p - 1, p) for q, _ in prof.blocks)
            n = a.nrows
            assert n == prof.count(1) + (p - 1) * prof.count(p - 1) + p * prof.count(p)
            fixed_rank = kernel_saturated(a - IntMatrix.identity(n)).nrows
            assert fixed_rank == prof.count(1) + prof.count(p)
