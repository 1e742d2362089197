import pathlib
import random
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, prod

import pytest

from quotcoh import intmat, lattices, profiles
from quotcoh.intmat import IntMatrix, _smith, kernel_saturated, quotient_group
from quotcoh.lattices import (
    GLattice,
    Lattice,
    bns_invariants,
    discriminant,
    discriminant_group,
    dual_lattice,
    group_cohomology,
    invariants,
    named_lattice,
    overlattice_from_glue,
    pushforward_quotient_lattice,
    signature,
)
from quotcoh.hilbert import fujiki_constant
from quotcoh.k3 import nikulin_involution
from quotcoh.selftest import cycle_matrix, random_glattice
from reference import chain_mod, matrix_power, pooled_chain, slots, smith_summand_counts


def U(scale=1):
    return named_lattice("U", scale)


class TestBasicInvariants:
    def test_discriminant_unimodular(self):
        assert discriminant(U()) == 1

    def test_discriminant_binary_block(self):
        assert discriminant(named_lattice("Lambda7")) == 7

    def test_discriminant_scaled(self):
        assert discriminant(U(5)) == 25

    def test_discriminant_group_scaled_planes(self):
        l = U(2).direct_sum(U(2), U(2))
        assert discriminant_group(l) == [2] * 6

    def test_discriminant_group_unimodular(self):
        assert discriminant_group(named_lattice("E8", -1)) == []

    def test_discriminant_group_mixed(self):
        # invariant lattice of the 7-point construction at m = 2
        l = named_lattice("U", 7).direct_sum(named_lattice("Gamma7"), named_lattice("rank1", -2))
        divisors = discriminant_group(l)
        assert divisors.count(14) == 1
        assert sum(1 for d in divisors if d % 7 == 0) == 3
        assert discriminant(l) == 2 * 7 ** 3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_discriminant_groups_of_the_benchmark_ladder(self, seed):
        # each seed presents the lattices in another basis: the modulus read off
        # the congruence pass changes with it, the groups must not
        for l in _benchmark_ladder(seed):
            assert discriminant_group(l) == [d for d in _smith(l.gram).diagonal if d > 1]

    def test_signature(self):
        assert signature(U()) == (1, 1)
        assert signature(named_lattice("E8", -1)) == (0, 8)
        assert signature(U(5).direct_sum(U(), U())) == (3, 3)

    def test_signature_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Lattice(IntMatrix([[1, 1], [1, 1]]))

    def test_root_lattice_discriminants(self):
        assert discriminant(named_lattice("A2")) == 3
        assert discriminant(named_lattice("A4")) == 5
        assert discriminant(named_lattice("E6")) == 3
        assert discriminant(named_lattice("E8")) == 1
        assert signature(named_lattice("E8")) == (8, 0)

    def test_named_lattice_scaling(self):
        assert named_lattice("U", 2).gram == IntMatrix([[0, 2], [2, 0]])
        assert named_lattice("L17").gram.det() == 17
        assert signature(named_lattice("E8", -1)) == (0, 8)
        with pytest.raises(ValueError):
            named_lattice("F4")

    def test_l17_dual(self):
        l17 = named_lattice("L17")
        dual17 = dual_lattice(l17, 17)
        assert invariants(dual17).signature == (0, 4)
        assert discriminant(dual17) == 17 ** 3

    def test_dual_is_scaled_inverse(self):
        a2 = named_lattice("A2")
        assert dual_lattice(a2, 3).gram == IntMatrix([[2, 1], [1, 2]])
        assert dual_lattice(U(-2), 2).gram == IntMatrix([[0, -1], [-1, 0]])
        for l, scale in ((a2, 1), (a2, 2), (U(5), 1)):
            with pytest.raises(ValueError, match="not integral"):
                dual_lattice(l, scale)


class TestBNS:
    def test_nikulin_swap(self):
        assert bns_invariants(nikulin_involution()) == (6, 0, 8)

    def test_trivial_action(self):
        gl = GLattice(U().gram, IntMatrix.identity(2), 5, allow_trivial=True)
        assert bns_invariants(gl) == (2, 0, 0)

    def test_rank22_model_with_invariant_rank_6(self):
        # trivial plane plus four 5-cycles: 22 = 2 + 5*4, invariants of rank 6
        blocks = [IntMatrix.identity(2)] + [cycle_matrix(5)] * 4
        action = IntMatrix.block_diagonal(*blocks)
        gram = IntMatrix.block_diagonal(U().gram, IntMatrix.identity(20))
        gl = GLattice(gram, action, 5)
        assert bns_invariants(gl) == (2, 0, 4)

    def test_isometry_required(self):
        gram = IntMatrix.diagonal([1, 2])
        swap = IntMatrix([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            GLattice(gram, swap, 2)


class TestGroupCohomology:
    def test_nikulin_even_degree(self):
        assert group_cohomology(nikulin_involution(), 2) == (0, (2,) * 6)

    def test_cycle_odd_degree_vanishes(self):
        gl = GLattice(IntMatrix.identity(5), cycle_matrix(5), 5)
        assert group_cohomology(gl, 1) == (0, ())

    def test_trivial_module(self):
        gl = GLattice(IntMatrix([[1]]), IntMatrix.identity(1), 5, allow_trivial=True)
        assert group_cohomology(gl, 3) == (0, ())
        assert group_cohomology(gl, 2) == (0, (5,))
        assert group_cohomology(gl, 0) == (1, ())

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_counts_match_the_smith_form_on_random_lattices(self, p):
        # at p = 2 the counts come from one elimination, of sigma, and the trace
        rng = random.Random(2000 + p)
        for _ in range(10):
            gl = random_glattice(rng, p, max_dim=12)
            assert bns_invariants(gl) == smith_summand_counts(gl.action, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_even_degree_routes_agree_on_random_lattices(self, p):
        rng = random.Random(1000 + p)
        for _ in range(10):
            gl = random_glattice(rng, p, max_dim=9)
            for i in (1, 2, 3, 4):
                group_cohomology(gl, i)  # raises if coker(sigma) disagrees in degrees 2, 4


def _spy_on_smith(monkeypatch):
    """Record the matrix of every Smith elimination, whichever module calls it."""
    calls = []
    original = intmat._smith

    def spy(m, *args, **kwargs):
        calls.append(m)
        return original(m, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("quotcoh") and getattr(module, "_smith", None) is original:
            monkeypatch.setattr(module, "_smith", spy)
    return calls


def _budget_lattices():
    rng = random.Random(11)
    return [nikulin_involution()] + [random_glattice(rng, p, max_dim=12) for p in (2, 3, 5, 7)]


def _bench_gen():
    bench = str(pathlib.Path(__file__).parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import gen
    finally:
        sys.path.remove(bench)
    return gen


@lru_cache(maxsize=None)
def _ladder_catalogue():
    """bench/gen.py's seed-independent catalogue of the ladder's G-lattices, built once."""
    gen = _bench_gen()
    base = random.Random(gen.LATTICE_CATALOGUE_SEED)
    return tuple(gen.glattice(base, *rung) for rung in gen.LATTICE_LADDER)


def _ladder_inputs(seed):
    """gen.lattice_ladder(seed), from the catalogue built once: the seed picks the bases."""
    rng = random.Random(seed)
    return [_bench_gen().in_seeded_basis(inp, rng) for inp in _ladder_catalogue()]


@lru_cache(maxsize=None)
def _benchmark_ladder(seed):
    """The lattice-scan workload's source lattices for a seed (bench/gen.py) and their pushforwards."""
    glattices = [GLattice(IntMatrix(inp.gram), IntMatrix(inp.action), inp.p)
                 for inp in _ladder_inputs(seed)]
    return tuple(l for gl in glattices for l in (gl.lattice(), pushforward_quotient_lattice(gl)))


def test_ladder_inputs_are_the_benchmark_ladder():
    assert _ladder_inputs(1) == _bench_gen().lattice_ladder(1)


class TestEliminationBudget:
    """The counts in closed form: two mod-p eliminations per analysis, sigma then
    phi - 1 (sigma alone at p = 2), a Smith form only for the even-degree route,
    and no result kept between calls."""

    @pytest.mark.parametrize("ask, smiths", [
        (bns_invariants, 0),
        (lambda gl: group_cohomology(gl, 1), 0),
        (lambda gl: group_cohomology(gl, 3), 0),
        (lambda gl: group_cohomology(gl, 2), 1),
        (lambda gl: group_cohomology(gl, 4), 1),
        (lambda gl: (bns_invariants(gl), bns_invariants(gl)), 0),
    ], ids=["bns", "H1", "H3", "H2", "H4", "bns twice"])
    def test_smith_calls_per_question(self, monkeypatch, ask, smiths):
        lattices = _budget_lattices()
        calls = _spy_on_smith(monkeypatch)
        for gl in lattices:
            calls.clear()
            ask(gl)
            # the one Smith form is the even-degree route's, of the kept sigma
            assert calls == [gl.sigma()] * smiths

    def test_lattice_is_the_validated_one(self):
        gl = nikulin_involution()
        assert gl.lattice() is gl.lattice()
        assert gl.lattice() == Lattice(gl.gram)

    @pytest.mark.parametrize("ask, analyses", [
        (bns_invariants, 1),
        (lambda gl: group_cohomology(gl, 1), 1),
        (lambda gl: group_cohomology(gl, 2), 1),
        (lambda gl: (bns_invariants(gl), bns_invariants(gl)), 2),
    ], ids=["bns", "H1", "H2", "bns twice"])
    def test_one_mod_p_elimination_and_no_filtration_per_question(self, monkeypatch, ask,
                                                                   analyses):
        # the id predates the closed form: an analysis now eliminates sigma, for
        # l_p, and then, at odd p, phi - 1, for the check; at p = 2 phi - 1 is
        # sigma mod 2, so that elimination would only repeat the first
        eliminations, filtrations = [], []
        basis = lattices._row_basis_mod_p

        def spy(rows, p, packing):
            # sigma and A - 1 both come as their residues packed by the shared packing
            rows = list(rows)
            eliminations.append(tuple(tuple(slots(r, packing[0], len(rows))) for r in rows))
            return basis(rows, p, packing)

        monkeypatch.setattr(lattices, "_row_basis_mod_p", spy)
        monkeypatch.setattr(profiles, "_profile_from_rows",
                            lambda rows, p: filtrations.append(p))
        for gl in _budget_lattices():
            eliminations.clear()
            ask(gl)
            residues = lambda m: tuple(tuple(x % gl.p for x in row) for row in m.rows)
            minus_one = residues(gl.action - IntMatrix.identity(gl.rank))
            per_analysis = [residues(gl.sigma())] + [minus_one] * (gl.p > 2)
            assert eliminations == per_analysis * analyses
        assert filtrations == []

    @pytest.mark.parametrize("gl", [
        nikulin_involution(),
        GLattice(IntMatrix.identity(10), IntMatrix.block_diagonal(*[cycle_matrix(5)] * 2), 5),
        GLattice(IntMatrix.identity(5),
                 IntMatrix.block_diagonal(cycle_matrix(3), IntMatrix.identity(2)), 3),
    ], ids=["Nikulin", "two 5-cycles", "3-cycle + I_2"])
    def test_wrong_count_is_refused(self, monkeypatch, gl):
        # each case has l_p >= 1, so a basis one row short is a wrong rank too
        basis = lattices._row_basis_mod_p
        assert bns_invariants(gl).l_p >= 1

        def wrong(of_sigma, change):
            # a wrong rank_p(sigma) moves l_p by one and l_minus, l_plus the other
            # way, and rank_p(phi - 1) = (p - 2) l_minus + (p - 1) l_p with them;
            # a wrong rank_p(phi - 1) leaves the counts and fails the check
            def mutant(rows, p, packing):
                rows = list(rows)
                found = basis(rows, p, packing)
                unpacked = [slots(r, packing[0], len(rows)) for r in rows]
                return change(found) if (unpacked == sigma) == of_sigma else found
            return mutant

        sigma = [[x % gl.p for x in row] for row in gl.sigma().rows]
        shrink, grow = (lambda b: b[1:]), (lambda b: b + [1])
        counts = (bns_invariants, lambda gl: group_cohomology(gl, 1))
        bookkeeping = (ValueError, "disagrees|bookkeeping")
        if gl.p > 2:
            cases = [(wrong(of_sigma, change), counts, bookkeeping)
                     for of_sigma in (True, False) for change in (shrink, grow)]
        else:
            # at p = 2 no elimination of phi - 1 runs; here l_minus = 0, so a
            # rank_2(sigma) one too large gives a negative count, and one too small
            # gives counts that the even degrees' Smith form of sigma refuses
            cases = [(wrong(True, grow), counts, bookkeeping),
                     (wrong(True, shrink), (lambda gl: group_cohomology(gl, 2),),
                      (RuntimeError, "mismatch"))]
        for mutant, questions, (error, pattern) in cases:
            with monkeypatch.context() as patch:
                patch.setattr(lattices, "_row_basis_mod_p", mutant)
                for ask in questions:
                    with pytest.raises(error, match=pattern):
                        ask(gl)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_invariants_reuse_the_congruence_pass(self, monkeypatch, seed):
        # invariants reads det, signature, modulus and the kept pivot rows off the
        # Lattice: no second congruence pass.  The modulus m has g_(n-1) | m | D,
        # g_(n-1) = d_1 ... d_(n-1) the gcd of the (n-1)-minors, and the moduli the
        # eliminations get are pairwise coprime parts of m, each coprime to the
        # leading k-minor of the matrix the pass eliminated, where n - k is the
        # size of the block handed over, and k = 0 or 2k >= n
        ladder = _benchmark_ladder(seed)
        leading = [(1,) + tuple(u[0] for u in lattices._congruence(l.gram.rows)[3])
                   for l in ladder]
        congruences, eliminations = [], []
        congruence, chain_mod = lattices._congruence, lattices._chain_mod

        def congruence_spy(rows):
            congruences.append(rows)
            return congruence(rows)

        def chain_spy(rows, c):
            eliminations.append((len(rows), c))
            return chain_mod(rows, c)

        monkeypatch.setattr(lattices, "_congruence", congruence_spy)
        monkeypatch.setattr(lattices, "_chain_mod", chain_spy)
        for l, minors in zip(ladder, leading):
            eliminations.clear()
            invariants(l)
            m, n = l.modulus, l.rank
            g = prod(_smith(l.gram).diagonal[:-1])
            assert m % g == 0 and abs(l.det) % m == 0
            moduli = [c for _, c in eliminations]
            assert prod(moduli) == m and all(c > 1 for c in moduli)
            assert all(gcd(a, b) == 1 for a, b in combinations(moduli, 2))
            for size, c in eliminations:
                k = n - size
                assert gcd(c, minors[k]) == 1 and (k == 0 or 2 * k >= n)
        assert congruences == []
        # the modulus is no mere D: on the ladder it has about half of D's bits
        assert sum(l.modulus.bit_length() for l in ladder) < 0.7 * sum(
            abs(l.det).bit_length() for l in ladder)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_part_matches_the_loop_it_replaced(self, monkeypatch, seed):
        # each part of the modulus, eliminated on G or on a trailing block of a
        # source lattice or a pushforward, gives the group that the extended-gcd
        # loop with a congruence phase (reference.chain_mod) gives on it
        parts, chain = [], lattices._chain_mod

        def spy(rows, c):
            found = chain(rows, c)
            parts.append((rows, c, list(found)))  # discriminant_group extends the first
            return found

        monkeypatch.setattr(lattices, "_chain_mod", spy)
        ladder = _benchmark_ladder(seed)
        for l in ladder:
            discriminant_group(l)
        grams = {id(l.gram.rows) for l in ladder}
        assert {id(rows) in grams for rows, _, _ in parts} == {True, False}  # on G and on blocks
        for rows, c, found in parts:
            assert pooled_chain(found) == pooled_chain(chain_mod(rows, c))


def _order_cases():
    """(gram, action, p) with every combination of isometry and order."""
    rng = random.Random(16)
    pell = (IntMatrix([[1, 0], [0, -2]]), IntMatrix([[3, 4], [2, 3]]))  # infinite order
    cases = [(*pell, p) for p in (2, 3, 5)]  # 1000003: test_trivial_and_large_prime_actions_run_no_pass
    cases += [(IntMatrix.identity(3), cycle_matrix(3), p) for p in (2, 3, 5)]
    cases += [(IntMatrix.identity(2), IntMatrix.identity(2) * -1, p) for p in (2, 3)]
    cases += [(IntMatrix.diagonal([1, 2, 3]), cycle_matrix(3), p) for p in (2, 3)]
    for p in (2, 3, 5, 7):
        for _ in range(6):
            gl = random_glattice(rng, p, max_dim=9)
            n = gl.rank
            bumped = [list(row) for row in gl.action.rows]
            bumped[rng.randrange(n)][rng.randrange(n)] += 1
            cases += [(gl.gram, gl.action, q) for q in (2, 3, 5, 7, 11)]
            cases += [(gl.gram, gl.action * -1, p), (gl.gram, IntMatrix(bumped), p)]
    return cases


class TestNormMapFromOrderCheck:
    """GLattice decides A^p = 1 by A sigma = sigma on the norm map it keeps."""

    def test_accepts_exactly_the_isometries_of_order_dividing_p(self):
        seen = set()
        for gram, action, p in _order_cases():
            isometry = action.transpose() * gram * action == gram
            order = matrix_power(action, p) == IntMatrix.identity(gram.nrows)
            try:
                gl = GLattice(gram, action, p, allow_trivial=True)
            except ValueError as exc:
                assert not (isometry and order)
                message = "action is not an isometry" if not isometry else (
                    f"action does not have order dividing {p}")
                assert str(exc).startswith(message)
            else:
                assert isometry and order
                assert gl.sigma() * gl.action == gl.sigma()
            seen.add((isometry, order, p > gram.nrows + 1))
        assert {(True, True), (True, False), (False, True), (False, False)} <= {s[:2] for s in seen}
        assert (True, False, True) in seen and (True, False, False) in seen

    def test_order_is_checked_before_the_trivial_flag(self):
        with pytest.raises(ValueError, match="trivial action must be flagged"):
            GLattice(U().gram, IntMatrix.identity(2), 5)
        with pytest.raises(ValueError, match="order dividing 3"):
            GLattice(U().gram, IntMatrix.identity(2) * -1, 3)

    def test_one_norm_map_pass_per_construction_and_none_per_question(self, monkeypatch):
        calls = []
        original = intmat._norm_map

        def spy(rows, p):
            calls.append(p)
            return original(rows, p)

        monkeypatch.setattr(intmat, "_norm_map", spy)
        built = [(gl.gram, gl.action, gl.p) for gl in _budget_lattices()]
        calls.clear()
        for gram, action, p in built:
            gl = GLattice(gram, action, p)
            assert calls == [p]
            sigma = gl.sigma()
            assert gl.sigma() is sigma
            group_cohomology(gl, 2)
            group_cohomology(gl, 4)
            pushforward_quotient_lattice(gl)
            assert calls == [p]
            calls.clear()

    def test_trivial_and_large_prime_actions_run_no_pass(self, monkeypatch):
        monkeypatch.setattr(intmat, "_norm_map", lambda rows, p: pytest.fail("norm-map pass"))
        gl = GLattice(U().gram, IntMatrix.identity(2), 1000000007, allow_trivial=True)
        assert gl.sigma() == IntMatrix.identity(2) * 1000000007
        with pytest.raises(ValueError, match="order dividing 7"):
            GLattice(IntMatrix.identity(3), cycle_matrix(3), 7)
        # the Pell isometry has infinite order; its power at this p would have about p digits
        with pytest.raises(ValueError, match="order dividing 1000003"):
            GLattice(IntMatrix([[1, 0], [0, -2]]), IntMatrix([[3, 4], [2, 3]]), 1000003)


class TestPushforward:
    def test_nikulin_matches_table_lattice(self):
        pushed = pushforward_quotient_lattice(nikulin_involution())
        target = named_lattice("E8", -1).direct_sum(U(2), U(2), U(2))
        assert invariants(pushed) == invariants(target)
        # discriminant group has p-length l_plus
        assert invariants(pushed).discriminant_group == (2,) * 6

    def test_trivial_action_rescales(self):
        gl = GLattice(U().gram, IntMatrix.identity(2), 5, allow_trivial=True)
        assert pushforward_quotient_lattice(gl).gram == U(5).gram

    def test_trivial_action_at_a_large_prime_is_bounded(self):
        p = 1000000007
        start = time.perf_counter()
        gl = GLattice(named_lattice("A2").gram, IntMatrix.identity(2), p, allow_trivial=True)
        pushed = pushforward_quotient_lattice(gl)
        assert time.perf_counter() - start < 1.0
        assert pushed.gram == named_lattice("A2", p).gram
        assert discriminant_group(pushed) == [p, 3 * p]

    def test_infinite_order_isometry_at_a_large_prime_is_refused_quickly(self):
        # a Pell unit of diag(1, -2): an isometry whose p-th power has about p digits
        start = time.perf_counter()
        with pytest.raises(ValueError, match="action does not have order dividing 1000003"):
            GLattice(IntMatrix([[1, 0], [0, -2]]), IntMatrix([[3, 4], [2, 3]]), 1000003)
        assert time.perf_counter() - start < 1.0

    def test_cycle_collapses_to_rank_one(self):
        gl = GLattice(IntMatrix.identity(5), cycle_matrix(5), 5)
        assert pushforward_quotient_lattice(gl).gram == IntMatrix([[1]])


class TestOverlattice:
    def test_empty_glue_is_identity(self):
        l = U(3).direct_sum(named_lattice("A2", -1))
        assert overlattice_from_glue(l, []) == l

    def test_gamma7_glue_detects_lambda7(self):
        # inside the invariant block with entries (4,1;1,2): the vectors
        # a+3b and a-4b span a sublattice with Gram 7*(4,-3;-3,4)
        g = named_lattice("Gamma7").gram
        combo = IntMatrix([[1, 3], [1, -4]])
        sub = combo * g * combo.transpose()
        assert sub == IntMatrix([[28, -21], [-21, 28]])
        # gluing (a+3b)/7 into the 7-scaled block produces a lattice with
        # the invariants of Lambda7
        base = Lattice(g * 7)
        glued = overlattice_from_glue(base, [[Fraction(1, 7), Fraction(3, 7)]])
        assert invariants(glued) == invariants(named_lattice("Lambda7"))

    def test_index_follows_discriminants(self):
        base = Lattice(named_lattice("U", 5).gram * 5)
        glued = overlattice_from_glue(
            base, [[Fraction(1, 5), 0], [0, Fraction(1, 5)]]
        )
        # index 5^2, so the discriminant drops by 5^4
        assert discriminant(base) == discriminant(glued) * 5 ** 4
        assert invariants(glued) == invariants(U())

    def test_bad_glue_rejected(self):
        with pytest.raises(ValueError):
            overlattice_from_glue(U(), [[Fraction(1, 5), 0]])

    def test_non_integral_selfpairing_rejected(self):
        base = Lattice(IntMatrix.diagonal([3, 3]))
        with pytest.raises(ValueError):
            overlattice_from_glue(base, [[Fraction(1, 3), 0]])


class TestFujiki:
    def test_reference_values(self):
        assert fujiki_constant(7, 2, 7) == 21
        assert fujiki_constant(5, 2, 5) == 15
        assert fujiki_constant(5, 3, 5) == 375

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            fujiki_constant(5, 1, 5)

    @pytest.mark.parametrize("c", [0, 0.0, Fraction(0)])
    def test_rejects_zero_rescale(self, c):
        with pytest.raises(ValueError, match="non-zero"):
            fujiki_constant(5, 2, c)


class TestLatticeTheoryIdentities:
    def test_index_squared_is_discriminant_ratio(self):
        rng = random.Random(77)
        for _ in range(25):
            n = rng.randrange(2, 5)
            while True:
                g = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        g[i][j] = g[j][i] = rng.randrange(-3, 4)
                gram = IntMatrix(g, ncols=n)
                if gram.det() != 0:
                    break
            while True:
                b = IntMatrix([[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)])
                if b.det() != 0:
                    break
            sub = Lattice(b * gram * b.transpose())
            index = 1
            for d in quotient_group(b, n):
                index *= d
            assert index * index * discriminant(Lattice(gram)) == discriminant(sub)

    def test_primitive_complement_in_unimodular(self):
        # inside the even unimodular lattice of the involution: a scaled
        # plane and its orthogonal complement share their discriminant
        amb = nikulin_involution().gram
        n = amb.nrows
        emb = IntMatrix([[1 if j == i else 0 for j in range(n)] for i in range(2)], ncols=n)
        sub = Lattice(emb * amb * emb.transpose())
        comp_basis = kernel_saturated(emb * amb)
        comp = Lattice(comp_basis * amb * comp_basis.transpose())
        assert discriminant(sub) == discriminant(comp)
