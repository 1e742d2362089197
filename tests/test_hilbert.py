from fractions import Fraction
from functools import lru_cache

import pytest

import quotcoh.hilbert as hilbert
import quotcoh.profiles as profiles
from quotcoh.hilbert import (
    K3_B2,
    bb_quotient,
    bb_target_lattice,
    betti_numbers,
    betti_table,
    fixed_point_count,
    hilbert_invariants,
    hilbert_quotient_report,
    hilbert_report,
    k3_h2_profile,
)
from quotcoh.engine import DegreeInvariants, GradedInvariants, lefschetz_euler, quotient_report
from quotcoh.k3 import K3_TABLE, k3_table, nikulin_involution
from quotcoh.lattices import bns_invariants, invariants
from quotcoh.profiles import JordanProfile
from reference import direct_sum, graded_profile, k3_graded_invariants, single, sym_power, tensor, zero


def _partitions(n, largest=None):
    """Partitions of n as descending tuples (the empty tuple for n = 0)."""
    if n == 0:
        yield ()
    for part in range(min(n, largest or n), 0, -1):
        for tail in _partitions(n - part, part):
            yield (part,) + tail


def _label_degree(lam, mu, nus):
    """The degree rule: 2r-2 per lambda part, 2r+2 per mu part, 2r per nu part."""
    return (sum(2 * r - 2 for r in lam) + sum(2 * r + 2 for r in mu)
            + sum(2 * r for nu in nus for r in nu))


@lru_cache(maxsize=None)
def _labels(m):
    """Oracle: every basis label (lam, mu, nus) of weight m, one partition for
    the unit slot, one for the point slot and one per degree-2 slot."""
    def fill(slots, weight):
        if slots == 0:
            if weight == 0:
                yield ()
            return
        for w in range(weight + 1):
            for part in _partitions(w):
                for rest in fill(slots - 1, weight - w):
                    yield (part,) + rest

    return tuple((label[0], label[1], label[2:]) for label in fill(2 + K3_B2, m))


def _shapes(m):
    """Oracle: (degree, (k_r, ...)) per (lambda, mu, rho) of total weight m,
    where k_r counts the parts of size r of the degree-2 parts rho."""
    for w_lam in range(m + 1):
        for lam in _partitions(w_lam):
            for w_mu in range(m + 1 - w_lam):
                for mu in _partitions(w_mu):
                    for rho in _partitions(m - w_lam - w_mu):
                        ks = tuple(rho.count(r) for r in sorted(set(rho)))
                        yield _label_degree(lam, mu, (rho,)), ks


class TestBasisEnumeration:
    def test_k3_itself(self):
        assert betti_numbers(1) == (1, 0, 22, 0, 1)

    def test_two_points(self):
        b = betti_numbers(2)
        assert b == (1, 0, 23, 0, 276, 0, 23, 0, 1)
        assert sum(b) == 324

    def test_three_points_degree_four(self):
        assert betti_numbers(3)[4] == 299

    def test_enumeration_agrees_with_shape_counts(self):
        for m, total in ((1, 24), (2, 324), (3, 3200)):
            counts = [0] * (4 * m + 1)
            for lam, mu, nus in _labels(m):
                assert sum(lam) + sum(mu) + sum(map(sum, nus)) == m
                counts[_label_degree(lam, mu, nus)] += 1
            assert sum(counts) == total
            assert tuple(counts) == betti_numbers(m)

    def test_poincare_symmetry(self):
        for m in (1, 2, 3, 4):
            b = betti_numbers(m)
            assert b == b[::-1]

    def test_total_dimension_is_partition_generating_function(self):
        # coefficient of q^m in prod (1-q^k)^(-24)
        def chi(m):
            coeffs = [1] + [0] * m
            for k in range(1, m + 1):
                for _ in range(24):
                    for i in range(k, m + 1):
                        coeffs[i] += coeffs[i - k]
            return coeffs[m]

        for m in (1, 2, 3, 4):
            assert sum(betti_numbers(m)) == chi(m)


class TestDegreeRuleGate:
    def test_gate_values(self):
        hilbert._ensure_degree_rule()

    def test_corrupted_rule_aborts(self, monkeypatch):
        monkeypatch.setattr(hilbert, "_degree_rule_checked", False)
        monkeypatch.setattr(hilbert, "_DEGREE_RULE_TARGETS", {2: (999,), (3, 4): 299})
        with pytest.raises(RuntimeError):
            hilbert._ensure_degree_rule()


class TestGradedProfile:
    def test_m2_p5(self):
        inv = graded_profile(2, JordanProfile.from_counts(5, {1: 2, 5: 4}))
        assert inv.l_plus(2) == 3
        assert inv.l_plus(4) == 6
        assert inv.eta == 14

    def test_m3_p7(self):
        inv = graded_profile(3, JordanProfile.from_counts(7, {1: 1, 7: 3}))
        assert inv.l_plus(2) == 2
        assert inv.l_plus(4) == 5
        assert inv.l_plus(6) == 6
        assert inv.eta == 22

    def test_m2_p7(self):
        inv = graded_profile(2, JordanProfile.from_counts(7, {1: 1, 7: 3}))
        assert inv.l_plus(2) == 2
        assert inv.l_plus(4) == 3
        assert inv.eta == 9

    def test_total_dimension_matches_betti(self):
        inv = graded_profile(2, JordanProfile.from_counts(5, {1: 2, 5: 4}))
        for k, b in enumerate(betti_numbers(2)):
            assert inv.degree(k).rank == b

    def test_no_cyclotomic_summands(self):
        inv = graded_profile(3, JordanProfile.from_counts(5, {1: 2, 5: 4}))
        assert all(inv.l_minus(k) == 0 for k in range(13))

    def test_eta_equals_even_trivial_sum(self):
        inv = graded_profile(2, JordanProfile.from_counts(5, {1: 2, 5: 4}))
        assert inv.eta == sum(inv.l_plus(2 * k) for k in range(5))
        assert inv.eta == lefschetz_euler(inv)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            graded_profile(2, JordanProfile.from_counts(5, {1: 2, 5: 3}))

    def test_paper_path_builds_no_dense_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("profile algebra run for a permutation module")

        for name in ("_profile_from_rows", "jordan_profile", "sym_power"):
            monkeypatch.setattr(profiles, name, refuse)
        # past the cache, so the count runs with the profiles refused
        inv = hilbert_invariants.__wrapped__(7, 6)
        assert [inv.degree(k).rank for k in range(25)] == list(betti_numbers(6))

    def test_divisibility_of_free_part(self):
        for p, m in ((5, 2), (7, 2), (5, 3), (7, 3)):
            inv = hilbert_invariants(p, m)
            for k in range(4 * m + 1):
                assert (inv.degree(k).rank - inv.l_plus(k)) % p == 0


def _assembled_profile(m, h2_profile):
    """Oracle: each shape of degree k contributes the tensor product over part
    sizes r of the k_r-th symmetric power of the degree-2 module, read off
    the profile algebra."""
    p = h2_profile.p
    by_degree = [zero(p) for _ in range(4 * m + 1)]
    for degree, ks in _shapes(m):
        module = single(p, 1)
        for k in ks:
            module = tensor(module, sym_power(h2_profile, k))
        by_degree[degree] = direct_sum(by_degree[degree], module)
    degrees = []
    for prof in by_degree:
        assert not [q for q, _ in prof.blocks if 2 <= q <= p - 2]
        degrees.append(DegreeInvariants.make(rank=prof.dimension(), l_plus=prof.count(1),
                                             l_minus=prof.count(p - 1), l_pf=prof.count(p)))
    inv = GradedInvariants(p=p, n=2 * m, eta=0, degrees=tuple(degrees))
    return GradedInvariants(p=p, n=2 * m, eta=lefschetz_euler(inv), degrees=tuple(degrees))


class TestFixedLabelCount:
    """graded_profile counts fixed labels; the profile algebra is its oracle."""

    # every odd p <= 19 and every split 22 = a + p b, with a = 0 at (11, 2) and b = 0
    @pytest.mark.parametrize("p,b", [(p, b) for p in (3, 5, 7, 11, 13, 17, 19)
                                     for b in range(22 // p + 1)])
    def test_matches_the_profile_algebra(self, p, b):
        h2 = JordanProfile.from_counts(p, {1: 22 - p * b, p: b})
        for m in range(1, 7):
            assert graded_profile(m, h2) == _assembled_profile(m, h2)

    # every split with a free orbit, where m = 3 >= p = 3 lets whole orbits repeat a part
    @pytest.mark.parametrize("p,b", [(3, b) for b in range(1, 8)] + [(5, b) for b in range(1, 5)]
                             + [(7, b) for b in range(1, 4)])
    def test_matches_the_labels_constant_on_each_orbit(self, p, b):
        a = K3_B2 - p * b
        orbits = [range(a + p * o, a + p * (o + 1)) for o in range(b)]
        h2 = JordanProfile.from_counts(p, {1: a, p: b})
        for m in (1, 2, 3):
            fixed = [0] * (4 * m + 1)
            for lam, mu, nus in _labels(m):
                if all(len({nus[slot] for slot in orbit}) == 1 for orbit in orbits):
                    fixed[_label_degree(lam, mu, nus)] += 1
            inv = graded_profile(m, h2)
            assert fixed == [inv.l_plus(k) for k in range(4 * m + 1)]

    @pytest.mark.parametrize("count", [0, 10**6])
    def test_moved_labels_must_form_free_orbits(self, monkeypatch, count):
        # 1 - 0 moved labels in degree 0 is no multiple of 7, 1 - 10^6 is negative
        # the degree rule and the ranks are counted before the count is corrupted
        hilbert._ensure_degree_rule()
        betti_numbers(2)
        monkeypatch.setattr(hilbert, "_label_counts", lambda m, a, b=0, p=1: (count,) * (4 * m + 1))
        with pytest.raises(RuntimeError, match="not free orbits"):
            graded_profile(2, k3_h2_profile(7))


class TestK3Table:
    @pytest.mark.parametrize("spec", K3_TABLE, ids=lambda s: f"p{s.p}-{s.kind}")
    def test_row_invariants_are_consistent(self, spec):
        row = k3_table(spec.p, spec.kind)
        inv = row.invariants
        assert inv.rank == spec.l_plus_2 + spec.l_p_2
        assert 22 == spec.l_plus_2 + spec.p * spec.l_p_2
        # quotient lattice has p-length l_plus_2 discriminant
        assert inv.discriminant_group == (spec.p,) * spec.l_plus_2
        positive = 3 if spec.kind == "symplectic" else 1
        assert inv.signature == (positive, inv.rank - positive)
        assert spec.n_sing == spec.l_plus_2 + 2

    def test_nikulin_row_verified_by_pushforward(self):
        row = k3_table(2, "symplectic")
        assert row.pushforward_verified

    def test_unknown_row(self):
        with pytest.raises(ValueError):
            k3_table(13, "symplectic")

    def test_bns_of_the_involution_matches_the_row(self):
        spec = k3_table(2, "symplectic").spec
        bns = bns_invariants(nikulin_involution())
        assert (bns.l_plus, bns.l_p) == (spec.l_plus_2, spec.l_p_2)

    @pytest.mark.parametrize("spec", K3_TABLE, ids=lambda s: f"p{s.p}-{s.kind}")
    def test_quotient_report_for_every_row(self, spec):
        report = quotient_report(k3_graded_invariants(spec))
        assert report.degenerate
        assert report.even_torsion_free
        assert report.odd_torsion_pairs == {1: 2}  # H^3 = Z/p exactly


class TestBBQuotient:
    @pytest.mark.parametrize("p,m", [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6)])
    def test_lattice_invariants_and_fujiki(self, p, m):
        from quotcoh.lattices import discriminant

        lattice, fujiki = bb_quotient(p, m)
        assert invariants(lattice) == invariants(bb_target_lattice(p, m))
        double_factorial = {2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}[m]
        assert fujiki == Fraction(p ** (m - 1) * double_factorial)
        # discriminant bookkeeping: index p^g over the p-scaled invariant
        # lattice of rank r, with g glue classes
        base = hilbert._BB_DATA[p]["blocks"]().direct_sum(
            hilbert.named_lattice("rank1", -2 * (m - 1))
        )
        g = len(hilbert._BB_DATA[p]["glue"])
        r = base.rank
        assert discriminant(lattice) * p ** (2 * g) == p ** r * discriminant(base)

    def test_m1_analogue_is_the_k3_row(self):
        # dropping the half-diagonal block, the same glue reproduces the
        # degree-2 lattice of the surface quotient
        from quotcoh.lattices import Lattice, overlattice_from_glue

        for p in (5, 7):
            data = hilbert._BB_DATA[p]
            base = Lattice(data["blocks"]().gram * p)
            glue = [[entry.get(i, 0) for i in range(base.rank)] for entry in data["glue"]]
            glued = overlattice_from_glue(base, glue)
            row = k3_table(p, "symplectic")
            assert invariants(glued) == row.invariants

    @pytest.mark.parametrize("p,m", [(5, 2), (7, 3)])
    def test_wrong_target_raises(self, monkeypatch, p, m):
        # the target of the next m differs only in the half-diagonal block's square
        target = hilbert._BB_DATA[p]["target"]
        monkeypatch.setitem(hilbert._BB_DATA[p], "target", lambda m: target(m + 1))
        with pytest.raises(RuntimeError, match=f"p={p}, m={m} differs from its named target"):
            bb_quotient(p, m)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bb_quotient(5, 5)
        with pytest.raises(ValueError):
            bb_quotient(7, 7)
        with pytest.raises(ValueError):
            bb_quotient(3, 2)

    @pytest.mark.parametrize("p,m", [(5, 5), (7, 7), (5, 1), (3, 2)])
    def test_target_has_the_same_scope(self, p, m):
        with pytest.raises(ValueError, match="implemented for|m must lie in"):
            bb_target_lattice(p, m)


class TestBettiTable:
    @pytest.mark.parametrize(
        "p,m,expected",
        [
            (5, 2, (7, 60, None, 14)),
            (7, 2, (5, 42, None, 9)),
            (5, 3, (7, 67, 522, 40)),
            (7, 3, (5, 47, 370, 22)),
        ],
    )
    def test_values(self, p, m, expected):
        assert betti_table(p, m) == expected

    def test_range_guard(self):
        with pytest.raises(ValueError):
            betti_table(5, 4)


def _partition_count(n):
    counts = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            counts[i] += counts[i - k]
    return counts[n]


def _eta_by_fixed_point_combinatorics(eta_surface, m):
    """Fixed points of the induced action on the m-point scheme.

    An invariant configuration assigns a length to each fixed point of the
    surface; at one point the invariant punctual subschemes of length k
    are the monomial ideals, counted by partitions of k (valid while
    k stays below the order of the action).
    """
    def count(points_left, weight_left):
        if weight_left == 0:
            return 1
        if points_left == 0:
            return 0
        return sum(
            _partition_count(k) * count(points_left - 1, weight_left - k)
            for k in range(weight_left + 1)
        )

    return count(eta_surface, m)


class TestEtaOracle:
    @pytest.mark.parametrize("p,m", [(5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6)])
    def test_lefschetz_count_matches_configuration_count(self, p, m):
        eta_surface = k3_table(p, "symplectic").n_sing
        assert hilbert_invariants(p, m).eta == _eta_by_fixed_point_combinatorics(eta_surface, m)


HILBERT_ROWS = [(5, m) for m in (2, 3, 4)] + [(7, m) for m in (2, 3, 4, 5, 6)]


class TestFixedPointCount:
    @pytest.mark.parametrize("p,m,count", [
        (5, 2, 14), (5, 3, 40), (5, 4, 105),
        (7, 2, 9), (7, 3, 22), (7, 4, 51), (7, 5, 108), (7, 6, 221),
    ])
    def test_pinned_values_equal_the_model_eta(self, p, m, count):
        assert fixed_point_count(p, m) == count == hilbert_invariants(p, m).eta

    @pytest.mark.parametrize("p,m", HILBERT_ROWS)
    def test_matches_the_configuration_count(self, p, m):
        assert fixed_point_count(p, m) == _eta_by_fixed_point_combinatorics(
            k3_table(p, "symplectic").n_sing, m)

    def test_out_of_range(self):
        for p, m in ((5, 5), (7, 7), (5, -1)):
            with pytest.raises(ValueError, match="0 <= m < p"):
                fixed_point_count(p, m)
        with pytest.raises(ValueError, match="no symplectic row"):
            fixed_point_count(11, 2)

    def test_mismatch_with_the_model_raises(self, monkeypatch):
        monkeypatch.setattr(hilbert, "fixed_point_count", lambda p, m: 1)
        hilbert_invariants.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="fixed-point count"):
                hilbert_invariants(7, 4)
        finally:
            hilbert_invariants.cache_clear()


class TestConjecturalSplit:
    @pytest.mark.parametrize("p,m", HILBERT_ROWS)
    def test_split_sums_to_every_pair_with_trivial_top_torsion(self, p, m):
        report = hilbert_quotient_report(p, m, conjectural_split=True)
        split, n = report.conjectural_odd_torsion, report.n
        assert sorted(split) == list(range(3, 2 * n, 2))
        # X/G minus the singular points has fundamental group G, so t^(2n-1) = 1;
        # the pair sums alone are symmetric and cannot tell the reflection
        assert split[2 * n - 1] == 1
        for k, pair in report.odd_torsion_pairs.items():
            assert split[2 * k + 1] + split[2 * n - 2 * k + 1] == pair


class TestHilbertReport:
    def test_p7_m2(self):
        report = hilbert_report(7, 2)
        assert report["eta"] == 9
        assert report["t3_plus_t7"] == 7
        assert report["t5"] == 3
        assert report["fujiki_constant"] == 21
        assert "provenance" not in report

    def test_m4_flagged_as_unchecked(self):
        report = hilbert_report(7, 4)
        assert report["provenance"] == "computed, no external check"
        assert report["eta"] == lefschetz_euler(hilbert_invariants(7, 4))
