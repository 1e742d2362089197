import random

import pytest

from quotcoh.engine import (
    DegreeInvariants,
    GradedInvariants,
    MAX_JSON_N,
    alpha_even_bound,
    degeneration_status,
    e2_entry,
    lefschetz_euler,
    odd_alpha_pairs,
    quotient_report,
    u_dimensions,
)
from quotcoh.selftest import random_graded_invariants


def k3_invariants(p, l_plus_2, eta):
    one = DegreeInvariants.make(rank=1, l_plus=1)
    zero = DegreeInvariants.make()
    l_p = (22 - l_plus_2) // p
    h2 = DegreeInvariants.make(rank=22, l_plus=l_plus_2, l_pf=l_p)
    return GradedInvariants(p=p, n=2, eta=eta, degrees=(one, zero, h2, zero, one))


def hilbert2_p5():
    from quotcoh.hilbert import hilbert_invariants

    return hilbert_invariants(5, 2)


class TestGradedInvariants:
    def test_rank_identity_enforced(self):
        bad_middle = DegreeInvariants.make(rank=3, l_plus=1)  # fine on its own
        with pytest.raises(ValueError):
            GradedInvariants(
                p=5, n=1, eta=0,
                degrees=(
                    DegreeInvariants.make(rank=1, l_plus=1),
                    bad_middle,
                    DegreeInvariants.make(rank=1, l_plus=1),
                ),
            )

    def test_report_requires_connected_ends(self):
        inv = GradedInvariants(
            p=5, n=1, eta=0,
            degrees=(
                DegreeInvariants.make(rank=0),
                DegreeInvariants.make(rank=0),
                DegreeInvariants.make(rank=1, l_plus=1),
            ),
        )
        with pytest.raises(ValueError, match="connected oriented"):
            quotient_report(inv)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_torsion_blocks_larger_than_p_rejected(self, p):
        # e2_entry counted such a block in row 0 while the F-page dropped it
        one = DegreeInvariants.make(rank=1, l_plus=1)

        def graded(q):
            return GradedInvariants(p=p, n=1, eta=0,
                                    degrees=(one, DegreeInvariants.make(l_qt={1: 1, q: 1}), one))

        assert e2_entry(graded(p), 0, 1) == (0, 2)
        with pytest.raises(ValueError, match=f"degree 1: torsion block of size {p + 1} > p = {p}"):
            graded(p + 1)
        with pytest.raises(ValueError, match="block of size 9"):
            graded(9)

    @pytest.mark.parametrize("l_qt", [((3, 1), (3, 2)), ((3, 1), (2, 2)), ((1, 1), (5, 0), (5, 1))])
    def test_unsorted_or_repeated_torsion_block_sizes_rejected(self, l_qt):
        # a repeated q was read as its last count by torsion_count and as the sum by
        # torsion_blocks_all; an unsorted l_qt compared unequal to its make form
        with pytest.raises(ValueError, match="sorted and distinct"):
            DegreeInvariants(rank=4, l_qt=l_qt)
        # make goes through a dict, so it sorts and merges
        assert DegreeInvariants.make(rank=4, l_qt=dict(l_qt)).l_qt == tuple(
            (q, c) for q, c in sorted(dict(l_qt).items()) if c)

    @pytest.mark.parametrize("count", [0, -1])
    def test_zero_or_negative_torsion_count_rejected(self, count):
        # a zero count compared unequal to the torsion-free degree and read as torsion
        with pytest.raises(ValueError, match="bad torsion profile entry"):
            DegreeInvariants(0, l_qt=((3, count),))
        assert DegreeInvariants.make(l_qt={3: 0}) == DegreeInvariants(0)

    def test_json_roundtrip(self):
        inv = k3_invariants(5, 2, 4)
        assert GradedInvariants.from_json(inv.to_json()) == inv

    @pytest.mark.parametrize("k", [-1, 3])
    def test_from_json_rejects_degree_outside_range(self, k):
        data = {
            "p": 5, "n": 1, "eta": 0,
            "degrees": [{"k": 0, "rank": 1, "l_plus": 1}, {"k": k, "rank": 1, "l_plus": 1}],
        }
        with pytest.raises(ValueError, match="outside"):
            GradedInvariants.from_json(data)

    @pytest.mark.parametrize("field, value", [
        ("n", 1.9), ("n", True), ("n", "1"), ("n", 0), ("n", MAX_JSON_N + 1), ("n", 10**30),
        ("p", 5.9), ("eta", 2.0),
    ])
    def test_from_json_accepts_only_integers_in_range(self, field, value):
        data = {
            "p": 5, "n": 1, "eta": 0,
            "degrees": [{"k": 0, "rank": 1, "l_plus": 1}, {"k": 2, "rank": 1, "l_plus": 1}],
        }
        GradedInvariants.from_json(data)
        with pytest.raises(ValueError):
            GradedInvariants.from_json({**data, field: value})

    @pytest.mark.parametrize("key", ["03", " 3", "+3", "1_0", "3 "])
    def test_from_json_accepts_only_canonical_l_qt_keys(self, key):
        # int() reads all of these, so {"3": 2, "03": 0} once became {3: 0}
        one = {"rank": 1, "l_plus": 1}
        data = {
            "p": 3, "n": 1, "eta": 2,
            "degrees": [{"k": 0, **one}, {"k": 1, "rank": 0, "l_qt": {"3": 2}}, {"k": 2, **one}],
        }
        assert GradedInvariants.from_json(data).degree(1).l_qt == ((3, 2),)
        data["degrees"][1]["l_qt"][key] = 0
        with pytest.raises(ValueError, match="not a canonical integer"):
            GradedInvariants.from_json(data)

    def test_from_json_rejects_duplicate_degree(self):
        one = {"rank": 1, "l_plus": 1}
        data = {
            "p": 5, "n": 1, "eta": 0,
            "degrees": [{"k": 0, **one}, {"k": 0, **one}, {"k": 2, **one}],
        }
        with pytest.raises(ValueError, match="twice"):
            GradedInvariants.from_json(data)


class TestE2Entry:
    def test_k3_even_row(self):
        inv = k3_invariants(5, 2, 4)
        assert e2_entry(inv, 2, 2) == (0, 2)

    def test_base_corner(self):
        inv = k3_invariants(5, 2, 4)
        assert e2_entry(inv, 0, 0) == (1, 0)

    def test_odd_row_vanishes_without_cyclotomic_summands(self):
        inv = k3_invariants(5, 2, 4)
        assert e2_entry(inv, 1, 2) == (0, 0)

    def test_torsion_profile_contributes(self):
        one = DegreeInvariants.make(rank=1, l_plus=1)
        zero = DegreeInvariants.make()
        middle = DegreeInvariants.make(rank=5, l_plus=5, l_qt={1: 2, 5: 1})
        inv = GradedInvariants(p=5, n=2, eta=0, degrees=(one, zero, middle, zero, one))
        assert e2_entry(inv, 0, 2) == (5, 3)   # all torsion blocks invariant
        assert e2_entry(inv, 1, 2) == (0, 2)   # blocks below p only
        assert e2_entry(inv, 2, 2) == (0, 7)

    def test_f_coefficients(self):
        inv = k3_invariants(5, 2, 4)
        # H^2 mod p has 2 trivial and 4 free blocks
        assert e2_entry(inv, 0, 2, coefficients="F") == (0, 6)
        assert e2_entry(inv, 1, 2, coefficients="F") == (0, 2)

    @pytest.mark.parametrize("p", [2, 5])
    def test_l_p_mod_counts_free_and_adjacent_size_p_blocks(self, p):
        # l_pf of H^k plus the size-p torsion blocks of H^k and H^(k+1); the
        # other summands and blocks, and degrees past the top, add nothing
        one = DegreeInvariants.make(rank=1, l_plus=1)
        h1 = DegreeInvariants.make(rank=1 + 2 * (p - 1) + 2 * p, l_plus=1, l_minus=2, l_pf=2,
                                   l_qt={1: 1, p: 1})
        h2 = DegreeInvariants.make(rank=5, l_plus=5, l_qt={1: 3, p: 2})
        inv = GradedInvariants(p=p, n=2, eta=0, degrees=(one, h1, h2, DegreeInvariants.make(), one))
        assert [inv.l_p_mod(k) for k in range(5)] == [1, 5, 2, 0, 0]

    def test_f_entries_from_adjacent_integral_rows(self):
        # universal coefficients for torsion-free input: the mod-p page in a
        # positive row is the p-torsion of the two adjacent integral rows
        rng = random.Random(27)
        for _ in range(20):
            p = rng.choice((2, 3, 5, 7))
            inv = random_graded_invariants(rng, p, rng.randrange(2, 4))
            for q in range(2 * inv.n + 1):
                for d in (1, 2, 3):
                    mod_dim = e2_entry(inv, d, q, coefficients="F").p_torsion
                    t_d = e2_entry(inv, d, q).p_torsion
                    t_d1 = e2_entry(inv, d + 1, q).p_torsion
                    assert mod_dim == t_d + t_d1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_f_page_against_the_per_size_formula(self, p):
        # random torsion profiles in every degree, the ends included
        rng = random.Random(400 + p)
        for _ in range(30):
            n = rng.randrange(1, 4)
            degrees = []
            for k in range(2 * n + 1):
                ends = k in (0, 2 * n)
                l_plus = 1 if ends else rng.randrange(0, 4)
                l_minus, l_pf = (0, 0) if ends else (rng.randrange(0, 3), rng.randrange(0, 3))
                sizes = rng.sample(range(1, p + 1), rng.randrange(0, p + 1))
                degrees.append(DegreeInvariants.make(
                    rank=l_plus + (p - 1) * l_minus + p * l_pf, l_plus=l_plus, l_minus=l_minus,
                    l_pf=l_pf, l_qt={q: rng.randrange(1, 4) for q in sizes}))
            inv = GradedInvariants(p=p, n=n, eta=0, degrees=tuple(degrees))
            for k in range(2 * n + 1):
                below, total = _per_size_block_counts(inv, k)
                assert inv.l_p_mod(k) == total - below
                assert e2_entry(inv, 0, k, coefficients="F") == (0, total)
                for d in (1, 2, 3):
                    assert e2_entry(inv, d, k, coefficients="F") == (0, below)


def _per_size_block_counts(inv, k):
    """(blocks of size < p, all blocks) of H^k mod p, summed size by size: N_1
    from l_plus, N_(p-1) from l_minus (N_1 at p = 2), N_p from l_pf, and each
    torsion block size q of degrees k and k+1 on its own."""
    p = inv.p
    d = inv.degree(k)
    nxt = inv.degrees[k + 1] if k + 1 <= 2 * inv.n else DegreeInvariants.make()
    l1 = d.l_plus + d.torsion_count(1) + nxt.torsion_count(1)
    if p == 2:
        l1 += d.l_minus
        below = l1
        total = below + d.l_pf + d.torsion_count(2) + nxt.torsion_count(2)
        return below, total
    lp1 = d.l_minus + d.torsion_count(p - 1) + nxt.torsion_count(p - 1)
    middle = sum(
        d.torsion_count(q) + nxt.torsion_count(q) for q in range(2, p - 1)
    )
    below = l1 + lp1 + middle
    total = below + d.l_pf + d.torsion_count(p) + nxt.torsion_count(p)
    return below, total


class TestLefschetz:
    def test_k3_symplectic_p5(self):
        assert lefschetz_euler(k3_invariants(5, 2, 4)) == 4

    def test_two_point_hilbert_scheme(self):
        assert lefschetz_euler(hilbert2_p5()) == 14

    def test_even_only(self):
        inv = k3_invariants(7, 1, 3)
        assert lefschetz_euler(inv) == 1 + 1 + 1


class TestDegeneration:
    def test_k3_rows_degenerate(self):
        status = degeneration_status(k3_invariants(5, 2, 4))
        assert status.two and status.three
        assert status.one and status.four

    def test_eta_one_never_degenerates(self):
        status = degeneration_status(k3_invariants(5, 2, 1))
        assert not (status.two or status.three or status.one or status.four)
        assert status.notes

    def test_three_point_hilbert_scheme_p7(self):
        from quotcoh.hilbert import hilbert_invariants

        inv = hilbert_invariants(7, 3)
        assert inv.eta == 22
        status = degeneration_status(inv)
        assert status.two  # 22 = 1+2+5+6+5+2+1
        assert status.three

    def test_mismatched_eta_yields_disagreement_note(self):
        status = degeneration_status(k3_invariants(5, 2, 10))
        assert not status.two and status.three
        assert status.one is None and status.four is None


class TestUDimensions:
    def test_degenerate_torsion_kills_u(self):
        inv = k3_invariants(5, 2, 4)
        dims = u_dimensions(inv, {2: 1, 3: 0})
        assert dims.u == {2: 0, 3: 0}

    def test_k3_u2_vanishes(self):
        inv = k3_invariants(5, 2, 4)
        assert u_dimensions(inv, {2: 1, 3: 0}).u[2] == 0

    def test_zero_torsion_detects_nondegeneration(self):
        inv = k3_invariants(5, 2, 4)
        dims = u_dimensions(inv, {2: 0, 3: 0})
        assert dims.u[2] == 1

    def test_negative_rejected(self):
        inv = k3_invariants(5, 2, 4)
        with pytest.raises(ValueError):
            u_dimensions(inv, {2: 5, 3: 0})

    def test_ubar_is_consecutive_sum(self):
        rng = random.Random(9)
        for _ in range(25):
            p = rng.choice((3, 5, 7))
            n = rng.randrange(2, 5)
            inv = random_graded_invariants(rng, p, n)
            torsion = {}
            for k in range(1, n):
                torsion[2 * k] = 0
                torsion[2 * k + 1] = 0
            dims = u_dimensions(inv, torsion)
            for k in range(2, 2 * n - 1):
                assert dims.ubar[k] == dims.u[k] + dims.u[k + 1]


class TestAlpha:
    def test_zero_odd_cohomology(self):
        inv = k3_invariants(5, 2, 4)
        assert odd_alpha_pairs(inv) == {0: 0, 1: 0}

    def test_symbolic_pair(self):
        one = DegreeInvariants.make(rank=1, l_plus=1)
        zero = DegreeInvariants.make()
        odd = DegreeInvariants.make(rank=2, l_plus=2)
        degrees = (one, zero, zero, odd, zero, zero, zero, zero, one)
        inv = GradedInvariants(p=5, n=4, eta=0, degrees=degrees)
        assert odd_alpha_pairs(inv)[1] == 2

    def test_even_bound(self):
        inv = k3_invariants(5, 2, 4)
        assert alpha_even_bound(inv) == 0
        one = DegreeInvariants.make(rank=1, l_plus=1)
        zero = DegreeInvariants.make()
        mid = DegreeInvariants.make(rank=4, l_minus=1)
        inv2 = GradedInvariants(p=5, n=2, eta=0, degrees=(one, zero, mid, zero, one))
        assert alpha_even_bound(inv2) == 1


class TestQuotientReport:
    def test_k3_row(self):
        report = quotient_report(k3_invariants(5, 2, 4))
        assert report.degenerate
        assert report.alpha == {k: 0 for k in range(1, 5)}
        assert report.even_torsion_free
        assert report.odd_torsion_pairs == {1: 2}  # H^3 = Z/5
        assert report.betti == (1, 0, 6, 0, 1)
        assert report.u == {2: 0, 3: 0}
        assert report.beta == {2: 0}

    def test_two_point_hilbert_scheme_p5(self):
        inv = hilbert2_p5()
        report = quotient_report(inv)
        assert report.degenerate
        assert report.odd_torsion_pairs == {1: 11, 2: 8, 3: 11}
        assert report.betti == (1, 0, 7, 0, 60, 0, 7, 0, 1)
        # rank bookkeeping: what the quotient loses is (p-1) per cyclotomic
        # or free summand
        for k in range(9):
            d = inv.degree(k)
            assert d.rank - report.betti[k] == (inv.p - 1) * (d.l_minus + d.l_pf)

    def test_d_p_pairs(self):
        report = quotient_report(hilbert2_p5())
        inv = hilbert2_p5()
        # d_p^k + d_p^(n-k) = t^2k(U) + t^(2n-2k)(U) + 2 l_+^2k
        t = {2: 1, 4: 1 + 3, 6: 1 + 3 + 6}
        for k in (1, 2, 3):
            assert report.d_p_pairs[k] == t[2 * k] + t[8 - 2 * k] + 2 * inv.l_plus(2 * k)

    def test_conjectural_split_is_optional_and_labeled(self):
        report = quotient_report(hilbert2_p5())
        assert report.conjectural_odd_torsion is None
        report2 = quotient_report(hilbert2_p5(), conjectural_split=True)
        assert report2.conjectural_odd_torsion is not None
        # the split must be consistent with the proved pair sums
        for k, pair in report2.odd_torsion_pairs.items():
            lo = report2.conjectural_odd_torsion[2 * k + 1]
            hi = report2.conjectural_odd_torsion.get(2 * (4 - k) + 1)
            if hi is not None:
                assert lo + hi == pair

    def test_non_degenerate_is_conditional(self):
        one = DegreeInvariants.make(rank=1, l_plus=1)
        zero = DegreeInvariants.make()
        mid = DegreeInvariants.make(rank=4, l_minus=1)
        inv = GradedInvariants(p=5, n=2, eta=0, degrees=(one, zero, mid, zero, one))
        report = quotient_report(inv)
        assert not report.degenerate
        assert report.alpha is None
        assert report.odd_torsion_pairs is None
        assert report.alpha_even_pair_bound == 1

    def test_torsion_in_input_rejected(self):
        one = DegreeInvariants.make(rank=1, l_plus=1)
        zero = DegreeInvariants.make()
        mid = DegreeInvariants.make(rank=4, l_plus=4, l_qt={1: 1})
        inv = GradedInvariants(p=5, n=2, eta=6, degrees=(one, zero, mid, zero, one))
        with pytest.raises(ValueError):
            quotient_report(inv)

    def test_inconsistent_eta_rejected(self):
        # criterion (3) holds but eta disagrees with the Euler count
        with pytest.raises(ValueError):
            quotient_report(k3_invariants(5, 2, 6))


class TestRandomConsistency:
    def test_criteria_two_three_agree_when_eta_is_the_euler_count(self):
        rng = random.Random(13)
        for _ in range(60):
            p = rng.choice((3, 5, 7))
            inv0 = random_graded_invariants(rng, p, rng.randrange(2, 5))
            eta = lefschetz_euler(inv0)
            if eta < 2:
                continue
            inv = GradedInvariants(p=inv0.p, n=inv0.n, eta=eta, degrees=inv0.degrees)
            status = degeneration_status(inv)
            assert status.two == status.three
