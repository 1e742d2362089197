"""Acceptance suite: one test per criterion, every comparison exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import random
from fractions import Fraction

from quotcoh.engine import (
    DegreeInvariants,
    GradedInvariants,
    degeneration_status,
    e2_entry,
    lefschetz_euler,
    quotient_report,
    u_dimensions,
)
from quotcoh.hilbert import (
    bb_quotient,
    bb_target_lattice,
    betti_numbers,
    betti_table,
    hilbert_invariants,
    hilbert_quotient_report,
)
from quotcoh.intmat import IntMatrix, kernel_saturated
from quotcoh.k3 import K3_TABLE, k3_table, nikulin_involution
from quotcoh.lattices import (
    Lattice,
    group_cohomology,
    invariants,
    pushforward_quotient_lattice,
    signature,
)
from quotcoh.profiles import jordan_profile
from reference import k3_graded_invariants
from quotcoh.selftest import (
    _ubar_independent,
    random_glattice,
    random_graded_invariants,
    random_order_p_action,
)
from quotcoh.toric import (
    CohGroup,
    hj_resolution,
    punctured_quotient_cohomology,
    relative_quotient_cohomology,
)


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_01_nikulin_pushforward():
    """Order-2 symplectic row from the explicit involution."""
    pushed = pushforward_quotient_lattice(nikulin_involution())
    inv = invariants(pushed)
    assert inv.rank == 14
    assert inv.signature == (3, 11)
    assert inv.discriminant_group == (2,) * 6
    assert inv == invariants(k3_table(2, "symplectic").lattice)
    report(1, "involution pushforward has rank 14, signature (3,11), (Z/2)^6")


def test_criterion_02_k3_rows_have_zp_in_degree_three():
    for spec in K3_TABLE:
        rep = quotient_report(k3_graded_invariants(spec))
        assert rep.degenerate, (spec.p, spec.kind)
        assert rep.even_torsion_free is True
        assert rep.odd_torsion_pairs == {1: 2}, (spec.p, spec.kind)
    report(2, f"all {len(K3_TABLE)} rows: H^2, H^4 torsion free and H^3 = Z/p")


def test_criterion_03_hilbert_torsion_tables():
    expected = {
        (5, 2): ((3, 6), 14, {1: 11, 2: 8}),
        (7, 2): ((2, 3), 9, {1: 7, 2: 6}),
        (5, 3): ((3, 9, 14), 40, {1: 37, 2: 31, 3: 26}),
        (7, 3): ((2, 5, 6), 22, {1: 20, 2: 17, 3: 16}),
    }
    for (p, m), (l_plus, eta, pairs) in expected.items():
        inv = hilbert_invariants(p, m)
        assert tuple(inv.l_plus(2 * k) for k in range(1, m + 1)) == l_plus, (p, m)
        assert inv.eta == eta, (p, m)
        rep = hilbert_quotient_report(p, m)
        for k, value in pairs.items():
            assert rep.odd_torsion_pairs[k] == value, (p, m, k)
    report(3, "torsion pair sums for (p,m) in {5,7}x{2,3}, computed end to end")


def test_criterion_04_betti_tables():
    assert betti_table(5, 2) == (7, 60, None, 14)
    assert betti_table(7, 2) == (5, 42, None, 9)
    assert betti_table(5, 3) == (7, 67, 522, 40)
    assert betti_table(7, 3) == (5, 47, 370, 22)
    report(4, "quotient Betti numbers for (p,m) in {5,7}x{2,3}")


def test_criterion_05_bb_lattices_and_fujiki():
    double_factorial = {2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}
    cases = [(5, m) for m in (2, 3, 4)] + [(7, m) for m in (2, 3, 4, 5, 6)]
    for p, m in cases:
        lattice, fujiki = bb_quotient(p, m)
        assert invariants(lattice) == invariants(bb_target_lattice(p, m)), (p, m)
        assert fujiki == Fraction(p ** (m - 1) * double_factorial[m]), (p, m)
    report(5, "quotient form invariants and top-intersection constants, 8 cases")


def test_criterion_06_exceptional_determinants():
    count = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        for a in range(1, p):
            res = hj_resolution(p, a)
            assert abs(res.exceptional_gram.det()) == p, (p, a)
            assert signature(Lattice(res.exceptional_gram)) == (0, len(res.chain)), (p, a)
            count += 1
    report(6, f"exceptional chain determinant = p and negative definiteness, {count} pairs")


def test_criterion_07_punctured_quotient_from_free_action():
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            # sphere-like fiber data: Z in degrees 0 and 2n-1, trivial action
            degrees = [DegreeInvariants.make() for _ in range(2 * n + 1)]
            degrees[0] = DegreeInvariants.make(rank=1, l_plus=1)
            degrees[2 * n - 1] = DegreeInvariants.make(rank=1, l_plus=1)
            fiber = GradedInvariants(
                p=p, n=n, eta=0, degrees=tuple(degrees), strict=False
            )
            derived = []
            for k in range(2 * n + 1):
                if k <= 2 * n - 2:
                    free, tors = e2_entry(fiber, k, 0)
                    derived.append(CohGroup(free, (p,) * tors))
                elif k == 2 * n - 1:
                    free, tors = e2_entry(fiber, 0, 2 * n - 1)
                    assert tors == 0
                    derived.append(CohGroup(free, ()))
                else:
                    derived.append(CohGroup(0, ()))
            assert derived == punctured_quotient_cohomology(p, n), (p, n)
            # the pair table is the punctured one shifted by the cone point
            shifted = [CohGroup(0, ()), CohGroup(0, ())] + derived[1:2 * n]
            assert shifted == relative_quotient_cohomology(p, n), (p, n)
    report(7, "closed cohomology tables match the free-action derivation, 9 cases")


def test_criterion_08_order_p_structure_500_rounds():
    rng = random.Random(20260811)
    rounds = 500
    for p in (3, 5, 7):
        for _ in range(rounds):
            a = random_order_p_action(rng, p, max_dim=15)
            prof = jordan_profile(a, p)
            assert all(q in (1, p - 1, p) for q, _ in prof.blocks)
            n = a.nrows
            assert n == prof.count(1) + (p - 1) * prof.count(p - 1) + p * prof.count(p)
            fixed = kernel_saturated(a - IntMatrix.identity(n)).nrows
            assert fixed == prof.count(1) + prof.count(p)
    report(8, f"{rounds} random exact order-p matrices per prime in (3, 5, 7)")


def test_criterion_09_group_cohomology_even_degree_route():
    rng = random.Random(97)
    rounds = 100
    for p in (2, 3, 5, 7):
        for _ in range(rounds):
            gl = random_glattice(rng, p, max_dim=9)
            for i in (1, 2):
                group_cohomology(gl, i)  # raises if coker(sigma) disagrees in degree 2
    report(9, f"{rounds} random G-lattices per prime in (2, 3, 5, 7)")


def test_criterion_10_degeneration_dimension_identities():
    # example datasets first
    datasets = [k3_graded_invariants(spec) for spec in K3_TABLE]
    datasets += [hilbert_invariants(p, m) for p, m in ((5, 2), (7, 2), (5, 3), (7, 3))]
    for inv in datasets:
        assert lefschetz_euler(inv) == inv.eta
        status = degeneration_status(inv)
        assert status.two and status.three
    rng = random.Random(55)
    for _ in range(100):
        p = rng.choice((3, 5, 7))
        n = rng.randrange(2, 5)
        inv = random_graded_invariants(rng, p, n)
        torsion = {}
        for k in range(1, n):
            cap_even = sum(inv.l_plus(2 * i) for i in range(k)) + sum(
                inv.l_minus(2 * i + 1) for i in range(k)
            )
            cap_odd = sum(inv.l_minus(2 * i) for i in range(k + 1)) + sum(
                inv.l_plus(2 * i + 1) for i in range(k)
            )
            torsion[2 * k] = rng.randrange(0, cap_even + 1)
            torsion[2 * k + 1] = rng.randrange(0, cap_odd + 1)
        dims = u_dimensions(inv, torsion)
        for k, ubar in dims.ubar.items():
            assert ubar == dims.u[k] + dims.u[k + 1]
            assert ubar == _ubar_independent(inv, torsion, k)
        eta = lefschetz_euler(inv)
        if eta >= 2:
            consistent = GradedInvariants(
                p=inv.p, n=inv.n, eta=eta, degrees=inv.degrees, strict=False
            )
            status = degeneration_status(consistent)
            assert status.two == status.three
    report(10, "u-dimension identities and fixed-point counts, 12 datasets + 100 random tables")


def test_criterion_11_degree_rule_gate():
    b2 = betti_numbers(2)
    assert b2 == (1, 0, 23, 0, 276, 0, 23, 0, 1)
    assert sum(b2) == 324
    assert betti_numbers(3)[4] == 299
    import quotcoh.hilbert as hilbert

    hilbert._ensure_degree_rule()
    assert hilbert._degree_rule_checked
    report(11, "basis grading validated against the reference Betti numbers")
