"""Hilbert schemes of points on a K3 surface with natural prime-order actions.

The integral cohomology of the m-point Hilbert scheme has a basis indexed
by tuples (lambda, mu, nu^1, ..., nu^22) of partitions of total weight m:
lambda labels creation operators fed the unit class, mu those fed the
point class, and nu^i those fed the i-th degree-2 class.  A natural
automorphism acts through the degree-2 slots only, and on them as the
permutation module N_1^a + N_p^b (a fixed slots, b free orbits of p
slots).  So G permutes the labels: each degree is N_1^(fixed labels) +
N_p^(free orbits of labels), and its summand counts are a count of fixed
labels.  This is the load-bearing modeling step of the whole front end.
The symplectic rows of k3.K3_TABLE give a = l_plus_2 and b = l_p_2
directly, so the paper's path builds no mod-p profile.  The tests assemble
the same counts from the general profile algebra (tensor products of
symmetric powers of the degree-2 profile), which lives with them as the
oracle of this count.

The degree of a basis label is taken to be sum(2r-2) over lambda parts,
plus sum(2r+2) over mu parts, plus sum(2r) over nu parts.  The labels
fixed by G, counted by weight and degree, are then the coefficients of
Goettsche's product with one more factor per free orbit (_label_counts);
with b = 0 it is Goettsche's formula for the Betti numbers.  The degree
rule is not axiomatic here: it is validated against the known Betti
numbers of the 2- and 3-point Hilbert schemes before any dependent
computation runs, and everything aborts loudly if the check fails.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import TYPE_CHECKING, NamedTuple

from .engine import DegreeInvariants, GradedInvariants, QuotientReport, quotient_report
from .intmat import IntMatrix
from .k3 import K3_TABLE, K3ActionSpec
from .lattices import Lattice, invariants, named_lattice, overlattice_from_glue

if TYPE_CHECKING:
    from .profiles import JordanProfile

K3_B2 = 22
MAX_POINTS = 6


def _label_counts(m: int, a: int, b: int = 0, p: int = 1) -> tuple[int, ...]:
    """Basis labels of weight m fixed by G, by degree 0..4m, when a degree-2
    slots are fixed and b orbits of p slots are free.

    The coefficients of t^k in [q^m] of prod_r (1 - q^r t^(2r-2))^-1
    (1 - q^r t^(2r+2))^-1 (1 - q^r t^(2r))^-a (1 - q^(pr) t^(2pr))^-b: a
    label is fixed exactly when it gives every slot of a free orbit the same
    partition, so an orbit carries one partition p times, and each of its
    parts r has weight p r and degree 2 p r (Goettsche, Math. Ann. 286,
    1990, for b = 0).
    """
    top = 4 * m
    series = [[1] + [0] * top] + [[0] * (top + 1) for _ in range(m)]
    for r in range(1, m + 1):
        factors = [(r, 2 * r - 2), (r, 2 * r + 2)] + [(r, 2 * r)] * a + [(p * r, 2 * p * r)] * b
        for i, j in factors:
            # times 1/(1 - q^i t^j)
            for w in range(i, m + 1):
                row, prev = series[w], series[w - i]
                for k in range(j, top + 1):
                    row[k] += prev[k - j]
    return tuple(series[m])


@lru_cache(maxsize=None)
def betti_numbers(m: int) -> tuple[int, ...]:
    """Betti numbers of the m-point Hilbert scheme, by Goettsche's formula."""
    if not (1 <= m <= MAX_POINTS):
        raise ValueError(f"supported range is 1 <= m <= {MAX_POINTS}")
    return _label_counts(m, K3_B2)


_DEGREE_RULE_TARGETS = {
    2: (1, 0, 23, 0, 276, 0, 23, 0, 1),
    (3, 4): 299,
}
_degree_rule_checked = False


def _ensure_degree_rule() -> None:
    """Abort everything downstream if the degree rule fails its oracle."""
    global _degree_rule_checked
    if _degree_rule_checked:
        return
    b2 = betti_numbers(2)
    ok = b2 == _DEGREE_RULE_TARGETS[2] and sum(b2) == 324
    ok = ok and betti_numbers(3)[4] == _DEGREE_RULE_TARGETS[(3, 4)]
    if not ok:
        raise RuntimeError(
            "degree rule validation failed: refusing to compute anything that "
            "depends on the basis grading"
        )
    _degree_rule_checked = True


def _permutation_invariants(m: int, a: int, b: int, p: int) -> GradedInvariants:
    """Per-degree module invariants of the m-point Hilbert scheme when G acts
    on the degree-2 cohomology of the surface as N_1^a + N_p^b.

    G then permutes the basis labels, and each degree is N_1^l_plus +
    N_p^l_pf with l_plus its fixed labels (_label_counts) and
    l_pf = (rank - l_plus) / p.  As every degree is even and l_minus = 0,
    eta = lefschetz_euler is the sum of the l_plus.
    """
    _ensure_degree_rule()
    if not (1 <= m <= MAX_POINTS):
        raise ValueError(f"supported range is 1 <= m <= {MAX_POINTS}")
    if a + p * b != K3_B2:
        raise ValueError(f"degree-2 profile must have dimension {K3_B2}")
    if p < 3:
        raise ValueError("the front end handles odd primes only")
    fixed = _label_counts(m, a, b, p)
    degrees = []
    for k, (rank, l_plus) in enumerate(zip(betti_numbers(m), fixed)):
        l_pf, rest = divmod(rank - l_plus, p)
        if rest or l_pf < 0:
            raise RuntimeError(f"degree {k}: {rank - l_plus} moved labels are not free orbits")
        degrees.append(DegreeInvariants.make(rank=rank, l_plus=l_plus, l_pf=l_pf))
    return GradedInvariants(p=p, n=2 * m, eta=sum(fixed), degrees=tuple(degrees))


# Invariant sublattices of the degree-2 cohomology of the surface for the
# symplectic actions of orders 5 and 7, ordered so the glue vectors below
# address the leading coordinates; a glue vector is {coordinate: entry},
# zero elsewhere.  An invariant class is p-divisible in the dual exactly
# when it is a norm, which holds for the scaled blocks.
_BB_DATA = {
    5: {
        "blocks": lambda: named_lattice("U", 5).direct_sum(
            named_lattice("U", 5), named_lattice("U")
        ),
        "glue": [{0: Fraction(1, 5)}, {1: Fraction(1, 5)},
                 {2: Fraction(1, 5)}, {3: Fraction(1, 5)}],
        "max_m": 4,
        "target": lambda m: named_lattice("U", 5).direct_sum(
            named_lattice("U"), named_lattice("U"),
            named_lattice("rank1", -10 * (m - 1)),
        ),
    },
    7: {
        "blocks": lambda: named_lattice("U", 7).direct_sum(named_lattice("Gamma7")),
        "glue": [{0: Fraction(1, 7)}, {1: Fraction(1, 7)},
                 {2: Fraction(1, 7), 3: Fraction(3, 7)}],
        "max_m": 6,
        "target": lambda m: named_lattice("U").direct_sum(
            named_lattice("Lambda7"), named_lattice("rank1", -14 * (m - 1))
        ),
    },
}


def _bb_data(p: int, m: int) -> dict:
    """_BB_DATA[p], once (p, m) is checked to lie in its scope."""
    if p not in _BB_DATA:
        raise ValueError("implemented for the symplectic orders 5 and 7")
    data = _BB_DATA[p]
    if not (2 <= m <= data["max_m"]):
        raise ValueError(f"m must lie in 2..{data['max_m']} for p={p}")
    return data


def fujiki_constant(p: int, m: int, c) -> Fraction:
    """Top-intersection constant after rescaling the pushforward by c.

    C = (2m)! * p^(2m-1) / (m! * 2^m * c^m); with the construction's total
    rescale c = p this is p^(m-1) * (2m)! / (m! * 2^m).
    """
    if m < 2:
        raise ValueError("needs m >= 2")
    c = Fraction(c)
    if c == 0:
        raise ValueError("rescale factor c must be non-zero")
    return Fraction(factorial(2 * m) * p ** (2 * m - 1), factorial(m) * 2 ** m) / c ** m


def bb_target_lattice(p: int, m: int) -> Lattice:
    return _bb_data(p, m)["target"](m)


def bb_quotient(p: int, m: int) -> tuple[Lattice, Fraction]:
    """Degree-2 lattice and top-intersection constant of the quotient.

    Builds the invariant lattice of the m-point Hilbert scheme (surface
    part plus the half-diagonal class of square -2(m-1)), pushes it
    forward (Gram scaled by p), adjoins the explicit glue vectors of
    order p, and rescales the result to a primitive integral form (the
    total rescale p / content enters the Fujiki constant).  The result
    must have the invariant triple and parity of bb_target_lattice(p, m),
    else RuntimeError.
    """
    data = _bb_data(p, m)
    _ensure_degree_rule()
    invariant = data["blocks"]().direct_sum(named_lattice("rank1", -2 * (m - 1)))
    rank = invariant.rank
    base = Lattice(invariant.gram * p)
    glue = [[entry.get(i, 0) for i in range(rank)] for entry in data["glue"]]
    pushed = overlattice_from_glue(base, glue)
    # the glued Gram is integral, so the primitive rescale divides by its content
    content = gcd(*(e for row in pushed.gram.rows for e in row))
    primitive = Lattice(IntMatrix([[e // content for e in row] for row in pushed.gram.rows],
                                  ncols=rank))
    if invariants(primitive) != invariants(bb_target_lattice(p, m)):
        raise RuntimeError(f"quotient lattice at p={p}, m={m} differs from its named target")
    fujiki = fujiki_constant(p, m, Fraction(p, content))
    return primitive, fujiki


class BettiTable(NamedTuple):
    b2: int
    b4: int
    b6: int | None
    n_sing: int


def betti_table(p: int, m: int) -> BettiTable:
    """Quotient Betti numbers b_2k = l_+^2k + l_pf^2k and the singular count."""
    if p not in (5, 7) or m not in (2, 3):
        raise ValueError("tabulated for p in {5, 7} and m in {2, 3}")
    report = hilbert_quotient_report(p, m)
    assert report.betti is not None
    return BettiTable(
        b2=report.betti[2],
        b4=report.betti[4],
        b6=report.betti[6] if m == 3 else None,
        n_sing=report.eta,
    )


def _symplectic_row(p: int) -> K3ActionSpec:
    spec = next((r for r in K3_TABLE if r.p == p and r.kind == "symplectic"), None)
    if spec is None:
        raise ValueError(f"no symplectic row for p={p}")
    return spec


def k3_h2_profile(p: int) -> JordanProfile:
    """Degree-2 profile of the surface for the symplectic order-p action.

    No command reads it; the benchmark's traced CLI replay feeds it to
    profiles.sym_power.
    """
    from .profiles import JordanProfile

    spec = _symplectic_row(p)
    return JordanProfile.from_counts(p, {1: spec.l_plus_2, p: spec.l_p_2})


def fixed_point_count(p: int, m: int) -> int:
    """Fixed points of the symplectic order-p action on the m-point Hilbert
    scheme, for 0 <= m < p: [q^m] P(q)^k with P(q) = prod 1/(1 - q^i) and
    k = n_sing the fixed points of the surface.

    A fixed subscheme of length m < p lies over the k fixed points, since a
    free orbit needs p points.  At a fixed point G acts on the tangent plane
    by (zeta^a, zeta^-a), and the tangent weights at a monomial ideal I_lambda
    are zeta^(+-a h(s)) over the hook lengths h(s) <= m < p (Nakajima,
    Lectures on Hilbert Schemes of Points on Surfaces, ch. 5), none trivial;
    the fixed punctual locus is proper and torus-stable, so it is exactly
    the monomial ideals, p(j) of length j.  The count owes nothing to the
    module model, so it checks the eta that lefschetz_euler reads off it.
    """
    if not 0 <= m < p:
        raise ValueError(f"the fixed-point count needs 0 <= m < p, got m={m}, p={p}")
    coeffs = [1] + [0] * m
    for _ in range(_symplectic_row(p).n_sing):
        for i in range(1, m + 1):
            # times 1/(1 - q^i)
            for j in range(i, m + 1):
                coeffs[j] += coeffs[j - i]
    return coeffs[m]


@lru_cache(maxsize=None)
def hilbert_invariants(p: int, m: int) -> GradedInvariants:
    """Per-degree module invariants of the symplectic order-p row, from the
    row's counts (_permutation_invariants); for m < p its eta, the model's
    lefschetz_euler, must equal fixed_point_count, else RuntimeError."""
    spec = _symplectic_row(p)
    inv = _permutation_invariants(m, spec.l_plus_2, spec.l_p_2, p)
    if m < p and inv.eta != fixed_point_count(p, m):
        raise RuntimeError(
            f"lefschetz_euler {inv.eta} of the model differs from the fixed-point "
            f"count {fixed_point_count(p, m)} at p={p}, m={m}"
        )
    return inv


def hilbert_quotient_report(p: int, m: int, conjectural_split: bool = False) -> QuotientReport:
    return quotient_report(hilbert_invariants(p, m), conjectural_split=conjectural_split)


def hilbert_report(p: int, m: int, conjectural_split: bool = False) -> dict:
    """Complete JSON-ready report for the order-p quotient of the
    m-point Hilbert scheme (p in {5, 7})."""
    _bb_data(p, m)
    inv = hilbert_invariants(p, m)
    report = hilbert_quotient_report(p, m, conjectural_split=conjectural_split)
    lattice, fujiki = bb_quotient(p, m)
    n = 2 * m
    torsion: dict[str, int] = {}
    assert report.odd_torsion_pairs is not None
    for k, value in report.odd_torsion_pairs.items():
        lo, hi = 2 * k + 1, 2 * n - 2 * k + 1
        if lo > hi:
            continue
        if lo == hi:
            torsion[f"t{lo}"] = value // 2
        else:
            torsion[f"t{lo}_plus_t{hi}"] = value
    bb = invariants(lattice)
    out = {
        "p": p,
        "m": m,
        "eta": report.eta,
        "invariants": inv.to_json(),
        "report": report.to_json(),
        "bb_lattice": {
            "gram": lattice.gram.to_lists(),
            "rank": bb.rank,
            "signature": list(bb.signature),
            "discriminant_group": list(bb.discriminant_group),
        },
        "fujiki_constant": str(fujiki) if fujiki.denominator != 1 else fujiki.numerator,
        "betti": list(report.betti) if report.betti else None,
    }
    out.update(torsion)
    if m >= 4:
        out["provenance"] = "computed, no external check"
    return out
