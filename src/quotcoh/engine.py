"""Quotient-cohomology calculator over graded module invariants.

The engine is purely algebraic: it consumes, per cohomological degree, the
summand counts (rank, l_plus, l_minus, l_pf) of a free Z[G]-module plus a
mod-p torsion profile, together with the number of isolated fixed points.
From these it evaluates the second page of the equivariant spectral
sequence, the degeneration criteria, and, in the degenerate case, the
full output of the quotient computation: vanishing surjectivity defects,
torsion-free even cohomology, odd p-torsion pair sums and Betti numbers.

Odd torsion is reported as pair sums between complementary degrees only;
how each pair splits is an open question, exposed solely behind an
explicitly labeled conjectural flag.  Geometric hypotheses (compact
complex manifold, isolated fixed points, p-torsion-free integral
cohomology) are the caller's responsibility and are recorded as
assumptions on every report.
"""

from __future__ import annotations

import operator
from typing import Mapping, NamedTuple

from .intmat import _Frozen, is_prime

# Largest n that GradedInvariants.from_json accepts, checked before the
# 2n + 1 degree slots are allocated.  A report is linear in n: a CLI
# report at n = 1000 takes about 0.3 s on a 2-core Xeon, most of it start-up.
MAX_JSON_N = 1000


def json_int(value, name: str) -> int:
    """value itself if it is an int; ValueError for a bool, float, str or anything else.

    int() would truncate 5.9 to 5 and read true as 1, a silent wrong answer.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, not {type(value).__name__} {value!r}")
    return value


def _json_object(value, name: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be an object, not {type(value).__name__}")
    return value


def _json_key(key: str, name: str) -> int:
    """An int object key in its one spelling; int() also reads "03", " 3", "+3" and "1_0"."""
    q = int(key)
    if str(q) != key:
        raise ValueError(f"{name} {key!r} is not a canonical integer")
    return q


class DegreeInvariants(_Frozen):
    """Summand counts of one cohomology degree.

    l_qt pairs block sizes q, sorted and distinct, with the positive counts
    of the mod-p torsion profile of that degree (empty for p-torsion-free
    spaces), so each degree has one spelling.
    """

    __slots__ = ("rank", "l_plus", "l_minus", "l_pf", "l_qt")

    def __init__(self, rank: int, l_plus: int = 0, l_minus: int = 0, l_pf: int = 0,
                 l_qt: tuple[tuple[int, int], ...] = ()):
        rank, l_plus, l_minus, l_pf = map(operator.index, (rank, l_plus, l_minus, l_pf))
        l_qt = tuple((operator.index(q), operator.index(c)) for q, c in l_qt)
        if min(rank, l_plus, l_minus, l_pf, 0) < 0:
            raise ValueError("negative count")
        sizes = [q for q, _ in l_qt]
        if sizes != sorted(set(sizes)):
            raise ValueError("torsion block sizes must be sorted and distinct")
        for q, c in l_qt:
            if q < 1 or c < 1:
                raise ValueError("bad torsion profile entry")
        _Frozen.__init__(self, rank, l_plus, l_minus, l_pf, l_qt)

    @classmethod
    def make(cls, rank=0, l_plus=0, l_minus=0, l_pf=0, l_qt: Mapping[int, int] | None = None):
        qt = tuple(sorted((q, c) for q, c in (l_qt or {}).items() if c))
        return cls(rank, l_plus, l_minus, l_pf, qt)

    def torsion_blocks_below(self, p: int) -> int:
        return sum(c for q, c in self.l_qt if q < p)

    def torsion_blocks_all(self) -> int:
        return sum(c for _, c in self.l_qt)

    def torsion_count(self, q: int) -> int:
        return dict(self.l_qt).get(q, 0)


class GradedInvariants(_Frozen):
    """Per-degree invariants of a 2n-dimensional G-space, with eta fixed points."""

    __slots__ = ("p", "n", "eta", "degrees")

    def __init__(self, p: int, n: int, eta: int, degrees: tuple[DegreeInvariants, ...]):
        p, n, eta = map(operator.index, (p, n, eta))
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1 or eta < 0:
            raise ValueError("bad dimension or fixed point count")
        if len(degrees) != 2 * n + 1:
            raise ValueError(f"expected {2 * n + 1} degrees")
        for k, d in enumerate(degrees):
            expected = d.l_plus + (p - 1) * d.l_minus + p * d.l_pf
            if d.rank != expected:
                raise ValueError(
                    f"degree {k}: rank {d.rank} != l_+ + (p-1) l_- + p l_pf = {expected}"
                )
            # a Jordan block of an order-p operator over F_p has size at most p
            big = max((q for q, _ in d.l_qt), default=0)
            if big > p:
                raise ValueError(f"degree {k}: torsion block of size {big} > p = {p}")
        _Frozen.__init__(self, p, n, eta, degrees)

    def degree(self, k: int) -> DegreeInvariants:
        if not (0 <= k <= 2 * self.n):
            raise ValueError(f"degree {k} out of range")
        return self.degrees[k]

    def l_plus(self, k: int) -> int:
        return self.degree(k).l_plus

    def l_minus(self, k: int) -> int:
        return self.degree(k).l_minus

    def l_pf(self, k: int) -> int:
        return self.degree(k).l_pf

    def l_plus_even(self) -> int:
        return sum(d.l_plus for k, d in enumerate(self.degrees) if k % 2 == 0)

    def l_plus_odd(self) -> int:
        return sum(d.l_plus for k, d in enumerate(self.degrees) if k % 2 == 1)

    def l_minus_even(self) -> int:
        return sum(d.l_minus for k, d in enumerate(self.degrees) if k % 2 == 0)

    def l_minus_odd(self) -> int:
        return sum(d.l_minus for k, d in enumerate(self.degrees) if k % 2 == 1)

    def is_p_torsion_free(self) -> bool:
        return all(not d.l_qt for d in self.degrees)

    def l_p_mod(self, k: int) -> int:
        """l_p of H^k with F coefficients (free part plus adjacent torsion)."""
        below, total = _mod_p_block_counts(self, k)
        return total - below

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "eta": self.eta,
            "degrees": [
                {
                    "k": k,
                    "rank": d.rank,
                    "l_plus": d.l_plus,
                    "l_minus": d.l_minus,
                    "l_pf": d.l_pf,
                    "l_qt": {str(q): c for q, c in d.l_qt},
                }
                for k, d in enumerate(self.degrees)
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "GradedInvariants":
        """Parse to_json's format; every count must be an int and n at most MAX_JSON_N."""
        n = json_int(data["n"], "n")
        if not 1 <= n <= MAX_JSON_N:
            raise ValueError(f"n = {n} outside 1..{MAX_JSON_N}")
        degrees = [DegreeInvariants.make(rank=0)] * (2 * n + 1)
        seen: set[int] = set()
        for entry in data["degrees"]:
            entry = _json_object(entry, "a degree entry")
            k = json_int(entry["k"], "k")
            if not (0 <= k <= 2 * n):
                raise ValueError(f"degree k={k} outside 0..{2 * n}")
            if k in seen:
                raise ValueError(f"degree k={k} given twice")
            seen.add(k)
            counts = {key: json_int(entry.get(key, 0), f"{key} of degree {k}")
                      for key in ("rank", "l_plus", "l_minus", "l_pf")}
            l_qt = _json_object(entry.get("l_qt", {}), f"l_qt of degree {k}")
            degrees[k] = DegreeInvariants.make(
                **counts,
                l_qt={_json_key(q, f"l_qt key of degree {k}"): json_int(c, f"l_qt[{q}] of degree {k}")
                      for q, c in l_qt.items()},
            )
        return cls(json_int(data["p"], "p"), n, json_int(data["eta"], "eta"), tuple(degrees))


class E2Entry(NamedTuple):
    """(free rank, p-torsion dimension); with F coefficients the dimension
    sits in the torsion slot and the free rank is zero."""

    free_rank: int
    p_torsion: int


def e2_entry(inv: GradedInvariants, d: int, q: int, coefficients: str = "Z") -> E2Entry:
    """Entry (d, q) of the second page of the equivariant spectral sequence.

    Integral coefficients: row d = 0 carries the invariants (free of rank
    l_plus + l_pf, p-torsion from the full torsion profile); odd rows give
    (Z/p)^(l_minus + torsion blocks below p), positive even rows the same
    with l_plus.
    """
    d = operator.index(d)
    if d < 0:
        raise ValueError("negative filtration degree")
    deg = inv.degree(q)
    if coefficients == "Z":
        if d == 0:
            return E2Entry(deg.l_plus + deg.l_pf, deg.torsion_blocks_all())
        if d % 2 == 1:
            return E2Entry(0, deg.l_minus + deg.torsion_blocks_below(inv.p))
        return E2Entry(0, deg.l_plus + deg.torsion_blocks_below(inv.p))
    if coefficients == "F":
        below, total = _mod_p_block_counts(inv, q)
        return E2Entry(0, total if d == 0 else below)
    raise ValueError("coefficients must be 'Z' or 'F'")


def _mod_p_block_counts(inv: GradedInvariants, k: int) -> tuple[int, int]:
    """(blocks of size < p, all blocks) of H^k with F coefficients.

    Universal coefficients turn the integral summand counts plus the
    torsion profiles of degrees k and k+1 into the mod-p profile.  Trivial
    and cyclotomic summands reduce to N_1 and N_(p-1), free ones to N_p,
    and each torsion block N_q of degree k or k+1 gives one N_q; so every
    block but the free summands and the N_p torsion has size below p.
    """
    p = inv.p
    d = inv.degree(k)
    nxt = inv.degrees[k + 1] if k + 1 <= 2 * inv.n else DegreeInvariants.make()
    below = d.l_plus + d.l_minus + d.torsion_blocks_below(p) + nxt.torsion_blocks_below(p)
    return below, below + d.l_pf + d.torsion_count(p) + nxt.torsion_count(p)


def lefschetz_euler(inv: GradedInvariants) -> int:
    """Euler characteristic of the fixed locus from the summand counts.

    chi(Fix) = l_+^even + l_-^odd - l_+^odd - l_-^even: only trivial and
    cyclotomic summands contribute to traces, with signs +1 and -1.
    """
    return sum(
        (-1) ** k * (d.l_plus - d.l_minus) for k, d in enumerate(inv.degrees)
    )


class DegenerationStatus(NamedTuple):
    """Verdicts for the four degeneration criteria.

    (2) counts fixed points against l_+^even + l_-^odd, (3) asks for
    l_+^odd = l_-^even = 0.  (1)/(4), degeneration of the spectral
    sequence itself with F resp. Z coefficients, are reported only where
    the equivalence applies (l_p of H^1 zero); otherwise they stay None
    and only the implication (1) => (2),(3) holds.
    """

    two: bool
    three: bool
    one: bool | None
    four: bool | None
    notes: tuple[str, ...] = ()

    def any_verified(self) -> bool:
        return self.two or self.three or bool(self.one) or bool(self.four)


def degeneration_status(inv: GradedInvariants) -> DegenerationStatus:
    notes: list[str] = []
    two = inv.eta == inv.l_plus_even() + inv.l_minus_odd()
    three = inv.l_plus_odd() == 0 and inv.l_minus_even() == 0
    if inv.eta < 2:
        if three:
            notes.append(
                "fewer than 2 fixed points: no such action degenerates at page two"
            )
        return DegenerationStatus(False, False, False, False, tuple(notes))
    if two != three:
        notes.append(
            "criteria (2) and (3) disagree: eta is inconsistent with the "
            "fixed-point Euler characteristic of these invariants"
        )
        return DegenerationStatus(two, three, None, None, tuple(notes))
    if inv.l_p_mod(1) == 0:
        return DegenerationStatus(two, three, two, two, tuple(notes))
    notes.append(
        "l_p of H^1 is nonzero: only the implication (1) => (2),(3) is available"
    )
    return DegenerationStatus(two, three, None, None, tuple(notes))


class UDimensions(NamedTuple):
    """Dimensions of degeneration: u indexed by total degree 2..2n-1,
    ubar (F coefficients) by 2..2n-2 via ubar_k = u_k + u_(k+1)."""

    u: dict[int, int]
    ubar: dict[int, int]


def _second_page_sums(inv: GradedInvariants) -> dict[int, int]:
    """The sums in the closed forms of u_dimensions, for degrees 2..2n-1.

    Degree 2k gets sum_(i<k) l_+^2i + sum_(i<k) l_-^(2i+1) and degree
    2k+1 gets sum_(i<=k) l_-^2i + sum_(i<k) l_+^(2i+1); both are running
    prefix sums, so all of them cost O(n).
    """
    d = inv.degrees
    sums: dict[int, int] = {}
    even, odd = 0, d[0].l_minus
    for k in range(1, inv.n):
        even += d[2 * k - 2].l_plus + d[2 * k - 1].l_minus
        odd += d[2 * k].l_minus + d[2 * k - 1].l_plus
        sums[2 * k] = even
        sums[2 * k + 1] = odd
    return sums


def u_dimensions(inv: GradedInvariants, torsion_of_u: Mapping[int, int]) -> UDimensions:
    """Closed forms for the dimensions of degeneration.

    u_2k = sum_(i<k) l_+^2i + sum_(i<k) l_-^(2i+1) - t_p^2k(U) and
    u_(2k+1) = sum_(i<=k) l_-^2i + sum_(i<k) l_+^(2i+1) - t_p^(2k+1)(U),
    where U is the complement of the singular points in the quotient.
    Negative values mean the inputs are inconsistent.
    """
    n = inv.n
    for k in range(2, 2 * n):
        if k not in torsion_of_u:
            raise ValueError(f"torsion table must cover degrees 2..{2 * n - 1} (missing {k})")
    u = {k: s - torsion_of_u[k] for k, s in _second_page_sums(inv).items()}
    if any(v < 0 for v in u.values()):
        raise ValueError(f"negative dimension of degeneration: {u}")
    ubar = {k: u[k] + u[k + 1] for k in range(2, 2 * n - 1)}
    return UDimensions(u, ubar)


def odd_alpha_pairs(inv: GradedInvariants) -> dict[int, int]:
    """alpha_(2k+1) + alpha_(2n-2k-1) = l_+^(2k+1), for 0 <= k <= n-1."""
    return {k: inv.l_plus(2 * k + 1) for k in range(inv.n)}


def alpha_even_bound(inv: GradedInvariants) -> int:
    """Upper bound l_+^odd + l_-^even for every even pair sum of alpha."""
    return inv.l_plus_odd() + inv.l_minus_even()


class QuotientReport(NamedTuple):
    """Everything the engine can certify about H^*(X/G, Z).

    When no degeneration criterion is verified the report is conditional:
    only the odd pair sums and the even bound for the surjectivity
    defects are emitted, and the torsion fields stay None.
    """

    p: int
    n: int
    eta: int
    degeneration: DegenerationStatus
    degenerate: bool
    alpha: dict[int, int] | None
    alpha_odd_pair_sums: dict[int, int]
    alpha_even_pair_bound: int
    even_torsion_free: bool | None
    odd_torsion_pairs: dict[int, int] | None
    betti: tuple[int, ...] | None
    u: dict[int, int] | None
    beta: dict[int, int] | None
    d_p_pairs: dict[int, int] | None
    assumptions: tuple[str, ...]
    conjectural_odd_torsion: dict[int, int] | None = None

    def to_json(self) -> dict:
        def keyed(d):
            return None if d is None else {str(k): v for k, v in sorted(d.items())}

        return {
            "p": self.p,
            "n": self.n,
            "eta": self.eta,
            "degeneration": {
                "criterion_2": self.degeneration.two,
                "criterion_3": self.degeneration.three,
                "criterion_1": self.degeneration.one,
                "criterion_4": self.degeneration.four,
                "notes": list(self.degeneration.notes),
            },
            "degenerate": self.degenerate,
            "alpha": keyed(self.alpha),
            "alpha_odd_pair_sums": keyed(self.alpha_odd_pair_sums),
            "alpha_even_pair_bound": self.alpha_even_pair_bound,
            "even_torsion_free": self.even_torsion_free,
            "odd_torsion_pairs": keyed(self.odd_torsion_pairs),
            "betti": list(self.betti) if self.betti is not None else None,
            "u": keyed(self.u),
            "beta": keyed(self.beta),
            "d_p_pairs": keyed(self.d_p_pairs),
            "assumptions": list(self.assumptions),
            "conjectural_odd_torsion": keyed(self.conjectural_odd_torsion),
        }


_STANDING_ASSUMPTIONS = (
    "compact complex manifold (or oriented even-dimensional analogue)",
    "automorphism group of prime order with only isolated fixed points",
    "integral cohomology of the covering space is p-torsion free",
)


def quotient_report(inv: GradedInvariants, conjectural_split: bool = False) -> QuotientReport:
    """Full quotient-cohomology report for a degenerate spectral sequence.

    Under any of the degeneration criteria: every surjectivity defect
    alpha_k vanishes, even cohomology of the quotient is p-torsion free,
    the odd p-torsion pair sums equal eta - l_+^2k, and the Betti numbers
    are l_+^k + l_pf^k.  Inputs that are not those of a closed connected
    oriented manifold, rank_0 = l_plus_0 = rank_2n = l_plus_2n = 1, and
    infeasible ones (negative torsion) are rejected.
    """
    bottom, top = inv.degrees[0], inv.degrees[-1]
    if (bottom.rank, bottom.l_plus) != (1, 1) or (top.rank, top.l_plus) != (1, 1):
        raise ValueError("connected oriented space needs rank = l_plus = 1 at both ends")
    if not inv.is_p_torsion_free():
        raise ValueError("quotient reports require p-torsion-free input cohomology")
    n, p = inv.n, inv.p
    status = degeneration_status(inv)
    pairs = odd_alpha_pairs(inv)
    bound = alpha_even_bound(inv)
    if not status.any_verified():
        return QuotientReport(
            p=p, n=n, eta=inv.eta,
            degeneration=status, degenerate=False,
            alpha=None,
            alpha_odd_pair_sums=pairs,
            alpha_even_pair_bound=bound,
            even_torsion_free=None,
            odd_torsion_pairs=None,
            betti=None, u=None, beta=None, d_p_pairs=None,
            assumptions=_STANDING_ASSUMPTIONS + (
                "no degeneration criterion verified: conditional outputs only",
            ),
        )
    if inv.eta != lefschetz_euler(inv):
        raise ValueError(
            "eta disagrees with the fixed-point Euler characteristic of the invariants"
        )
    torsion_pairs: dict[int, int] = {}
    for k in range(1, n):
        value = inv.eta - inv.l_plus(2 * k)
        if value < 0:
            raise ValueError(f"negative torsion pair in degree {2 * k + 1}")
        if 2 * k + 1 == 2 * n - 2 * k + 1 and value % 2 != 0:
            raise ValueError("self-paired middle degree needs an even pair sum")
        torsion_pairs[k] = value
    # with the sequence degenerate the torsion of the smooth part is the
    # full second-page contribution, so every u_k vanishes
    torsion_u = _second_page_sums(inv)
    u = dict.fromkeys(torsion_u, 0)
    d_p = {
        k: torsion_u[2 * k] + torsion_u[2 * n - 2 * k] + 2 * inv.l_plus(2 * k)
        for k in range(1, n)
    }
    betti = tuple(d.l_plus + d.l_pf for d in inv.degrees)
    conjecture = None
    if conjectural_split:
        # s_k, the second-page sum at degree 2k, is the torsion of degree
        # 2n - 2k + 1 (duality on the complement of the singular points), so
        # s_1 = 1 lands in t^(2n-1), the torsion of the fundamental group
        conjecture = {
            2 * n - 2 * k + 1: torsion_u[2 * k] for k in range(1, n)
        }
    return QuotientReport(
        p=p, n=n, eta=inv.eta,
        degeneration=status, degenerate=True,
        alpha={k: 0 for k in range(1, 2 * n + 1)},
        alpha_odd_pair_sums=pairs,
        alpha_even_pair_bound=bound,
        even_torsion_free=True,
        odd_torsion_pairs=torsion_pairs,
        betti=betti,
        u=u,
        beta={2 * k: 0 for k in range(1, n)},
        d_p_pairs=d_p,
        assumptions=_STANDING_ASSUMPTIONS,
        conjectural_odd_torsion=conjecture,
    )
