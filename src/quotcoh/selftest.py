"""Randomized property suite and the generators behind it.

Random inputs are assembled from the structures the theory predicts:
order-p integer actions are block sums of trivial blocks, companion
blocks of the p-th cyclotomic polynomial and p-cycles, conjugated by
random unimodular matrices; invariant forms are obtained by averaging a
random symmetric matrix over the group.  Everything is driven by an
explicit seed, so runs are reproducible.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .engine import DegreeInvariants, GradedInvariants, u_dimensions
from .intmat import IntMatrix, kernel_saturated, quotient_group, smith_decomposition
from .lattices import GLattice, curtis_reiner_check, group_cohomology
from .profiles import jordan_profile
from .toric import hj_resolution


def random_unimodular(rng: random.Random, n: int, ops: int | None = None) -> tuple[IntMatrix, IntMatrix]:
    """A unimodular matrix and its inverse, via random elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    ui = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(ops if ops is not None else n):
            i, j = rng.sample(range(n), 2)
            if rng.randrange(2) == 0:
                # left-multiplying by a swap; the inverse picks up a column swap
                u[i], u[j] = u[j], u[i]
                for t in range(n):
                    ui[t][i], ui[t][j] = ui[t][j], ui[t][i]
            else:
                q = rng.choice((-1, 1))
                u[i] = [x + q * y for x, y in zip(u[i], u[j])]
                for t in range(n):
                    ui[t][j] -= q * ui[t][i]
    return IntMatrix(u, ncols=n), IntMatrix(ui, ncols=n)


def cyclotomic_companion(p: int) -> IntMatrix:
    """Companion matrix of 1 + X + ... + X^(p-1)."""
    n = p - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -1
    return IntMatrix(rows, ncols=n)


def cycle_matrix(p: int) -> IntMatrix:
    return IntMatrix(
        [[1 if j == (i + 1) % p else 0 for j in range(p)] for i in range(p)], ncols=p
    )


def random_order_p_action(rng: random.Random, p: int, max_dim: int = 18) -> IntMatrix:
    """Exact order-p integer matrix: random blocks, randomly conjugated."""
    if max_dim < p:
        raise ValueError("max_dim must allow at least one full block")
    blocks = [cyclotomic_companion(p) if rng.randrange(2) else cycle_matrix(p)]
    dim = blocks[0].nrows
    while True:
        kind = rng.randrange(3)
        blk = (IntMatrix.identity(1), cyclotomic_companion(p), cycle_matrix(p))[kind]
        if dim + blk.nrows > max_dim:
            break
        blocks.append(blk)
        dim += blk.nrows
        if rng.random() < 0.3:
            break
    a = IntMatrix.block_diagonal(*blocks)
    u, ui = random_unimodular(rng, dim)
    if u * ui != IntMatrix.identity(dim):
        raise RuntimeError("unimodular generator is inconsistent")
    return u * a * ui


def random_glattice(rng: random.Random, p: int, max_dim: int = 12) -> GLattice:
    """Order-p action with a random invariant non-degenerate form."""
    action = random_order_p_action(rng, p, max_dim=max_dim)
    n = action.nrows
    while True:
        s = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = rng.randrange(-2, 3)
        sym = IntMatrix(s, ncols=n)
        total = IntMatrix.zeros(n, n)
        power = IntMatrix.identity(n)
        for _ in range(p):
            total = total + power.transpose() * sym * power
            power = power * action
        if total.det() != 0:
            return GLattice(gram=total, action=action, p=p,
                            allow_trivial=action == IntMatrix.identity(n))


def random_graded_invariants(rng: random.Random, p: int, n: int) -> GradedInvariants:
    degrees = [DegreeInvariants.make(rank=1, l_plus=1)]
    for _ in range(2 * n - 1):
        l_plus = rng.randrange(0, 4)
        l_minus = rng.randrange(0, 3)
        l_pf = rng.randrange(0, 3)
        degrees.append(
            DegreeInvariants.make(
                rank=l_plus + (p - 1) * l_minus + p * l_pf,
                l_plus=l_plus, l_minus=l_minus, l_pf=l_pf,
            )
        )
    degrees.append(DegreeInvariants.make(rank=1, l_plus=1))
    return GradedInvariants(p=p, n=n, eta=0, degrees=tuple(degrees))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check_smith(rng: random.Random, rounds: int) -> CheckResult:
    for _ in range(rounds):
        nr = rng.randrange(1, 7)
        nc = rng.randrange(1, 7)
        m = IntMatrix([[rng.randrange(-9, 10) for _ in range(nc)] for _ in range(nr)])
        s = smith_decomposition(m)
        if s.u * m * s.v != s.d:
            return CheckResult("smith", False, f"u*m*v != d for {m!r}")
        if abs(s.u.det()) != 1 or abs(s.v.det()) != 1:
            return CheckResult("smith", False, "transforms are not unimodular")
        diag = [d for d in s.diagonal if d]
        for a, b in zip(diag, diag[1:]):
            if b % a != 0:
                return CheckResult("smith", False, f"diagonal {diag} is not a divisor chain")
    return CheckResult("smith", True, f"{rounds} random matrices")


def _check_order_p_profiles(rng: random.Random, rounds: int, primes=(3, 5, 7)) -> CheckResult:
    for p in primes:
        for _ in range(rounds):
            a = random_order_p_action(rng, p, max_dim=14)
            prof = jordan_profile(a, p)
            middle = [q for q, _ in prof.blocks if 2 <= q <= p - 2]
            if middle:
                return CheckResult("order-p profiles", False, f"middle blocks {middle} at p={p}")
            n = a.nrows
            expected = prof.count(1) + (p - 1) * prof.count(p - 1) + p * prof.count(p)
            if n != expected:
                return CheckResult("order-p profiles", False, "rank identity failed")
            # the profile route against the integral counts, checked by trace and rank
            cr = curtis_reiner_check(a, p)
            if (prof.count(p), prof.count(p - 1), prof.count(1)) != (cr.l_p, cr.l_minus, cr.l_plus):
                return CheckResult("order-p profiles", False, f"{prof} disagrees with {cr}")
            fixed = kernel_saturated(a - IntMatrix.identity(n)).nrows
            if fixed != prof.count(1) + prof.count(p):
                return CheckResult("order-p profiles", False, "fixed-space rank failed")
    return CheckResult("order-p profiles", True, f"{rounds} matrices per prime {primes}")


def _check_group_cohomology(rng: random.Random, rounds: int, primes=(2, 3, 5, 7)) -> CheckResult:
    for p in primes:
        for _ in range(rounds):
            gl = random_glattice(rng, p, max_dim=9)
            # the norm map kept from the order check, against the sum of powers
            sigma = gl.sigma()
            total, power = IntMatrix.zeros(gl.rank, gl.rank), IntMatrix.identity(gl.rank)
            for _ in range(p):
                total, power = total + power, power * gl.action
            if sigma * gl.action != sigma or sigma != total:
                return CheckResult("group cohomology", False, f"norm map is not sum A^k at p={p}")
            group_cohomology(gl, 1)  # the counts' trace and mod-p rank checks
            group_cohomology(gl, 2)  # raises unless coker(sigma) agrees with l_plus
    return CheckResult("group cohomology", True, f"{rounds} lattices per prime {primes}")


def _check_degeneration_dimensions(rng: random.Random, rounds: int) -> CheckResult:
    for _ in range(rounds):
        p = rng.choice((3, 5, 7))
        n = rng.randrange(2, 5)
        inv = random_graded_invariants(rng, p, n)
        # independent route: mod-p page sums minus the fiber dimensions
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
            independent = _ubar_independent(inv, torsion, k)
            if ubar != independent:
                return CheckResult(
                    "degeneration dimensions", False,
                    f"ubar_{k}: {ubar} != independent {independent}",
                )
    return CheckResult("degeneration dimensions", True, f"{rounds} random tables")


def _ubar_independent(inv: GradedInvariants, torsion: dict[int, int], k: int) -> int:
    """F-coefficient dimension of degeneration, computed from its own formula:
    the mod-p second-page total in degree k minus the dimension of the
    total space's degree-k cohomology with F coefficients."""
    below = sum(inv.degree(i).l_plus + inv.degree(i).l_minus for i in range(k + 1))
    fiber = torsion[k] + torsion[k + 1] + inv.l_plus(k) + inv.l_pf(k)
    return below + inv.l_pf(k) - fiber


def _check_hj() -> CheckResult:
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        for a in range(1, p):
            res = hj_resolution(p, a)
            if abs(res.exceptional_gram.det()) != p:
                return CheckResult("continued fractions", False, f"det != {p} at (p,a)=({p},{a})")
    return CheckResult("continued fractions", True, "all p <= 19")


def _check_saturation(rng: random.Random, rounds: int) -> CheckResult:
    for _ in range(rounds):
        nr = rng.randrange(1, 6)
        nc = rng.randrange(1, 6)
        m = IntMatrix([[rng.randrange(-6, 7) for _ in range(nc)] for _ in range(nr)])
        basis = kernel_saturated(m)
        for row in basis.rows:
            if any(x != 0 for x in m.apply(row)):
                return CheckResult("saturation", False, "kernel basis not in the kernel")
        if basis.nrows and quotient_group(basis, nc):
            return CheckResult("saturation", False, "saturated kernel has torsion quotient")
    return CheckResult("saturation", True, f"{rounds} random matrices")


SUITES: tuple[tuple[str, Callable], ...] = (
    ("smith", lambda rng, n: _check_smith(rng, n)),
    ("saturation", lambda rng, n: _check_saturation(rng, n)),
    ("order-p profiles", lambda rng, n: _check_order_p_profiles(rng, n)),
    ("group cohomology", lambda rng, n: _check_group_cohomology(rng, max(1, n // 4))),
    ("degeneration dimensions", lambda rng, n: _check_degeneration_dimensions(rng, n)),
    ("continued fractions", lambda rng, n: _check_hj()),
)


def run_selftest(seed: int = 0, rounds: int = 40) -> list[CheckResult]:
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    rng = random.Random(seed)
    results = []
    for name, fn in SUITES:
        try:
            results.append(fn(rng, rounds))
        except Exception as exc:  # a check that raises has failed, not the caller's input
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
