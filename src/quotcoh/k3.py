"""The prime-order K3 quotient tables.

Each row names a prime-order action on a K3 surface by its order, its
kind (symplectic or not), the quotient's degree-2 lattice, its singular
point count and the summand counts (l_plus, l_p) of the degree-2
cohomology as a Z[G]-lattice.  The quotient lattices are named Gram
matrices; the order-2 symplectic row alone carries an explicit action,
the Nikulin involution, whose pushforward recomputes its lattice.

This module needs only intmat and lattices, so the `k3` command loads no
profile algebra, no spectral-sequence engine and no Hilbert-scheme code.
"""

from __future__ import annotations

from typing import NamedTuple

from .intmat import IntMatrix
from .lattices import (
    GLattice,
    Lattice,
    LatticeInvariants,
    invariants,
    named_lattice,
    pushforward_quotient_lattice,
)


class K3ActionSpec(NamedTuple):
    """One row of the prime-order K3 quotient tables."""

    p: int
    kind: str  # "symplectic" | "non-symplectic"
    lattice_name: str
    n_sing: int
    l_plus_2: int
    l_p_2: int

    def quotient_lattice(self) -> Lattice:
        return _K3_LATTICES[self.lattice_name]()


_K3_LATTICES = {
    "E8(-1) + U(2)^3": lambda: named_lattice("E8", -1).direct_sum(
        named_lattice("U", 2), named_lattice("U", 2), named_lattice("U", 2)
    ),
    "U(3) + U^2 + A2(-1)^2": lambda: named_lattice("U", 3).direct_sum(
        named_lattice("U"), named_lattice("U"),
        named_lattice("A2", -1), named_lattice("A2", -1),
    ),
    "U(5) + U^2": lambda: named_lattice("U", 5).direct_sum(
        named_lattice("U"), named_lattice("U")
    ),
    "U + Lambda7": lambda: named_lattice("U").direct_sum(named_lattice("Lambda7")),
    "U + E6(-1)": lambda: named_lattice("U").direct_sum(named_lattice("E6", -1)),
    "NS5 + A4(-1)": lambda: named_lattice("NS5").direct_sum(named_lattice("A4", -1)),
    "U + NS7": lambda: named_lattice("U").direct_sum(named_lattice("NS7")),
    "U": lambda: named_lattice("U"),
    "U(17) + L17^(17)": lambda: named_lattice("U", 17).direct_sum(
        named_lattice("L17dual17")
    ),
    "U(19) + NS19": lambda: named_lattice("U", 19).direct_sum(named_lattice("NS19")),
}

K3_TABLE = (
    K3ActionSpec(2, "symplectic", "E8(-1) + U(2)^3", 8, 6, 8),
    K3ActionSpec(3, "symplectic", "U(3) + U^2 + A2(-1)^2", 6, 4, 6),
    K3ActionSpec(5, "symplectic", "U(5) + U^2", 4, 2, 4),
    K3ActionSpec(7, "symplectic", "U + Lambda7", 3, 1, 3),
    K3ActionSpec(3, "non-symplectic", "U + E6(-1)", 3, 1, 7),
    K3ActionSpec(5, "non-symplectic", "NS5 + A4(-1)", 4, 2, 4),
    K3ActionSpec(7, "non-symplectic", "U + NS7", 3, 1, 3),
    K3ActionSpec(11, "non-symplectic", "U", 2, 0, 2),
    K3ActionSpec(17, "non-symplectic", "U(17) + L17^(17)", 7, 5, 1),
    K3ActionSpec(19, "non-symplectic", "U(19) + NS19", 5, 3, 1),
)


def nikulin_involution() -> GLattice:
    """The K3 lattice with the involution fixing three hyperbolic planes
    and swapping the two negative definite E8 summands."""
    u = named_lattice("U").gram
    e8m = named_lattice("E8", -1).gram
    gram = IntMatrix.block_diagonal(u, u, u, e8m, e8m)
    n = gram.nrows
    perm = list(range(6)) + list(range(14, 22)) + list(range(6, 14))
    action = IntMatrix(
        [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)], ncols=n
    )
    return GLattice(gram=gram, action=action, p=2)


class K3TableRow(NamedTuple):
    spec: K3ActionSpec
    lattice: Lattice
    invariants: LatticeInvariants
    n_sing: int
    pushforward_verified: bool | None


def k3_table(p: int, kind: str) -> K3TableRow:
    """Quotient lattice and singular point count for one table row.

    The order-2 symplectic row carries an explicit action; for it the
    pushforward construction is recomputed and its invariant triple is
    required to match the tabulated lattice.
    """
    spec = next((r for r in K3_TABLE if r.p == p and r.kind == kind), None)
    if spec is None:
        raise ValueError(f"no table row for p={p}, kind={kind!r}")
    lattice = spec.quotient_lattice()
    verified = None
    if (p, kind) == (2, "symplectic"):
        pushed = pushforward_quotient_lattice(nikulin_involution())
        if invariants(pushed) != invariants(lattice):
            raise RuntimeError("pushforward of the involution disagrees with the table")
        verified = True
    return K3TableRow(spec, lattice, invariants(lattice), spec.n_sing, verified)
