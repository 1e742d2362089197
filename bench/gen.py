"""Seeded input generators for the benchmark workloads.

Everything here is plain Python on lists of ints: it imports nothing from
the package under test, so the inputs do not depend on the code they
measure.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracles import det

# The CLI commands behind the paper's tables, as `quotcoh.cli` arguments.
K3_ROWS = (
    (2, "symplectic"), (3, "symplectic"), (5, "symplectic"), (7, "symplectic"),
    (3, "non-symplectic"), (5, "non-symplectic"), (7, "non-symplectic"),
    (11, "non-symplectic"), (17, "non-symplectic"), (19, "non-symplectic"),
)
CLI_OPS = (
    tuple(("hilbert", "--p", "5", "--m", str(m)) for m in (2, 3, 4))
    + tuple(("hilbert", "--p", "7", "--m", str(m)) for m in (2, 3, 4, 5, 6))
    + (("tables", "--which", "all"),)
    + tuple(("k3", "--p", str(p), "--kind", kind) for p, kind in K3_ROWS)
)


# Runs of each CLI op a pass, so that its time is the median of several
# runs.  `hilbert --p 7 --m 6` takes about 20 s and runs once; `--m 5` is
# the op at op_p90_s, and one slow run in three moved that by 30%.
CLI_RUNS = {("hilbert", "--p", "7", "--m", "6"): 1, ("hilbert", "--p", "7", "--m", "5"): 5}
CLI_REPEATS = 3


def cli_runs(op: tuple[str, ...]) -> int:
    return CLI_RUNS.get(op, CLI_REPEATS)


def op_key(argv: tuple[str, ...]) -> str:
    """Stable name of one CLI op, used as the key of its stdout hash."""
    return " ".join(argv)


def cli_pass(rng: random.Random) -> list[int]:
    """Indices into CLI_OPS for one pass, in a seeded order."""
    order = [i for i, op in enumerate(CLI_OPS)
             for _ in range(cli_runs(op))]
    rng.shuffle(order)
    return order


# --- G-lattices -----------------------------------------------------------

# (p, l_plus, l_minus, l_p): two rungs per prime, ranks from 8 to 48.
# rank = l_plus + (p - 1) * l_minus + p * l_p
LATTICE_LADDER = (
    (2, 2, 2, 2), (2, 8, 8, 8),
    (3, 2, 2, 2), (3, 8, 8, 8),
    (5, 2, 1, 2), (5, 3, 3, 3),
    (7, 1, 1, 1), (7, 3, 3, 3),
    (11, 1, 1, 1), (11, 2, 1, 2),
    (13, 1, 1, 1), (13, 2, 1, 2),
)


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def block_diagonal(blocks: list[list[list[int]]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def companion_block(p: int) -> list[list[int]]:
    """Companion matrix of 1 + X + ... + X^(p-1): the cyclotomic summand."""
    n = p - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -1
    return rows


def cycle_block(p: int) -> list[list[int]]:
    """Cyclic permutation of p basis vectors: the free summand Z[G]."""
    return [[int(j == (i + 1) % p) for j in range(p)] for i in range(p)]


def unimodular_pair(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """A unimodular u and its inverse from n random elementary operations."""
    u, ui = identity(n), identity(n)
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.randrange(2):
            u[i], u[j] = u[j], u[i]
            for row in ui:
                row[i], row[j] = row[j], row[i]
        else:
            q = rng.choice((-1, 1))
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
            for row in ui:
                row[j] -= q * row[i]
    return u, ui


@dataclass
class LatticeInput:
    """One seeded G-lattice: Gram matrix, action and the counts it was built from.

    invariant_basis holds, as columns, a basis of the invariant vectors,
    known from the blocks.
    """

    p: int
    l_plus: int
    l_minus: int
    l_p: int
    gram: list[list[int]]
    action: list[list[int]]
    invariant_basis: list[list[int]]

    @property
    def rank(self) -> int:
        return len(self.gram)


def glattice(rng: random.Random, p: int, l_plus: int, l_minus: int, l_p: int) -> LatticeInput:
    """G-lattice with prescribed summand counts.

    Trivial, cyclotomic-companion and p-cycle blocks in a seeded order,
    conjugated by a seeded unimodular matrix; the form is a seeded
    symmetric matrix averaged over G, redrawn until both it and its
    restriction to the invariants are non-degenerate.
    """
    kinds = ["plus"] * l_plus + ["minus"] * l_minus + ["free"] * l_p
    rng.shuffle(kinds)
    blocks, fixed = [], []
    at = 0
    for kind in kinds:
        if kind == "plus":
            blocks.append([[1]])
            fixed.append([at])
        elif kind == "minus":
            blocks.append(companion_block(p))
        else:
            blocks.append(cycle_block(p))
            fixed.append(list(range(at, at + p)))
        at += len(blocks[-1])
    n = at
    u, ui = unimodular_pair(rng, n)
    action = matmul(matmul(u, block_diagonal(blocks)), ui)
    # A(u x) = u x for every invariant x of the block matrix
    inv_basis = transpose([[sum(u[i][j] for j in support) for i in range(n)] for support in fixed])
    powers = [identity(n)]
    for _ in range(p - 1):
        powers.append(matmul(powers[-1], action))
    while True:
        s = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = rng.randrange(-2, 3)
        gram = [[0] * n for _ in range(n)]
        for g in powers:
            term = matmul(matmul(transpose(g), s), g)
            gram = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(gram, term)]
        restricted = matmul(matmul(transpose(inv_basis), gram), inv_basis)
        if det(gram) != 0 and det(restricted) != 0:
            return LatticeInput(p, l_plus, l_minus, l_p, gram, action, inv_basis)


# The ladder's lattices are fixed; a run's seed picks the basis each one is
# presented in (see lattice_ladder).  Building them from the run's seed
# moved the median op time by about 20% (IQR over median) between seeds.
LATTICE_CATALOGUE_SEED = 190805953


def in_seeded_basis(inp: LatticeInput, rng: random.Random) -> LatticeInput:
    """The same G-lattice in the basis x = q x' for a seeded signed permutation q.

    The Gram matrix becomes q^T G q and the action q^T A q, since q^-1 = q^T.
    """
    n = inp.rank
    q = [[0] * n for _ in range(n)]
    for i, j in enumerate(rng.sample(range(n), n)):
        q[i][j] = rng.choice((-1, 1))
    qt = transpose(q)
    return LatticeInput(
        inp.p, inp.l_plus, inp.l_minus, inp.l_p,
        gram=matmul(matmul(qt, inp.gram), q),
        action=matmul(matmul(qt, inp.action), q),
        invariant_basis=matmul(qt, inp.invariant_basis),
    )


def lattice_ladder(seed: int) -> list[LatticeInput]:
    base = random.Random(LATTICE_CATALOGUE_SEED)
    rng = random.Random(seed)
    return [in_seeded_basis(glattice(base, *rung), rng) for rung in LATTICE_LADDER]


# --- cyclic quotient singularities ----------------------------------------

def primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


# Per dimension: the primes allowed and how many singularities of that
# dimension a pass resolves.  Resolution cost grows fast with p and n.
TORIC_RANGES = {2: (23, 97, 60), 3: (11, 29, 50), 4: (5, 13, 20)}
# The catalogue of singularity types is fixed; a run's seed picks the
# presentation of each one (see toric_pass).  Drawing the types themselves
# from the seed moved the per-run work by about 20% between seeds.
TORIC_CATALOGUE_SEED = 20190816


def toric_catalogue() -> list[tuple[int, tuple[int, ...]]]:
    rng = random.Random(TORIC_CATALOGUE_SEED)
    out = []
    for n, (lo, hi, count) in sorted(TORIC_RANGES.items()):
        primes = primes_between(lo, hi)
        for _ in range(count):
            p = rng.choice(primes)
            out.append((p, tuple(rng.randrange(1, p) for _ in range(n))))
    return out


def toric_pass(seed: int) -> list[tuple[int, tuple[int, ...]]]:
    """The catalogue under a seeded presentation and order.

    (1/p)(a_1..a_n) is the same singularity as (1/p)(k a_1..k a_n) for k
    prime to p, with the weights in any order; the seed picks k, the
    order of the weights and the order of the singularities.
    """
    rng = random.Random(seed)
    out = []
    for p, weights in toric_catalogue():
        k = rng.randrange(1, p)
        w = [(k * a) % p for a in weights]
        rng.shuffle(w)
        out.append((p, tuple(w)))
    rng.shuffle(out)
    return out
