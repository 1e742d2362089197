"""Exact integer matrices and the linear algebra kernel built on them.

Everything in this package is computed over Z with arbitrary-precision
integers, or over a prime field F_p; there is no floating point anywhere.
The central primitive is the Smith normal form u m v = d, one elimination
of the augmented matrix [[m, I], [B, 0]]: the row operations turn I into
u and the column operations turn the rows B into B v.  Saturated kernels
(B = I), image bases (B = m, as m v = u^-1 d) and finite-quotient
invariants are all read from it, each augmenting m only by what it
reads; rows that are zero in the trailing block, most rows of a norm map
of small rank, are skipped by the pivot search and by the column
operations, which leaves every pivot and transform as it was.  A matrix
product sums rows of the right factor over the nonzero entries of each
row of the left one, so a sparse left factor, such as an image basis,
costs only its nonzeros.  The Smith diagonal of a non-singular square
matrix, which is all a finite quotient needs, is computed modulo any m
between d_1 ... d_(n-1) and the determinant D that it divides (D itself
for a quotient group, a gcd of (n-1)-minors for a Gram matrix): the
input is reduced once and each step's pivot row once, so after k steps
every entry is below m + k m^2 in absolute value; a symmetric matrix
first eliminates by congruence on its unit diagonal entries and then on
principal 2x2 blocks of unit determinant, updating only its upper
triangle.  The elimination over Z/m returns its cyclic factors
(_chain_mod), and one assembly (_divisor_chain) turns them into the
diagonal, so that the coprime parts of m, each eliminated on its own
matrix, as lattices does for a Gram matrix, pool into one chain.
One fraction-free (Bareiss) elimination gives determinants and, run as
Gauss-Jordan, the adjugate together with the determinant.  One echelon
elimination over F_p takes rows packed into one Python int each and
returns its basis packed the same way; it reduces a row mod p in all its
slots at once (Barrett's division by multiplication) and unpacks nothing.
It gives ranks mod p, which count the basis, and, kept across calls,
the kernel filtration that Jordan profiles are read from.

All values are immutable, all functions are pure, so everything here is
safe to share between threads.
"""

from __future__ import annotations

import operator
import sys
from math import gcd, prod
from typing import Callable, Iterable, NamedTuple, Sequence


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the bases above is exact below this bound, the least strong
# pseudoprime to all of them (Sorenson & Webster 2015); without 41 it is 3.2e23
_MR_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above 3.3e24, where it would guess.

    TypeError for what is not an integer: 5.0 would pass its trial division.
    """
    p = operator.index(p)
    if p < 2:
        return False
    if p >= _MR_LIMIT:
        raise ValueError(f"primality of {p} is not decided exactly above {_MR_LIMIT}")
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    if p < 43 * 43:  # no prime factor up to 41, so none up to its square root
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class _Frozen:
    """Base of the package's immutable records.

    A record lists its fields in __slots__; its __init__ validates the
    arguments and ends with _Frozen.__init__, which sets the slots once, in
    order.  After that, assigning or deleting any attribute raises
    AttributeError.  Copies and pickles keep every field as it is, without
    running __init__ again.

    Two optional class attributes narrow the fields, where they differ from
    __slots__: _fields names the constructor fields that repr shows, and
    _compared (default: _fields) the fields that equality and hashing read.
    Records compare equal only to records of the same class.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = vars(cls).get("_fields", cls.__slots__)
        cls._compared_values = operator.attrgetter(*vars(cls).get("_compared", cls._fields))

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared_values(self) == self._compared_values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._compared_values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots from (None, {name: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class IntMatrix:
    """Immutable matrix of arbitrary-precision integers, row-major.

    >>> IntMatrix([[1, 2], [3, 4]]) * IntMatrix.identity(2)
    IntMatrix([[1, 2], [3, 4]])
    """

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        # operator.index rejects floats instead of truncating them
        data = tuple(tuple(operator.index(e) for e in row) for row in rows)
        if ncols is not None:
            ncols = operator.index(ncols)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        elif ncols < 0:
            raise ValueError(f"negative column count {ncols}")
        self._rows = data
        self._ncols = ncols

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...], ncols: int) -> "IntMatrix":
        """A matrix from a tuple of int tuples, each of length ncols, built unchecked.

        For matrices the package computes from ints it already holds; the
        public constructor checks every entry with operator.index.
        """
        m = object.__new__(cls)
        m._rows = rows
        m._ncols = ncols
        return m

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry {(i, j)} outside {self.nrows}x{self.ncols}")
        return self._rows[i][j]

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        if n < 0:
            raise ValueError(f"negative size {n}")
        return IntMatrix._trusted(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "IntMatrix":
        if min(nrows, ncols) < 0:
            raise ValueError(f"negative shape {nrows}x{ncols}")
        return IntMatrix([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @staticmethod
    def diagonal(entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return IntMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @staticmethod
    def block_diagonal(*blocks: "IntMatrix") -> "IntMatrix":
        nr = sum(b.nrows for b in blocks)
        nc = sum(b.ncols for b in blocks)
        rows = [[0] * nc for _ in range(nr)]
        ri = ci = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    rows[ri + i][ci + j] = b[i, j]
            ri += b.nrows
            ci += b.ncols
        return IntMatrix(rows, ncols=nc)

    def transpose(self) -> "IntMatrix":
        if not self._rows:
            return IntMatrix._trusted(((),) * self._ncols, 0)
        return IntMatrix._trusted(tuple(zip(*self._rows)), len(self._rows))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_shape(other)
        return IntMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_shape(other)
        return IntMatrix._trusted(
            tuple(tuple(map(operator.sub, ra, rb)) for ra, rb in zip(self._rows, other._rows)),
            self._ncols,
        )

    def _check_shape(self, other: "IntMatrix") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix._trusted(
                tuple(tuple(other * a for a in row) for row in self._rows), self._ncols
            )
        if isinstance(other, IntMatrix):
            if self.ncols != other.nrows:
                raise ValueError("inner dimensions differ")
            # row i of the product is the sum of x * row k of other over the
            # nonzero entries x = self[i, k], so a sparse left factor costs little
            width = other._ncols
            product = []
            for row in self._rows:
                total = [0] * width
                for x, right in zip(row, other._rows):
                    if x:
                        total = [t + x * y for t, y in zip(total, right)]
                product.append(tuple(total))
            return IntMatrix._trusted(tuple(product), width)
        return NotImplemented

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.ncols:
            raise ValueError("vector length differs from column count")
        return tuple(sum(map(operator.mul, row, vector)) for row in self._rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.nrows) for j in range(i)
        )

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square():
            raise ValueError("determinant needs a square matrix")
        sign, pivot = _bareiss([list(row) for row in self._rows], jordan=False)
        return sign * pivot

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self._rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self._ncols == other._ncols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._ncols))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"


def _bareiss(a: list[list[int]], jordan: bool) -> tuple[int, int]:
    """Fraction-free elimination of the leading square block of `a`, in place.

    Row k's pivot clears column k below it (and above it too when `jordan`),
    updating every column to its right, so augmented columns ride along;
    every division is exact (Bareiss 1968).  Returns (sign of the row
    permutation, last pivot), whose product is the determinant of the
    block; the pivot is 0 for a singular block, left partly reduced.
    """
    n = len(a)
    width = len(a[0]) if a else 0
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return sign, 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        cols = range(k + 1, width)
        for i in range(n) if jordan else range(k + 1, n):
            if i != k:
                row = a[i]
                f = row[k]
                for j in cols:
                    row[j] = (pivot * row[j] - f * top[j]) // prev
                row[k] = 0
        prev = pivot
    return sign, prev


def det_adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """det R and adj R, so that R adj(R) = det(R) I, for R with these rows.

    One fraction-free Gauss-Jordan sweep of [R | I] turns the right block
    into +-adj(R) and leaves +-det(R) as the last pivot, the sign being
    that of the row permutation: O(n^3) instead of n^2 minors.  A singular
    R raises ValueError.
    """
    n = len(rows)
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    if any(len(row) != 2 * n for row in a):
        raise ValueError("adjugate needs a square matrix")
    sign, pivot = _bareiss(a, jordan=True)
    if pivot == 0:
        raise ValueError("matrix is singular")
    return sign * pivot, tuple(tuple(sign * x for x in row[n:]) for row in a)


class SmithDecomposition(NamedTuple):
    """u * m * v = d with u, v unimodular and d a diagonal divisor chain.

    smith_decomposition fills both transforms.  From _smith, u is None
    unless asked for, and v holds below * v, None without `below`.
    """

    u: IntMatrix | None
    d: IntMatrix
    v: IntMatrix | None
    diagonal: tuple[int, ...]
    rank: int


def _smith(m: IntMatrix, u: bool = False, below: IntMatrix | None = None) -> SmithDecomposition:
    """Smith normal form of m by one elimination of [[m, I], [below, 0]].

    Row operations act on whole rows of the top block, so its right half,
    the identity when `u`, ends as u; column operations act on every row,
    so the rows `below` (with m's column count) end as below * v, returned
    as the field v.  The pivoting reads only m, so every transform equals
    the one the full decomposition returns.

    Each pass takes as pivot the first least |e| of the trailing block in
    row-major order.  A row that is zero from column s on stays zero: a row
    operation adds the pivot row only to a row with an entry in column s,
    and a column operation, column j minus q column s, changes a row only
    through that entry.  So the pivot search and the divisibility check
    skip such rows, and the column operations of a pass run only over the
    rows, of the top block and of `below`, with an entry in column s,
    collected once since no column operation changes column s.  The
    skipped work would have changed no value, so the pivots, the
    transforms and the diagonal are those of the elimination over every
    row.  This matters for a norm map sigma, whose rank is a small part
    of its size.

    `toric.quotient_fan` runs this once per singularity on an n x (n + 1)
    matrix, n mostly 2 to 4, where set-up and tear-down are much of the
    cost: so each unit row of u is `[0] * nr` with one 1 set, and the
    result is filled positionally, its rank counted as the diagonal's
    length less its zeros.
    """
    nr, nc = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    if u:
        for i, row in enumerate(a):
            unit = [0] * nr
            unit[i] = 1
            row += unit
    if below is not None:
        a += [list(row) for row in below.rows]

    # in m's block, rows above s are zero from column s on, and so are columns
    # left of s from row s down: row operations touch columns s on (the rest of
    # m's row and all of u's), column operations rows s on (with all of below)
    s = 0
    while s < min(nr, nc):
        best = None
        for i in range(s, nr):
            row = a[i]
            if not any(row[s:nc]):  # zero rows are found in C
                continue
            for j in range(s, nc):
                e = row[j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
                    if best[0] == 1:  # nothing later can be smaller
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != s:
            a[s], a[bi] = a[bi], a[s]
        if bj != s:
            for row in a[s:]:
                row[s], row[bj] = row[bj], row[s]
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]

        top = a[s]
        pivot = top[s]
        clean = True
        for row in a[s + 1:nr]:
            q = row[s] // pivot
            if q:
                row[s:] = [x - q * y for x, y in zip(row[s:], top[s:])]
            if row[s]:
                clean = False
        live = [row for row in a[s:] if row[s]]
        for j in range(s + 1, nc):
            q = top[j] // pivot
            if q:
                for row in live:
                    row[j] -= q * row[s]
            if top[j]:
                clean = False
        if not clean:
            continue

        # the first row with an entry that the pivot does not divide; zero rows are found in C
        offender = None if pivot == 1 else next(
            (row for row in a[s + 1:nr]
             if any(row[s + 1:nc]) and any(x % pivot for x in row[s + 1:nc])),
            None,
        )
        if offender is not None:
            # fold the offending row into row s; the next pass shrinks the pivot
            top[s:] = [x + y for x, y in zip(top[s:], offender[s:])]
            continue
        s += 1

    diag = tuple([a[i][i] for i in range(min(nr, nc))])
    return SmithDecomposition(
        IntMatrix._trusted(tuple([tuple(row[nc:]) for row in a[:nr]]), nr) if u else None,
        IntMatrix._trusted(tuple([tuple(row[:nc]) for row in a[:nr]]), nc),
        None if below is None else IntMatrix._trusted(tuple(map(tuple, a[nr:])), nc),
        diag,
        len(diag) - diag.count(0),
    )


def smith_decomposition(m: IntMatrix) -> SmithDecomposition:
    """The Smith normal form with both transforms.

    u * m * v = d with u, v unimodular and d diagonal with non-negative
    entries forming a divisibility chain d[0] | d[1] | ... .

    >>> smith_decomposition(IntMatrix.diagonal([2, 3])).d
    IntMatrix([[1, 0], [0, 6]])
    """
    return _smith(m, u=True, below=IntMatrix.identity(m.ncols))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(h, x, y) with x*a + y*b = h = gcd(a, b), for a, b >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _chain_mod(rows: Sequence[Sequence[int]], m: int) -> list[int]:
    """The g's of one elimination of a square matrix A over Z/m, m > 1:
    coker over Z/m of A is the sum of the Z/g.

    Each step brings the entry e of least gcd(e, m) to the pivot; a unit
    clears its column in one pass.  Otherwise rows or columns are combined
    by extended gcd until g = gcd(pivot, m) divides the rest of the pivot's
    row and column; each combination replaces g by a proper divisor, so
    there are at most log2(m) of them per step.  The step contributes Z/g.

    Only the input and each step's pivot row are reduced mod m, the pivot
    row once before it multiplies; the other rows take t - x s unreduced,
    in place.  Every value the elimination reads is read modulo m or a
    divisor g of m (gcd(e, m), e mod g, and x = e/g c^-1 mod m/g), and the
    extended gcd combinations reduce their inputs and what they write, so
    the pivots, the g's and the diagonal are those of full reduction.
    With x < m and a reduced pivot row a step adds less than m^2 to an
    entry, so after k steps |entry| < m + k m^2.

    A symmetric A, such as a Gram matrix, first runs a congruence phase,
    checked for in O(n^2).  While a diagonal entry of the trailing block is
    a unit mod m it is the pivot; failing that, a principal 2x2 block
    [[a_ii, a_ij], [a_ij, a_jj]] whose determinant is a unit, as the odd
    off-diagonal entries of an even Gram give at m even.  The rows and the
    columns of the pivot are cleared together, E^T A E with E invertible
    mod m, which keeps the cokernel over Z/m; the block stays symmetric mod
    m, so only its upper triangle is updated, by x < m times each pivot
    row, reduced once.  Each such step contributes one or two diagonal 1's
    and adds less than m^2 per row it removes.  What is left is mirrored
    and runs the elimination above.
    """
    n = len(rows)
    a = [[x % m for x in row] for row in rows]
    found = []
    if all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i)):
        # row i of the trailing block is read from column i on, its upper triangle
        def full(k):
            # row k in full, reduced: column k above the diagonal, then row k on
            return [e % m for e in [row[k] for row in a[:k]] + a[k][k:]]

        while True:
            k = next((i for i, row in enumerate(a) if gcd(row[i], m) == 1), None)
            if k is not None:
                top = full(k)
                unit = pow(top[k], -1, m)
                del a[k], top[k]
                for row in a:
                    del row[k]
                for i, row in enumerate(a):
                    x = top[i] * unit % m
                    if x:
                        row[i:] = [t - x * s for s, t in zip(top[i:], row[i:])]
                continue
            k, j = next(((k, j) for k, row in enumerate(a) for j in range(k + 1, len(a))
                         if gcd(row[k] * a[j][j] - row[j] * row[j], m) == 1), (None, None))
            if k is None:
                break
            # clear by the inverse (1/det) [[c, -b], [-b, p]] of the block [[p, b], [b, c]]
            u, v = full(k), full(j)
            p, b, c = u[k], u[j], v[j]
            unit = pow(p * c - b * b, -1, m)
            del a[j], a[k]
            for w in (u, v, *a):
                del w[j], w[k]
            for i, row in enumerate(a):
                x = (c * u[i] - b * v[i]) * unit % m
                y = (p * v[i] - b * u[i]) * unit % m
                if x or y:
                    row[i:] = [t - x * s - y * r for s, r, t in zip(u[i:], v[i:], row[i:])]
        for i, row in enumerate(a):
            row[:i] = [a[j][i] for j in range(i)]
    while a:
        best = None
        for i, row in enumerate(a):
            for j, e in enumerate(row):
                g = gcd(e, m)
                if best is None or g < best[0]:
                    best = (g, i, j)
                    if g == 1:
                        break
            if best[0] == 1:
                break
        g, bi, bj = best
        a[0], a[bi] = a[bi], a[0]
        if bj:
            for row in a:
                row[0], row[bj] = row[bj], row[0]
        while g > 1:
            top = a[0]
            i = next((i for i in range(1, len(a)) if a[i][0] % g), None)
            if i is not None:
                # [[x, y], [-e/h, p/h]] on rows 0 and i leaves h, 0 in column 0
                p, e = top[0] % m, a[i][0] % m
                h, x, y = _xgcd(p, e)
                a[0] = [(x * s + y * t) % m for s, t in zip(top, a[i])]
                a[i] = [(p // h * t - e // h * s) % m for s, t in zip(top, a[i])]
            else:
                j = next((j for j in range(1, len(top)) if top[j] % g), None)
                if j is None:
                    break
                p, e = top[0] % m, top[j] % m
                h, x, y = _xgcd(p, e)
                for row in a:
                    s, t = row[0], row[j]
                    row[0], row[j] = (x * s + y * t) % m, (p // h * t - e // h * s) % m
            g = gcd(a[0][0], m)
        top = [e % m for e in a[0]]
        # pivot = g c with c a unit mod m/g: row_i -= x row_0 clears a_i0 = g f
        unit = pow(top[0] // g, -1, m // g)
        del a[0]
        for row in a:
            x = row.pop(0) // g * unit % (m // g)
            if x:
                row[:] = [t - x * s for s, t in zip(top[1:], row)]
        found.append(g)
    return found


def _divisor_chain(found: Sequence[int], n: int, det: int, m: int) -> tuple[int, ...]:
    """The Smith diagonal of a non-singular n x n matrix of determinant det
    from the g's of its eliminations over Z/m, or over coprime parts of m,
    m a multiple of d_1 ... d_(n-1) dividing |det|.

    The g's are made into a divisor chain.  The g's of several parts pool
    into more than n factors, and the chain is their product's, so the 1's
    that gcd/lcm leaves go.  Over Z/m the chain is gcd(d_i, m), which is d_i
    for i < n.  The g's must multiply to d_1 ... d_(n-1) gcd(d_n, m), and
    d_(n-1) must divide d_n.
    """
    if not n:
        return ()
    chain = [g for g in found if g > 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            h = gcd(chain[i], chain[j])
            chain[i], chain[j] = h, chain[i] // h * chain[j]
    chain = [g for g in chain if g > 1]
    head = ((1,) * (n - len(chain)) + tuple(chain))[:n - 1]
    last, rest = divmod(abs(det), prod(head))
    if rest or prod(found) != prod(head) * gcd(last, m) or (head and last % head[-1]):
        raise RuntimeError(
            f"modular Smith diagonal {found} modulo {m} is no divisor chain of |det| = {abs(det)}"
        )
    return head + (last,)


# the unsigned machine word of each width, as array and memoryview name it
_MACHINE_WORDS = {memoryview(b"").cast(c).itemsize: c for c in "QIHB"}


def _packing(p: int, n: int) -> tuple[int, Callable, Callable]:
    """(slot bits, pack, reduce) for rows of n entries over F_p held as one int.

    Entry j of a row is slot j of the int, bits 8 w j to 8 w (j + 1), where
    w is the fewest bytes that hold every value below 2 X, X = 2 n p^2,
    rounded up to a machine word of 1, 2, 4 or 8 bytes where one is wide
    enough and the machine is little-endian, so that array packs the row
    in C.  X bounds every slot of _row_basis_mod_p: an incoming row is
    below n p^2, and each of at most n clearing steps adds less than p^2.
    pack takes entries below 2 X.  Lengths and byte orders are passed
    explicitly, as Python 3.10 has no defaults for them.

    reduce maps every slot below X to its residue mod p with a dozen int
    operations and no loop over entries, by Barrett's quotient
    q = floor(x M / 2^s) = floor(x / p), M = ceil(2^s / p), 2^s > X p: with
    M = (2^s + e) / p, 0 <= e < p, the error x e / (p 2^s) is below 1 / p.
    The even slots and the odd ones, shifted down, are multiplied by M
    apart, so each product x M has its empty neighbour slot as headroom.
    It fits there: the one spare bit gives X <= 2^(w' - 1) with w' = 8 w
    the slot width, and the least such s has 2^s <= 2 X p, so M <= 2 X
    and x M < 2 X^2 <= 2^(2 w' - 1); the quotient q < X / p fits its slot.
    """
    bound = 2 * n * p * p
    w = max(1, ((2 * bound - 1).bit_length() + 7) // 8)
    if w <= 8 and sys.byteorder == "little":
        from array import array  # loaded by the first elimination, not at start-up

        w = 1 << (w - 1).bit_length()
        code = _MACHINE_WORDS[w]

        def pack(row):
            return int.from_bytes(array(code, row).tobytes(), "little")
    else:
        def pack(row):
            return int.from_bytes(b"".join([x.to_bytes(w, "little") for x in row]), "little")

    bits = 8 * w
    s = (bound * p).bit_length()
    m = -(-(1 << s) // p)
    # a 1 at the foot of each pair of slots, the last one alone for odd n
    feet = int.from_bytes((b"\1" + bytes(2 * w - 1)) * ((n + 1) // 2), "little")
    even, high = feet * ((1 << bits) - 1), feet * ((1 << 2 * bits) - (1 << s))

    def reduce(r):
        q = (r & even) * m & high | ((r >> bits & even) * m & high) << bits
        return r - p * (q >> s)

    return bits, pack, reduce


def _pack_minus_one(rows: Sequence[Sequence[int]], p: int, packing: tuple) -> list[int]:
    """The rows of A - 1, for the square A with these rows, packed by
    `packing` with a residue in every slot: slot i of row i holds
    (x_ii - 1) mod p."""
    bits, pack = packing[0], packing[1]
    return [pack([x % p for x in row]) + (((row[i] - 1) % p - row[i] % p) << i * bits)
            for i, row in enumerate(rows)]


def _row_basis_mod_p(rows: Iterable[int], p: int, packing: tuple,
                     basis: list | None = None, top: int | None = None) -> list[int]:
    """Echelon basis over F_p of the span of `rows`, packed by `packing`.

    Each row is an int of n slots of `packing`, _packing(p, n), every slot
    below n p^2, and so is each row of the basis returned, monic, with a
    residue in every slot.  Each incoming row is cleared at the leading
    columns of the basis so far, in order, and kept, made monic, if anything
    is left; a basis row is zero left of its leading column and at the
    leading columns before it.  With `top`, only a row left nonzero below
    bit `top` is kept, in `basis`, the (shift of the leading slot, monic
    row) pairs that each call extends, so one elimination can take its rows
    over several calls; the call returns the other nonzero rows, reduced,
    instead of the basis.

    A clearing step is one product and one sum of ints, r + (p - f) b, with
    nothing reduced: p - f > 0 and b's slots are residues, so every slot
    stays non-negative and below X = 2 n p^2, and slot lead of the sum is
    f + (p - f) = 0 mod p.  One reduce then takes each cleared row to its
    residues (exact below X, as a slot of w bits has X <= 2^(w - 1), so
    every Barrett product x M < 2^(2 w) stays in its pair of slots), so
    the row is zero when the int is, its leading slot is read off its
    lowest set bit, and it is made monic by one more reduce, of products
    of two residues.  Nothing is unpacked.
    """
    bits, _, reduce = packing
    mask = (1 << bits) - 1
    low = -1 if top is None else (1 << top) - 1
    basis = [] if basis is None else basis
    rest = []
    for r in rows:
        if not r:
            continue
        for shift, b in basis:
            f = (r >> shift & mask) % p
            if f:
                r += (p - f) * b
        r = reduce(r)
        if r & low:
            shift = ((r & -r).bit_length() - 1) // bits * bits
            pivot = r >> shift & mask
            if pivot != 1:
                r = reduce(r * pow(pivot, -1, p))
            basis.append((shift, r))
        elif r:
            rest.append(r)
    return rest if top is not None else [b for _, b in basis]


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank of m over the field with p elements."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    packing = _packing(p, m.ncols)
    pack = packing[1]
    return len(_row_basis_mod_p([pack([x % p for x in row]) for row in m.rows], p, packing))


def norm_map(a: IntMatrix, p: int) -> IntMatrix | None:
    """sigma = sum_(k<p) a^k when a^p is the identity over Z, else None;
    for a square a and a prime p.

    The identity gives p I.  A nontrivial a with a^p = 1 has minimal
    polynomial dividing X^p - 1 = (X - 1) Phi_p and not X - 1, so the
    irreducible Phi_p, of degree p - 1, divides it and p <= n + 1.  Past
    that the answer is None with no work, so the work is bounded by the
    rank, not by p; otherwise it is one _norm_map pass.
    """
    rows = a.rows
    n = len(rows)
    if all(x == (i == j) for i, row in enumerate(rows) for j, x in enumerate(row)):
        return IntMatrix.diagonal([p] * n)
    if p > n + 1:
        return None
    return _norm_map(rows, p)


def _norm_map(rows: Sequence[Sequence[int]], p: int) -> IntMatrix | None:
    """sigma = sum_(k<p) A^k for the square A with these rows, or None
    when A^p != 1 over Z.

    Horner's rule S <- I + A S, p - 1 times, with row i of A S the sum of
    a_ik S[k] over the nonzero entries a_ik of A: O(p nnz(A) n) instead of
    p dense products.  As (A - 1) sigma = A^p - 1, one more product decides
    the order exactly: A^p = 1 iff A sigma = sigma.
    """
    n = len(rows)
    nonzeros = [[(k, a) for k, a in enumerate(row) if a] for row in rows]

    def times(s: list[list[int]]) -> list[list[int]]:
        product = []
        for terms in nonzeros:
            row = [0] * n
            for k, a in terms:
                row = [x + a * y for x, y in zip(row, s[k])]
            product.append(row)
        return product

    total = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(p - 1):
        total = times(total)
        for i, row in enumerate(total):
            row[i] += 1
    if times(total) != total:
        return None
    return IntMatrix._trusted(tuple(map(tuple, total)), n)


def kernel_saturated(m: IntMatrix) -> IntMatrix:
    """Basis (as rows) of the saturated integer kernel {x : m*x = 0}.

    The returned rows span a direct summand of Z^ncols, so the quotient by
    their span is torsion-free.
    """
    s = _smith(m, below=IntMatrix.identity(m.ncols))
    return IntMatrix._trusted(s.v.transpose().rows[s.rank:], m.ncols)


def image_basis(m: IntMatrix) -> IntMatrix:
    """Basis (as rows) of the image subgroup {m*x : x in Z^ncols} of Z^nrows.

    m rides along below its own elimination and ends as m v = u^-1 d, so
    column i < rank of it is d_i times column i of u^-1: the image of the
    i-th basis vector of the Smith basis, read without an inverse or a
    product.
    """
    s = _smith(m, below=m)
    return IntMatrix._trusted(s.v.transpose().rows[:s.rank], m.nrows)


class CohGroup(NamedTuple):
    """Finitely generated abelian group as (free rank, torsion divisors)."""

    free_rank: int
    divisors: tuple[int, ...]

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.divisors]
        return " + ".join(parts) if parts else "0"


def quotient_group(sub: IntMatrix, ambient_rank: int) -> list[int]:
    """Elementary divisors (> 1) of Z^ambient_rank / <rows of sub>.

    With fewer rows than the ambient rank only the torsion relative to the
    saturation of the row span is reported; a full-rank sub yields the whole
    finite quotient, computed modulo D = |det|.  Dependent rows are
    rejected.

    adj(A) A = det(A) I puts D Z^n inside the row span of a full-rank A, so
    Z^n / rows(A) is also the cokernel of A over Z/D, and the elimination
    runs on residues instead of on growing integers (Domich-Kannan-Trotter
    1987; Cohen, GTM 138, Alg. 2.4.14): _chain_mod gives its cyclic factors
    and _divisor_chain the diagonal, d_n = D / (d_1 ... d_(n-1)).  D = 1
    leaves nothing to eliminate.
    """
    if sub.ncols != ambient_rank:
        raise ValueError("row vectors do not live in Z^ambient_rank")
    if sub.nrows > ambient_rank:
        raise ValueError("more rows than the ambient rank")
    if sub.nrows == 0:
        return []
    if sub.nrows == ambient_rank:
        det = sub.det()
        if det == 0:
            raise ValueError("rows are dependent")
        m = abs(det)
        chain = _divisor_chain(_chain_mod(sub.rows, m) if m > 1 else [], sub.nrows, det, m)
        return [d for d in chain if d > 1]
    s = _smith(sub)
    if s.rank != sub.nrows:
        raise ValueError("rows are dependent")
    return [d for d in s.diagonal if d > 1]


def primitive_vector(vec: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no primitive multiple")
    return tuple(x // g for x in vec)
