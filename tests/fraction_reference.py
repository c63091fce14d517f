"""Reference dense matrices over Q: one `Fraction` per entry.

This is the plain Gauss-Jordan implementation `catcx.exactlin.Matrix`
had before it moved to integer numerators over a common denominator.  It
is kept only as the slow oracle for the differential tests in
`test_exactlin_diff.py`; nothing in the package imports it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, str, Fraction]


class DimensionError(ValueError):
    """Shapes do not match the operation's requirements."""


def rat(x: Scalar) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x: Fraction) -> str:
    """Serialize as 'p' or 'p/q'; inverse of `rat` on canonical strings."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Matrix:
    """Dense matrix of rationals, row-major storage.

    Treat instances as immutable: all operations return new matrices.
    """

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        e = tuple(rat(x) for x in entries)
        if rows < 0 or cols < 0:
            raise DimensionError("negative matrix dimensions")
        if len(e) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(e)}"
            )
        self.rows = rows
        self.cols = cols
        self._e = e

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence[Scalar]], cols: Optional[int] = None) -> "Matrix":
        nrows = len(rows_data)
        if nrows == 0:
            return cls(0, 0 if cols is None else cols, [])
        ncols = len(rows_data[0])
        for r in rows_data:
            if len(r) != ncols:
                raise DimensionError("ragged rows")
        flat = [x for r in rows_data for x in r]
        return cls(nrows, ncols, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def column(cls, entries: Sequence[Scalar]) -> "Matrix":
        return cls(len(entries), 1, entries)

    # -- access -----------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self._e[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def entries(self) -> tuple:
        return self._e

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        return Matrix(self.rows, self.cols, [a + b for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in subtraction")
        return Matrix(self.rows, self.cols, [a - b for a, b in zip(self._e, other._e)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self._e])

    def scale(self, c: Scalar) -> "Matrix":
        c = rat(c)
        return Matrix(self.rows, self.cols, [c * a for a in self._e])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m, p = self.rows, self.cols, other.cols
        a, b = self._e, other._e
        out = [Fraction(0)] * (n * p)
        for i in range(n):
            arow = a[i * m : (i + 1) * m]
            base = i * p
            for k in range(m):
                aik = arow[k]
                if aik:
                    brow = b[k * p : (k + 1) * p]
                    for j in range(p):
                        if brow[j]:
                            out[base + j] += aik * brow[j]
        return Matrix(n, p, out)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols, self.rows,
            [self._e[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; basis order (i, k) -> i * other.rows + k."""
        r = self.rows * other.rows
        c = self.cols * other.cols
        out = [Fraction(0)] * (r * c)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self._e[i * self.cols + j]
                if not a:
                    continue
                for k in range(other.rows):
                    base = (i * other.rows + k) * c + j * other.cols
                    orow = other._e[k * other.cols : (k + 1) * other.cols]
                    for l in range(other.cols):
                        if orow[l]:
                            out[base + l] = a * orow[l]
        return Matrix(r, c, out)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionError("hstack needs equal row counts")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return Matrix.from_rows(rows, cols=self.cols + other.cols)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionError("vstack needs equal column counts")
        return Matrix(self.rows + other.rows, self.cols, self._e + other._e)

    @staticmethod
    def block(grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a block matrix; shapes must be consistent per row/column."""
        if not grid:
            return Matrix.zeros(0, 0)
        rows_out = []
        for row_blocks in grid:
            acc = row_blocks[0]
            for blk in row_blocks[1:]:
                acc = acc.hstack(blk)
            rows_out.append(acc)
        acc = rows_out[0]
        for blk in rows_out[1:]:
            acc = acc.vstack(blk)
        return acc

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(not x for x in self._e)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self._e[i * self.cols + j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._e == other._e

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __repr__(self):
        if self.rows * self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(
            " ".join(rat_str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # -- eliminations -------------------------------------------------------
    #
    # rank() is fraction-free: each row is scaled to integers (scaling does not
    # change the rank), then Bareiss elimination keeps all intermediates
    # integral and of bounded size.  invert(), rref() and friends work
    # directly over Q; the pivot is always the first nonzero entry in the
    # column, so results are deterministic.

    def _int_rows(self) -> list:
        out = []
        for i in range(self.rows):
            r = self.row(i)
            m = lcm(*(x.denominator for x in r)) if r else 1
            out.append([int(x * m) for x in r])
        return out

    def rank(self) -> int:
        a = self._int_rows()
        nr, nc = self.rows, self.cols
        prev = 1
        r = 0
        for c in range(nc):
            if r >= nr:
                break
            piv = None
            for i in range(r, nr):
                if a[i][c] != 0:
                    piv = i
                    break
            if piv is None:
                continue
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
            for i in range(r + 1, nr):
                if any(a[i][k] for k in range(c, nc)):
                    arc = a[r][c]
                    aic = a[i][c]
                    ai = a[i]
                    ar = a[r]
                    for k in range(c, nc):
                        ai[k] = (arc * ai[k] - aic * ar[k]) // prev
            prev = a[r][c]
            r += 1
        return r

    def rref(self) -> tuple:
        """Reduced row echelon form; returns (rref matrix, pivot column list)."""
        a = [list(self.row(i)) for i in range(self.rows)]
        nr, nc = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(nc):
            if r >= nr:
                break
            piv = None
            for i in range(r, nr):
                if a[i][c]:
                    piv = i
                    break
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            p = a[r][c]
            a[r] = [x / p for x in a[r]]
            for i in range(nr):
                if i != r and a[i][c]:
                    f = a[i][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivots.append(c)
            r += 1
        flat = [x for row in a for x in row]
        return Matrix(nr, nc, flat), pivots

    def kernel_basis(self) -> list:
        """Basis of the right kernel, as n x 1 column matrices.

        Deterministic: free variables are set to 1 one at a time, in
        increasing column order, pivots solved from the RREF.
        """
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -R[r, fc]
            basis.append(Matrix.column(v))
        return basis

    def solve(self, b: "Matrix") -> Optional["Matrix"]:
        """One exact solution of self @ x = b (free variables 0), or None."""
        if b.rows != self.rows:
            raise DimensionError("rhs row count mismatch")
        aug = self.hstack(b)
        R, pivots = aug.rref()
        for pc in pivots:
            if pc >= self.cols:
                return None
        out = [[Fraction(0)] * b.cols for _ in range(self.cols)]
        for r, pc in enumerate(pivots):
            for j in range(b.cols):
                out[pc][j] = R[r, self.cols + j]
        return Matrix.from_rows(out, cols=b.cols)

    def invert(self) -> Optional["Matrix"]:
        """Exact inverse, or None when singular.

        Raises DimensionError on non-square input.
        """
        if self.rows != self.cols:
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        if n == 0:
            return Matrix.zeros(0, 0)
        aug = self.hstack(Matrix.identity(n))
        R, pivots = aug.rref()
        if pivots != list(range(n)):
            return None
        inv = [R.row(i)[n:] for i in range(n)]
        return Matrix.from_rows(inv, cols=n)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows
