"""Exact rational scalars and dense matrices.

Everything downstream (chain complexes, perverse data, Koszul complexes)
reduces to linear algebra over Q done here.  All arithmetic is exact; no
floating point anywhere.

A matrix is stored as FLINT's `fmpq_mat` stores it: a row-major tuple of
int numerators over one positive common denominator, kept canonical
(gcd of the denominator and all numerators is 1, so integer matrices have
denominator 1).  Products, sums, Kronecker products and block placement
run on those ints; a product takes a dot product per entry when its left
factor is dense, else combines rows skipping zeros (the rule is in
`Matrix.__mul__`).  `Matrix.from_blocks` is the one way to place blocks:
it also writes Kronecker products with identities without forming them,
and gathers columns by index data, which is how a signed partial
permutation is composed with (`Matrix.permute`); `Matrix.monomial`, which
builds one, writes its own entries.  There is one elimination,
`_eliminate`: Bareiss on the numerators with deferred row scaling (a row
zero in the pivot column is rescaled only when next used, exactly, as
every Bareiss entry is a minor).  `rank` stops after the forward pass;
`rref`, `kernel_basis` and `solve` also clear above each pivot (every
pivot ends equal to the same minor D, and the reduced form is the result
divided by D).  `invert` is `solve` against the identity.
`fractions.Fraction` stays at the API boundary: `m[i, j]`, `row` and
`entries` return Fractions, and the constructor accepts ints, 'p/q'
strings and Fractions.  It is imported on first use (with `decimal` and
`numbers`, which it loads), so work on integer matrices never loads it.

Matrices are dense and immutable after construction.  Zero-by-n and
n-by-zero matrices are legal and show up constantly (zero vector spaces
in chain degrees), so every routine must tolerate empty shapes.
"""

from __future__ import annotations

from functools import cache
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

Scalar = Union[int, str, "Fraction"]


@cache
def _fraction() -> type:
    """fractions.Fraction, imported on first use (it loads decimal and numbers)."""
    from fractions import Fraction
    return Fraction


def __getattr__(name):
    # `Rational` is fractions.Fraction, imported when first asked for
    if name == "Rational":
        return _fraction()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class DimensionError(ValueError):
    """Shapes do not match the operation's requirements."""


def rat(x: Scalar) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    Fraction = _fraction()
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x: Union[int, Fraction]) -> str:
    """Serialize an int or a Fraction as 'p' or 'p/q'; inverse of `rat` on
    canonical strings."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _entry_str(x: int, d: int) -> str:
    """The rational x / d as `rat_str` spells it."""
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


# small ints as JSON strings, '"n"', so writing a small entry builds no string
_QUOTED = {n: f'"{n}"' for n in range(-256, 257)}


def _eliminate(a: List[list], reduce: bool) -> Tuple[List[int], int]:
    """Fraction-free (Bareiss) elimination on integer rows, in place, with
    deferred row scaling; returns (pivot columns, last pivot D).

    Bareiss takes each row below the pivot row to (p * row - f * pivot_row)
    / prev, so a row with f = 0 is only scaled by p / prev.  That scaling
    is deferred: row i is kept current for pivot value at[i], and as every
    Bareiss entry is a minor (Sylvester's identity), its current value is
    row * prev / at[i].  So the pivot row is updated that way, and a row
    with f != 0 to (p * row - f * pivot_row) / at[i]; both are exact.  A
    step leaves its pivot row as it is, so that row is then current for p.
    The pivot is the first nonzero entry in its column, so results are
    deterministic.

    Without `reduce` only rows below the pivot are eliminated, from the
    pivot column on (the pivot count is the rank).  With it, rows above are
    cleared too, whole, and at the end every row is brought current at D:
    all pivots equal D, rows past the rank are zero, and the reduced row
    echelon form is a / D.
    """
    nr = len(a)
    nc = len(a[0]) if nr else 0
    at = [1] * nr
    pivots = []
    prev = 1
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        for i in range(r, nr):
            if a[i][c]:
                break
        else:
            continue
        a[r], a[i], at[r], at[i] = a[i], a[r], at[i], at[r]
        # rows below r are zero before column c, so without `reduce` the pivot
        # row's tail from c is enough (rows above r are then never read again)
        row = a[r] if reduce else a[r][c:]
        if at[r] != prev:
            row = a[r] = [x * prev // at[r] for x in row]
        p = at[r] = row[c] if reduce else row[0]
        for i in range(0 if reduce else r + 1, nr):
            ai = a[i]
            f = ai[c]
            if f and i != r:
                s = at[i]
                if reduce:
                    a[i] = [(p * x - f * y) // s for x, y in zip(ai, row)]
                else:
                    ai[c:] = [(p * x - f * y) // s for x, y in zip(ai[c:], row)]
                at[i] = p
        pivots.append(c)
        prev = p
        r += 1
    if reduce:
        for i in range(r):
            if at[i] != prev:
                a[i] = [x * prev // at[i] for x in a[i]]
    return pivots, prev


class Matrix:
    """Dense matrix of rationals: int numerators `_e` (row-major) over `_d`.

    Treat instances as immutable: all operations return new matrices.
    """

    __slots__ = ("rows", "cols", "_e", "_d")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        e = tuple(entries)
        d = 1
        if not all(type(x) is int for x in e):
            q = [rat(x) for x in e]
            d = lcm(*[x.denominator for x in q])
            e = tuple(x.numerator * (d // x.denominator) for x in q)
        if rows < 0 or cols < 0:
            raise DimensionError("negative matrix dimensions")
        if len(e) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(e)}"
            )
        self.rows = rows
        self.cols = cols
        self._e = e
        self._d = d

    @classmethod
    def _of(cls, rows: int, cols: int, nums, d: int = 1) -> "Matrix":
        """Trusted constructor: `rows * cols` ints over d > 0, no coercion.

        Only reduces to the canonical form (common factors of d and the
        numerators cancelled).
        """
        if d != 1:
            g = gcd(d, *nums)
            if g != 1:
                nums = [x // g for x in nums]
                d //= g
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._e = tuple(nums)
        m._d = d
        return m

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence[Scalar]], cols: Optional[int] = None) -> "Matrix":
        if not rows_data:
            return cls(0, 0 if cols is None else cols, [])
        ncols = len(rows_data[0])
        if any(len(r) != ncols for r in rows_data):
            raise DimensionError("ragged rows")
        return cls(len(rows_data), ncols, [x for r in rows_data for x in r])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows < 0 or cols < 0:
            raise DimensionError("negative matrix dimensions")
        return cls._of(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        if n < 0:
            raise DimensionError("negative matrix dimensions")
        e = [0] * (n * n)
        e[:: n + 1] = [1] * n
        return cls._of(n, n, e)

    @classmethod
    def monomial(cls, rows: int, cols: Sequence[int],
                 signs: Optional[Sequence[int]] = None) -> "Matrix":
        """The signed partial permutation P, rows x len(cols), with
        P e_j = signs[j] e_{cols[j]}, or column j zero where cols[j] is -1.

        Signs are +-1 and default to all +1.  Structural maps (inclusions,
        projections, re-bracketings) are built this way from their index
        data, and composed with by `permute`.
        """
        n = len(cols)
        if cols and not (-1 <= min(cols) and max(cols) < rows):
            raise DimensionError(f"row index out of range for {rows} rows")
        e = [0] * (rows * n)
        for j, i in enumerate(cols):
            if i >= 0:
                e[i * n + j] = 1 if signs is None else signs[j]
        return cls._of(rows, n, e)

    @classmethod
    def column(cls, entries: Sequence[Scalar]) -> "Matrix":
        return cls(len(entries), 1, entries)

    @classmethod
    def from_blocks(cls, rows: int, cols: int, blocks: Iterable[tuple],
                    gather: Optional[tuple] = None) -> "Matrix":
        """rows x cols matrix, zero except each block placed with its top-left
        corner at (r0, c0); blocks must not overlap.  A block is (r0, c0, m), or
        (r0, c0, m, s, a, b) for s (1_a (x) m (x) 1_b), s = +-1, in `kron`'s
        basis order, written without being formed.  With gather = (cols',
        signs'), the result is that matrix `.permute(cols', signs')`, each
        entry written straight to its gathered column."""
        width, to, blocks = cols, None, list(blocks)
        if gather is not None:
            g_cols, g_signs = gather
            if g_cols and not (-1 <= min(g_cols) and max(g_cols) < cols):
                raise DimensionError(f"column index out of range for {rows}x{cols}")
            width = len(g_cols)
        if not blocks:
            return cls._of(rows, width, (0,) * (rows * width))
        if gather is not None:
            to = [[] for _ in range(cols)]  # where each column goes
            for j, c in enumerate(g_cols):
                if c >= 0:
                    to[c].append(j)
        ent = [0] * (rows * width)
        d = lcm(*[blk[2]._d for blk in blocks])
        for blk in blocks:
            if len(blk) == 3:
                r0, c0, m = blk
                s = a = b = 1
            else:
                r0, c0, m, s, a, b = blk
            mr, mc = m.rows, m.cols
            br, bc = a * mr * b, a * mc * b
            if r0 < 0 or c0 < 0 or r0 + br > rows or c0 + bc > cols:
                raise DimensionError(
                    f"a {br}x{bc} block at ({r0}, {c0}) does not fit in {rows}x{cols}")
            k = s * (d // m._d)
            e = m._e if k == 1 else [x * k for x in m._e]
            if to is None and a == b == 1:  # row by row
                for r in range(mr):
                    at = (r0 + r) * width + c0
                    ent[at:at + mc] = e[r * mc:(r + 1) * mc]
                continue
            # entry (r, q) of m runs down the diagonal of 1_b, in each diagonal block of 1_a
            for i, x in enumerate(e):
                if not x:
                    continue
                r, q = divmod(i, mc)
                for t in range(a):
                    row, col = r0 + (t * mr + r) * b, c0 + (t * mc + q) * b
                    if to is None:
                        ent[row * width + col:(row + b) * width:width + 1] = [x] * b
                        continue
                    for u in range(b):
                        for j in to[col + u]:
                            ent[(row + u) * width + j] = x if g_signs is None else x * g_signs[j]
        return cls._of(rows, width, ent, d)

    # -- access -----------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return _fraction()(self._e[i * self.cols + j], self._d)

    def row(self, i: int) -> tuple:
        Fraction, d = _fraction(), self._d
        return tuple(Fraction(x, d) for x in self._e[i * self.cols:(i + 1) * self.cols])

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def entries(self) -> tuple:
        Fraction, d = _fraction(), self._d
        return tuple(Fraction(x, d) for x in self._e)

    def to_str_lists(self) -> list:
        """Rows of canonical 'p' / 'p/q' strings, as `rat_str` spells them."""
        e, c, d = self._e, self.cols, self._d
        flat = [str(x) for x in e] if d == 1 else [_entry_str(x, d) for x in e]
        return [flat[i * c:(i + 1) * c] for i in range(self.rows)]

    def json_rows(self, sep: str) -> Iterator[str]:
        """Each row as JSON text: its entries as JSON strings, '"p"' or
        '"p/q"' as `rat_str` spells them, joined by sep."""
        e, c, d = self._e, self.cols, self._d
        if d != 1:
            cells = ['"' + _entry_str(x, d) + '"' if x else '"0"' for x in e]
        else:
            try:
                cells = [_QUOTED[x] for x in e]
            except KeyError:  # an entry outside the table
                cells = [_QUOTED.get(x) or f'"{x}"' for x in e]
        for i in range(self.rows):
            yield sep.join(cells[i * c:(i + 1) * c])

    # -- algebra ----------------------------------------------------------

    def _combine(self, other: "Matrix", op, what: str) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError(f"shape mismatch in {what}")
        a, b, da, db = self._e, other._e, self._d, other._d
        d = da
        if da != db:
            d = lcm(da, db)
            a = [x * (d // da) for x in a] if d != da else a
            b = [x * (d // db) for x in b] if d != db else b
        return Matrix._of(self.rows, self.cols, list(map(op, a, b)), d)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, add, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, sub, "subtraction")

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.rows, self.cols, [-x for x in self._e], self._d)

    def scale(self, c: Scalar) -> "Matrix":
        c = c if type(c) is int else rat(c)
        n = c.numerator
        e = self._e if n == 1 else [n * x for x in self._e]
        return Matrix._of(self.rows, self.cols, e, self._d * c.denominator if n else 1)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """n x m by m x p, z nonzero entries on the left: one dot product per
        entry if n * p * (m + 8) <= 3 * z * (p + 4), else rows of other combined,
        skipping zero a_ik and zero rows; no loop if z = 0 or other is zero."""
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m, p = self.rows, self.cols, other.cols
        a, b = self._e, other._e
        z = n * m - a.count(0)
        if not z or not any(b):
            return Matrix._of(n, p, (0,) * (n * p))
        if n * p * (m + 8) <= 3 * z * (p + 4):
            arows = [a[i:i + m] for i in range(0, n * m, m)]
            bcols = [b[j::p] for j in range(p)]
            out = [sum(map(mul, r, c)) for r in arows for c in bcols]
            return Matrix._of(n, p, out, self._d * other._d)
        brows = [b[k * p:(k + 1) * p] for k in range(m)]
        live = [any(r) for r in brows]
        zero = [0] * p
        out = []
        for i in range(n):
            acc = None
            for k, aik in enumerate(a[i * m:(i + 1) * m]):
                if not aik or not live[k]:
                    continue
                brow = brows[k]
                if acc is None:
                    acc = list(brow) if aik == 1 else [aik * y for y in brow]
                elif aik == 1:
                    acc = list(map(add, acc, brow))
                elif aik == -1:
                    acc = list(map(sub, acc, brow))
                else:
                    acc = list(map(add, acc, map(aik.__mul__, brow)))
            out.extend(zero if acc is None else acc)
        return Matrix._of(n, p, out, self._d * other._d)

    def permute(self, cols: Sequence[int], signs: Optional[Sequence[int]] = None) -> "Matrix":
        """self * Matrix.monomial(self.cols, cols, signs) without forming the
        monomial: column j is signs[j] times column cols[j], or zero at -1."""
        return Matrix.from_blocks(self.rows, self.cols, [(0, 0, self)], (cols, signs))

    def transpose(self) -> "Matrix":
        e, c = self._e, self.cols
        return Matrix._of(c, self.rows, [x for j in range(c) for x in e[j::c]], self._d)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; basis order (i, k) -> i * other.rows + k."""
        ac, bc = self.cols, other.cols
        a, b = self._e, other._e
        brows = [b[k * bc:(k + 1) * bc] for k in range(other.rows)]
        zero = (0,) * bc
        out = []
        for i in range(self.rows):
            arow = a[i * ac:(i + 1) * ac]
            for brow in brows:
                for x in arow:
                    if not x:
                        out.extend(zero)
                    elif x == 1:
                        out.extend(brow)
                    else:
                        out.extend([x * y for y in brow])
        return Matrix._of(self.rows * other.rows, ac * bc, out, self._d * other._d)

    def hstack(self, other: "Matrix") -> "Matrix":
        return Matrix.block([[self, other]])

    def vstack(self, other: "Matrix") -> "Matrix":
        return Matrix.block([[self], [other]])

    @staticmethod
    def block(grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Assemble a block matrix; shapes must be consistent per row/column."""
        placed, r0, width = [], 0, None
        for row_blocks in grid:
            height, c0 = row_blocks[0].rows, 0
            for blk in row_blocks:
                if blk.rows != height:
                    raise DimensionError("hstack needs equal row counts")
                placed.append((r0, c0, blk))
                c0 += blk.cols
            if width not in (None, c0):
                raise DimensionError("vstack needs equal column counts")
            r0, width = r0 + height, c0
        return Matrix.from_blocks(r0, width or 0, placed)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._e)

    def is_identity(self) -> bool:
        return (self.rows == self.cols and self._d == 1
                and self._e == Matrix.identity(self.rows)._e)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return ((self.rows, self.cols, self._d) == (other.rows, other.cols, other._d)
                and self._e == other._e)

    def __hash__(self):
        # equal to the hash of the same shape with a tuple of Fraction entries
        e = self._e if self._d == 1 else self.entries()
        return hash((self.rows, self.cols, e))

    def __repr__(self):
        if self.rows * self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(r) for r in self.to_str_lists())
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # -- eliminations -------------------------------------------------------
    #
    # All work on the numerator rows: scaling the whole matrix by its
    # denominator changes neither the rank nor the reduced echelon form.

    def _num_rows(self) -> List[list]:
        c = self.cols
        return [list(self._e[i * c:(i + 1) * c]) for i in range(self.rows)]

    def rank(self) -> int:
        """The number of pivots of the forward elimination."""
        return len(_eliminate(self._num_rows(), False)[0])

    def _reduced(self, extra: Optional["Matrix"] = None) -> Tuple[List[list], List[int], int]:
        """Fraction-free reduced form of the numerators, with `extra`'s
        numerators appended as columns: (rows, pivot columns, D > 0)."""
        a = self._num_rows()
        if extra is not None:
            for row, tail in zip(a, extra._num_rows()):
                row.extend(tail)
        pivots, D = _eliminate(a, True)
        if D < 0:
            a = [[-x for x in row] for row in a]
            D = -D
        return a, pivots, D

    def rref(self) -> tuple:
        """Reduced row echelon form; returns (rref matrix, pivot column list)."""
        a, pivots, D = self._reduced()
        return Matrix._of(self.rows, self.cols, [x for row in a for x in row], D), pivots

    def kernel_basis(self) -> list:
        """Basis of the right kernel, as n x 1 column matrices.

        Deterministic: free variables are set to 1 one at a time, in
        increasing column order, pivots solved from the RREF.
        """
        a, pivots, D = self._reduced()
        pivset = set(pivots)
        basis = []
        for fc in range(self.cols):
            if fc in pivset:
                continue
            v = [0] * self.cols
            v[fc] = D
            for r, pc in enumerate(pivots):
                v[pc] = -a[r][fc]
            basis.append(Matrix._of(self.cols, 1, v, D))
        return basis

    def solve(self, b: "Matrix") -> Optional["Matrix"]:
        """One exact solution of self @ x = b (free variables 0), or None."""
        if b.rows != self.rows:
            raise DimensionError("rhs row count mismatch")
        a, pivots, D = self._reduced(b)
        if pivots and pivots[-1] >= self.cols:
            return None
        # N x = M solves self x = b up to the factor d_self / d_b
        n, p = self.cols, b.cols
        out = [0] * (n * p)
        for r, pc in enumerate(pivots):
            out[pc * p:(pc + 1) * p] = [x * self._d for x in a[r][n:]]
        return Matrix._of(n, p, out, D * b._d)

    def invert(self) -> Optional["Matrix"]:
        """Exact inverse, or None when singular.

        Raises DimensionError on non-square input.
        """
        if self.rows != self.cols:
            raise DimensionError("inverse of a non-square matrix")
        return self.solve(Matrix.identity(self.rows))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def column_space_dim(vectors: Sequence[Matrix]) -> int:
    """Rank of the matrix whose columns are the given column vectors."""
    if not vectors:
        return 0
    return Matrix.block([vectors]).rank()
