"""Koszul complexes over finite-dimensional commutative Q-algebras.

An algebra R is given by structure constants c[i][j][k] (coefficient of
e_k in e_i * e_j) plus a unit vector; commutativity, associativity and the
unit law are checked exactly. K(l_1, ..., l_n) is the free R-complex with
degree-k basis {e_S : S subset of {1..n}, |S| = k} and

    d e_S = sum over i in S of (-1)^(number of j in S below i) * l_i * e_{S - i}.

Subsets of a fixed size are enumerated in the order induced by viewing K
as the left-associated iterated tensor of the two-term complexes
(R --l_i--> R): ord(n, k) lists S + {n} for S in ord(n-1, k-1), then
ord(n-1, k).  With that order, realizing K and realizing the iterated
tensor give literally equal matrices.

Matrices over R (RMatrix) are sparse: a dict from (row, col) to each
nonzero entry.  The column of e_S in a differential has only |S| nonzeros
and a duality map one per row and column, so products (the d.d = 0 and
commutation checks), transposes and comparisons cost work in the number
of nonzeros, not in the square of the rank.  realize() flattens
everything to Q by replacing each entry l with the multiplication-by-l
matrix, placing only the nonzero blocks.

Self-duality: the R-linear dual of K, reindexed by n - degree, is
isomorphic over R to K(l_n, ..., l_1) via e_S-dual -> sgn(S) e_{P(S)}
where P(S) lists the complement of S in reversed-position labels and
sgn(S) is the sign of the shuffle that sorts (complement of S, S).  The
isomorphism is verified degree by degree at construction time: each map
must commute with the differentials and be invertible, which for these
maps (one +-unit per row and column) means that each entry's
multiplication matrix is invertible.  A failure raises, since it would
mean a sign error in one of the two conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, List, Sequence, Tuple

from .exactlin import DimensionError, Matrix, rat
from .chain import ChainComplex

Vec = Tuple[Fraction, ...]


class AlgebraError(ValueError):
    pass


class KoszulDualityError(ValueError):
    pass


class FDAlgebra:
    """Commutative associative unital algebra on basis e_0..e_{m-1}."""

    __slots__ = ("dim", "structure", "unit")

    def __init__(self, dim: int, structure, unit):
        self.dim = dim
        self.structure = tuple(
            tuple(tuple(rat(x) for x in row) for row in plane) for plane in structure
        )
        self.unit = tuple(rat(x) for x in unit)
        if len(self.structure) != dim or any(
            len(p) != dim or any(len(r) != dim for r in p) for p in self.structure
        ):
            raise DimensionError("structure constants must be dim x dim x dim")
        if len(self.unit) != dim:
            raise DimensionError("unit vector has wrong length")

    @classmethod
    def rationals(cls) -> "FDAlgebra":
        return cls(1, (((Fraction(1),),),), (Fraction(1),))

    def element(self, coeffs: Sequence) -> Vec:
        v = tuple(rat(x) for x in coeffs)
        if len(v) != self.dim:
            raise DimensionError("element coefficient vector has wrong length")
        return v

    def zero(self) -> Vec:
        return (Fraction(0),) * self.dim

    def mult(self, x: Vec, y: Vec) -> Vec:
        m = self.dim
        out = [Fraction(0)] * m
        for i in range(m):
            if not x[i]:
                continue
            xi = x[i]
            plane = self.structure[i]
            for j in range(m):
                if not y[j]:
                    continue
                coef = xi * y[j]
                row = plane[j]
                for k in range(m):
                    if row[k]:
                        out[k] += coef * row[k]
        return tuple(out)

    def mult_matrix(self, x: Vec) -> Matrix:
        """Matrix of y -> x * y in the algebra basis."""
        m = self.dim
        cols = []
        for j in range(m):
            basis_j = tuple(Fraction(1) if t == j else Fraction(0) for t in range(m))
            cols.append(self.mult(x, basis_j))
        ent = [cols[j][k] for k in range(m) for j in range(m)]
        return Matrix(m, m, ent)

    def validate(self) -> List[str]:
        report = []
        m = self.dim
        bas = [tuple(Fraction(1) if t == i else Fraction(0) for t in range(m))
               for i in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                if self.mult(bas[i], bas[j]) != self.mult(bas[j], bas[i]):
                    report.append(f"not commutative at basis pair ({i},{j})")
        for i in range(m):
            for j in range(m):
                ij = self.mult(bas[i], bas[j])
                for k in range(m):
                    if self.mult(ij, bas[k]) != self.mult(bas[i], self.mult(bas[j], bas[k])):
                        report.append(f"not associative at basis triple ({i},{j},{k})")
        for i in range(m):
            if self.mult(self.unit, bas[i]) != bas[i]:
                report.append(f"unit law fails at basis element {i}")
        return report


class RMatrix:
    """Matrix with entries in a fixed FDAlgebra, stored sparsely.

    `_nz` maps (row, col) to each nonzero entry; every other entry is zero.
    No zero is ever stored, so equal matrices have equal dicts.
    """

    __slots__ = ("algebra", "rows", "cols", "_nz")

    def __init__(self, algebra: FDAlgebra, rows: int, cols: int, entries: Sequence[Vec]):
        """From row-major dense entries."""
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionError("RMatrix entry count mismatch")
        self.algebra = algebra
        self.rows = rows
        self.cols = cols
        self._nz = {divmod(t, cols): tuple(v) for t, v in enumerate(entries) if any(v)}

    @classmethod
    def _of(cls, algebra: FDAlgebra, rows: int, cols: int,
            nz: Dict[Tuple[int, int], Vec]) -> "RMatrix":
        """Trusted constructor: `nz` holds only nonzero entries inside the shape."""
        m = object.__new__(cls)
        m.algebra = algebra
        m.rows = rows
        m.cols = cols
        m._nz = nz
        return m

    @classmethod
    def zeros(cls, algebra: FDAlgebra, rows: int, cols: int) -> "RMatrix":
        return cls._of(algebra, rows, cols, {})

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))

    def __getitem__(self, ij) -> Vec:
        i, j = ij
        self._check_index(i, j)
        return self._nz.get((i, j)) or self.algebra.zero()

    def put(self, i: int, j: int, v: Vec) -> "RMatrix":
        self._check_index(i, j)
        nz = dict(self._nz)
        if any(v):
            nz[i, j] = tuple(v)
        else:
            nz.pop((i, j), None)
        return RMatrix._of(self.algebra, self.rows, self.cols, nz)

    def __mul__(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise DimensionError("RMatrix shape mismatch")
        row_of_other: Dict[int, List[Tuple[int, Vec]]] = {}
        for (k, j), b in other._nz.items():
            row_of_other.setdefault(k, []).append((j, b))
        mult = self.algebra.mult
        acc: Dict[Tuple[int, int], Vec] = {}
        for (i, k), a in self._nz.items():
            for j, b in row_of_other.get(k, ()):
                t = mult(a, b)
                s = acc.get((i, j))
                acc[i, j] = t if s is None else tuple(map(add, s, t))
        return RMatrix._of(self.algebra, self.rows, other.cols,
                           {ij: v for ij, v in acc.items() if any(v)})

    def transpose(self) -> "RMatrix":
        return RMatrix._of(self.algebra, self.cols, self.rows,
                           {(j, i): v for (i, j), v in self._nz.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, RMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._nz == other._nz

    def is_zero(self) -> bool:
        return not self._nz

    def realize(self) -> Matrix:
        """Replace each R entry by its multiplication matrix (block form)."""
        m = self.algebra.dim
        mult_matrices: Dict[Vec, Matrix] = {}
        blocks = []
        for (i, j), v in self._nz.items():
            blk = mult_matrices.get(v)
            if blk is None:
                blk = mult_matrices[v] = self.algebra.mult_matrix(v)
            blocks.append((i * m, j * m, blk))
        return Matrix.from_blocks(self.rows * m, self.cols * m, blocks)


def subset_order(n: int, k: int) -> List[Tuple[int, ...]]:
    """Size-k subsets of {1..n} in iterated-tensor order."""
    if k < 0 or k > n:
        return []
    if n == 0:
        return [()]
    out = [s + (n,) for s in subset_order(n - 1, k - 1)]
    out.extend(subset_order(n - 1, k))
    return out


@dataclass
class FreeKoszulComplex:
    algebra: FDAlgebra
    lambdas: Tuple[Vec, ...]
    basis: Tuple[Tuple[Tuple[int, ...], ...], ...]  # basis[k] = subsets at degree k
    sym_d: Dict[int, RMatrix]                       # degree k -> k-1 over R

    @property
    def n(self) -> int:
        return len(self.lambdas)


def koszul(algebra: FDAlgebra, lambdas: Sequence[Sequence]) -> FreeKoszulComplex:
    """Build K(l_1..l_n) and verify d.d = 0 over R exactly."""
    ls = tuple(algebra.element(l) for l in lambdas)
    n = len(ls)
    if n == 0:
        raise DimensionError("need at least one lambda")
    # (l_i, -l_i), or None where l_i = 0 and contributes no entries
    signed = [(l, tuple(-x for x in l)) if any(l) else None for l in ls]
    basis = tuple(tuple(subset_order(n, k)) for k in range(n + 1))
    sym_d: Dict[int, RMatrix] = {}
    for k in range(1, n + 1):
        row_of = {S: r for r, S in enumerate(basis[k - 1])}
        nz = {}
        for col, S in enumerate(basis[k]):
            # S is ascending, so exactly pos members of S lie below i = S[pos]
            for pos, i in enumerate(S):
                if signed[i - 1] is not None:
                    nz[row_of[S[:pos] + S[pos + 1:]], col] = signed[i - 1][pos % 2]
        sym_d[k] = RMatrix._of(algebra, len(basis[k - 1]), len(basis[k]), nz)
    for k in range(2, n + 1):
        if not (sym_d[k - 1] * sym_d[k]).is_zero():
            raise AlgebraError(f"Koszul differential does not square to zero at degree {k}")
    return FreeKoszulComplex(algebra, ls, basis, sym_d)


def realize(K: FreeKoszulComplex) -> ChainComplex:
    m = K.algebra.dim
    n = K.n
    dims = tuple(len(K.basis[k]) * m for k in range(n + 1))
    diffs = {k: K.sym_d[k].realize() for k in range(1, n + 1)}
    return ChainComplex(0, n, dims, diffs)


def shuffle_sign(comp: Sequence[int], S: Sequence[int]) -> int:
    """Sign of the permutation listing comp then S, both ascending."""
    inv = sum(1 for a in comp for b in S if a > b)
    return -1 if inv % 2 else 1


@dataclass
class KoszulDuality:
    """Verified chain isomorphism from the reindexed dual of K onto
    K(lambdas reversed).  maps[i] sends dual degree i to target degree i."""

    source: FreeKoszulComplex
    target: FreeKoszulComplex
    maps: Dict[int, RMatrix]


def dual_differential(K: FreeKoszulComplex, i: int) -> RMatrix:
    """Differential of the reindexed dual at degree i (transpose of d_{n-i+1})."""
    return K.sym_d[K.n - i + 1].transpose()


def _is_unit_monomial(phi: RMatrix) -> bool:
    """Whether phi has exactly one nonzero entry in each row and each column,
    each a unit of R.  Such a matrix is invertible (its inverse is the
    transpose with every entry inverted): realized over Q it is a block
    permutation of invertible multiplication matrices."""
    n = len(phi._nz)
    if not (n == phi.rows == phi.cols == len({i for i, _ in phi._nz})
            == len({j for _, j in phi._nz})):
        return False
    mult_matrix = phi.algebra.mult_matrix
    return all(mult_matrix(v).is_invertible() for v in set(phi._nz.values()))


def duality_iso(K: FreeKoszulComplex) -> KoszulDuality:
    n = K.n
    A = K.algebra
    target = koszul(A, [list(l) for l in reversed(K.lambdas)])
    one = A.unit
    minus_one = tuple(-x for x in one)
    maps: Dict[int, RMatrix] = {}
    for i in range(n + 1):
        row_of = {S: r for r, S in enumerate(target.basis[i])}
        src_level = K.basis[n - i]     # dual basis e_S-dual, |S| = n - i
        nz = {}
        for col, S in enumerate(src_level):
            comp = tuple(j for j in range(1, n + 1) if j not in S)
            pos = tuple(sorted(n + 1 - j for j in comp))
            if any(one):
                nz[row_of[pos], col] = one if shuffle_sign(comp, S) == 1 else minus_one
        maps[i] = RMatrix._of(A, len(target.basis[i]), len(src_level), nz)
    for i in range(1, n + 1):
        lhs = maps[i - 1] * dual_differential(K, i)
        rhs = target.sym_d[i] * maps[i]
        if lhs != rhs:
            raise KoszulDualityError(f"duality map fails to commute at degree {i}")
    for i in range(n + 1):
        if not _is_unit_monomial(maps[i]):
            raise KoszulDualityError(f"duality map not invertible at degree {i}")
    return KoszulDuality(K, target, maps)


# -- helpers used by tests and the CLI ----------------------------------------

def monomial_algebra(num_vars: int, max_degrees: Sequence[int]) -> Tuple[FDAlgebra, List[Tuple[int, ...]]]:
    """Q[x_1..x_q] / (x_i^{m_i}) as an FDAlgebra.

    Returns the algebra together with its monomial basis (exponent tuples);
    products that leave the exponent box are zero.
    """
    from itertools import product as iproduct
    boxes = [range(m) for m in max_degrees]
    basis = [tuple(e) for e in iproduct(*boxes)]
    idx = {e: i for i, e in enumerate(basis)}
    m = len(basis)
    structure = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            c = tuple(x + y for x, y in zip(a, b))
            if c in idx:
                structure[i][j][idx[c]] = Fraction(1)
    unit = [Fraction(0)] * m
    unit[idx[(0,) * num_vars]] = Fraction(1)
    return FDAlgebra(m, structure, unit), basis


def variable_element(algebra_basis: List[Tuple[int, ...]], var: int) -> List[Fraction]:
    """Coefficient vector of x_{var+1} in a monomial algebra."""
    coeffs = [Fraction(0)] * len(algebra_basis)
    target = tuple(1 if i == var else 0 for i in range(len(algebra_basis[0])))
    coeffs[algebra_basis.index(target)] = Fraction(1)
    return coeffs
