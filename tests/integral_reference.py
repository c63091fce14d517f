"""Reference K_0 and Koszul code with one `Fraction` per scalar.

These are `zeta`, `mobius` and `FDAlgebra` as `catcx.laxmat` and
`catcx.koszul` had them before integral structure moved onto plain ints:
zeta built through `IntMatrix`'s coercing constructor, Moebius by
fraction-free elimination of zeta, and algebra scalars kept as Fractions.
They are kept only as the slow oracles of `test_integral_diff.py`; nothing
in the package imports them.  The Koszul construction, realization and
duality check are the package's own functions, which take any algebra
object, so driving them with `FDAlgebra` here reproduces the old results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from catcx.exactlin import DimensionError, Matrix, rat
from catcx.laxmat import FinPoset, IntMatrix

Vec = Tuple[Fraction, ...]


def zeta(P: FinPoset) -> IntMatrix:
    """zeta[t][s] = 1 when s <= t in the poset."""
    n = P.size()
    ent = [[1 if P.leq[s][t] else 0 for s in range(n)] for t in range(n)]
    return IntMatrix(P.labels, P.labels, ent)


def mobius(P: FinPoset) -> IntMatrix:
    """Integer inverse of zeta; exists since zeta is unitriangular in any
    linear extension."""
    inv = zeta(P).matrix.invert()
    if inv is None:
        raise DimensionError("zeta matrix is singular; input is not a poset")
    if inv._d != 1:
        raise DimensionError("Moebius matrix is not integral")
    return IntMatrix._of(P.labels, P.labels, inv)


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
