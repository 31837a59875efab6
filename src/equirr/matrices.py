"""Dense exact matrices over finite fields, and the Smith normal form of
small integer matrices with the exact inverse it gives.

Entries are stored as a (rows, cols) numpy int64 array of field encodings,
the same ints Field uses for scalars.  Every array-level field operation
goes through Field, which picks plain residue arithmetic for prime fields
and digit/exp-log table gathers for extension fields, so the storage is the
same for every field.  Elimination uses deterministic first-nonzero
pivoting.  Everything is immutable from the caller's point of view:
operations return new Mat values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .fields import Field, Poly


class Mat:
    __slots__ = ("field", "rows", "cols", "a")

    def __init__(self, field: Field, a: np.ndarray):
        # a: (rows, cols) array of encodings, each already in [0, q)
        if a.ndim != 2:
            raise InputError(f"matrix entries need 2 axes, got {a.ndim}")
        self.field = field
        self.rows, self.cols = a.shape
        self.a = a

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: Field, size: int) -> "Mat":
        return cls(field, np.eye(size, dtype=np.int64))

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise InputError("ragged matrix rows")
        a = np.array(rows, dtype=np.int64).reshape(r, c) % field.q
        return cls(field, a)

    @classmethod
    def column(cls, field: Field, entries) -> "Mat":
        return cls.from_rows(field, [[e] for e in entries])

    # -- entry access -----------------------------------------------------

    def get(self, i: int, j: int) -> int:
        return int(self.a[i, j])

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field is other.field
                and self.rows == other.rows and self.cols == other.cols
                and np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((id(self.field), self.rows, self.cols,
                     self.a.tobytes()))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(self.field, self.field.add_array(self.a, other.a))

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat(self.field, self.field.sub_array(self.a, other.a))

    def __neg__(self) -> "Mat":
        return Mat(self.field, self.field.neg_array(self.a))

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols \
                or self.field is not other.field:
            raise InputError("matrix shape or field mismatch")

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows or self.field is not other.field:
            raise InputError(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}")
        return Mat(self.field, self.field.matmul_array(self.a, other.a))

    def scale(self, enc: int) -> "Mat":
        return Mat(self.field, self.field.mul_array(self.a, enc))

    @property
    def T(self) -> "Mat":
        return Mat(self.field, np.ascontiguousarray(self.a.T))

    def hstack(self, other: "Mat") -> "Mat":
        return Mat(self.field, np.concatenate([self.a, other.a], axis=1))

    def vstack(self, other: "Mat") -> "Mat":
        return Mat(self.field, np.concatenate([self.a, other.a], axis=0))

    def submatrix(self, rows, cols) -> "Mat":
        return Mat(self.field, np.ascontiguousarray(
            self.a[np.ix_(list(rows), list(cols))]))

    def kron(self, other: "Mat") -> "Mat":
        blocks = self.field.mul_array(self.a[:, None, :, None],
                                      other.a[None, :, None, :])
        return Mat(self.field, blocks.reshape(self.rows * other.rows,
                                              self.cols * other.cols))

    def pow_(self, e: int) -> "Mat":
        if self.rows != self.cols:
            raise InputError("matrix power needs a square matrix")
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result @ base
            e >>= 1
            if e:
                base = base @ base
        if result is None:
            return Mat.identity(self.field, self.rows)
        return result

    # -- elimination --------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot_columns)."""
        F = self.field
        A = self.a.copy()
        pivots = []
        r = 0
        for col in range(self.cols):
            if r >= self.rows:
                break
            nz = A[r:, col].nonzero()[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                A[[r, i]] = A[[i, r]]
            piv = int(A[r, col])
            if piv != 1:
                A[r] = F.mul_array(A[r], F.inv(piv))
            mask = A[:, col] != 0
            mask[r] = False
            idx = mask.nonzero()[0]
            if idx.size:
                A[idx] = F.sub_array(
                    A[idx], F.mul_array(A[idx, col][:, None], A[r]))
            pivots.append(col)
            r += 1
        return Mat(F, A), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Mat":
        """Basis of the right kernel, as columns; deterministic."""
        F = self.field
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.cols) if j not in pivset]
        out = np.zeros((self.cols, len(free)), dtype=np.int64)
        out[free, range(len(free))] = 1
        out[pivots] = F.neg_array(R.a[:len(pivots)][:, free])
        return Mat(F, out)

    def solve(self, b: "Mat"):
        """Solve self @ X = b; returns X (free vars zero) or None."""
        if b.rows != self.rows:
            raise InputError("solve: right-hand side row mismatch")
        aug = self.hstack(b)
        R, pivots = aug.rref()
        for pc in pivots:
            if pc >= self.cols:
                return None  # pivot in the rhs block: inconsistent
        X = np.zeros((self.cols, b.cols), dtype=np.int64)
        X[pivots] = R.a[:len(pivots), self.cols:]
        return Mat(self.field, X)

    def inv(self):
        if self.rows != self.cols:
            raise InputError("inverse needs a square matrix")
        # A X = I is consistent only when the square A has full rank
        return self.solve(Mat.identity(self.field, self.rows))

    # -- characteristic polynomial -------------------------------------------

    def charpoly(self) -> Poly:
        """Characteristic polynomial det(xI - A) via Hessenberg reduction,
        on lists of encodings with the field's scalar ops."""
        if self.rows != self.cols:
            raise InputError("charpoly needs a square matrix")
        F = self.field
        add, sub, mul, neg = F.add, F.sub, F.mul, F.neg
        d = self.rows
        H = self.a.tolist()
        # reduce to upper Hessenberg by similarity
        for m in range(1, d - 1):
            pivot_row = next((i for i in range(m, d) if H[i][m - 1]), None)
            if pivot_row is None:
                continue
            if pivot_row != m:
                H[m], H[pivot_row] = H[pivot_row], H[m]
                for row in H:
                    row[m], row[pivot_row] = row[pivot_row], row[m]
            hm = H[m]
            inv_p = F.inv(hm[m - 1])
            for i in range(m + 1, d):
                if not H[i][m - 1]:
                    continue
                u = mul(H[i][m - 1], inv_p)
                H[i] = [sub(x, mul(u, y)) for x, y in zip(H[i], hm)]
                for row in H:
                    if row[i]:
                        row[m] = add(row[m], mul(u, row[i]))
        # charpolys of the leading minors, as coefficient lists low first:
        # p_m = (x - h_{m-1,m-1}) p_{m-1}
        #       - sum_i (h_{i,i-1} ... h_{m-1,m-2}) h_{i-1,m-1} p_{i-1}
        polys = [[1]]
        for m in range(1, d + 1):
            prev = polys[m - 1]
            h = neg(H[m - 1][m - 1])
            pm = ([mul(h, prev[0])]
                  + [add(prev[k - 1], mul(h, prev[k])) for k in range(1, m)]
                  + [1])
            prod = 1
            for i in range(m - 1, 0, -1):
                prod = mul(prod, H[i][i - 1])
                if not prod:
                    break  # every later term has this factor too
                c = mul(prod, H[i - 1][m - 1])
                if c:
                    for k, y in enumerate(polys[i - 1]):
                        pm[k] = sub(pm[k], mul(c, y))
            polys.append(pm)
        return Poly(F, polys[d])

    def eval_poly(self, f: Poly) -> "Mat":
        """f(self) by Horner."""
        F = self.field
        acc = Mat.zeros(F, self.rows, self.rows)
        for c in reversed(f.coeffs):
            acc = acc @ self
            if c:
                acc = acc + Mat.identity(F, self.rows).scale(c)
        return acc

    # -- field maps ------------------------------------------------------------

    def map_field(self, target: Field) -> "Mat":
        return Mat(target, self.field.embedding_into(target)[self.a])

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field})"


# -- exact integer solves -----------------------------------------------------


def smith_normal_form(A):
    """U A V = D with U, V unimodular and D diagonal with d_i | d_{i+1}.

    Plain integer row/column reduction; matrices here are tiny (one row and
    column per simple module)."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [list(r) for r in A]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, k):  # row_i -= k * row_j
        D[i] = [a - k * b for a, b in zip(D[i], D[j])]
        U[i] = [a - k * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, k):  # col_i -= k * col_j
        for r in range(rows):
            D[r][i] -= k * D[r][j]
        for r in range(cols):
            V[r][i] -= k * V[r][j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(rows, cols):
        # locate a nonzero entry of least absolute value in the rest
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] and (best is None
                                or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, rows):
            if D[i][t]:
                row_op(i, t, D[i][t] // D[t][t])
                if D[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if D[t][j]:
                col_op(j, t, D[t][j] // D[t][t])
                if D[t][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility sweep: pivot must divide everything below-right
        ok = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if D[i][j] % D[t][t]:
                    row_op(t, i, -1)  # pull the offending row up
                    ok = False
                    break
            if not ok:
                break
        if ok:
            if D[t][t] < 0:
                D[t] = [-x for x in D[t]]
                U[t] = [-x for x in U[t]]
            t += 1
    return U, D, V


def snf_inverse(snf) -> tuple[list[list[int]], int] | None:
    """(W, L) with W = L A^-1 an integer matrix, from the Smith normal form
    snf = (U, D, V), U A V = D, of a square integer matrix A; None when A
    is singular.  A^-1 = V D^-1 U, so W = V diag(L / D_ii) U for L the lcm
    of the D_ii.  Every system with A is then one product with W and one
    division by L."""
    U, D, V = snf
    s = len(D)
    if any(D[i][i] == 0 for i in range(s)):
        return None
    L = math.lcm(*(D[i][i] for i in range(s)))
    scaled = [[L // D[i][i] * u for u in U[i]] for i in range(s)]
    return (np.array(V, dtype=object).reshape(s, s)
            @ np.array(scaled, dtype=object).reshape(s, s)).tolist(), L
