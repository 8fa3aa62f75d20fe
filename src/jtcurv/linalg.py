"""Small exact linear algebra layer: dense matrices over Fraction (or float),
symmetric bilinear forms with congruence-based signature computation, and
the sparse coordinate tensors the plane-wave layer returns.

Everything here is pure; matrices are plain lists of lists and are never
mutated after construction by the public helpers.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import as_divisor, close, is_exact


class DegenerateFormError(ValueError):
    """Raised when an operation requires a nondegenerate bilinear form."""


class SingularMatrixError(ValueError):
    """Raised when a matrix inverse/solve hits a singular matrix."""


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    out = [[Fraction(0)] * p for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        row = out[i]
        for k in range(m):
            a = Ai[k]
            if a == 0:
                continue
            Bk = B[k]
            for j in range(p):
                b = Bk[j]
                if b != 0:
                    row[j] += a * b
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def _pivot_ok(x):
    return (x != 0) if is_exact(x) else abs(x) > 1e-12


def _pivot_row(M, col, start):
    """Pivot row for column col among rows start..: the first nonzero entry
    when the column is exact; once it holds a float, the entry largest in
    absolute value (partial pivoting), which bounds the growth of rounding
    errors."""
    rows = range(start, len(M))
    if any(isinstance(M[r][col], float) for r in rows):
        piv = max(rows, key=lambda r: abs(M[r][col]))
        return piv if _pivot_ok(M[piv][col]) else None
    return next((r for r in rows if M[r][col] != 0), None)


def rref(A):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    M = [list(row) for row in A]
    if not M:
        return [], []
    rows, cols = len(M), len(M[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = _pivot_row(M, c, r)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        p = as_divisor(M[r][c])
        M[r] = [x / p for x in M[r]]
        for rr in range(rows):
            if rr != r and M[rr][c] != 0:
                f = M[rr][c]
                M[rr] = [x - f * y for x, y in zip(M[rr], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M[:r] + [[Fraction(0)] * cols for _ in range(rows - r)], pivots


def mat_inv(A):
    """Gauss-Jordan inverse: the rref of [A | I]; exact for Fraction entries."""
    n = len(A)
    R, pivots = rref([list(row) + e for row, e in zip(A, identity(n))])
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in R]


def rank(A):
    return len(rref(A)[1])


def row_space_basis(vectors):
    """Exact row-reduced basis of the span of the given vectors."""
    if not vectors:
        return []
    R, pivots = rref([list(v) for v in vectors])
    return [tuple(R[i]) for i in range(len(pivots))]


def nullspace_basis(A):
    """Exact basis for the right nullspace of A."""
    R, pivots = rref(A)
    cols = len(A[0]) if A else 0
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(tuple(v))
    return basis


def solve(A, b):
    """One exact solution of A x = b (possibly underdetermined).

    Raises SingularMatrixError when the system is inconsistent.
    """
    rows = [list(ra) + [bb] for ra, bb in zip(A, b)]
    R, pivots = rref(rows)
    cols = len(A[0]) if A else 0
    if cols in pivots:
        raise SingularMatrixError("inconsistent linear system")
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = R[r][cols]
    return tuple(x)


class BilinearForm:
    """A symmetric bilinear form given by its Gram matrix."""

    def __init__(self, entries):
        self.n = len(entries)
        self.entries = [list(row) for row in entries]
        if any(len(row) != self.n for row in self.entries):
            raise ValueError("bilinear form matrix must be square")
        for i in range(self.n):
            for j in range(i):
                if not close(self.entries[i][j], self.entries[j][i]):
                    raise ValueError("bilinear form matrix must be symmetric")
        #: the inverse matrix, left to its first reader to fill (see
        #: planewave.PlaneWaveMetric.cinv), so every holder of this form shares it
        self.inv = None

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def apply(self, u, v):
        s = 0
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            row = self.entries[i]
            for j, vj in enumerate(v):
                if vj != 0 and row[j] != 0:
                    s += ui * row[j] * vj
        return s

    def scale(self, u, v):
        """sum |u_i g_ij v_j|: the size of the terms apply(u, v) adds up."""
        return sum(abs(ui * gij * vj) for ui, row in zip(u, self.entries)
                   for gij, vj in zip(row, v))

    def signature(self):
        """(p, q) = (negative, positive) inertia via symmetric congruence.

        Exact Gaussian congruence reduction: no eigenvalue iteration.
        """
        M = [list(row) for row in self.entries]
        n = self.n
        p = q = 0
        for k in range(n):
            if not _pivot_ok(M[k][k]):
                # search a later diagonal pivot
                swap = next((r for r in range(k + 1, n) if _pivot_ok(M[r][r])), None)
                if swap is not None:
                    for r in range(n):
                        M[r][k], M[r][swap] = M[r][swap], M[r][k]
                    M[k], M[swap] = M[swap], M[k]
                else:
                    # fully isotropic diagonal: fold an off-diagonal entry in
                    off = next((c for c in range(k + 1, n) if _pivot_ok(M[k][c])), None)
                    if off is None:
                        raise DegenerateFormError("degenerate bilinear form")
                    for r in range(n):
                        M[r][k] = M[r][k] + M[r][off]
                    for c in range(n):
                        M[k][c] = M[k][c] + M[off][c]
            piv = as_divisor(M[k][k])
            if piv < 0:
                p += 1
            else:
                q += 1
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    f = M[r][k] / piv
                    for c in range(n):
                        M[r][c] -= f * M[k][c]
                    for c in range(n):
                        M[c][r] -= f * M[c][k]
        return (p, q)

    def inverse(self):
        try:
            return BilinearForm(mat_inv(self.entries))
        except SingularMatrixError as e:
            raise DegenerateFormError(str(e)) from e

    def __eq__(self, other):
        return isinstance(other, BilinearForm) and self.entries == other.entries

    def __repr__(self):
        return f"BilinearForm({self.entries!r})"


class CoordTensor:
    """Sparse tensor of coordinate components at a point.

    valence (r, s): r tensor slots plus s covariant-derivative slots; comps
    maps full index tuples of length r+s to values, zeros omitted.
    """

    def __init__(self, n, valence, comps=None):
        self.n = n
        self.valence = valence
        self.comps = dict(comps or {})

    def value(self, *idx):
        if len(idx) != sum(self.valence):
            raise ValueError("index arity does not match valence")
        return self.comps.get(tuple(idx), Fraction(0))

    def items(self):
        return self.comps.items()

    def is_zero(self):
        return all(close(v, 0) for v in self.comps.values())

    def max_abs(self):
        return max((abs(v) for v in self.comps.values()), default=Fraction(0))
