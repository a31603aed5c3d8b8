"""Exact rational linear algebra on sparse matrices.

Everything is over the rationals: no floats, no tolerances. Subspaces are
kept in reduced row echelon form, which is unique, so two subspaces are
equal exactly when their stored bases are identical. Elimination runs on
primitive integer rows (denominators cleared, content divided out) and
only converts back to fractions when a canonical basis is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

QQ = Fraction

# Sparse vectors are plain dicts index -> nonzero value (Fraction or int).


def nrat(v):
    """Normalize an exact scalar: integral values become plain int.

    int and Fraction mix transparently under arithmetic and equality;
    keeping integral values as int avoids most Fraction overhead in the
    hot paths while staying exact.
    """
    if isinstance(v, int):
        return v
    f = Fraction(v)
    return f.numerator if f.denominator == 1 else f


def vec_add(u: dict, v: dict) -> dict:
    out = dict(u)
    for k, x in v.items():
        y = out.get(k, 0) + x
        if y:
            out[k] = y
        elif k in out:
            del out[k]
    return out


def vec_sub(u: dict, v: dict) -> dict:
    out = dict(u)
    for k, x in v.items():
        y = out.get(k, 0) - x
        if y:
            out[k] = y
        elif k in out:
            del out[k]
    return out


def vec_scale(v: dict, c) -> dict:
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


class RationalMatrix:
    """Sparse matrix with exact rational entries; zeros are never stored."""

    __slots__ = ("rows", "cols", "_rows", "_colcache")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self._rows: list[dict] = [{} for _ in range(rows)]
        self._colcache = None
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (r, c), v in items:
                v = nrat(v)
                if v:
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise IndexError(f"entry ({r},{c}) out of bounds {rows}x{cols}")
                    self._rows[r][c] = v

    @classmethod
    def from_rows(cls, row_dicts, cols: int) -> "RationalMatrix":
        m = cls(len(row_dicts), cols)
        for r, row in enumerate(row_dicts):
            for c, v in row.items():
                v = nrat(v)
                if v:
                    m._rows[r][c] = v
        return m

    @classmethod
    def from_cols(cls, col_dicts, rows: int) -> "RationalMatrix":
        m = cls(rows, len(col_dicts))
        for c, col in enumerate(col_dicts):
            for r, v in col.items():
                v = nrat(v)
                if v:
                    m._rows[r][c] = v
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        m = cls(n, n)
        for i in range(n):
            m._rows[i][i] = 1
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    def row(self, r: int) -> dict:
        return dict(self._rows[r])

    def col(self, c: int) -> dict:
        return dict(self._columns()[c])

    def _columns(self) -> list:
        """Internal column view; treat the returned dicts as read-only."""
        if self._colcache is None:
            cache = [{} for _ in range(self.cols)]
            for r, row in enumerate(self._rows):
                for j, v in row.items():
                    cache[j][r] = v
            self._colcache = cache
        return self._colcache

    def entry(self, r: int, c: int):
        return self._rows[r].get(c, 0)

    def entries(self):
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                yield r, c, v

    def nnz(self) -> int:
        return sum(len(row) for row in self._rows)

    def transpose(self) -> "RationalMatrix":
        m = RationalMatrix(self.cols, self.rows)
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                m._rows[c][r] = v
        return m

    def apply(self, vec: dict) -> dict:
        """Matrix times sparse column vector."""
        out: dict = {}
        cache = self._columns()
        for j, x in vec.items():
            if not x:
                continue
            for r, v in cache[j].items():
                y = out.get(r, 0) + v * x
                if y:
                    out[r] = y
                elif r in out:
                    del out[r]
        return out

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        m = RationalMatrix(self.rows, other.cols)
        orows = other._rows
        for r, row in enumerate(self._rows):
            acc = m._rows[r]
            for k, v in row.items():
                for c, w in orows[k].items():
                    y = acc.get(c, 0) + v * w
                    if y:
                        acc[c] = y
                    elif c in acc:
                        del acc[c]
        return m

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        m = RationalMatrix(self.rows, self.cols)
        for r in range(self.rows):
            m._rows[r] = vec_add(self._rows[r], other._rows[r])
        return m

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        m = RationalMatrix(self.rows, self.cols)
        for r in range(self.rows):
            m._rows[r] = vec_sub(self._rows[r], other._rows[r])
        return m

    def scale(self, c) -> "RationalMatrix":
        c = nrat(c)
        m = RationalMatrix(self.rows, self.cols)
        if c:
            for r in range(self.rows):
                m._rows[r] = {j: c * v for j, v in self._rows[r].items()}
        return m

    def is_zero(self) -> bool:
        return all(not row for row in self._rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols, sum(map(len, self._rows))))

    def to_dense(self):
        return [[self._rows[r].get(c, QQ(0)) for c in range(self.cols)] for r in range(self.rows)]

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# Elimination engine. Rows are primitive integer dicts during elimination;
# canonical output is normalized back to fractions at the very end.


def _int_row(row: dict) -> dict:
    """Clear denominators and divide out the content."""
    if not row:
        return {}
    # type(v) is int is an exact-type test; isinstance(v, Fraction) would
    # go through the numbers.Rational ABC machinery on every entry
    den = 1
    for v in row.values():
        if type(v) is not int:
            d = v.denominator
            den = den * d // gcd(den, d)
    out = {}
    g = 0
    for k, v in row.items():
        w = v * den if type(v) is int else int(v * den)
        if w:
            out[k] = w
            g = gcd(g, w)
    if g > 1:
        for k in out:
            out[k] //= g
    return out


_BIG = 1 << 48


def _combine(r: dict, p: dict, c: int) -> dict:
    """Return p[c]*r - r[c]*p up to content; the entry at column c cancels.

    The content division only controls coefficient growth (int arithmetic
    is exact at any size), so it runs just when values actually grew.
    """
    a = r[c]
    b = p[c]
    g0 = gcd(a, b)
    mb = b // g0
    ma = a // g0
    big = False
    if mb == 1:
        out = dict(r)
    elif mb == -1:
        out = {k: -v for k, v in r.items()}
    else:
        out = {}
        for k, v in r.items():
            w = mb * v
            out[k] = w
            if w > _BIG or -w > _BIG:
                big = True
    for k, v in p.items():
        y = out.get(k, 0) - ma * v
        if y:
            out[k] = y
            if y > _BIG or -y > _BIG:
                big = True
        elif k in out:
            del out[k]
    if big and out:
        g = 0
        for v in out.values():
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            for k in out:
                out[k] //= g
    return out


def _forward_echelon(rows, stop_at: int | None = None, sources: list | None = None) -> dict:
    """Integer row echelon; returns {pivot column: primitive row}.

    Rows are inserted sparsest first with earliest leading column as the
    tiebreak (a cheap Markowitz-flavored ordering that keeps fill-in and
    coefficient growth down); the span, and hence the canonical form
    computed from it, does not depend on the order.

    stop_at is a proven upper bound on the rank: elimination ends once
    that many pivots exist, since every remaining row could only reduce
    to zero. The result is then the same dict the unbounded call returns,
    because later rows never touch existing pivots. When sources is a
    list, the input index of each row that became a pivot is appended to
    it, in the order the pivots were found.
    """
    pivots: dict[int, dict] = {}
    ints = [_int_row(r) for r in rows]
    # _int_row returns a fresh dict per input and ints keeps them all
    # alive, so their ids name input positions uniquely; sorting ints in
    # place, rather than a list of positions, keeps the peak memory down
    position = {id(r): i for i, r in enumerate(ints)} if sources is not None else None
    ints.sort(key=lambda d: (len(d), min(d)) if d else (0, -1))
    for row in ints:
        if len(pivots) == stop_at:
            break
        r = row
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                if sources is not None:
                    sources.append(position[id(row)])
                break
            r = _combine(r, p, c)
    return pivots


def _echelon_insert(pivots: dict, row: dict) -> int | None:
    """Reduce one primitive integer row against an echelon in place.

    Returns the new pivot column if the row was independent, else None.
    """
    r = _int_row(row)
    while r:
        c = min(r)
        p = pivots.get(c)
        if p is None:
            pivots[c] = r
            return c
        r = _combine(r, p, c)
    return None


def _rref_rows(rows) -> list[tuple[int, dict]]:
    """Full reduced row echelon form.

    Returns [(pivot column, row dict with Fraction values)] sorted by pivot
    column; each pivot entry is 1 and is the only nonzero in its column.
    """
    pivots = _forward_echelon(rows)
    cols = sorted(pivots)
    for c in reversed(cols):
        p = pivots[c]
        for c2 in cols:
            if c2 != c and c in pivots[c2]:
                pivots[c2] = _combine(pivots[c2], p, c)
    out = []
    for c in cols:
        p = pivots[c]
        lead = p[c]
        out.append((c, {k: nrat(QQ(v, lead)) for k, v in p.items()}))
    return out


class Subspace:
    """A linear subspace stored via its unique RREF basis (one row each)."""

    __slots__ = ("ambient_dim", "basis", "_pivot_rows")

    def __init__(self, ambient_dim: int, basis: RationalMatrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width does not match ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivot_rows = None

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors) -> "Subspace":
        rr = _rref_rows(vectors)
        return cls(ambient_dim, RationalMatrix.from_rows([row for _, row in rr], ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RationalMatrix(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RationalMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivot_columns(self) -> list[int]:
        return [min(self.basis._rows[r]) for r in range(self.basis.rows)]

    def contains(self, vec: dict) -> bool:
        """Whether vec lies in the subspace.

        The basis is a full RREF: row c has a 1 at its pivot column c and
        every other row is 0 there. So the only combination of basis rows
        that can equal vec is sum over pivots c of vec[c] * row_c, and vec
        is contained exactly when that one-pass residual is zero.
        """
        if self._pivot_rows is None:
            self._pivot_rows = {min(row): row for row in self.basis._rows}
        piv = self._pivot_rows
        res = {k: x for k, x in vec.items() if x}
        for c, x in vec.items():
            row = piv.get(c)
            if row is None or not x:
                continue
            for k, w in row.items():
                y = res.get(k, 0) - x * w
                if y:
                    res[k] = y
                elif k in res:
                    del res[k]
        return not res

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.dim))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


class LinearMap:
    """A linear map given by its matrix; columns are indexed by the source basis."""

    __slots__ = ("source_dim", "target_dim", "matrix")

    def __init__(self, source_dim: int, target_dim: int, matrix: RationalMatrix):
        if matrix.rows != target_dim or matrix.cols != source_dim:
            raise ValueError(
                f"matrix is {matrix.rows}x{matrix.cols}, expected {target_dim}x{source_dim}"
            )
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.matrix = matrix

    @classmethod
    def from_cols(cls, col_dicts, target_dim: int) -> "LinearMap":
        return cls(len(col_dicts), target_dim, RationalMatrix.from_cols(col_dicts, target_dim))

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(n, n, RationalMatrix.identity(n))

    @classmethod
    def zero(cls, source_dim: int, target_dim: int) -> "LinearMap":
        return cls(source_dim, target_dim, RationalMatrix(target_dim, source_dim))

    def apply(self, vec: dict) -> dict:
        return self.matrix.apply(vec)

    def col(self, j: int) -> dict:
        return self.matrix.col(j)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.target_dim != self.source_dim:
            raise ValueError("composition dimension mismatch")
        return LinearMap(other.source_dim, self.target_dim, self.matrix @ other.matrix)

    def rank(self) -> int:
        return len(_forward_echelon(self.matrix._rows))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearMap)
            and self.source_dim == other.source_dim
            and self.target_dim == other.target_dim
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.source_dim, self.target_dim))

    def __repr__(self):
        return f"LinearMap({self.source_dim} -> {self.target_dim})"


def rref(m: RationalMatrix) -> tuple[RationalMatrix, int]:
    """Unique reduced row echelon form of m, together with its rank."""
    rr = _rref_rows(m._rows)
    out = RationalMatrix(m.rows, m.cols)
    for i, (_, row) in enumerate(rr):
        out._rows[i] = dict(row)
    return out, len(rr)


def rank(m: RationalMatrix) -> int:
    return len(_forward_echelon(m._rows))


def kernel(f: LinearMap) -> Subspace:
    """Canonical basis of {x : f(x) = 0}."""
    rr = _rref_rows(f.matrix._rows)
    pivot_set = {c for c, _ in rr}
    vectors = []
    for free in range(f.source_dim):
        if free in pivot_set:
            continue
        v = {free: 1}
        for c, row in rr:
            a = row.get(free)
            if a:
                v[c] = -a
        vectors.append(v)
    return Subspace.from_spanning(f.source_dim, vectors)


def image(f: LinearMap) -> Subspace:
    """Column space of f in canonical form."""
    cols = [f.matrix.col(j) for j in range(f.source_dim)]
    return Subspace.from_spanning(f.target_dim, cols)


def solve(f: LinearMap, target) -> dict | None:
    """One exact solution of f(x) = target, or None when inconsistent.

    Free coordinates are set to zero. target may be a sparse dict or a
    dense sequence of length target_dim.
    """
    if not isinstance(target, dict):
        if len(target) != f.target_dim:
            raise ValueError("target length does not match target dimension")
        target = {i: nrat(v) for i, v in enumerate(target) if v}
    aug = f.source_dim
    rows = []
    for r in range(f.target_dim):
        row = f.matrix.row(r)
        t = target.get(r)
        if t:
            row[aug] = t
        if row:
            rows.append(row)
    rr = _rref_rows(rows)
    x: dict = {}
    for c, row in rr:
        if c == aug:
            return None
        t = row.get(aug)
        if t:
            x[c] = t
    return x


def inverse(f: LinearMap) -> LinearMap | None:
    """Exact two-sided inverse, or None when f is not bijective."""
    if f.source_dim != f.target_dim:
        return None
    n = f.source_dim
    rows = []
    for r in range(n):
        row = f.matrix.row(r)
        row[n + r] = 1
        rows.append(row)
    rr = _rref_rows(rows)
    if len(rr) != n or any(c >= n for c, _ in rr):
        return None
    inv = RationalMatrix(n, n)
    for c, row in rr:
        inv._rows[c] = {k - n: v for k, v in row.items() if k >= n}
    return LinearMap(n, n, inv)


@dataclass(frozen=True)
class QuotientMaps:
    proj: LinearMap
    section: LinearMap
    dim: int


def quotient(ambient_dim: int, n: Subspace) -> QuotientMaps:
    """Projection onto the quotient by n, with a right-inverse section.

    Quotient coordinates are the non-pivot columns of n's canonical basis;
    proj has kernel exactly n and proj(section(x)) = x.
    """
    if n.ambient_dim != ambient_dim:
        raise ValueError("subspace ambient dimension mismatch")
    pivot_set = set(n.pivot_columns())
    free = [j for j in range(ambient_dim) if j not in pivot_set]
    pos = {j: t for t, j in enumerate(free)}
    qdim = len(free)
    proj = RationalMatrix(qdim, ambient_dim)
    for t, j in enumerate(free):
        proj._rows[t][j] = 1
    for r in range(n.basis.rows):
        row = n.basis._rows[r]
        c = min(row)
        for j, v in row.items():
            if j != c:
                proj._rows[pos[j]][c] = -v
    section = RationalMatrix(ambient_dim, qdim)
    for t, j in enumerate(free):
        section._rows[j][t] = 1
    return QuotientMaps(
        proj=LinearMap(ambient_dim, qdim, proj),
        section=LinearMap(qdim, ambient_dim, section),
        dim=qdim,
    )


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return a == b


def l1_operator_norm(f: LinearMap) -> Fraction:
    """Operator norm for the l1 norms attached to the two standard bases.

    Equals the max over columns of the column's absolute value sum.
    """
    best = 0
    sums: dict = {}
    for _, c, v in f.matrix.entries():
        sums[c] = sums.get(c, 0) + abs(v)
    for s in sums.values():
        if s > best:
            best = s
    return QQ(best)


def kronecker(f: LinearMap, g: LinearMap) -> LinearMap:
    """Matrix of f tensor g in the lexicographic product bases."""
    m = RationalMatrix(f.target_dim * g.target_dim, f.source_dim * g.source_dim)
    gt, gs = g.target_dim, g.source_dim
    for r1, c1, v1 in f.matrix.entries():
        for r2, c2, v2 in g.matrix.entries():
            m._rows[r1 * gt + r2][c1 * gs + c2] = v1 * v2
    return LinearMap(f.source_dim * g.source_dim, f.target_dim * g.target_dim, m)
