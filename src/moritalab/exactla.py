"""Exact rational linear algebra on sparse matrices.

Everything is over the rationals: no floats, no tolerances. Subspaces are
kept in reduced row echelon form, which is unique, so two subspaces are
equal exactly when their stored bases are identical. Elimination runs on
primitive integer rows (denominators cleared, content divided out) and
only converts back to fractions when a canonical basis is emitted.

Products, sums, linear combinations, Subspace.contains, algebra products
and the bar composite check all run through one kernel, _accumulate,
which stores integral values as int. Four loops that map indices as they
go stay outside it (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

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


def _accumulate(acc: dict, coeffs: dict, table) -> dict:
    """acc += sum_k coeffs[k] * table[k] in place, table[k] a sparse vector;
    returns acc. Cancelled entries are dropped, integral values kept as int.

    Four loops map indices as they go, which this does not, and stay
    outside: _combine (elimination on primitive int rows), bar_complex's
    digit-offset add, _times_outer (the Kronecker index map) and
    binomial_span.
    """
    get = acc.get
    for k, a in coeffs.items():
        for c, w in table[k].items():
            y = get(c, 0) + a * w
            if y:
                acc[c] = y if type(y) is int or y.denominator != 1 else y.numerator
            elif c in acc:
                del acc[c]
    return acc


def vec_add(u: dict, v: dict) -> dict:
    """u + v; integral Fraction sums come out as int (see nrat)."""
    return _accumulate(dict(u), {0: 1}, (v,))


def vec_sub(u: dict, v: dict) -> dict:
    """u - v; integral Fraction differences come out as int (see nrat)."""
    return _accumulate(dict(u), {0: -1}, (v,))


def vec_scale(v: dict, c) -> dict:
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


def _out_of_bounds(r: int, c: int, m: "RationalMatrix") -> IndexError:
    return IndexError(f"entry ({r},{c}) out of bounds {m.rows}x{m.cols}")


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
                        raise _out_of_bounds(r, c, self)
                    self._rows[r][c] = v

    @classmethod
    def from_rows(cls, row_dicts, cols: int) -> "RationalMatrix":
        m = cls(len(row_dicts), cols)
        for r, row in enumerate(row_dicts):
            for c, v in row.items():
                v = nrat(v)
                if v:
                    if not 0 <= c < cols:
                        raise _out_of_bounds(r, c, m)
                    m._rows[r][c] = v
        return m

    @classmethod
    def from_cols(cls, col_dicts, rows: int) -> "RationalMatrix":
        m = cls(rows, len(col_dicts))
        for c, col in enumerate(col_dicts):
            for r, v in col.items():
                v = nrat(v)
                if v:
                    if not 0 <= r < rows:
                        raise _out_of_bounds(r, c, m)
                    m._rows[r][c] = v
        return m

    @staticmethod
    def _of_columns(col_dicts: list, rows: int) -> "RationalMatrix":
        """Matrix keeping col_dicts (nonzero in-range entries, never changed after)
        as its column view; rows are scattered only when read (see _ColumnBuilt)."""
        m = object.__new__(_ColumnBuilt)
        m.rows, m.cols, m._colcache = rows, len(col_dicts), col_dicts
        RationalMatrix._rows.__set__(m, None)
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        m = cls(n, n)
        for i in range(n):
            m._rows[i][i] = 1
        return m

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
        return _accumulate({}, vec, self._columns())

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        m = RationalMatrix(self.rows, other.cols)
        orows = other._rows
        for row, acc in zip(self._rows, m._rows):
            if row:
                _accumulate(acc, row, orows)
        return m

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._rowwise(vec_add, other)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._rowwise(vec_sub, other)

    def _rowwise(self, op, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        m = RationalMatrix(self.rows, self.cols)
        m._rows = list(map(op, self._rows, other._rows))
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
        return [[self._rows[r].get(c, 0) for c in range(self.cols)] for r in range(self.rows)]

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


class _ColumnBuilt(RationalMatrix):
    """Made by RationalMatrix._of_columns: the row slot stays None until _rows is
    first read, then keeps the rows scattered from the columns."""

    __slots__ = ()

    @property
    def _rows(self) -> list[dict]:
        rows = RationalMatrix._rows.__get__(self)
        if rows is None:
            rows = [{} for _ in range(self.rows)]
            for c, col in enumerate(self._colcache):
                for r, v in col.items():
                    rows[r][c] = v
            RationalMatrix._rows.__set__(self, rows)
        return rows

    def nnz(self) -> int:
        return sum(map(len, self._colcache))


def linear_combination(coeffs: dict, mats) -> RationalMatrix:
    """sum_s coeffs[s] * mats[s], all of one shape; a single term with
    coefficient 1 is the matrix mats[s] itself. The shape is read from the
    first matrix coeffs names (mats[0] when coeffs is empty), so the other
    entries of mats may be unset."""
    if len(coeffs) == 1:
        (s, c), = coeffs.items()
        if c == 1:
            return mats[s]
    shape = mats[next(iter(coeffs), 0)]
    out = RationalMatrix(shape.rows, shape.cols)
    for r, acc in enumerate(out._rows):
        _accumulate(acc, coeffs, {s: mats[s]._rows[r] for s in coeffs})
    return out


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


def _sparsest_first(row: dict) -> tuple[int, int]:
    """Sort key of the exact engine's insertion order (the mod-2 selector
    keeps index order): sparsest row first, earliest leading column as the
    tiebreak, a cheap Markowitz-flavored order against fill-in and growth."""
    return (len(row), min(row)) if row else (0, -1)


def _mod2_independent(rows, limit: int) -> list[int]:
    """Indices of at most limit rows whose primitive integer forms are
    independent mod 2, taken in index order.

    An integer dependency among primitive rows can be divided until some
    coefficient is odd; reduced mod 2 it is then a dependency there too.
    So rows independent mod 2 are independent over Q, and exact
    elimination of the chosen rows never reduces one to zero. Under
    2-torsion fewer than the rank may be found; the caller must then
    eliminate everything.

    Each primitive row is packed mod 2 into an int bitmask and reduced by
    XOR. A row is kept exactly when it is independent of the rows kept
    before it, so the pivot rule does not change the result. The highest
    set bit is the pivot: int.bit_length finds it in one step.

    The order only decides which rows are picked. Index order needs no
    sort over every row, and on b_3 of l1(B(2,C3)) it converts 4,789 of
    the 28,561 columns where sparsest-first converted 10,407.
    """
    pivots: dict[int, int] = {}
    picked: list[int] = []
    for i, row in enumerate(rows):
        if len(picked) >= limit:
            break
        m = 0
        for k, v in _int_row(row).items():
            if v & 1:
                m |= 1 << k
        while m:
            top = m.bit_length()
            p = pivots.get(top)
            if p is None:
                pivots[top] = m
                picked.append(i)
                break
            m ^= p
    return picked


def _forward_echelon(rows, stop_at: int | None = None, sources: list | None = None,
                     lead=min) -> dict:
    """Integer row echelon; returns {pivot column: primitive row}.

    Rows are inserted in _sparsest_first order; the span, and hence the
    canonical form computed from it, does not depend on the order.

    stop_at is a proven upper bound on the rank: elimination ends once
    that many pivots exist, since every remaining row could only reduce
    to zero. The result is then the same dict the unbounded call returns,
    because later rows never touch existing pivots. When sources is a
    list, the input index of each row that became a pivot is appended to
    it, in the order the pivots were found.

    lead picks each row's pivot column, min (leading) or max (trailing);
    see _echelon_insert. A row is kept exactly when it is independent of
    the rows kept before it, so the pivot count, the stop and sources do
    not depend on lead; only the stored echelon does, and RREF, kernels
    and representatives need the leading one.
    """
    pivots: dict[int, dict] = {}
    ints = [_int_row(r) for r in rows]
    # _int_row returns a fresh dict per input and ints keeps them all
    # alive, so their ids name input positions uniquely; sorting ints in
    # place, rather than a list of positions, keeps the peak memory down
    position = {id(r): i for i, r in enumerate(ints)} if sources is not None else None
    ints.sort(key=_sparsest_first)
    for row in ints:
        if len(pivots) == stop_at:
            break
        if _echelon_insert(pivots, row, lead) is not None and sources is not None:
            sources.append(position[id(row)])
    return pivots


def _echelon_insert(pivots: dict, row: dict, lead=min) -> int | None:
    """Reduce one primitive integer row (see _int_row) against an echelon
    in place.

    Each step cancels the row's pivot column lead(row); the echelon must
    have been built with the same rule. Returns the new pivot column if
    the row was independent, else None.

    Either rule reduces the row exactly, so which rows are independent
    does not change; fill-in does. Rows sorted by _sparsest_first lead
    with low columns, and cancelling those first spreads each combination
    over the rest of the row; cancelling the highest column first, as
    _mod2_independent does, keeps the rows apart (see homology).
    """
    while row:
        c = lead(row)
        p = pivots.get(c)
        if p is None:
            pivots[c] = row
            return c
        row = _combine(row, p, c)
    return None


def _rref_rows(rows) -> list[tuple[int, dict]]:
    """Full reduced row echelon form.

    Returns [(pivot column, row dict with Fraction values)] sorted by pivot
    column; each pivot entry is 1 and is the only nonzero in its column.
    """
    pivots = _forward_echelon(rows)
    cols = sorted(pivots)
    # Back-substitution clears pivot columns from the largest down. When
    # pivot c is cleared, row c already holds no other pivot column, so
    # combining with it only fills non-pivot columns: the rows holding
    # pivot column c are exactly those holding it in the forward echelon,
    # and can be listed once, column by column, before any combining.
    holders: dict[int, list[int]] = {c: [] for c in cols}
    for c2 in cols:
        for k in pivots[c2]:
            if k != c2 and k in holders:
                holders[k].append(c2)
    for c in reversed(cols):
        p = pivots[c]
        for c2 in holders[c]:
            pivots[c2] = _combine(pivots[c2], p, c)
    out = []
    for c in cols:
        p = pivots[c]
        lead = p[c]
        out.append((c, {k: nrat(Fraction(v, lead)) for k, v in p.items()}))
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
        return not _accumulate(res, {c: -x for c, x in vec.items() if c in piv}, piv)

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


def _ratio(x, y):
    """x / y exactly; integral values as int (see nrat)."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return q if not r else Fraction(x, y)
    return nrat(Fraction(x) / y)


def binomial_span(ambient_dim: int, relations) -> Subspace:
    """Span of relations a e_i + b e_j, each given as (i, a, j, b) or as
    the one-term (i, a); i == j and zero coefficients are allowed. Equal
    to Subspace.from_spanning of the same vectors, in near-linear time.

    A weighted union-find keeps e_x = w_x e_root modulo the span, with
    exact weights and path compression; a relation joins two components,
    or, inside one, is c e_root with c = a w_i + b w_j, and c != 0 kills
    the component (e_root, so every member, lies in the span). Each
    member c of a killed component gives the row e_c. A surviving
    component c_1 < ... < c_k gives e_(c_i) - (w_i / w_k) e_(c_k) for
    i < k: k - 1 independent vectors of the span, which meets the
    component in dimension k - 1 (the relations there are orthogonal to
    (w_c)). No pivot column c_i appears in another row and no row holds a
    pivot beside its own, so the rows sorted by pivot are the unique RREF.
    """
    parent = list(range(ambient_dim))
    weight = [1] * ambient_dim
    size = [1] * ambient_dim
    dead = [False] * ambient_dim

    def find(x):  # x is not a root; a path of one step needs no compression
        r = parent[x]
        if parent[r] == r:
            return r
        path, x = [x], r
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        acc = 1
        for y in reversed(path):
            acc = weight[y] * acc
            weight[y] = acc
            parent[y] = x
        return x

    for rel in relations:
        if len(rel) == 2:
            i, a = rel
            j, b = i, 0
        else:
            i, a, j, b = rel
        if not a:
            i, a, b = j, b, 0
        if not a:
            continue
        ri = i if parent[i] == i else find(i)
        if not b:
            dead[ri] = True
            continue
        rj = j if parent[j] == j else find(j)
        # a root's weight is 1, and stays so until it is hung below another
        ai = a * weight[i]
        bj = b * weight[j]
        if ri == rj:
            if ai + bj:
                dead[ri] = True
            continue
        # ai e_ri + bj e_rj is in the span: hang the smaller root below
        if size[ri] > size[rj]:
            ri, rj, ai, bj = rj, ri, bj, ai
        parent[ri] = rj
        unit = type(ai) is int and type(bj) is int and (ai == 1 or ai == -1)  # 1/ai == ai
        weight[ri] = -bj * ai if unit else _ratio(-bj, ai)
        size[rj] += size[ri]
        dead[rj] = dead[rj] or dead[ri]

    members: dict[int, list[int]] = {}
    for x in range(ambient_dim):
        members.setdefault(x if parent[x] == x else find(x), []).append(x)
    rows = []
    for root, comp in members.items():
        if dead[root]:
            rows.extend((c, {c: 1}) for c in comp)
            continue
        last = comp[-1]
        for c in comp[:-1]:
            rows.append((c, {c: 1, last: _ratio(-weight[c], weight[last])}))
    rows.sort(key=lambda t: t[0])
    basis = RationalMatrix(len(rows), ambient_dim)
    basis._rows = [row for _, row in rows]
    return Subspace(ambient_dim, basis)


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
        return rank(self.matrix)

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


def _kernel_vectors(f: LinearMap):
    """Nullspace basis vectors of f, one per non-pivot column of its RREF,
    yielded lazily."""
    rr = _rref_rows(f.matrix._rows)
    pivot_set = {c for c, _ in rr}
    for free in range(f.source_dim):
        if free in pivot_set:
            continue
        v = {free: 1}
        for c, row in rr:
            x = row.get(free)
            if x:
                v[c] = -x
        yield v


def kernel(f: LinearMap) -> Subspace:
    """Canonical basis of {x : f(x) = 0}."""
    return Subspace.from_spanning(f.source_dim, _kernel_vectors(f))


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
    """proj and section of a quotient; free maps each free (non-pivot)
    column of the subspace's canonical basis to its quotient coordinate
    (determined by section, so left out of comparison and hashing)."""

    proj: LinearMap
    section: LinearMap
    dim: int
    free: dict = field(compare=False)


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
        free=pos,
    )


def subspace_equal(a: Subspace, b: Subspace) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return a == b


def l1_operator_norm(f: LinearMap):
    """Operator norm for the l1 norms attached to the two standard bases.

    Equals the max over columns of the column's absolute value sum; an
    integral norm is a plain int (see nrat).
    """
    best = 0
    sums: dict = {}
    for _, c, v in f.matrix.entries():
        sums[c] = sums.get(c, 0) + abs(v)
    for s in sums.values():
        if s > best:
            best = s
    return nrat(best)


def kronecker(f: LinearMap, g: LinearMap) -> LinearMap:
    """Matrix of f tensor g in the lexicographic product bases."""
    m = RationalMatrix(f.target_dim * g.target_dim, f.source_dim * g.source_dim)
    gt, gs = g.target_dim, g.source_dim
    g_entries = list(g.matrix.entries())
    for r1, c1, v1 in f.matrix.entries():
        for r2, c2, v2 in g_entries:
            m._rows[r1 * gt + r2][c1 * gs + c2] = v1 * v2
    return LinearMap(f.source_dim * g.source_dim, f.target_dim * g.target_dim, m)


def _times_outer(a: RationalMatrix, m: RationalMatrix, side: str, n: int) -> RationalMatrix:
    """a @ (m (x) 1_n) (side "left") or a @ (1_n (x) m) (side "right") for a
    square m of size d, row by row, never forming the Kronecker matrix:
    m (x) 1_n holds m_xx' at (x n + y, x' n + y), 1_n (x) m holds m_yy' at
    (x d + y, x d + y'). Integral entries come out as int (see nrat)."""
    d = m.rows
    if m.cols != d or a.cols != d * n:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} @ ({m.rows}x{m.cols} (x) {n})")
    mrows, left, out = m._rows, side == "left", []
    for row in a._rows:
        acc: dict = {}
        for k, v in row.items():
            if left:
                x, y = divmod(k, n)
                for x2, w in mrows[x].items():
                    c = x2 * n + y
                    acc[c] = acc.get(c, 0) + v * w
            else:
                y = k % d
                for y2, w in mrows[y].items():
                    c = k - y + y2
                    acc[c] = acc.get(c, 0) + v * w
        out.append(acc)
    return RationalMatrix.from_rows(out, a.cols)
