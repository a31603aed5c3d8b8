"""Hochschild homology and cohomology via the full bar complex.

The chain space in degree n is the coefficient module tensored with n
copies of the algebra. Its basis element x (x) a_1 (x) ... (x) a_n sits at
the index whose base-d digits (d = dim A) are a_1 .. a_n below x. Column
c of b_n is built from column c // d of b_{n-1}: its faces d_0 .. d_{n-2}
are those there with a_n = c % d appended, d_{n-1} splices a_{n-1} a_n
after the head (x.a_1 when n = 1), and d_n = a_n.x keeps the middle
digits. The faces alternate in sign. Only the partial sums d_0 + .. +
d_{n-1} of the degree below are kept. b_1 .. b_{top-1} are held as the
columns built. b_top, dim A times larger than b_{top-1}, is not stored:
it is held as a stream that builds its columns afresh, in index order,
from the partials of b_{top-1}. Rows are scattered from the columns only
when first read (see ChainComplex).

Homology and cohomology with dual coefficients mirror each other. H_n
takes its cycles from the kernel of b_n and its boundaries from the
column echelon of b_{n+1}; H^n takes its cocycles from the kernel of
b_{n+1}T and its coboundaries from the row echelon of b_n. The row path
eliminates independently of the column path, so the finite-dimensional
duality betti(H^n) = betti(H_n) is a built-in cross-check rather than an
assumption.

Ranks are certified by two bounds that must meet. The pivots found so
far are independent, so their count is a lower bound on rank b_n. As
b_{n-1} b_n = 0 is verified exactly, column by column, when the complex
is built, rank b_n is at most dim C_{n-1} - rank b_{n-1}; each path takes
that lower rank from its own elimination. An elimination ends as soon as
its pivot count reaches the upper bound (certificate "bound"); otherwise
it runs over every column or row ("exhaustive"). The bound is met exactly
when the homology one degree down vanishes, so non-vanishing degrees are
always eliminated to the end, and only such echelons feed representatives.

The composite check multiplies out every entry of b_{n-1} b_n, on
columns of b_{n-1} packed into one int each, with fixed-width digits
(Kronecker substitution), so a column v of b_n costs one big-int
multiply-add per nonzero. Row r of b_{n-1} is scaled by the lcm D_r of
its denominators: that makes it integral and scales entry r of
b_{n-1} v by D_r != 0, so no zero test changes (scaling a column of
b_{n-1} would change the combination). With E the largest scaled entry
in size and W the least width with 2^(W-1) > L E, column k is packed
as P_k = sum_r D_r b_rk 2^(W r), with signed digits. For an integral v
with sum_k |v_k| <= L, s = sum_k v_k P_k = sum_r c_r 2^(W r), where
c_r = D_r (b_{n-1} v)_r and |c_r| <= L E < 2^(W-1). If c_r is the
lowest nonzero digit, then s = 2^(W r) (c_r + 2^W t) for an integer t,
and 0 < |c_r| < 2^W, so s != 0: s == 0 exactly when b_{n-1} v = 0. The
bound needs integral digits (at W = 3, 1 - (1/8) 8 = 0), so a v holding
a Fraction is replaced by its primitive integer form, a nonzero multiple
of v. L starts at n + 1, the l1 norm of n + 1 monomial faces; a v whose
l1 norm passes L has the columns packed again at a larger L, so W only
grows and no entry is skipped.

The column path first chooses, by XOR on bitmasks and in index order,
columns whose primitive integer forms are independent mod 2, up to the
bound, in the construction pass that checks b_{n-1} b_n = 0; only the
chosen columns are kept. They are independent over Q too: an integer
dependency divided by its content has an odd coefficient, so it
survives reduction mod 2. Exact elimination of the chosen columns
therefore never reduces one to zero; when there are as many as the
bound, it proves the rank ("bound"). Under 2-torsion fewer may be found,
or a faulty choice may fall short exactly; then the same echelon goes
on with the other columns, streamed afresh in index order, until the
bound or the last column. No rank rests on mod-2 arithmetic: it only
decides which columns the exact elimination sees first.

Every echelon the complex stores pivots on its highest index, as the
mod-2 selector does; the rule decides only fill-in, since under any rule
a vector reaches zero exactly when it lies in the span of those before it.

The row path first eliminates the rows of b_n restricted to the columns
behind the column pivots; only their count is used. That submatrix's
rank is a lower bound on rank b_n whatever the columns are, so a wrong
column set can only fail to reach the upper bound, never give a wrong
rank. When it fails, the full rows are eliminated. Either way the row
rank rests on the row path's own exact elimination of the boundary
entries.

The derivation and diagonal systems are whole-matrix identities in the
multiplication matrices L_p (x -> e_p x) and R_p (x -> x e_p). Flatten
a map D: A -> E as (D(e_p))_p; the Leibniz rule at (p, q) is the block
c^{pq}T (x) 1 - e_qT (x) L_p - e_pT (x) R_q of E's actions, and the inner
derivations are the columns of the L_p - R_p stacked. A diagonal
m = sum M_pq e_p (x) e_q solves L_t (x) 1 - 1 (x) R_t = 0 for every t
with the collapse e_p (x) e_q -> e_p e_q equal to the unit; the solution
is re-checked without the Kronecker system, as L_t M = M R_tT and
sum_p L_p (row p of M) = the unit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import chain
from math import gcd

from .exactla import (
    LinearMap,
    RationalMatrix,
    Subspace,
    _echelon_insert,
    _forward_echelon,
    _int_row,
    _kernel_vectors,
    _mod2_independent,
    image,
    kernel,
    kronecker,
    solve,
    vec_add,
)
from .bimodules import (
    Bimodule,
    dual_bimodule,
    induced_completion,
    is_induced,
)
from .structures import AlgebraElement, StructureAlgebra, find_unit

DEFAULT_SIZE_LIMIT = 10_000_000


class SizeLimitError(RuntimeError):
    """A bar complex would exceed the configured entry budget."""

    def __init__(self, total: int, limit: int, worst_dim: int, degree: int):
        self.total = total
        self.limit = limit
        self.worst_dim = worst_dim
        self.degree = degree
        super().__init__(
            f"bar complex needs {total} basis entries across degrees 0..{degree} "
            f"(limit {limit}); the top space alone has dimension {worst_dim}"
        )


class NotUnitalError(ValueError):
    """The operation needs a unital algebra but no unit exists."""


class _PackedColumns:
    """The columns of a matrix B, rows scaled integral and each column
    packed into one int of W-bit signed digits, so that B v = 0 is decided
    exactly by one big-int multiply-add per nonzero of v; the proof is the
    composite check's, in the module docstring. A rational v is tested in
    its primitive integer form, and a v of l1 norm above the bound L the
    columns were packed for has them packed again at a larger L.
    """

    __slots__ = ("columns", "scales", "largest", "bound", "width", "packed")

    def __init__(self, columns: list, rows: int, bound: int):
        """columns: the sparse columns of B, which has rows rows; bound: the
        l1 norm L to size W for at first."""
        scales = [1] * rows
        for col in columns:
            for r, v in col.items():
                if type(v) is not int:
                    d = scales[r]
                    scales[r] = d * v.denominator // gcd(d, v.denominator)
        self.columns, self.scales = columns, scales
        self.largest = int(max((abs(v * scales[r]) for col in columns for r, v in col.items()),
                               default=0))
        self._pack(bound)

    def _pack(self, bound: int) -> None:
        width, top, scales = 1, bound * self.largest, self.scales
        while 1 << (width - 1) <= top:
            width += 1
        self.bound, self.width, self.packed = bound, width, []
        for col in self.columns:
            p = 0
            for r, v in col.items():
                p += (v * scales[r]).numerator << (width * r)
            self.packed.append(p)

    def kills(self, v: dict) -> bool:
        """Whether B v = 0, decided exactly (proof in the module docstring)."""
        s = size = 0
        packed = self.packed
        for k, x in v.items():
            s += x * packed[k]
            size += x if x > 0 else -x
        if type(size) is not int:
            return self.kills(_int_row(v))
        if size > self.bound:
            self._pack(max(size, 2 * self.bound))
            return self.kills(v)
        return not s


class ChainComplex:
    """Chain spaces C_0..C_top with boundaries b_n: C_n -> C_{n-1}.

    Construction makes one pass over the columns of each b_n, in index
    order: each is multiplied out against the columns of b_{n-1}, so
    b_{n-1} b_n = 0 is verified exactly, reading no rows, and fed to the
    mod-2 selector, which keeps the columns it picks. The columns of
    b_{n-1} are packed into ints (_PackedColumns), its rows first scaled
    integral; the digit width W keeps every digit of the product below
    2^(W-1) in size, so the packed product is 0 exactly when the column
    of b_{n-1} b_n is (proof in the module docstring). A column of b_n
    holding a Fraction is tested in its primitive form, and one whose l1
    norm passes the bound W was sized for has the columns packed again.
    The rank bounds that end the eliminations rest on the check.
    A streamed b_top is listed only by a route that needs all of it: the
    row fallback, exhaustive_pivots, representatives, or a reader of
    .matrix. certificates maps (path, n), path "col" or "row", to "bound"
    when the rank of b_n was proven by the two bounds meeting, or
    "exhaustive" when the elimination ran over every column or row.
    """

    __slots__ = ("algebra", "coefficients", "spaces", "boundaries", "certificates",
                 "_row_ranks", "_echelons", "_picks", "_pivot_columns",
                 "__weakref__")

    def __init__(self, algebra, coefficients, spaces, boundaries):
        self.algebra = algebra
        self.coefficients = coefficients
        self.spaces = list(spaces)
        self.boundaries = list(boundaries)  # boundaries[k] is b_{k+1}
        self.certificates = {}
        self._row_ranks = {}
        self._echelons = {}       # (path, n) -> pivots of an elimination of b_n
        self._picks = {}          # n -> (indices, columns) of b_n chosen mod 2
        self._pivot_columns = {}  # n -> {index: column} of b_n behind each column pivot
        for n in range(1, len(self.boundaries) + 1):
            # one pass over the columns of b_n checks b_{n-1} b_n = 0 and
            # picks up to the bound, which rests on that check: no rank
            # of b_n is certified until the pass has run to the end
            blocks, kept = self._checked(n), []
            picked = _mod2_independent(chain.from_iterable(blocks),
                                       self._rank_bound(n, self.col_rank), kept)
            self._picks[n] = (picked, kept)
            for _ in blocks:  # the blocks after the pick are only checked
                pass

    def _checked(self, n: int):
        """The columns of b_n in blocks, in index order, each column first
        multiplied out against the packed columns of b_{n-1}, so every
        entry of b_{n-1} b_n is checked exactly.

        Row r of b_{n-1} is scaled by the lcm D_r of its denominators, which
        scales digit r of the product by D_r != 0. The digits are W bits
        wide, with 2^(W-1) > L E for E the largest scaled entry and L the
        l1 norm bound, n + 1 at first; then a nonzero lowest digit c_r of
        an integral column's product, |c_r| <= L E, leaves the packed sum
        nonzero. A column with a Fraction is tested in its primitive form
        and one past L repacks at a larger L (module docstring).

        A block is checked whole before it is handed on: checking each
        column between its build and its pick made the pass over b_3 of
        l1(B(2,C3)) a few percent slower.
        """
        kills = None
        if n > 1:  # a column of b_n has n + 1 faces, so l1 norm n + 1 when they are monomial
            earlier = self.boundaries[n - 2].matrix
            kills = _PackedColumns(earlier._columns(), earlier.rows, n + 1).kills
        for block in self.boundaries[n - 1].matrix._column_blocks():
            if kills is not None:
                for col in block:
                    if not kills(col):  # one column of the product
                        raise RuntimeError(f"boundary composite b_{n - 1} b_{n} is nonzero")
            yield block

    def boundary(self, n: int) -> LinearMap:
        """b_n: C_n -> C_{n-1}, stored for n = 1 .. top."""
        if 1 <= n <= len(self.boundaries):
            return self.boundaries[n - 1]
        raise IndexError(f"boundary b_{n} not stored (have 1..{len(self.boundaries)})")

    def _rank_bound(self, n: int, lower_rank) -> int:
        """Upper bound dim C_{n-1} - rank b_{n-1} on rank b_n.

        It holds because b_{n-1} b_n = 0 puts the image of b_n inside the
        kernel of b_{n-1}; any lower bound on rank b_{n-1}, taken from the
        same path, keeps it valid.
        """
        return self.spaces[n - 1] - (lower_rank(n - 1) if n > 1 else 0)

    def col_rank(self, n: int) -> int:
        """Rank of b_n by elimination on its columns (cached)."""
        return len(self.col_pivots(n))

    def col_pivots(self, n: int) -> dict:
        """Column echelon of b_n on trailing pivots, ended once its pivots
        reach the rank bound.

        The columns picked mod 2 at construction go in first; being
        independent over Q as well, each adds a pivot, and as many as the
        bound prove the rank. Only when they fall short does the echelon
        continue with the other columns, streamed afresh in index order
        and never listed.
        """
        key = ("col", n)
        if key not in self._echelons:
            bound = self._rank_bound(n, self.col_rank)
            picked, kept = self._picks.pop(n)
            skip = set(picked)
            rest = ((i, col) for i, col in
                    enumerate(chain.from_iterable(self.boundary(n).matrix._column_blocks()))
                    if i not in skip)
            piv, behind = {}, {}
            if bound:
                for i, col in chain(zip(picked, kept), rest):
                    if _echelon_insert(piv, _int_row(col), max) is not None:
                        behind[i] = col
                        if len(piv) == bound:
                            break
            self._echelons[key] = piv
            self._pivot_columns[n] = behind
            self.certificates[key] = "bound" if len(piv) == bound else "exhaustive"
        return self._echelons[key]

    def row_rank(self, n: int) -> int:
        """Rank of b_n by an independent elimination on its rows (cached).

        The rows are first restricted to the columns behind the column
        pivots. A submatrix never has more rank than b_n, so if its rows
        reach the upper bound the rank is proven, whichever columns were
        kept. Otherwise every row is eliminated.
        """
        if n not in self._row_ranks:
            bound = self._rank_bound(n, self.row_rank)
            self.col_pivots(n)
            mat = self.boundary(n).matrix
            cols = self._pivot_columns[n]
            kept = [cols[c] for c in sorted(cols)]
            hinted = RationalMatrix._of_columns(kept, mat.rows)._rows
            rank = len(_forward_echelon(hinted, stop_at=bound, lead=max))
            if rank == bound:
                self.certificates[("row", n)] = "bound"
            else:
                piv = _forward_echelon(mat._rows, lead=max)
                self._echelons[("row", n)] = piv
                self.certificates[("row", n)] = "exhaustive"
                rank = len(piv)
            self._row_ranks[n] = rank
        return self._row_ranks[n]

    def exhaustive_pivots(self, path: str, n: int) -> dict:
        """Echelon of b_n from an elimination over all of its columns
        (path "col") or rows ("row"), as representatives need.

        A column echelon ended at the bound is refused. The row path's
        restricted echelon belongs to a submatrix and is never stored; when
        the row rank was proven by its bound, the rows are eliminated to
        the end here, and that rank must agree.
        """
        if path == "col":
            piv = self.col_pivots(n)
            if self.certificates[("col", n)] != "exhaustive":
                raise RuntimeError(f"column echelon of b_{n} ended at the rank bound")
            return piv
        key = ("row", n)
        if key not in self._echelons:
            piv = _forward_echelon(self.boundary(n).matrix._rows, lead=max)
            if len(piv) != self.row_rank(n):
                raise RuntimeError(f"row elimination of b_{n} disagrees with its certified rank")
            self._echelons[key] = piv
        return self._echelons[key]


def check_bar_budget(algebra_dim: int, coeff_dim: int, n_max: int,
                     size_limit: int = DEFAULT_SIZE_LIMIT) -> None:
    """Raise SizeLimitError when a bar complex of these dimensions would
    blow the entry budget; cheap enough to call before any construction."""
    top = n_max + 1
    dims = [coeff_dim * algebra_dim ** k for k in range(top + 1)]
    total = sum(dims)
    if total > size_limit:
        raise SizeLimitError(total, size_limit, dims[-1], top)


def bar_complex(a: StructureAlgebra, e: Bimodule, n_max: int,
                size_limit: int = DEFAULT_SIZE_LIMIT) -> ChainComplex:
    """Bar chain complex of the algebra with coefficients in e, carrying
    boundaries b_1 .. b_{n_max+1} with the composite-zero law verified;
    b_{n_max+1} is streamed (see ChainComplex)."""
    if e.left_algebra != a or e.right_algebra != a:
        raise ValueError("coefficients must form a bimodule over the algebra")
    check_bar_budget(a.dim, e.dim, n_max, size_limit)
    top = n_max + 1
    dims = [e.dim * a.dim ** k for k in range(top + 1)]

    right_cols = [m._columns() for m in e.right_action]
    left_cols = [m._columns() for m in e.left_action]
    da = a.dim
    keys = [list(range(dim)) for dim in dims[:top]]  # one int per index, shared

    def faces(vecs, scale, sign):
        return [[(r * scale, sign * v) for r, v in vec.items()] for vec in vecs]

    def add(acc, pairs, offset, key):
        for r, v in pairs:
            idx = key[r + offset]
            y = acc.get(idx, 0) + v
            if y:
                acc[idx] = y
            elif idx in acc:
                del acc[idx]

    def columns(n, partial, nxt):
        """The columns of b_n in index order, from the partials of b_{n-1};
        those of b_n are appended to nxt unless it is None."""
        key, span, sign = keys[n - 1], da ** (n - 1), -1 if n % 2 else 1
        # d_n = a_n.x, by x and a_n, keeps the middle digits a_1 .. a_{n-1}
        lasts = [faces([m[x] for m in left_cols], span, sign) for x in range(e.dim)]
        # d_{n-1}: x.a_1 (n = 1), else a_{n-1} a_n spliced after x a_1 .. a_{n-2}
        splices = [faces([m[x] for m in right_cols], 1, 1) for x in range(e.dim)] if n == 1 \
            else [faces([a.structure.get((s, t), {}) for t in range(da)], 1, -sign)
                  for s in range(da)]
        for prev, part in enumerate(partial):
            # column prev * d + a_n is x (x) a_1 .. a_{n-1} (x) a_n
            x, middle = divmod(prev, span)
            low = prev % da if n > 1 else x
            shifted = {r * da: v for r, v in part.items()}
            for last in range(da):
                col = {key[r + last]: v for r, v in shifted.items()}
                add(col, splices[low][last], prev - low, key)
                if nxt is not None:
                    nxt.append(dict(col))
                add(col, lasts[x][last], middle, key)
                yield col

    boundaries = []
    partial = [{}] * e.dim  # faces d_0 .. d_{n-2} of each column of b_{n-1}
    for n in range(1, top):
        nxt = []
        cols = RationalMatrix._of_columns(list(columns(n, partial, nxt)), dims[n - 1])
        boundaries.append(LinearMap(dims[n], dims[n - 1], cols))
        partial = nxt
    # b_top, dim A times larger than b_{top-1}, is not stored: ChainComplex
    # streams it once, and it is listed only when an elimination needs it all
    cols = RationalMatrix._streamed(functools.partial(columns, top, partial, None),
                                    dims[top - 1], dims[top])
    boundaries.append(LinearMap(dims[top], dims[top - 1], cols))
    return ChainComplex(a, e, dims, boundaries)


@dataclass
class HomologyResult:
    degree: int
    betti: int
    cycle_reps: list
    boundary_rank: int
    cycle_rank: int

    def __post_init__(self):
        if self.betti != self.cycle_rank - self.boundary_rank or self.betti < 0:
            raise ValueError("betti must equal cycle rank minus boundary rank, nonnegative")


def _representatives(kernel_vectors, boundary_pivots: dict, want: int) -> list:
    """Kernel vectors that remain independent modulo the boundary image."""
    reps = []
    piv = dict(boundary_pivots)
    for v in kernel_vectors:
        if len(reps) == want:
            break
        if _echelon_insert(piv, _int_row(v), max) is not None:
            reps.append(v)
    return reps


def _hochschild(cx: ChainComplex, n: int, path: str) -> HomologyResult:
    """H_n (path "col") or H^n with dual coefficients (path "row") by the
    module's mirror rule; representatives are (co)cycles independent modulo
    the (co)boundary image. The row path's betti must equal the column
    path's, taken from the cached ranks; a mismatch is an internal defect.
    """
    def rank(p, m):
        if m == 0:  # b_0 is the zero map to a point
            return 0
        return cx.col_rank(m) if p == "col" else cx.row_rank(m)

    ker, im = (n, n + 1) if path == "col" else (n + 1, n)
    cycle_rank = cx.spaces[n] - rank(path, ker)
    boundary_rank = rank(path, im)
    betti = cycle_rank - boundary_rank
    if path == "row":
        homology = cx.spaces[n] - rank("col", n) - rank("col", n + 1)
        if betti != homology:
            raise RuntimeError(
                f"duality cross-check failed in degree {n}: "
                f"cohomology betti {betti} vs homology betti {homology}"
            )
    reps = []
    if betti:
        b = cx.boundary(ker) if ker else LinearMap.zero(cx.spaces[0], 0)
        if path == "row":
            b = LinearMap(b.target_dim, b.source_dim, b.matrix.transpose())
        pivots = cx.exhaustive_pivots(path, im) if im else {}
        reps = _representatives(_kernel_vectors(b), pivots, betti)
        if len(reps) != betti:
            raise RuntimeError(f"{path} path: representative count disagrees with rank arithmetic")
    return HomologyResult(degree=n, betti=betti, cycle_reps=reps,
                          boundary_rank=boundary_rank, cycle_rank=cycle_rank)


def hochschild_homology(a: StructureAlgebra, e: Bimodule, n: int,
                        size_limit: int = DEFAULT_SIZE_LIMIT,
                        complex: ChainComplex | None = None) -> HomologyResult:
    """H_n as exact ranks of the bar boundaries; representatives are kernel
    vectors independent modulo the boundary image."""
    return _hochschild(complex or bar_complex(a, e, n, size_limit), n, "col")


def hochschild_cohomology(a: StructureAlgebra, e: Bimodule, n: int,
                          size_limit: int = DEFAULT_SIZE_LIMIT,
                          complex: ChainComplex | None = None) -> HomologyResult:
    """H^n with coefficients in the dual of e, as the transpose complex,
    by an elimination independent of the homology path; its betti is
    cross-checked against betti(H_n)."""
    return _hochschild(complex or bar_complex(a, e, n, size_limit), n, "row")


@dataclass
class DerivationSpaces:
    derivations: Subspace
    inner: Subspace
    h1_betti: int


def derivation_space(a: StructureAlgebra, e: Bimodule) -> DerivationSpaces:
    """Derivations of the algebra into e and the inner ones among them.

    A map D is flattened as the vector (D(e_p))_p in A* (x) E. The Leibniz
    rule D(e_p e_q) = L_p D(e_q) + R_q D(e_p) at each basis pair is the
    block c^{pq}T (x) 1 - e_qT (x) L_p - e_pT (x) R_q, where c^{pq} holds
    the structure constants of e_p e_q and L, R are e's actions. The inner
    derivation of x is the stack of the (L_p - R_p) x, so the inner ones
    are the column space of the L_p - R_p stacked. Containment and the
    first-cohomology dimension count are verified before returning.
    """
    if e.left_algebra != a or e.right_algebra != a:
        raise ValueError("coefficients must form a bimodule over the algebra")
    da, de = a.dim, e.dim
    ide = LinearMap.identity(de)
    left = [LinearMap(de, de, m) for m in e.left_action]
    right = [LinearMap(de, de, m) for m in e.right_action]

    def covector(vec):
        return LinearMap(da, 1, RationalMatrix.from_rows([vec], da))

    rows = []
    for p in range(da):
        for q in range(da):
            block = (kronecker(covector(a.structure.get((p, q), {})), ide).matrix
                     - kronecker(covector({q: 1}), left[p]).matrix
                     - kronecker(covector({p: 1}), right[q]).matrix)
            rows.extend(block._rows)
    derivations = kernel(LinearMap(da * de, len(rows), RationalMatrix.from_rows(rows, da * de)))
    stacked = [row for lp, rp in zip(e.left_action, e.right_action) for row in (lp - rp)._rows]
    inner = image(LinearMap(de, da * de, RationalMatrix.from_rows(stacked, de)))
    for r in range(inner.basis.rows):
        if not derivations.contains(inner.basis._rows[r]):
            raise RuntimeError("an inner derivation fails the Leibniz system")
    h1 = hochschild_cohomology(a, dual_bimodule(e), 1).betti
    if derivations.dim - inner.dim != h1:
        raise RuntimeError(
            f"derivation count {derivations.dim} - {inner.dim} disagrees "
            f"with first cohomology {h1}"
        )
    return DerivationSpaces(derivations=derivations, inner=inner, h1_betti=h1)


def diagonal_check(a: StructureAlgebra):
    """Search for a separating diagonal: a tensor m with a.m = m.a for all
    a and multiplication collapsing m onto the unit.

    The system stacks L_t (x) 1 - 1 (x) R_t for every basis t over the
    collapse map e_p (x) e_q -> e_p e_q, with the unit as right-hand side.
    Returns the diagonal as a list of (left factor, right factor) element
    pairs, or None when the system is inconsistent. The solution is then
    re-verified through the multiplication matrices alone: read as the
    d x d coefficient matrix M, it must satisfy L_t M = M R_tT for every t
    and sum_p L_p (row p of M) = the unit.
    """
    unit = find_unit(a)
    if unit is None:
        raise NotUnitalError(f"{a.name} has no unit")
    d = a.dim
    rows = []
    ide = LinearMap.identity(d)
    for t in range(d):
        lt = LinearMap(d, d, a.left_mult_matrix(t))
        rt = LinearMap(d, d, a.right_mult_matrix(t))
        rows.extend((kronecker(lt, ide).matrix - kronecker(ide, rt).matrix)._rows)
    collapse = RationalMatrix.from_cols(
        [a.structure.get((p, q), {}) for p in range(d) for q in range(d)], d)
    rhs = {len(rows) + r: v for r, v in unit.coeffs.items()}
    rows.extend(collapse._rows)
    m = solve(LinearMap(d * d, len(rows), RationalMatrix.from_rows(rows, d * d)), rhs)
    if m is None:
        return None
    coeffs = RationalMatrix(d, d, {divmod(idx, d): v for idx, v in m.items()})
    for t in range(d):
        if a.left_mult_matrix(t) @ coeffs != coeffs @ a.right_mult_matrix(t).transpose():
            raise RuntimeError(f"diagonal substitution failed at basis {t}")
    collapsed: dict = {}
    for p, row in enumerate(coeffs._rows):
        collapsed = vec_add(collapsed, a.left_mult_matrix(p).apply(row))
    if collapsed != unit.coeffs:
        raise RuntimeError("diagonal does not collapse onto the unit")
    return [(a.basis_element(p), AlgebraElement(a, row))
            for p, row in enumerate(coeffs._rows) if row]


@dataclass
class ModuleVanishing:
    label: str
    status: str                  # pass / fail / skipped
    routed_through_completion: bool
    dim: int
    h0_dim: int | None
    degrees: list = field(default_factory=list)  # (n, betti_homology, betti_cohomology)
    note: str = ""


@dataclass
class VanishingReport:
    algebra: str
    n_max: int
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.status == "pass" for e in self.entries if e.status != "skipped") and \
            any(e.status == "pass" for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "n_max": self.n_max,
            "passed": self.passed,
            "entries": [
                {
                    "module": e.label,
                    "status": e.status,
                    "routed_through_completion": e.routed_through_completion,
                    "dim": e.dim,
                    "h0_dim": e.h0_dim,
                    "degrees": [
                        {"n": n, "betti_homology": bh, "betti_cohomology": bc}
                        for (n, bh, bc) in e.degrees
                    ],
                    "note": e.note,
                }
                for e in self.entries
            ],
        }


def vanishing_suite(a: StructureAlgebra, modules, n_max: int,
                    size_limit: int = DEFAULT_SIZE_LIMIT) -> VanishingReport:
    """Betti numbers of H_n and of H^n with dual coefficients, for every
    supplied module in degrees 1..n_max.

    Modules that are not two-sided induced are first routed through the
    induced completion, with a note. The degree-zero homology is reported
    with its dimension; its quotient seminorm being a norm is automatic
    at finite dimension (closed images) and recorded as such.
    """
    entries = []
    for mod in modules:
        label = mod.name
        routed = False
        note = ""
        use = mod
        if not is_induced(mod).two_sided:
            use = induced_completion(a, mod)
            routed = True
            note = "not two-sided induced as supplied; replaced by its induced completion"
        try:
            cx = bar_complex(a, use, n_max, size_limit)
        except SizeLimitError as exc:
            entries.append(ModuleVanishing(
                label=label, status="skipped", routed_through_completion=routed,
                dim=use.dim, h0_dim=None, degrees=[],
                note=(note + "; " if note else "") + str(exc),
            ))
            continue
        h0 = hochschild_homology(a, use, 0, size_limit, complex=cx)
        degrees = []
        ok = True
        for n in range(1, n_max + 1):
            hn = hochschild_homology(a, use, n, size_limit, complex=cx)
            cn = hochschild_cohomology(a, use, n, size_limit, complex=cx)
            degrees.append((n, hn.betti, cn.betti))
            if hn.betti != 0 or cn.betti != 0:
                ok = False
        del cx  # so that no two complexes are alive while the next one is built
        h0_note = "degree-0 quotient seminorm is a norm automatically at finite dimension"
        entries.append(ModuleVanishing(
            label=label, status="pass" if ok else "fail",
            routed_through_completion=routed, dim=use.dim, h0_dim=h0.betti,
            degrees=degrees, note=(note + "; " if note else "") + h0_note,
        ))
    return VanishingReport(algebra=a.name, n_max=n_max, entries=entries)
