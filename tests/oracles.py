"""Independent oracles for cross-checking the sparse kernels.

Dense textbook Gaussian elimination over Fractions, written with no code
shared with the package; the point is a second opinion, not speed.
"""

from fractions import Fraction


def dense_from_sparse(rows, nrows, ncols):
    out = [[Fraction(0)] * ncols for _ in range(nrows)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            out[r][c] = Fraction(v)
    return out


def dense_rref(mat):
    """Returns (rref matrix, rank, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    lead = 0
    for r in range(nrows):
        while lead < ncols:
            pivot_row = None
            for i in range(r, nrows):
                if m[i][lead] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                lead += 1
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            pv = m[r][lead]
            m[r] = [x / pv for x in m[r]]
            for i in range(nrows):
                if i != r and m[i][lead] != 0:
                    f = m[i][lead]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(lead)
            lead += 1
            break
        else:
            break
    return m, len(pivots), pivots


def dense_rank(mat):
    return dense_rref(mat)[1]


def dense_nullity(mat):
    if not mat:
        return 0
    return len(mat[0]) - dense_rank(mat)


def dense_matmul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            out[i][j] = sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
    return out


def matrix_of_linear_map(f):
    """Dense matrix of a package LinearMap, via public accessors only."""
    out = [[Fraction(0)] * f.source_dim for _ in range(f.target_dim)]
    for c in range(f.source_dim):
        for r, v in f.col(c).items():
            out[r][c] = Fraction(v)
    return out


def span_contains(vectors, candidate, dim):
    """Whether candidate lies in the span of vectors (all sparse dicts)."""
    rows = dense_from_sparse(list(vectors), len(vectors), dim)
    rank_without = dense_rank(rows) if rows else 0
    rows_with = rows + dense_from_sparse([candidate], 1, dim)
    return dense_rank(rows_with) == rank_without


# Column-by-column bimodule checks: the reference for the whole-matrix
# comparisons in moritalab.bimodules. Each identity is compared one sparse
# column at a time, and one violation is reported per offending basis pair.


def _compose_col(cols, col):
    """Column of a matrix product: the matrix given by its column list,
    applied to one sparse column."""
    out = {}
    for k, v in col.items():
        for r, w in cols[k].items():
            out[r] = out.get(r, 0) + v * w
    return {r: v for r, v in out.items() if v}


def _combination_col(vec, all_cols, r):
    """Column r of a linear combination of matrices."""
    out = {}
    for s, c in vec.items():
        for k, w in all_cols[s][r].items():
            out[k] = out.get(k, 0) + c * w
    return {k: v for k, v in out.items() if v}


def _cols(m):
    return [m.col(c) for c in range(m.cols)]


def axiom_violations(mod):
    """Reference for Bimodule.check_axioms()."""
    out = []
    a, b = mod.left_algebra, mod.right_algebra
    lcols = [_cols(m) for m in mod.left_action]
    rcols = [_cols(m) for m in mod.right_action]
    for p in range(a.dim):
        for q in range(a.dim):
            vec = a.structure.get((p, q), {})
            if any(_compose_col(lcols[p], lcols[q][r]) != _combination_col(vec, lcols, r)
                   for r in range(mod.dim)):
                out.append(f"left action not multiplicative at basis pair ({p},{q})")
    for p in range(b.dim):
        for q in range(b.dim):
            vec = b.structure.get((p, q), {})
            if any(_compose_col(rcols[q], rcols[p][r]) != _combination_col(vec, rcols, r)
                   for r in range(mod.dim)):
                out.append(f"right action not anti-multiplicative at basis pair ({p},{q})")
    for p in range(a.dim):
        for q in range(b.dim):
            if any(_compose_col(lcols[p], rcols[q][r]) != _compose_col(rcols[q], lcols[p][r])
                   for r in range(mod.dim)):
                out.append(f"actions do not commute at basis pair ({p},{q})")
    return out


def intertwining_violations(bmap):
    """Reference for BimoduleMap.intertwining_failures()."""
    out = []
    mcols = _cols(bmap.map.matrix)
    for side, src, tgt in (
        ("left", bmap.source.left_action, bmap.target.left_action),
        ("right", bmap.source.right_action, bmap.target.right_action),
    ):
        for p in range(len(src)):
            scols, tcols = _cols(src[p]), _cols(tgt[p])
            if any(_compose_col(mcols, scols[r]) != _compose_col(tcols, mcols[r])
                   for r in range(bmap.source.dim)):
                out.append(f"map does not intertwine {side} action of basis {p}")
    return out
