"""Independent oracles for cross-checking the sparse kernels.

Dense textbook Gaussian elimination over Fractions, written with no code
shared with the package; the point is a second opinion, not speed.
"""

import itertools
import math
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


def dense_rank_mod2(mat):
    """Rank over GF(2) of the rows, each first scaled to a primitive
    integer vector (denominators cleared, content divided out)."""
    masks = []
    for row in mat:
        row = [Fraction(x) for x in row]
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        content = 0
        for v in ints:
            content = math.gcd(content, v)
        bits = [(v // content) % 2 if content else 0 for v in ints]
        masks.append(bits)
    # plain Gaussian elimination over GF(2), one pivot column at a time
    rank = 0
    ncols = len(masks[0]) if masks else 0
    for c in range(ncols):
        hit = next((i for i in range(rank, len(masks)) if masks[i][c]), None)
        if hit is None:
            continue
        masks[rank], masks[hit] = masks[hit], masks[rank]
        for i in range(len(masks)):
            if i != rank and masks[i][c]:
                masks[i] = [a ^ b for a, b in zip(masks[i], masks[rank])]
        rank += 1
    return rank


def dense_nullity(mat):
    if not mat:
        return 0
    return len(mat[0]) - dense_rank(mat)


def dense_matmul(a, b):
    n, m = len(a), len(b[0]) if b else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for t, x in enumerate(a[i]):
            if x:
                for j, y in enumerate(b[t]):
                    if y:
                        out[i][j] += x * y
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


def algebra_hom_failure(f, src, dst):
    """Reference for morita._is_algebra_hom: (ok, message) after trying
    f(e_p e_q) = f(e_p) f(e_q) on every basis pair in order."""
    cols = _cols(f.matrix)
    for p in range(src.dim):
        for q in range(src.dim):
            lhs = _compose_col(cols, _product(src.structure, {p: 1}, {q: 1}))
            if lhs != _product(dst.structure, cols[p], cols[q]):
                return False, f"not multiplicative at basis pair ({p},{q})"
    return True, ""


# Generator derivations and balancing subspaces, recomputed from the
# structure constants and the dense action matrices.


def _product(structure, x, y):
    """Product of two sparse algebra elements from the structure constants."""
    out = {}
    for p, a in x.items():
        for q, b in y.items():
            for r, c in structure.get((p, q), {}).items():
                out[r] = out.get(r, 0) + a * b * c
    return {r: v for r, v in out.items() if v}


def associativity_failures(alg):
    """Every basis triple (p, q, r) with (e_p e_q) e_r != e_p (e_q e_r),
    found by trying all d^3 of them."""
    d, st = alg.dim, alg.structure
    out = []
    for p in range(d):
        for q in range(d):
            pq = _product(st, {p: 1}, {q: 1})
            for r in range(d):
                if _product(st, pq, {r: 1}) != _product(st, {p: 1}, _product(st, {q: 1}, {r: 1})):
                    out.append((p, q, r))
    return out


def derivation_failures(alg, der):
    """Replay a derivation step by step. One message per step that is not
    a valid step or whose associativity triple (s, u, q) fails, and one if
    the generators and steps do not cover the basis; empty means the
    derivation is a certificate."""
    out = []
    derived = set(der.generators)
    if len(derived) != len(der.generators):
        out.append("repeated generator")
    for t, s, u in der.steps:
        su = _product(alg.structure, {s: 1}, {u: 1})
        if s not in der.generators:
            out.append(f"step {t}: {s} is not a generator")
        if u not in derived:
            out.append(f"step {t}: {u} is not derived yet")
        if t in derived or t not in su:
            out.append(f"step {t}: not a new support element of e_{s} e_{u}")
        if any(r not in derived for r in su if r != t):
            out.append(f"step {t}: e_{s} e_{u} has another underived support element")
        for q in range(alg.dim):
            if _product(alg.structure, su, {q: 1}) != \
                    _product(alg.structure, {s: 1}, _product(alg.structure, {u: 1}, {q: 1})):
                out.append(f"step {t}: not associative at ({s},{u},{q})")
        derived.add(t)
    if derived != set(range(alg.dim)):
        out.append(f"derived {len(derived)} of {alg.dim} basis elements")
    return out


def balancing_span(e, f, over):
    """Reference for balancing_subspace: the dense RREF rows of the span of
    x.a (x) y - x (x) a.y over every basis triple (x, a, y)."""
    fd = f.dim
    vectors = []
    for q in range(over.dim):
        right = e.right_action[q].to_dense()
        left = f.left_action[q].to_dense()
        for p in range(e.dim):
            for r in range(fd):
                v = [Fraction(0)] * (e.dim * fd)
                for k in range(e.dim):
                    v[k * fd + r] += right[k][p]
                for k in range(fd):
                    v[p * fd + k] -= left[k][r]
                vectors.append(v)
    if not vectors:
        return []
    m, rk, _ = dense_rref(vectors)
    return m[:rk]


def _dense_kron(a, b):
    """Kronecker product of two dense square matrices, lexicographic basis."""
    n = len(b)
    return [[a[i // n][j // n] * b[i % n][j % n] for j in range(len(a) * n)]
            for i in range(len(a) * n)]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def quotient_actions(e, f, over):
    """Reference for balanced_tensor(e, f, over).module: for every basis
    element p of each outer algebra in turn (e's left action, then f's
    right action), m_p = L_p (x) 1 or 1 (x) R_p is checked to preserve the
    balancing subspace N and the quotient action proj m_p section is
    formed, all densely. proj and section are read off the dense RREF of N
    (quotient coordinates at its non-pivot columns). Raises what
    balanced_tensor promises for a broken input: ActionNotWellDefined,
    IntertwiningError, or the quotient module's BimoduleAxiomError."""
    from moritalab.bimodules import ActionNotWellDefined, Bimodule, IntertwiningError
    from moritalab.exactla import RationalMatrix

    rel = balancing_span(e, f, over)
    d = e.dim * f.dim
    pivots = [next(c for c, x in enumerate(row) if x) for row in rel]
    free = [j for j in range(d) if j not in pivots]
    pos = {j: t for t, j in enumerate(free)}
    proj = [[Fraction(0)] * d for _ in free]
    for j, t in pos.items():
        proj[t][j] = Fraction(1)
    for c, row in zip(pivots, rel):
        for j in free:
            proj[pos[j]][c] = -row[j]
    section = [[Fraction(int(pos.get(j) == t)) for t in range(len(free))] for j in range(d)]
    rel_t = [[row[j] for row in rel] for j in range(d)]
    actions = {"left": [], "right": []}
    for side, mats in (("left", e.left_action), ("right", f.right_action)):
        for p, mat in enumerate(mats):
            if side == "left":
                m = _dense_kron(mat.to_dense(), _identity(f.dim))
            else:
                m = _dense_kron(_identity(e.dim), mat.to_dense())
            pm = dense_matmul(proj, m)
            if any(x for row in dense_matmul(pm, rel_t) for x in row):
                raise ActionNotWellDefined(
                    f"{side} action of basis {p} does not preserve the balancing subspace"
                )
            t = dense_matmul(pm, section)
            if dense_matmul(t, proj) != pm:
                raise IntertwiningError(f"map does not intertwine {side} action of basis {p}")
            actions[side].append(RationalMatrix.from_rows(
                [{c: x for c, x in enumerate(row) if x} for row in t], len(free)))
    return Bimodule(e.left_algebra, f.right_algebra, len(free), actions["left"],
                    actions["right"], name=f"{e.name}(x)_{over.name}{f.name}")


# Unit, diagonal and derivation systems built entry by entry from the
# structure constants and the action columns: the references for the
# whole-matrix builders in moritalab.structures and moritalab.homology.


SCALES = [2, Fraction(1, 3), 3, Fraction(-1, 2)]


def rescaled(a, factors=SCALES):
    """a in the basis e'_p = factors[p] e_p: structure constants other
    than 1 (such as 1/18), so derivation steps divide by c_t != 1 and the
    linear systems carry coefficients other than +-1."""
    from moritalab.structures import StructureAlgebra

    lam = [Fraction(factors[p % len(factors)]) for p in range(a.dim)]
    structure = {(p, q): {r: lam[p] * lam[q] * c / lam[r] for r, c in vec.items()}
                 for (p, q), vec in a.structure.items()}
    return StructureAlgebra(a.dim, a.labels, structure, name=f"{a.name}'")


def non_unital_algebras():
    """Associative algebras without a unit, and one non-associative algebra
    built unchecked, which has no derivation, but has a unit."""
    from moritalab.structures import StructureAlgebra

    left_zero = StructureAlgebra(3, ["a", "b", "c"],
                                 {(p, q): {p: 1} for p in range(3) for q in range(3)},
                                 name="left zero")
    # every e_p is a left unit and none a right unit: e_s w = w, so the
    # system e_s w = e_s over the generators has no solution
    right_zero = StructureAlgebra(3, ["a", "b", "c"],
                                  {(p, q): {q: 1} for p in range(3) for q in range(3)},
                                  name="right zero")
    # strictly upper triangular 3 x 3 matrices: e12 e23 = e13
    nilpotent = StructureAlgebra(3, ["e12", "e13", "e23"], {(0, 2): {1: 1}}, name="nil")
    # e0 a unit, x = e1, y = e2 with x x = y and x y = x: (x x) x = 0 != x = x (x x)
    unital_bad = {(0, p): {p: 1} for p in range(3)}
    unital_bad.update({(p, 0): {p: 1} for p in range(3)})
    unital_bad.update({(1, 1): {2: 1}, (1, 2): {1: 1}})
    bad = StructureAlgebra(3, ["1", "x", "y"], unital_bad, name="bad", check=False)
    assert bad.derivation() is None
    return [StructureAlgebra(2, ["x", "y"], {}, name="null"), left_zero, nilpotent, right_zero,
            bad]


def unit_system(a):
    """Rows and right-hand side of u e_p = e_p u = e_p for all p: for each
    p and output coordinate r, the row sum_q u_q (e_q e_p)_r, then the row
    sum_q u_q (e_p e_q)_r, zero rows left out unless r = p."""
    d = a.dim
    rows, rhs = [], {}
    for p in range(d):
        right_rows = [{} for _ in range(d)]
        left_rows = [{} for _ in range(d)]
        for q in range(d):
            for r, v in a.structure.get((q, p), {}).items():
                right_rows[r][q] = v
            for r, v in a.structure.get((p, q), {}).items():
                left_rows[r][q] = v
        for r in range(d):
            for side in (right_rows, left_rows):
                if side[r] or r == p:
                    if r == p:
                        rhs[len(rows)] = 1
                    rows.append(side[r])
    return rows, rhs


def all_basis_unit(a):
    """The unit found from every basis element, as find_unit did before it
    used the derivation: solve the stacked R_p, L_p blocks (right-hand side
    e_p) for every p, then keep the solution only if it is a two-sided
    unit. None when there is none."""
    from moritalab.exactla import LinearMap, RationalMatrix, solve

    d = a.dim
    rows, rhs = [], {}
    for p in range(d):
        for m in (a.right_mult_matrix(p), a.left_mult_matrix(p)):
            rhs[len(rows) + p] = 1
            rows.extend(m.row(r) for r in range(d))
    u = solve(LinearMap(d, len(rows), RationalMatrix.from_rows(rows, d)), rhs)
    return u if u is not None and is_unit(a, u) else None


def is_unit(a, u):
    """u e_p = e_p u = e_p for every basis element, from the structure
    constants."""
    return all(_product(a.structure, u, {p: 1}) == {p: 1} == _product(a.structure, {p: 1}, u)
               for p in range(a.dim))


def diagonal_system(a, unit):
    """Rows and right-hand side for a diagonal m = sum m_pq e_p (x) e_q,
    unknown p*d + q: for each t the coordinates of t.m - m.t, then the
    collapse rows sum m_pq (e_p e_q)_r = unit_r."""
    d = a.dim
    rows = []
    for t in range(d):
        block = [{} for _ in range(d * d)]
        for p in range(d):
            for q in range(d):
                for r, v in a.structure.get((t, p), {}).items():
                    block[r * d + q][p * d + q] = block[r * d + q].get(p * d + q, 0) + v
                for s, v in a.structure.get((q, t), {}).items():
                    block[p * d + s][p * d + q] = block[p * d + s].get(p * d + q, 0) - v
        rows.extend({k: v for k, v in row.items() if v} for row in block)
    rhs = {len(rows) + r: v for r, v in unit.items()}
    collapse = [{} for _ in range(d)]
    for (p, q), vec in a.structure.items():
        for r, v in vec.items():
            collapse[r][p * d + q] = v
    return rows + collapse, rhs


def diagonal_defects(a, pairs, unit):
    """Substitution of a diagonal, given as (left, right) element pairs,
    through the algebra product: one message per basis t with
    t.m != m.t, and one if m does not collapse onto the unit."""
    out = []
    for t in range(a.dim):
        left_side, right_side = {}, {}
        for x, y in pairs:
            for p, cp in a.mul({t: 1}, x.coeffs).items():
                for q, cq in y.coeffs.items():
                    left_side[p, q] = left_side.get((p, q), 0) + cp * cq
            for p, cp in x.coeffs.items():
                for q, cq in a.mul(y.coeffs, {t: 1}).items():
                    right_side[p, q] = right_side.get((p, q), 0) + cp * cq
        if {k: v for k, v in left_side.items() if v} != \
                {k: v for k, v in right_side.items() if v}:
            out.append(f"diagonal substitution failed at basis {t}")
    collapse = {}
    for x, y in pairs:
        for r, v in a.mul(x.coeffs, y.coeffs).items():
            collapse[r] = collapse.get(r, 0) + v
    if {r: v for r, v in collapse.items() if v} != unit:
        out.append("diagonal does not collapse onto the unit")
    return out


def leibniz_rows(a, e):
    """The Leibniz equations D(e_p e_q) - e_p.D(e_q) - D(e_p).e_q = 0 on
    D flattened as unknowns p*de + t, one row per basis pair (p, q) and
    output coordinate t, zero rows left out."""
    de = e.dim
    left_cols = [_cols(m) for m in e.left_action]
    right_cols = [_cols(m) for m in e.right_action]
    rows = []
    for p in range(a.dim):
        for q in range(a.dim):
            eq = [{} for _ in range(de)]
            for s, c in a.structure.get((p, q), {}).items():
                for t in range(de):
                    eq[t][s * de + t] = eq[t].get(s * de + t, 0) + c
            for m, col in enumerate(left_cols[p]):
                for t, v in col.items():
                    eq[t][q * de + m] = eq[t].get(q * de + m, 0) - v
            for m, col in enumerate(right_cols[q]):
                for t, v in col.items():
                    eq[t][p * de + m] = eq[t].get(p * de + m, 0) - v
            rows.extend(r for r in ({k: v for k, v in row.items() if v} for row in eq) if r)
    return rows


def inner_columns(a, e):
    """The inner derivation p -> e_p.x - x.e_p of each basis vector x = e_m
    of e, flattened like leibniz_rows."""
    de = e.dim
    left_cols = [_cols(m) for m in e.left_action]
    right_cols = [_cols(m) for m in e.right_action]
    out = []
    for m in range(de):
        col = {}
        for p in range(a.dim):
            for t, v in left_cols[p][m].items():
                col[p * de + t] = col.get(p * de + t, 0) + v
            for t, v in right_cols[p][m].items():
                col[p * de + t] = col.get(p * de + t, 0) - v
        out.append({k: v for k, v in col.items() if v})
    return out


# The bar complex built face by face from the definition: the reference
# for the digit-arithmetic build in moritalab.homology.


def bar_boundary(a, e, n):
    """Columns of the bar boundary b_n: C_n -> C_{n-1},
    x (x) a_1 .. a_n -> x.a_1 (x) a_2 .. a_n
                        + sum_i (-1)^i x (x) a_1 .. a_i a_{i+1} .. a_n
                        + (-1)^n a_n.x (x) a_1 .. a_{n-1},
    with the basis of C_k listed as the tuples (x, a_1, .., a_k) of
    itertools.product, in its order."""
    def basis(k):
        return itertools.product(range(e.dim), *[range(a.dim)] * k)

    index = {key: t for t, key in enumerate(basis(n - 1))}
    right = [_cols(m) for m in e.right_action]
    left = [_cols(m) for m in e.left_action]
    cols = []
    for x, *legs in basis(n):
        out = {}
        faces = [((r, *legs[1:]), v) for r, v in right[legs[0]][x].items()]
        for i in range(n - 1):
            for s, v in a.structure.get((legs[i], legs[i + 1]), {}).items():
                faces.append(((x, *legs[:i], s, *legs[i + 2:]), (-1) ** (i + 1) * v))
        faces.extend(((r, *legs[:-1]), (-1) ** n * v) for r, v in left[legs[-1]][x].items())
        for key, v in faces:
            out[index[key]] = out.get(index[key], 0) + v
        cols.append({t: v for t, v in out.items() if v})
    return cols


def digit_bar_boundaries(a, e, n_max):
    """b_1 .. b_{n_max+1} as RationalMatrix, built row-first column by
    column: each column index is read as the base-d digits x a_1 .. a_n
    (d = dim a) and every face's target row is found by divmod. This is
    the build homology.bar_complex used before its column-first one."""
    from moritalab.exactla import RationalMatrix

    top = n_max + 1
    da = a.dim
    dims = [e.dim * da ** k for k in range(top + 1)]
    right_cols = [_cols(m) for m in e.right_action]
    left_cols = [_cols(m) for m in e.left_action]
    pw = [da ** k for k in range(top + 2)]

    def face(acc, vec, scale, offset, sign):
        for r, v in vec.items():
            idx = r * scale + offset
            y = acc.get(idx, 0) + sign * v
            if y:
                acc[idx] = y
            elif idx in acc:
                del acc[idx]

    out = []
    for n in range(1, top + 1):
        mat = RationalMatrix(dims[n - 1], dims[n])
        base = pw[n - 1]
        for col in range(dims[n]):
            x, legs = divmod(col, pw[n])
            acc = {}
            # x.a_1 keeps the low n-1 digits a_2 .. a_n
            first, low = divmod(legs, base)
            face(acc, right_cols[first][x], base, low, 1)
            # a_i a_{i+1} is spliced between x a_1 .. a_{i-1} and a_{i+2} .. a_n
            for i in range(1, n):
                shift = pw[n - i - 1]
                head, rest = divmod(col, shift * da * da)
                prod = a.structure.get(divmod(rest // shift, da))
                if prod:
                    face(acc, prod, shift, head * da * shift + rest % shift, -1 if i % 2 else 1)
            # a_n.x keeps the middle digits a_1 .. a_{n-1}
            middle, last = divmod(legs, da)
            face(acc, left_cols[last][x], base, middle, -1 if n % 2 else 1)
            for idx, v in acc.items():
                mat._rows[idx][col] = v
        out.append(mat)
    return out


# Matrix-unit and triple builders written loop by loop, each with its own
# index arithmetic: the references for structures.brandt_products and the
# algebras, rectangle actions and pairings built from it.


def matrix_units_table(n):
    """Structure constants e_(i,p) e_(p,j) = e_(i,j) on the pairs (i, j)."""
    structure = {}
    for i in range(n):
        for p in range(n):
            for j in range(n):
                structure[(i * n + p, p * n + j)] = {i * n + j: 1}
    return structure


def contracted_table(n, g):
    """Structure constants of the contracted triple algebra from
    BrandtSemigroup.triple_index."""
    from moritalab.structures import BrandtSemigroup

    s = BrandtSemigroup(n, g)
    structure = {}
    for i in range(1, n + 1):
        for gi in range(g.order):
            for k in range(1, n + 1):
                p = s.triple_index(i, gi, k)
                for hi in range(g.order):
                    for j in range(1, n + 1):
                        q = s.triple_index(k, hi, j)
                        structure[(p, q)] = {s.triple_index(i, g.mul(gi, hi), j): 1}
    return structure


def semigroup_table(s):
    """Structure constants of the semigroup algebra from BrandtSemigroup.mul."""
    return {(a, b): {s.mul(a, b): 1} for a in range(s.size) for b in range(s.size)}


def matrix_row_action(n):
    """Right action of the matrix units on the index space:
    (b . a)(i) = sum_k b(k) a(k, i)."""
    from moritalab.exactla import RationalMatrix

    out = []
    for k in range(n):
        for i in range(n):
            m = RationalMatrix(n, n)
            m._rows[i][k] = 1
            out.append(m)
    return out


def matrix_col_action(n):
    """Left action of the matrix units on the index space:
    (a . b)(i) = sum_k a(i, k) b(k)."""
    from moritalab.exactla import RationalMatrix

    out = []
    for i in range(n):
        for k in range(n):
            m = RationalMatrix(n, n)
            m._rows[i][k] = 1
            out.append(m)
    return out


def scalar_action(dim):
    from moritalab.exactla import RationalMatrix

    return [RationalMatrix.identity(dim)]


def rect_actions(left_n, right_n, g):
    """Left and right convolution actions of the contracted algebras on the
    triples (l, g, r) of a left_n x G x right_n rectangle."""
    from moritalab.exactla import RationalMatrix

    og = g.order
    dim = left_n * og * right_n

    def idx(l, gi, r):
        return ((l - 1) * og + gi) * right_n + (r - 1)

    left_action = []
    for l1 in range(1, left_n + 1):
        for hi in range(og):
            for l2 in range(1, left_n + 1):
                m = RationalMatrix(dim, dim)
                for gi in range(og):
                    for r in range(1, right_n + 1):
                        m._rows[idx(l1, g.mul(hi, gi), r)][idx(l2, gi, r)] = 1
                left_action.append(m)
    right_action = []
    for r1 in range(1, right_n + 1):
        for hi in range(og):
            for r2 in range(1, right_n + 1):
                m = RationalMatrix(dim, dim)
                for gi in range(og):
                    for l in range(1, left_n + 1):
                        m._rows[idx(l, g.mul(gi, hi), r2)][idx(l, gi, r1)] = 1
                right_action.append(m)
    return left_action, right_action


def rect_pairing(left_n, mid_n, right_n, g):
    """Convolution pairing (l,g,m) (x) (m',h,r) -> [m=m'] (l,gh,r)."""
    from moritalab.exactla import LinearMap, RationalMatrix

    og = g.order

    def idx(a, gi, b, nb):
        return ((a - 1) * og + gi) * nb + (b - 1)

    src = (left_n * og * mid_n) * (mid_n * og * right_n)
    tgt_dim = left_n * og * right_n
    m = RationalMatrix(tgt_dim, src)
    qdim = mid_n * og * right_n
    for l in range(1, left_n + 1):
        for gi in range(og):
            for mid in range(1, mid_n + 1):
                pcol = idx(l, gi, mid, mid_n)
                for hi in range(og):
                    for r in range(1, right_n + 1):
                        qcol = idx(mid, hi, r, right_n)
                        m._rows[idx(l, g.mul(gi, hi), r, right_n)][pcol * qdim + qcol] = 1
    return LinearMap(src, tgt_dim, m)


def trace_pairing(n):
    """sum_i a(i) b(i) on the lexicographic pair basis."""
    from moritalab.exactla import LinearMap, RationalMatrix

    m = RationalMatrix(1, n * n)
    for i in range(n):
        m._rows[0][i * n + i] = 1
    return LinearMap(n * n, 1, m)


def unit_cols(n):
    """The pair (i, j) of the index space's tensor square to the matrix
    unit (i, j)."""
    from moritalab.exactla import LinearMap

    return LinearMap.from_cols([{i * n + j: 1} for i in range(n) for j in range(n)], n * n)


def triple_basis_iso(n, g):
    """(i,j) (x) g to the triple (i,g,j), and back."""
    from moritalab.exactla import LinearMap, RationalMatrix
    from moritalab.structures import BrandtSemigroup

    s = BrandtSemigroup(n, g)
    dim = n * n * g.order
    fwd = RationalMatrix(dim, dim)
    bwd = RationalMatrix(dim, dim)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            pair = (i - 1) * n + (j - 1)
            for gi in range(g.order):
                src = pair * g.order + gi
                dst = s.triple_index(i, gi, j)
                fwd._rows[dst][src] = 1
                bwd._rows[src][dst] = 1
    return LinearMap(dim, dim, fwd), LinearMap(dim, dim, bwd)


# The split sequence, the padded pairings, the modules transported through
# the splitting and the random change of basis written entry by entry: the
# references for the column-list builders in morita and bimodules.


def split_maps(nt, ns, z):
    """u, v, w, theta and the inverse-of-theta formula of the splitting of a
    semigroup algebra of dimension ns with zero z over a contracted algebra
    of dimension nt."""
    from moritalab.exactla import LinearMap, RationalMatrix

    u = RationalMatrix(ns, nt)
    for t in range(nt):
        u._rows[t][t] = 1
        u._rows[z][t] = -1
    v = RationalMatrix(1, ns)
    for t in range(ns):
        v._rows[0][t] = 1
    w = RationalMatrix(nt, ns)
    for t in range(nt):
        w._rows[t][t] = 1
    theta = RationalMatrix(nt + 1, ns)
    for t in range(nt):
        theta._rows[t][t] = 1
    for t in range(ns):
        theta._rows[nt][t] = 1
    formula = RationalMatrix(ns, nt + 1)
    for t in range(nt):
        formula._rows[t][t] = 1
        formula._rows[z][t] = -1
    formula._rows[z][nt] = formula._rows[z].get(nt, 0) + 1
    return (LinearMap(nt, ns, u), LinearMap(ns, 1, v), LinearMap(ns, nt, w),
            LinearMap(ns, nt + 1, theta), LinearMap(nt + 1, ns, formula))


def full_pairing(left_dim, right_dim, rect_pairing, split_out):
    """The rectangle pairing padded by star (x) star -> the scalar line,
    pulled back along the inverse of theta."""
    from moritalab.exactla import LinearMap, RationalMatrix

    nt = split_out.contracted.dim
    ns = split_out.semigroup.dim
    m = RationalMatrix(ns, left_dim * right_dim)
    theta_inv = split_out.theta_inv
    for pcol in range(left_dim - 1):
        for qcol in range(right_dim - 1):
            sum_coords = rect_pairing.col(pcol * (right_dim - 1) + qcol)
            for r, v in theta_inv.apply(sum_coords).items():
                m._rows[r][pcol * right_dim + qcol] = v
    for r, v in theta_inv.apply({nt: 1}).items():
        m._rows[r][(left_dim - 1) * right_dim + (right_dim - 1)] = v
    return LinearMap(left_dim * right_dim, ns, m)


def transported_full_modules(i, j, g):
    """P and Q of the full witness between l1(B(i, G)) and l1(B(j, G)) by
    the route of the paper: the rectangle modules of the contracted
    algebras, padded by a star line on which only the scalar summand acts,
    give modules over l1(T) (+) C, and each basis element s of l1(B) acts
    as theta(s) does, theta from split_sequence, summed entry by entry."""
    from moritalab.bimodules import Bimodule
    from moritalab.exactla import RationalMatrix
    from moritalab.morita import split_sequence

    split_i, split_j = split_sequence(i, g), split_sequence(j, g)
    dim = i * g.order * j + 1

    def transported(rect, split):
        star = RationalMatrix(dim, dim)
        star._rows[dim - 1][dim - 1] = 1
        sum_actions = [extend_block(m, dim) for m in rect] + [star]
        out = []
        for s in range(split.semigroup.dim):
            rows = [{} for _ in range(dim)]
            for k, c in split.theta.col(s).items():
                for r, row in enumerate(sum_actions[k]._rows):
                    for col, v in row.items():
                        rows[r][col] = rows[r].get(col, 0) + c * v
            out.append(RationalMatrix.from_rows(rows, dim))
        return out

    p_left, p_right = rect_actions(j, i, g)
    q_left, q_right = rect_actions(i, j, g)
    p = Bimodule(split_j.semigroup, split_i.semigroup, dim,
                 transported(p_left, split_j), transported(p_right, split_i))
    q = Bimodule(split_i.semigroup, split_j.semigroup, dim,
                 transported(q_left, split_i), transported(q_right, split_j))
    return p, q


def extend_block(m, dim):
    """m as the top-left block of a dim x dim matrix."""
    from moritalab.exactla import RationalMatrix

    out = RationalMatrix(dim, dim)
    for r, row in enumerate(m._rows):
        out._rows[r] = dict(row)
    return out


def seeded_random_bimodule(a, seed):
    """The regular module or its dual, maybe padded by a zero line, conjugated
    by a random unimodular matrix, with the same random draws as
    bimodules.seeded_random_bimodule."""
    import random

    from moritalab.bimodules import Bimodule, dual_bimodule, regular_bimodule
    from moritalab.exactla import LinearMap, RationalMatrix, inverse, vec_sub

    rng = random.Random(seed)
    base = regular_bimodule(a) if rng.random() < 0.5 else dual_bimodule(regular_bimodule(a))
    dim = base.dim + rng.randrange(0, 2)
    u = RationalMatrix.identity(dim)
    for _ in range(3 * dim):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        u._rows[j] = vec_sub(u._rows[j], {k: -c * v for k, v in u._rows[i].items()})
    uinv = inverse(LinearMap(dim, dim, u)).matrix
    left = [u @ extend_block(m, dim) @ uinv for m in base.left_action]
    right = [u @ extend_block(m, dim) @ uinv for m in base.right_action]
    return Bimodule(a, a, dim, left, right, name=f"random({a.name},seed={seed})")
