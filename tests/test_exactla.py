"""Exact linear algebra kernels against trivial cases and dense oracles."""

import ast
import pathlib
import random
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings, strategies as st

import moritalab
from moritalab.exactla import (
    LinearMap,
    RationalMatrix,
    Subspace,
    _accumulate,
    _forward_echelon,
    _int_row,
    _mod2_independent,
    _times_outer,
    binomial_span,
    image,
    inverse,
    kernel,
    kronecker,
    l1_operator_norm,
    linear_combination,
    nrat,
    quotient,
    rref,
    solve,
    subspace_equal,
    vec_add,
    vec_sub,
)
from moritalab.structures import StructureAlgebra, matrix_algebra, scalar_algebra

from oracles import (
    _product,
    dense_matmul,
    dense_rank,
    dense_rank_mod2,
    dense_rref,
    matrix_of_linear_map,
    span_contains,
)


def random_matrix(rng, rows, cols, density=0.5, span=5):
    m = RationalMatrix(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randint(-span, span)
                if v:
                    m._rows[r][c] = v
    return m


def test_from_cols_rejects_row_out_of_bounds():
    for row in (-1, 2):
        with pytest.raises(IndexError, match=rf"entry \({row},0\) out of bounds 2x1"):
            RationalMatrix.from_cols([{row: 1}], 2)


def test_from_rows_rejects_column_out_of_bounds():
    for col in (-1, 5):
        with pytest.raises(IndexError, match=rf"entry \(0,{col}\) out of bounds 1x2"):
            RationalMatrix.from_rows([{col: 1}], 2)


def test_rref_identity():
    i2 = RationalMatrix.identity(2)
    out, rank = rref(i2)
    assert out == i2
    assert rank == 2


def test_rref_dependent_rows():
    m = RationalMatrix.from_rows([{0: 1, 1: 2}, {0: 2, 1: 4}], 2)
    out, rank = rref(m)
    assert rank == 1
    assert out.row(0) == {0: 1, 1: 2}
    assert out.row(1) == {}


def trace_pairing_spanning_vectors(n):
    """The balancing spanning set for the index space over the matrix
    algebra, enumerated directly from the two action formulas."""
    vectors = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for i2 in range(n):
                    v = {}
                    if i == j:  # row vector hit from the right: [i=j] d_k
                        v[k * n + i2] = v.get(k * n + i2, 0) + 1
                    if k == i2:  # column vector hit from the left: [k=i2] d_j
                        v[i * n + j] = v.get(i * n + j, 0) - 1
                    v = {key: val for key, val in v.items() if val}
                    if v:
                        vectors.append(v)
    return vectors


def test_rref_balancing_span_rank_frozen():
    # oracle: enumerate the spanning set for |I| = 2 and row-reduce densely
    vectors = trace_pairing_spanning_vectors(2)
    dense = [[QQ(0)] * 4 for _ in vectors]
    for r, v in enumerate(vectors):
        for c, x in v.items():
            dense[r][c] = QQ(x)
    assert dense_rank(dense) == 3  # frozen from the dense oracle
    m = RationalMatrix.from_rows(vectors, 4)
    _, rank = rref(m)
    assert rank == 3


def test_rref_idempotent_on_random(seed=1234):
    rng = random.Random(seed)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        once, rank1 = rref(m)
        twice, rank2 = rref(once)
        assert once == twice
        assert rank1 == rank2


def test_rref_matches_dense_oracle(seed=99):
    rng = random.Random(seed)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        ours, rank = rref(m)
        dense, drank, _ = dense_rref(m.to_dense())
        assert rank == drank
        assert ours.to_dense() == dense


def test_kernel_zero_map():
    f = LinearMap.zero(3, 2)
    k = kernel(f)
    assert k.dim == 3
    assert k == Subspace.full(3)


def test_kernel_trace_functional():
    # the pairing on the dim-4 tensor square: kernel of a nonzero functional
    m = RationalMatrix.from_rows([{0: 1, 3: 1}], 4)
    f = LinearMap(4, 1, m)
    k = kernel(f)
    assert k.dim == 3


def test_kernel_bar_boundary_cross_checked():
    # commutator map of the 2x2 matrix units: x (x) a -> xa - ax
    m2 = matrix_algebra(2)
    cols = []
    for x in range(4):
        for a in range(4):
            v = dict(m2.structure.get((x, a), {}))
            for r, val in m2.structure.get((a, x), {}).items():
                y = v.get(r, 0) - val
                if y:
                    v[r] = y
                elif r in v:
                    del v[r]
            cols.append(v)
    b1 = LinearMap.from_cols(cols, 4)
    k = kernel(b1)
    dense = matrix_of_linear_map(b1)
    oracle_rank = dense_rank(dense)
    assert oracle_rank == 3  # frozen: commutators of matrix units span traceless
    assert k.dim == 16 - oracle_rank
    # rank-nullity through the package's own rank
    assert k.dim + b1.rank() == b1.source_dim


def test_image_identity():
    assert image(LinearMap.identity(2)) == Subspace.full(2)


def test_image_pairing_is_full_target():
    f = LinearMap(4, 1, RationalMatrix.from_rows([{0: 1, 3: 1}], 4))
    assert image(f).dim == 1


def test_rank_nullity_random(seed=31):
    rng = random.Random(seed)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        f = LinearMap(cols, rows, m)
        assert kernel(f).dim + f.rank() == cols


def test_solve_identity():
    f = LinearMap.identity(3)
    assert solve(f, [5, 0, 7]) == {0: 5, 2: 7}


def test_solve_underdetermined_verified_by_substitution():
    f = LinearMap(2, 1, RationalMatrix.from_rows([{0: 1, 1: 1}], 2))
    x = solve(f, [2])
    assert x is not None
    assert f.apply(x) == {0: 2}


def test_solve_inconsistent():
    f = LinearMap.zero(2, 2)
    assert solve(f, [1, 0]) is None


def test_solve_random_consistent_systems(seed=7):
    rng = random.Random(seed)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        f = LinearMap(cols, rows, m)
        x0 = {c: rng.randint(-3, 3) for c in range(cols) if rng.random() < 0.7}
        target = f.apply(x0)
        x = solve(f, target)
        assert x is not None
        assert f.apply(x) == target


def test_quotient_by_zero_subspace():
    q = quotient(3, Subspace.zero(3))
    assert q.dim == 3
    assert inverse(q.proj) is not None


def test_quotient_contract(seed=5):
    rng = random.Random(seed)
    for _ in range(15):
        dim = rng.randint(1, 6)
        spanning = [
            {c: rng.randint(-3, 3) for c in range(dim) if rng.random() < 0.6}
            for _ in range(rng.randint(0, dim))
        ]
        n = Subspace.from_spanning(dim, spanning)
        q = quotient(dim, n)
        assert q.dim == dim - n.dim
        assert q.proj.compose(q.section) == LinearMap.identity(q.dim)
        assert subspace_equal(kernel(q.proj), n)
        # free lists the non-pivot columns, each with the coordinate the
        # section sends to it
        assert sorted(q.free) == [j for j in range(dim) if j not in n.pivot_columns()]
        assert all(q.section.col(t) == {j: 1} for j, t in q.free.items())


def test_quotient_by_pairing_kernel():
    f = LinearMap(4, 1, RationalMatrix.from_rows([{0: 1, 3: 1}], 4))
    n = kernel(f)
    q = quotient(4, n)
    assert q.dim == 1
    # the projection factors the pairing: both kill exactly n
    assert subspace_equal(kernel(q.proj), kernel(f))


def test_subspace_equal_reflexive_and_scaling():
    a = Subspace.from_spanning(2, [{0: 1}])
    b = Subspace.from_spanning(2, [{0: 2}])
    assert subspace_equal(a, a)
    assert subspace_equal(a, b)


def test_subspace_equal_is_equivalence_and_matches_containment(seed=11):
    rng = random.Random(seed)
    spaces = []
    for _ in range(12):
        dim = 5
        spanning = [
            {c: rng.randint(-2, 2) for c in range(dim) if rng.random() < 0.5}
            for _ in range(rng.randint(0, 4))
        ]
        spaces.append(Subspace.from_spanning(dim, spanning))
    for a in spaces:
        assert subspace_equal(a, a)
        for b in spaces:
            assert subspace_equal(a, b) == subspace_equal(b, a)
            mutual = all(
                b.contains(a.basis.row(r)) for r in range(a.dim)
            ) and all(
                a.contains(b.basis.row(r)) for r in range(b.dim)
            )
            assert subspace_equal(a, b) == mutual
            for c in spaces:
                if subspace_equal(a, b) and subspace_equal(b, c):
                    assert subspace_equal(a, c)


small_rationals = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
sparse_vectors = st.dictionaries(st.integers(0, 4), small_rationals, max_size=5)


@settings(max_examples=300, deadline=None)
@given(spanning=st.lists(sparse_vectors, max_size=5), candidate=sparse_vectors,
       coeffs=st.lists(small_rationals, min_size=5, max_size=5), in_span=st.booleans(),
       noise=st.dictionaries(st.integers(0, 4), small_rationals, max_size=1))
def test_contains_matches_dense_rank_oracle(spanning, candidate, coeffs, in_span, noise):
    # contains(v) holds iff appending v to the spanning set keeps the rank
    if in_span:
        # a combination of the spanning vectors (coefficients and stored
        # entries may be 0), perhaps moved in one coordinate, so both
        # answers occur often
        combo = dict(noise)
        for c, vec in zip(coeffs, spanning):
            for k, x in vec.items():
                combo[k] = combo.get(k, 0) + c * x
        candidate = combo
    space = Subspace.from_spanning(5, spanning)
    assert space.contains(candidate) == span_contains(spanning, candidate, 5)


def test_contains_on_fraction_valued_basis():
    space = Subspace.from_spanning(3, [{0: 2, 1: 1}, {1: QQ(1, 3), 2: 1}])
    assert any(isinstance(v, QQ) for _, _, v in space.basis.entries())
    assert space.contains({0: 6, 1: QQ(11, 3), 2: 2})
    assert space.contains({1: QQ(1, 3), 2: 1})
    assert not space.contains({0: 6, 1: QQ(5, 3), 2: 2})
    assert not space.contains({0: 1})


def test_int_row_primitive_row_with_content_divided_out():
    assert _int_row({}) == {}
    assert _int_row({0: 4, 3: -6, 5: 10}) == {0: 2, 3: -3, 5: 5}
    assert _int_row({1: QQ(1, 2), 2: QQ(-1, 3)}) == {1: 3, 2: -2}
    assert _int_row({0: QQ(4, 3), 1: 2, 4: QQ(2, 1)}) == {0: 2, 1: 3, 4: 3}
    # zero entries are dropped, integral Fractions act as ints
    assert _int_row({0: 0, 1: QQ(6, 1), 2: -9}) == {1: 2, 2: -3}
    for row in ({0: 3, 1: 5}, {0: QQ(3, 7), 1: QQ(5, 7)}, {0: QQ(3, 2), 1: QQ(5, 2)}):
        out = _int_row(row)
        assert out == {0: 3, 1: 5}
        assert all(type(v) is int for v in out.values())


def test_subspace_equal_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        subspace_equal(Subspace.zero(2), Subspace.zero(3))


def test_l1_norm_identity_and_permutation():
    assert l1_operator_norm(LinearMap.identity(4)) == 1
    perm = RationalMatrix(3, 3)
    perm._rows[1][0] = 1
    perm._rows[2][1] = 1
    perm._rows[0][2] = 1
    assert l1_operator_norm(LinearMap(3, 3, perm)) == 1


def test_l1_norm_zero_map():
    assert l1_operator_norm(LinearMap.zero(3, 2)) == 0


def test_l1_norm_column_sums():
    m = RationalMatrix.from_rows([{0: QQ(1, 2), 1: 2}, {0: QQ(-1, 2), 1: 1}], 2)
    assert l1_operator_norm(LinearMap(2, 2, m)) == 3


def test_l1_norm_and_dense_padding_are_plain_int_when_integral():
    norm = l1_operator_norm(LinearMap.identity(3))
    assert norm == 1 and type(norm) is int
    m = RationalMatrix.from_rows([{0: QQ(1, 2)}, {1: QQ(3, 2)}], 2)
    half = l1_operator_norm(LinearMap(2, 2, m))
    assert half == QQ(3, 2) and type(half) is QQ
    assert m.to_dense() == [[QQ(1, 2), 0], [0, QQ(3, 2)]]
    assert type(m.to_dense()[0][1]) is int


def test_l1_norm_submultiplicative(seed=17):
    rng = random.Random(seed)
    for _ in range(25):
        k = rng.randint(1, 4)
        out_dim = rng.randint(1, 4)
        in_dim = rng.randint(1, 4)
        f = LinearMap(k, out_dim, random_matrix(rng, out_dim, k))
        g = LinearMap(in_dim, k, random_matrix(rng, k, in_dim))
        lhs = l1_operator_norm(f.compose(g))
        assert lhs <= l1_operator_norm(f) * l1_operator_norm(g)


def test_kronecker_identities():
    assert kronecker(LinearMap.identity(2), LinearMap.identity(3)) == LinearMap.identity(6)
    z = kronecker(LinearMap.identity(2), LinearMap.zero(3, 3))
    assert z.matrix.is_zero()


def test_kronecker_rank_multiplicative(seed=23):
    rng = random.Random(seed)
    for _ in range(10):
        f = LinearMap(3, 3, random_matrix(rng, 3, 3))
        g = LinearMap(3, 3, random_matrix(rng, 3, 3))
        kr = kronecker(f, g)
        # independent dense ranks on all three matrices
        rf = dense_rank(matrix_of_linear_map(f))
        rg = dense_rank(matrix_of_linear_map(g))
        rfg = dense_rank(matrix_of_linear_map(kr))
        assert rfg == rf * rg
        assert kr.rank() == rfg


_entries = st.sampled_from([1, -1, 2, QQ(1, 2), QQ(-2, 3), QQ(3, 2)])


@st.composite
def _outer_case(draw):
    """(a, m, n) with a square m of size d (0 allowed) and a of width d n."""
    d, n, k = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 4))

    def matrix(rows, cols):
        cells = draw(st.dictionaries(st.tuples(st.integers(0, max(rows - 1, 0)),
                                               st.integers(0, max(cols - 1, 0))),
                                     _entries, max_size=rows * cols))
        return RationalMatrix(rows, cols, cells if rows and cols else None)

    return matrix(k, d * n), matrix(d, d), n


@settings(max_examples=50, deadline=None)
@given(case=_outer_case())
def test_times_outer_matches_kronecker_product(case):
    """The fused kernel against a @ kronecker(...) on both sides, with
    Fraction entries whose products are often integral, and with zero
    dimension factors on either side."""
    a, m, n = case
    d = m.rows
    left = a @ kronecker(LinearMap(d, d, m), LinearMap.identity(n)).matrix
    right = a @ kronecker(LinearMap.identity(n), LinearMap(d, d, m)).matrix
    for side, expected in (("left", left), ("right", right)):
        got = _times_outer(a, m, side, n)
        assert (got.rows, got.cols) == (a.rows, a.cols)
        assert got == expected
        assert _integral_fractions(got) == []


def test_times_outer_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        _times_outer(RationalMatrix(1, 5), RationalMatrix.identity(2), "left", 2)


def test_inverse_round_trip():
    m = RationalMatrix.from_rows([{0: 2, 1: 1}, {0: 1, 1: 1}], 2)
    f = LinearMap(2, 2, m)
    g = inverse(f)
    assert g is not None
    assert g.compose(f) == LinearMap.identity(2)
    assert f.compose(g) == LinearMap.identity(2)
    assert inverse(LinearMap.zero(2, 2)) is None
    assert inverse(LinearMap.zero(2, 3)) is None


def test_fraction_entries_survive():
    m = RationalMatrix.from_rows([{0: QQ(1, 2), 1: QQ(1, 3)}], 2)
    out, rank = rref(m)
    assert rank == 1
    assert out.entry(0, 0) == 1
    assert out.entry(0, 1) == QQ(2, 3)



def _integral_fractions(x):
    """The integral Fraction values of a matrix or a sparse vector; the
    int fast path allows none."""
    values = [v for _, _, v in x.entries()] if isinstance(x, RationalMatrix) else x.values()
    return [v for v in values if isinstance(v, QQ) and v.denominator == 1]


def test_scale_keeps_integral_entries_int():
    # a matrix is scaled by a one-term linear_combination
    m = linear_combination({0: QQ(1, 2)}, [RationalMatrix(1, 2, {(0, 0): 2, (0, 1): QQ(1, 3)})])
    assert m.entry(0, 0) == 1 and type(m.entry(0, 0)) is int
    assert m.entry(0, 1) == QQ(1, 6)
    half = RationalMatrix(1, 1, {(0, 0): QQ(1, 2)})
    assert _integral_fractions(linear_combination({0: 2}, [half])) == []


def test_add_and_sub_keep_integral_entries_int():
    m = RationalMatrix(1, 2, {(0, 0): QQ(1, 2), (0, 1): QQ(1, 3)})
    total = m + m
    assert total.entry(0, 0) == 1 and type(total.entry(0, 0)) is int
    assert total.entry(0, 1) == QQ(2, 3)
    diff = RationalMatrix(1, 1, {(0, 0): QQ(3, 2)}) - RationalMatrix(1, 1, {(0, 0): QQ(1, 2)})
    assert diff.entry(0, 0) == 1 and type(diff.entry(0, 0)) is int


def test_products_sums_and_algebra_mul_keep_integral_values_int():
    half, two = RationalMatrix(1, 1, {(0, 0): QQ(1, 2)}), RationalMatrix(1, 1, {(0, 0): 2})
    third = RationalMatrix(1, 2, {(0, 0): QQ(1, 3), (0, 1): QQ(2, 3)})
    results = [
        half @ two,
        half.apply({0: 2}),
        half.apply({0: QQ(4, 1)}),
        RationalMatrix(2, 1, {(0, 0): QQ(3, 2), (1, 0): QQ(1, 4)}) @ RationalMatrix(
            1, 2, {(0, 0): QQ(2, 3), (0, 1): 4}),
        linear_combination({0: 3, 1: QQ(3, 2)}, [third, third]),
        linear_combination({0: 2, 1: -1}, [half, half]),
        vec_add({0: QQ(1, 2), 1: 1}, {0: QQ(1, 2), 1: QQ(1, 3)}),
        vec_sub({0: QQ(3, 2)}, {0: QQ(1, 2), 2: QQ(-3, 3)}),
        scalar_algebra().mul({0: QQ(1, 2)}, {0: 2}),
        matrix_algebra(2).mul({0: QQ(2, 3), 1: QQ(1, 2)}, {0: QQ(3, 2), 2: 4}),
    ]
    for got in results:
        assert _integral_fractions(got) == [], got
    assert (half @ two).to_dense() == [[1]] and half.apply({0: 2}) == {0: 1}
    assert scalar_algebra().mul({0: QQ(1, 2)}, {0: 2}) == {0: 1}


def test_accumulate_adds_in_place_and_drops_cancellations():
    acc = {0: 1, 1: QQ(1, 2)}
    out = _accumulate(acc, {"a": 2, "b": QQ(-1, 2)}, {"a": {1: QQ(1, 4), 2: 3}, "b": {0: 2}})
    assert out is acc
    assert acc == {1: 1, 2: 6} and type(acc[1]) is int
    assert _accumulate({5: 1}, {}, []) == {5: 1}
    assert _accumulate({}, {0: 0}, [{0: 1}]) == {}


# Fraction entries, zero values included (the constructors drop them), and
# rows that are often empty
_cells = st.one_of(st.just(0), small_rationals)


def _dense_rows(rows, cols):
    return st.lists(st.dictionaries(st.integers(0, cols - 1), _cells, max_size=cols)
                    if cols else st.just({}), min_size=rows, max_size=rows)


@st.composite
def _matmul_case(draw):
    n, k, m = draw(st.integers(0, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    a = RationalMatrix.from_rows(draw(_dense_rows(n, k)), k)
    b = RationalMatrix.from_rows(draw(_dense_rows(k, m)), m)
    vec = draw(st.dictionaries(st.integers(0, k - 1), _cells, max_size=k))
    return a, b, vec


def _dense(m):
    return [[QQ(v) for v in row] for row in m.to_dense()]


@settings(max_examples=50, deadline=None)
@given(case=_matmul_case())
def test_matmul_and_apply_match_dense_oracle(case):
    a, b, vec = case
    prod = a @ b
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert _dense(prod) == dense_matmul(_dense(a), _dense(b))
    assert _integral_fractions(prod) == []
    column = dense_matmul(_dense(a), [[QQ(vec.get(j, 0))] for j in range(a.cols)])
    got = a.apply(vec)
    assert got == {r: row[0] for r, row in enumerate(column) if row[0]}
    assert _integral_fractions(got) == []


@st.composite
def _column_case(draw):
    # nonzero, normalized entries, as _of_columns takes them; empty columns
    # and zero-row shapes included
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = small_rationals.filter(bool).map(nrat)
    columns = draw(st.lists(st.dictionaries(st.integers(0, rows - 1), entry, max_size=rows)
                            if rows else st.just({}), min_size=cols, max_size=cols))
    left = RationalMatrix.from_rows(draw(_dense_rows(2, rows)), rows)
    right = RationalMatrix.from_rows(draw(_dense_rows(cols, 3)), 3)
    vec = draw(st.dictionaries(st.integers(0, cols - 1), _cells, max_size=cols)
               if cols else st.just({}))
    return rows, columns, left, right, vec


def _check_column_built(case, make):
    """make(columns, rows) against RationalMatrix.from_cols on one case."""
    rows, columns, left, right, vec = case
    plain = RationalMatrix.from_cols(columns, rows)

    def built():
        # a fresh one each time, so that every operation is the first to
        # read the rows, which are unset until then
        m = make([dict(c) for c in columns], rows)
        assert RationalMatrix._rows.__get__(m) is None
        return m

    assert built() == plain and plain == built()
    assert built()._rows == plain._rows
    assert built()._columns() == plain._columns()
    assert built().transpose() == plain.transpose()
    assert built() @ right == plain @ right and left @ built() == left @ plain
    assert built().apply(vec) == plain.apply(vec)
    m = built()
    assert m.nnz() == plain.nnz() and RationalMatrix._rows.__get__(m) is None
    assert [[built().entry(r, c) for c in range(len(columns))] for r in range(rows)] \
        == plain.to_dense()
    assert hash(built()) == hash(plain)
    m = built()
    for result in (m @ right, left @ m, m + plain, m - plain, m.transpose()):
        assert type(result) is RationalMatrix


@settings(max_examples=50, deadline=None)
@given(case=_column_case())
def test_column_built_matrix_matches_from_cols(case):
    _check_column_built(case, RationalMatrix._of_columns)


def _streamed(columns, rows):
    """A streamed matrix over columns, with a log of its stream's runs."""
    runs = []

    def stream():
        runs.append(1)
        return (dict(c) for c in columns)

    return RationalMatrix._streamed(stream, rows, len(columns)), runs


def _listed(m):
    """The columns one run of m._column_blocks() hands over, in order."""
    return [col for block in m._column_blocks() for col in block]


@settings(max_examples=50, deadline=None)
@given(case=_column_case())
def test_streamed_matrix_matches_from_cols(case):
    _check_column_built(case, lambda columns, rows: _streamed(columns, rows)[0])
    rows, columns = case[:2]
    m, runs = _streamed(columns, rows)
    # a pass and nnz list nothing; the pass records nnz, so nnz reruns nothing
    assert _listed(m) == columns and m._colcache is None
    assert m.nnz() == sum(map(len, columns)) and m._colcache is None and len(runs) == 1
    # _columns() lists the stream once, and later passes read that list
    assert m._columns() == columns and m._columns() is m._colcache and len(runs) == 2
    assert _listed(m) == columns and len(runs) == 2
    assert m.nnz() == sum(map(len, columns))
    # nnz on a stream that was never run counts a run of it, listing nothing
    m, runs = _streamed(columns, rows)
    assert m.nnz() == sum(map(len, columns)) == m.nnz()
    assert m._colcache is None and len(runs) == 1


@settings(max_examples=50, deadline=None)
@given(data=st.data(), count=st.integers(1, 4), rows=st.integers(0, 3),
       cols=st.integers(1, 3))
def test_linear_combination_matches_dense_oracle(data, count, rows, cols):
    mats = [RationalMatrix.from_rows(data.draw(_dense_rows(rows, cols)), cols)
            for _ in range(count)]
    coeffs = data.draw(st.dictionaries(st.integers(0, count - 1), _cells, max_size=count))
    expected = [[QQ(0)] * cols for _ in range(rows)]
    for s, c in coeffs.items():
        for r, c2, v in mats[s].entries():
            expected[r][c2] += c * v
    got = linear_combination(coeffs, mats)
    assert (got.rows, got.cols) == (rows, cols)
    assert _dense(got) == expected
    assert _integral_fractions(got) == []


@settings(max_examples=50, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3))
def test_algebra_mul_matches_structure_constant_oracle(data, dim):
    """mul needs no associativity, so any table is built unchecked."""
    pairs = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    table = data.draw(st.dictionaries(
        pairs, st.dictionaries(st.integers(0, dim - 1), _cells, max_size=dim), max_size=dim * dim))
    alg = StructureAlgebra(dim, [str(k) for k in range(dim)], table, check=False)
    elements = st.dictionaries(st.integers(0, dim - 1), _cells, max_size=dim)
    x, y = data.draw(elements), data.draw(elements)
    got = alg.mul(x, y)
    assert got == _product(alg.structure, x, y)
    assert _integral_fractions(got) == []


sparse_int_rows = st.integers(1, 8).flatmap(lambda width: st.lists(
    st.dictionaries(st.integers(0, width - 1),
                    st.integers(-3, 3).filter(bool), max_size=width),
    max_size=10,
))


@settings(max_examples=300, deadline=None)
@given(rows=sparse_int_rows, extra=st.integers(0, 3))
def test_forward_echelon_stops_at_rank_bound(rows, extra):
    full = _forward_echelon(rows)
    width = 1 + max((c for r in rows for c in r), default=0)
    rank = dense_rank([[QQ(r.get(c, 0)) for c in range(width)] for r in rows])
    assert len(full) == rank
    for stop in (rank, rank + extra):
        assert _forward_echelon(rows, stop_at=stop) == full
    # below the rank the pivots found so far are kept unchanged
    for stop in range(rank):
        part = _forward_echelon(rows, stop_at=stop)
        assert len(part) == stop
        assert all(full[c] == row for c, row in part.items())


@settings(max_examples=300, deadline=None)
@given(rows=sparse_int_rows, extra=st.integers(0, 3))
def test_forward_echelon_trailing_pivots_match_dense_rank(rows, extra):
    # pivoting each row on its highest column finds the same number of
    # independent rows as the dense oracle, and stops at a bound
    width = 1 + max((c for r in rows for c in r), default=0)
    dense = [[QQ(r.get(c, 0)) for c in range(width)] for r in rows]
    rank = dense_rank(dense)
    full = _forward_echelon(rows, lead=max)
    assert len(full) == rank
    assert all(max(row) == c for c, row in full.items())
    for stop in (rank, rank + extra):
        assert _forward_echelon(rows, stop_at=stop, lead=max) == full
    for stop in range(rank):
        part = _forward_echelon(rows, stop_at=stop, lead=max)
        assert len(part) == stop


# rows with even entries and halves, so that 2-torsion (rank mod 2 below
# the rank over Q) is common
mod2_rows = st.lists(st.dictionaries(
    st.integers(0, 5),
    st.one_of(st.integers(-4, 4),
              st.fractions(min_value=-2, max_value=2, max_denominator=4)),
    max_size=4,
), max_size=9)


@settings(max_examples=300, deadline=None)
@given(rows=mod2_rows, limit=st.integers(0, 7))
def test_mod2_independent_matches_dense_oracles(rows, limit):
    dense = [[QQ(r.get(c, 0)) for c in range(6)] for r in rows]
    picked = _mod2_independent(rows, limit)
    assert len(set(picked)) == len(picked) <= limit
    assert all(0 <= i < len(rows) for i in picked)
    # independent mod 2, hence independent over Q
    assert dense_rank([dense[i] for i in picked]) == len(picked)
    assert len(picked) == min(limit, dense_rank_mod2(dense))


@settings(max_examples=300, deadline=None)
@given(rows=mod2_rows.map(lambda rows: [{k: v for k, v in r.items() if v} for r in rows]),
       limit=st.integers(0, 7))
def test_mod2_independent_picks_as_on_primitive_forms(rows, limit):
    # rows are converted lazily, sorted by their raw support; with nonzero
    # values that is the support of their primitive forms, so the picks
    # are those made on the converted rows
    assert _mod2_independent(rows, limit) == \
        _mod2_independent([_int_row(r) for r in rows], limit)


def test_mod2_independent_misses_two_torsion():
    # e_0 + e_1, e_1 + e_2, e_0 + e_2 are independent over Q (det 2) but
    # sum to zero mod 2; a row of content 2 still counts once primitive
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}, {3: 2}]
    assert dense_rank([[QQ(r.get(c, 0)) for c in range(4)] for r in rows]) == 4
    picked = _mod2_independent(rows, 4)
    assert len(picked) == 3 and 3 in picked
    # index order: the third row is the sum of the first two mod 2
    assert picked == [0, 1, 3]


# ----------------------------------------------------------- binomial spans

_WEIGHTS = [1, -1, 2, QQ(-1, 3), QQ(1, 18), -3]
_coeff = st.sampled_from(_WEIGHTS) | st.just(0)
binomial_relations = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), _coeff) | st.tuples(
        st.integers(0, n - 1), _coeff, st.integers(0, n - 1), _coeff), max_size=12),
))


def _relation_vectors(n, relations):
    """The dense vectors a e_i + b e_j of the relations."""
    out = []
    for rel in relations:
        i, a, j, b = rel if len(rel) == 4 else (rel[0], rel[1], rel[0], 0)
        v = [QQ(0)] * n
        v[i] += a
        v[j] += b
        out.append(v)
    return out


def _check_binomial_span(n, relations):
    got = binomial_span(n, relations)
    vectors = _relation_vectors(n, relations)
    rows, rank, _ = dense_rref(vectors) if vectors else ([], 0, [])
    assert got.ambient_dim == n
    assert got.basis.to_dense() == rows[:rank]
    assert _integral_fractions(got.basis) == []
    assert got == Subspace.from_spanning(n, [{k: x for k, x in enumerate(v) if x}
                                             for v in vectors])


@settings(max_examples=300, deadline=None)
@given(case=binomial_relations, dup=st.integers(0, 4), rnd=st.randoms(use_true_random=False))
def test_binomial_span_matches_dense_rref(case, dup, rnd):
    n, relations = case
    # duplicates, in any order
    relations = relations + relations[:dup]
    rnd.shuffle(relations)
    _check_binomial_span(n, relations)


@pytest.mark.parametrize("relations, dim", [
    ([], 0),
    ([(2, QQ(1, 18))], 1),                               # one term
    ([(1, 2, 1, -2)], 0),                                # i == j, a = -b
    ([(1, 2, 1, QQ(-1, 3))], 1),                         # i == j, a != -b
    ([(0, 1, 1, -2), (0, 1, 1, -2), (1, -1, 0, QQ(1, 2))], 1),  # duplicates
    # e0 = 2 e1, e1 = -1/3 e2, e2 = -3/2 e0: weight product 1
    ([(0, 1, 1, -2), (1, 1, 2, QQ(1, 3)), (2, 1, 0, QQ(3, 2))], 2),
    # e2 = -1/18 e0 closes the cycle with product 1/27, which kills it
    ([(0, 1, 1, -2), (1, 1, 2, QQ(1, 3)), (2, 1, 0, QQ(1, 18))], 3),
    # a killed component joined to a surviving one kills both
    ([(3, -1), (0, 1, 1, -2), (1, 1, 3, 2)], 3),
])
def test_binomial_span_cases(relations, dim):
    _check_binomial_span(4, relations)
    assert binomial_span(4, relations).dim == dim


@pytest.mark.parametrize("relations, dim", [
    # unions by a coefficient of +-1 that is a Fraction, or against a
    # Fraction or integral-Fraction weight, go through the exact ratio
    ([(0, QQ(1), 1, 3)], 1),
    ([(0, -1, 1, QQ(1, 2)), (1, QQ(-1), 2, QQ(4, 2))], 2),
    # +-1 unions only: e0 = e1, e1 = e2, and e2 = -e0 closes an
    # inconsistent cycle, which kills the component
    ([(0, 1, 1, -1), (1, 1, 2, -1), (2, 1, 0, 1)], 3),
    ([(0, 1, 1, -1), (1, -1, 2, 1), (2, 1, 0, -1)], 2),
    # non-unit weights: e0 = 2 e1, e1 = 2 e2, then e2 = e0 / 4 is
    # consistent and e2 = e0 / 3 is not
    ([(0, 2, 1, -4), (1, 3, 2, -6), (2, 1, 0, QQ(-1, 4))], 2),
    ([(0, 2, 1, -4), (1, 3, 2, -6), (2, 1, 0, QQ(-1, 3))], 3),
    # a +-1 union hanging a root whose component has non-unit weights
    ([(1, 2, 2, -1), (0, 1, 2, -1), (3, -1, 0, 1)], 3),
])
def test_binomial_span_unit_and_non_unit_unions(relations, dim):
    _check_binomial_span(4, relations)
    assert binomial_span(4, relations).dim == dim


_unit_heavy = st.sampled_from([1, -1, QQ(1), QQ(-1), 2, QQ(1, 2), QQ(6, 3)])


@settings(max_examples=50, deadline=None)
@given(case=st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), _unit_heavy, st.integers(0, n - 1), _unit_heavy),
    max_size=10))))
def test_binomial_span_unit_heavy_unions_match_dense_rref(case):
    """Mostly +-1 coefficients, some of them Fractions, so both ways of
    setting a union's weight run, and cycles close consistently or not."""
    _check_binomial_span(*case)


# ------------------------------------------------------- storage boundary

_STORAGE = {"_rows", "_colcache", "_stream", "_nnz"}
_MUTATORS = {"append", "clear", "extend", "insert", "pop", "popitem", "remove",
             "setdefault", "update"}


def _writes_storage(target) -> bool:
    """Whether an assignment or del target is a storage attribute, an item
    of one at any depth, or a tuple or list holding one."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_storage(t) for t in target.elts)
    if isinstance(target, (ast.Subscript, ast.Starred)):
        return _writes_storage(target.value)
    return isinstance(target, ast.Attribute) and target.attr in _STORAGE


def test_only_exactla_writes_matrix_storage():
    """RationalMatrix storage belongs to exactla: every other module builds
    matrices through its constructors and at most reads the views."""
    src = pathlib.Path(moritalab.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "exactla.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS):
                targets = [node.func.value]
            else:
                continue
            if any(_writes_storage(t) for t in targets):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _enclosing_defs(tree):
    """(qualified name of the enclosing defs, node) for every node."""
    stack = [("", tree)]
    while stack:
        name, node = stack.pop()
        yield name, node
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            stack.append((inner, child))


_DEL_OWNERS = {("exactla.py", "_accumulate"), ("exactla.py", "_combine"),
               ("homology.py", "bar_complex")}
_XOR_OWNERS = {("exactla.py", "_mod2_independent")}


def _deletes_an_item(node) -> bool:
    return isinstance(node, ast.Delete) and any(isinstance(t, ast.Subscript)
                                                for t in node.targets)


def _reduces_mod2(node) -> bool:
    """An XOR step or a bit_length pivot: the mod-2 selector's reduction."""
    return ((isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitXor))
            or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor))
            or (isinstance(node, ast.Attribute) and node.attr == "bit_length"))


def _found_outside(owners, found) -> list:
    src = pathlib.Path(moritalab.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        for name, node in _enclosing_defs(ast.parse(path.read_text(encoding="utf-8"))):
            if found(node) and (path.name, name.split(".")[0]) not in owners:
                offenders.append(f"{path.name}:{node.lineno} in {name or '<module>'}")
    return offenders


def test_only_the_accumulate_kernel_deletes_cancelled_entries():
    """One sparse accumulate kernel: a del of a dict item (a cancelled
    entry) appears only in exactla._accumulate and the index-mapping
    loops of the elimination engine and the bar build. One mod-2
    selector: XOR and bit_length appear only in exactla._mod2_independent,
    so the pass that streams a bar boundary cannot carry a copy of it."""
    assert _found_outside(_DEL_OWNERS, _deletes_an_item) == []
    assert _found_outside(_XOR_OWNERS, _reduces_mod2) == []
