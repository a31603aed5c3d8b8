"""Exact linear algebra kernels against trivial cases and dense oracles."""

import random
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings, strategies as st

from moritalab.exactla import (
    LinearMap,
    RationalMatrix,
    Subspace,
    _forward_echelon,
    _int_row,
    image,
    inverse,
    kernel,
    kronecker,
    l1_operator_norm,
    quotient,
    rref,
    solve,
    subspace_equal,
)
from moritalab.structures import matrix_algebra

from oracles import dense_rank, dense_rref, matrix_of_linear_map, span_contains


def random_matrix(rng, rows, cols, density=0.5, span=5):
    m = RationalMatrix(rows, cols)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randint(-span, span)
                if v:
                    m._rows[r][c] = v
    return m


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
       coeffs=st.lists(small_rationals, min_size=5, max_size=5), in_span=st.booleans())
def test_contains_matches_dense_rank_oracle(spanning, candidate, coeffs, in_span):
    # contains(v) holds iff appending v to the spanning set keeps the rank
    if in_span:
        # a combination of the spanning vectors, so both answers occur often
        combo = {}
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
        sources = []
        assert _forward_echelon(rows, stop_at=stop, sources=sources) == full
        # the recorded source rows are independent rows of the input
        picked = [[QQ(rows[i].get(c, 0)) for c in range(width)] for i in sources]
        assert len(sources) == rank and dense_rank(picked) == rank
    # below the rank the pivots found so far are kept unchanged
    for stop in range(rank):
        part = _forward_echelon(rows, stop_at=stop)
        assert len(part) == stop
        assert all(full[c] == row for c, row in part.items())
