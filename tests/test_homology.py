"""Bar complex, Hochschild (co)homology, derivations, diagonals."""

import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from moritalab.structures import (
    StructureAlgebra,
    brandt,
    cyclic_group,
    find_unit,
    group_algebra,
    matrix_algebra,
    scalar_algebra,
    semigroup_algebra,
    symmetric_group,
)
from moritalab.bimodules import (
    Bimodule,
    dual_bimodule,
    induced_completion,
    regular_bimodule,
    seeded_random_bimodule,
)
from moritalab.homology import (
    ChainComplex,
    NotUnitalError,
    SizeLimitError,
    bar_complex,
    derivation_space,
    diagonal_check,
    hochschild_cohomology,
    hochschild_homology,
    vanishing_suite,
)
from moritalab import exactla, homology
from moritalab.exactla import (
    LinearMap,
    RationalMatrix,
    _accumulate,
    _forward_echelon,
    _mod2_independent,
    image,
    kernel,
    solve,
)

from oracles import (
    bar_boundary,
    dense_rank,
    dense_rank_mod2,
    diagonal_defects,
    diagonal_system,
    digit_bar_boundaries,
    inner_columns,
    is_unit,
    leibniz_rows,
    matrix_of_linear_map,
    rescaled,
    unit_system,
)


# ----------------------------------------------------------------- bar complex

def test_bar_boundary_commutative_trivial():
    sc = scalar_algebra()
    cx = bar_complex(sc, regular_bimodule(sc), 1)
    assert cx.boundary(1).matrix.is_zero()


def test_bar_space_dimensions():
    m2 = matrix_algebra(2)
    cx = bar_complex(m2, regular_bimodule(m2), 2)
    assert cx.spaces == [4, 16, 64, 256]


def test_bar_composite_zero_checked_on_construction():
    sa = semigroup_algebra(brandt(2, cyclic_group(2)))
    cx = bar_complex(sa, regular_bimodule(sa), 2)
    for n in range(1, 3):
        comp = cx.boundary(n).compose(cx.boundary(n + 1))
        assert comp.matrix.is_zero()


def test_bar_degree_one_is_commutator_map():
    m2 = matrix_algebra(2)
    cx = bar_complex(m2, regular_bimodule(m2), 1)
    b1 = cx.boundary(1)
    # b1(x (x) a) = x.a - a.x on basis pairs
    for x in range(4):
        for a in range(4):
            expected = dict(m2.structure.get((x, a), {}))
            for r, v in m2.structure.get((a, x), {}).items():
                y = expected.get(r, 0) - v
                if y:
                    expected[r] = y
                elif r in expected:
                    del expected[r]
            assert b1.col(x * 4 + a) == expected


def test_bar_boundaries_match_face_by_face_oracle():
    b1c2 = semigroup_algebra(brandt(1, cyclic_group(2)))
    reg = regular_bimodule(b1c2)
    raw = seeded_random_bimodule(b1c2, 3)
    # the raw random module is not monomial: some action column has two entries
    assert any(len(m.col(c)) > 1 for m in raw.left_action + raw.right_action
               for c in range(raw.dim))
    m2, dual = matrix_algebra(2), dual_numbers()
    cases = [(b1c2, reg), (b1c2, raw), (b1c2, induced_completion(b1c2, dual_bimodule(reg))),
             (m2, regular_bimodule(m2)), (dual, regular_bimodule(dual))]
    for a, e in cases:
        cx = bar_complex(a, e, 2)
        for n in (1, 2, 3):
            b = cx.boundary(n)
            assert [b.col(c) for c in range(b.source_dim)] == bar_boundary(a, e, n), \
                (a.name, e.name, n)


@pytest.fixture(scope="module")
def build_cases():
    b1c2 = semigroup_algebra(brandt(1, cyclic_group(2)))
    cases = []
    for a in (b1c2, semigroup_algebra(brandt(2, cyclic_group(2))),
              semigroup_algebra(brandt(2, cyclic_group(3))), matrix_algebra(2)):
        reg = regular_bimodule(a)
        cases += [(a, reg), (a, induced_completion(a, dual_bimodule(reg))),
                  (a, induced_completion(a, seeded_random_bimodule(a, 7)))]
    # Fraction structure constants, so Fraction actions and faces
    fr = rescaled(b1c2)
    cases += [(b1c2, seeded_random_bimodule(b1c2, 3)), (fr, regular_bimodule(fr))]
    return cases


@pytest.mark.parametrize("n_max", [0, 1, 2])
def test_bar_boundaries_equal_the_digit_build(build_cases, n_max):
    fractions = False
    for a, e in build_cases:
        cx = bar_complex(a, e, n_max)
        ref = digit_bar_boundaries(a, e, n_max)
        assert len(cx.boundaries) == len(ref) == n_max + 1
        for n, (b, m) in enumerate(zip(cx.boundaries, ref), start=1):
            assert b.matrix == m, (a.name, e.name, n)
            assert b.matrix._columns() == b.matrix.transpose()._rows, (a.name, e.name, n)
            fractions |= any(isinstance(v, Fraction) for _, _, v in m.entries())
    assert fractions == (n_max > 0)


@pytest.mark.parametrize("seed", range(4))
def test_one_changed_entry_of_b3_fails_the_composite_check(seed):
    sa = semigroup_algebra(brandt(2, cyclic_group(2)))
    cx = bar_complex(sa, regular_bimodule(sa), 2)
    b2, b3 = (cx.boundary(n).matrix for n in (2, 3))
    rng = random.Random(seed)
    # b_2 does not kill basis vector r of C_2, so changing entry (r, c) of
    # b_3 changes column c of b_2 b_3
    r = rng.choice([k for k, col in enumerate(b2._columns()) if col])
    c = rng.randrange(b3.cols)
    bad = RationalMatrix.from_rows(b3._rows, b3.cols)
    bad._rows[r][c] = b3.entry(r, c) + 1 or 2
    boundaries = cx.boundaries[:2] + [LinearMap(b3.cols, b3.rows, bad)]
    ChainComplex(sa, cx.coefficients, cx.spaces, cx.boundaries)
    with pytest.raises(RuntimeError, match="composite b_2 b_3 is nonzero"):
        ChainComplex(sa, cx.coefficients, cx.spaces, boundaries)


@pytest.mark.parametrize("seed", range(4))
def test_one_changed_entry_of_b2_fails_the_composite_check(seed):
    sa = semigroup_algebra(brandt(2, cyclic_group(2)))
    cx = bar_complex(sa, regular_bimodule(sa), 2)
    b1, b2, b3 = (cx.boundary(n).matrix for n in (1, 2, 3))
    rng = random.Random(seed)
    # b_1 kills basis vector r of C_1 (x (x) a with xa = ax), so changing
    # entry (r, c) of b_2 leaves b_1 b_2 zero; row c of b_3 is not zero,
    # so the change reaches row r of b_2 b_3
    r = rng.choice([k for k, col in enumerate(b1._columns()) if not col])
    c = rng.choice(sorted({k for col in b3._columns() for k in col}))
    bad = RationalMatrix.from_cols(b2._columns(), b2.rows)
    bad._rows[r][c] = b2.entry(r, c) + 1 or 2
    boundaries = [cx.boundaries[0], LinearMap(b2.cols, b2.rows, bad), cx.boundaries[2]]
    with pytest.raises(RuntimeError, match="composite b_2 b_3 is nonzero"):
        ChainComplex(sa, cx.coefficients, cx.spaces, boundaries)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_one_changed_entry_of_the_streamed_b3_fails_the_composite_check(where):
    # the top boundary is never stored: corrupt one column as its stream
    # yields it, ahead of the mod-2 pick or in the part only checked
    sa = semigroup_algebra(brandt(2, cyclic_group(2)))
    cx = bar_complex(sa, regular_bimodule(sa), 2)
    b2, b3 = (cx.boundary(n).matrix for n in (2, 3))
    c = {"first": 0, "middle": b3.cols // 2, "last": b3.cols - 1}[where]
    r = random.Random(c).choice([k for k, col in enumerate(b2._columns()) if col])

    def corrupted():
        for j, col in enumerate(b3._stream()):
            if j == c:
                col = {**col, r: col.get(r, 0) + 1 or 2}
            yield col

    bad = RationalMatrix._streamed(corrupted, b3.rows, b3.cols)
    boundaries = cx.boundaries[:2] + [LinearMap(b3.cols, b3.rows, bad)]
    with pytest.raises(RuntimeError, match="composite b_2 b_3 is nonzero"):
        ChainComplex(sa, cx.coefficients, cx.spaces, boundaries)
    assert bad._colcache is None


@pytest.mark.parametrize("change", ["raised", "rational"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_large_or_rational_entry_of_the_streamed_b3_fails_the_composite_check(where, change):
    # raising an entry by 2^40 puts its column's l1 norm past the packing
    # bound, so the columns of b_2 are packed again; a Fraction entry makes
    # the column rational, so it is checked in its primitive integer form
    sa = semigroup_algebra(brandt(2, cyclic_group(2)))
    cx = bar_complex(sa, regular_bimodule(sa), 2)
    b2, b3 = (cx.boundary(n).matrix for n in (2, 3))
    c = {"first": 0, "middle": b3.cols // 2, "last": b3.cols - 1}[where]
    r = random.Random(c).choice([k for k, col in enumerate(b2._columns()) if col])

    def corrupted():
        for j, col in enumerate(b3._stream()):
            if j == c:
                entry = col.get(r, 0) + 2 ** 40 if change == "raised" else Fraction(1, 2)
                col = {**col, r: entry}
            yield col

    bad = RationalMatrix._streamed(corrupted, b3.rows, b3.cols)
    boundaries = cx.boundaries[:2] + [LinearMap(b3.cols, b3.rows, bad)]
    with pytest.raises(RuntimeError, match="composite b_2 b_3 is nonzero"):
        ChainComplex(sa, cx.coefficients, cx.spaces, boundaries)


def test_rational_columns_of_large_l1_norm_pass_the_composite_check():
    # b_1 has rational rows; the columns of b_2 span its kernel with
    # Fraction entries and l1 norms far past the first packing bound
    b1 = RationalMatrix._of_columns(
        [{0: Fraction(1, 3)}, {0: Fraction(-2, 3), 1: 5}, {1: Fraction(5, 7)}, {}], 2)
    kernel_cols = [{0: 2, 1: 1, 2: -7}, {3: 1}]
    b2 = RationalMatrix._of_columns(
        [{r: v * Fraction(10 ** 12 + 1, 3) for r, v in kernel_cols[0].items()},
         {3: Fraction(-1, 10 ** 9)},
         {0: 2 * 10 ** 15, 1: 10 ** 15, 2: -7 * 10 ** 15, 3: Fraction(1, 2)}], 4)
    boundaries = [LinearMap(4, 2, b1), LinearMap(3, 4, b2)]
    assert not any(_accumulate({}, col, b1._columns()) for col in b2._columns())
    packed = homology._PackedColumns(b1._columns(), 2, 2)
    assert all(packed.kills(col) for col in b2._columns()) and packed.bound > 2  # repacked
    cx = ChainComplex(None, None, [2, 4, 3], boundaries)
    assert (cx.col_rank(1), cx.col_rank(2)) == (2, 2)
    bad = RationalMatrix._of_columns(b2._columns()[:2] + [{0: 1, 3: 10 ** 30}], 4)
    with pytest.raises(RuntimeError, match="composite b_1 b_2 is nonzero"):
        ChainComplex(None, None, [2, 4, 3], [boundaries[0], LinearMap(3, 4, bad)])


def test_a_rational_column_is_tested_in_its_primitive_form():
    # W = 3 here, so v's digits 1 and -1/8 would carry into s = 1 - 1 = 0:
    # the digit bound holds only for integral digits
    packed = homology._PackedColumns([{0: 1}, {1: 1}], 2, 2)
    assert packed.width == 3
    assert not packed.kills({0: 1, 1: Fraction(-1, 8)})
    assert packed.bound == 9  # the l1 norm of the primitive form {0: 8, 1: -1}


_entries = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))


@st.composite
def _packing_case(draw):
    """Columns of a matrix B, the last a combination of the others, and
    columns v with B v = 0 unless one entry was changed."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.lists(st.dictionaries(st.integers(0, rows - 1), _entries, max_size=rows),
                         min_size=1, max_size=4))
    coeffs = draw(st.lists(_entries, min_size=len(cols), max_size=len(cols)))
    combo = {k: a for k, a in enumerate(coeffs) if a}
    cols.append(_accumulate({}, combo, cols))
    vs = []
    for _ in range(draw(st.integers(1, 4))):
        t = draw(st.sampled_from([1, -1, 2 ** 20, Fraction(1, 3), Fraction(-7, 10 ** 6)]))
        v = {k: a * t for k, a in combo.items()}
        v[len(cols) - 1] = -t
        if draw(st.booleans()):
            k = draw(st.integers(0, len(cols) - 1))
            v[k] = v.get(k, 0) + draw(_entries)
        vs.append({k: a for k, a in v.items() if a})
    return cols, rows, vs


@settings(max_examples=300, deadline=None)
@given(case=_packing_case(), bound=st.integers(1, 4))
def test_packed_columns_agree_with_the_accumulate_kernel(case, bound):
    cols, rows, vs = case
    packed = homology._PackedColumns(cols, rows, bound)
    width = packed.width
    for v in vs:
        assert packed.kills(v) == (not _accumulate({}, v, cols))
        assert packed.width >= width and packed.bound >= bound
        width = packed.width


@settings(max_examples=200, deadline=None)
@given(m=st.integers(2, 12), data=st.data())
def test_packed_digits_may_sit_at_the_digit_bound(m, data):
    # L E = 2^(m-1) - 1 packs at the least width W = m, and a v of l1 norm
    # L can make every digit of the product +-(2^(W-1) - 1)
    top = 2 ** (m - 1) - 1
    bound = data.draw(st.sampled_from([d for d in range(1, top + 1) if top % d == 0]))
    largest = top // bound
    rows = data.draw(st.integers(1, 6))
    signs = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=rows, max_size=rows))
    taus = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=4))
    cols = [{r: largest * sg * tau for r, sg in enumerate(signs) if sg} for tau in taus]
    cols.append({0: largest})  # so the largest entry is there even when signs are all 0
    cuts = sorted(data.draw(st.sets(st.integers(1, bound - 1), max_size=len(taus) - 1))
                  if bound > 1 else [])
    weights = [b - a for a, b in zip([0] + cuts, cuts + [bound])]  # positive, sum L
    packed = homology._PackedColumns(cols, rows, bound)
    assert packed.width == m
    v = {k: tau * w for k, (tau, w) in enumerate(zip(taus, weights))}
    product = _accumulate({}, v, cols)
    assert all(abs(c) == top for c in product.values())
    assert packed.kills(v) == (not product) == (not any(signs))
    assert packed.width == m


def _count_stream_runs(monkeypatch):
    """Make every streamed matrix log each run of its stream; returns the
    log, one entry per run."""
    runs = []
    streamed = RationalMatrix._streamed

    def logged(stream, rows, cols):
        return streamed(lambda: runs.append(cols) or stream(), rows, cols)

    monkeypatch.setattr(RationalMatrix, "_streamed", staticmethod(logged))
    return runs


def test_top_boundary_is_streamed_once_and_never_listed(monkeypatch):
    # regular l1(B(2,C3)), n = 2: b_3 has 28,561 columns, and the pass at
    # construction is the only run of its stream while ranks are certified
    sa = semigroup_algebra(brandt(2, cyclic_group(3)))
    reg = regular_bimodule(sa)
    runs = _count_stream_runs(monkeypatch)
    cx = bar_complex(sa, reg, 2)
    b3 = cx.boundary(3).matrix
    assert runs == [28561]
    for n in (1, 2, 3):
        cx.col_rank(n)
        cx.row_rank(n)
    assert cx.col_rank(3) == 2037 and cx.certificates[("col", 3)] == "bound"
    assert b3._colcache is None and _row_slot(b3) is None
    # the pass counted nnz
    assert b3.nnz() == 105960 and b3._colcache is None and runs == [28561]
    # listed on demand, it is the face-by-face boundary
    assert b3._columns() == bar_boundary(sa, reg, 3)
    assert runs == [28561, 28561]


def test_top_degree_two_torsion_fallback_lists_the_boundary_once(monkeypatch):
    # l1(B(1,C2)), n = 1: mod 2 the columns of b_2 span 7 of its rank 9,
    # so the column path goes on past the 7 picks with the other columns,
    # streamed afresh up to the bound; only the full row echelon lists b_2
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    runs = _count_stream_runs(monkeypatch)
    cx = bar_complex(sa, regular_bimodule(sa), 1)
    b2 = cx.boundary(2)
    assert runs == [27] and b2.matrix._colcache is None
    calls = _record_engine_calls(monkeypatch)
    echelons = _record_column_echelons(monkeypatch)
    assert cx.col_rank(2) == 9 and cx.certificates[("col", 2)] == "bound"
    # 7 picks, then 9 of the other columns, up to the 9th pivot
    assert calls == [] and echelons == [(7, 9, 16, 9)]
    assert runs == [27, 27] and b2.matrix._colcache is None
    assert cx.row_rank(2) == 9 and runs == [27, 27] and b2.matrix._colcache is None
    assert len(cx.exhaustive_pivots("row", 2)) == 9
    assert dense_rank(matrix_of_linear_map(b2)) == 9
    assert runs == [27, 27, 27]


def _row_slot(m):
    """The row storage of a matrix, None while a column-built one has not
    scattered its rows."""
    return RationalMatrix._rows.__get__(m)


def test_vanishing_suite_scatters_rows_only_for_the_row_fallback(monkeypatch):
    sa = semigroup_algebra(brandt(2, cyclic_group(3)))
    built = []
    true_build = homology.bar_complex

    def build(*args, **kw):
        cx = true_build(*args, **kw)
        built.append(cx)
        return cx

    monkeypatch.setattr(homology, "bar_complex", build)
    rep = vanishing_suite(sa, [regular_bimodule(sa)], 2)
    assert rep.passed and [e.degrees for e in rep.entries] == [[(1, 0, 0), (2, 0, 0)]]
    cx, = built
    # b_2 and b_3 (28,561 columns) have their row ranks proven by the
    # bound and never scatter; H_0 != 0, so the row rank of b_1 (169
    # columns) is eliminated over all its rows, which scatters them once
    certs = [cx.certificates[("row", n)] for n in (1, 2, 3)]
    assert certs == ["exhaustive", "bound", "bound"]
    assert [_row_slot(b.matrix) is None for b in cx.boundaries] == [False, True, True]


def test_non_vanishing_complex_scatters_rows_for_the_row_fallback():
    # H_n of the dual numbers never vanishes, so no rank meets its bound
    # and the row path eliminates every row of every boundary
    dual = dual_numbers()
    cx = bar_complex(dual, regular_bimodule(dual), 3)
    mats = [b.matrix for b in cx.boundaries]
    assert all(_row_slot(m) is None for m in mats)
    ranks = []
    for n, m in enumerate(mats, start=1):
        ranks.append((cx.col_rank(n), cx.row_rank(n), len(cx.exhaustive_pivots("row", n))))
        assert cx.certificates[("row", n)] == "exhaustive"
        assert _row_slot(m) == RationalMatrix.from_rows(m._columns(), m.rows).transpose()._rows
    assert ranks == [(0, 0, 0), (3, 3, 3), (4, 4, 4), (11, 11, 11)]


def test_vanishing_suite_frees_each_complex_before_the_next(monkeypatch):
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    reg = regular_bimodule(sa)
    built = []
    true_build = homology.bar_complex

    def build(*args, **kw):
        assert all(ref() is None for ref in built), "a previous complex is still alive"
        cx = true_build(*args, **kw)
        built.append(weakref.ref(cx))
        return cx

    monkeypatch.setattr(homology, "bar_complex", build)
    rep = vanishing_suite(sa, [reg, dual_bimodule(reg), reg], 1)
    assert len(built) == 3 and rep.passed


def test_bar_size_limit_total_entry_count():
    sa = semigroup_algebra(brandt(2, symmetric_group(3)))
    with pytest.raises(SizeLimitError) as err:
        bar_complex(sa, regular_bimodule(sa), 3)
    assert err.value.total == 25 * (1 + 25 + 625 + 15625 + 390625)
    assert err.value.worst_dim == 25 ** 5 // 25 * 25  # 9765625
    # one degree lower fits comfortably
    bar_complex(sa, regular_bimodule(sa), 1)


# -------------------------------------------------------------------- homology

def test_h0_scalars():
    sc = scalar_algebra()
    res = hochschild_homology(sc, regular_bimodule(sc), 0)
    assert res.betti == 1
    assert len(res.cycle_reps) == 1


def test_h0_matrix_algebra_is_trace_line():
    m2 = matrix_algebra(2)
    res = hochschild_homology(m2, regular_bimodule(m2), 0)
    # oracle: the commutator image has rank 3, frozen via dense elimination
    cx = bar_complex(m2, regular_bimodule(m2), 0)
    assert dense_rank(matrix_of_linear_map(cx.boundary(1))) == 3
    assert res.boundary_rank == 3
    assert res.betti == 1


def test_h1_h2_matrix_algebra_vanish():
    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    cx = bar_complex(m2, reg, 2)
    assert hochschild_homology(m2, reg, 1, complex=cx).betti == 0
    assert hochschild_homology(m2, reg, 2, complex=cx).betti == 0


def test_homology_nonvanishing_case_has_representatives():
    # dual numbers (x^2 = 0) are not separable; H_1 with regular
    # coefficients is nonzero and representatives must be genuine cycles
    dual = StructureAlgebra(
        2, ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        unit={0: 1}, name="dual-numbers",
    )
    reg = regular_bimodule(dual)
    res = hochschild_homology(dual, reg, 1)
    assert res.betti > 0
    assert len(res.cycle_reps) == res.betti
    cx = bar_complex(dual, reg, 1)
    for rep in res.cycle_reps:
        assert cx.boundary(1).apply(rep) == {}


def dual_numbers():
    return StructureAlgebra(
        2, ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        unit={0: 1}, name="dual-numbers",
    )


def rank_battery():
    """(name, bar complex up to b_3) for scalars, M_2, B(1,C2), the dual
    numbers and a seeded random completion over B(1,C2); fresh complexes,
    so no rank is cached yet."""
    b1c2 = semigroup_algebra(brandt(1, cyclic_group(2)))
    random_completion = induced_completion(b1c2, seeded_random_bimodule(b1c2, 4))
    cases = [(a.name, bar_complex(a, regular_bimodule(a), 2))
             for a in (scalar_algebra(), matrix_algebra(2), b1c2, dual_numbers())]
    cases.append(("random completion", bar_complex(b1c2, random_completion, 2)))
    return cases


def test_rank_arithmetic_cross_checked_against_dense_oracle():
    # both elimination paths, in every degree, whichever way each rank
    # was certified
    certs = set()
    for name, cx in rank_battery():
        for n in range(1, len(cx.boundaries) + 1):
            dense = dense_rank(matrix_of_linear_map(cx.boundary(n)))
            assert cx.col_rank(n) == dense, (name, n)
            assert cx.row_rank(n) == dense, (name, n)
        certs.update(cx.certificates.values())
    # the battery exercises both ways a rank gets established
    assert certs == {"bound", "exhaustive"}


def test_rank_certificates_bound_where_homology_vanishes():
    sa = semigroup_algebra(brandt(2, cyclic_group(2)))
    cx = bar_complex(sa, regular_bimodule(sa), 2)
    for n in (2, 3):
        cx.row_rank(n)
        assert cx.certificates[("col", n)] == "bound"
        assert cx.certificates[("row", n)] == "bound"
    # H_0 has dimension 3, so b_1 never meets its bound dim C_0
    assert cx.certificates[("col", 1)] == "exhaustive"
    assert cx.certificates[("row", 1)] == "exhaustive"


def test_rank_certificates_exhaustive_for_dual_numbers():
    dual = dual_numbers()
    cx = bar_complex(dual, regular_bimodule(dual), 2)
    for n in (1, 2, 3):
        cx.row_rank(n)
        assert cx.certificates[("col", n)] == "exhaustive"
        assert cx.certificates[("row", n)] == "exhaustive"


def test_bounded_column_echelon_refused_for_representatives():
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    cx = bar_complex(sa, regular_bimodule(sa), 1)
    cx.col_pivots(2)
    assert cx.certificates[("col", 2)] == "bound"
    with pytest.raises(RuntimeError, match="ended at the rank bound"):
        cx.exhaustive_pivots("col", 2)
    # the full row echelon is built on demand and checked against the rank
    assert len(cx.exhaustive_pivots("row", 2)) == cx.row_rank(2)


def test_row_rank_falls_back_when_column_hint_is_damaged():
    sa = semigroup_algebra(brandt(2, cyclic_group(2)))
    cx = bar_complex(sa, regular_bimodule(sa), 1)
    dense = dense_rank(matrix_of_linear_map(cx.boundary(2)))
    cx.col_pivots(2)
    assert cx.certificates[("col", 2)] == "bound"
    # drop one recorded pivot column: the restricted rows lose rank, miss
    # the bound, and the full row elimination must take over
    cx._pivot_columns[2].popitem()
    assert cx.row_rank(2) == dense
    assert cx.certificates[("row", 2)] == "exhaustive"


def test_exhaustive_row_echelon_must_match_the_certified_rank(monkeypatch):
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    cx = bar_complex(sa, regular_bimodule(sa), 1)
    cx.row_rank(2)
    assert cx.certificates[("row", 2)] == "bound"
    real = homology._forward_echelon

    def one_pivot_short(rows, **kw):
        piv = real(rows, **kw)
        del piv[next(iter(piv))]
        return piv

    monkeypatch.setattr(homology, "_forward_echelon", one_pivot_short)
    with pytest.raises(RuntimeError,
                       match="row elimination of b_2 disagrees with its certified rank"):
        cx.exhaustive_pivots("row", 2)


def _battery_results():
    """Every rank, certificate and betti number of the rank battery."""
    out = {}
    for name, cx in rank_battery():
        a, e = cx.algebra, cx.coefficients
        for n in range(1, len(cx.boundaries) + 1):
            out[name, "col", n] = cx.col_rank(n)
            out[name, "row", n] = cx.row_rank(n)
        for n in range(len(cx.boundaries)):
            out[name, "H", n] = hochschild_homology(a, e, n, complex=cx).betti
            out[name, "H*", n] = hochschild_cohomology(a, e, n, complex=cx).betti
        out[name, "certificates"] = dict(cx.certificates)
    return out


def _record_engine_calls(monkeypatch):
    """Wrap the elimination engine homology uses; returns a list that
    gets (rows handed in, stop_at, pivots found) per call."""
    calls = []

    def recording(rows, stop_at=None, **kw):
        piv = _forward_echelon(rows, stop_at=stop_at, **kw)
        calls.append((len(rows), stop_at, len(piv)))
        return piv

    monkeypatch.setattr(homology, "_forward_echelon", recording)
    return calls


def _record_column_echelons(monkeypatch):
    """Wrap the column path; returns a list that gets (columns picked mod
    2, rank bound, columns inserted, pivots found) per column echelon."""
    echelons, inserted = [], []
    insert = homology._echelon_insert
    true_pivots = ChainComplex.col_pivots

    def counting(piv, row, lead=min):
        inserted.append(1)
        return insert(piv, row, lead)

    def recording(self, n):
        if ("col", n) in self._echelons:
            return true_pivots(self, n)
        bound = self._rank_bound(n, self.col_rank)  # lower degrees first
        picked, before = len(self._picks[n][0]), len(inserted)
        piv = true_pivots(self, n)
        echelons.append((picked, bound, len(inserted) - before, len(piv)))
        return piv

    monkeypatch.setattr(homology, "_echelon_insert", counting)
    monkeypatch.setattr(ChainComplex, "col_pivots", recording)
    return echelons


def test_column_selector_falls_back_under_two_torsion(monkeypatch):
    # l1(B(1,C2)) is commutative, so b_1 = 0 on the regular module and
    # rank b_2 is bounded by dim C_1 = 9; mod 2 its columns span only 7
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    cx = bar_complex(sa, regular_bimodule(sa), 1)
    b2 = cx.boundary(2)
    cols = b2.matrix._columns()
    assert cx.col_rank(1) == 0
    assert len(_mod2_independent(cols, 9)) == 7
    calls = _record_engine_calls(monkeypatch)
    echelons = _record_column_echelons(monkeypatch)
    assert cx.col_rank(2) == 9 == dense_rank(matrix_of_linear_map(b2))
    assert cx.certificates[("col", 2)] == "bound"
    # the 7 picks each add a pivot; the echelon then goes on with the other
    # columns, in index order, and stops at the 9th pivot
    assert calls == [] and echelons == [(7, 9, 16, 9)]
    picked = set(_mod2_independent(cols, 9))
    extra = sorted(set(cx._pivot_columns[2]) - picked)
    assert len(extra) == 2 and picked <= set(cx._pivot_columns[2])
    assert 16 == 7 + len(set(range(extra[-1] + 1)) - picked)


@st.composite
def _torsion_complex(draw):
    """(k, tail, columns): a complex C_2 -> C_1 -> C_0 where b_1 kills the
    first k basis vectors of C_1 and maps the last tail ones onto C_0, and
    the integer columns of b_2 lie in the first k coordinates. They include
    pairs v + w, v - w, equal mod 2, so mod 2 they often span less."""
    k, tail = draw(st.integers(2, 5)), draw(st.integers(0, 3))
    vec = st.dictionaries(st.integers(0, k - 1), st.sampled_from([-3, -2, -1, 1, 2, 3]),
                          min_size=1, max_size=k)
    cols = []
    for v, w in draw(st.lists(st.tuples(vec, vec), min_size=1, max_size=4)):
        cols += [{r: x for r in v.keys() | w.keys() if (x := v.get(r, 0) + sign * w.get(r, 0))}
                 for sign in (1, -1)]
    cols += draw(st.lists(vec, max_size=2))
    return k, tail, draw(st.permutations(cols))


@settings(max_examples=200, deadline=None)
@given(case=_torsion_complex())
def test_continued_pick_matches_dense_rank_under_two_torsion(case):
    # the mod-2 pick of the streamed b_2 falls short of its rank; the
    # column path goes on with the other columns, streamed, never listed
    k, tail, cols = case
    dense = [[col.get(r, 0) for r in range(k)] for col in cols]
    rank = dense_rank(dense)
    assume(dense_rank_mod2(dense) < rank)
    b1 = RationalMatrix._of_columns([{}] * k + [{j: 1} for j in range(tail)], tail)
    b2 = RationalMatrix._streamed(lambda: iter(cols), k + tail, len(cols))
    cx = ChainComplex(None, None, [tail, k + tail, len(cols)],
                      [LinearMap(k + tail, tail, b1), LinearMap(len(cols), k + tail, b2)])
    assert cx.col_rank(2) == rank and b2._colcache is None
    assert cx.certificates[("col", 2)] == ("bound" if rank == k else "exhaustive")
    assert cx.row_rank(2) == rank
    assert (cx.col_rank(1), cx.row_rank(1)) == (tail, tail)


def _faulty_selectors(calls=None):
    """Wrong choices in the selector's place. Each lists the stream it is
    handed (so every column is still checked), chooses indices as its
    fault says, keeps the chosen columns, and logs the column count in
    calls."""
    rng = random.Random(5)

    def too_few(rows, limit):
        return _mod2_independent(rows, limit)[:-1]

    def repeated(rows, limit):
        return _mod2_independent(rows, limit)[:1] * limit

    def dependent(rows, limit):
        # zero columns first: the right count, but dependent over Q
        zeros = [i for i, r in enumerate(rows) if not r]
        return (zeros + _mod2_independent(rows, limit))[:limit]

    def arbitrary(rows, limit):
        return rng.sample(range(len(rows)), min(limit, len(rows)))

    def streamed(choose):
        def select(rows, limit, kept=None):
            rows = list(rows)
            picked = choose(rows, limit)
            if kept is not None:
                kept.extend(rows[i] for i in picked)
            if calls is not None:
                calls.append(len(rows))
            return picked
        return select

    return {name: streamed(choose) for name, choose in [
        ("too few", too_few), ("repeated", repeated),
        ("dependent", dependent), ("arbitrary", arbitrary)]}


@pytest.mark.parametrize("fault", sorted(_faulty_selectors()))
def test_column_selector_faults_change_no_result(monkeypatch, fault):
    # the selector only chooses which columns the exact engine sees: a
    # wrong choice may cost time, never a rank, certificate or betti number
    expected = _battery_results()
    sizes = [cx.spaces[n] for _, cx in rank_battery() for n in range(1, len(cx.boundaries) + 1)]
    picks = []
    monkeypatch.setattr(homology, "_mod2_independent", _faulty_selectors(picks)[fault])
    echelons = _record_column_echelons(monkeypatch)
    assert _battery_results() == expected
    # every degree's pick went through the fault, the streamed top one too
    assert picks == sizes
    if fault in ("repeated", "dependent"):
        # a full-size pick was handed over, fell short, and the echelon
        # went on with the other columns
        assert any(size == stop < inserted for size, stop, inserted, _ in echelons)


def test_column_selector_hands_only_independent_columns_to_engine(monkeypatch):
    # l1(B(2,C3)) regular, degree 3: 2037 of the 28561 columns of b_3 are
    # eliminated exactly, and none of them reduces to zero
    sa = semigroup_algebra(brandt(2, cyclic_group(3)))
    cx = bar_complex(sa, regular_bimodule(sa), 2)
    cx.col_rank(2)
    calls = _record_engine_calls(monkeypatch)
    echelons = _record_column_echelons(monkeypatch)
    assert cx.col_rank(3) == 2037
    assert cx.certificates[("col", 3)] == "bound"
    assert calls == [] and echelons == [(2037, 2037, 2037, 2037)]
    assert len(cx._pivot_columns[3]) == 2037


def test_selector_converts_few_columns_of_b3(monkeypatch):
    # index order reaches the bound after 4,789 of the 28,561 columns of
    # b_3 of regular l1(B(2,C3)); the sparsest-first order took 10,407
    sa = semigroup_algebra(brandt(2, cyclic_group(3)))
    cx = bar_complex(sa, regular_bimodule(sa), 2)
    cx.col_rank(2)
    converted = []
    int_row = exactla._int_row
    monkeypatch.setattr(exactla, "_int_row", lambda row: converted.append(1) or int_row(row))
    picked = _mod2_independent(cx.boundary(3).matrix._columns(), cx._rank_bound(3, cx.col_rank))
    assert len(picked) == 2037
    assert len(converted) <= 6000


def test_chosen_columns_eliminated_on_their_highest_row(monkeypatch):
    # the 2037 chosen columns of b_3 of regular l1(B(2,C3)) pivot on their
    # highest row index; on their lowest they take 112,220 combine steps
    sa = semigroup_algebra(brandt(2, cyclic_group(3)))
    cx = bar_complex(sa, regular_bimodule(sa), 2)
    cx.col_rank(2)
    steps = []
    combine = exactla._combine

    def counting(r, p, c):
        steps.append(c)
        return combine(r, p, c)

    monkeypatch.setattr(exactla, "_combine", counting)
    assert cx.col_rank(3) == 2037
    assert cx.certificates[("col", 3)] == "bound"
    assert len(steps) <= 5000
    assert all(max(col) == r for r, col in cx.col_pivots(3).items())


def test_representatives_accept_fraction_kernel_vectors():
    # kernel vectors come from a canonical RREF and may hold Fractions; the
    # echelon insertion takes primitive integer rows, so they are converted
    half = {0: Fraction(1, 2), 2: 1}
    reps = homology._representatives([half, {0: 1, 2: 2}, {1: Fraction(-1, 3)}], {}, 2)
    assert reps == [half, {1: Fraction(-1, 3)}]
    # the echelon is trailing, as every echelon the complex stores
    assert homology._representatives([{0: 1, 2: 2}], {2: {0: 1, 2: 2}}, 1) == []


def test_chain_complex_always_checks_composite_zero():
    # b_1 = identity on a line and b_2 = identity: b_1 b_2 != 0
    ident = LinearMap.identity(1)
    with pytest.raises(RuntimeError, match="composite"):
        ChainComplex(None, None, [1, 1, 1], [ident, ident])


# ------------------------------------------------------------------ cohomology

def test_h0_cohomology_scalars():
    sc = scalar_algebra()
    assert hochschild_cohomology(sc, regular_bimodule(sc), 0).betti == 1


def test_h1_cohomology_brandt_one_c2_dual_regular():
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    res = hochschild_cohomology(sa, regular_bimodule(sa), 1)
    assert res.betti == 0


def test_duality_cross_check_runs_on_every_degree():
    # the cohomology path compares its betti with the column path's ranks
    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    cx = bar_complex(m2, reg, 2)
    for n in (0, 1, 2):
        h = hochschild_homology(m2, reg, n, complex=cx)
        c = hochschild_cohomology(m2, reg, n, complex=cx)
        assert h.betti == c.betti


def test_duality_cross_check_fires_on_a_wrong_row_rank(monkeypatch):
    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    cx = bar_complex(m2, reg, 1)
    true_rank = ChainComplex.row_rank
    monkeypatch.setattr(ChainComplex, "row_rank", lambda self, n: true_rank(self, n) - (n == 2))
    with pytest.raises(RuntimeError, match="duality cross-check failed in degree 1"):
        hochschild_cohomology(m2, reg, 1, complex=cx)


def test_cohomology_builds_no_homology_representatives(monkeypatch):
    dual = dual_numbers()
    reg = regular_bimodule(dual)
    cx = bar_complex(dual, reg, 1)
    homology_calls, kernel_calls = [], []
    monkeypatch.setattr(homology, "hochschild_homology",
                        lambda *args, **kw: homology_calls.append(args))
    true_kernel = homology._kernel_vectors
    monkeypatch.setattr(homology, "_kernel_vectors",
                        lambda f: kernel_calls.append(f) or true_kernel(f))
    c = hochschild_cohomology(dual, reg, 1, complex=cx)
    assert c.betti > 0 and len(c.cycle_reps) == c.betti
    assert homology_calls == [] and len(kernel_calls) == 1
    h = homology._hochschild(cx, 1, "col")
    assert h.betti == c.betti and len(kernel_calls) == 2


@pytest.mark.parametrize("path", ["col", "row"])
def test_representative_count_must_match_the_betti_number(monkeypatch, path):
    # degree 1 of the dual numbers has betti 1; withhold the one kernel
    # vector that the unpatched run takes as its representative
    dual = dual_numbers()
    reg = regular_bimodule(dual)
    reps = homology._hochschild(bar_complex(dual, reg, 1), 1, path).cycle_reps
    assert len(reps) == 1
    real = homology._kernel_vectors
    monkeypatch.setattr(homology, "_kernel_vectors",
                        lambda f: (v for v in real(f) if v not in reps))
    with pytest.raises(RuntimeError, match=f"{path} path: representative count disagrees"):
        homology._hochschild(bar_complex(dual, reg, 1), 1, path)


def test_cohomology_representatives_are_cocycles():
    dual = StructureAlgebra(
        2, ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        unit={0: 1}, name="dual-numbers",
    )
    reg = regular_bimodule(dual)
    res = hochschild_cohomology(dual, reg, 1)
    assert res.betti > 0
    cx = bar_complex(dual, reg, 1)
    bt = cx.boundary(2).matrix.transpose()
    for rep in res.cycle_reps:
        assert bt.apply(rep) == {}


# ----------------------------------------------------------------- derivations

def test_derivations_of_scalars_vanish():
    sc = scalar_algebra()
    ds = derivation_space(sc, regular_bimodule(sc))
    assert ds.derivations.dim == 0
    assert ds.inner.dim == 0


def test_derivations_matrix_algebra_dual_regular():
    m2 = matrix_algebra(2)
    ds = derivation_space(m2, dual_bimodule(regular_bimodule(m2)))
    assert ds.derivations.dim == 3
    assert ds.inner.dim == 3
    assert ds.h1_betti == 0


def test_derivations_nontrivial_outer():
    dual = StructureAlgebra(
        2, ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        unit={0: 1}, name="dual-numbers",
    )
    ds = derivation_space(dual, regular_bimodule(dual))
    assert ds.derivations.dim - ds.inner.dim == ds.h1_betti
    assert ds.h1_betti > 0


def test_derivations_on_acceptance_scale_instance():
    sa = semigroup_algebra(brandt(2, cyclic_group(2)))
    mod = induced_completion(sa, dual_bimodule(regular_bimodule(sa)))
    ds = derivation_space(sa, mod)
    assert ds.h1_betti == 0
    assert ds.derivations.dim == ds.inner.dim


def test_inner_contained_in_derivations_random_modules(seed=12):
    rng = random.Random(seed)
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    m2 = matrix_algebra(2)
    count = 0
    for algebra in (sa, m2):
        for _ in range(10):
            mod = seeded_random_bimodule(algebra, rng.randrange(10 ** 6))
            ds = derivation_space(algebra, mod)
            # containment is re-verified inside; the dimension count is the
            # visible consequence here
            assert ds.inner.dim <= ds.derivations.dim
            count += 1
    assert count == 20


def test_derivation_space_refuses_an_inner_derivation_outside_leibniz(monkeypatch):
    # double the structure-constant term of the first Leibniz block, for
    # e_(1,1) e_(1,1) = e_(1,1): the system then wants D(e_(1,1)) = 0
    m2 = matrix_algebra(2)
    real, calls = homology.kronecker, []

    def doubled_first(x, y):
        calls.append(1)
        k = real(x, y)
        if len(calls) > 1:
            return k
        return LinearMap(k.source_dim, k.target_dim, k.matrix + k.matrix)

    monkeypatch.setattr(homology, "kronecker", doubled_first)
    with pytest.raises(RuntimeError, match="an inner derivation fails the Leibniz system"):
        derivation_space(m2, dual_bimodule(regular_bimodule(m2)))


def test_derivation_space_count_must_match_first_cohomology(monkeypatch):
    # the inner derivations come out empty, so 3 - 0 cannot equal H^1 = 0
    m2 = matrix_algebra(2)
    real = homology.image
    monkeypatch.setattr(homology, "image",
                        lambda f: real(LinearMap.zero(f.source_dim, f.target_dim)))
    with pytest.raises(RuntimeError,
                       match="derivation count 3 - 0 disagrees with first cohomology 0"):
        derivation_space(m2, dual_bimodule(regular_bimodule(m2)))


# -------------------------------------------------------------------- diagonal

def test_diagonal_scalars():
    diag = diagonal_check(scalar_algebra())
    assert diag is not None and len(diag) == 1


def test_diagonal_c2_group_algebra_and_known_solution():
    ga = group_algebra(cyclic_group(2))
    diag = diagonal_check(ga)
    assert diag is not None
    # the halved sum of squares is itself a valid diagonal: verify the
    # known solution independently through the algebra product
    from fractions import Fraction as QQ

    m = {(0, 0): QQ(1, 2), (1, 1): QQ(1, 2)}
    unit = {0: 1}
    collapse = {}
    for (p, q), c in m.items():
        for r, v in ga.mul_basis(p, q).items():
            collapse[r] = collapse.get(r, 0) + c * v
    assert collapse == unit
    for t in range(2):
        left = {}
        right = {}
        for (p, q), c in m.items():
            for r, v in ga.mul_basis(t, p).items():
                left[(r, q)] = left.get((r, q), 0) + c * v
            for r, v in ga.mul_basis(q, t).items():
                right[(p, r)] = right.get((p, r), 0) + c * v
        assert {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}


def test_diagonal_exists_for_brandt_two_c2():
    sa = semigroup_algebra(brandt(2, cyclic_group(2)))
    assert diagonal_check(sa) is not None


def test_no_diagonal_for_dual_numbers():
    dual = StructureAlgebra(
        2, ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        unit={0: 1}, name="dual-numbers",
    )
    assert diagonal_check(dual) is None


def test_diagonal_requires_unit():
    zero = StructureAlgebra(2, ["x", "y"], {}, name="null")
    with pytest.raises(NotUnitalError):
        diagonal_check(zero)


# ---------------------- whole-matrix builders against entry-by-entry systems

def _builder_algebras():
    """Every algebra of the rank battery, the dual numbers among them, and
    rescaled Brandt and matrix algebras whose systems carry coefficients
    other than +-1."""
    algebras = [cx.algebra for _, cx in rank_battery()[:4]]
    algebras += [rescaled(matrix_algebra(2)),
                 rescaled(semigroup_algebra(brandt(1, cyclic_group(2)))),
                 rescaled(semigroup_algebra(brandt(2, cyclic_group(1)))),
                 rescaled(semigroup_algebra(brandt(2, cyclic_group(2))))]
    return algebras


def test_find_unit_matches_entrywise_system():
    null = StructureAlgebra(2, ["x", "y"], {}, name="null")
    for a in _builder_algebras() + [null]:
        rows, rhs = unit_system(a)
        expected = solve(LinearMap(a.dim, len(rows), RationalMatrix.from_rows(rows, a.dim)), rhs)
        unit = find_unit(a)
        if expected is None or not is_unit(a, expected):
            assert unit is None, a.name
        else:
            assert unit is not None and unit.coeffs == expected, a.name


def _flat(a, pairs):
    """A diagonal as {p*d + q: coefficient of e_p (x) e_q}."""
    return {p * a.dim + q: v for x, y in pairs for p in x.coeffs for q, v in y.coeffs.items()}


def test_diagonal_check_matches_entrywise_system():
    algebras = _builder_algebras()
    found = 0
    for a in algebras:
        unit = find_unit(a).coeffs
        rows, rhs = diagonal_system(a, unit)
        d = a.dim
        expected = solve(LinearMap(d * d, len(rows), RationalMatrix.from_rows(rows, d * d)), rhs)
        diag = diagonal_check(a)
        if expected is None:
            assert diag is None, a.name
            continue
        found += 1
        assert _flat(a, diag) == expected, a.name
        assert diagonal_defects(a, diag, unit) == [], a.name
    assert found == len(algebras) - 1  # all but the dual numbers


def _builder_modules():
    cases = [(cx.algebra, cx.coefficients) for _, cx in rank_battery()]
    for a in _builder_algebras()[4:7]:
        reg = regular_bimodule(a)
        cases += [(a, dual_bimodule(reg)), (a, seeded_random_bimodule(a, 7))]
    return cases


def test_derivation_space_matches_entrywise_system():
    for a, e in _builder_modules():
        ds = derivation_space(a, e)
        n = a.dim * e.dim
        rows = leibniz_rows(a, e)
        leibniz = LinearMap(n, len(rows), RationalMatrix.from_rows(rows, n))
        assert ds.derivations == kernel(leibniz), (a.name, e.name)
        assert ds.derivations.dim == n - dense_rank(matrix_of_linear_map(leibniz))
        assert ds.inner == image(LinearMap.from_cols(inner_columns(a, e), n)), (a.name, e.name)


def _pairs(a, flat):
    rows: dict = {}
    for k, v in flat.items():
        rows.setdefault(k // a.dim, {})[k % a.dim] = v
    return [(a.basis_element(p), a.element(row)) for p, row in sorted(rows.items())]


def _perturbed_solve(index, delta):
    """solve, with delta added to coordinate index of its solution."""
    def perturbed(f, target):
        x = dict(solve(f, target))
        x[index] = x.get(index, 0) + delta
        return {k: v for k, v in x.items() if v}
    return perturbed


@pytest.mark.parametrize("algebra", [
    matrix_algebra(2),
    semigroup_algebra(brandt(1, cyclic_group(2))),
    rescaled(semigroup_algebra(brandt(2, cyclic_group(1)))),
], ids=lambda a: a.name)
def test_diagonal_recheck_catches_one_changed_coefficient(monkeypatch, algebra):
    unit = find_unit(algebra).coeffs
    true = _flat(algebra, diagonal_check(algebra))
    zeros = [k for k in range(algebra.dim ** 2) if k not in true]
    for index in sorted(true) + zeros[:3]:
        monkeypatch.setattr(homology, "solve", _perturbed_solve(index, 1))
        with pytest.raises(RuntimeError) as err:
            diagonal_check(algebra)
        monkeypatch.undo()
        changed = _pairs(algebra, {**true, index: true.get(index, 0) + 1})
        # the first defect that substitution through the product finds
        assert str(err.value) == diagonal_defects(algebra, changed, unit)[0]


def test_diagonal_recheck_catches_wrong_collapse(monkeypatch):
    # in dimension 1 every tensor commutes with the algebra, so only the
    # collapse can catch a doubled coefficient
    monkeypatch.setattr(homology, "solve", _perturbed_solve(0, 1))
    with pytest.raises(RuntimeError, match="diagonal does not collapse onto the unit"):
        diagonal_check(scalar_algebra())


# ------------------------------------------------------------- vanishing suite

def test_vanishing_suite_smallest_algebra():
    sa = semigroup_algebra(brandt(1, cyclic_group(1)))
    rep = vanishing_suite(sa, [regular_bimodule(sa)], 3)
    assert rep.passed
    entry = rep.entries[0]
    assert entry.degrees == [(1, 0, 0), (2, 0, 0), (3, 0, 0)]
    assert not entry.routed_through_completion


def test_vanishing_suite_routes_non_induced_module():
    # left action by multiplication, right action zero: left-induced only,
    # so the suite must reroute through the induced completion
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    reg = regular_bimodule(sa)
    zero = [RationalMatrix(sa.dim, sa.dim) for _ in range(sa.dim)]
    lopsided = Bimodule(sa, sa, sa.dim, list(reg.left_action), zero, name="lopsided")
    rep = vanishing_suite(sa, [lopsided], 2)
    entry = rep.entries[0]
    assert entry.routed_through_completion
    assert "completion" in entry.note
    assert rep.passed


def test_vanishing_suite_brandt_two_c2_battery():
    sa = semigroup_algebra(brandt(2, cyclic_group(2)))
    reg = regular_bimodule(sa)
    mods = [reg, induced_completion(sa, dual_bimodule(reg))]
    rep = vanishing_suite(sa, mods, 2)
    assert rep.passed
    for entry in rep.entries:
        assert entry.degrees == [(1, 0, 0), (2, 0, 0)]
        assert entry.h0_dim is not None


def test_vanishing_suite_size_limit_skips_with_note():
    sa = semigroup_algebra(brandt(2, symmetric_group(3)))
    rep = vanishing_suite(sa, [regular_bimodule(sa)], 3)
    assert rep.entries[0].status == "skipped"
    assert "limit" in rep.entries[0].note


def test_h0_dimensions_match_semisimple_decomposition():
    # over the rationals these algebras decompose into matrix rings over
    # fields; the degree-0 homology is the commutator quotient, one
    # dimension per matrix factor plus the full dimension of each field
    # factor. Frozen expectations:
    #   B(1,C1): Q + Q                          -> 2
    #   B(1,C2): Q[C2] + Q = Q^3                -> 3
    #   B(1,C3): Q + quadratic field + Q        -> 4
    #   B(2,C1): M2(Q) + Q                      -> 2
    #   B(2,C2): M2(Q) + M2(Q) + Q              -> 3
    expected = {
        (1, 1): 2, (1, 2): 3, (1, 3): 4, (2, 1): 2, (2, 2): 3,
    }
    for (i_size, order), h0 in expected.items():
        algebra = semigroup_algebra(brandt(i_size, cyclic_group(order)))
        res = hochschild_homology(algebra, regular_bimodule(algebra), 0)
        assert res.betti == h0, (i_size, order, res.betti)


# ------------------------------------------------- cross-cutting invariants

def test_diagonal_and_vanishing_co_occur():
    # both are finite-scale amenability certificates and must agree
    sa = semigroup_algebra(brandt(1, cyclic_group(3)))
    assert diagonal_check(sa) is not None
    assert vanishing_suite(sa, [regular_bimodule(sa)], 2).passed
    # and the negative side: no diagonal, nonzero degree-1 homology
    dual = StructureAlgebra(
        2, ["1", "x"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        unit={0: 1}, name="dual-numbers",
    )
    assert diagonal_check(dual) is None
    assert hochschild_homology(dual, regular_bimodule(dual), 1).betti > 0


def test_morita_invariant_betti_on_witness_pairs():
    # regular-coefficient betti vectors agree across certified witness
    # pairs; covered for the pairs with both sides of dimension <= 19
    # (the dim 25 and 28 sides take about 2.5 s and 3.6 s each, at 225 and
    # 324 MiB peak RSS, and add no new logic)
    def betti_vector(i_size, g):
        algebra = semigroup_algebra(brandt(i_size, g))
        reg = regular_bimodule(algebra)
        cx = bar_complex(algebra, reg, 2)
        return [
            hochschild_homology(algebra, reg, n, complex=cx).betti
            for n in (0, 1, 2)
        ]

    cache = {}

    def cached(i_size, gname):
        if (i_size, gname) not in cache:
            g = cyclic_group(int(gname[1:]))
            cache[(i_size, gname)] = betti_vector(i_size, g)
        return cache[(i_size, gname)]

    for i_size, j_size, gname in [(1, 2, "C1"), (1, 3, "C2"), (2, 3, "C2")]:
        left = cached(i_size, gname)
        right = cached(j_size, gname)
        assert left == right, (i_size, j_size, gname, left, right)
        assert left[1:] == [0, 0]
