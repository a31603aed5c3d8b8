"""Bimodule actions, balanced tensor products, induced modules."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moritalab.exactla import (
    LinearMap,
    RationalMatrix,
    kernel,
    kronecker,
    rank,
    subspace_equal,
)
from moritalab.structures import (
    StructureAlgebra,
    brandt,
    cyclic_group,
    matrix_algebra,
    scalar_algebra,
    semigroup_algebra,
)
from moritalab.bimodules import (
    ActionNotWellDefined,
    Bimodule,
    BimoduleAxiomError,
    BimoduleMap,
    IntertwiningError,
    balanced_tensor,
    balancing_subspace,
    column_module,
    dual_bimodule,
    index_space_induced,
    induced_completion,
    induced_map,
    is_induced,
    is_self_induced,
    mirror_mu_map,
    mu_map,
    regular_bimodule,
    row_module,
    seeded_random_bimodule,
    tensor,
    trace_pairing,
)

from oracles import axiom_violations, intertwining_violations, span_contains


def zero_action_module(a, dim):
    z = [RationalMatrix(dim, dim) for _ in range(a.dim)]
    return Bimodule(a, a, dim, z, list(z), name="zero-action")


# ------------------------------------------------------------------- bimodules

def test_regular_bimodule_scalars():
    sc = scalar_algebra()
    reg = regular_bimodule(sc)
    assert reg.left_action[0] == RationalMatrix.identity(1)
    assert reg.right_action[0] == RationalMatrix.identity(1)


def test_regular_bimodule_matrix_unit_projection():
    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    p = reg.left_action[m2.label_index("(1,1)")]
    assert rank(p) == 2
    assert p @ p == p


def test_regular_bimodule_axioms_semigroup_algebra():
    sa = semigroup_algebra(brandt(2, cyclic_group(2)))
    assert regular_bimodule(sa).check_axioms() == []


def test_row_column_action_formulas():
    m2 = matrix_algebra(2)
    cm = column_module(2)
    d12 = m2.label_index("(1,2)")
    assert cm.left_action[d12].apply({1: 1}) == {0: 1}
    assert cm.left_action[d12].apply({0: 1}) == {}
    rm = row_module(2)
    assert rm.right_action[d12].apply({0: 1}) == {1: 1}
    assert rm.right_action[d12].apply({1: 1}) == {}


def test_bimodule_rejects_broken_action():
    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    bad_left = list(reg.left_action)
    corrupted = RationalMatrix.from_rows(
        [bad_left[0].row(r) for r in range(4)], 4
    )
    corrupted._rows[2][2] = corrupted._rows[2].get(2, 0) + 1
    corrupted._colcache = None
    bad_left[0] = corrupted
    with pytest.raises(BimoduleAxiomError):
        Bimodule(m2, m2, 4, bad_left, list(reg.right_action))
    # but the corrupted module can be constructed unchecked, and then
    # reports its own violations
    mod = Bimodule(m2, m2, 4, bad_left, list(reg.right_action), check=False)
    assert mod.check_axioms() != []


# --------------------------------------------------------------------- tensors

def test_tensor_dims_and_labels_match_matrix_algebra():
    t = tensor(row_module(2), column_module(2))
    assert t.dim == 4
    assert t.labels == ("d1(x)d1", "d1(x)d2", "d2(x)d1", "d2(x)d2")
    assert t.check_axioms() == []


def test_tensor_with_scalar_line_is_identity_construction():
    sc = scalar_algebra()
    one = regular_bimodule(sc)
    m2 = matrix_algebra(2)
    e = column_module(2)
    t = tensor(e, one)
    assert t.dim == e.dim
    assert t.left_action == e.left_action


def test_tensor_axioms_on_random_small_inputs(seed=3):
    rng = random.Random(seed)
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    for s in range(3):
        e = seeded_random_bimodule(sa, rng.randrange(1000))
        f = seeded_random_bimodule(sa, rng.randrange(1000))
        assert tensor(e, f).check_axioms() == []


# ------------------------------------------------------------------- balancing

def test_balancing_subspace_over_scalars_is_zero():
    sc = scalar_algebra()
    e = regular_bimodule(sc)
    assert balancing_subspace(e, e, sc).dim == 0


def test_balancing_subspace_matrix_two():
    m2 = matrix_algebra(2)
    n = balancing_subspace(row_module(2), column_module(2), m2)
    assert n.dim == 3
    assert n.contains({1: 1})          # pair (1,2)
    assert n.contains({3: 1, 0: -1})   # pair (2,2) minus pair (1,1)


def test_balancing_subspace_matrix_three_frozen_and_cross_checked():
    m3 = matrix_algebra(3)
    n = balancing_subspace(row_module(3), column_module(3), m3)
    assert n.dim == 8
    assert subspace_equal(n, kernel(trace_pairing(3)))


def test_balancing_subspace_oracle_membership(seed=8):
    # independent dense containment of random combinations
    rng = random.Random(seed)
    m2 = matrix_algebra(2)
    e, f = row_module(2), column_module(2)
    n = balancing_subspace(e, f, m2)
    spanning = []
    for q in range(4):
        for p in range(2):
            for r in range(2):
                xa = e.right_action[q].col(p)
                ay = f.left_action[q].col(r)
                v = {k * 2 + r: x for k, x in xa.items()}
                for k, y in ay.items():
                    v[p * 2 + k] = v.get(p * 2 + k, 0) - y
                v = {a: b for a, b in v.items() if b}
                if v:
                    spanning.append(v)
    for row_idx in range(n.basis.rows):
        row = n.basis.row(row_idx)
        assert span_contains(spanning, row, 4)


def test_balancing_subspace_rejects_algebra_mismatch():
    with pytest.raises(ValueError):
        balancing_subspace(row_module(2), column_module(3), matrix_algebra(2))


def test_balanced_tensor_index_space_collapses_to_line():
    m2 = matrix_algebra(2)
    bt = balanced_tensor(row_module(2), column_module(2), m2)
    assert bt.module.dim == 1
    assert bt.proj.map.target_dim == 1
    assert subspace_equal(kernel(bt.proj.map), bt.relations)


def test_balanced_tensor_regular_square():
    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    bt = balanced_tensor(reg, reg, m2)
    assert bt.module.dim == 4


def test_balanced_tensor_over_scalars_is_plain_tensor():
    sc = scalar_algebra()
    e = regular_bimodule(sc)
    m2 = matrix_algebra(2)
    q = column_module(2)
    p = row_module(2)
    bt = balanced_tensor(q, p, sc)
    assert bt.module.dim == q.dim * p.dim
    assert bt.relations.dim == 0


def test_balanced_tensor_detects_non_preserving_action():
    # a hand-made module whose "action" fails to preserve the balancing
    # subspace: right action of the second basis vector moves a balanced
    # direction out of the subspace
    m2 = matrix_algebra(2)
    e = row_module(2)
    f = column_module(2)
    broken_right = list(f.right_action)
    skew = RationalMatrix(2, 2)
    skew._rows[0][1] = 1
    broken_right[0] = skew
    broken = Bimodule(f.left_algebra, f.right_algebra, 2,
                      list(f.left_action), broken_right, check=False)
    with pytest.raises(ActionNotWellDefined,
                       match="^right action of basis 0 does not preserve"):
        balanced_tensor(e, broken, m2)
    # in the regular M_2 square, one outer action matrix at a time is
    # replaced by a matrix unit that does not commute with the balancing
    # actions; the error names that side and basis index
    reg = regular_bimodule(m2)
    skew = RationalMatrix(4, 4)
    skew._rows[0][1] = 1
    for side, index in (("left", 3), ("right", 1)):
        left, right = list(reg.left_action), list(reg.right_action)
        (left if side == "left" else right)[index] = skew
        broken = Bimodule(m2, m2, 4, left, right, check=False)
        e, f = (broken, reg) if side == "left" else (reg, broken)
        with pytest.raises(ActionNotWellDefined,
                           match=f"^{side} action of basis {index} does not preserve"):
            balanced_tensor(e, f, m2)


def test_induced_map_requires_vanishing_on_relations():
    m2 = matrix_algebra(2)
    bt = balanced_tensor(row_module(2), column_module(2), m2)
    # a functional that does not kill the balancing subspace
    bad = LinearMap(4, 1, RationalMatrix.from_rows([{1: 1}], 4))
    with pytest.raises(ActionNotWellDefined):
        induced_map(bt, bad, regular_bimodule(scalar_algebra()))


# -------------------------------------------------------------- induced modules

def test_mu_map_bijective_for_unital_regular():
    for a in (scalar_algebra(), matrix_algebra(2),
              semigroup_algebra(brandt(1, cyclic_group(2)))):
        reg = regular_bimodule(a)
        assert mu_map(reg).is_bijective()
        assert mirror_mu_map(reg).is_bijective()


def test_mu_map_zero_action_collapses():
    m2 = matrix_algebra(2)
    z = zero_action_module(m2, 2)
    mu = mu_map(z)
    assert mu.map.matrix.is_zero()
    flags = is_induced(z)
    assert not flags.left and not flags.right and not flags.two_sided


def test_index_space_two_sided_induced():
    for n in (1, 2, 3, 4):
        flags = index_space_induced(n)
        assert flags.two_sided


def test_column_row_module_induced_flags():
    assert is_induced(column_module(3)).two_sided
    assert is_induced(row_module(3)).two_sided


def test_is_self_induced_matrix_algebras():
    for n in (1, 2, 3, 4):
        assert is_self_induced(matrix_algebra(n))


def test_is_self_induced_semigroup_algebras():
    for i, g in [(1, cyclic_group(1)), (1, cyclic_group(2)),
                 (2, cyclic_group(1)), (2, cyclic_group(2))]:
        assert is_self_induced(semigroup_algebra(brandt(i, g)))


def test_not_self_induced_zero_multiplication():
    zero = StructureAlgebra(1, ["x"], {}, name="null")
    assert not is_self_induced(zero)


# ----------------------------------------------------------------------- duals

def test_dual_of_dual_is_original():
    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    dd = dual_bimodule(dual_bimodule(reg))
    assert dd.left_action == reg.left_action
    assert dd.right_action == reg.right_action


def test_dual_bimodule_axioms():
    sa = semigroup_algebra(brandt(2, cyclic_group(1)))
    assert dual_bimodule(regular_bimodule(sa)).check_axioms() == []


def test_dual_of_scalar_module_is_scalar():
    sc = scalar_algebra()
    d = dual_bimodule(regular_bimodule(sc))
    assert d.left_action[0] == RationalMatrix.identity(1)


# ------------------------------------------------------------------ completion

def test_induced_completion_of_induced_module_keeps_dimension():
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    reg = regular_bimodule(sa)
    comp = induced_completion(sa, reg)
    assert comp.dim == reg.dim
    assert is_induced(comp).two_sided


def test_induced_completion_of_zero_module_is_zero():
    m2 = matrix_algebra(2)
    comp = induced_completion(m2, zero_action_module(m2, 3))
    assert comp.dim == 0


def test_induced_completion_of_dual_regular_certified():
    sa = semigroup_algebra(brandt(2, cyclic_group(2)))
    comp = induced_completion(sa, dual_bimodule(regular_bimodule(sa)))
    assert is_induced(comp).two_sided


def test_induced_completion_of_random_modules(seed=21):
    rng = random.Random(seed)
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    for _ in range(3):
        mod = seeded_random_bimodule(sa, rng.randrange(10 ** 6))
        comp = induced_completion(sa, mod)
        assert is_induced(comp).two_sided


def test_seeded_random_bimodule_deterministic_and_valid():
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    for seed in range(6):
        m1 = seeded_random_bimodule(sa, seed)
        m2 = seeded_random_bimodule(sa, seed)
        assert m1 == m2
        assert m1.check_axioms() == []
    assert seeded_random_bimodule(sa, 0) != seeded_random_bimodule(sa, 1)


def test_seeded_random_bimodule_entries_stay_int():
    # an integral Fraction would push every later product off the int
    # fast path; integral entries must come out as plain int
    for algebra in (semigroup_algebra(brandt(1, cyclic_group(2))), matrix_algebra(2)):
        for seed in range(6):
            mod = seeded_random_bimodule(algebra, seed)
            for m in mod.left_action + mod.right_action:
                for _, _, v in m.entries():
                    assert not (isinstance(v, Fraction) and v.denominator == 1), (seed, v)


# -------------------------------------------------------------- rebracketing

def rebracket_comparison(a, e):
    """Dimensions and the canonical comparison map between the two ways of
    sandwiching e with the algebra."""
    reg = regular_bimodule(a)
    x1 = balanced_tensor(reg, e, a)
    x2 = balanced_tensor(x1.module, reg, a)
    y1 = balanced_tensor(e, reg, a)
    y2 = balanced_tensor(reg, y1.module, a)
    lift_left = kronecker(x1.section, LinearMap.identity(a.dim))
    fold_right = kronecker(LinearMap.identity(a.dim), y1.proj.map)
    comparison = y2.proj.map.compose(fold_right).compose(lift_left).compose(x2.section)
    return x2.module, y2.module, comparison


def test_rebracketing_balanced_tensor_instances():
    cases = [
        (matrix_algebra(2), regular_bimodule(matrix_algebra(2))),
        (semigroup_algebra(brandt(1, cyclic_group(2))), None),
        (semigroup_algebra(brandt(2, cyclic_group(2))), None),
    ]
    for a, e in cases:
        if e is None:
            e = dual_bimodule(regular_bimodule(a))
        left, right, cmp_map = rebracket_comparison(a, e)
        assert left.dim == right.dim
        assert cmp_map.rank() == left.dim
        # the comparison map intertwines the outer actions
        BimoduleMap(left, right, cmp_map)


# ------------------------------------------------------------------ map checks

def test_bimodule_map_rejects_non_intertwining():
    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    skew = RationalMatrix(4, 4)
    skew._rows[0][1] = 1
    with pytest.raises(IntertwiningError):
        BimoduleMap(reg, reg, LinearMap(4, 4, skew))
    # identity and zero always intertwine
    BimoduleMap(reg, reg, LinearMap.identity(4))
    BimoduleMap(reg, reg, LinearMap.zero(4, 4))


# ------------------------------------------- matrix checks against a reference

_B12 = semigroup_algebra(brandt(1, cyclic_group(2)))
FAULT_MODULES = [
    regular_bimodule(matrix_algebra(2)),
    regular_bimodule(_B12),
    seeded_random_bimodule(_B12, 5),
]


def _with_entry(m, r, c, delta):
    out = RationalMatrix.from_rows([m.row(i) for i in range(m.rows)], m.cols)
    v = out._rows[r].get(c, 0) + delta
    if v:
        out._rows[r][c] = v
    else:
        del out._rows[r][c]
    return out


def _corrupt_action(mod, side, p, r, c, delta):
    left, right = list(mod.left_action), list(mod.right_action)
    actions = left if side == "left" else right
    p %= len(actions)
    actions[p] = _with_entry(actions[p], r % mod.dim, c % mod.dim, delta)
    return Bimodule(mod.left_algebra, mod.right_algebra, mod.dim, left, right,
                    check=False)


faults = st.tuples(
    st.integers(0, len(FAULT_MODULES) - 1),
    st.sampled_from(["left", "right"]),
    st.integers(0, 10), st.integers(0, 10), st.integers(0, 10),
    st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]),
)


@settings(max_examples=60, deadline=None)
@given(fault=faults)
def test_check_axioms_matches_column_reference_under_fault_injection(fault):
    k, side, p, r, c, delta = fault
    mod = _corrupt_action(FAULT_MODULES[k], side, p, r, c, delta)
    expected = axiom_violations(mod)
    assert mod.check_axioms() == expected
    assert mod.check_axioms(stop_early=True) == expected[:1]


@settings(max_examples=60, deadline=None)
@given(fault=faults, in_map=st.booleans())
def test_intertwining_matches_column_reference_under_fault_injection(fault, in_map):
    k, side, p, r, c, delta = fault
    mod = FAULT_MODULES[k]
    if in_map:
        m = _with_entry(RationalMatrix.identity(mod.dim), r % mod.dim, c % mod.dim, delta)
        bmap = BimoduleMap(mod, mod, LinearMap(mod.dim, mod.dim, m), check=False)
    else:
        target = _corrupt_action(mod, side, p, r, c, delta)
        bmap = BimoduleMap(mod, target, LinearMap.identity(mod.dim), check=False)
    expected = intertwining_violations(bmap)
    assert bmap.intertwining_failures() == expected
    assert bmap.intertwining_failures(stop_early=True) == expected[:1]


def test_column_reference_agrees_on_valid_modules():
    for mod in FAULT_MODULES:
        assert axiom_violations(mod) == [] == mod.check_axioms()
        ident = BimoduleMap(mod, mod, LinearMap.identity(mod.dim))
        assert intertwining_violations(ident) == [] == ident.intertwining_failures()
