"""Bimodule actions, balanced tensor products, induced modules."""

import dataclasses
import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moritalab import bimodules, exactla
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
    find_unit,
    group_algebra,
    matrix_algebra,
    scalar_algebra,
    semigroup_algebra,
)
from moritalab.bimodules import (
    ActionNotWellDefined,
    Bimodule,
    BimoduleAxiomError,
    BimoduleMap,
    InducedFlags,
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
    _extend_block,
)
from moritalab.morita import verify_witness, witness_brandt_full

import oracles
from oracles import (
    axiom_violations,
    balancing_span,
    intertwining_violations,
    non_unital_algebras,
    quotient_actions,
    rescaled,
    span_contains,
)


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


def test_regular_module_cache_makes_no_reference_cycle():
    # the algebra caches its regular module by weak reference, so both are
    # freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        a = semigroup_algebra(brandt(2, cyclic_group(3)))
        mod = regular_bimodule(a)
        assert regular_bimodule(a) is mod
        del a, mod
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_regular_bimodule_records_come_from_the_derivation(monkeypatch):
    checked = []
    monkeypatch.setattr(Bimodule, "check_axioms", lambda self, stop_early=False: checked.append(1))
    algebras = (matrix_algebra(2), semigroup_algebra(brandt(2, cyclic_group(3))),
                rescaled(semigroup_algebra(brandt(1, cyclic_group(2)))))
    modules = [regular_bimodule(a) for a in algebras]
    assert checked == []
    monkeypatch.undo()
    for reg in modules:
        assert reg._row_checks == {"left": True, "right": True}
        assert axiom_violations(reg) == []
        # check_axioms recomputes the records and agrees
        assert reg.check_axioms() == []
        assert reg._row_checks == {"left": True, "right": True}


def test_regular_bimodule_of_non_associative_algebra_is_checked():
    # e0 e0 = e1 and e1 e0 = e0: (e0 e0) e0 = e0 but e0 (e0 e0) = 0
    bad = StructureAlgebra(2, ["a", "b"], {(0, 0): {1: 1}, (1, 0): {0: 1}}, check=False)
    assert bad.derivation() is None
    with pytest.raises(BimoduleAxiomError):
        regular_bimodule(bad)


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
    assert bt.proj.target_dim == 1
    assert subspace_equal(kernel(bt.proj), bt.relations)


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


@pytest.mark.parametrize("sa", [semigroup_algebra(brandt(1, cyclic_group(2))),
                                semigroup_algebra(brandt(2, cyclic_group(1)))],
                         ids=["B(1,C2)", "B(2,C1)"])
def test_seeded_random_bimodule_matches_entry_by_entry_reference(sa):
    for seed in range(20):
        assert seeded_random_bimodule(sa, seed) == oracles.seeded_random_bimodule(sa, seed)


def test_seeded_random_bimodule_refuses_a_wrong_inverse(monkeypatch):
    # a raised check, not an assert, so it also holds under python -O
    sa = semigroup_algebra(brandt(1, cyclic_group(2)))
    monkeypatch.setattr(bimodules, "inverse", lambda f: LinearMap.identity(f.source_dim))
    with pytest.raises(RuntimeError, match="u times its inverse is not 1"):
        seeded_random_bimodule(sa, 0)


def test_extend_block_matches_entry_by_entry_reference():
    reg = regular_bimodule(semigroup_algebra(brandt(2, cyclic_group(2))))
    fractional = RationalMatrix(3, 3, {(0, 2): Fraction(1, 3), (2, 0): -2, (1, 1): Fraction(5, 7)})
    for m in [*reg.left_action, *reg.right_action, fractional, RationalMatrix(2, 2)]:
        for dim in (m.rows, m.rows + 1, m.rows + 3):
            assert _extend_block(m, dim) == oracles.extend_block(m, dim)


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
    fold_right = kronecker(LinearMap.identity(a.dim), y1.proj)
    comparison = y2.proj.compose(fold_right).compose(lift_left).compose(x2.section)
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


def test_bimodule_map_rejects_different_algebras_of_one_dimension():
    m2, c4 = matrix_algebra(2), group_algebra(cyclic_group(4))
    assert m2.dim == c4.dim == 4
    for check in (True, False):
        with pytest.raises(ValueError, match="^source and target live over different algebras$"):
            BimoduleMap(regular_bimodule(m2), regular_bimodule(c4), LinearMap.zero(4, 4),
                        check=check)


# ------------------------------------------- matrix checks against a reference

_B12 = semigroup_algebra(brandt(1, cyclic_group(2)))
_B23 = semigroup_algebra(brandt(2, cyclic_group(3)))
_WIT = witness_brandt_full(1, 2, cyclic_group(2))
_PQ = balanced_tensor(_WIT.p, _WIT.q, _WIT.algebra_a)
FAULT_MODULES = [
    regular_bimodule(matrix_algebra(2)),
    regular_bimodule(_B12),
    seeded_random_bimodule(_B12, 5),
    # 3 generators of 13, so the generator pass checks a proper subset
    regular_bimodule(_B23),
    # P (x)_A Q of a witness: actions replayed from the generators, built
    # unchecked with both records set
    _PQ.module,
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


def test_replayed_quotient_records_are_set_and_hold():
    bt = balanced_tensor(_WIT.p, _WIT.q, _WIT.algebra_a)
    assert bt.action_certificate == "generators"
    assert bt.module == _PQ.module
    mod = bt.module
    assert mod._row_checks == {"left": True, "right": True}
    assert axiom_violations(mod) == []
    fresh = Bimodule(mod.left_algebra, mod.right_algebra, mod.dim, mod.left_action,
                     mod.right_action, check=False)
    assert fresh._rows_hold("left") and fresh._rows_hold("right")


def test_intertwining_on_regular_module_compares_generators_only(monkeypatch):
    reg = regular_bimodule(_B23)
    assert reg._row_checks == {"left": True, "right": True}
    bmap = BimoduleMap(reg, reg, LinearMap.identity(reg.dim), check=False)
    assert bmap.certificate is None
    calls = []
    real = RationalMatrix.__matmul__

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(RationalMatrix, "__matmul__", counting)
    assert bmap.intertwining_failures() == []
    # M S_s and T_s M for 3 of 13 basis elements on each side
    assert len(calls) == 2 * 2 * len(_B23.derivation().generators) == 12
    assert bmap.certificate == "generators"


def test_intertwining_falls_back_when_the_source_record_fails():
    reg = FAULT_MODULES[3]
    for t, _, _ in _B23.derivation().steps:
        for side in ("left", "right"):
            src = _corrupt_action(reg, side, t, t, 12, 1)
            assert not src._rows_hold(side)
            bmap = BimoduleMap(src, reg, LinearMap.identity(reg.dim), check=False)
            expected = intertwining_violations(bmap)
            assert expected == [f"map does not intertwine {side} action of basis {t}"]
            assert bmap.intertwining_failures() == expected
            assert bmap.certificate == "exhaustive"
            assert bmap.intertwining_failures(stop_early=True) == expected[:1]


@settings(max_examples=40, deadline=None)
@given(iso=st.sampled_from(["iso_pq", "iso_qp"]), r=st.integers(0, 20), c=st.integers(0, 20),
       delta=st.sampled_from([1, -1, 2, Fraction(1, 2)]))
def test_witness_map_intertwining_matches_reference_under_fault_injection(iso, r, c, delta):
    # the source is a replayed quotient and the target a regular module, so
    # both sides take the generator route until a generator fails
    good = getattr(_WIT, iso)
    m = good.map.matrix
    bad = _with_entry(m, r % m.rows, c % m.cols, delta)
    bmap = BimoduleMap(good.source, good.target, LinearMap(m.cols, m.rows, bad), check=False)
    expected = intertwining_violations(bmap)
    assert bmap.intertwining_failures() == expected
    assert bmap.certificate == ("exhaustive" if expected else "generators")
    assert bmap.intertwining_failures(stop_early=True) == expected[:1]


def test_check_axioms_corrupted_non_generator_action_matches_reference():
    der = _B23.derivation()
    assert len(der.generators) == 3 < _B23.dim
    for p, _, _ in der.steps:
        for side in ("left", "right"):
            mod = _corrupt_action(FAULT_MODULES[3], side, p, p, 12, 1)
            expected = axiom_violations(mod)
            assert expected, (p, side)
            assert mod.check_axioms() == expected
            assert mod.check_axioms(stop_early=True) == expected[:1]


def test_check_axioms_reports_non_commuting_valid_actions():
    # column and row actions of M_n on the index space are each valid but
    # do not commute, so only the commutation identities fail
    for n in (2, 3):
        m = matrix_algebra(n)
        mod = Bimodule(m, m, n, column_module(n).left_action, row_module(n).right_action,
                       check=False)
        expected = axiom_violations(mod)
        assert expected and all(v.startswith("actions do not commute") for v in expected)
        assert mod.check_axioms() == expected


# ------------------------------------------ balancing from generator relations

RANDOM_MODULE_ALGEBRAS = [
    _B12,
    rescaled(matrix_algebra(2)),
    rescaled(_B12),
    rescaled(semigroup_algebra(brandt(2, cyclic_group(1)))),
]


_WIT_BALANCING = [
    (_WIT.p, _WIT.q, _WIT.algebra_a),
    (_WIT.q, _WIT.p, _WIT.algebra_b),
    (regular_bimodule(_WIT.algebra_b), _WIT.p, _WIT.algebra_b),
    (_WIT.p, regular_bimodule(_WIT.algebra_a), _WIT.algebra_a),
]
# monomial relations with weights other than +-1, and a pair of random
# modules whose relations are not monomial
_MONOMIAL_RESCALED = [(regular_bimodule(a), regular_bimodule(a), a)
                      for a in RANDOM_MODULE_ALGEBRAS[1:3]]
_RANDOM_PAIR = (seeded_random_bimodule(_B12, 3), seeded_random_bimodule(_B12, 8), _B12)
BALANCING_CASES = [
    (FAULT_MODULES[0], FAULT_MODULES[0], matrix_algebra(2)),
    (FAULT_MODULES[1], FAULT_MODULES[2], _B12),
    (FAULT_MODULES[2], FAULT_MODULES[1], _B12),
    *_WIT_BALANCING[:2],
    *_MONOMIAL_RESCALED,
    _RANDOM_PAIR,
]


# None, or a corruption of one action entry of e or f
pair_faults = st.none() | st.tuples(
    st.sampled_from(["e", "f"]), st.sampled_from(["left", "right"]),
    st.integers(0, 10), st.integers(0, 10), st.integers(0, 10),
    st.sampled_from([1, -1, 2, Fraction(1, 2)]),
)


def _corrupt_pair(e, f, fault):
    if fault is None:
        return e, f
    which, side, p, r, c, delta = fault
    if which == "e":
        return _corrupt_action(e, side, p, r, c, delta), f
    return e, _corrupt_action(f, side, p, r, c, delta)


@settings(max_examples=40, deadline=None)
@given(case=st.integers(0, len(BALANCING_CASES) - 1), fault=pair_faults)
def test_balancing_subspace_matches_span_of_all_triples(case, fault):
    e, f, over = BALANCING_CASES[case]
    e, f = _corrupt_pair(e, f, fault)
    assert balancing_subspace(e, f, over).basis.to_dense() == balancing_span(e, f, over)


def test_monomial_balancing_never_eliminates(monkeypatch):
    calls = []
    real = exactla._forward_echelon

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(exactla, "_forward_echelon", spy)
    for e, f, over in _WIT_BALANCING + _MONOMIAL_RESCALED:
        assert balancing_subspace(e, f, over).basis.to_dense() == balancing_span(e, f, over)
    assert calls == []
    # the random modules' relations have more than two terms: elimination
    e, f, over = _RANDOM_PAIR
    assert balancing_subspace(e, f, over).basis.to_dense() == balancing_span(e, f, over)
    assert calls


def test_balanced_tensor_certificate_generators_on_witness_modules():
    for e, f, over in _WIT_BALANCING:
        bt = balanced_tensor(e, f, over)
        assert bt.certificate == "generators"
        assert bt.action_certificate == "generators"


def test_balanced_tensor_certificate_exhaustive_when_step_identity_broken():
    # zero left action and R_t = 1 for the first derived t, else 0: the
    # generator row R_u R_s = R_t fails, the outer actions still preserve
    # the relations, and they are spanned from every basis element
    m2 = matrix_algebra(2)
    t = m2.derivation().steps[0][0]
    zero = RationalMatrix(1, 1)
    right = [zero] * m2.dim
    right[t] = RationalMatrix.identity(1)
    e = Bimodule(m2, m2, 1, [zero] * m2.dim, right, check=False)
    assert e.check_axioms()
    reg = regular_bimodule(m2)
    bt = balanced_tensor(e, reg, m2)
    assert bt.certificate == "exhaustive"
    assert bt.relations.basis.to_dense() == balancing_span(e, reg, m2)
    # e's left action is zero, so its generator rows hold and the
    # quotient actions still come from the generators
    assert bt.action_certificate == "generators"


def _replayed_line(alg, generator_values):
    """A 1-dimensional module over alg whose left and right actions are the
    given scalars on the generators and are replayed over the steps, so
    that every step identity holds whatever the generators break."""
    der = alg.derivation()
    acts = {}
    for side in ("left", "right"):
        v = [0] * alg.dim
        for s in der.generators:
            v[s] = generator_values.get(s, 0)
        for t, s, u in der.steps:
            coeffs = alg.structure[(s, u)]
            v[t] = Fraction(v[s] * v[u] - sum(c * v[r] for r, c in coeffs.items() if r != t),
                            coeffs[t])
        acts[side] = [RationalMatrix.from_rows([{0: x} if x else {}], 1) for x in v]
    return Bimodule(alg, alg, 1, acts["left"], acts["right"], check=False)


def test_balanced_tensor_exhaustive_when_steps_hold_but_generator_rows_fail():
    # e_11 acts as 1 and the other matrix units as 0: every step identity
    # holds, but L_(1,2) L_(2,1) = 0 differs from L_(1,1) on a generator row
    m2 = matrix_algebra(2)
    line = _replayed_line(m2, {m2.label_index("(1,1)"): 1})
    violations = axiom_violations(line)
    for _, s, u in m2.derivation().steps:
        assert f"left action not multiplicative at basis pair ({s},{u})" not in violations
        assert f"right action not anti-multiplicative at basis pair ({s},{u})" \
            not in violations
    reg = regular_bimodule(m2)
    for e, f in ((line, reg), (reg, line)):
        bt = balanced_tensor(e, f, m2)
        assert bt.certificate == "exhaustive"
        assert bt.action_certificate == "exhaustive"
        assert bt.relations.basis.to_dense() == balancing_span(e, f, m2)
        assert bt.module == quotient_actions(e, f, m2)
    assert not line._rows_hold("left") and not line._rows_hold("right")


def test_balanced_tensor_checks_the_quotient_on_the_per_basis_path():
    # with zero right action on e and zero left action on f nothing is
    # divided out, so the quotient's left action is the line's, which its
    # generator rows reject: the quotient module's own axiom check is what
    # refuses it
    m2 = matrix_algebra(2)
    zero = zero_action_module(m2, 1)
    line = _replayed_line(m2, {m2.label_index("(1,1)"): 1})
    e = Bimodule(m2, m2, 1, line.left_action, zero.right_action, check=False)
    expected = _outcome(lambda: quotient_actions(e, zero, m2))
    assert expected[0] is BimoduleAxiomError
    assert _outcome(lambda: balanced_tensor(e, zero, m2)) == expected


def test_check_axioms_recomputes_the_row_record():
    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    mod = Bimodule(m2, m2, reg.dim, reg.left_action, reg.right_action, check=False)
    mod._row_checks["left"] = False
    assert mod.check_axioms() == []
    assert mod._row_checks["left"] is True
    line = _replayed_line(m2, {m2.label_index("(1,1)"): 1})
    line._row_checks.update(left=True, right=True)
    assert line.check_axioms() == axiom_violations(line) != []


# ---------------------------------- quotient actions replayed from generators


def _outcome(build):
    try:
        return build()
    except (ActionNotWellDefined, IntertwiningError, BimoduleAxiomError) as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(
    case=st.integers(0, len(BALANCING_CASES) - 1) | st.tuples(
        st.integers(0, len(RANDOM_MODULE_ALGEBRAS) - 1), st.integers(0, 99), st.integers(0, 99)),
    fault=pair_faults,
)
def test_balanced_tensor_matches_per_basis_reference(case, fault):
    if isinstance(case, int):
        e, f, over = BALANCING_CASES[case]
    else:
        over = RANDOM_MODULE_ALGEBRAS[case[0]]
        e, f = seeded_random_bimodule(over, case[1]), seeded_random_bimodule(over, case[2])
    e, f = _corrupt_pair(e, f, fault)
    expected = _outcome(lambda: quotient_actions(e, f, over))
    got = _outcome(lambda: balanced_tensor(e, f, over))
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert got.module == expected
    for m in got.module.left_action + got.module.right_action:
        assert not any(isinstance(v, Fraction) and v.denominator == 1 for _, _, v in m.entries())
    if fault is None:
        assert got.action_certificate == "generators"
    elif not (e._rows_hold("left") and f._rows_hold("right")):
        assert got.action_certificate == "exhaustive"
    if got.action_certificate == "generators":
        # built unchecked, so its axioms rest on the generator proof
        assert axiom_violations(got.module) == []


def test_balanced_tensor_generator_failure_reports_first_failing_basis():
    # each action is valid, so every step identity holds, but the left and
    # right actions do not commute: generator 1 fails its check, and the
    # per-basis loop then names basis 0, which comes first and fails too
    a = RANDOM_MODULE_ALGEBRAS[3]
    assert 0 not in a.derivation().generators
    reg = regular_bimodule(a)
    mixed = Bimodule(a, a, reg.dim, reg.left_action, dual_bimodule(reg).right_action,
                     check=False)
    for side, e, f in (("left", mixed, reg), ("right", reg, mixed)):
        message = f"{side} action of basis 0 does not preserve the balancing subspace"
        with pytest.raises(ActionNotWellDefined, match=f"^{message}$"):
            balanced_tensor(e, f, a)
        assert _outcome(lambda: quotient_actions(e, f, a)) == (ActionNotWellDefined, message)


# ------------------------------------------- one projection check per tensor


def _patched_quotient(monkeypatch, corrupt):
    """Make balanced_tensor's quotient return corrupt(proj rows, pivots)."""
    real = bimodules.quotient

    def patched(dim, n):
        q = real(dim, n)
        rows = corrupt([q.proj.matrix.row(r) for r in range(q.dim)], n.pivot_columns())
        return dataclasses.replace(q, proj=LinearMap(dim, q.dim, RationalMatrix.from_rows(rows, dim)))

    monkeypatch.setattr(bimodules, "quotient", patched)


def test_balanced_tensor_rejects_a_projection_that_misses_the_relations(monkeypatch):
    def corrupt(rows, pivots):
        rows[0][pivots[0]] = rows[0].get(pivots[0], 0) + 1
        return rows

    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    _patched_quotient(monkeypatch, corrupt)
    with pytest.raises(RuntimeError,
                       match="^quotient projection does not vanish on the balancing subspace$"):
        balanced_tensor(reg, reg, m2)


def test_balanced_tensor_scaled_projection_fails_intertwining(monkeypatch):
    # 2 proj still vanishes on N, but t = 2 proj m section gives
    # t (2 proj) = 2 (2 proj m) != 2 proj m: only the intertwining check
    # sees it, and pm N^T = 0 makes the error an IntertwiningError
    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    _patched_quotient(monkeypatch, lambda rows, _: [{c: 2 * v for c, v in r.items()} for r in rows])
    with pytest.raises(IntertwiningError,
                       match="^map does not intertwine left action of basis 0$"):
        balanced_tensor(reg, reg, m2)


# ------------------------------------------------- induced-ness from the unit


def _collapse_flags(mod):
    """is_induced by the collapse maps alone, as the oracle."""
    left = mu_map(mod).is_bijective()
    right = mirror_mu_map(mod).is_bijective()
    return InducedFlags(left=left, right=right, two_sided=left and right)


def _unital_rescaled(a):
    alg = rescaled(a)
    alg.unit = find_unit(alg).coeffs
    return alg


UNITAL_ALGEBRAS = [
    matrix_algebra(1), matrix_algebra(2), matrix_algebra(3), _B12,
    semigroup_algebra(brandt(2, cyclic_group(1))), semigroup_algebra(brandt(2, cyclic_group(2))),
    _unital_rescaled(matrix_algebra(2)), _unital_rescaled(_B12),
    _unital_rescaled(semigroup_algebra(brandt(2, cyclic_group(2)))),
]


def _module(a, kind, seed):
    if kind == "random":
        return seeded_random_bimodule(a, seed)
    if kind == "dual":
        return dual_bimodule(regular_bimodule(a))
    if kind == "zero":
        return zero_action_module(a, 1 + seed % 3)
    return regular_bimodule(a)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, len(UNITAL_ALGEBRAS) - 1),
       kind=st.sampled_from(["random", "dual", "zero", "regular"]), seed=st.integers(0, 999))
def test_is_induced_from_the_unit_matches_the_collapse_maps(k, kind, seed):
    mod = _module(UNITAL_ALGEBRAS[k], kind, seed)
    flags = is_induced(mod)
    assert flags == _collapse_flags(mod)
    assert flags.certificate == ("unit", "unit")


def test_padded_random_module_is_not_induced_on_either_route():
    # seed 0 pads with a zero-action line, on which x.1 = 0 != x
    for a in UNITAL_ALGEBRAS:
        mod = seeded_random_bimodule(a, 0)
        assert mod.dim == a.dim + 1
        flags = is_induced(mod)
        assert flags == _collapse_flags(mod) == InducedFlags(False, False, False)
        assert flags.certificate == ("unit", "unit")


def test_is_induced_falls_back_without_a_unit():
    for a in non_unital_algebras()[1::2]:
        assert a.name in ("left zero", "right zero") and a.unit is None
        reg = regular_bimodule(a)
        for mod in (reg, dual_bimodule(reg), zero_action_module(a, 2)):
            flags = is_induced(mod)
            assert flags == _collapse_flags(mod)
            assert flags.certificate == ("collapse", "collapse")
    # a unital left algebra and a non-unital right one: one route per side
    mixed = tensor(regular_bimodule(matrix_algebra(2)), regular_bimodule(non_unital_algebras()[1]))
    flags = is_induced(mixed)
    assert flags == _collapse_flags(mixed)
    assert flags.certificate == ("unit", "collapse")


def test_is_induced_takes_the_unit_route_only_once_the_axioms_are_proven():
    reg = regular_bimodule(_B12)
    mod = Bimodule(_B12, _B12, reg.dim, reg.left_action, reg.right_action, check=False)
    assert is_induced(mod).certificate == ("collapse", "collapse")
    assert mod.check_axioms() == []
    assert is_induced(mod).certificate == ("unit", "unit")
    # a failing check takes the proof back: the collapse maps then raise
    bad = _corrupt_action(mod, "left", 1, 0, 0, 1)
    bad._proven = True
    assert bad.check_axioms() != []
    expected = _outcome(lambda: _collapse_flags(bad))
    assert expected[0] is ActionNotWellDefined
    assert _outcome(lambda: is_induced(bad)) == expected


@settings(max_examples=40, deadline=None)
@given(fault=faults)
def test_is_induced_under_fault_injection_keeps_the_collapse_outcome(fault):
    k, side, p, r, c, delta = fault
    mod = _corrupt_action(FAULT_MODULES[k], side, p, r, c, delta)
    expected = _outcome(lambda: _collapse_flags(mod))
    got = _outcome(lambda: is_induced(mod))
    assert got == expected
    if isinstance(got, InducedFlags):
        assert got.certificate == ("collapse", "collapse")


def test_is_induced_on_non_commuting_actions_raises_what_the_collapse_raises():
    # the same algebra without a unit (rescaled) and with one
    for alg in (RANDOM_MODULE_ALGEBRAS[3], semigroup_algebra(brandt(2, cyclic_group(1)))):
        reg = regular_bimodule(alg)
        mixed = Bimodule(alg, alg, reg.dim, reg.left_action, dual_bimodule(reg).right_action,
                         check=False)
        expected = _outcome(lambda: _collapse_flags(mixed))
        assert expected[0] is ActionNotWellDefined
        assert _outcome(lambda: is_induced(mixed)) == expected


def _refuse_collapse_maps(monkeypatch):
    def refuse(e):
        raise AssertionError("collapse map built")

    monkeypatch.setattr(bimodules, "mu_map", refuse)
    monkeypatch.setattr(bimodules, "mirror_mu_map", refuse)


def test_index_space_induced_takes_its_sides_from_is_induced(monkeypatch):
    expected = {n: (_collapse_flags(column_module(n)).left, _collapse_flags(row_module(n)).right)
                for n in (1, 2, 3)}
    _refuse_collapse_maps(monkeypatch)
    for n, (left, right) in expected.items():
        flags = index_space_induced(n)
        assert (flags.left, flags.right, flags.two_sided) == (left, right, left and right)
        assert flags.certificate == ("unit", "unit")


def test_induced_flags_compare_without_the_certificate():
    assert InducedFlags(True, False, False) == InducedFlags(True, False, False,
                                                            certificate=("unit", "collapse"))
    assert InducedFlags(True, False, False).certificate is None


def test_full_witness_certifies_without_a_collapse_map(monkeypatch):
    _refuse_collapse_maps(monkeypatch)
    wit = witness_brandt_full(2, 3, cyclic_group(3))
    rep = verify_witness(wit)
    assert rep.passed, rep.to_dict()


def test_induced_completion_refuses_a_result_that_is_not_induced(monkeypatch):
    m2 = matrix_algebra(2)
    monkeypatch.setattr(bimodules, "is_induced", lambda e: InducedFlags(False, False, False))
    with pytest.raises(RuntimeError, match="^completion failed to be two-sided induced$"):
        induced_completion(m2, regular_bimodule(m2))
