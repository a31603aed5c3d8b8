"""Morita witnesses, the splitting sequence, and fault injection."""

import ast
import dataclasses
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moritalab.exactla import (
    LinearMap,
    RationalMatrix,
    image,
    kernel,
    l1_operator_norm,
    subspace_equal,
)
from moritalab.structures import (
    StructureAlgebra,
    cyclic_group,
    find_unit,
    klein_four_group,
    symmetric_group,
)
from moritalab.bimodules import (
    Bimodule,
    BimoduleMap,
    balanced_tensor,
    induced_map,
    regular_bimodule,
)
from moritalab.morita import (
    VerificationFailed,
    split_sequence,
    swap_witness,
    verify_witness,
    witness_brandt_contracted,
    witness_brandt_full,
    witness_matrix_vs_scalars,
    _full_pairing,
    _is_algebra_hom,
    _rect_pairing,
)

import oracles
from oracles import algebra_hom_failure


# --------------------------------------------------------- matrix vs scalars

def test_matrix_witness_dim_one():
    w = witness_matrix_vs_scalars(1)
    assert w.p.dim == 1 and w.q.dim == 1
    assert w.iso_pq.map.source_dim == 1
    assert verify_witness(w).passed


def test_matrix_witness_dims_two():
    w = witness_matrix_vs_scalars(2)
    assert w.iso_pq.map.source_dim == 1      # P (x)_A Q collapses to the line
    assert w.iso_qp.map.source_dim == 4      # Q (x)_C P is the full square
    assert verify_witness(w).passed


def test_matrix_witness_three_norm_one():
    w = witness_matrix_vs_scalars(3)
    rep = verify_witness(w)
    assert rep.passed
    assert l1_operator_norm(w.iso_qp.map) == 1


# ------------------------------------------------------------------ splitting

def test_split_sequence_embedding_formula():
    sp = split_sequence(2, cyclic_group(2))
    s = sp.brandt_semigroup
    for t in range(sp.contracted.dim):
        assert sp.u.col(t) == {t: 1, s.zero_index: -1}


def test_split_sequence_integral_functional():
    sp = split_sequence(1, cyclic_group(3))
    for t in range(sp.semigroup.dim):
        assert sp.v.apply({t: 1}) == {0: 1}


def test_split_sequence_retraction():
    sp = split_sequence(2, cyclic_group(2))
    assert sp.w.compose(sp.u) == LinearMap.identity(8)


def test_split_sequence_exactness():
    sp = split_sequence(2, cyclic_group(3))
    assert kernel(sp.u).dim == 0
    assert image(sp.v).dim == 1
    assert subspace_equal(image(sp.u), kernel(sp.v))


def test_split_embedding_image_dimension():
    # the embedding of the 4-dim triple algebra into the 5-dim semigroup
    # algebra has full column rank
    sp = split_sequence(2, cyclic_group(1))
    assert image(sp.u).dim == 4
    assert sp.semigroup.dim == 5


def test_split_sequence_theta_round_trip():
    sp = split_sequence(2, cyclic_group(2))
    n = sp.semigroup.dim
    assert sp.theta_inv.compose(sp.theta) == LinearMap.identity(n)
    assert sp.theta.compose(sp.theta_inv) == LinearMap.identity(n)
    s = sp.brandt_semigroup
    assert sp.theta.apply({s.zero_index: 1}) == {sp.contracted.dim: 1}


def test_split_sequence_unit_transport():
    for i, g in [(1, cyclic_group(1)), (2, cyclic_group(2)), (3, cyclic_group(1))]:
        sp = split_sequence(i, g)
        s = sp.brandt_semigroup
        unit = find_unit(sp.semigroup)
        expected = {s.triple_index(k, g.identity_index, k): 1 for k in range(1, i + 1)}
        if i != 1:
            expected[s.zero_index] = 1 - i
        assert unit.coeffs == expected
        assert sp.theta.apply(unit.coeffs) == sp.sum_algebra.unit


_SPLIT = split_sequence(2, cyclic_group(3))
_HOMS = {
    "u": (_SPLIT.u, _SPLIT.contracted, _SPLIT.semigroup),
    "v": (_SPLIT.v, _SPLIT.semigroup, _SPLIT.scalars),
    "w": (_SPLIT.w, _SPLIT.semigroup, _SPLIT.contracted),
    "theta": (_SPLIT.theta, _SPLIT.semigroup, _SPLIT.sum_algebra),
}


def _with_map_entry(f, r, c, delta):
    m = RationalMatrix.from_rows([f.matrix.row(i) for i in range(f.target_dim)], f.source_dim)
    v = m._rows[r].get(c, 0) + delta
    if v:
        m._rows[r][c] = v
    else:
        del m._rows[r][c]
    return LinearMap(f.source_dim, f.target_dim, m)


def test_split_homomorphisms_certified_on_generators():
    assert _SPLIT.hom_certificates == dict.fromkeys(("u", "v", "w", "theta"), "generators")
    for f, src, dst in _HOMS.values():
        assert len(src.derivation().generators) < src.dim
        assert _is_algebra_hom(f, src, dst) == (True, "", "generators")
        assert algebra_hom_failure(f, src, dst) == (True, "")


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_HOMS)), r=st.integers(0, 20), c=st.integers(0, 20),
       delta=st.sampled_from([1, -1, 2, Fraction(1, 2)]))
def test_algebra_hom_matches_full_loop_under_fault_injection(name, r, c, delta):
    f, src, dst = _HOMS[name]
    bad = _with_map_entry(f, r % f.target_dim, c % f.source_dim, delta)
    ok, message, certificate = _is_algebra_hom(bad, src, dst)
    assert (ok, message) == algebra_hom_failure(bad, src, dst)
    assert certificate == ("generators" if ok else "exhaustive")


def test_algebra_hom_corrupted_at_non_generators_matches_full_loop():
    for name, (f, src, dst) in _HOMS.items():
        gens = src.derivation().generators
        for c in range(src.dim):
            if c in gens:
                continue
            bad = _with_map_entry(f, c % f.target_dim, c, 1)
            expected = algebra_hom_failure(bad, src, dst)
            assert not expected[0], (name, c)
            assert _is_algebra_hom(bad, src, dst) == (*expected, "exhaustive")


def test_algebra_hom_without_derivation_checks_every_pair():
    # e0 e0 = e1 and e1 e0 = e0: not associative, so there is no derivation
    bad = StructureAlgebra(2, ["a", "b"], {(0, 0): {1: 1}, (1, 0): {0: 1}}, check=False)
    assert bad.derivation() is None
    ident = LinearMap.identity(2)
    assert _is_algebra_hom(ident, bad, bad) == (True, "", "exhaustive")
    swap = LinearMap.from_cols([{1: 1}, {0: 1}], 2)
    expected = algebra_hom_failure(swap, bad, bad)
    assert not expected[0]
    assert _is_algebra_hom(swap, bad, bad) == (*expected, "exhaustive")


def test_split_sequence_klein_four():
    sp = split_sequence(2, klein_four_group())
    assert sp.semigroup.dim == 17


@pytest.mark.parametrize("g", [cyclic_group(1), cyclic_group(2), symmetric_group(3)],
                         ids=["C1", "C2", "S3"])
@pytest.mark.parametrize("i", [1, 2, 3])
def test_split_maps_match_entry_by_entry_reference(i, g):
    sp = split_sequence(i, g)
    u, v, w, theta, formula = oracles.split_maps(
        sp.contracted.dim, sp.semigroup.dim, sp.brandt_semigroup.zero_index)
    assert (sp.u, sp.v, sp.w, sp.theta) == (u, v, w, theta)
    # split_sequence compared the inverse with its own formula
    assert sp.theta_inv == formula


# ---------------------------------------------------------- contracted witness

def test_contracted_witness_trivial_sizes():
    w = witness_brandt_contracted(1, 1, cyclic_group(1))
    assert w.p.dim == 1 and w.iso_pq.map.source_dim == 1
    assert verify_witness(w).passed


def test_contracted_witness_one_two():
    w = witness_brandt_contracted(1, 2, cyclic_group(1))
    assert w.p.dim == 2
    assert w.iso_pq.map.source_dim == 4      # equals the 2x2 matrix algebra
    assert verify_witness(w).passed


def test_contracted_witness_two_three_c2_dims():
    w = witness_brandt_contracted(2, 3, cyclic_group(2))
    assert w.iso_pq.map.source_dim == w.algebra_b.dim == 18
    assert w.iso_qp.map.source_dim == w.algebra_a.dim == 8
    assert verify_witness(w).passed


# ---------------------------------------------------------------- full witness

def test_full_witness_trivial():
    w = witness_brandt_full(1, 1, cyclic_group(1))
    assert w.algebra_a.dim == 2 and w.algebra_b.dim == 2
    assert verify_witness(w).passed


def test_full_witness_one_two_c1():
    w = witness_brandt_full(1, 2, cyclic_group(1))
    assert (w.algebra_a.dim, w.algebra_b.dim) == (2, 5)
    assert w.p.dim == 3
    rep = verify_witness(w)
    assert rep.passed
    for cond in rep.conditions:
        assert cond.passed, cond.name


@pytest.mark.parametrize("i,j,g", [(1, 2, cyclic_group(1)), (2, 3, cyclic_group(2)),
                                   (2, 1, symmetric_group(3))], ids=["1-2-C1", "2-3-C2", "2-1-S3"])
def test_full_pairings_match_entry_by_entry_reference(i, j, g):
    split_i, split_j = split_sequence(i, g), split_sequence(j, g)
    pd = qd = i * g.order * j + 1
    zero_i = split_i.brandt_semigroup.zero_index
    zero_j = split_j.brandt_semigroup.zero_index
    raw_pq = _full_pairing(pd, qd, _rect_pairing(j, i, j, g), zero_j)
    raw_qp = _full_pairing(qd, pd, _rect_pairing(i, j, i, g), zero_i)
    assert raw_pq == oracles.full_pairing(pd, qd, _rect_pairing(j, i, j, g), split_j)
    assert raw_qp == oracles.full_pairing(qd, pd, _rect_pairing(i, j, i, g), split_i)
    # and these are the pairings the witness descends to its isomorphisms
    w = witness_brandt_full(i, j, g)
    a, b = w.algebra_a, w.algebra_b
    assert w.iso_pq.map == induced_map(balanced_tensor(w.p, w.q, a), raw_pq,
                                       regular_bimodule(b)).map
    assert w.iso_qp.map == induced_map(balanced_tensor(w.q, w.p, b), raw_qp,
                                       regular_bimodule(a)).map


@pytest.mark.parametrize("i,j,g", [(1, 1, cyclic_group(1)), (1, 2, symmetric_group(3)),
                                   (2, 3, cyclic_group(3)), (3, 2, cyclic_group(2))],
                         ids=["1-1-C1", "1-2-S3", "2-3-C3", "3-2-C2"])
def test_full_witness_modules_are_the_theta_transport(i, j, g):
    # the closed-form actions are the padded direct-sum actions moved
    # through the certified splitting
    w = witness_brandt_full(i, j, g)
    p, q = oracles.transported_full_modules(i, j, g)
    assert w.p == p
    assert w.q == q


def test_full_witness_builds_without_the_splitting(monkeypatch):
    import moritalab.morita as morita_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("the full witness must not build the splitting")

    for name in ("split_sequence", "contracted_brandt_algebra", "scalar_algebra", "direct_sum"):
        monkeypatch.setattr(morita_mod, name, forbidden)
    w = witness_brandt_full(2, 3, cyclic_group(3))
    assert (w.algebra_a.dim, w.algebra_b.dim, w.p.dim) == (13, 28, 19)
    assert verify_witness(w).passed


def test_full_witness_swap_is_still_verified():
    w = witness_brandt_full(1, 2, cyclic_group(2))
    assert verify_witness(swap_witness(w)).passed


def test_full_witness_norms_reported():
    w = witness_brandt_full(1, 2, cyclic_group(1))
    rep = verify_witness(w)
    iso = rep.condition("pq_tensor_iso")
    assert iso.details["bijective"] is True
    assert "norm" in iso.details and "inverse_norm" in iso.details


# ------------------------------------------------------------- fault injection

def test_fault_zero_iso_detected():
    w = witness_matrix_vs_scalars(2)
    zero = BimoduleMap(
        w.iso_pq.source, w.iso_pq.target,
        LinearMap.zero(w.iso_pq.map.source_dim, w.iso_pq.map.target_dim),
    )
    broken = dataclasses.replace(w, iso_pq=zero)
    rep = verify_witness(broken)
    assert not rep.passed
    assert not rep.condition("pq_tensor_iso").passed
    assert rep.condition("p_two_sided_induced").passed
    assert rep.condition("q_two_sided_induced").passed
    assert rep.condition("qp_tensor_iso").passed


def test_fault_corrupted_action_detected():
    w = witness_brandt_full(1, 2, cyclic_group(1))
    left = [RationalMatrix.from_rows([m.row(r) for r in range(m.rows)], m.cols)
            for m in w.p.left_action]
    left[0]._rows[0][w.p.dim - 1] = left[0]._rows[0].get(w.p.dim - 1, 0) + 1
    left[0]._colcache = None
    corrupted = Bimodule(
        w.p.left_algebra, w.p.right_algebra, w.p.dim,
        left, list(w.p.right_action), check=False,
    )
    broken = dataclasses.replace(w, p=corrupted)
    rep = verify_witness(broken)
    assert not rep.passed
    bad = rep.condition("p_two_sided_induced")
    assert not bad.passed
    assert "reason" in bad.details
    assert rep.condition("q_two_sided_induced").passed
    assert rep.condition("pq_tensor_iso").passed
    assert rep.condition("qp_tensor_iso").passed


def _without_unit(real):
    def build(*args):
        alg = real(*args)
        alg.unit = None
        return alg
    return build


def _with_zero_as_unit(real):
    # the zero point mass is no unit; built unchecked so the claim stands
    def build(s):
        alg = real(s)
        return StructureAlgebra(alg.dim, alg.labels, alg.structure, unit={s.zero_index: 1},
                                name=alg.name, check=False)
    return build


def _map_replaced(n, wrong):
    """A LinearMap whose n-th from_cols call (split_sequence writes out u,
    v, w, theta and theta's inverse formula in that order) returns
    wrong(the map it would have built)."""
    def fake(real):
        calls = []

        class Replaced(real):
            @classmethod
            def from_cols(cls, cols, target_dim):
                calls.append(1)
                m = real.from_cols(cols, target_dim)
                return wrong(m) if len(calls) == n else m
        return Replaced
    return fake


def _zero(m):
    # a zero map is multiplicative, so it passes its homomorphism check
    return LinearMap.zero(m.source_dim, m.target_dim)


def _killing_the_zero(v):
    # the integral functional with the zero point mass sent to 0
    return LinearMap.from_cols([v.col(c) for c in range(v.source_dim - 1)] + [{}], 1)


_HOM = ("_is_algebra_hom", lambda real: lambda f, src, dst: (True, "", "generators"))
# theta's true inverse at (2, C2), whatever map theta is
_THETA_INV = ("inverse", lambda real: lambda f: oracles.split_maps(8, 9, 8)[4])


@pytest.mark.parametrize("patches,condition", [
    ([("inverse", lambda real: lambda f: None)], "theta_bijective"),
    ([("inverse", lambda real: lambda f: LinearMap.zero(f.target_dim, f.source_dim))],
     "theta_inverse_formula"),
    ([("semigroup_algebra", _without_unit)], "semigroup_unit"),
    ([("semigroup_algebra", _with_zero_as_unit)], "unit_formula"),
    ([("scalar_algebra",
       lambda real: lambda: StructureAlgebra(1, ["1"], {(0, 0): {0: 2}}, name="2Q"))],
     "v_homomorphism"),
    ([("LinearMap", _map_replaced(3, _zero))], "wu_identity"),
    ([_HOM, ("LinearMap", _map_replaced(2, _killing_the_zero))], "vu_zero"),
    ([("kernel", lambda real: lambda f: real(_zero(f)))], "u_injective"),
    ([("LinearMap", _map_replaced(2, _zero))], "v_surjective"),
    ([("subspace_equal", lambda real: lambda x, y: False)], "exactness"),
    ([_THETA_INV, ("LinearMap", _map_replaced(4, _zero))], "zero_transport"),
    ([("direct_sum", _without_unit)], "unit_transport"),
], ids=["no-inverse", "wrong-inverse", "no-unit", "wrong-unit", "doubled-scalars",
        "zero-w", "v-kills-zero", "u-kernel", "zero-v", "inexact", "zero-theta",
        "sum-without-unit"])
def test_split_sequence_guards_fire(monkeypatch, patches, condition):
    import moritalab.morita as morita_mod

    for target, fake in patches:
        monkeypatch.setattr(morita_mod, target, fake(getattr(morita_mod, target)))
    with pytest.raises(VerificationFailed) as err:
        split_sequence(2, cyclic_group(2))
    assert err.value.condition == condition


def test_builders_construct_without_certifying(monkeypatch):
    import moritalab.morita as morita_mod

    def forbidden(wit):
        raise AssertionError("a witness builder ran verify_witness")

    monkeypatch.setattr(morita_mod, "verify_witness", forbidden)
    for w in (morita_mod.witness_matrix_vs_scalars(2),
              morita_mod.witness_brandt_contracted(1, 2, cyclic_group(2)),
              morita_mod.witness_brandt_full(1, 2, cyclic_group(2))):
        assert isinstance(w, morita_mod.MoritaWitness)


def test_only_verify_witness_certifies_witnesses():
    import moritalab.morita as morita_mod

    tree = ast.parse(pathlib.Path(morita_mod.__file__).read_text(encoding="utf-8"))
    callers = {
        fn.name
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "verify_witness"
    }
    assert callers <= {"verify_witness"}


# ------------------------------------------------------------- composability

def compose_contracted_witnesses(i, j, k, g):
    """Balanced product of the two rectangle modules against the direct
    witness, with the canonical convolution comparison map."""
    w_ij = witness_brandt_contracted(i, j, g)
    w_jk = witness_brandt_contracted(j, k, g)
    w_ik = witness_brandt_contracted(i, k, g)
    # p of (j,k) is a (k-triples, j-triples) module; p of (i,j) is (j, i)
    bt = balanced_tensor(w_jk.p, w_ij.p, w_jk.algebra_a)
    raw = _rect_pairing(k, j, i, g)
    comparison = induced_map(bt, raw, w_ik.p)
    return bt, comparison, w_ik


@pytest.mark.parametrize("i,j,k,g_order", [
    (1, 2, 1, 1), (1, 2, 2, 1), (2, 1, 2, 2), (2, 2, 2, 2),
])
def test_contracted_witness_composability(i, j, k, g_order):
    g = cyclic_group(g_order)
    bt, comparison, w_ik = compose_contracted_witnesses(i, j, k, g)
    assert bt.module.dim == w_ik.p.dim
    assert comparison.is_bijective()


# --------------------------------------------------------------- verify report

def test_verify_report_shape():
    rep = verify_witness(witness_matrix_vs_scalars(2))
    d = rep.to_dict()
    assert d["passed"] is True
    assert [c["name"] for c in d["conditions"]] == [
        "p_two_sided_induced", "q_two_sided_induced",
        "pq_tensor_iso", "qp_tensor_iso",
    ]
