"""Groups, Brandt semigroups, and the algebra constructors."""

import itertools
import os
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moritalab import structures
from moritalab.exactla import l1_operator_norm
from moritalab.structures import (
    BrandtSemigroup,
    CayleyTableError,
    NotAssociative,
    NotLatinSquare,
    StructureAlgebra,
    algebra_tensor,
    brandt,
    builtin_group,
    contracted_brandt_algebra,
    cyclic_group,
    direct_sum,
    find_unit,
    group_algebra,
    group_from_cayley,
    index_pair_iso,
    klein_four_group,
    load_cayley,
    matrix_algebra,
    parse_cayley,
    scalar_algebra,
    semigroup_algebra,
    symmetric_group,
    triple_basis_iso,
)

from oracles import (
    all_basis_unit, associativity_failures, derivation_failures, non_unital_algebras, rescaled,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


# ---------------------------------------------------------------------- groups

def test_cyclic_groups():
    c1 = cyclic_group(1)
    assert c1.order == 1 and c1.identity_index == 0
    c2 = cyclic_group(2)
    assert c2.cayley == ((0, 1), (1, 0))
    c3 = cyclic_group(3)
    for row in c3.cayley:
        assert sorted(row) == [0, 1, 2]
    with pytest.raises(ValueError):
        cyclic_group(0)


def test_symmetric_group_small():
    s2 = symmetric_group(2)
    assert s2.order == 2
    assert s2.cayley == cyclic_group(2).cayley
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert any(
        s3.mul(a, b) != s3.mul(b, a)
        for a in range(6) for b in range(6)
    )
    with pytest.raises(ValueError):
        symmetric_group(5)


def test_symmetric_group_center_brute_force():
    s3 = symmetric_group(3)
    center = [
        a for a in range(6)
        if all(s3.mul(a, b) == s3.mul(b, a) for b in range(6))
    ]
    assert center == [s3.identity_index]


def test_group_from_cayley_valid():
    g = group_from_cayley([[0]])
    assert g.order == 1
    g2 = group_from_cayley([[0, 1], [1, 0]])
    assert g2.identity_index == 0


def test_group_from_cayley_not_latin():
    with pytest.raises(NotLatinSquare) as err:
        group_from_cayley([[0, 1], [0, 1]])
    assert err.value.cell == (1, 0)


def test_group_from_cayley_not_associative():
    # subtraction mod 3: a Latin square that is not associative
    with pytest.raises(NotAssociative) as err:
        group_from_cayley([[0, 2, 1], [1, 0, 2], [2, 1, 0]])
    assert err.value.triple == (0, 0, 1)


def test_builtin_groups_all_valid():
    for name in ["C1", "C4", "C8", "S2", "S3", "S4", "K4"]:
        g = builtin_group(name)
        group_from_cayley([list(r) for r in g.cayley])  # revalidates everything
    assert builtin_group("S4").order == 24
    with pytest.raises(KeyError):
        builtin_group("Q8")


def test_cayley_file_round_trip(tmp_path):
    g = load_cayley(os.path.join(DATA, "k4.cayley"))
    assert g.order == 4 and g.is_abelian()
    assert g.cayley == klein_four_group().cayley


def test_cayley_file_diagnostics():
    with pytest.raises(CayleyTableError) as err:
        parse_cayley("order 2\n0 1\n1 2\n")
    assert "line 3, column 2" in str(err.value)
    with pytest.raises(CayleyTableError) as err:
        parse_cayley("2\n0 1\n1 0\n")
    assert "order" in str(err.value)
    with pytest.raises(NotAssociative):
        load_cayley(os.path.join(DATA, "bad_assoc.cayley"))
    with pytest.raises(NotLatinSquare):
        load_cayley(os.path.join(DATA, "bad_latin.cayley"))


@pytest.mark.parametrize("text,where", [
    ("order ²\n", "line 1, column 1"),
    ("order 2\n0 1\n1 ¹\n", "line 3, column 2"),
    ("order 1\n0\nidentity ⁰\n", "line 3, column 1"),
])
def test_cayley_indices_are_ascii_digits(text, where):
    """str.isdigit takes superscripts that int() rejects; the parser must
    report them itself."""
    with pytest.raises(CayleyTableError) as err:
        parse_cayley(text)
    assert where in str(err.value)


def test_non_utf8_cayley_file_is_table_error(tmp_path):
    path = tmp_path / "latin1.cayley"
    path.write_bytes(b"order 1\n0\n\xff\n")
    with pytest.raises(CayleyTableError, match="not a UTF-8 text file"):
        load_cayley(str(path))


# ------------------------------------------------------------------ semigroups

def test_brandt_single_index_is_group_with_zero():
    g = cyclic_group(3)
    s = brandt(1, g)
    assert s.size == 4
    for a in range(3):
        for b in range(3):
            prod = s.mul(s.triple_index(1, a, 1), s.triple_index(1, b, 1))
            assert prod == s.triple_index(1, g.mul(a, b), 1)


def test_brandt_mismatched_inner_indices_hit_zero():
    s = brandt(2, cyclic_group(1))
    t = s.triple_index(1, 0, 2)
    assert s.mul(t, t) == s.zero_index


def test_brandt_size_formula():
    assert brandt(2, cyclic_group(3)).size == 13
    assert brandt(3, symmetric_group(3)).size == 55
    with pytest.raises(ValueError):
        brandt(0, cyclic_group(1))


def test_brandt_zero_is_absorbing_and_rule_holds_everywhere():
    g = cyclic_group(2)
    s = brandt(2, g)
    z = s.zero_index
    for a in range(s.size):
        assert s.mul(a, z) == z
        assert s.mul(z, a) == z
    # multiplication rule on every pair of triples
    for a in range(s.size - 1):
        i, ga, j = s.triple_of(a)
        for b in range(s.size - 1):
            i2, gb, j2 = s.triple_of(b)
            expected = s.triple_index(i, g.mul(ga, gb), j2) if j == i2 else z
            assert s.mul(a, b) == expected


# -------------------------------------------------------------------- algebras

def test_matrix_algebra_convolution_cases():
    m3 = matrix_algebra(3)
    d12, d23, d13 = (m3.label_index(x) for x in ["(1,2)", "(2,3)", "(1,3)"])
    assert m3.mul_basis(d12, d23) == {d13: 1}
    assert m3.mul_basis(d12, d12) == {}


def test_matrix_algebra_is_matrix_units():
    m2 = matrix_algebra(2)
    for (i, p) in itertools.product(range(2), repeat=2):
        for (q, j) in itertools.product(range(2), repeat=2):
            got = m2.mul_basis(i * 2 + p, q * 2 + j)
            expected = {i * 2 + j: 1} if p == q else {}
            assert got == expected
    assert m2.unit == {0: 1, 3: 1}


def test_group_algebra_cases():
    assert group_algebra(cyclic_group(1)).dim == 1
    ga = group_algebra(cyclic_group(2))
    assert ga.mul_basis(1, 1) == {0: 1}
    gs3 = group_algebra(symmetric_group(3))
    assert any(
        gs3.mul_basis(p, q) != gs3.mul_basis(q, p)
        for p in range(6) for q in range(6)
    )


def test_contracted_brandt_convolution():
    g = cyclic_group(2)
    ct = contracted_brandt_algebra(2, g)
    s = BrandtSemigroup(2, g)
    p = s.triple_index(1, 1, 2)
    q = s.triple_index(2, 1, 1)
    assert ct.mul_basis(p, q) == {s.triple_index(1, 0, 1): 1}
    assert ct.mul_basis(p, p) == {}
    assert ct.unit is not None


def test_contracted_unit_acts_as_identity_on_random_elements(seed=42):
    g = cyclic_group(3)
    ct = contracted_brandt_algebra(2, g)
    rng = random.Random(seed)
    unit = ct.unit
    for _ in range(20):
        coeffs = {
            k: rng.randint(-4, 4)
            for k in rng.sample(range(ct.dim), rng.randint(1, ct.dim))
        }
        coeffs = {k: v for k, v in coeffs.items() if v}
        assert ct.mul(unit, coeffs) == coeffs
        assert ct.mul(coeffs, unit) == coeffs


def test_semigroup_algebra_zero_is_honest_basis_vector():
    g = cyclic_group(2)
    s = brandt(2, g)
    sa = semigroup_algebra(s)
    assert sa.dim == 9
    p = s.triple_index(1, 1, 2)
    assert sa.mul_basis(p, p) == {s.zero_index: 1}
    assert sa.mul_basis(s.zero_index, s.zero_index) == {s.zero_index: 1}


def test_semigroup_vs_contracted_products_match():
    g = cyclic_group(2)
    s = brandt(2, g)
    sa = semigroup_algebra(s)
    ct = contracted_brandt_algebra(2, g)
    nt = ct.dim
    for a in range(nt):
        for b in range(nt):
            full = sa.mul_basis(a, b)
            contracted = ct.mul_basis(a, b)
            if full == {s.zero_index: 1}:
                assert contracted == {}
            else:
                assert full == contracted


def test_semigroup_algebra_unit_formula():
    s = brandt(2, cyclic_group(1))
    sa = semigroup_algebra(s)
    assert sa.unit == {
        s.triple_index(1, 0, 1): 1,
        s.triple_index(2, 0, 2): 1,
        s.zero_index: -1,
    }


def test_direct_sum():
    a = contracted_brandt_algebra(2, cyclic_group(1))
    b = scalar_algebra()
    ds = direct_sum(a, b)
    assert ds.dim == 5
    assert ds.mul_basis(0, 4) == {}
    assert ds.unit == {0: 1, 3: 1, 4: 1}


def test_algebra_tensor_scalar_is_identity():
    a = matrix_algebra(2)
    t = algebra_tensor(scalar_algebra(), a)
    assert t.dim == a.dim
    assert t.structure == a.structure
    assert t.unit == a.unit


def test_algebra_tensor_m2_c2():
    t = algebra_tensor(matrix_algebra(2), group_algebra(cyclic_group(2)))
    assert t.dim == 8
    assert t.unit is not None  # associativity was checked at construction


def test_triple_basis_iso_multiplicative_and_isometric():
    for n, g in [(1, cyclic_group(1)), (2, cyclic_group(2)), (2, cyclic_group(3))]:
        t = algebra_tensor(matrix_algebra(n), group_algebra(g))
        ct = contracted_brandt_algebra(n, g)
        fwd, bwd = triple_basis_iso(n, g)
        assert l1_operator_norm(fwd) == 1
        assert l1_operator_norm(bwd) == 1
        assert fwd.compose(bwd) == type(fwd).identity(t.dim)
        for p in range(t.dim):
            for q in range(t.dim):
                lhs = fwd.apply(t.mul_basis(p, q))
                rhs = ct.mul(fwd.apply({p: 1}), fwd.apply({q: 1}))
                assert lhs == rhs


def test_index_pair_iso_norm_one():
    for n in (1, 2, 3, 4):
        assert l1_operator_norm(index_pair_iso(n)) == 1


def test_find_unit_matrix_algebra():
    m2 = matrix_algebra(2)
    u = find_unit(m2)
    assert u is not None
    assert u.coeffs == {0: 1, 3: 1}


def test_find_unit_none_for_zero_products():
    zero = StructureAlgebra(2, ["x", "y"], {}, name="null")
    assert find_unit(zero) is None


@pytest.mark.parametrize("wrong", [
    {0: 1},                     # e_(1,1) alone: a unit only for one corner
    {0: 1, 3: 1, 4: -1, 1: 1},  # the true unit with one coefficient added
    {0: 1, 3: 1},               # the true unit with one coefficient dropped
])
def test_find_unit_rechecks_the_solution(monkeypatch, wrong):
    alg = semigroup_algebra(brandt(2, cyclic_group(1)))
    assert find_unit(alg).coeffs == {0: 1, 3: 1, 4: -1}
    monkeypatch.setattr(structures, "solve", lambda f, target: dict(wrong))
    assert find_unit(alg) is None


_UNIT_ALGEBRAS = [
    matrix_algebra(2), matrix_algebra(3), group_algebra(symmetric_group(3)),
    contracted_brandt_algebra(2, cyclic_group(2)),
    semigroup_algebra(brandt(1, cyclic_group(2))), semigroup_algebra(brandt(2, cyclic_group(3))),
    direct_sum(matrix_algebra(2), scalar_algebra()),
] + non_unital_algebras()


@pytest.mark.parametrize("alg", _UNIT_ALGEBRAS, ids=lambda a: a.name)
def test_find_unit_matches_the_all_basis_system(alg):
    unit = find_unit(alg)
    assert (unit.coeffs if unit is not None else None) == all_basis_unit(alg)


def test_find_unit_keeps_the_unit_of_a_non_associative_algebra():
    bad = non_unital_algebras()[-1]
    assert find_unit(bad).coeffs == {0: 1}


@settings(max_examples=30, deadline=None)
@given(alg=st.sampled_from([a for a in _UNIT_ALGEBRAS if a.derivation() is not None]),
       factors=st.lists(st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-3, 2)]),
                        min_size=1, max_size=4))
def test_find_unit_from_generators_on_rescaled_bases(alg, factors):
    """Rescaled bases carry structure constants other than 1, so the
    derivation steps divide by c_t != 1."""
    alg = rescaled(alg, factors)
    unit = find_unit(alg)
    assert (unit.coeffs if unit is not None else None) == all_basis_unit(alg)


def _checked_sum(a, b, name):
    """The direct sum built by the checked constructor, which derives and
    verifies its own derivation and unit."""
    off = a.dim
    structure = {key: dict(vec) for key, vec in a.structure.items()}
    for (p, q), vec in b.structure.items():
        structure[(p + off, q + off)] = {r + off: v for r, v in vec.items()}
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = {**a.unit, **{k + off: v for k, v in b.unit.items()}}
    labels = [f"[{l}|0]" for l in a.labels] + [f"[0|{l}]" for l in b.labels]
    return StructureAlgebra(a.dim + b.dim, labels, structure, unit=unit, name=name)


@pytest.mark.parametrize("a, b", [
    (contracted_brandt_algebra(2, cyclic_group(2)), scalar_algebra()),
    (matrix_algebra(2), group_algebra(cyclic_group(3))),
    (rescaled(matrix_algebra(2)), semigroup_algebra(brandt(1, cyclic_group(2)))),
    (scalar_algebra(), non_unital_algebras()[1]),
    (non_unital_algebras()[2], non_unital_algebras()[0]),
], ids=lambda a: a.name)
def test_direct_sum_equals_checked_construction(a, b):
    ds = direct_sum(a, b)
    assert ds == _checked_sum(a, b, ds.name)
    der = ds.derivation()
    assert structures._derivation_holds(ds, der.generators, der.steps)
    assert derivation_failures(ds, der) == []
    off = a.dim
    assert der.generators == a.derivation().generators + tuple(
        s + off for s in b.derivation().generators)


def test_direct_sum_rejects_a_bad_claimed_unit_with_the_checked_message():
    m2 = matrix_algebra(2)
    a = StructureAlgebra(m2.dim, m2.labels, m2.structure, unit={0: 1}, name="M2'", check=False)
    message = "claimed unit of M2'(+)Q is not a two-sided identity"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _checked_sum(a, scalar_algebra(), "M2'(+)Q")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        direct_sum(a, scalar_algebra())


def test_direct_sum_without_a_derivation_is_checked():
    bad = non_unital_algebras()[-1]
    with pytest.raises(ValueError, match=r"^algebra bad\(\+\)Q is not associative at basis"):
        direct_sum(bad, scalar_algebra())


def test_constructor_rejects_nonassociative_structure():
    # x*x = y, x*y = x is not associative: (xx)x = yx = 0 but x(xx) = xy = x
    with pytest.raises(ValueError):
        StructureAlgebra(2, ["x", "y"], {(0, 0): {1: 1}, (0, 1): {0: 1}})


def _corrupted_m15(m15, check):
    # e_(1,1) e_(1,1) = 2 e_(1,1): (e_11 e_11) e_12 = 2 e_12 but
    # e_11 (e_11 e_12) = e_12
    structure = dict(m15.structure)
    structure[(0, 0)] = {0: 2}
    return StructureAlgebra(m15.dim, m15.labels, structure, name="M15'", check=check)


def test_associativity_exact_at_dimension_225():
    big = matrix_algebra(15)
    assert big.dim == 225
    assert big.derivation() is not None
    d12 = big.label_index("(1,2)")
    d23 = big.label_index("(2,3)")
    assert big.mul_basis(d12, d23) == {big.label_index("(1,3)"): 1}
    with pytest.raises(ValueError, match=r"algebra M15' is not associative at basis triple"):
        _corrupted_m15(big, check=True)


def test_corrupted_m15_unchecked_has_no_derivation():
    assert _corrupted_m15(matrix_algebra(15), check=False).derivation() is None


def test_constructor_rejects_false_unit():
    with pytest.raises(ValueError):
        StructureAlgebra(
            1, ["e"], {(0, 0): {0: 1}}, unit={0: 2}, name="bad-unit"
        )


def test_algebra_element_arithmetic():
    m2 = matrix_algebra(2)
    x = m2.basis_element(0) + 2 * m2.basis_element(3)
    y = m2.basis_element(1)
    assert (x * y).coeffs == {1: 1}
    assert (y * x).coeffs == {1: 2}
    assert (x - x).coeffs == {}


# ------------------------------------------------------- generator derivations

def _dual_numbers():
    return StructureAlgebra(
        2, ["1", "eps"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        unit={0: 1}, name="dual",
    )


def _zero_multiplication(dim=3):
    return StructureAlgebra(dim, [f"z{k}" for k in range(dim)], {}, name="null")


def _unitriangular_basis(alg):
    """The same algebra in the basis f_i = e_i + e_(i+1) + ... + e_(d-1),
    where products have several support elements."""
    d = alg.dim

    def to_f(vec):
        # e_j = f_j - f_(j+1)
        out = {}
        for j, c in vec.items():
            out[j] = out.get(j, 0) + c
            if j + 1 < d:
                out[j + 1] = out.get(j + 1, 0) - c
        return {k: v for k, v in out.items() if v}

    structure = {}
    for p in range(d):
        for q in range(d):
            prod = alg.mul({a: 1 for a in range(p, d)}, {b: 1 for b in range(q, d)})
            if prod:
                structure[(p, q)] = to_f(prod)
    return StructureAlgebra(d, [f"f{k}" for k in range(d)], structure, name=f"{alg.name}'")


def _derivation_battery():
    out = []
    for n in (1, 2, 3):
        for g in ("C1", "C2", "C3", "S3"):
            grp = builtin_group(g)
            out.append(semigroup_algebra(brandt(n, grp)))
            out.append(contracted_brandt_algebra(n, grp))
    out += [matrix_algebra(n) for n in (1, 2, 3)]
    out += [_dual_numbers(), _zero_multiplication()]
    out += [_unitriangular_basis(matrix_algebra(2)),
            _unitriangular_basis(semigroup_algebra(brandt(2, cyclic_group(2))))]
    return out


_BATTERY = _derivation_battery()


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(0, len(_BATTERY) - 1),
    pqr=st.tuples(st.integers(0, 60), st.integers(0, 60), st.integers(0, 60)),
    value=st.sampled_from([0, 1, -1, 2, Fraction(1, 2)]),
)
def test_constructor_rejects_exactly_the_non_associative_constant_changes(k, pqr, value):
    alg = _BATTERY[k]
    p, q, r = (x % alg.dim for x in pqr)
    structure = {key: dict(vec) for key, vec in alg.structure.items()}
    structure.setdefault((p, q), {})[r] = value
    unchecked = StructureAlgebra(alg.dim, alg.labels, structure, check=False)
    expected = associativity_failures(unchecked)
    assert (unchecked.derivation() is None) == bool(expected)
    try:
        StructureAlgebra(alg.dim, alg.labels, structure, name="changed")
    except ValueError as err:
        named = re.fullmatch(r"algebra changed is not associative at basis triple "
                             r"\((\d+),(\d+),(\d+)\)", str(err))
        assert named and tuple(map(int, named.groups())) in expected
    else:
        assert expected == []


def test_derivation_replays_and_covers_the_basis_on_battery():
    for alg in _derivation_battery():
        der = alg.derivation()
        assert der is not None, alg.name
        assert derivation_failures(alg, der) == [], alg.name
        assert len(der.generators) + len(der.steps) == alg.dim
        assert alg.derivation() is der


def test_derivation_generator_counts():
    cases = [
        (semigroup_algebra(brandt(2, cyclic_group(3))), 3),
        (semigroup_algebra(brandt(3, cyclic_group(3))), 5),
        (semigroup_algebra(brandt(4, cyclic_group(1))), 6),
        (semigroup_algebra(brandt(2, symmetric_group(3))), 3),
        (matrix_algebra(3), 5),
    ]
    for alg, count in cases:
        assert len(alg.derivation().generators) == count, alg.name


def test_zero_multiplication_algebra_lists_every_element_as_generator():
    der = _zero_multiplication(4).derivation()
    assert der.generators == (0, 1, 2, 3)
    assert der.steps == ()


def test_non_associative_unchecked_algebra_has_no_derivation():
    # x*x = y, x*y = x: the step y <- (x, x) fails associativity at (x, x, x)
    bad = StructureAlgebra(2, ["x", "y"], {(0, 0): {1: 1}, (0, 1): {0: 1}}, check=False)
    assert bad.derivation() is None


def test_derivation_replay_rejects_forged_steps():
    alg = semigroup_algebra(brandt(2, cyclic_group(3)))
    der = alg.derivation()
    gens, steps = list(der.generators), list(der.steps)
    assert structures._derivation_holds(alg, gens, steps)
    assert not structures._derivation_holds(alg, gens, steps[:-1])
    assert not structures._derivation_holds(alg, gens, steps[::-1])
    assert not structures._derivation_holds(alg, gens[1:], steps)
    t, s, u = steps[0]
    wrong = next(x for x in range(alg.dim) if x != t and x not in gens)
    assert not structures._derivation_holds(alg, gens, [(wrong, s, u)] + steps[1:])
