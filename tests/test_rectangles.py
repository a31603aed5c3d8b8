"""The Brandt rectangle product and everything built from it, against
loop-by-loop references and BrandtSemigroup.mul."""

import itertools

import pytest

import oracles
from moritalab.bimodules import column_module, row_module, trace_pairing
from moritalab.morita import _rect_module, _rect_pairing
from moritalab.structures import (
    BrandtSemigroup,
    brandt,
    brandt_products,
    contracted_brandt_algebra,
    cyclic_group,
    index_pair_iso,
    klein_four_group,
    matrix_algebra,
    semigroup_algebra,
    symmetric_group,
    triple_basis_iso,
)

GROUPS = [cyclic_group(1), cyclic_group(2), cyclic_group(3), symmetric_group(3),
          klein_four_group()]
GROUP_IDS = [g.name for g in GROUPS]
SIDES = range(1, 4)


def same_table(built, reference):
    """Equal structure dicts, with the same insertion order."""
    return built == reference and list(built) == list(reference)


def same_matrices(built, reference):
    """Equal lists of matrices, each row listing its entries in the same
    order."""
    return list(built) == list(reference) and all(
        list(r) == list(s) for m, o in zip(built, reference) for r, s in zip(m._rows, o._rows))


def rect_triple(idx, left_n, g, right_n):
    """The 1-based (l, a, r) at idx of a left_n x G x right_n rectangle."""
    rest, r = divmod(idx, right_n)
    l, a = divmod(rest, g.order)
    assert l < left_n
    return l + 1, a, r + 1


@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
@pytest.mark.parametrize("n", range(1, 5))
def test_product_agrees_with_brandt_mul_on_all_pairs(n, g):
    s = BrandtSemigroup(n, g)
    expected = {(x, y): s.mul(x, y) for x in range(s.zero_index) for y in range(s.zero_index)}
    products = list(brandt_products(n, n, n, g))
    assert len(products) == len({(x, y) for x, y, _ in products})
    assert {(x, y): z for x, y, z in products} == \
        {pair: z for pair, z in expected.items() if z != s.zero_index}


@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
@pytest.mark.parametrize("left_n,mid_n,right_n", itertools.product(SIDES, SIDES, SIDES))
def test_rectangle_product_agrees_with_brandt_mul(left_n, mid_n, right_n, g):
    """Every rectangle product, read as triples of one semigroup large
    enough for all three sides, is that semigroup's product; the pairs
    come in the loop order i, a, k, b, j."""
    s = BrandtSemigroup(max(left_n, mid_n, right_n), g)
    products = list(brandt_products(left_n, mid_n, right_n, g))
    assert len(products) == left_n * mid_n * right_n * g.order ** 2
    keys = []
    for x, y, z in products:
        i, a, k = rect_triple(x, left_n, g, mid_n)
        k2, b, j = rect_triple(y, mid_n, g, right_n)
        assert k == k2
        assert s.mul(s.triple_index(i, a, k), s.triple_index(k, b, j)) == \
            s.triple_index(*rect_triple(z, left_n, g, right_n))
        keys.append((i, a, k, b, j))
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", range(1, 5))
def test_matrix_algebra_matches_loop_table(n):
    assert same_table(matrix_algebra(n).structure, oracles.matrix_units_table(n))


@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
@pytest.mark.parametrize("n", range(1, 5))
def test_triple_algebras_match_loop_tables(n, g):
    assert same_table(contracted_brandt_algebra(n, g).structure, oracles.contracted_table(n, g))
    s = brandt(n, g)
    assert same_table(semigroup_algebra(s).structure, oracles.semigroup_table(s))
    assert triple_basis_iso(n, g) == oracles.triple_basis_iso(n, g)


@pytest.mark.parametrize("n", range(1, 5))
def test_index_modules_and_pairings_match_loop_builders(n):
    row, col = row_module(n), column_module(n)
    assert same_matrices(row.left_action, oracles.scalar_action(n))
    assert same_matrices(row.right_action, oracles.matrix_row_action(n))
    assert same_matrices(col.left_action, oracles.matrix_col_action(n))
    assert same_matrices(col.right_action, oracles.scalar_action(n))
    assert row.labels == col.labels == tuple(f"d{i}" for i in range(1, n + 1))
    assert same_matrices([trace_pairing(n).matrix], [oracles.trace_pairing(n).matrix])
    raw_qp = _rect_pairing(n, 1, n, cyclic_group(1))
    assert same_matrices([raw_qp.matrix], [oracles.unit_cols(n).matrix])
    assert index_pair_iso(n) == oracles.unit_cols(n)


@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
@pytest.mark.parametrize("left_n,right_n", itertools.product(SIDES, SIDES))
def test_rectangle_modules_match_loop_actions(left_n, right_n, g):
    mod = _rect_module(left_n, right_n, g, contracted_brandt_algebra(left_n, g),
                       contracted_brandt_algebra(right_n, g))
    left, right = oracles.rect_actions(left_n, right_n, g)
    assert same_matrices(mod.left_action, left)
    assert same_matrices(mod.right_action, right)


def test_rectangle_module_rejects_algebras_of_other_sides():
    g = cyclic_group(2)
    one, two = contracted_brandt_algebra(1, g), contracted_brandt_algebra(2, g)
    for left_alg, right_alg in ((one, one), (two, two)):
        with pytest.raises(ValueError, match="do not match the rectangle sides"):
            _rect_module(2, 1, g, left_alg, right_alg)


@pytest.mark.parametrize("g", GROUPS, ids=GROUP_IDS)
@pytest.mark.parametrize("left_n,mid_n,right_n", itertools.product(SIDES, SIDES, SIDES))
def test_rectangle_pairings_match_loop_pairing(left_n, mid_n, right_n, g):
    built = _rect_pairing(left_n, mid_n, right_n, g)
    reference = oracles.rect_pairing(left_n, mid_n, right_n, g)
    assert built == reference
    assert same_matrices([built.matrix], [reference.matrix])
