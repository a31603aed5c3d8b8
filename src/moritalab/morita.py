"""Construction and certification of Morita witness bimodules.

A witness between algebras A and B is a pair of two-sided induced
bimodules P (B on the left, A on the right) and Q (A left, B right)
together with bijective bimodule maps from the balanced products
P (x)_A Q and Q (x)_B P onto B and A. verify_witness re-derives every
one of those conditions from scratch, so a corrupted input is caught no
matter how it was produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactla import (
    LinearMap,
    RationalMatrix,
    image,
    inverse,
    kernel,
    l1_operator_norm,
    linear_combination,
    subspace_equal,
)
from .bimodules import (
    Bimodule,
    BimoduleMap,
    _extend_block,
    _rect_actions,
    _rect_pairing,
    balanced_tensor,
    column_module,
    induced_map,
    is_induced,
    regular_bimodule,
    row_module,
    trace_pairing,
)
from .structures import (
    BrandtSemigroup,
    FiniteGroup,
    StructureAlgebra,
    brandt,
    contracted_brandt_algebra,
    cyclic_group,
    direct_sum,
    matrix_algebra,
    scalar_algebra,
    semigroup_algebra,
)


class VerificationFailed(RuntimeError):
    """A constructed object failed its own certification.

    This signals a bug in the construction, not a mathematical failure;
    the offending condition and detail ride along for debugging.
    """

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        self.detail = detail
        super().__init__(f"{condition}: {detail}" if detail else condition)


@dataclass
class MoritaWitness:
    algebra_a: StructureAlgebra
    algebra_b: StructureAlgebra
    p: Bimodule            # B-mod-A
    q: Bimodule            # A-mod-B
    iso_pq: BimoduleMap    # P (x)_A Q -> B
    iso_qp: BimoduleMap    # Q (x)_B P -> A


@dataclass
class ConditionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class WitnessReport:
    conditions: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.conditions
            ],
        }


def _module_condition(name: str, mod: Bimodule, left_alg, right_alg) -> ConditionResult:
    details = {"dim": mod.dim}
    if mod.left_algebra != left_alg or mod.right_algebra != right_alg:
        return ConditionResult(name, False, {**details, "reason": "wrong algebras"})
    violations = mod.check_axioms()
    if violations:
        details["reason"] = violations[0]
        details["violations"] = len(violations)
        return ConditionResult(name, False, details)
    try:
        flags = is_induced(mod)
    except Exception as exc:  # a broken module can poison the tensor construction
        details["reason"] = f"induced check failed: {exc}"
        return ConditionResult(name, False, details)
    details["left_induced"] = flags.left
    details["right_induced"] = flags.right
    return ConditionResult(name, flags.two_sided, details)


def _iso_condition(name: str, iso: BimoduleMap, expected_target: Bimodule,
                   recompute_source) -> ConditionResult:
    details = {
        "source_dim": iso.map.source_dim,
        "target_dim": iso.map.target_dim,
    }
    if iso.target != expected_target:
        details["reason"] = "target is not the regular bimodule of the expected algebra"
        return ConditionResult(name, False, details)
    if recompute_source is not None:
        try:
            fresh = recompute_source()
        except Exception as exc:
            details["reason"] = f"balanced tensor recomputation failed: {exc}"
            return ConditionResult(name, False, details)
        if fresh.module != iso.source:
            details["reason"] = "stored source differs from recomputed balanced tensor"
            return ConditionResult(name, False, details)
    bad = iso.intertwining_failures(stop_early=True)
    if bad:
        details["reason"] = bad[0]
        return ConditionResult(name, False, details)
    rk = iso.map.rank()
    details["rank"] = rk
    bij = iso.map.source_dim == iso.map.target_dim and rk == iso.map.source_dim
    details["bijective"] = bij
    details["norm"] = str(l1_operator_norm(iso.map))
    if bij:
        details["inverse_norm"] = str(l1_operator_norm(inverse(iso.map)))
    else:
        details["reason"] = "map is not bijective"
    return ConditionResult(name, bij, details)


def verify_witness(wit: MoritaWitness) -> WitnessReport:
    """Re-check all four witness conditions from scratch."""
    a, b = wit.algebra_a, wit.algebra_b
    cond_p = _module_condition("p_two_sided_induced", wit.p, b, a)
    cond_q = _module_condition("q_two_sided_induced", wit.q, a, b)
    modules_ok = cond_p.passed and cond_q.passed
    cond_pq = _iso_condition(
        "pq_tensor_iso", wit.iso_pq, regular_bimodule(b),
        (lambda: balanced_tensor(wit.p, wit.q, a)) if modules_ok else None,
    )
    cond_qp = _iso_condition(
        "qp_tensor_iso", wit.iso_qp, regular_bimodule(a),
        (lambda: balanced_tensor(wit.q, wit.p, b)) if modules_ok else None,
    )
    return WitnessReport(conditions=[cond_p, cond_q, cond_pq, cond_qp])


def _certify(wit: MoritaWitness) -> MoritaWitness:
    report = verify_witness(wit)
    if not report.passed:
        bad = next(c for c in report.conditions if not c.passed)
        raise VerificationFailed(bad.name, str(bad.details.get("reason", bad.details)))
    return wit


def swap_witness(wit: MoritaWitness) -> MoritaWitness:
    """The same witness viewed from the other algebra."""
    return MoritaWitness(
        algebra_a=wit.algebra_b,
        algebra_b=wit.algebra_a,
        p=wit.q,
        q=wit.p,
        iso_pq=wit.iso_qp,
        iso_qp=wit.iso_pq,
    )


def witness_matrix_vs_scalars(index_size: int) -> MoritaWitness:
    """Witness between the matrix-units algebra and the scalars.

    P is the index space as a (scalars, matrix) module, Q the mirror; the
    pairing sum_i a(i) b(i) collapses P (x) Q onto the scalars and the
    basis bijection (i, j) -> matrix unit (i, j) identifies Q (x) P with
    the matrix algebra.
    """
    if index_size < 1:
        raise ValueError("index size must be >= 1")
    n = index_size
    a = matrix_algebra(n)
    b = scalar_algebra()
    p = row_module(n)
    q = column_module(n)
    bt_pq = balanced_tensor(p, q, a)
    iso_pq = induced_map(bt_pq, trace_pairing(n), regular_bimodule(b))
    bt_qp = balanced_tensor(q, p, b)
    iso_qp = induced_map(bt_qp, _rect_pairing(n, 1, n, cyclic_group(1)), regular_bimodule(a))
    return _certify(MoritaWitness(a, b, p, q, iso_pq, iso_qp))


@dataclass
class SplitSequence:
    """The split exact sequence realizing the semigroup algebra as the
    contracted algebra plus a scalar line.

    u embeds the contracted algebra (sending each triple to itself minus
    the zero point mass), v is the integral functional, w restricts to
    the triples, and theta = (w, v) is the resulting algebra bijection
    onto the coordinatewise direct sum. hom_certificates says how each of
    u, v, w and theta was certified an algebra homomorphism: "generators"
    or "exhaustive" (_is_algebra_hom).
    """

    u: LinearMap
    v: LinearMap
    w: LinearMap
    theta: LinearMap
    theta_inv: LinearMap
    contracted: StructureAlgebra
    semigroup: StructureAlgebra
    scalars: StructureAlgebra
    sum_algebra: StructureAlgebra
    brandt_semigroup: BrandtSemigroup
    hom_certificates: dict = field(default_factory=dict)


def _is_algebra_hom(f: LinearMap, src: StructureAlgebra,
                    dst: StructureAlgebra) -> tuple[bool, str, str]:
    """Whether f(e_p e_q) = f(e_p) f(e_q) for every basis pair, with the
    first failing pair's message and the certificate.

    When src and dst both have a derivation (so both are associative),
    the pairs (s, q) with s a generator of src suffice. At a step
    t <- (s, u) with e_s e_u = sum c_r e_r, by induction on u and the r,
    c_t f(e_t e_q) = f(e_s (e_u e_q)) - sum c_r f(e_r e_q)
    = f(e_s) f(e_u) f(e_q) - sum c_r f(e_r) f(e_q) = c_t f(e_t) f(e_q),
    by src's associativity, the pairs (s, .) applied to e_u e_q, dst's
    associativity and the pair (s, u). If they pass, the certificate is
    "generators"; otherwise every pair is checked in order
    ("exhaustive"), so a failure names the first failing pair.
    """
    cols = [f.col(p) for p in range(src.dim)]

    def failure(rows) -> str:
        for pp in rows:
            for qq in range(src.dim):
                if f.apply(src.structure.get((pp, qq), {})) != dst.mul(cols[pp], cols[qq]):
                    return f"not multiplicative at basis pair ({pp},{qq})"
        return ""

    der = src.derivation()
    if der is not None and dst.derivation() is not None and not failure(der.generators):
        return True, "", "generators"
    why = failure(range(src.dim))
    return not why, why, "exhaustive"


def split_sequence(index_size: int, g: FiniteGroup) -> SplitSequence:
    """Build and certify the splitting of the semigroup algebra."""
    s = brandt(index_size, g)
    alg_t = contracted_brandt_algebra(index_size, g)
    alg_s = semigroup_algebra(s)
    scalars = scalar_algebra()
    sum_alg = direct_sum(alg_t, scalars)
    nt = alg_t.dim
    ns = alg_s.dim
    z = s.zero_index

    u = LinearMap.from_cols([{t: 1, z: -1} for t in range(nt)], ns)
    v = LinearMap.from_cols([{0: 1}] * ns, 1)
    w = LinearMap.from_cols([{t: 1} for t in range(nt)] + [{}] * (ns - nt), nt)
    theta = LinearMap.from_cols(
        [{t: 1, nt: 1} for t in range(nt)] + [{nt: 1}] * (ns - nt), nt + 1)

    hom_certificates = {}
    for name, f, src, dst in (("u", u, alg_t, alg_s), ("v", v, alg_s, scalars),
                              ("w", w, alg_s, alg_t), ("theta", theta, alg_s, sum_alg)):
        ok, why, hom_certificates[name] = _is_algebra_hom(f, src, dst)
        if not ok:
            raise VerificationFailed(f"{name}_homomorphism", why)

    if w.compose(u) != LinearMap.identity(nt):
        raise VerificationFailed("wu_identity", "w after u is not the identity")
    if not v.compose(u).matrix.is_zero():
        raise VerificationFailed("vu_zero", "v after u is not zero")
    if kernel(u).dim != 0:
        raise VerificationFailed("u_injective", "u has a kernel")
    if image(v).dim != 1:
        raise VerificationFailed("v_surjective", "v is not onto")
    if not subspace_equal(image(u), kernel(v)):
        raise VerificationFailed("exactness", "image of u differs from kernel of v")

    theta_inv = inverse(theta)
    if theta_inv is None:
        raise VerificationFailed("theta_bijective", "theta is not invertible")
    # written out on its own, not derived from u, so the check stays independent
    formula = LinearMap.from_cols([{t: 1, z: -1} for t in range(nt)] + [{z: 1}], ns)
    if theta_inv != formula:
        raise VerificationFailed("theta_inverse_formula",
                                 "inverse of theta differs from u(b) + z * zero point mass")
    if theta.apply({z: 1}) != {nt: 1}:
        raise VerificationFailed("zero_transport", "theta of the zero point mass is not (0, 1)")

    # semigroup_algebra solved for the unit and checked it by substitution
    unit_s = alg_s.unit
    if unit_s is None:
        raise VerificationFailed("semigroup_unit", "semigroup algebra has no unit")
    expected_unit = dict(alg_t.unit)
    coeff = 1 - index_size
    if coeff:
        expected_unit[z] = coeff
    if unit_s != expected_unit:
        raise VerificationFailed("unit_formula",
                                 "unit differs from identity triples plus (1-|I|) zero mass")
    if sum_alg.unit is None or theta.apply(unit_s) != sum_alg.unit:
        raise VerificationFailed("unit_transport", "theta does not carry unit to unit")

    return SplitSequence(
        u=u, v=v, w=w, theta=theta, theta_inv=theta_inv,
        contracted=alg_t, semigroup=alg_s, scalars=scalars,
        sum_algebra=sum_alg, brandt_semigroup=s, hom_certificates=hom_certificates,
    )


def _rect_module(left_n: int, right_n: int, g: FiniteGroup,
                 left_alg: StructureAlgebra, right_alg: StructureAlgebra) -> Bimodule:
    """Triples (l, g, r) with convolution actions of the two contracted
    algebras (bimodules._rect_actions)."""
    labels = [
        f"({l},{g.names[gi]},{r})"
        for l in range(1, left_n + 1) for gi in range(g.order) for r in range(1, right_n + 1)
    ]
    if left_alg.dim != left_n * g.order * left_n or right_alg.dim != right_n * g.order * right_n:
        raise ValueError("algebra dimensions do not match the rectangle sides")
    return Bimodule(
        left_alg, right_alg, len(labels), *_rect_actions(left_n, right_n, g),
        labels=labels, name=f"span({left_n}x{g.name}x{right_n})",
    )


def witness_brandt_contracted(i_size: int, j_size: int, g: FiniteGroup) -> MoritaWitness:
    """Witness between the contracted triple algebras over index sets of
    sizes i_size and j_size with the same group."""
    if i_size < 1 or j_size < 1:
        raise ValueError("index sizes must be >= 1")
    a = contracted_brandt_algebra(i_size, g)
    b = contracted_brandt_algebra(j_size, g)
    p = _rect_module(j_size, i_size, g, b, a)
    q = _rect_module(i_size, j_size, g, a, b)
    bt_pq = balanced_tensor(p, q, a)
    iso_pq = induced_map(bt_pq, _rect_pairing(j_size, i_size, j_size, g), regular_bimodule(b))
    bt_qp = balanced_tensor(q, p, b)
    iso_qp = induced_map(bt_qp, _rect_pairing(i_size, j_size, i_size, g), regular_bimodule(a))
    return _certify(MoritaWitness(a, b, p, q, iso_pq, iso_qp))


def _star_block(dim: int) -> RationalMatrix:
    return RationalMatrix(dim, dim, {(dim - 1, dim - 1): 1})


def _transport_actions(base_actions, theta: LinearMap):
    """Actions of the semigroup algebra obtained by pushing its basis
    through theta into the direct sum and combining the sum actions."""
    return [linear_combination(theta.col(s), base_actions) for s in range(theta.source_dim)]


def _full_pairing(left_dim: int, right_dim: int, rect_pairing: LinearMap,
                  split_out: SplitSequence) -> LinearMap:
    """Pair rectangle with rectangle by convolution and star with star into
    the scalar line, then pull back along the splitting: the pair
    (pcol, qcol) of the two padded modules is column pcol * right_dim + qcol."""
    theta_inv = split_out.theta_inv
    inner = right_dim - 1
    cols = []
    for pcol in range(left_dim - 1):
        cols += [theta_inv.apply(rect_pairing.col(pcol * inner + qcol)) for qcol in range(inner)]
        cols.append({})
    cols += [{}] * inner + [theta_inv.apply({split_out.contracted.dim: 1})]
    return LinearMap.from_cols(cols, split_out.semigroup.dim)


def witness_brandt_full(i_size: int, j_size: int, g: FiniteGroup) -> MoritaWitness:
    """Witness between the full semigroup algebras of two Brandt semigroups
    over the same group.

    The rectangle witness between the contracted algebras is padded with
    one extra basis line on which only the scalar summands act, and the
    direct-sum actions are transported through the splitting bijections
    so that the final statement is about the semigroup algebras
    themselves.
    """
    split_i = split_sequence(i_size, g)
    split_j = split_sequence(j_size, g)
    a_full, b_full = split_i.semigroup, split_j.semigroup
    a_con, b_con = split_i.contracted, split_j.contracted

    p_rect = _rect_module(j_size, i_size, g, b_con, a_con)
    q_rect = _rect_module(i_size, j_size, g, a_con, b_con)
    pd = p_rect.dim + 1
    qd = q_rect.dim + 1

    # direct-sum actions: contracted part acts on the rectangle block, the
    # scalar line acts on the star line, cross actions vanish
    p_left_sum = [_extend_block(m, pd) for m in p_rect.left_action] + [_star_block(pd)]
    p_right_sum = [_extend_block(m, pd) for m in p_rect.right_action] + [_star_block(pd)]
    q_left_sum = [_extend_block(m, qd) for m in q_rect.left_action] + [_star_block(qd)]
    q_right_sum = [_extend_block(m, qd) for m in q_rect.right_action] + [_star_block(qd)]

    p = Bimodule(
        b_full, a_full, pd,
        _transport_actions(p_left_sum, split_j.theta),
        _transport_actions(p_right_sum, split_i.theta),
        labels=list(p_rect.labels) + ["*"],
        name=f"P({i_size},{j_size},{g.name})",
    )
    q = Bimodule(
        a_full, b_full, qd,
        _transport_actions(q_left_sum, split_i.theta),
        _transport_actions(q_right_sum, split_j.theta),
        labels=list(q_rect.labels) + ["*"],
        name=f"Q({i_size},{j_size},{g.name})",
    )

    raw_pq = _full_pairing(pd, qd, _rect_pairing(j_size, i_size, j_size, g), split_j)
    raw_qp = _full_pairing(qd, pd, _rect_pairing(i_size, j_size, i_size, g), split_i)

    bt_pq = balanced_tensor(p, q, a_full)
    iso_pq = induced_map(bt_pq, raw_pq, regular_bimodule(b_full))
    bt_qp = balanced_tensor(q, p, b_full)
    iso_qp = induced_map(bt_qp, raw_qp, regular_bimodule(a_full))
    return _certify(MoritaWitness(a_full, b_full, p, q, iso_pq, iso_qp))
