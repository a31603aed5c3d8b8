"""Construction and certification of Morita witness bimodules.

A witness between algebras A and B is a pair of two-sided induced
bimodules P (B on the left, A on the right) and Q (A left, B right)
together with bijective bimodule maps from the balanced products
P (x)_A Q and Q (x)_B P onto B and A. verify_witness re-derives every
one of those conditions from scratch, so a corrupted input is caught no
matter how it was produced.

The full Brandt witness is built in closed form over the semigroup
algebras: the contracted-algebra witness moved through the splitting
theta, written out (witness_brandt_full). split_sequence certifies theta
as a claim of its own; no witness builder calls it.
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


def _certify(a: StructureAlgebra, b: StructureAlgebra, p: Bimodule, q: Bimodule,
             raw_pq: LinearMap, raw_qp: LinearMap) -> MoritaWitness:
    """Descend the pairings raw_pq on P (x) Q and raw_qp on Q (x) P to the
    balanced products, and certify the witness (verify_witness)."""
    iso_pq = induced_map(balanced_tensor(p, q, a), raw_pq, regular_bimodule(b))
    iso_qp = induced_map(balanced_tensor(q, p, b), raw_qp, regular_bimodule(a))
    wit = MoritaWitness(a, b, p, q, iso_pq, iso_qp)
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
    return _certify(a, b, p, q, trace_pairing(n), _rect_pairing(n, 1, n, cyclic_group(1)))


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


def _rect_labels(left_n: int, right_n: int, g: FiniteGroup) -> list[str]:
    return [
        f"({l},{g.names[gi]},{r})"
        for l in range(1, left_n + 1) for gi in range(g.order) for r in range(1, right_n + 1)
    ]


def _rect_module(left_n: int, right_n: int, g: FiniteGroup,
                 left_alg: StructureAlgebra, right_alg: StructureAlgebra) -> Bimodule:
    """Triples (l, g, r) with convolution actions of the two contracted
    algebras (bimodules._rect_actions)."""
    labels = _rect_labels(left_n, right_n, g)
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
    return _certify(a, b, p, q, _rect_pairing(j_size, i_size, j_size, g),
                    _rect_pairing(i_size, j_size, i_size, g))


def _full_actions(rect_actions, dim: int) -> list[RationalMatrix]:
    """The actions of the semigroup algebra on the rectangle plus a star
    line (index dim - 1): a triple acts by its rectangle action plus the
    identity on the star line, the zero (last) by the star line alone."""
    star = RationalMatrix(dim, dim, {(dim - 1, dim - 1): 1})
    return [_extend_block(m, dim) + star for m in rect_actions] + [star]


def _full_pairing(left_dim: int, right_dim: int, rect_pairing: LinearMap,
                  zero: int) -> LinearMap:
    """Pair rectangle with rectangle by convolution, a product t going to
    t - 0 (0 the semigroup zero, basis index zero), and star with star to
    0; the pair (pcol, qcol) of the two padded modules is column
    pcol * right_dim + qcol."""
    inner = right_dim - 1
    cols = []
    for pcol in range(left_dim - 1):
        for qcol in range(inner):
            col = rect_pairing.col(pcol * inner + qcol)
            cols.append({**col, zero: -sum(col.values())})    # from_cols drops a 0
        cols.append({})
    cols += [{}] * inner + [{zero: 1}]
    return LinearMap.from_cols(cols, zero + 1)


def witness_brandt_full(i_size: int, j_size: int, g: FiniteGroup) -> MoritaWitness:
    """Witness between the full semigroup algebras l1(B(I,G)) and
    l1(B(J,G)) of two Brandt semigroups over the same group, |I| = i_size
    and |J| = j_size.

    P is the J x G x I rectangle plus a star line *, Q the I x G x J one.
    A triple t acts on either side by its rectangle convolution plus the
    identity on *, and the zero 0 by the projection onto * alone; the
    pairings send a rectangle product t to t - 0 and * (x) * to 0.

    Why this is the transported witness: the splitting theta: l1(B) ->
    l1(T) (+) C has theta(t) = (t, 1) and theta(0) = (0, 1), and its
    inverse sends (t, 0) to t - 0 and (0, 1) to 0. Pad the rectangle
    witness of the contracted algebras l1(T) with * on which only the
    scalar summand acts; then theta(t) acts by t on the rectangle and by
    1 on *, and theta(0) by 1 on * alone, which are the actions above,
    and the padded pairings followed by theta's inverse are the pairings
    above. Nothing here rests on that argument: verify_witness
    re-derives all four conditions.
    """
    s_i, s_j = brandt(i_size, g), brandt(j_size, g)
    a, b = semigroup_algebra(s_i), semigroup_algebra(s_j)
    dim = i_size * g.order * j_size + 1    # P and Q alike

    def module(left_n, right_n, left_alg, right_alg, name):
        return Bimodule(
            left_alg, right_alg, dim,
            *(_full_actions(acts, dim) for acts in _rect_actions(left_n, right_n, g)),
            labels=_rect_labels(left_n, right_n, g) + ["*"],
            name=f"{name}({i_size},{j_size},{g.name})",
        )

    p = module(j_size, i_size, b, a, "P")
    q = module(i_size, j_size, a, b, "Q")
    raw_pq = _full_pairing(dim, dim, _rect_pairing(j_size, i_size, j_size, g), s_j.zero_index)
    raw_qp = _full_pairing(dim, dim, _rect_pairing(i_size, j_size, i_size, g), s_i.zero_index)
    return _certify(a, b, p, q, raw_pq, raw_qp)
