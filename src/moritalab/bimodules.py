"""Bimodules over structure algebras and the balanced tensor product.

A bimodule stores one action matrix per algebra basis vector. The axioms
(each action is multiplicative, the two actions commute) are verified
exhaustively on bases at construction; well-definedness of quotient
actions is likewise verified, never assumed, because that is exactly
where a subtle bug would silently corrupt every downstream homology
computation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .exactla import (
    LinearMap,
    RationalMatrix,
    Subspace,
    kronecker,
    quotient,
    vec_sub,
)
from .structures import StructureAlgebra, matrix_algebra, scalar_algebra

QQ = Fraction


class BimoduleAxiomError(ValueError):
    """An action table violates the bimodule axioms."""


class ActionNotWellDefined(ValueError):
    """A quotient action fails to preserve the balancing subspace."""


class IntertwiningError(ValueError):
    """A candidate bimodule map fails to intertwine the actions."""


class Bimodule:
    """A based space with commuting left and right algebra actions.

    left_action[p] is the matrix of x -> e_p . x for the p-th basis vector
    of the left algebra; right_action[p] is the matrix of x -> x . e_p.
    """

    __slots__ = ("left_algebra", "right_algebra", "dim", "left_action", "right_action",
                 "labels", "name")

    def __init__(self, left_algebra, right_algebra, dim, left_action, right_action,
                 labels=None, name="E", check=True):
        if len(left_action) != left_algebra.dim:
            raise ValueError("left action table size mismatch")
        if len(right_action) != right_algebra.dim:
            raise ValueError("right action table size mismatch")
        for m in list(left_action) + list(right_action):
            if m.rows != dim or m.cols != dim:
                raise ValueError("action matrix has wrong shape")
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self.left_action = tuple(left_action)
        self.right_action = tuple(right_action)
        self.labels = tuple(labels) if labels else tuple(f"x{k}" for k in range(dim))
        self.name = name
        if check:
            bad = self.check_axioms(stop_early=True)
            if bad:
                raise BimoduleAxiomError(f"{name}: {bad[0]}")

    def check_axioms(self, stop_early=False) -> list[str]:
        """All violated axiom instances (empty means the module is valid).

        The identities are compared column by column on the sparse action
        matrices, one violation reported per offending basis pair.
        """
        out = []
        A, B = self.left_algebra, self.right_algebra
        lcols = [m._columns() for m in self.left_action]
        rcols = [m._columns() for m in self.right_action]
        d = self.dim
        for p in range(A.dim):
            cp = lcols[p]
            for q in range(A.dim):
                cq = lcols[q]
                vec = A.structure.get((p, q), {})
                for r in range(d):
                    if _compose_col(cp, cq[r]) != _combination_col(vec, lcols, r):
                        out.append(f"left action not multiplicative at basis pair ({p},{q})")
                        if stop_early:
                            return out
                        break
        for p in range(B.dim):
            cp = rcols[p]
            for q in range(B.dim):
                cq = rcols[q]
                vec = B.structure.get((p, q), {})
                for r in range(d):
                    if _compose_col(cq, cp[r]) != _combination_col(vec, rcols, r):
                        out.append(
                            f"right action not anti-multiplicative at basis pair ({p},{q})"
                        )
                        if stop_early:
                            return out
                        break
        for p in range(A.dim):
            cp = lcols[p]
            for q in range(B.dim):
                cq = rcols[q]
                for r in range(d):
                    if _compose_col(cp, cq[r]) != _compose_col(cq, cp[r]):
                        out.append(f"actions do not commute at basis pair ({p},{q})")
                        if stop_early:
                            return out
                        break
        return out

    def left_matrix(self, p: int) -> RationalMatrix:
        return self.left_action[p]

    def right_matrix(self, p: int) -> RationalMatrix:
        return self.right_action[p]

    def left_apply(self, coeffs: dict, vec: dict) -> dict:
        out: dict = {}
        for p, c in coeffs.items():
            for r, v in self.left_action[p].apply(vec).items():
                y = out.get(r, 0) + c * v
                if y:
                    out[r] = y
                elif r in out:
                    del out[r]
        return out

    def right_apply(self, vec: dict, coeffs: dict) -> dict:
        out: dict = {}
        for p, c in coeffs.items():
            for r, v in self.right_action[p].apply(vec).items():
                y = out.get(r, 0) + c * v
                if y:
                    out[r] = y
                elif r in out:
                    del out[r]
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bimodule)
            and self.dim == other.dim
            and self.left_algebra == other.left_algebra
            and self.right_algebra == other.right_algebra
            and self.left_action == other.left_action
            and self.right_action == other.right_action
        )

    def __hash__(self):
        return hash((self.dim, self.left_algebra.dim, self.right_algebra.dim))

    def __repr__(self):
        return f"Bimodule({self.name}, dim {self.dim})"


def _compose_col(cols, col: dict) -> dict:
    """Column of a matrix product: the matrix given by its column list,
    applied to one sparse column."""
    out: dict = {}
    for k, v in col.items():
        for r, w in cols[k].items():
            y = out.get(r, 0) + v * w
            if y:
                out[r] = y
            elif r in out:
                del out[r]
    return out


def _combination_col(vec: dict, all_cols, r: int) -> dict:
    """Column r of a linear combination of action matrices."""
    out: dict = {}
    for s, c in vec.items():
        for k, w in all_cols[s][r].items():
            y = out.get(k, 0) + c * w
            if y:
                out[k] = y
            elif k in out:
                del out[k]
    return out


class BimoduleMap:
    """A linear map intertwining both actions; construction fails loudly."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: Bimodule, target: Bimodule, linmap: LinearMap, check=True):
        if linmap.source_dim != source.dim or linmap.target_dim != target.dim:
            raise ValueError("map dimensions do not match modules")
        if source.left_algebra.dim != target.left_algebra.dim or \
           source.right_algebra.dim != target.right_algebra.dim:
            raise ValueError("source and target live over different algebras")
        self.source = source
        self.target = target
        self.map = linmap
        if check:
            bad = self.intertwining_failures(stop_early=True)
            if bad:
                raise IntertwiningError(bad[0])

    def intertwining_failures(self, stop_early=False) -> list[str]:
        out = []
        mcols = self.map.matrix._columns()
        d = self.source.dim
        for side, src_actions, tgt_actions in (
            ("left", self.source.left_action, self.target.left_action),
            ("right", self.source.right_action, self.target.right_action),
        ):
            for p in range(len(src_actions)):
                scols = src_actions[p]._columns()
                tcols = tgt_actions[p]._columns()
                for r in range(d):
                    if _compose_col(mcols, scols[r]) != _compose_col(tcols, mcols[r]):
                        out.append(f"map does not intertwine {side} action of basis {p}")
                        if stop_early:
                            return out
                        break
        return out

    def is_bijective(self) -> bool:
        return self.map.source_dim == self.map.target_dim and \
            self.map.rank() == self.map.source_dim

    def __repr__(self):
        return f"BimoduleMap({self.source.name} -> {self.target.name})"


def regular_bimodule(a: StructureAlgebra) -> Bimodule:
    """The algebra acting on itself by multiplication on both sides.

    Cached on the algebra: the module is immutable and rebuilt values
    would be structurally identical.
    """
    if a._regular_cache is None:
        left = [a.left_mult_matrix(p) for p in range(a.dim)]
        right = [a.right_mult_matrix(p) for p in range(a.dim)]
        a._regular_cache = Bimodule(
            a, a, a.dim, left, right, labels=a.labels, name=a.name, check=True
        )
    return a._regular_cache


def _matrix_row_action(n: int) -> list[RationalMatrix]:
    """Right action of the matrix-units algebra on the index space:
    (b . a)(i) = sum_k b(k) a(k, i)."""
    out = []
    for k in range(n):
        for i in range(n):
            m = RationalMatrix(n, n)
            m._rows[i][k] = 1
            out.append(m)
    return out


def _matrix_col_action(n: int) -> list[RationalMatrix]:
    """Left action of the matrix-units algebra on the index space:
    (a . b)(i) = sum_k a(i, k) b(k)."""
    out = []
    for i in range(n):
        for k in range(n):
            m = RationalMatrix(n, n)
            m._rows[i][k] = 1
            out.append(m)
    return out


def _scalar_action(dim: int) -> list[RationalMatrix]:
    return [RationalMatrix.identity(dim)]


def row_module(index_size: int) -> Bimodule:
    """The index space as a (scalars, matrix-units) bimodule."""
    n = index_size
    labels = [f"d{i}" for i in range(1, n + 1)]
    return Bimodule(
        scalar_algebra(), matrix_algebra(n), n,
        _scalar_action(n), _matrix_row_action(n),
        labels=labels, name=f"row l1({n})",
    )


def column_module(index_size: int) -> Bimodule:
    """The index space as a (matrix-units, scalars) bimodule."""
    n = index_size
    labels = [f"d{i}" for i in range(1, n + 1)]
    return Bimodule(
        matrix_algebra(n), scalar_algebra(), n,
        _matrix_col_action(n), _scalar_action(n),
        labels=labels, name=f"col l1({n})",
    )


def index_space_induced(index_size: int) -> InducedFlags:
    """Two-sided inducedness of the index space over the matrix-units algebra.

    The left and right matrix actions on the index space do not commute
    (columns on one side, rows on the other), so the space is a left
    module and a right module rather than a single bimodule; the left
    half is certified on the column module and the right half on the row
    module.
    """
    left = mu_map(column_module(index_size)).is_bijective()
    right = mirror_mu_map(row_module(index_size)).is_bijective()
    return InducedFlags(left=left, right=right, two_sided=left and right)


def trace_pairing(index_size: int) -> LinearMap:
    """The pairing (a, b) -> sum_i a(i) b(i) as a map on the tensor square
    of the index space (lexicographic pair basis) into the scalars."""
    n = index_size
    m = RationalMatrix(1, n * n)
    for i in range(n):
        m._rows[0][i * n + i] = 1
    return LinearMap(n * n, 1, m)


def tensor(e: Bimodule, f: Bimodule, _check: bool = True) -> Bimodule:
    """Tensor product with the outer actions only (e's left, f's right)."""
    dim = e.dim * f.dim
    idf = RationalMatrix.identity(f.dim)
    ide = RationalMatrix.identity(e.dim)
    left = [
        kronecker(LinearMap(e.dim, e.dim, m), LinearMap(f.dim, f.dim, idf)).matrix
        for m in e.left_action
    ]
    right = [
        kronecker(LinearMap(e.dim, e.dim, ide), LinearMap(f.dim, f.dim, m)).matrix
        for m in f.right_action
    ]
    labels = [f"{a}(x){b}" for a in e.labels for b in f.labels]
    return Bimodule(
        e.left_algebra, f.right_algebra, dim, left, right,
        labels=labels, name=f"{e.name}(x){f.name}", check=_check,
    )


def balancing_subspace(e: Bimodule, f: Bimodule, over: StructureAlgebra) -> Subspace:
    """Span of x.a (x) y - x (x) a.y over all basis triples, in canonical form."""
    if e.right_algebra.dim != over.dim or e.right_algebra != over:
        raise ValueError("e is not a right module over the balancing algebra")
    if f.left_algebra != over:
        raise ValueError("f is not a left module over the balancing algebra")
    fd = f.dim
    vectors = []
    for q in range(over.dim):
        right_cols = [e.right_action[q].col(p) for p in range(e.dim)]
        left_cols = [f.left_action[q].col(r) for r in range(f.dim)]
        for p in range(e.dim):
            xa = right_cols[p]
            for r in range(f.dim):
                ay = left_cols[r]
                v = {k * fd + r: x for k, x in xa.items()}
                for k, y in ay.items():
                    idx = p * fd + k
                    z = v.get(idx, 0) - y
                    if z:
                        v[idx] = z
                    elif idx in v:
                        del v[idx]
                if v:
                    vectors.append(v)
    return Subspace.from_spanning(e.dim * f.dim, vectors)


@dataclass
class BalancedTensor:
    """A balanced tensor product with its quotient data.

    module is the quotient bimodule; proj is the quotient map from the
    plain tensor product; section is an exact right inverse of proj;
    relations is the balancing subspace that was divided out.
    """

    module: Bimodule
    proj: BimoduleMap
    section: LinearMap
    relations: Subspace


def balanced_tensor(e: Bimodule, f: Bimodule, over: StructureAlgebra) -> BalancedTensor:
    """Quotient of the tensor product by the balancing subspace, with the
    induced outer actions. Every action matrix is checked to map the
    balancing subspace into itself before the quotient action is formed.

    The intermediate tensor skips the axiom re-check: for valid inputs the
    outer actions satisfy the axioms identically, and for broken inputs
    the preservation check below is the error the caller is promised.
    """
    big = tensor(e, f, _check=False)
    rel = balancing_subspace(e, f, over)
    for p, m in enumerate(big.left_action):
        for r in range(rel.basis.rows):
            if not rel.contains(m.apply(rel.basis._rows[r])):
                raise ActionNotWellDefined(
                    f"left action of basis {p} does not preserve the balancing subspace"
                )
    for p, m in enumerate(big.right_action):
        for r in range(rel.basis.rows):
            if not rel.contains(m.apply(rel.basis._rows[r])):
                raise ActionNotWellDefined(
                    f"right action of basis {p} does not preserve the balancing subspace"
                )
    q = quotient(big.dim, rel)
    left = [(q.proj.compose(LinearMap(big.dim, big.dim, m)).compose(q.section)).matrix
            for m in big.left_action]
    right = [(q.proj.compose(LinearMap(big.dim, big.dim, m)).compose(q.section)).matrix
             for m in big.right_action]
    small = Bimodule(
        big.left_algebra, big.right_algebra, q.dim, left, right,
        name=f"{e.name}(x)_{over.name}{f.name}",
    )
    proj = BimoduleMap(big, small, q.proj)
    return BalancedTensor(module=small, proj=proj, section=q.section, relations=rel)


def induced_map(bt: BalancedTensor, raw: LinearMap, target: Bimodule) -> BimoduleMap:
    """Descend a map on the plain tensor product to the balanced quotient.

    raw must vanish on the balancing subspace; the descended map is then
    raw composed with the section, and is verified to be a bimodule map.
    """
    rel = bt.relations
    for r in range(rel.basis.rows):
        if raw.apply(rel.basis._rows[r]):
            raise ActionNotWellDefined(
                "map does not vanish on the balancing subspace, cannot descend"
            )
    return BimoduleMap(bt.module, target, raw.compose(bt.section))


def mu_map(e: Bimodule) -> BimoduleMap:
    """The collapse map a (x) x -> a.x on the balanced tensor with the
    left algebra acting regularly on the left factor."""
    a = e.left_algebra
    bt = balanced_tensor(regular_bimodule(a), e, a)
    cols = []
    for p in range(a.dim):
        for r in range(e.dim):
            cols.append(e.left_action[p].col(r))
    raw = LinearMap.from_cols(cols, e.dim)
    return induced_map(bt, raw, e)


def mirror_mu_map(e: Bimodule) -> BimoduleMap:
    """The mirror collapse x (x) b -> x.b over the right algebra."""
    b = e.right_algebra
    bt = balanced_tensor(e, regular_bimodule(b), b)
    cols = []
    for r in range(e.dim):
        for p in range(b.dim):
            cols.append(e.right_action[p].col(r))
    raw = LinearMap.from_cols(cols, e.dim)
    return induced_map(bt, raw, e)


@dataclass(frozen=True)
class InducedFlags:
    left: bool
    right: bool
    two_sided: bool


def is_induced(e: Bimodule) -> InducedFlags:
    """Whether the left and right collapse maps are bijective."""
    left = mu_map(e).is_bijective()
    right = mirror_mu_map(e).is_bijective()
    return InducedFlags(left=left, right=right, two_sided=left and right)


def is_self_induced(a: StructureAlgebra) -> bool:
    """Whether multiplication descends to a bijection from the balanced
    tensor square of the algebra onto the algebra."""
    reg = regular_bimodule(a)
    bt = balanced_tensor(reg, reg, a)
    cols = []
    for p in range(a.dim):
        for q in range(a.dim):
            cols.append(a.structure.get((p, q), {}))
    raw = LinearMap.from_cols(cols, a.dim)
    m = induced_map(bt, raw, reg)
    return m.is_bijective()


def dual_bimodule(e: Bimodule) -> Bimodule:
    """The dual space with (a.f)(x) = f(x.a) and (f.b)(x) = f(b.x).

    The algebra sides swap: the left action of the dual is indexed by e's
    right algebra and is the transpose of e's right action, and mirrored.
    """
    left = [m.transpose() for m in e.right_action]
    right = [m.transpose() for m in e.left_action]
    labels = [f"{l}*" for l in e.labels]
    return Bimodule(
        e.right_algebra, e.left_algebra, e.dim, left, right,
        labels=labels, name=f"{e.name}*",
    )


def induced_completion(a: StructureAlgebra, f: Bimodule) -> Bimodule:
    """Sandwich f between two balanced copies of the algebra; the result is
    certified two-sided induced before it is returned."""
    if f.left_algebra != a or f.right_algebra != a:
        raise ValueError("module is not a bimodule over the given algebra")
    reg = regular_bimodule(a)
    one = balanced_tensor(reg, f, a).module
    two = balanced_tensor(one, reg, a).module
    flags = is_induced(two)
    if not flags.two_sided:
        raise RuntimeError("completion failed to be two-sided induced")
    return two


def seeded_random_bimodule(a: StructureAlgebra, seed: int) -> Bimodule:
    """A deterministic pseudo-random valid bimodule over a.

    Takes the regular bimodule or its dual, optionally pads with a
    zero-action line, and conjugates everything by a random unimodular
    integer change of basis. The axioms survive conjugation exactly.
    """
    rng = random.Random(seed)
    base = regular_bimodule(a) if rng.random() < 0.5 else dual_bimodule(regular_bimodule(a))
    pad = rng.randrange(0, 2)
    dim = base.dim + pad
    left = []
    for m in base.left_action:
        mm = RationalMatrix(dim, dim)
        for r, c, v in m.entries():
            mm._rows[r][c] = v
        left.append(mm)
    right = []
    for m in base.right_action:
        mm = RationalMatrix(dim, dim)
        for r, c, v in m.entries():
            mm._rows[r][c] = v
        right.append(mm)
    u = RationalMatrix.identity(dim)
    uinv = RationalMatrix.identity(dim)
    for _ in range(3 * dim):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        # row op on u: row_j += c * row_i; inverse tracks the column op
        u._rows[j] = vec_sub(u._rows[j], {k: -c * v for k, v in u._rows[i].items()})
        for r in range(dim):
            x = uinv._rows[r].get(j)
            if x:
                y = uinv._rows[r].get(i, 0) - c * x
                if y:
                    uinv._rows[r][i] = y
                elif i in uinv._rows[r]:
                    del uinv._rows[r][i]
        u._colcache = None
        uinv._colcache = None
    assert u @ uinv == RationalMatrix.identity(dim)
    left = [u @ m @ uinv for m in left]
    right = [u @ m @ uinv for m in right]
    return Bimodule(
        a, a, dim, left, right, name=f"random({a.name},seed={seed})",
    )
