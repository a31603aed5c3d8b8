"""Bimodules over structure algebras and the balanced tensor product.

A bimodule stores one action matrix per algebra basis vector. The axioms
(each action is multiplicative, the two actions commute) are verified at
construction; well-definedness of quotient actions is likewise verified,
never assumed, because that is exactly where a subtle bug would silently
corrupt every downstream homology computation.

The balanced tensor E (x)_A F is the quotient of E (x) F by the balancing
subspace N. quotient() gives a projection proj with kernel exactly N, and
a section onto N's non-pivot (free) columns; proj N^T = 0 is checked once.
For m = L_p (x) 1 or 1 (x) R_p, exactla's _times_outer forms pm = proj m
from the rows of proj and L_p or R_p, never the Kronecker matrix, and the
quotient action T = proj m section is pm on the free columns. pm = T proj
certifies T: then pm N^T = T proj N^T = 0, so m maps N into N. pm N^T is
formed only when that check fails, to tell the two errors apart.

Four checks use the generator derivation of an algebra (structures):
generators S and steps t <- (s, u), with e_t a combination of e_s e_u
and elements derived before t. An algebra with a derivation is
associative at every basis triple. Write L, R for actions, extended
linearly to algebra elements. Each Bimodule records once per side
(_rows_hold) whether its action holds on the generator rows,
L_s L_q = L_(e_s e_q) or R_q R_s = R_(e_s e_q) for generators s and all
q; every step pair (s, u) is such a row. All four checks read it.

* The rows imply every axiom. At a step, c_t L_t = L_s L_u -
  sum c_r L_r, so by induction on u and the r, c_t L_t L_q =
  L_s L_(e_u e_q) - sum c_r L_(e_r e_q) = L_(e_s (e_u e_q)) -
  sum c_r L_(e_r e_q), which associativity at (s, u, q) turns into
  c_t L_(e_t e_q); R is the mirror image. Then L_s R_s' = R_s' L_s on
  S_A x S_B extends over B's steps and then over A's. So check_axioms
  returns [] once both records and these pairs hold, and otherwise
  runs the full enumeration, whose violation list is unchanged.
* N is spanned by the relations of S. Let N_a be the span of
  x.a (x) y - x (x) a.y. With e's right and f's left record,
  x.(e_s e_u) (x) y - x (x) (e_s e_u).y is the sum of
  (x.e_s).e_u (x) y - x.e_s (x) e_u.y in N_u and
  x.e_s (x) e_u.y - x (x) e_s.(e_u.y) in N_s, so by induction over the
  steps every N_t lies in the span of the N_s for s in S. The RREF is
  canonical, so the relations are identical to those of all basis
  triples. If a record fails, every basis element is used.
* The quotient is a bimodule from the generators' checks. Let
  m_p = L_p (x) 1 on E (x) F; with e's left record, m_p m_q =
  sum c_r m_r for every pair. For each generator s it is checked that
  proj m_s = T_s proj, where T_s is proj m_s on the free columns, so
  m_s maps N into N; the other T_t are replayed by c_t T_t = T_s T_u -
  sum c_r T_r. By induction over the steps every m_t maps N into N and
  proj m_t = T_t proj, so T_t = proj m_t section (proj section = 1):
  the matrix the per-basis check forms, integral entries kept as int.
  Then T_p T_q proj = proj m_p m_q = sum c_r T_r proj, and proj is
  onto, so T_p T_q = sum c_r T_r; and L_p (x) 1 commutes with
  1 (x) R_q, so the quotient actions commute. The right action is the
  mirror image, with T_u T_s and f's right record. So the quotient
  module is built unchecked, and both its records are set: it is a
  bimodule. Without a derivation, when a record fails or when a
  generator check fails, every basis element is checked and so is the
  quotient module, so a broken input raises the same error.
* A module map from the generators. Let M map E to F, with actions S
  and T of one algebra on a side, and both modules' records on that
  side. If M S_s = T_s M for every generator s, then at a step
  t <- (s, u), by induction on u and the r, c_t M S_t = M S_s S_u -
  sum c_r M S_r = T_s T_u M - sum c_r T_r M = c_t T_t M; on the right
  it is S_u S_s and T_u T_s. So M intertwines that side. The algebras
  must be equal, not just of one dimension: the steps and the c come
  from the source's structure constants and the records from each
  module's own. If a generator fails or a condition is missing, every
  basis element of that side is compared, so the messages are unchanged.

The regular module of an algebra with a derivation is built unchecked
with both records set: its axioms are associativity at every basis
triple, which the derivation proves (structures).

A module is proven when check_axioms returned [] (the constructor check
included), or when regular_bimodule or balanced_tensor set both records
above. is_induced reads that:

* Induced-ness from the unit. Let A have unit u and E be a proven left
  module. The collapse mu: A (x)_A E -> E is bijective exactly when
  sum_p u_p L_p = I. If so, sigma(x) = [u (x) x] inverts mu: mu sigma(x)
  = u.x = x and sigma mu [a (x) x] = [u (x) a.x] = [ua (x) x] =
  [a (x) x]. Conversely, if mu is onto, x = sum a_i.x_i, so u.x =
  sum (u a_i).x_i = x. The right side is the mirror. Without a unit,
  or on a module not proven, mu is built and its rank taken.

The modules of semigroups and S-sets have monomial actions, and N then
needs no elimination:

* Monomial relations by union-find. If every column of e's right action
  and of f's left action, for each q whose relations are used, has at
  most one entry, each relation x.a (x) y - x (x) a.y is a e_i + b e_j or
  a single term. exactla.binomial_span spans them by a weighted
  union-find. Its rows span N and are in reduced row echelon form, and a
  subspace has only one RREF, so they are exactly the rows elimination
  gives. Any other input is eliminated by Subspace.from_spanning.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from itertools import product

from .exactla import (
    LinearMap,
    RationalMatrix,
    Subspace,
    _ratio,
    _times_outer,
    binomial_span,
    inverse,
    kronecker,
    linear_combination,
    quotient,
    vec_sub,
)
from .structures import (
    FiniteGroup, StructureAlgebra, brandt_products, cyclic_group, matrix_algebra, scalar_algebra,
)


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
                 "labels", "name", "_row_checks", "_proven", "__weakref__")

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
        self._row_checks = {}
        # whether every axiom is proven: by check_axioms, or where a
        # construction proves them (regular_bimodule, balanced_tensor)
        self._proven = False
        if check:
            bad = self.check_axioms(stop_early=True)
            if bad:
                raise BimoduleAxiomError(f"{name}: {bad[0]}")

    def check_axioms(self, stop_early=False) -> list[str]:
        """All violated axiom instances (empty means the module is valid).

        Each identity is one comparison of whole sparse matrices per basis
        pair: L_p L_q = sum_s c_s L_s for the left action, R_q R_p =
        sum_s c_s R_s for the right action (c = structure vector of the
        pair), and L_p R_q = R_q L_p. One violation is reported per
        offending basis pair.

        The generator rows of both sides (_rows_hold, recomputed here) and
        commutation on S_A x S_B are checked first; if they all hold,
        every pair holds (module docstring). Any failure there falls
        through to the full enumeration, which gives the violation list.
        An empty list marks the module proven (is_induced).
        """
        self._row_checks.clear()
        self._proven = False
        A, B = self.left_algebra, self.right_algebra
        left, right = self.left_action, self.right_action
        if self._rows_hold("left") and self._rows_hold("right") and all(
                left[s] @ right[t] == right[t] @ left[s]
                for s in A.derivation().generators for t in B.derivation().generators):
            self._proven = True
            return []
        out = []
        for p, q in product(range(A.dim), range(A.dim)):
            if not _left_pair_holds(left, A, p, q):
                out.append(f"left action not multiplicative at basis pair ({p},{q})")
                if stop_early:
                    return out
        for p, q in product(range(B.dim), range(B.dim)):
            if not _right_pair_holds(right, B, p, q):
                out.append(f"right action not anti-multiplicative at basis pair ({p},{q})")
                if stop_early:
                    return out
        for p, q in product(range(A.dim), range(B.dim)):
            if left[p] @ right[q] != right[q] @ left[p]:
                out.append(f"actions do not commute at basis pair ({p},{q})")
                if stop_early:
                    return out
        self._proven = not out
        return out

    def _rows_hold(self, side: str) -> bool:
        """Whether the action on side is multiplicative on the generator
        rows of its algebra: the module identity at (s, q) for every
        generator s of the derivation and every basis element q. False
        when there is no derivation. Recorded once per side."""
        ok = self._row_checks.get(side)
        if ok is None:
            if side == "left":
                alg, actions, holds = self.left_algebra, self.left_action, _left_pair_holds
            else:
                alg, actions, holds = self.right_algebra, self.right_action, _right_pair_holds
            der = alg.derivation()
            ok = der is not None and all(holds(actions, alg, s, q)
                                         for s in der.generators for q in range(alg.dim))
            self._row_checks[side] = ok
        return ok

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


def _left_pair_holds(left, alg: StructureAlgebra, p: int, q: int) -> bool:
    """L_p L_q = L_(e_p e_q) for a left action."""
    return left[p] @ left[q] == linear_combination(alg.structure.get((p, q), {}), left)


def _right_pair_holds(right, alg: StructureAlgebra, p: int, q: int) -> bool:
    """R_q R_p = R_(e_p e_q) for a right action."""
    return right[q] @ right[p] == linear_combination(alg.structure.get((p, q), {}), right)


class BimoduleMap:
    """A linear map intertwining both actions; construction fails loudly.

    certificate records the route of the last intertwining_failures
    call, as BalancedTensor.action_certificate does: "generators" (both
    sides from the generators) or "exhaustive" (a side compared on every
    basis element); None before any check.
    """

    __slots__ = ("source", "target", "map", "certificate")

    def __init__(self, source: Bimodule, target: Bimodule, linmap: LinearMap, check=True):
        if linmap.source_dim != source.dim or linmap.target_dim != target.dim:
            raise ValueError("map dimensions do not match modules")
        if source.left_algebra != target.left_algebra or \
           source.right_algebra != target.right_algebra:
            raise ValueError("source and target live over different algebras")
        self.source = source
        self.target = target
        self.map = linmap
        self.certificate = None
        if check:
            bad = self.intertwining_failures(stop_early=True)
            if bad:
                raise IntertwiningError(bad[0])

    def intertwining_failures(self, stop_early=False) -> list[str]:
        """One message per action basis element p with M S_p != T_p M,
        where M is the map and S, T are the source and target actions.
        A side that meets the conditions of the module docstring and
        passes on the generators has none; any other side is compared on
        every basis element in turn."""
        out = []
        m = self.map.matrix
        src, tgt = self.source, self.target
        self.certificate = "generators"
        for side, alg, tgt_alg, src_actions, tgt_actions in (
            ("left", src.left_algebra, tgt.left_algebra, src.left_action, tgt.left_action),
            ("right", src.right_algebra, tgt.right_algebra, src.right_action, tgt.right_action),
        ):
            der = alg.derivation()
            if (der is not None and alg == tgt_alg and src._rows_hold(side)
                    and tgt._rows_hold(side)
                    and all(m @ src_actions[s] == tgt_actions[s] @ m for s in der.generators)):
                continue
            self.certificate = "exhaustive"
            for p, (s, t) in enumerate(zip(src_actions, tgt_actions)):
                if m @ s != t @ m:
                    out.append(f"map does not intertwine {side} action of basis {p}")
                    if stop_early:
                        return out
        return out

    def is_bijective(self) -> bool:
        return self.map.source_dim == self.map.target_dim and \
            self.map.rank() == self.map.source_dim

    def __repr__(self):
        return f"BimoduleMap({self.source.name} -> {self.target.name})"


def regular_bimodule(a: StructureAlgebra) -> Bimodule:
    """The algebra acting on itself by multiplication on both sides.

    Its axioms are associativity, so with a derivation of a it is built
    unchecked and both generator-row records are set (module docstring);
    otherwise it is checked.

    Cached on the algebra by weak reference: the module is immutable and
    rebuilt values would be structurally identical, and the module refers
    back to the algebra, so a strong reference would make a cycle that
    only a full garbage collection frees.
    """
    ref = a._regular_cache
    mod = ref() if ref is not None else None
    if mod is None:
        left = [a.left_mult_matrix(p) for p in range(a.dim)]
        right = [a.right_mult_matrix(p) for p in range(a.dim)]
        proven = a.derivation() is not None
        mod = Bimodule(a, a, a.dim, left, right, labels=a.labels, name=a.name, check=not proven)
        if proven:
            mod._row_checks.update(left=True, right=True)
            mod._proven = True
        a._regular_cache = weakref.ref(mod)
    return mod


def _rect_actions(left_n: int, right_n: int, g: FiniteGroup):
    """Left and right action matrices of the contracted triple algebras on
    the left_n x G x right_n rectangle, by the Brandt product: the left
    algebra glues onto the left index, the right one onto the right."""
    dim = left_n * g.order * right_n
    left = [{} for _ in range(left_n * g.order * left_n)]
    for x, y, z in brandt_products(left_n, left_n, right_n, g):
        left[x][z, y] = 1
    right = [{} for _ in range(right_n * g.order * right_n)]
    for x, y, z in brandt_products(left_n, right_n, right_n, g):
        right[y][z, x] = 1
    return ([RationalMatrix(dim, dim, e) for e in left],
            [RationalMatrix(dim, dim, e) for e in right])


def _rect_pairing(left_n: int, mid_n: int, right_n: int, g: FiniteGroup) -> LinearMap:
    """Convolution pairing (l,g,m) (x) (m',h,r) -> [m=m'] (l,gh,r), from the
    tensor of the (left_n, mid_n) and (mid_n, right_n) rectangles into the
    (left_n, right_n) rectangle."""
    pdim = left_n * g.order * mid_n
    qdim = mid_n * g.order * right_n
    tdim = left_n * g.order * right_n
    products = brandt_products(left_n, mid_n, right_n, g)
    m = RationalMatrix(tdim, pdim * qdim, {(z, x * qdim + y): 1 for x, y, z in products})
    return LinearMap(pdim * qdim, tdim, m)


def row_module(index_size: int) -> Bimodule:
    """The index space as a (scalars, matrix-units) bimodule: the 1 x n
    rectangle over the trivial group."""
    n = index_size
    labels = [f"d{i}" for i in range(1, n + 1)]
    return Bimodule(
        scalar_algebra(), matrix_algebra(n), n, *_rect_actions(1, n, cyclic_group(1)),
        labels=labels, name=f"row l1({n})",
    )


def column_module(index_size: int) -> Bimodule:
    """The index space as a (matrix-units, scalars) bimodule: the n x 1
    rectangle over the trivial group."""
    n = index_size
    labels = [f"d{i}" for i in range(1, n + 1)]
    return Bimodule(
        matrix_algebra(n), scalar_algebra(), n, *_rect_actions(n, 1, cyclic_group(1)),
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
    col = is_induced(column_module(index_size))
    row = is_induced(row_module(index_size))
    return InducedFlags(left=col.left, right=row.right, two_sided=col.left and row.right,
                        certificate=(col.certificate[0], row.certificate[1]))


def trace_pairing(index_size: int) -> LinearMap:
    """The pairing (a, b) -> sum_i a(i) b(i) as a map on the tensor square
    of the index space (lexicographic pair basis) into the scalars."""
    return _rect_pairing(1, index_size, 1, cyclic_group(1))


def _outer_action(e: Bimodule, f: Bimodule, side: str, p: int) -> RationalMatrix:
    """The matrix on E (x) F of e's left action of basis p (side "left",
    L_p (x) 1) or of f's right action of basis p (side "right", 1 (x) R_p)."""
    if side == "left":
        return kronecker(LinearMap(e.dim, e.dim, e.left_action[p]),
                         LinearMap.identity(f.dim)).matrix
    return kronecker(LinearMap.identity(e.dim),
                     LinearMap(f.dim, f.dim, f.right_action[p])).matrix


def tensor(e: Bimodule, f: Bimodule) -> Bimodule:
    """Tensor product with the outer actions only (e's left, f's right)."""
    left = [_outer_action(e, f, "left", p) for p in range(e.left_algebra.dim)]
    right = [_outer_action(e, f, "right", p) for p in range(f.right_algebra.dim)]
    labels = [f"{a}(x){b}" for a in e.labels for b in f.labels]
    return Bimodule(
        e.left_algebra, f.right_algebra, e.dim * f.dim, left, right,
        labels=labels, name=f"{e.name}(x){f.name}",
    )


def _balancing_rows(e: Bimodule, f: Bimodule, over: StructureAlgebra):
    """The algebra basis elements q whose relations span the balancing
    subspace, with the certificate for that: the generators of over's
    derivation when e's right and f's left action hold on its generator
    rows (Bimodule._rows_hold), else every basis element."""
    der = over.derivation()
    if (der is not None and e.right_algebra.derivation() == der == f.left_algebra.derivation()
            and e._rows_hold("right") and f._rows_hold("left")):
        return der.generators, "generators"
    return range(over.dim), "exhaustive"


def balancing_subspace(e: Bimodule, f: Bimodule, over: StructureAlgebra) -> Subspace:
    """Span of x.a (x) y - x (x) a.y over all basis triples, in canonical
    form. The relations of the generators alone span it whenever the
    generator rows hold (module docstring); the RREF is the same either way."""
    return _balancing(e, f, over)[0]


def _balancing(e: Bimodule, f: Bimodule, over: StructureAlgebra) -> tuple[Subspace, str]:
    """balancing_subspace, with the certificate from _balancing_rows.

    The relations of basis q are the columns of R_q (x) 1 - 1 (x) L_q on
    E (x) F, column x (x) y holding x.q (x) y - x (x) q.y; monomial ones go
    through binomial_span, the rest through Subspace.from_spanning."""
    if e.right_algebra.dim != over.dim or e.right_algebra != over:
        raise ValueError("e is not a right module over the balancing algebra")
    if f.left_algebra != over:
        raise ValueError("f is not a left module over the balancing algebra")
    fd = f.dim
    rows, certificate = _balancing_rows(e, f, over)
    right = [e.right_action[q]._columns() for q in rows]
    left = [f.left_action[q]._columns() for q in rows]
    if all(len(c) <= 1 for cols in right + left for c in cols):
        return binomial_span(e.dim * fd, _binomial_relations(right, left, fd)), certificate
    vectors = []
    ide, idf = LinearMap.identity(e.dim), LinearMap.identity(fd)
    for q in rows:
        rel = (kronecker(LinearMap(e.dim, e.dim, e.right_action[q]), idf).matrix
               - kronecker(ide, LinearMap(fd, fd, f.left_action[q])).matrix)
        vectors.extend(col for col in rel._columns() if col)
    return Subspace.from_spanning(e.dim * fd, vectors), certificate


def _binomial_relations(right, left, fd: int):
    """The relations x.a (x) y - x (x) a.y as (i, a, j, b) or (i, a) tuples,
    when every column of the actions has at most one entry."""
    for right_cols, left_cols in zip(right, left):
        ays = [next(iter(c.items()), None) for c in left_cols]
        for p, col in enumerate(right_cols):
            xa = next(iter(col.items()), None)
            for r, ay in enumerate(ays):
                if xa is None:
                    if ay is not None:
                        yield p * fd + ay[0], -ay[1]
                elif ay is None:
                    yield xa[0] * fd + r, xa[1]
                else:
                    yield xa[0] * fd + r, xa[1], p * fd + ay[0], -ay[1]


@dataclass
class BalancedTensor:
    """A balanced tensor product with its quotient data.

    module is the quotient bimodule; proj is the quotient map from the
    plain tensor product; section is an exact right inverse of proj;
    relations is the balancing subspace that was divided out. certificate
    says how relations was spanned: "generators" (the derivation's
    generators, e's right and f's left generator rows verified) or
    "exhaustive" (every basis element of the balancing algebra).
    action_certificate says the same of the quotient actions:
    "generators" (checked on the generators of the outer algebras and
    replayed over their steps; module is then a bimodule, unchecked) or
    "exhaustive" (checked and formed for every basis element, and
    module checked).
    """

    module: Bimodule
    proj: LinearMap
    section: LinearMap
    relations: Subspace
    certificate: str
    action_certificate: str


def balanced_tensor(e: Bimodule, f: Bimodule, over: StructureAlgebra) -> BalancedTensor:
    """Quotient of the tensor product by the balancing subspace, with the
    induced outer actions. An action matrix is checked to map the
    balancing subspace into itself before its quotient action is kept.

    proj N^T = 0 is checked once (RuntimeError otherwise). For each checked
    action matrix m, pm = proj @ m, t is pm on the free columns, and
    pm == t @ proj certifies that m preserves N and that proj intertwines
    m with t (module docstring). When it fails, a nonzero pm @ N^T raises
    ActionNotWellDefined, else IntertwiningError.

    Those checks run on the generators of the outer algebras only, and
    the other quotient actions are replayed over the derivation steps
    (module docstring). Otherwise every basis element is checked in turn
    and so is the quotient module, so a broken input raises the error of
    the first failing one.
    """
    rel, certificate = _balancing(e, f, over)
    q = quotient(e.dim * f.dim, rel)
    rel_cols = rel.basis.transpose()
    proj, free = q.proj.matrix, q.free
    if not (proj @ rel_cols).is_zero():
        raise RuntimeError("quotient projection does not vanish on the balancing subspace")

    def action(side: str, p: int) -> RationalMatrix:
        m, n = (e.left_action[p], f.dim) if side == "left" else (f.right_action[p], e.dim)
        pm = _times_outer(proj, m, side, n)
        t = RationalMatrix.from_rows(
            [{free[j]: v for j, v in row.items() if j in free} for row in pm._rows], q.dim)
        if pm != t @ proj:
            if not (pm @ rel_cols).is_zero():
                raise ActionNotWellDefined(f"{side} action of basis {p} does not preserve "
                                           "the balancing subspace")
            raise IntertwiningError(f"map does not intertwine {side} action of basis {p}")
        return t

    actions = _generator_actions(e, f, action)
    action_certificate = "generators"
    if actions is None:
        actions = {
            "left": [action("left", p) for p in range(e.left_algebra.dim)],
            "right": [action("right", p) for p in range(f.right_algebra.dim)],
        }
        action_certificate = "exhaustive"
    small = Bimodule(
        e.left_algebra, f.right_algebra, q.dim, actions["left"], actions["right"],
        name=f"{e.name}(x)_{over.name}{f.name}", check=(action_certificate == "exhaustive"),
    )
    if action_certificate == "generators":
        small._row_checks.update(left=True, right=True)
        small._proven = True
    return BalancedTensor(module=small, proj=q.proj, section=q.section, relations=rel,
                          certificate=certificate, action_certificate=action_certificate)


def _generator_actions(e: Bimodule, f: Bimodule, action) -> dict | None:
    """The quotient actions {"left": [...], "right": [...]}: action(side, s)
    for the generators s of each outer algebra, and for a step t <- (s, u)
    with e_s e_u = sum c_r e_r, c_t T_t = T_s T_u - sum_(r != t) c_r T_r
    (T_u T_s on the right). None when e's left or f's right record
    (Bimodule._rows_hold) fails or a generator check fails."""
    out = {}
    for side, mod, alg in (("left", e, e.left_algebra), ("right", f, f.right_algebra)):
        if not mod._rows_hold(side):
            return None
        der = alg.derivation()
        acts = [None] * alg.dim
        try:
            for s in der.generators:
                acts[s] = action(side, s)
        except (ActionNotWellDefined, IntertwiningError):
            return None
        for t, s, u in der.steps:
            coeffs = alg.structure[(s, u)]
            ct = coeffs[t]
            # the product sits in the free slot t until T_t replaces it
            acts[t] = acts[s] @ acts[u] if side == "left" else acts[u] @ acts[s]
            acts[t] = linear_combination(
                {t: _ratio(1, ct), **{r: _ratio(-c, ct) for r, c in coeffs.items() if r != t}},
                acts)
        out[side] = acts
    return out


def induced_map(bt: BalancedTensor, raw: LinearMap, target: Bimodule) -> BimoduleMap:
    """Descend a map on the plain tensor product to the balanced quotient.

    raw must vanish on the balancing subspace; the descended map is then
    raw composed with the section, and is verified to be a bimodule map.
    """
    if not (raw.matrix @ bt.relations.basis.transpose()).is_zero():
        raise ActionNotWellDefined(
            "map does not vanish on the balancing subspace, cannot descend"
        )
    return BimoduleMap(bt.module, target, raw.compose(bt.section))


def mu_map(e: Bimodule) -> BimoduleMap:
    """The collapse map a (x) x -> a.x on the balanced tensor with the
    left algebra acting regularly on the left factor."""
    a = e.left_algebra
    bt = balanced_tensor(regular_bimodule(a), e, a)
    raw = LinearMap.from_cols(
        [e.left_action[p].col(r) for p in range(a.dim) for r in range(e.dim)], e.dim)
    return induced_map(bt, raw, e)


def mirror_mu_map(e: Bimodule) -> BimoduleMap:
    """The mirror collapse x (x) b -> x.b over the right algebra."""
    b = e.right_algebra
    bt = balanced_tensor(e, regular_bimodule(b), b)
    raw = LinearMap.from_cols(
        [e.right_action[p].col(r) for r in range(e.dim) for p in range(b.dim)], e.dim)
    return induced_map(bt, raw, e)


@dataclass(frozen=True)
class InducedFlags:
    """is_induced's answer per side. certificate names the route of each
    side, left then right: "unit" or "collapse" (is_induced); None on
    flags built by hand. It takes no part in equality."""

    left: bool
    right: bool
    two_sided: bool
    certificate: tuple[str, str] | None = field(default=None, compare=False)


def is_induced(e: Bimodule) -> InducedFlags:
    """Whether the left and right collapse maps are bijective.

    Let A be a side's algebra with unit u, and let e's axioms be proven
    (e._proven). Then mu: A (x)_A E -> E, a (x) x -> a.x, is bijective
    exactly when u acts as the identity, sum_p u_p L_p = I:

    * (<=) sigma(x) = [u (x) x] inverts mu: mu sigma(x) = u.x = x, and
      sigma mu [a (x) x] = [u (x) a.x] = [ua (x) x] = [a (x) x], by a
      balancing relation.
    * (=>) If mu is onto, x = sum a_i.x_i, so u.x = sum (u a_i).x_i = x.

    The right side is the mirror, with R_p and x (x) b -> x.b. Such a side
    is certified by that one comparison ("unit"). A side without a unit,
    or a module whose axioms are not proven, builds the collapse map
    (mu_map, mirror_mu_map) and asks whether it is bijective
    ("collapse"), so a broken module raises what those raise.
    """
    left, left_route = _induced_side(e, "left")
    right, right_route = _induced_side(e, "right")
    return InducedFlags(left=left, right=right, two_sided=left and right,
                        certificate=(left_route, right_route))


def _induced_side(e: Bimodule, side: str) -> tuple[bool, str]:
    """One side of is_induced, with the route it took."""
    if side == "left":
        unit, actions, collapse = e.left_algebra.unit, e.left_action, mu_map
    else:
        unit, actions, collapse = e.right_algebra.unit, e.right_action, mirror_mu_map
    if e._proven and unit:
        return linear_combination(unit, actions) == RationalMatrix.identity(e.dim), "unit"
    return collapse(e).is_bijective(), "collapse"


def is_self_induced(a: StructureAlgebra) -> bool:
    """Whether multiplication descends to a bijection from the balanced
    tensor square of the algebra onto the algebra: the collapse map of
    the regular bimodule, whose column (p, q) is e_p e_q."""
    return mu_map(regular_bimodule(a)).is_bijective()


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
    certified two-sided induced before it is returned.

    For a unital algebra A (x)_A F (x)_A A is isomorphic to uFu, but the
    completion stays on balanced tensors: the free coordinates of the
    quotient form a monomial basis, and that basis keeps the bar complex
    over the result cheap. Built from the image of L_u R_u instead, the
    completed random module over l1(B(2,C3)) had 3,655 action entries
    with numerators up to 2,589 instead of 338 entries of +-1, and the
    degree-2 bar build took 31 s instead of 0.12 s.
    """
    if f.left_algebra != a or f.right_algebra != a:
        raise ValueError("module is not a bimodule over the given algebra")
    reg = regular_bimodule(a)
    one = balanced_tensor(reg, f, a).module
    two = balanced_tensor(one, reg, a).module
    flags = is_induced(two)
    if not flags.two_sided:
        raise RuntimeError("completion failed to be two-sided induced")
    return two


def _extend_block(m: RationalMatrix, dim: int) -> RationalMatrix:
    """m as the top-left block of a dim x dim matrix, zero elsewhere."""
    return RationalMatrix(dim, dim, (((r, c), v) for r, c, v in m.entries()))


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
    rows = [{k: 1} for k in range(dim)]
    for _ in range(3 * dim):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        # row op on u: row_j += c * row_i
        rows[j] = vec_sub(rows[j], {k: -c * v for k, v in rows[i].items()})
    u = RationalMatrix.from_rows(rows, dim)
    uinv = inverse(LinearMap(dim, dim, u)).matrix
    if u @ uinv != RationalMatrix.identity(dim):
        raise RuntimeError(f"change of basis for seed {seed}: u times its inverse is not 1")
    left = [u @ _extend_block(m, dim) @ uinv for m in base.left_action]
    right = [u @ _extend_block(m, dim) @ uinv for m in base.right_action]
    return Bimodule(
        a, a, dim, left, right, name=f"random({a.name},seed={seed})",
    )
