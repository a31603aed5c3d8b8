"""Finite groups, Brandt semigroups, and structure-constant algebras.

Groups are ingested as Cayley tables only. Every matrix-unit and triple
object rests on one rule, the Brandt product of rectangles:
(i,a,k)(k,b,j) = (i,ab,j), and triples whose inner indices differ have
no product. An I x G x J rectangle lists its triples lexicographically,
(i,a,j) at ((i-1)|G| + a)|J| + (j-1); matrix units are the case |G| = 1.
brandt_products enumerates the rule once; the algebras here and the
rectangle modules and pairings of bimodules are built from it.

Every algebra built here is finite-dimensional and associative, with a
labeled basis and a sparse table of structure constants; associativity
is verified exactly at construction, whatever the dimension, since the
constructors are the trust root for everything checked downstream.

The certificate is a generator derivation (computed on first use and
cached): a set S of basis elements and ordered steps t <- (s, u) with
s in S and u already derived, such that t lies in the support of e_s e_u
and every other support element of e_s e_u is already derived. Then
c_t e_t = e_s e_u - sum_v c_v e_v with every v derived before t, so every
basis element is a polynomial in S. S is chosen greedily, adding each
time the underived element whose closure is largest. The steps are
replayed from the structure constants, and with L_p the matrix of left
multiplication by e_p, L_s L_q = L_(e_s e_q) is compared as whole sparse
matrices for every s in S and every basis element q. Column r of that
identity is associativity at (s, q, r).

These generator rows give every triple, by induction over the steps.
Associativity at (x, q, r) is linear in x and holds for x in S. For a
step t <- (s, u), assume it for x = e_u and x = e_v for every v above,
all derived before t; it remains to show it for x = e_s e_u. The
generator rows at (s, u, q), (s, e_u e_q, r) and (s, u, e_q e_r) and the
assumption at (u, q, r) give

    ((e_s e_u) e_q) e_r = (e_s (e_u e_q)) e_r = e_s ((e_u e_q) e_r)
                        = e_s (e_u (e_q e_r)) = (e_s e_u)(e_q e_r).

So |S| d matrix products certify all d^3 basis triples. When a generator
row fails there is no derivation: a checked algebra refuses to be built
and names a failing triple, and derivation() of an unchecked one is None,
so callers take their exhaustive paths. Bimodule checks use the
derivation to test identities on the generators' rows only (see
bimodules), and so do find_unit and direct_sum (proofs in their docstrings).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .exactla import (
    LinearMap,
    RationalMatrix,
    _accumulate,
    linear_combination,
    nrat,
    solve,
    vec_add,
    vec_scale,
    vec_sub,
)


class CayleyTableError(ValueError):
    """A multiplication table failed validation."""


class NotLatinSquare(CayleyTableError):
    def __init__(self, cell, why):
        self.cell = cell
        super().__init__(f"NotLatinSquare at cell {cell}: {why}")


class NotAssociative(CayleyTableError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"NotAssociative at triple {triple}")


class NoIdentity(CayleyTableError):
    def __init__(self):
        super().__init__("NoIdentity: no two-sided identity element")


class NoInverse(CayleyTableError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"NoInverse for element {element}")


class FiniteGroup:
    """A finite group given by its Cayley table over indices 0..order-1."""

    __slots__ = ("order", "cayley", "identity_index", "inverse", "names", "name")

    def __init__(self, cayley, names=None, name="G", check=True):
        order = len(cayley)
        table = tuple(tuple(row) for row in cayley)
        if check:
            _validate_cayley(table)
        self.order = order
        self.cayley = table
        self.name = name
        e = None
        for i in range(order):
            if all(table[i][x] == x == table[x][i] for x in range(order)):
                e = i
                break
        if e is None:
            raise NoIdentity()
        self.identity_index = e
        inv = [None] * order
        for a in range(order):
            for b in range(order):
                if table[a][b] == e and table[b][a] == e:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise NoInverse(a)
        self.inverse = tuple(inv)
        self.names = tuple(names) if names else tuple(str(k) for k in range(order))
        if len(self.names) != order:
            raise ValueError("names length does not match order")

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.cayley[a][b] == self.cayley[b][a] for a in range(n) for b in range(n))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"


def _validate_cayley(table):
    n = len(table)
    if n == 0:
        raise CayleyTableError("empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise CayleyTableError(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise CayleyTableError(f"entry at cell ({i},{j}) is {v!r}, expected 0..{n - 1}")
    for i in range(n):
        seen = {}
        for j in range(n):
            v = table[i][j]
            if v in seen:
                raise NotLatinSquare((i, j), f"row {i} repeats value {v}")
            seen[v] = j
    for j in range(n):
        seen = {}
        for i in range(n):
            v = table[i][j]
            if v in seen:
                raise NotLatinSquare((i, j), f"column {j} repeats value {v}")
            seen[v] = i
    for i in range(n):
        for j in range(n):
            tij = table[i][j]
            ri = table[i]
            for k in range(n):
                if table[tij][k] != ri[table[j][k]]:
                    raise NotAssociative((i, j, k))


def group_from_cayley(table, names=None, name="G") -> FiniteGroup:
    """Validate a square Cayley table and wrap it as a group."""
    return FiniteGroup(table, names=names, name=name, check=True)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + [f"g{k}" for k in range(1, n)]
    return FiniteGroup(table, names=names, name=f"C{n}", check=False)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of n letters under composition; table size guard n <= 4."""
    if not 1 <= n <= 4:
        raise ValueError("symmetric_group supports 1 <= n <= 4")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms]
        for p in perms
    ]
    names = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(table, names=names, name=f"S{n}", check=False)


def klein_four_group() -> FiniteGroup:
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return FiniteGroup(table, names=["e", "a", "b", "c"], name="K4", check=False)


BUILTIN_GROUPS = {
    **{f"C{k}": (lambda k=k: cyclic_group(k)) for k in range(1, 9)},
    "S2": lambda: symmetric_group(2),
    "S3": lambda: symmetric_group(3),
    "S4": lambda: symmetric_group(4),
    "K4": klein_four_group,
}


def builtin_group(name: str) -> FiniteGroup:
    try:
        return BUILTIN_GROUPS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin group {name!r}; choose from {sorted(BUILTIN_GROUPS)}")


def parse_cayley(text: str, name="G") -> FiniteGroup:
    """Parse the Cayley table file format.

    Line 1: ``order n``; then n lines of n whitespace-separated 0-based
    indices; an optional trailing line ``identity k``. Malformed input is
    rejected with a line/column diagnostic.
    """
    lines = text.splitlines()
    pos = 0

    def fail(lineno, col, msg):
        raise CayleyTableError(f"line {lineno}, column {col}: {msg}")

    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    if pos >= len(lines):
        fail(1, 1, "missing 'order n' header")
    head = lines[pos].split()
    if len(head) != 2 or head[0] != "order" or not _is_index(head[1]):
        fail(pos + 1, 1, f"expected 'order n', got {lines[pos]!r}")
    n = int(head[1])
    if n < 1:
        fail(pos + 1, 7, "order must be >= 1")
    pos += 1
    table = []
    for r in range(n):
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            fail(len(lines) + 1, 1, f"missing table row {r + 1} of {n}")
        parts = lines[pos].split()
        if len(parts) != n:
            fail(pos + 1, 1, f"expected {n} entries, got {len(parts)}")
        row = []
        for c, tok in enumerate(parts):
            if not _is_index(tok):
                fail(pos + 1, c + 1, f"entry {tok!r} is not a 0-based index")
            v = int(tok)
            if v >= n:
                fail(pos + 1, c + 1, f"entry {v} out of range 0..{n - 1}")
            row.append(v)
        table.append(row)
        pos += 1
    declared_identity = None
    while pos < len(lines):
        if lines[pos].strip():
            parts = lines[pos].split()
            if len(parts) == 2 and parts[0] == "identity" and _is_index(parts[1]):
                declared_identity = int(parts[1])
            else:
                fail(pos + 1, 1, f"unexpected trailing content {lines[pos]!r}")
        pos += 1
    g = group_from_cayley(table, name=name)
    if declared_identity is not None and declared_identity != g.identity_index:
        raise CayleyTableError(
            f"declared identity {declared_identity} but table identity is {g.identity_index}"
        )
    return g


def _is_index(tok: str) -> bool:
    """ASCII digits only: str.isdigit also takes superscripts such as ²."""
    return tok.isascii() and tok.isdigit()


def load_cayley(path, name=None) -> FiniteGroup:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CayleyTableError(f"not a UTF-8 text file: {exc}") from exc
    return parse_cayley(text, name=name or os.path.splitext(os.path.basename(path))[0])


class BrandtSemigroup:
    """Index triples (i, g, j) plus an absorbing zero.

    The product of (i, g, j) and (i', g', j') is (i, g g', j') when the
    inner indices match and the zero element otherwise; the zero absorbs
    everything. Triples use 1-based i, j and a 0-based group index, listed
    lexicographically, with the zero element last.
    """

    __slots__ = ("index_size", "group", "size", "zero_index")

    def __init__(self, index_size: int, group: FiniteGroup):
        if index_size < 1:
            raise ValueError("index size must be >= 1")
        self.index_size = index_size
        self.group = group
        self.size = index_size * index_size * group.order + 1
        self.zero_index = self.size - 1

    def triple_index(self, i: int, g: int, j: int) -> int:
        n, og = self.index_size, self.group.order
        if not (1 <= i <= n and 1 <= j <= n and 0 <= g < og):
            raise IndexError(f"triple ({i},{g},{j}) out of range")
        return ((i - 1) * og + g) * n + (j - 1)

    def triple_of(self, idx: int):
        """The (i, g, j) triple for a non-zero element index, else None."""
        if idx == self.zero_index:
            return None
        n, og = self.index_size, self.group.order
        j = idx % n
        rest = idx // n
        g = rest % og
        i = rest // og
        return (i + 1, g, j + 1)

    def mul(self, s: int, t: int) -> int:
        if s == self.zero_index or t == self.zero_index:
            return self.zero_index
        i, g, j = self.triple_of(s)
        i2, g2, j2 = self.triple_of(t)
        if j != i2:
            return self.zero_index
        return self.triple_index(i, self.group.mul(g, g2), j2)

    def label(self, idx: int) -> str:
        if idx == self.zero_index:
            return "ø"
        i, g, j = self.triple_of(idx)
        return f"({i},{self.group.names[g]},{j})"

    def labels(self) -> list[str]:
        return [self.label(k) for k in range(self.size)]

    def __repr__(self):
        return f"BrandtSemigroup(|I|={self.index_size}, {self.group.name}, size {self.size})"


def brandt(index_size: int, g: FiniteGroup) -> BrandtSemigroup:
    return BrandtSemigroup(index_size, g)


def brandt_products(left_n: int, mid_n: int, right_n: int, g: FiniteGroup):
    """Yield (x, y, z) for every product x y = z of a triple x of the
    left_n x G x mid_n rectangle with a triple y of the mid_n x G x right_n
    rectangle, each indexed as BrandtSemigroup.triple_index lays out
    triples, in loop order i, a, k, b, j of (i,a,k)(k,b,j) = (i,ab,j)."""
    og, cayley = g.order, g.cayley
    for i in range(left_n):
        for a in range(og):
            for k in range(mid_n):
                x = (i * og + a) * mid_n + k
                for b in range(og):
                    y = (k * og + b) * right_n
                    z = (i * og + cayley[a][b]) * right_n
                    for j in range(right_n):
                        yield x, y + j, z + j


class StructureAlgebra:
    """Associative algebra with a labeled basis and sparse structure constants.

    structure[(p, q)] holds the sparse coefficient vector of e_p * e_q;
    pairs with zero product are absent. Unless check is False,
    construction certifies associativity on every basis triple through
    the generator derivation (module docstring) and verifies a claimed
    unit against every basis vector.
    """

    __slots__ = ("dim", "labels", "structure", "unit", "name", "_left_cache", "_right_cache",
                 "_regular_cache", "_derivation_cache")

    def __init__(self, dim, labels, structure, unit=None, name="A", check=True):
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        clean = {}
        for (p, q), vec in structure.items():
            if not (0 <= p < dim and 0 <= q < dim):
                raise IndexError(f"structure key ({p},{q}) out of range")
            v = {}
            for r, x in vec.items():
                x = nrat(x)
                if x:
                    if not 0 <= r < dim:
                        raise IndexError(f"structure value index {r} out of range")
                    v[r] = x
            if v:
                clean[(p, q)] = v
        self.dim = dim
        self.labels = tuple(labels)
        self.structure = clean
        self.unit = None
        self.name = name
        self._left_cache = {}
        self._right_cache = {}
        self._regular_cache = None
        self._derivation_cache = None
        if check and self.derivation() is None:
            p, q, r = _associativity_failure(self, range(dim))
            raise ValueError(f"algebra {name} is not associative at basis triple ({p},{q},{r})")
        if unit is not None:
            u = {k: nrat(v) for k, v in unit.items() if v}
            if check and not self._is_two_sided_unit(u):
                raise ValueError(f"claimed unit of {name} is not a two-sided identity")
            self.unit = u

    def _is_two_sided_unit(self, u: dict) -> bool:
        for p in range(self.dim):
            e = {p: 1}
            if self.mul(u, e) != e or self.mul(e, u) != e:
                return False
        return True

    def derivation(self) -> "Derivation | None":
        """The verified generator derivation, or None when the algebra is
        not associative. Computed on first use and cached."""
        if self._derivation_cache is None:
            # wrapped in a tuple, since None is a result worth caching too
            self._derivation_cache = (_derive(self),)
        return self._derivation_cache[0]

    def mul_basis(self, p: int, q: int) -> dict:
        return dict(self.structure.get((p, q), {}))

    def mul(self, x: dict, y: dict) -> dict:
        st = self.structure
        return _accumulate(
            {}, {(p, q): a * b for p, a in x.items() for q, b in y.items() if (p, q) in st}, st)

    def left_mult_matrix(self, p: int) -> RationalMatrix:
        """Matrix of x -> e_p * x."""
        m = self._left_cache.get(p)
        if m is None:
            cols = [self.structure.get((p, q), {}) for q in range(self.dim)]
            m = RationalMatrix.from_cols(cols, self.dim)
            self._left_cache[p] = m
        return m

    def right_mult_matrix(self, p: int) -> RationalMatrix:
        """Matrix of x -> x * e_p."""
        m = self._right_cache.get(p)
        if m is None:
            cols = [self.structure.get((q, p), {}) for q in range(self.dim)]
            m = RationalMatrix.from_cols(cols, self.dim)
            self._right_cache[p] = m
        return m

    def basis_element(self, p: int) -> "AlgebraElement":
        return AlgebraElement(self, {p: 1})

    def element(self, coeffs: dict) -> "AlgebraElement":
        return AlgebraElement(self, coeffs)

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StructureAlgebra)
            and self.dim == other.dim
            and self.labels == other.labels
            and self.structure == other.structure
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.dim, self.labels))

    def __repr__(self):
        return f"StructureAlgebra({self.name}, dim {self.dim})"


class AlgebraElement:
    """A sparse rational coefficient vector attached to its algebra."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: StructureAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = {}
        for k, v in coeffs.items():
            v = nrat(v)
            if v:
                if not 0 <= k < algebra.dim:
                    raise IndexError(f"coefficient index {k} out of range")
                self.coeffs[k] = v

    def __add__(self, other):
        self._same(other)
        return AlgebraElement(self.algebra, vec_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._same(other)
        return AlgebraElement(self.algebra, vec_sub(self.coeffs, other.coeffs))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._same(other)
            return AlgebraElement(self.algebra, self.algebra.mul(self.coeffs, other.coeffs))
        return AlgebraElement(self.algebra, vec_scale(self.coeffs, nrat(other)))

    def __rmul__(self, other):
        return AlgebraElement(self.algebra, vec_scale(self.coeffs, nrat(other)))

    def __neg__(self):
        return AlgebraElement(self.algebra, vec_scale(self.coeffs, -1))

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def _same(self, other):
        if other.algebra is not self.algebra:
            raise ValueError("elements of different algebras")

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            v = self.coeffs[k]
            lbl = self.algebra.labels[k]
            parts.append(f"{v}*{lbl}" if v != 1 else lbl)
        return " + ".join(parts)


@dataclass(frozen=True)
class Derivation:
    """Generators of an algebra and the steps that derive every other
    basis element from them.

    A step (t, s, u) derives t from the generator s and the already
    derived u: t is in the support of e_s e_u, and every other support
    element of e_s e_u was derived before.
    """

    generators: tuple
    steps: tuple


def _derive(alg: StructureAlgebra) -> Derivation | None:
    """Greedy generators and their steps; None when _derivation_holds
    fails, that is when the algebra is not associative."""
    get = alg.structure.get
    gens: list[int] = []
    derived: set[int] = set()
    steps: list[tuple[int, int, int]] = []
    waiting: dict[int, list] = {}
    while len(derived) < alg.dim:
        best = None
        for x in range(alg.dim):
            if x not in derived:
                trial = _closure(get, gens, derived, waiting, x)
                if best is None or len(trial[0]) > len(best[0]):
                    best = trial
        new, new_steps, parked = best
        gens.append(new[0])
        derived.update(new)
        steps.extend(new_steps)
        for t in new:
            waiting.pop(t, None)
        for r, pairs in parked.items():
            waiting.setdefault(r, []).extend(pairs)
    if not _derivation_holds(alg, gens, steps):
        return None
    return Derivation(tuple(gens), tuple(steps))


def _closure(get, gens, derived, waiting, x):
    """What the new generator x derives from a closed state, which is left
    unchanged: the new elements (x first), their steps, and the pairs
    (s, u) still parked under an underived support element.

    A pair is examined when its last operand is derived and again each
    time the element it is parked under is derived, so the result is the
    least closed set containing the state and x.
    """
    new = [x]
    seen = {x}
    steps = []
    parked: dict[int, list] = {}
    gens = gens + [x]
    pairs = [(x, u) for u in derived]
    pairs.extend((s, x) for s in gens)
    pairs.extend(waiting.get(x, ()))
    while pairs:
        s, u = pairs.pop()
        missing = [r for r in get((s, u), ()) if r not in derived and r not in seen]
        if len(missing) == 1:
            t = missing[0]
            new.append(t)
            seen.add(t)
            steps.append((t, s, u))
            pairs.extend((g, t) for g in gens)
            pairs.extend(waiting.get(t, ()))
            pairs.extend(parked.pop(t, ()))
        elif missing:
            parked.setdefault(min(missing), []).append((s, u))
    return new, steps, parked


def _derivation_holds(alg: StructureAlgebra, gens, steps) -> bool:
    """Replay the steps from the structure constants, require them to
    cover the basis, and check associativity on the generator rows, which
    then holds at every basis triple (module docstring)."""
    get = alg.structure.get
    generators = set(gens)
    derived = set(gens)
    for t, s, u in steps:
        su = get((s, u), {})
        if s not in generators or u not in derived or t in derived or t not in su:
            return False
        if any(r not in derived for r in su if r != t):
            return False
        derived.add(t)
    return len(derived) == alg.dim and _associativity_failure(alg, gens) is None


def _associativity_failure(alg: StructureAlgebra, rows):
    """The first basis triple (s, q, r) with s in rows at which
    (e_s e_q) e_r != e_s (e_q e_r), or None. For each s and q the whole
    matrices L_s L_q and L_(e_s e_q) are compared; r is the first column
    where they differ."""
    left = [alg.left_mult_matrix(p) for p in range(alg.dim)]
    for s in rows:
        for q in range(alg.dim):
            lhs = left[s] @ left[q]
            rhs = linear_combination(alg.structure.get((s, q), {}), left)
            if lhs != rhs:
                r = next(r for r in range(alg.dim) if lhs.col(r) != rhs.col(r))
                return s, q, r
    return None


def scalar_algebra() -> StructureAlgebra:
    """The rationals as a one-dimensional unital algebra."""
    return StructureAlgebra(
        1, ["1"], {(0, 0): {0: 1}}, unit={0: 1}, name="Q", check=False
    )


def matrix_algebra(index_size: int) -> StructureAlgebra:
    """Matrix units e_(i,p) e_(q,j) = [p=q] e_(i,j) on basis I x I (1-based):
    the Brandt product over the trivial group."""
    n = index_size
    if n < 1:
        raise ValueError("index size must be >= 1")
    labels = [f"({i},{j})" for i in range(1, n + 1) for j in range(1, n + 1)]
    structure = {(x, y): {z: 1} for x, y, z in brandt_products(n, n, n, cyclic_group(1))}
    unit = {i * n + i: 1 for i in range(n)}
    return StructureAlgebra(n * n, labels, structure, unit=unit, name=f"M{n}")


def group_algebra(g: FiniteGroup) -> StructureAlgebra:
    structure = {
        (a, b): {g.mul(a, b): 1} for a in range(g.order) for b in range(g.order)
    }
    return StructureAlgebra(
        g.order,
        list(g.names),
        structure,
        unit={g.identity_index: 1},
        name=f"l1({g.name})",
    )


def contracted_brandt_algebra(index_size: int, g: FiniteGroup) -> StructureAlgebra:
    """Convolution algebra on the triples alone: products that would fall on
    the semigroup zero are identified with the zero vector."""
    s = BrandtSemigroup(index_size, g)
    n = index_size
    dim = n * n * g.order
    labels = [s.label(k) for k in range(dim)]
    structure = {(x, y): {z: 1} for x, y, z in brandt_products(n, n, n, g)}
    unit = {s.triple_index(i, g.identity_index, i): 1 for i in range(1, n + 1)}
    return StructureAlgebra(dim, labels, structure, unit=unit, name=f"l1(T:{n},{g.name})")


def semigroup_algebra(s: BrandtSemigroup) -> StructureAlgebra:
    """The full semigroup algebra: the semigroup zero is an honest basis
    vector, so products falling on it give that basis vector, not 0."""
    dim, n = s.size, s.index_size
    structure = {(a, b): {s.zero_index: 1} for a in range(dim) for b in range(dim)}
    for x, y, z in brandt_products(n, n, n, s.group):
        structure[(x, y)] = {z: 1}
    alg = StructureAlgebra(dim, s.labels(), structure, name=f"l1(B({n},{s.group.name}))")
    u = find_unit(alg)
    if u is not None:
        alg.unit = u.coeffs
    return alg


def direct_sum(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """Coordinatewise product on the disjoint union of the two bases.

    A direct sum of associative algebras is associative, and no product
    crosses the summands, so when both have a derivation their union, b's
    indices shifted by a.dim, is one of the sum, which is then built
    unchecked with it. A claimed unit is checked on every basis vector.
    """
    labels = [f"[{l}|0]" for l in a.labels] + [f"[0|{l}]" for l in b.labels]
    structure = {}
    for (p, q), vec in a.structure.items():
        structure[(p, q)] = dict(vec)
    off = a.dim
    for (p, q), vec in b.structure.items():
        structure[(p + off, q + off)] = {r + off: v for r, v in vec.items()}
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = dict(a.unit)
        unit.update({k + off: v for k, v in b.unit.items()})
    name = f"{a.name}(+){b.name}"
    da, db = a.derivation(), b.derivation()
    if da is None or db is None:
        return StructureAlgebra(a.dim + b.dim, labels, structure, unit=unit, name=name)
    alg = StructureAlgebra(a.dim + b.dim, labels, structure, name=name, check=False)
    alg._derivation_cache = (Derivation(
        da.generators + tuple(s + off for s in db.generators),
        da.steps + tuple((t + off, s + off, u + off) for t, s, u in db.steps)),)
    if unit is not None and not alg._is_two_sided_unit(unit):
        raise ValueError(f"claimed unit of {name} is not a two-sided identity")
    alg.unit = unit
    return alg


def algebra_tensor(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """Tensor product algebra on the lexicographic product basis."""
    labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
    db = b.dim
    structure = {}
    for (p1, q1), v1 in a.structure.items():
        for (p2, q2), v2 in b.structure.items():
            vec = {}
            for r1, x in v1.items():
                for r2, y in v2.items():
                    vec[r1 * db + r2] = x * y
            structure[(p1 * db + p2, q1 * db + q2)] = vec
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = {}
        for p, x in a.unit.items():
            for q, y in b.unit.items():
                unit[p * db + q] = x * y
    return StructureAlgebra(
        a.dim * b.dim, labels, structure, unit=unit, name=f"{a.name}(x){b.name}"
    )


def find_unit(a: StructureAlgebra) -> AlgebraElement | None:
    """Solve e_s * w = e_s; verify w * e_p = e_p * w = e_p on every p.

    The system stacks L_s (x -> e_s * x), with right-hand side e_s, for the
    generators s of a's derivation (every s without one). A solution is a
    right unit: at a step t <- (s, u), by induction on u and the r,
    (e_s e_u) w = e_s (e_u w) = e_s e_u and c_t e_t = e_s e_u - sum c_r e_r,
    so e_t w = e_t. A unit 1 is the only right unit (w = 1 w = 1), so w is
    the unit when there is one; otherwise the re-check rejects it.
    """
    d = a.dim
    der = a.derivation()
    rows, rhs = [], {}
    for s in (der.generators if der is not None else range(d)):
        rhs[len(rows) + s] = 1
        rows.extend(a.left_mult_matrix(s)._rows)
    u = solve(LinearMap(d, len(rows), RationalMatrix.from_rows(rows, d)), rhs)
    if u is None or not a._is_two_sided_unit(u):
        return None
    return AlgebraElement(a, u)


def triple_basis_iso(index_size: int, g: FiniteGroup) -> tuple[LinearMap, LinearMap]:
    """Basis bijection between the matrix-units/group tensor algebra and the
    contracted triple algebra: (i,j) tensor g goes to the triple (i,g,j).

    Returns the map and its inverse; both are permutation matrices with
    l1 operator norm exactly 1, and both are multiplicative.
    """
    n, s = index_size, BrandtSemigroup(index_size, g)
    cols = [{s.triple_index(i, a, j): 1}
            for i in range(1, n + 1) for j in range(1, n + 1) for a in range(g.order)]
    fwd = LinearMap.from_cols(cols, len(cols))
    return fwd, LinearMap(len(cols), len(cols), fwd.matrix.transpose())


def index_pair_iso(index_size: int) -> LinearMap:
    """Basis bijection sending the pair (i, j) of the tensor-square basis of
    the index space to the matrix unit with the same label. Both bases put
    (i, j) at (i-1)n + (j-1), so it is the identity."""
    return LinearMap.identity(index_size * index_size)
