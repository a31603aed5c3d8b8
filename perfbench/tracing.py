"""Spans around the calls into each moritalab layer, recorded from outside
the library.

While a Tracer is installed, each public function or method listed in
LAYER_CALLS is replaced, wherever a moritalab module or class binds it,
by a wrapper that records a span: name, start, end and parent. The
certification code runs unchanged, so a composite entry point such as
verify_witness or vanishing_suite makes its own constituent calls, in its
own order, on its own objects, and they appear as child spans. Spans stay
in memory until the run writes them out. Wrappers also keep selected
return values, from which the exact counters are read after the timed
repetition ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from fractions import Fraction

import moritalab
from moritalab import bimodules, cli, exactla, homology, morita, structures

MODULES = (moritalab, exactla, structures, bimodules, morita, homology, cli)

# (span name, owner, attribute). The owner is a module, whose function is
# replaced in every moritalab module that imported it, or a class.
LAYER_CALLS = (
    ("structures.cayley", structures, "parse_cayley"),
    ("structures.cayley", structures, "builtin_group"),
    ("structures.algebra", structures, "brandt"),
    ("structures.algebra", structures, "semigroup_algebra"),
    ("structures.algebra", structures, "contracted_brandt_algebra"),
    ("structures.algebra", structures, "matrix_algebra"),
    ("structures.algebra", structures, "scalar_algebra"),
    ("structures.algebra", structures, "direct_sum"),
    ("bimodules.random_module", bimodules, "seeded_random_bimodule"),
    ("bimodules.completion", bimodules, "induced_completion"),
    ("bimodules.balanced_tensor", bimodules, "balanced_tensor"),
    ("bimodules.balancing_subspace", bimodules, "balancing_subspace"),
    ("bimodules.is_induced", bimodules, "is_induced"),
    ("bimodules.is_self_induced", bimodules, "is_self_induced"),
    ("bimodules.induced_map", bimodules, "induced_map"),
    ("bimodules.check_axioms", bimodules.Bimodule, "check_axioms"),
    ("bimodules.intertwining", bimodules.BimoduleMap, "intertwining_failures"),
    ("morita.split", morita, "split_sequence"),
    ("morita.build", morita, "witness_brandt_full"),
    ("morita.build", morita, "witness_matrix_vs_scalars"),
    ("morita.verify", morita, "verify_witness"),
    ("homology.bar_complex", homology, "bar_complex"),
    ("homology.col_elim", homology.ChainComplex, "col_pivots"),
    ("homology.row_elim", homology.ChainComplex, "row_rank"),
    ("homology.hochschild", homology, "hochschild_homology"),
    ("homology.hochschild", homology, "hochschild_cohomology"),
    ("homology.vanishing", homology, "vanishing_suite"),
    ("homology.diagonal", homology, "diagonal_check"),
    ("exactla.subspace", exactla.Subspace, "from_spanning"),
    ("exactla.quotient", exactla, "quotient"),
    ("exactla.kernel", exactla, "kernel"),
    ("exactla.image", exactla, "image"),
    ("exactla.inverse", exactla, "inverse"),
    ("exactla.solve", exactla, "solve"),
    ("exactla.rank", exactla, "rank"),
    ("exactla.rank", exactla.LinearMap, "rank"),
    ("exactla.kronecker", exactla, "kronecker"),
    ("exactla.norm", exactla, "l1_operator_norm"),
    ("cli.campaign", cli, "run_campaign"),
)

# Spans whose arguments and results the counters are read from.
KEEP = {"bimodules.random_module", "bimodules.balanced_tensor",
        "homology.bar_complex", "homology.col_elim"}

LAYERS = ("structures", "bimodules", "morita", "homology", "exactla", "cli")


class Tracer:
    """Records spans as [name, start, end, parent index]; parent -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.kept: dict[str, list] = {name: [] for name in KEEP}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        keep = self.kept.get(name)
        bind = inspect.signature(fn).bind if keep is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep is not None:
                keep.append((bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def __enter__(self):
        """Replace every listed call by its traced wrapper."""
        self._saved = []
        for name, owner, attr in LAYER_CALLS:
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                if isinstance(orig, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, orig.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, orig))
                self._saved.append((owner, attr, orig))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig)
            for mod in MODULES:
                if vars(mod).get(attr) is orig:
                    setattr(mod, attr, traced)
                    self._saved.append((mod, attr, orig))
        return self

    def __exit__(self, *exc):
        """Put every original back."""
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)

    # -- reading the spans ---------------------------------------------------

    def inclusive(self) -> dict[str, float]:
        """Seconds spent in each span name, counting a span nested in another
        of the same name once."""
        out: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_by_layer(self) -> dict[str, float]:
        """Self time (span minus its children) summed over each layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for k, (name, start, end, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += (end - start) - child[k]
        return out

    def counters(self) -> dict[str, float]:
        """Exact counts read from the kept arguments and results."""
        kept = self.kept
        entries = fractions = coeff_bits = 0
        for _, mod in kept["bimodules.random_module"]:
            for m in mod.left_action + mod.right_action:
                for _, _, v in m.entries():
                    entries += 1
                    fractions += isinstance(v, Fraction)
                    coeff_bits = max(coeff_bits, _bits(v))
        relations = generated = 0
        for arg, bt in kept["bimodules.balanced_tensor"]:
            relations += bt.relations.dim
            generated += arg["over"].dim * arg["e"].dim * arg["f"].dim
        bar_nnz = sum(b.matrix.nnz() for _, cx in kept["homology.bar_complex"]
                      for b in cx.boundaries)
        echelons = {id(piv): piv for _, piv in kept["homology.col_elim"]}
        ech_nnz = ech_bits = pivots = 0
        for piv in echelons.values():
            pivots += len(piv)
            for row in piv.values():
                ech_nnz += len(row)
                for v in row.values():
                    ech_bits = max(ech_bits, _bits(v))
        return {
            "bimodules.random_module.entries": entries,
            "bimodules.random_module.fraction_entries": fractions,
            "bimodules.random_module.max_coeff_bits": coeff_bits,
            "bimodules.relations_dim": relations,
            "bimodules.balancing_generated": generated,
            "bimodules.balancing_yield": relations / generated if generated else 0.0,
            "homology.bar_nnz": bar_nnz,
            "exactla.echelon_nnz": ech_nnz,
            "exactla.max_coeff_bits": ech_bits,
            "exactla.pivots": pivots,
        }


def _bits(v) -> int:
    if isinstance(v, Fraction):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    return abs(v).bit_length()
