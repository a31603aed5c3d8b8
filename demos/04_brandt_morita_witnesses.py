"""Brandt semigroup algebras over the same group are Morita equivalent.

The witness bimodules are spans of rectangular triples (one index from
each side) plus one star line, built directly over the semigroup
algebras: a triple acts by convolution on the rectangle and as the
identity on the star line, the zero acts on the star line alone. These
are the rectangle actions of the triple algebras moved through the
splitting (demo 03). Verification re-derives all four conditions from
scratch: both modules two-sided induced, both balanced products
isomorphic to the target algebras via the stored maps.
"""

import time

from moritalab import builtin_group, verify_witness, witness_brandt_full

CASES = [(1, 2, "C1"), (1, 3, "C2"), (2, 3, "C2"), (2, 3, "C3"), (1, 2, "S3")]

for i_size, j_size, gname in CASES:
    g = builtin_group(gname)
    t0 = time.perf_counter()
    wit = witness_brandt_full(i_size, j_size, g)
    report = verify_witness(wit)
    elapsed = time.perf_counter() - t0
    pq = report.condition("pq_tensor_iso").details
    print(f"B({i_size},{gname}) ~ B({j_size},{gname}):"
          f" dims {wit.algebra_a.dim} and {wit.algebra_b.dim},"
          f" witness dim {wit.p.dim}")
    print(f"  all four conditions pass: {report.passed}  ({elapsed:.2f}s)")
    print(f"  P (x)_A Q -> B: rank {pq['rank']}, norm {pq['norm']},"
          f" inverse norm {pq['inverse_norm']}")

print()
print("note: had any condition failed, the failure would localize to the")
print("constructed witness, not to the equivalence itself; the report is")
print("the artifact that makes that distinction inspectable.")
