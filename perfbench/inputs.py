"""Seeded benchmark inputs: small groups relabelled by a permutation and
written out as Cayley text, the library's own group file format.

This module does not import moritalab, so input generation costs the same
whatever the library does, and the library sees only the generated text.
"""

from __future__ import annotations

import itertools
import random


def cyclic_table(n: int) -> list[list[int]]:
    return [[(x + y) % n for y in range(n)] for x in range(n)]


def symmetric_table(n: int) -> list[list[int]]:
    """Permutations of n letters in lexicographic order (the identity first),
    multiplied by composition."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]


BASE_TABLES = {
    "C1": lambda: cyclic_table(1),
    "C2": lambda: cyclic_table(2),
    "C3": lambda: cyclic_table(3),
    "S3": lambda: symmetric_table(3),
}


def relabel(table: list[list[int]], rng: random.Random) -> tuple[list[list[int]], int]:
    """The same group with its labels permuted; returns the table and the
    new label of the identity (label 0 in every base table)."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out, perm[0]


def cayley_text(table: list[list[int]], identity: int) -> str:
    lines = [f"order {len(table)}"]
    lines += [" ".join(str(v) for v in row) for row in table]
    lines.append(f"identity {identity}")
    return "\n".join(lines) + "\n"


def group_text(name: str, seed: int) -> str:
    """Cayley text of the named base group relabelled by the seed."""
    rng = random.Random(f"{name}:{seed}")
    return cayley_text(*relabel(BASE_TABLES[name](), rng))


def conjugacy_classes(table: list[list[int]]) -> int:
    """Number of conjugacy classes of the group with this table (identity 0)."""
    n = len(table)
    inv = [next(y for y in range(n) if table[x][y] == 0) for x in range(n)]
    seen = set()
    classes = 0
    for x in range(n):
        if x in seen:
            continue
        classes += 1
        seen.update(table[table[g][x]][inv[g]] for g in range(n))
    return classes


def rep_seed(seed: int, rep: int) -> int:
    """Seed of the inputs for one repetition within a run.

    Repetition 0 uses the run's seed itself; later repetitions draw fresh
    seeds from it, so a run averages over several inputs and the same seed
    always gives the same sequence.
    """
    if rep == 0:
        return seed
    return random.Random(f"rep:{seed}:{rep}").getrandbits(31)


# (i, j, group) for the witness workload: a nonabelian group, a
# non-square pair of index sets, and the trivial group at the largest sizes.
WITNESS_INSTANCES = ((2, 3, "C3"), (1, 2, "S3"), (2, 4, "C2"), (3, 4, "C1"))

# Index size and group of the homology_deep algebra, l1(B(2, C3)) of dimension 13.
HOMOLOGY_DEEP = (2, "C3")


def make_inputs(workload: str, seed: int):
    """The generated inputs of one repetition: plain data only."""
    if workload == "campaign":
        return seed
    if workload == "homology_deep":
        i, name = HOMOLOGY_DEEP
        return (i, name, group_text(name, seed))
    if workload == "witness":
        return tuple((i, j, name, group_text(name, seed)) for i, j, name in WITNESS_INSTANCES)
    raise ValueError(f"unknown workload {workload!r}")
