"""The three benchmark workloads, each certifying its claims through
moritalab's public API and checking every outcome against the mathematics.

A certification returns a Certified record: how many claims it attempted,
which failed and why, and an outcome summary that two certifications of
the same inputs must reproduce exactly (traced or not).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import moritalab
from moritalab import cli

from inputs import BASE_TABLES, conjugacy_classes

# Default-campaign report digest at campaign seed 0, as recorded in ROADMAP.md.
ANCHOR_DIGEST = "sha256:3233cb14fe2cb2bf7f8098022a0ff473641290697caad8ce9d063b7bd5d6bbc1"

WITNESS_CONDITIONS = ["p_two_sided_induced", "q_two_sided_induced",
                      "pq_tensor_iso", "qp_tensor_iso"]


@dataclass
class Certified:
    attempted: int = 0
    failures: list = field(default_factory=list)   # "claim: reason"
    outcome: list = field(default_factory=list)    # exact, comparable summary
    digest: str | None = None                      # campaign report digest
    check_elapsed: dict = field(default_factory=dict)  # campaign check -> seconds
    pivot_sum: int | None = None                   # rank sum implied by the outcome

    def claim(self, name: str, problem: str | None, summary) -> None:
        self.attempted += 1
        self.outcome.append((name, summary))
        if problem:
            self.failures.append(f"{name}: {problem}")


def _error(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def certify_campaign(campaign_seed: int) -> Certified:
    """The default campaign (7 checks x 2 instances) at one seed, jobs=1.
    Every result must pass."""
    camp = dataclasses.replace(cli.default_campaign(), seed=campaign_seed, jobs=1)
    try:
        report = cli.run_campaign(camp)
    except Exception:  # noqa: BLE001 - charged to its claim below
        return _campaign_by_claim(camp)
    out = Certified()
    payload = report.to_dict()
    out.digest = payload["digest"]
    for res, elapsed in zip(payload["results"], payload["timing"]["elapsed_s"]):
        inst = res["instance"]
        name = f"{res['check']}@{inst['i']},{inst['j']},{inst['group']}"
        status = res["status"]
        out.claim(name, None if status == "pass" else f"status {status}", status)
        out.check_elapsed[res["check"]] = out.check_elapsed.get(res["check"], 0.0) + elapsed
    out.outcome.append(("digest", out.digest))
    return out


def _campaign_by_claim(camp) -> Certified:
    """Rerun each claim as a one-claim campaign, so that an exception is
    charged to the claim that raised it and the others still certify."""
    out = Certified()
    for inst in camp.instances:
        for chk in camp.checks:
            name = f"{chk}@{inst.i},{inst.j},{inst.group}"
            one = dataclasses.replace(camp, instances=[inst], checks=[chk])
            try:
                status = cli.run_campaign(one).results[0].status
            except Exception as exc:  # noqa: BLE001 - one claim's failure
                out.claim(name, _error(exc), "error")
                continue
            out.claim(name, None if status == "pass" else f"status {status}", status)
    return out


def certify_homology_deep(inputs) -> Certified:
    """Hochschild homology and cohomology of l1(B(2, G)) with regular
    coefficients vanish in degrees 1 and 2, and H_0 has dimension
    (conjugacy classes of G) + 1, since the algebra is M_2(QG) plus Q."""
    index_size, name, text = inputs
    out = Certified()
    n_max = 2
    claims = [f"vanish H_{n} and H^{n}" for n in range(1, n_max + 1)]
    try:
        g = moritalab.parse_cayley(text, name=name)
        algebra = moritalab.semigroup_algebra(moritalab.brandt(index_size, g))
        rep = moritalab.vanishing_suite(algebra, [moritalab.regular_bimodule(algebra)], n_max)
    except Exception as exc:  # noqa: BLE001 - every claim rests on this call
        for c in claims:
            out.claim(c, _error(exc), "error")
        return out
    entry = rep.entries[0]
    classes = conjugacy_classes(BASE_TABLES[name]())
    dim = index_size * index_size * g.order + 1
    shape = []
    if entry.status != "pass":
        shape.append(f"status {entry.status}")
    if entry.routed_through_completion:
        shape.append("regular module was routed through its completion")
    if entry.dim != dim or algebra.dim != dim:
        shape.append(f"dimension {algebra.dim}, expected {dim}")
    if entry.h0_dim != classes + 1:
        shape.append(f"H_0 has dimension {entry.h0_dim}, expected {classes + 1}")
    degrees = {n: (bh, bc) for n, bh, bc in entry.degrees}
    for n, c in enumerate(claims, start=1):
        bettis = degrees.get(n)
        problem = "; ".join(shape)
        if bettis != (0, 0):
            problem = f"betti numbers {bettis}" + (f"; {problem}" if problem else "")
        out.claim(c, problem or None, bettis)
    out.outcome.append(("h0", entry.h0_dim))
    if not shape and degrees == {1: (0, 0), 2: (0, 0)}:
        # C_k has dimension dim^(k+1); with b_1..b_3 and H_1 = H_2 = 0 the
        # ranks are dim - h0, dim^2 - rank b_1 and dim^3 - rank b_2
        r1 = dim - entry.h0_dim
        r2 = dim ** 2 - r1
        r3 = dim ** 3 - r2
        out.pivot_sum = r1 + r2 + r3
    return out


def certify_witness(inputs) -> Certified:
    """Full Morita witnesses between l1(B(i, G)) and l1(B(j, G)), built and
    then re-verified: all four conditions must pass on every instance."""
    out = Certified()
    for i, j, name, text in inputs:
        claim = f"witness ({i},{j},{name})"
        try:
            g = moritalab.parse_cayley(text, name=name)
            wit = moritalab.witness_brandt_full(i, j, g)
            rep = moritalab.verify_witness(wit)
        except Exception as exc:  # noqa: BLE001 - one claim's failure
            out.claim(claim, _error(exc), "error")
            continue
        names = [c.name for c in rep.conditions]
        problems = [c.name for c in rep.conditions if not c.passed]
        if names != WITNESS_CONDITIONS:
            problems.append(f"conditions {names}")
        dims = (wit.algebra_a.dim, wit.algebra_b.dim, wit.p.dim, wit.q.dim)
        n = g.order
        want = (i * i * n + 1, j * j * n + 1, i * j * n + 1, i * j * n + 1)
        if dims != want:
            problems.append(f"dimensions {dims}, expected {want}")
        summary = json.dumps(rep.to_dict(), sort_keys=True)
        out.claim(claim, "; ".join(problems) or None, summary)
    return out


CERTIFY = {
    "campaign": certify_campaign,
    "homology_deep": certify_homology_deep,
    "witness": certify_witness,
}
