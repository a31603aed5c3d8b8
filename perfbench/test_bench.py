"""Tests of the benchmark's own parts: the seeded input generator and the
tracer. Run from the root of a checkout with

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import moritalab  # noqa: E402
from inputs import (BASE_TABLES, WITNESS_INSTANCES, conjugacy_classes,  # noqa: E402
                    group_text, make_inputs, rep_seed)
from tracing import LAYER_CALLS, MODULES, Tracer  # noqa: E402
from moritalab import cli  # noqa: E402
from workloads import certify_campaign, certify_homology_deep  # noqa: E402

ORDERS = {"C1": 1, "C2": 2, "C3": 3, "S3": 6}


def test_same_seed_gives_byte_identical_inputs():
    for workload in ("campaign", "homology_deep", "witness"):
        for seed in (0, 1, 12345):
            assert make_inputs(workload, seed) == make_inputs(workload, seed)
    assert [rep_seed(7, k) for k in range(5)] == [rep_seed(7, k) for k in range(5)]
    assert rep_seed(7, 0) == 7


def test_relabelled_tables_parse_as_groups_of_the_stated_order():
    for name, order in ORDERS.items():
        for seed in range(20):
            text = group_text(name, seed)
            assert text.startswith(f"order {order}\n")
            g = moritalab.parse_cayley(text, name=name)
            assert g.order == order
            assert text.endswith(f"identity {g.identity_index}\n")
            assert g.is_abelian() == (name != "S3")


def test_seeds_relabel_the_groups():
    for name in ("C3", "S3"):
        assert len({group_text(name, seed) for seed in range(20)}) > 1


def test_witness_inputs_cover_the_listed_instances():
    inputs = make_inputs("witness", 3)
    assert [(i, j, name) for i, j, name, _ in inputs] == list(WITNESS_INSTANCES)


def test_conjugacy_classes():
    assert [conjugacy_classes(BASE_TABLES[n]()) for n in ("C1", "C2", "C3", "S3")] == [1, 2, 3, 3]


def test_tracer_restores_every_patched_call():
    before = [(mod, dict(vars(mod))) for mod in MODULES]
    owners = {owner for _, owner, _ in LAYER_CALLS if isinstance(owner, type)}
    before_cls = [(cls, dict(cls.__dict__)) for cls in owners]
    with Tracer():
        assert moritalab.parse_cayley is not before[0][1]["parse_cayley"]
    for mod, attrs in before:
        assert dict(vars(mod)) == attrs
    for cls, attrs in before_cls:
        assert dict(cls.__dict__) == attrs


def test_traced_certification_matches_untraced_on_a_small_algebra():
    # l1(B(1, C2)) has dimension 3, so its bar complex is tiny
    inputs = (1, "C2", group_text("C2", 5))
    plain = certify_homology_deep(inputs)
    rows = []
    for _ in range(2):
        with Tracer() as tracer:
            res = certify_homology_deep(inputs)
        assert res.outcome == plain.outcome
        assert not res.failures
        rows.append(tracer.counters())
        spans = tracer.inclusive()
        assert spans["homology.vanishing"] >= spans["homology.bar_complex"] > 0
    assert rows[0] == rows[1]
    assert rows[0]["exactla.pivots"] == plain.pivot_sum
    assert rows[0]["homology.bar_nnz"] > 0


def test_an_exception_fails_only_its_claim(monkeypatch):
    small = cli.Campaign(instances=[cli.Instance(1, 2, "C1")], checks=["lemma1", "split"])
    monkeypatch.setattr(cli, "default_campaign", lambda: small)

    def broken(inst, campaign):
        raise RuntimeError("injected")

    monkeypatch.setitem(cli.CHECK_RUNNERS, "split", broken)
    res = certify_campaign(0)
    assert res.attempted == 2
    assert res.failures == ["split@1,2,C1: raised RuntimeError: injected"]

    def no_suite(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(moritalab, "vanishing_suite", no_suite)
    res = certify_homology_deep((1, "C2", group_text("C2", 0)))
    assert res.attempted == 2 and len(res.failures) == 2
