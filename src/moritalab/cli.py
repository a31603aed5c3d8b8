"""Command-line driver: verification campaigns and structured reports.

Reports are deterministic: identical campaigns produce byte-identical
JSON except for the dedicated "timing" object, which holds the
generation timestamp and elapsed seconds and is excluded from the
digest.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .exactla import kernel, subspace_equal
from .structures import (
    CayleyTableError,
    brandt,
    builtin_group,
    load_cayley,
    matrix_algebra,
    semigroup_algebra,
    BUILTIN_GROUPS,
)
from .bimodules import (
    balancing_subspace,
    column_module,
    dual_bimodule,
    induced_completion,
    is_self_induced,
    regular_bimodule,
    row_module,
    seeded_random_bimodule,
    trace_pairing,
)
from .morita import (
    VerificationFailed,
    split_sequence,
    verify_witness,
    witness_brandt_full,
    witness_matrix_vs_scalars,
)
from .homology import (
    DEFAULT_SIZE_LIMIT,
    NotUnitalError,
    SizeLimitError,
    check_bar_budget,
    diagonal_check,
    vanishing_suite,
)

SCHEMA_VERSION = 1
CHECK_NAMES = ("lemma1", "split", "self_induced", "morita_matrix",
               "morita_brandt", "homology", "diagonal")

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "tool_version", "campaign", "results", "digest", "timing"],
    "properties": {
        "schema_version": {"type": "integer"},
        "tool_version": {"type": "string"},
        "campaign": {
            "type": "object",
            "required": ["instances", "checks", "n_max", "size_limit", "seed"],
            "properties": {
                "instances": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["i", "j", "group"],
                        "properties": {
                            "i": {"type": "integer", "minimum": 1},
                            "j": {"type": "integer", "minimum": 1},
                            "group": {"type": "string"},
                        },
                    },
                },
                "checks": {"type": "array", "items": {"enum": list(CHECK_NAMES)}},
                "n_max": {"type": "integer", "minimum": 0},
                "size_limit": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
            },
        },
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["check", "instance", "status", "details"],
                "properties": {
                    "check": {"enum": list(CHECK_NAMES)},
                    "instance": {"type": "object"},
                    "status": {"enum": ["pass", "fail", "skipped"]},
                    "details": {"type": "object"},
                },
            },
        },
        "digest": {"type": "string"},
        "timing": {
            "type": "object",
            "required": ["generated_at", "elapsed_s"],
            "properties": {
                "generated_at": {"type": "string"},
                "elapsed_s": {"type": "array", "items": {"type": "number"}},
            },
        },
    },
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Instance:
    i: int
    j: int
    group: str

    def to_dict(self):
        return {"i": self.i, "j": self.j, "group": self.group}


def _check_degree_and_budget(n: int, size_limit: int) -> None:
    if n < 0:
        raise ConfigError("top homology degree --n must be >= 0")
    if size_limit < 1:
        raise ConfigError("--size-limit must be >= 1")


@dataclass
class Campaign:
    instances: list
    checks: list
    n_max: int = 2
    size_limit: int = DEFAULT_SIZE_LIMIT
    seed: int = 0
    jobs: int = 1
    strict: bool = False

    def __post_init__(self):
        if not self.checks:
            raise ConfigError("campaign needs at least one check")
        for c in self.checks:
            if c not in CHECK_NAMES:
                raise ConfigError(f"unknown check {c!r}; choose from {', '.join(CHECK_NAMES)}")
        for inst in self.instances:
            if inst.i < 1 or inst.j < 1:
                raise ConfigError("index size must be >= 1")
        _check_degree_and_budget(self.n_max, self.size_limit)
        if self.jobs < 1:
            raise ConfigError("--jobs must be >= 1")

    def to_dict(self):
        return {
            "instances": [x.to_dict() for x in self.instances],
            "checks": list(self.checks),
            "n_max": self.n_max,
            "size_limit": self.size_limit,
            "seed": self.seed,
        }


@dataclass
class CheckResult:
    check: str
    instance: Instance
    status: str
    details: dict = field(default_factory=dict)
    elapsed_s: float = 0.0


@dataclass
class Report:
    campaign: Campaign
    results: list
    generated_at: str = ""

    def to_dict(self) -> dict:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "campaign": self.campaign.to_dict(),
            "results": [
                {
                    "check": r.check,
                    "instance": r.instance.to_dict(),
                    "status": r.status,
                    "details": r.details,
                }
                for r in self.results
            ],
        }
        payload["digest"] = report_digest(payload)
        payload["timing"] = {
            "generated_at": self.generated_at,
            "elapsed_s": [round(r.elapsed_s, 6) for r in self.results],
        }
        return payload

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def any_skipped(self) -> bool:
        return any(r.status == "skipped" for r in self.results)


def report_digest(payload: dict) -> str:
    body = {k: v for k, v in payload.items() if k not in ("digest", "timing")}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def render_report_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render_report_text(payload: dict) -> str:
    lines = [
        f"tool {payload['tool_version']} schema {payload['schema_version']}",
        f"digest {payload['digest']}",
    ]
    for r in payload["results"]:
        inst = r["instance"]
        tag = f"i={inst['i']} j={inst['j']} group={inst['group']}"
        lines.append(f"{r['status'].upper():7s} {r['check']:14s} {tag}")
    counts = {}
    for r in payload["results"]:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append(f"total: {summary}")
    return "\n".join(lines) + "\n"


def _resolve_group(spec: str):
    try:
        return builtin_group(spec) if spec in BUILTIN_GROUPS else load_cayley(spec)
    except (CayleyTableError, OSError) as exc:
        raise ConfigError(f"group {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# individual checks


def check_lemma1(inst: Instance, campaign: Campaign) -> CheckResult:
    n = inst.i
    rel = balancing_subspace(row_module(n), column_module(n), matrix_algebra(n))
    pairing_kernel = kernel(trace_pairing(n))
    ok = subspace_equal(rel, pairing_kernel)
    memb = True
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            memb = memb and rel.contains({i * n + j: 1})
            memb = memb and rel.contains({j * n + j: 1, i * n + i: -1})
    details = {
        "subspace_dim": rel.dim,
        "kernel_dim": pairing_kernel.dim,
        "canonical_equal": ok,
        "membership_facts": memb,
    }
    return CheckResult("lemma1", inst, "pass" if ok and memb else "fail", details)


def check_split(inst: Instance, campaign: Campaign) -> CheckResult:
    g = _resolve_group(inst.group)
    sp = split_sequence(inst.i, g)
    details = {
        "triple_dim": sp.contracted.dim,
        "semigroup_dim": sp.semigroup.dim,
    }
    return CheckResult("split", inst, "pass", details)


def check_self_induced(inst: Instance, campaign: Campaign) -> CheckResult:
    g = _resolve_group(inst.group)
    ok_matrix = is_self_induced(matrix_algebra(inst.i))
    ok_semigroup = is_self_induced(semigroup_algebra(brandt(inst.i, g)))
    details = {"matrix_algebra": ok_matrix, "semigroup_algebra": ok_semigroup}
    status = "pass" if ok_matrix and ok_semigroup else "fail"
    return CheckResult("self_induced", inst, status, details)


def check_morita_matrix(inst: Instance, campaign: Campaign) -> CheckResult:
    wit = witness_matrix_vs_scalars(inst.i)
    rep = verify_witness(wit)
    return CheckResult("morita_matrix", inst, "pass" if rep.passed else "fail", rep.to_dict())


def check_morita_brandt(inst: Instance, campaign: Campaign) -> CheckResult:
    g = _resolve_group(inst.group)
    wit = witness_brandt_full(inst.i, inst.j, g)
    rep = verify_witness(wit)
    details = rep.to_dict()
    details["dims"] = {"a": wit.algebra_a.dim, "b": wit.algebra_b.dim, "p": wit.p.dim}
    return CheckResult("morita_brandt", inst, "pass" if rep.passed else "fail", details)


def coefficient_battery(algebra, specs, seed):
    """Coefficient modules from their spec strings."""
    mods = []
    reg = regular_bimodule(algebra)
    for spec in specs:
        if spec == "regular":
            mods.append(reg)
        elif spec == "dual-regular":
            mods.append(induced_completion(algebra, dual_bimodule(reg)))
        elif spec == "random":
            mods.append(induced_completion(algebra, seeded_random_bimodule(algebra, seed)))
        else:
            raise ConfigError(f"unknown coefficient spec {spec!r}")
    return mods


def _battery_vanishing(algebra, specs, n_max, size_limit, seed):
    """vanishing_suite over the coefficient modules named by specs."""
    if not specs:
        raise ConfigError("coefficient list is empty")
    # every battery member has the algebra's dimension; probing before
    # construction avoids building completions that can never run
    check_bar_budget(algebra.dim, algebra.dim, n_max, size_limit)
    mods = coefficient_battery(algebra, specs, seed)
    return vanishing_suite(algebra, mods, n_max, size_limit)


def check_homology(inst: Instance, campaign: Campaign,
                   coeffs=("regular", "dual-regular", "random")) -> CheckResult:
    g = _resolve_group(inst.group)
    algebra = semigroup_algebra(brandt(inst.i, g))
    try:
        rep = _battery_vanishing(algebra, coeffs, campaign.n_max, campaign.size_limit,
                                 campaign.seed)
    except SizeLimitError as exc:
        return CheckResult("homology", inst, "skipped", {"reason": str(exc)})
    details = rep.to_dict()
    statuses = {e.status for e in rep.entries}
    if "fail" in statuses:
        status = "fail"
    elif statuses == {"skipped"}:
        status = "skipped"
    else:
        status = "pass"
    return CheckResult("homology", inst, status, details)


def check_diagonal(inst: Instance, campaign: Campaign) -> CheckResult:
    g = _resolve_group(inst.group)
    algebra = semigroup_algebra(brandt(inst.i, g))
    try:
        diag = diagonal_check(algebra)
    except NotUnitalError as exc:
        return CheckResult("diagonal", inst, "fail", {"reason": str(exc)})
    if diag is None:
        return CheckResult("diagonal", inst, "fail", {"reason": "no diagonal exists"})
    return CheckResult("diagonal", inst, "pass", {"terms": len(diag)})


CHECK_RUNNERS = {
    "lemma1": check_lemma1,
    "split": check_split,
    "self_induced": check_self_induced,
    "morita_matrix": check_morita_matrix,
    "morita_brandt": check_morita_brandt,
    "homology": check_homology,
    "diagonal": check_diagonal,
}


def run_campaign(campaign: Campaign) -> Report:
    """Run every requested check on every instance.

    Work items run concurrently up to the jobs bound, but results are
    assembled in instance-then-check order, so the report is
    deterministic regardless of scheduling.
    """
    work = [(inst, chk) for inst in campaign.instances for chk in campaign.checks]

    def run_one(item):
        inst, chk = item
        t0 = time.perf_counter()
        try:
            res = CHECK_RUNNERS[chk](inst, campaign)
        except SizeLimitError as exc:
            res = CheckResult(chk, inst, "skipped", {"reason": str(exc)})
        except VerificationFailed as exc:
            res = CheckResult(chk, inst, "fail",
                              {"condition": exc.condition, "reason": str(exc)})
        res.elapsed_s = time.perf_counter() - t0
        return res

    if campaign.jobs > 1:
        # imported here: it pulls in logging, which only this branch needs
        import concurrent.futures
        with concurrent.futures.ThreadPoolExecutor(max_workers=campaign.jobs) as pool:
            results = list(pool.map(run_one, work))
    else:
        results = [run_one(item) for item in work]
    return Report(
        campaign=campaign,
        results=results,
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )


def default_campaign() -> Campaign:
    """A small campaign touching every check type once; used for the
    determinism comparison and as a quick overall smoke run."""
    return Campaign(
        instances=[Instance(1, 2, "C1"), Instance(2, 3, "C2")],
        checks=list(CHECK_NAMES),
        n_max=2,
    )


# ---------------------------------------------------------------------------
# argument handling


def _parse_int_list(text: str, what: str) -> list[int]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(int(tok))
        except ValueError:
            raise ConfigError(f"{what} must be a comma list of integers, got {tok!r}")
    if not out:
        raise ConfigError(f"{what} list is empty")
    return out


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a flat JSON object")
    return data


def _merged(args, config: dict, key: str, default=None):
    # flags win over config entries
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _typed(args, config: dict, key: str, default, kind):
    # exact type: bool is an int subclass, and int() or bool() would
    # silently coerce config values such as 1.5 or "no"
    val = _merged(args, config, key, default)
    if type(val) is not kind:
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'true or false'}, "
                          f"got {val!r}")
    return val


def build_campaign(args) -> Campaign:
    config = _load_config(args.config) if getattr(args, "config", None) else {}
    i_raw = _merged(args, config, "i")
    if i_raw is None:
        raise ConfigError("--i is required (comma list of index sizes)")
    i_list = _parse_int_list(str(i_raw), "--i")
    j_raw = _merged(args, config, "j")
    j_list = _parse_int_list(str(j_raw), "--j") if j_raw is not None else None
    group_raw = _merged(args, config, "group")
    groups = [tok.strip() for tok in str(group_raw).split(",") if tok.strip()] \
        if group_raw is not None else ["C1"]
    checks_raw = _merged(args, config, "check")
    if checks_raw is None:
        raise ConfigError("--check is required (comma list)")
    checks = [tok.strip() for tok in str(checks_raw).split(",") if tok.strip()]
    for i in i_list + (j_list or []):
        if i < 1:
            raise ConfigError("index size must be >= 1")
    instances = [
        Instance(i, j, grp)
        for i in i_list
        for j in (j_list if j_list is not None else [i])
        for grp in groups
    ]
    return Campaign(
        instances=instances,
        checks=checks,
        n_max=_typed(args, config, "n", 2, int),
        size_limit=_typed(args, config, "size_limit", DEFAULT_SIZE_LIMIT, int),
        seed=_typed(args, config, "seed", 0, int),
        jobs=_typed(args, config, "jobs", 1, int),
        strict=_typed(args, config, "strict", False, bool),
    )


def _unwritable(path: str) -> OSError | None:
    """Why open(path, "w") would fail, told before a campaign runs, or None."""
    parent = os.path.dirname(os.path.abspath(path))
    for bad, code in ((not os.path.exists(parent), errno.ENOENT),
                      (not os.path.isdir(parent), errno.ENOTDIR),
                      (os.path.isdir(path), errno.EISDIR),
                      (not os.access(parent, os.W_OK), errno.EACCES)):
        if bad:
            return OSError(code, os.strerror(code), path)
    return None


def cmd_verify(args) -> int:
    try:
        campaign = build_campaign(args)
        if args.out and (bad_out := _unwritable(args.out)):
            print(f"cannot write report {args.out}: {bad_out}", file=sys.stderr)
            return 2
        report = run_campaign(campaign)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    payload = report.to_dict()
    sys.stdout.write(render_report_text(payload))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(render_report_json(payload))
        except OSError as exc:
            print(f"cannot write report {args.out}: {exc}", file=sys.stderr)
            return 2
    if campaign.strict and report.any_skipped():
        return 3
    return 0 if report.passed else 1


def cmd_group(args) -> int:
    try:
        if args.action == "builtin":
            g = builtin_group(args.name)
        else:
            g = load_cayley(args.name)
    except (KeyError, CayleyTableError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    kind = "abelian" if g.is_abelian() else "nonabelian"
    print(f"{g.name}: order {g.order}, identity {g.identity_index}, {kind}")
    return 0


def cmd_homology(args) -> int:
    try:
        if args.i < 1:
            raise ConfigError("index size must be >= 1")
        _check_degree_and_budget(args.n, args.size_limit)
        g = _resolve_group(args.group)
        coeffs = [tok.strip() for tok in args.coeffs.split(",") if tok.strip()]
        algebra = semigroup_algebra(brandt(args.i, g))
        rep = _battery_vanishing(algebra, coeffs, args.n, args.size_limit, args.seed)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    if any(e.status == "skipped" for e in rep.entries):
        for e in rep.entries:
            if e.status == "skipped":
                print(e.note, file=sys.stderr)
        return 3
    print(f"algebra {rep.algebra} (dim {algebra.dim}), degrees 1..{rep.n_max}")
    for e in rep.entries:
        print(f"module {e.label}: dim {e.dim}, H_0 dim {e.h0_dim}")
        for (n, bh, bc) in e.degrees:
            print(f"  n={n}: betti H_n = {bh}, betti H^n (dual coefficients) = {bc}")
    return 0 if rep.passed else 1


def _report_problem(payload) -> str | None:
    """Why payload cannot be rendered as a report, or None."""
    if not isinstance(payload, dict):
        return "the report must be a JSON object"
    for key in ("schema_version", "tool_version", "campaign", "results", "digest"):
        if key not in payload:
            return f"missing field {key!r}"
    results = payload["results"]
    if not isinstance(results, list) or not all(isinstance(r, dict) for r in results):
        return "results must be a list of objects"
    for k, r in enumerate(results):
        inst = r.get("instance")
        if not (isinstance(r.get("check"), str) and isinstance(r.get("status"), str)
                and isinstance(inst, dict) and {"i", "j", "group"} <= inst.keys()):
            return f"result {k} needs string check and status, and instance i, j, group"
    return None


def cmd_report(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 2
    if problem := _report_problem(payload):
        print(f"malformed report: {problem}", file=sys.stderr)
        return 2
    text = render_report_text(payload) if args.format == "text" \
        else render_report_json(payload)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moritalab",
        description="Exact finite-scale verification of Morita witnesses and "
                    "Hochschild (co)homology for Brandt semigroup algebras.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    p_verify.add_argument("--i", help="comma list of index sizes")
    p_verify.add_argument("--j", help="comma list of second index sizes (defaults to --i)")
    p_verify.add_argument("--group", help="comma list of groups (builtin name or Cayley file)")
    p_verify.add_argument("--check", help=f"comma list from: {', '.join(CHECK_NAMES)}")
    p_verify.add_argument("--n", type=int, help="top homology degree (default 2)")
    p_verify.add_argument("--size-limit", dest="size_limit", type=int,
                          help="bar complex entry budget")
    p_verify.add_argument("--seed", type=int, help="seed for the random coefficient module")
    p_verify.add_argument("--jobs", type=int, help="concurrent instances (default 1)")
    p_verify.add_argument("--strict", action="store_const", const=True, default=None,
                          help="exit 3 if anything was skipped for size")
    p_verify.add_argument("--out", help="write the structured JSON report here")
    p_verify.add_argument("--config", help="JSON config file mirroring the flags")
    p_verify.set_defaults(func=cmd_verify)

    p_group = sub.add_parser("group", help="inspect a builtin group or Cayley file")
    p_group.add_argument("action", choices=["builtin", "load"])
    p_group.add_argument("name", help="builtin name (C1..C8, S2..S4, K4) or file path")
    p_group.set_defaults(func=cmd_group)

    p_hom = sub.add_parser("homology", help="betti table for one Brandt semigroup algebra")
    p_hom.add_argument("--i", type=int, required=True)
    p_hom.add_argument("--group", default="C1")
    p_hom.add_argument("--n", type=int, default=2)
    p_hom.add_argument("--coeffs", default="regular",
                       help="comma list from: regular, dual-regular, random")
    p_hom.add_argument("--seed", type=int, default=0)
    p_hom.add_argument("--size-limit", dest="size_limit", type=int, default=DEFAULT_SIZE_LIMIT)
    p_hom.set_defaults(func=cmd_homology)

    p_rep = sub.add_parser("report", help="re-render a stored structured report")
    p_rep.add_argument("path")
    p_rep.add_argument("--format", choices=["text", "structured"], default="text")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
