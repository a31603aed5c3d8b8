"""Certification benchmark for moritalab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 45 --trace 0

With --trace 0 it repeats the workload's certification untraced for the
given number of seconds and reports the end-to-end metrics (certify_ref,
setup_s, peak_rss_mb). With --trace 1 it alternates untraced and traced
certifications of the seed's inputs and reports the per-layer metrics.
Either way every outcome is checked, and the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("campaign", "homology_deep", "witness")
# Set-up probes before the first certification; one more follows each.
SETUP_PROBES_FIRST = 4
ROOT = Path.cwd()
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

END_TO_END_UNITS = {"certify_ref": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}

# Iterations of the reference loop: about 0.6 s of pure Python on a 2 GHz Xeon.
REF_ITERATIONS = 3_200_000

# moritalab.cli.CHECK_NAMES, fixed here because BENCHMARK.json names a
# metric for each
CHECKS = ("lemma1", "split", "self_induced", "morita_matrix",
          "morita_brandt", "homology", "diagonal")

# per-layer metric -> (source, key, unit): "span" is the inclusive time of
# a span name, "self" a layer's self time, "count" an exact counter and
# "check" a campaign check's time as the report's timing records it
PER_LAYER = {
    "structures.cayley_s": ("span", "structures.cayley", "s"),
    "structures.algebra_s": ("span", "structures.algebra", "s"),
    "structures.self_s": ("self", "structures", "s"),
    "bimodules.random_module_s": ("span", "bimodules.random_module", "s"),
    "bimodules.completion_s": ("span", "bimodules.completion", "s"),
    "bimodules.balanced_tensor_s": ("span", "bimodules.balanced_tensor", "s"),
    "bimodules.is_induced_s": ("span", "bimodules.is_induced", "s"),
    "bimodules.check_axioms_s": ("span", "bimodules.check_axioms", "s"),
    "bimodules.self_s": ("self", "bimodules", "s"),
    "bimodules.random_module.fraction_entries":
        ("count", "bimodules.random_module.fraction_entries", "count"),
    "bimodules.random_module.max_coeff_bits":
        ("count", "bimodules.random_module.max_coeff_bits", "count"),
    "bimodules.relations_dim": ("count", "bimodules.relations_dim", "count"),
    "bimodules.balancing_yield": ("count", "bimodules.balancing_yield", "1"),
    "morita.split_s": ("span", "morita.split", "s"),
    "morita.build_s": ("span", "morita.build", "s"),
    "morita.verify_s": ("span", "morita.verify", "s"),
    "morita.self_s": ("self", "morita", "s"),
    "homology.bar_complex_s": ("span", "homology.bar_complex", "s"),
    "homology.col_elim_s": ("span", "homology.col_elim", "s"),
    "homology.row_elim_s": ("span", "homology.row_elim", "s"),
    "homology.diagonal_s": ("span", "homology.diagonal", "s"),
    "homology.self_s": ("self", "homology", "s"),
    "homology.bar_nnz": ("count", "homology.bar_nnz", "count"),
    "exactla.subspace_s": ("span", "exactla.subspace", "s"),
    "exactla.self_s": ("self", "exactla", "s"),
    "exactla.echelon_nnz": ("count", "exactla.echelon_nnz", "count"),
    "exactla.max_coeff_bits": ("count", "exactla.max_coeff_bits", "count"),
    "exactla.pivots": ("count", "exactla.pivots", "count"),
    "cli.self_s": ("self", "cli", "s"),
    **{f"cli.check_s.{c}": ("check", c, "s") for c in CHECKS},
    "bench.trace_overhead": ("bench", None, "1"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: import and generate inputs, print 'ready', exit")
    return p.parse_args(argv)


def load_library():
    """Put the checkout's src/ first on the path and import moritalab from it."""
    pkg = SRC / "moritalab"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no moritalab sources at {pkg}; "
                         "run from the root of a moritalab checkout")
    sys.path.insert(0, str(SRC))
    import moritalab

    if Path(moritalab.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported moritalab from {moritalab.__file__}, not {pkg}")


def tail_percentile(samples):
    """The highest of p50/p90/p99 with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def describe(name, samples, unit):
    line = f"{name}: median {statistics.median(samples):.4f} {unit} over {len(samples)} samples"
    tail = tail_percentile(samples)
    if tail is None:
        return line + " (too few for a percentile with 10 samples beyond it)"
    return line + f", p{tail[0]} {tail[1]:.4f} {unit}"


def reference_loop() -> float:
    """Wall time of a fixed piece of pure-Python work that uses no moritalab
    code: dictionary updates with integer arithmetic, like the library's
    sparse kernels. No change to the library can move it, so dividing by
    it keeps every change visible while it takes out most of the drift
    in the machine's own speed."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(REF_ITERATIONS):
        k = i % 1009
        acc[k] = acc.get(k, 0) + i * 3
    return time.perf_counter() - t0


def setup_probe(args) -> float:
    """Wall time of a fresh process that imports the library and generates
    the workload's inputs, from spawn until it reports ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: setup probe failed (exit {code}, said {line!r})")
    return elapsed


class Run:
    """Claims attempted and failed, and other correctness problems, gathered
    across the repetitions of one run."""

    def __init__(self, workload):
        import workloads

        self.workload = workload
        self._certify = workloads.CERTIFY[workload]
        self._anchor = workloads.ANCHOR_DIGEST
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self._digests: set = set()

    def certify(self, inputs):
        res = self._certify(inputs)
        self.attempted += res.attempted
        self.failures += res.failures
        if self.workload == "campaign" and inputs not in self._digests:
            self._digests.add(inputs)
            print(f"campaign seed {inputs} digest {res.digest}")
            if inputs == 0:
                match = "yes" if res.digest == self._anchor else "no"
                print(f"campaign seed 0 digest equals the ROADMAP anchor: {match}")
        return res

    @property
    def correct(self) -> bool:
        return not self.failures and not self.problems


def run_untraced(args, run: Run) -> dict:
    """Certifications of a seeded stream of inputs, untraced, until the
    time is up. Each one is bracketed by timings of the reference loop and
    followed by a set-up probe, so that both spread over the whole run;
    end-to-end metrics."""
    from inputs import make_inputs, rep_seed

    setup = [setup_probe(args) for _ in range(SETUP_PROBES_FIRST)]
    times, refs = [], [reference_loop()]
    start = time.perf_counter()
    while not times or (time.perf_counter() - start + statistics.median(times)
                        <= args.seconds):
        inputs = make_inputs(args.workload, rep_seed(args.seed, len(times)))
        t0 = time.perf_counter()
        run.certify(inputs)
        times.append(time.perf_counter() - t0)
        refs.append(reference_loop())
        setup.append(setup_probe(args))
    ratios = [t / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("certify_s samples:", " ".join(f"{t:.3f}" for t in times))
    print(describe("certify_s", times, "s"))
    print(describe("reference loop", refs, "s"))
    print(describe("certify_ref", ratios, "ref"))
    print(describe("setup_s", setup, "s"))
    print(f"peak_rss_mb: {rss:.2f} MiB")
    return {"certify_ref": statistics.median(ratios), "setup_s": statistics.median(setup),
            "peak_rss_mb": rss}


def run_traced(args, run: Run) -> dict:
    """Pairs of untraced and traced certifications of the seed's inputs,
    at least two pairs and more while the time allows; per-layer metrics."""
    from inputs import make_inputs
    from tracing import Tracer

    inputs = make_inputs(args.workload, args.seed)
    plain, traced, rows, counter_rows, outcomes, traces = [], [], [], [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or (time.perf_counter() - start + statistics.median(plain)
                              + statistics.median(traced) <= args.seconds):
        t0 = time.perf_counter()
        res = run.certify(inputs)
        plain.append(time.perf_counter() - t0)
        outcomes.append(res.outcome)
        expected_pivots = res.pivot_sum

        with Tracer() as tracer:
            t0 = time.perf_counter()
            with tracer.span("bench.certify"):
                res = run.certify(inputs)
            traced.append(time.perf_counter() - t0)
        outcomes.append(res.outcome)
        spans, selfs = tracer.inclusive(), tracer.self_by_layer()
        row = {}
        for name, (kind, key, _) in PER_LAYER.items():
            if kind == "span":
                row[name] = spans.get(key, 0.0)
            elif kind == "self":
                row[name] = selfs[key]
            elif kind == "check":
                row[name] = res.check_elapsed.get(key, 0.0)
        rows.append(row)
        counter_rows.append(tracer.counters())
        traces.append([{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                       for n, s, e, p in tracer.spans])
        del tracer  # frees the kept echelons before the next repetition

    if any(o != outcomes[0] for o in outcomes):
        run.problems.append("certifications of the same inputs disagree (traced or not)")
    counters = counter_rows[0]
    if any(c != counters for c in counter_rows):
        run.problems.append(f"counters differ between traced repetitions: {counter_rows}")
    if expected_pivots is not None and expected_pivots != counters["exactla.pivots"]:
        run.problems.append(f"exactla.pivots {counters['exactla.pivots']} differs from the "
                            f"rank sum {expected_pivots} implied by the untraced betti numbers")

    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics.update({name: counters[key] for name, (kind, key, _) in PER_LAYER.items()
                    if kind == "count"})
    metrics["bench.trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1

    print(describe("untraced certify_s", plain, "s"))
    print(describe("traced certify_s", traced, "s"))
    for k, v in counters.items():
        print(f"{k}: {v}")
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "repetitions": traces}))
    print(f"spans written to {path.relative_to(ROOT)}")
    return {name: metrics[name] for name in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    import workloads  # noqa: F401 - the imports a certification needs

    if args.probe_setup:
        from inputs import make_inputs

        make_inputs(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    run = Run(args.workload)
    if args.trace:
        values = run_traced(args, run)
        units = {name: unit for name, (_, _, unit) in PER_LAYER.items()}
    else:
        values = run_untraced(args, run)
        units = END_TO_END_UNITS
    failed = len(run.failures)
    for problem in run.failures + run.problems:
        print(f"FAIL {problem}")
    print(f"fail_ratio: {failed / run.attempted:.4f} ({failed} of {run.attempted} claims)")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
