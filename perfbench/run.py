#!/usr/bin/env python3
"""chaingroup benchmark: three seeded closed-loop workloads with known answers.

    python3 perfbench/run.py --workload oracle-queries --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from src/ (nothing
is built). One caller issues each query only after the previous one
returns. Workloads:

  oracle-queries   braid word problems through chaingroup.oracle and homs
  algebra-queries  extract_triple, monodromy_rep, Smith normal form
  cli-calls        one `python -m chaingroup.cli` process per call

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
it reports the per-layer metrics of a traced run (see tracing.py), whose
spans go to .perfbench/. The lines before it stamp the run (kernel backend,
Python, nproc, seed, commit) and summarise failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (spawn helper; imports nothing from chaingroup)

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.self_ms": "ms",
    "braids.calls": "count",
    "braids.busy_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.is_identity_per_query": "count",
    "oracle.p50_ms.short": "ms",
    "oracle.p50_ms.mid": "ms",
    "oracle.p50_ms.long": "ms",
    "oracle.p50_ms.trivial": "ms",
    "oracle.p50_ms.nontrivial": "ms",
    "kernel.calls": "count",
    "kernel.busy_s": "s",
    "kernel.letters_in": "count",
    "kernel.ns_per_letter": "ns",
    "kernel.image_letters_out": "count",
    "homs.checked_calls": "count",
    "homs.checked_ok_ratio": "ratio",
    "homs.self_s": "s",
    "homology.extract_triple.calls": "count",
    "homology.extract_triple.self_s": "s",
    "homology.monodromy_rep.self_s": "s",
    "homology.chain_product_square.self_s": "s",
    "homology.verdicts.triple": "count",
    "homology.verdicts.not_recognized": "count",
    "homology.verdicts.cyclic": "count",
    "intmat.mat_mul.calls": "count",
    "intmat.mat_mul.busy_s": "s",
    "intmat.int_inverse.calls": "count",
    "intmat.int_inverse.busy_s": "s",
    "intmat.elim.busy_s": "s",
    "intmat.max_entry_bits": "bits",
    "finite.snf.calls": "count",
    "finite.snf.busy_s": "s",
    "finite.snf.max_factor_bits": "bits",
    "finite.perm_search.calls": "count",
    "finite.perm_search.busy_s": "s",
    "finite.perm_search.reps_out": "count",
    "graphs.brute.calls": "count",
    "graphs.brute.busy_s": "s",
    "graphs.canonical_key.calls": "count",
    "graphs.brute.useful_ratio": "ratio",
    "riemann_hurwitz.calls": "count",
    "riemann_hurwitz.busy_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}
WORKER_SLACK_S = 60.0  # beyond --seconds: the run ends within 180 s
SETUP_SPAWNS = 9
SETUP_IMPORTS = {
    "oracle-queries": "import chaingroup.oracle, chaingroup.homs",
    "algebra-queries": "import chaingroup.homology, chaingroup.finite",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(workload: str, env: dict) -> float:
    """Median over fresh interpreters of the time until the package is ready.

    For cli-calls that is a whole no-work call, `chaingroup --help`.
    """
    times = []
    for _ in range(SETUP_SPAWNS):
        if workload == "cli-calls":
            done = worker.spawn([sys.executable, "-m", "chaingroup.cli", "--help"], "", env, 60)
            ok, seconds = done.code == 0 and "usage:" in done.stdout, done.seconds
        else:
            code = SETUP_IMPORTS[workload] + "; print('ready', flush=True)"
            done = worker.spawn([sys.executable, "-c", code], "", env, 60)
            ok, seconds = done.code == 0 and done.stdout.startswith("ready"), done.first_output_s
        if not ok:
            raise RuntimeError(f"set-up spawn failed with exit code {done.code}")
        times.append(seconds)
    return statistics.median(times)


def percentile(sorted_xs: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(p * len(sorted_xs)) - 1)]


def end_to_end(records: list[dict], peak_kib: int, setup_s: float) -> tuple[dict, dict]:
    lat = sorted(r["s"] for r in records)
    ok = sum(r["status"] == "ok" for r in records)
    p90 = percentile(lat, 0.9)
    metrics = {
        "setup_s": setup_s,
        "queries_per_s": ok / math.fsum(lat),
        "latency_p50_ms": 1e3 * percentile(lat, 0.5),
        "latency_p90_ms": 1e3 * p90,
        "peak_rss_mib": peak_kib / 1024,
    }
    return metrics, {"samples": len(lat), "beyond_p90": sum(x > p90 for x in lat)}


def tally(records: list[dict]) -> tuple[int, int, dict[str, int]]:
    """Attempted and failed queries, and the failures by status."""
    failures: dict[str, int] = {}
    for r in records:
        if r["status"] != "ok":
            failures[r["status"]] = failures.get(r["status"], 0) + 1
    return len(records), sum(failures.values()), failures


def main() -> int:
    ap = argparse.ArgumentParser(description="chaingroup benchmark")
    ap.add_argument("--workload", required=True, choices=tuple(worker.LOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not Path("src/chaingroup/__init__.py").is_file():
        print("error: run from the root of a chaingroup checkout (src/chaingroup missing)",
              file=sys.stderr)
        return 2
    env = child_env()
    setup_s = 0.0 if args.trace else setup_seconds(args.workload, env)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = worker.spawn(argv, "", env, args.seconds + WORKER_SLACK_S, stderr=None)
    if done.code != 0 or not done.stdout.strip():
        print(f"error: worker exited with {done.code}, timed out: {done.timed_out}",
              file=sys.stderr)
        return 1
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    records = raw["records"]
    attempted, failed, failures = tally(records + raw.get("traced", []))

    if args.trace:
        values, units = raw["layer"], PER_LAYER
        extra = {"overhead_ratio": raw["layer"]["trace.overhead_ratio"]}
    else:
        peak_kib = raw.get("child_peak_rss_kib", done.peak_rss_kib)
        values, extra = end_to_end(records, peak_kib, setup_s)
        units = END_TO_END
    print("stamp: " + json.dumps(raw["stamp"]))
    print("summary: " + json.dumps({"attempted": attempted, "failed": failed,
                                    "failed_frac": failed / attempted, "failures": failures,
                                    **extra}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
