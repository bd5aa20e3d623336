"""Runs one workload in a fresh process and prints its raw results as JSON.

Started by run.py, one process per run, so that peak memory is this
process's own. It caps its address space first (RLIMIT_AS): an oracle
blow-up then ends as a MemoryError counted as a failed query instead of
exhausting the machine, and the CLI processes it starts inherit the cap.
In-process queries also get a per-query time limit from an interval timer.

Queries are generated round by round from the seed, outside the timed
region, and the loop stops once the queries themselves have taken
--seconds. With --trace 1 the same queries run twice, untraced and then
traced, each for half the time, and the difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACE_DIR = Path(".perfbench")  # spans of traced runs, inside the checkout
ORACLE_BUCKETS = ("short", "mid", "long")
LOADS = {"oracle-queries": "oracle_load", "algebra-queries": "algebra_load",
         "cli-calls": "cli_load"}
# Address-space cap of the worker (and of every CLI process it starts), and
# the time limit of one query or call. No query on the seed code comes near
# them; they turn a blow-up into a counted failure.
CAP_MIB = 2048
QUERY_LIMIT_S = {"oracle-queries": 20.0, "algebra-queries": 20.0, "cli-calls": 60.0}


class QueryTimeout(BaseException):
    """Raised by the interval timer; a BaseException so library code cannot swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def cap_memory(mib: int) -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = mib * 1024 * 1024
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def _rounds(load, seed: int):
    """Endless query stream: round r holds every slot of the workload once."""
    rng = random.Random(seed)
    r = 0
    while True:
        yield from load.make_round(rng, r)
        r += 1


# ------------------------------------------------------------- in process --


def run_queries(load, queries, seconds: float, limit_s: float) -> list[dict]:
    """Closed loop over queries until their summed latency reaches seconds."""
    signal.signal(signal.SIGALRM, _on_alarm)
    records: list[dict] = []
    spent = 0.0
    for q in queries:
        status = "ok"
        result = None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            result = load.RUN[q.kind](*q.data)
        except QueryTimeout:
            status = "timeout"
        except MemoryError:
            status = "memory"
        except Exception as exc:  # a wrong exception is a failed query, not a crash
            status = f"error:{type(exc).__name__}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
        if status == "ok":
            try:
                if load.verdict(q, result) != q.truth:
                    status = "wrong"
            except Exception as exc:
                status = f"error:{type(exc).__name__}"
        result = None
        records.append({"s": elapsed, "status": status, "bucket": q.bucket, "answer": q.answer})
        spent += elapsed
        if spent >= seconds:
            break
    return records


# -------------------------------------------------------------------- cli --


def _cli_env(call, trace_file: Path | None) -> dict:
    env = dict(os.environ)
    env.pop("CHAINGROUP_BUDGET", None)
    if call.budget is not None:
        env["CHAINGROUP_BUDGET"] = call.budget
    if trace_file is not None:
        env["PERFBENCH_TRACE"] = str(trace_file)
    return env


@dataclasses.dataclass
class Spawned:
    code: int  # exit code, or minus the signal number
    stdout: str
    seconds: float  # from spawn until reaped
    first_output_s: float  # from spawn until the first byte of stdout
    peak_rss_kib: int
    timed_out: bool


def spawn(argv, stdin: str, env: dict, limit_s: float, stderr=subprocess.DEVNULL) -> Spawned:
    """Run one child to completion, killing it after limit_s seconds.

    Peak RSS comes from os.wait4 on this very child; getrusage(RUSAGE_CHILDREN)
    would report the maximum over every child ever reaped.
    """
    start = time.perf_counter()
    # a session of its own, so a timeout also kills whatever the child started
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=stderr, env=env, start_new_session=True)
    try:
        proc.stdin.write(stdin.encode())
        proc.stdin.close()
    except BrokenPipeError:
        pass
    chunks = []
    first = None
    timed_out = False
    fd = proc.stdout.fileno()
    deadline = start + limit_s
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            os.killpg(proc.pid, signal.SIGKILL)
            timed_out = True
            break
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 65536)
            if first is None:
                first = time.perf_counter() - start
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return Spawned(proc.returncode, b"".join(chunks).decode(errors="replace"), elapsed,
                   elapsed if first is None else first, usage.ru_maxrss, timed_out)


def run_call(call, limit_s: float, trace_file: Path | None = None) -> Spawned:
    """One CLI process per call; the traced form goes through launch.py."""
    if trace_file is None:
        argv = [sys.executable, "-m", "chaingroup.cli", *call.argv]
    else:
        argv = [sys.executable, str(HERE / "launch.py"), *call.argv]
    return spawn(argv, call.stdin, _cli_env(call, trace_file), limit_s)


def run_calls(calls, seconds: float, limit_s: float, trace_dir: Path | None = None):
    """Closed loop over CLI calls; with trace_dir, merges each child's trace."""
    import cli_load
    import tracing

    records, peak_kib = [], 0
    agg: dict = {}
    spans: list[tuple] = []
    import_ms, self_ms = [], []
    spent = 0.0
    for i, call in enumerate(calls):
        trace_file = None
        if trace_dir is not None:
            trace_file = trace_dir / f"call-{i}.json"
            trace_file.unlink(missing_ok=True)
        done = run_call(call, limit_s, trace_file)
        elapsed = done.seconds
        peak_kib = max(peak_kib, done.peak_rss_kib)
        if done.timed_out:
            status = "timeout"
        elif cli_load.check(call, done.code, done.stdout):
            status = "ok"
        else:
            status = f"wrong:exit={done.code}"
        records.append({"s": elapsed, "status": status, "bucket": call.bucket,
                        "answer": call.answer})
        if trace_file is not None and trace_file.exists():
            part = json.loads(trace_file.read_text())
            trace_file.unlink()
            tracing.merge(agg, part["aggregates"])
            import_ms.append(part["import_ms"])
            self_ms.append(part["cli_self_ms"])
            base = len(spans)
            spans.extend((i, name, s, e, p + base if p >= 0 else -1)
                         for _, name, s, e, p in part["spans"])
        spent += elapsed
        if spent >= seconds:
            break
    return records, peak_kib, agg, spans, import_ms, self_ms


# ---------------------------------------------------------------- metrics --


def bucket_p50s(records: list[dict]) -> dict[str, float]:
    """Median latency (ms) per conjugator bucket and per kind of verdict."""
    out = {}
    for key, field, values in (("oracle.p50_ms.", "bucket", ORACLE_BUCKETS),
                               ("oracle.p50_ms.", "answer", ("trivial", "nontrivial"))):
        for v in values:
            xs = [r["s"] for r in records if r[field] == v]
            out[key + v] = 1e3 * statistics.median(xs) if xs else 0.0
    return out


def _overhead(plain: list[dict], traced: list[dict]) -> float:
    n = min(len(plain), len(traced))
    base = math.fsum(r["s"] for r in plain[:n])
    return math.fsum(r["s"] for r in traced[:n]) / base - 1 if base else 0.0


def git_commit() -> str:
    """HEAD of the checkout, marked dirty when the work tree differs; "none" outside git."""
    if not Path(".git").exists():
        return "none"
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"
    return head + ("+dirty" if dirty else "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(LOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cap_memory(CAP_MIB)
    limit_s = QUERY_LIMIT_S[args.workload]
    start = time.perf_counter()
    import chaingroup.cli  # noqa: F401  (timed: the whole package imports here)
    import_ms = (time.perf_counter() - start) * 1e3
    from chaingroup import kernel

    import tracing

    stamp = {"workload": args.workload, "seed": args.seed, "backend": kernel.backend(),
             "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
             "commit": git_commit(), "cap_mib": CAP_MIB, "query_limit_s": limit_s}
    half = args.seconds / 2 if args.trace else args.seconds
    load = importlib.import_module(LOADS[args.workload])
    # the traced pass replays the untraced pass's queries; only then are they kept
    seen: list = []
    stream = _rounds(load, args.seed)
    if args.trace:
        stream = (seen.append(q) or q for q in stream)
    if args.workload == "cli-calls":
        records, peak_kib, *_ = run_calls(stream, half, limit_s)
        out = {"stamp": stamp, "records": records, "child_peak_rss_kib": peak_kib}
        if args.trace:
            tdir = TRACE_DIR / "calls"
            tdir.mkdir(parents=True, exist_ok=True)
            traced, _, agg, spans, imports, selfs = run_calls(iter(seen), half, limit_s, tdir)
            layer = tracing.layer_metrics(agg, len(traced))
            layer["cli.import_ms"] = statistics.median(imports) if imports else 0.0
            layer["cli.self_ms"] = statistics.median(selfs) if selfs else 0.0
    else:
        records = run_queries(load, stream, half, limit_s)
        out = {"stamp": stamp, "records": records}
        if args.trace:
            tracer = tracing.Tracer()

            def numbered():
                for i, q in enumerate(seen):
                    tracer.request = i
                    yield q

            tracer.install()
            try:
                traced = run_queries(load, numbered(), half, limit_s)
            finally:
                tracer.uninstall()
            agg, spans = tracer.aggregates(), tracer.spans()
            layer = tracing.layer_metrics(agg, len(traced))
            layer["cli.import_ms"] = import_ms
            layer["cli.self_ms"] = 0.0
    if args.trace:
        layer.update(bucket_p50s(records))
        layer["trace.overhead_ratio"] = _overhead(records, traced)
        layer["trace.spans"] = agg.get("spans_total", 0)
        tracing.write_spans(TRACE_DIR / f"{args.workload}-seed{args.seed}.tsv", stamp, spans,
                            agg.get("spans_total", 0))
        out.update(traced=traced, layer=layer)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
