"""One workload in a fresh interpreter: set up, run the closed loop, check, report.

``run.py`` starts this script several times per measurement, so peak
memory and any lazy state belong to one workload alone.  It prints one
JSON line.

    python3 bench/worker.py --workload W --seed S --seconds T --mode M --t0 T0

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; ``setup_s`` runs from there to the first timed query.  Mode
``run`` measures untraced and returns the samples, ``trace`` reports
per-layer metrics and the tracing overhead (see ``traced``).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
STARTUP_RUNS = 7
TRACE_ROUNDS = 3
REFERENCE_EVERY_S = 0.005


def reference_forms() -> list[tuple[int, int, int]]:
    from workloads import scramble

    rng = random.Random(20231129)
    return [scramble(rng, (7, 3, 11), 5 + i % 36) for i in range(64)]


def reference(forms: list[tuple[int, int, int]]) -> None:
    """Fixed pure-Python integer work that never changes: Gauss reduction,
    written here, of the 64 ``reference_forms`` (5 to 40 digits; about 1 ms).

    Timed just before and after each query, it says how fast the host ran
    the interpreter at that moment; ``run.scaled`` scales the query by it.
    """
    for a, b, c in forms:
        while True:
            if abs(b) > a or b == -a:
                k = (a - b) // (2 * a)
                b, c = b + 2 * a * k, a * k * k + b * k + c
            elif a > c or (a == c and b < 0):
                a, b, c = c, -b, a
            else:
                break
        if (a, b, c) != (7, 3, 11):
            raise AssertionError("the reference computation is broken")


def loop(wl, seconds: float, min_passes: int, passes: int | None = None,
         known: dict | None = None, digests: list | None = None, tracer=None,
         refs: list | None = None):
    """Closed loop over wl.queries in passes: one caller, the next query
    starts when the previous one has returned and been checked.

    Runs exactly ``passes`` passes, or else at least ``min_passes`` whole
    passes and then on until ``seconds`` have passed, stopping between two
    queries.  The first output of each
    query is checked with ``wl.check`` (and against ``digests``); a repeat
    must have the same digest.  Only ``wl.run`` is timed.  When ``refs`` is
    a list, a timed ``reference()`` runs before the first query and then
    between queries whenever REFERENCE_EVERY_S of queries have run since the
    last one, and once after the last query; its times are appended there.

    Query i of pass p runs on CPU i + p (mod the CPUs this process may use),
    outside the timing: on a shared host the CPUs differ in speed from
    minute to minute, and a run that stayed on one of them would measure
    that CPU.  Samples are (query, pass, seconds, ok, ref): ``ref`` indexes
    the reference time just before the query (-1 without ``refs``), and the
    next reference time is the one just after it.
    """
    from workloads import CheckFailed, digest

    known = {} if known is None else known
    samples, failures = [], []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    ref_forms = reference_forms() if refs is not None else None
    next_ref = 0.0

    def time_reference() -> None:
        nonlocal next_ref
        t = time.perf_counter()
        reference(ref_forms)
        refs.append(time.perf_counter() - t)
        next_ref = time.perf_counter() + REFERENCE_EVERY_S

    p = 0
    done = False
    while not done and (passes is None or p < passes):
        if hasattr(wl, "begin_pass"):
            wl.begin_pass(p)
        for qi, q in enumerate(wl.queries):
            if passes is None and p >= min_passes and time.perf_counter() - start >= seconds:
                done = True
                break
            os.sched_setaffinity(0, {cpus[(qi + p) % len(cpus)]})
            if refs is not None and time.perf_counter() >= next_ref:
                time_reference()
            span = tracer.open("query") if tracer else None
            t = time.perf_counter()
            try:
                out, err = wl.run(q), None
            except Exception as exc:  # a crash of the library is a failed query
                out, err = None, exc
            dt = time.perf_counter() - t
            if tracer:
                tracer.close(span)
            if err is None:
                try:
                    image = digest(out)
                    if qi not in known:
                        wl.check(q, out)
                        if digests is not None and qi < len(digests) and image != digests[qi]:
                            raise CheckFailed("output differs from the digest recorded for this seed")
                        known[qi] = image
                    elif image != known[qi]:
                        raise CheckFailed("a repeated query gave a different output")
                except Exception as exc:  # any broken invariant fails the query
                    err = exc
            if err is not None:
                failures.append(f"query {qi} pass {p}: {type(err).__name__}: {err}"[:400])
            samples.append((qi, p, dt, err is None, len(refs) - 1 if refs is not None else -1))
        p += 1
    if refs is not None:
        time_reference()
    os.sched_setaffinity(0, cpus)
    return samples, failures, known


def measure(wl, seconds: float, digests) -> dict:
    refs: list[float] = []
    # an in-process query's first pass is cold, so two passes give both
    # phases; a cli pass runs its cache users cold and warm already
    min_passes = 1 if wl.name == "cli" else 2
    samples, failures, _ = loop(wl, seconds, min_passes, digests=digests, refs=refs)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {"samples": samples, "failures": failures[:20], "refs": refs,
            "phases": [q.get("phase") for q in wl.queries],
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}


def traced(wl, workload: str, seed: int, digests) -> dict:
    """Per-layer metrics from one traced pass, and the tracing overhead.

    A first, untraced pass checks the outputs and warms the interpreter.
    Then TRACE_ROUNDS rounds each run an untraced and a traced pass; the
    overhead compares, summed over queries, each query's fastest untraced
    and fastest traced execution.  The spans of the first traced pass give
    the per-layer metrics and are written out.
    """
    from spans import Tracer

    cli_metrics = {"cli.startup_ms": 0.0, "cli.main_ms": 0.0, "cli.cache_files_written": 0}
    if workload == "cli":
        wl.in_process = True
    samples, failures, known = loop(wl, 0, 0, passes=1, digests=digests)
    if workload == "cli":
        cli_metrics["cli.main_ms"] = statistics.median(s[2] for s in samples) * 1e3
        cli_metrics["cli.cache_files_written"] = len(
            glob.glob(os.path.join(wl.cache_dir, "classgroup_*.json")))
        cli_metrics["cli.startup_ms"] = statistics.median(wl.startup_ms(STARTUP_RUNS))
    best = {False: {}, True: {}}
    tracers = []
    for _ in range(TRACE_ROUNDS):
        for traced_pass in (False, True):
            tracer = Tracer() if traced_pass else None
            if tracer:
                tracer.install()
                tracers.append(tracer)
            try:
                round_samples, round_failures, _ = loop(wl, 0, 0, passes=1, known=known,
                                                        tracer=tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            samples += round_samples
            failures += round_failures
            for qi, _, dt, *_ in round_samples:
                best[traced_pass][qi] = min(dt, best[traced_pass].get(qi, dt))
    metrics = tracers[0].layer_metrics()
    metrics.update(cli_metrics)
    metrics["trace.throughput_ratio"] = sum(best[False].values()) / sum(best[True].values())
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{workload}-seed{seed}.tsv.gz"
    tracers[0].write(str(spans_path))
    return {"attempted": len(samples), "failed": sum(not s[3] for s in samples),
            "failures": failures[:20], "metrics": metrics,
            "spans": len(tracers[0].start), "spans_file": str(spans_path.relative_to(ROOT)),
            "untraced_qps": len(best[False]) / sum(best[False].values()),
            "traced_qps": len(best[True]) / sum(best[True].values())}


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qforms").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def make_workload(name: str, seed: int):
    import workloads

    pool = json.loads((BENCH / "pool.json").read_text(encoding="utf-8"))
    if name == "cli":
        from cli_workload import Cli, make_workdir

        return Cli(seed, pool, make_workdir(str(RESULTS)), str(SRC))
    return workloads.IN_PROCESS[name](seed, pool)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import qforms

    if Path(qforms.__file__).resolve().parent != (SRC / "qforms").resolve():
        print(f"qforms was imported from {qforms.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed)
    digests = None
    if args.seed == DEFAULT_SEED and DIGESTS.exists():
        digests = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload)
    setup_s = time.monotonic() - args.t0
    try:
        if args.mode == "run":
            result = measure(wl, args.seconds, digests)
        else:
            result = traced(wl, args.workload, args.seed, digests)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    result["setup_s"] = setup_s
    result["meta"] = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "git_sha": git_sha(), "source_sha256": source_sha256(), "nproc": os.cpu_count(),
        "params": wl.params, "queries": len(wl.queries), "digests_checked": digests is not None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
