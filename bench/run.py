"""The qforms benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout: the library is imported from ``src/``
there.  Every measurement runs in fresh interpreters (``worker.py``).
With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json,
measured by WORKERS fresh workers in turn that share ``--seconds``; their
times are scaled to the host's reference speed (see ``scaled``).  With
``--trace 1`` it prints the per-layer metrics of a traced pass and the
tracing overhead.  The last line of output is one JSON object; a copy with
the details goes to ``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("seifert-pairs", "indefinite-reduce", "klein-cube", "cli")
WORKERS = 3
# Scaled times read as on a host where worker.reference() takes REFERENCE_S,
# about its time on the host the benchmark was built on; see ``scaled``.
REFERENCE_S = 1e-3
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, seconds: float, mode: str, cpu: int) -> dict:
    """Run worker.py; it starts on ``cpu`` (set-up times then sample every CPU)."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {sorted(cpus)[cpu % len(cpus)]})
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--mode", mode, "--t0", repr(t0)],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker timed out after {exc.timeout} s") from exc
    finally:
        os.sched_setaffinity(0, cpus)
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latency_stats(samples: list, phases: list) -> dict:
    """End-to-end numbers from (query, pass, seconds, ok) samples.

    A query's latency is the median of its executions in the run; each
    query counts once however many passes fit.  Throughput is the query
    list's: its length divided by the sum of those latencies.  A query's
    phase is ``phases[query]``: the cli names its cache users' queries cold
    or warm and its other commands uncached; an in-process query (phase
    None) is cold in the first pass of each fresh worker and warm later.
    """
    runs: dict[tuple[int, str], list[float]] = {}
    for qi, p, dt, *_ in samples:
        runs.setdefault((qi, phases[qi] or ("cold" if p == 0 else "warm")), []).append(dt)
    per_query: dict[int, list[float]] = {}
    for (qi, _), dts in runs.items():
        per_query.setdefault(qi, []).extend(dts)
    lat = sorted(statistics.median(dts) for dts in per_query.values())
    n = len(lat)
    tail_index = max(0, n - 11)  # the highest percentile with ten samples beyond it
    cold = [statistics.median(dts) for (_, ph), dts in runs.items() if ph == "cold"]
    warm = [statistics.median(dts) for (_, ph), dts in runs.items() if ph == "warm"]
    return {
        "executions": len(samples),
        "latency_samples": n,
        "throughput_qps": n / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": lat[tail_index] * 1e3,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "samples_beyond_tail": n - tail_index - 1,
        "cold_p50_ms": statistics.median(cold) * 1e3,
        "warm_p50_ms": statistics.median(warm) * 1e3,
        "cold_queries": len(cold),
        "warm_queries": len(warm),
    }


def scaled(runs: list[dict]) -> tuple[list, list[float], list[float]]:
    """The workers' samples and set-up times, scaled to reference speed.

    A shared host runs the same code up to 1.8 times slower from one second
    to the next, and the slow spells come and go within a second.  Each
    worker times ``worker.reference()``, fixed integer work outside qforms,
    before its first query, between queries (at most every 5 ms of them)
    and after its last.  Every execution is multiplied by REFERENCE_S over
    the mean of the reference times just before and just after it; set-up
    times by REFERENCE_S over the mean of the worker's first three.  A
    change to qforms moves the scaled times as it moves the raw ones; a
    slow spell slows a query and the references around it alike, and the
    scaling takes it out.  Returns the scaled samples, the set-up times and
    the factors.
    """
    samples, setups, factors = [], [], []
    for r in runs:
        refs = r["refs"]
        factor = [REFERENCE_S * 2 / (refs[i] + refs[i + 1]) for i in range(len(refs) - 1)]
        samples += [(qi, p, dt * factor[i], ok) for qi, p, dt, ok, i in r["samples"]]
        setups.append(r["setup_s"] * REFERENCE_S / statistics.fmean(refs[:3]))
        factors += factor
    return samples, setups, factors


def metric_specs() -> dict[str, dict[str, dict]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m for m in doc[kind]} for kind in ("end_to_end", "per_layer")}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    specs = metric_specs()["per_layer" if trace else "end_to_end"]
    if trace:
        detail = worker(workload, seed, seconds, "trace", 0)
        values = detail["metrics"]
    else:
        # WORKERS fresh workers in turn share the seconds; each one's first
        # pass is cold, and each adds a set-up time and a peak RSS
        runs = []
        start = time.monotonic()
        for i in range(WORKERS):
            share = max(0.0, seconds - (time.monotonic() - start)) / (WORKERS - i)
            runs.append(worker(workload, seed, share, "run", i))
        raw = [s[:4] for r in runs for s in r["samples"]]
        samples, setups, factors = scaled(runs)
        detail = {"meta": runs[0]["meta"], "failures": [f for r in runs for f in r["failures"]][:20],
                  "attempted": len(samples), "failed": sum(not s[3] for s in samples),
                  "setup_samples_s": setups,
                  "peak_rss_samples_mb": [r["peak_rss_mb"] for r in runs],
                  "reference_runs": sum(len(r["refs"]) for r in runs),
                  "scale": statistics.median(factors), "scale_range": [min(factors), max(factors)]}
        detail["error_rate"] = detail["failed"] / detail["attempted"]
        detail["raw"] = latency_stats(raw, runs[0]["phases"])
        detail["raw"]["setup_s"] = statistics.median(r["setup_s"] for r in runs)
        values = latency_stats(samples, runs[0]["phases"])
        values.update(peak_rss_mb=statistics.median(detail["peak_rss_samples_mb"]),
                      setup_s=statistics.median(setups))
        detail["stats"] = values
    missing = sorted(set(specs) - set(values))
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": spec["unit"]} for name, spec in specs.items()}
    result = {"correct": detail["failed"] == 0, "attempted": detail["attempted"],
              "failed": detail["failed"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(dict(result, detail=detail), indent=1) + "\n", encoding="utf-8")
    return result, detail


def report(workload: str, result: dict, detail: dict) -> None:
    print(f"== {workload}  seed {detail['meta']['seed']}  python {detail['meta']['python']}  "
          f"nproc {detail['meta']['nproc']}  git {detail['meta']['git_sha'] or 'n/a'}")
    for name, m in result["metrics"].items():
        print(f"{name:52s} {m['value']:>14.6g} {m['unit']}")
    if "stats" in detail:
        s = detail["stats"]
        print(f"{'latency_tail_ms is p' + format(s['tail_percentile'], '.2f'):52s} "
              f"{s['latency_samples']:>14d} samples, {s['samples_beyond_tail']} beyond")
        print(f"{'executions':52s} {s['executions']:>14d}")
        print(f"{'scale to reference speed (raw times x, median)':52s} {detail['scale']:>14.6g}")
        print(f"{'queries in cold_p50_ms / warm_p50_ms':52s} {s['cold_queries']:>14d} / {s['warm_queries']}")
        print(f"{'error_rate':52s} {detail['error_rate']:>14.6g} ratio")
    else:
        print(f"{'untraced / traced throughput':52s} "
              f"{detail['untraced_qps']:>9.4g} / {detail['traced_qps']:.4g} qps, "
              f"{detail['spans']} spans in {detail['spans_file']}")
    print(f"{'attempted / failed':52s} {result['attempted']:>14d} / {result['failed']}")
    for line in detail["failures"]:
        print(f"FAILED {line}")


def main() -> int:
    ap = argparse.ArgumentParser(description="Run the qforms benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qforms" / "__init__.py").is_file():
        print(f"bench: no qforms sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, result, detail)
            results[name] = result
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
