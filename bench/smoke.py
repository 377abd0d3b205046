"""Smoke test of the benchmark at tiny size; exits non-zero on any failure.

Each workload is generated from a seed, cut to its first few queries, run
through the checked loop and the traced loop in this process, and its
metric names are compared with BENCHMARK.json.  Then a copy of the
benchmark alone (no ``src/``) must refuse to run.

Usage: python3 bench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

from run import latency_stats, scaled
from worker import RESULTS, ROOT, SRC, loop, make_workload, traced

SIZES = {"seifert-pairs": 3, "indefinite-reduce": 6, "klein-cube": 20, "cli": 4}


def main() -> int:
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for name, size in SIZES.items():
        wl = make_workload(name, seed=7)
        try:
            if name == "cli":  # keep commands with and without the cache
                wl.queries = ([q for q in wl.queries if q["cache"]][:size // 2]
                              + [q for q in wl.queries if not q["cache"]][:size // 2])
            else:
                wl.queries = wl.queries[:size]
            refs: list[float] = []
            samples, failures, _ = loop(wl, 0, min_passes=2, refs=refs)
            samples, _, _ = scaled([{"samples": samples, "refs": refs, "setup_s": 1.0}])
            stats = latency_stats(samples, [q.get("phase") for q in wl.queries])
            stats["peak_rss_mb"], stats["setup_s"] = 1.0, 1.0
            layer = traced(wl, name, 7, None)
        finally:
            if hasattr(wl, "close"):
                wl.close()
        problems += [f"{name}: {f}" for f in failures + layer["failures"]]
        if end_to_end - set(stats):
            problems.append(f"{name}: end-to-end metrics missing: {sorted(end_to_end - set(stats))}")
        if set(layer["metrics"]) != per_layer:
            problems.append(f"{name}: per-layer metrics differ from BENCHMARK.json: "
                            f"{sorted(set(layer['metrics']) ^ per_layer)}")
        print(f"{name}: {len(samples)} checked queries, {layer['spans']} spans", flush=True)

    RESULTS.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=RESULTS)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", f"{bare}/bench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a checkout without src/ did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
