"""Record bench/digests.json: a digest of every query's output at the default seed.

A benchmark run with ``--seed 0`` fails any query whose output no longer
matches, so a change that alters an answer shows up as a failed query.
Re-record only when an output change is intended.

Usage: python3 bench/record_digests.py
"""

from __future__ import annotations

import json
import sys

from worker import DEFAULT_SEED, DIGESTS, SRC, make_workload

WORKLOADS = ("seifert-pairs", "indefinite-reduce", "klein-cube", "cli")


def record(name: str) -> list[str]:
    from workloads import digest

    wl = make_workload(name, DEFAULT_SEED)
    try:
        if name == "cli":
            wl.in_process = True
            wl.begin_pass(0)
        return [digest(wl.run(q)) for q in wl.queries]
    finally:
        if hasattr(wl, "close"):
            wl.close()


def main() -> None:
    sys.path.insert(0, str(SRC))
    doc = {"seed": DEFAULT_SEED}
    for name in WORKLOADS:
        doc[name] = record(name)
        print(f"{name}: {len(doc[name])} digests", flush=True)
    DIGESTS.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
