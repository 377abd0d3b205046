"""Build bench/pool.json, the fixed candidate pool the workloads draw from.

The pool records, for each candidate input, the cost attribute that the
workload generators stratify on, so that every seed draws a list with the
same cost profile (see README.md, "Why the inputs are stratified").  Costs
are timed when the pool is built:

* ``seifert``: every D = 1 mod 4 in [-10^4, -10^3] as [D, h, h_np, w]:
  the number of primitive classes, the number of classes with the
  non-primitive strata added, and the number of special witnesses.
  ``enumerate_realizable_pairs`` costs about h^2 * w class compositions.
* ``pairs``: D log-uniform in [-10^4, -10^3] with h^2 * w <= PAIRS_MAX_H2W,
  as [D, nonprimitive, classes, cost_us]: ``nonprimitive`` is 1 exactly
  when D has an odd square factor, ``classes`` the number of classes then
  enumerated, cost_us the time of one seifert-pairs query (``timed_us``,
  PAIRS_ROUNDS rounds).
* ``table``: every D of ``seifert`` with TABLE_H[0] <= h <= TABLE_H[1], as
  [D, h, cost_us], cost_us the time of ``class_group(D).table()`` (the cold
  work of ``classgroup D --json``; ``timed_us``, ROUNDS rounds).
* ``classgroup``: positive non-square D, log-uniform in [10^4, 10^6], as
  [D, h, cost_us], cost_us the time of ``class_group(D)`` (``timed_us``,
  ROUNDS rounds); D costing more than DROP_ABOVE_S are left out.
* ``cycle``: positive non-square D, log-uniform in [10^6, 10^13], with a
  base form (a, b, c) of that discriminant, as [D, a, b, cost_us], cost_us
  the time of ``canonical`` of the base form (``timed_us``, ROUNDS rounds);
  forms costing more than DROP_ABOVE_S are left out.

``timed_us`` times every row once per round, round after round, scales each
time to reference speed by the ``worker.reference`` times just before and
after it (as ``run.scaled`` does) and keeps the median: a slow spell of the
host then neither reorders the rows nor shifts the costs.

The pool is data: rebuilding it is never part of a benchmark run.  Each
section draws from its own seeded generator; named sections are rebuilt and
the others kept from the existing file.

Usage: python3 bench/make_pool.py [SECTION ...]
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from math import gcd, isqrt
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qforms import seifert  # noqa: E402
from qforms.compose import class_group, divisor_pairs  # noqa: E402
from qforms.forms import Form, canonical  # noqa: E402

sys.path.insert(0, str(ROOT / "bench"))
from run import REFERENCE_S  # noqa: E402
from worker import reference, reference_forms  # noqa: E402

POOL_SEED = 20231129
PAIRS_SIZE = 640
PAIRS_MAX_H2W = 2 * 10 ** 4
PAIRS_ROUNDS = 5
ROUNDS = 3
DROP_ABOVE_S = 0.5
CLASSGROUP_SIZE = 240
CYCLE_SIZE = 480
TABLE_H = (80, 120)


def timed_us(calls: list, rounds: int, drop_above_s: float = float("inf")) -> list[int | None]:
    """Each call's median time in microseconds at reference speed, over
    ``rounds`` rounds that each run every call once.  A call that takes more
    than ``drop_above_s`` in the first round is not run again; its entry is
    None."""
    forms = reference_forms()

    def ref() -> float:
        t = time.perf_counter()
        reference(forms)
        return time.perf_counter() - t

    times: list[list[float] | None] = [[] for _ in calls]
    for _ in range(rounds):
        before = ref()
        for i, call in enumerate(calls):
            if times[i] is None:
                continue
            t = time.perf_counter()
            call()
            dt = time.perf_counter() - t
            after = ref()
            if dt > drop_above_s:
                times[i] = None
            else:
                times[i].append(dt * 2 * REFERENCE_S / (before + after))
            before = after
    return [None if v is None else round(statistics.median(v) * 1e6) for v in times]


def log_uniform_positive_disc(rng: random.Random, lo: float, hi: float) -> int:
    while True:
        d = int(10 ** rng.uniform(lo, hi))
        if d % 4 in (0, 1) and isqrt(d) ** 2 != d:
            return d


def seifert_pool() -> list[list[int]]:
    rows = []
    for d in range(-10 ** 4 + 1, -10 ** 3 + 1, 4):  # d = 1 mod 4
        h = class_group(d).order
        h_np = h
        m = 3
        while m * m <= abs(d):
            if d % (m * m) == 0 and (d // (m * m)) % 4 == 1:
                h_np += class_group(d // (m * m)).order
            m += 2
        rows.append([d, h, h_np, len(divisor_pairs((1 - d) // 4))])
    return rows


def seifert_query(d: int, nonprimitive: bool) -> None:
    seifert.enumerate_realizable_pairs(d, include_nonprimitive=nonprimitive)
    seifert.nonisotopic_exists(d)
    seifert.prescribed_form_exists(d)


def table_pool(rng: random.Random, population: list[list[int]]) -> list[list[int]]:
    rows = [[d, h] for d, h, _, _ in population if TABLE_H[0] <= h <= TABLE_H[1]]
    costs = timed_us([lambda d=r[0]: class_group(d).table() for r in rows], ROUNDS, DROP_ABOVE_S)
    return [r + [us] for r, us in zip(rows, costs) if us is not None]


def pairs_pool(rng: random.Random, population: list[list[int]]) -> list[list[int]]:
    by_disc = {r[0]: r for r in population}
    rows = {}
    for _ in range(PAIRS_SIZE):
        d = -int(10 ** rng.uniform(3, 4))
        d -= (d - 1) % 4  # the nearest D = 1 mod 4 at or below
        _, h, h_np, w = by_disc[max(d, -10 ** 4 + 1)]
        if d not in rows and h_np * h_np * w <= PAIRS_MAX_H2W:
            rows[d] = [d, int(h_np > h), h_np]
    costs = timed_us([lambda r=r: seifert_query(r[0], bool(r[1])) for r in rows.values()],
                     PAIRS_ROUNDS)
    return sorted(r + [us] for r, us in zip(rows.values(), costs))


def classgroup_pool(rng: random.Random, population) -> list[list[int]]:
    ds = [log_uniform_positive_disc(rng, 4, 6) for _ in range(CLASSGROUP_SIZE)]
    costs = timed_us([lambda d=d: class_group(d) for d in ds], ROUNDS, DROP_ABOVE_S)
    return [[d, class_group(d).order, us] for d, us in zip(ds, costs) if us is not None]


def base_form(rng: random.Random, d: int) -> tuple[int, int]:
    """(a, b) of a primitive form (a, b, (b^2 - d) / 4a) with small a > 0."""
    while True:
        b = rng.randrange(d % 2, 2000, 2)
        m = (b * b - d) // 4
        divisors = [a for a in range(2, 200) if m % a == 0]
        a = rng.choice(divisors) if divisors else 1
        if gcd(gcd(a, b), m // a) == 1:
            return a, b


def cycle_pool(rng: random.Random, population) -> list[list[int]]:
    rows = []
    for _ in range(CYCLE_SIZE):
        d = log_uniform_positive_disc(rng, 6, 13)
        rows.append([d, *base_form(rng, d)])
    costs = timed_us([lambda r=r: canonical(Form(r[1], r[2], (r[2] ** 2 - r[0]) // (4 * r[1])))
                      for r in rows], ROUNDS, DROP_ABOVE_S)
    return [r + [us] for r, us in zip(rows, costs) if us is not None]


SECTIONS = {"pairs": pairs_pool, "table": table_pool, "classgroup": classgroup_pool,
            "cycle": cycle_pool}


def main() -> None:
    out = Path(__file__).resolve().parent / "pool.json"
    names = sys.argv[1:] or ["seifert", *SECTIONS]
    pool = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    pool["pool_seed"] = POOL_SEED
    if "seifert" in names or "seifert" not in pool:
        pool["seifert"] = seifert_pool()
    for name, build in SECTIONS.items():
        if name in names:
            pool[name] = build(random.Random(f"{POOL_SEED}-{name}"), pool["seifert"])
    out.write_text(json.dumps(pool, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {out}: " + ", ".join(f"{k}={len(v)}" for k, v in pool.items() if isinstance(v, list)))


if __name__ == "__main__":
    main()
