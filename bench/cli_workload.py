"""The ``cli`` workload: README commands run as ``qforms`` subprocesses.

Every pass starts on a fresh, empty ``--cache-dir``.  A command that uses
the class-group cache is two queries in a row: the cold one fills the
directory and the warm one, the same command again, reads it.  Every
command gets that explicit ``--cache-dir``, runs with ``QFORMS_CACHE_DIR``
scrubbed and from an empty working directory, so neither the tracked
``.qforms-cache/`` nor a default cache can make a cold query warm.  A
command's output is checked against ``cli.main`` run in this process on a
cache directory of its own.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from math import gcd

from qforms import cli, compose, cube, lattice
from qforms.forms import Form

from workloads import (
    content,
    definite_pair,
    log_uniform_int,
    require,
    scramble,
    stratified,
)

# What the installed ``qforms`` entry point runs.
BOOT = "import sys; from qforms.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 120


def _ints(*vals) -> list[str]:
    return [str(v) for v in vals]


def _gross_entries(f) -> list[int]:
    a, b, c = f
    return [b, 2 * a, -2 * c, -b]


class Cli:
    name = "cli"
    # Cost bands (pool costs, microseconds at reference speed) of the
    # cache-using commands: each cold one adds 0.1-0.2 s of compute to
    # start-up at this commit.
    TABLE_US = (120_000, 210_000)  # classgroup D --json, D < 0: class_group(D).table()
    POSITIVE_US = (80_000, 190_000)  # classgroup D, D in [5*10^4, 3*10^5]: class_group(D)
    PAIRS_US = (90_000, 160_000)  # seifert pairs D, |D| <= 2000

    def __init__(self, seed: int, pool: dict, workdir: str, src: str):
        rng = random.Random(seed)
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "QFORMS_CACHE_DIR"}
        self.env["PYTHONPATH"] = src
        self.in_process = False
        self.cache_dir = None
        self._refs: dict[tuple, str] = {}
        self._dirs = 0
        seif = pool["seifert"]
        small = [r for r in seif if r[1] <= 40]

        def maybe_json() -> list[str]:
            return ["--json"] if rng.random() < 0.5 else []

        cmds: list[list[str]] = []
        # definite and indefinite reduce
        q1, _ = definite_pair(rng, 10 ** 8)
        cmds.append(["reduce", *_ints(*scramble(rng, q1, rng.randint(6, 9)))])
        while True:
            f = (rng.randint(1, 999), rng.randint(1, 999), -rng.randint(1, 999))
            if content(f) == 1:
                break
        cmds.append(["reduce", *_ints(*scramble(rng, f, rng.randint(6, 9)))])
        for _ in range(2):
            q1, q2 = definite_pair(rng, 10 ** 8)
            cmds.append(["compose", *_ints(*scramble(rng, q1, 7), *scramble(rng, q2, 7))])
        n = max(3, log_uniform_int(rng, 1, 6))
        r0 = rng.randrange(1, n)
        while gcd(r0, n) != 1:
            r0 = rng.randrange(1, n)
        cmds.append(["normal-form", str(n), *_ints(*scramble(rng, (r0, n, 0), 7))])
        q1, q2 = definite_pair(rng, 10 ** 6)
        cmds.append(["klein", "--pair", *_ints(*_gross_entries(q1), *_gross_entries(q2))])
        q1, q2 = definite_pair(rng, 10 ** 6)
        pair = lattice.KleinPair(lattice.gross(Form(*q1)), lattice.gross(Form(*q2)))
        plane = lattice.klein_inverse(pair)
        cmds.append(["klein", "--plane", *_ints(*plane.v1.coords(), *plane.v2.coords())])
        q1, q2 = definite_pair(rng, 10 ** 6)
        cmds.append(["cube", "--from-forms", *_ints(*q1, *q2)])
        q1, q2 = definite_pair(rng, 10 ** 6)
        cmds.append(["cube", "--slice", *_ints(*cube.cube_from_forms(Form(*q1), Form(*q2)).entries)])
        cmds.append(["special-squares", str(rng.choice(seif)[0])])
        cmds.append(["seifert", "exists", str(rng.choice(seif)[0])])
        d = rng.choice(small)[0]
        elems = compose.class_group(d).elements
        s1, s2 = rng.choice(elems), rng.choice(elems)
        cmds.append(["seifert", "pair", str(d), *_ints(*s1.coeffs(), *s2.coeffs())])
        while True:
            p, q = rng.randint(2, 60), rng.randint(2, 60)
            if gcd(p, q) == 1:
                break
        cmds.append(["seifert", "feher", *_ints(p, q, rng.randint(-30, 30), rng.randint(1, 60))])
        cheap = [c + maybe_json() for c in cmds]

        # Cache users get distinct discriminants, or one cold command could
        # read a class group another one cached in the same pass.
        used: set[int] = set()

        def pick(rows: list, cost, band: tuple[int, int], k: int) -> list:
            # one from each of k cost strata of the band, so that every seed
            # draws the same cost profile
            rows = stratified(rng, [r for r in rows if band[0] <= cost(r) <= band[1] and r[0] not in used],
                              key=cost, n=k)
            used.update(r[0] for r in rows)
            return rows

        cached: list[list[str]] = []
        for d, _, _ in pick(pool["table"], lambda r: r[2], self.TABLE_US, 3):
            cached.append(["classgroup", str(d), "--json"])
        positive = [r for r in pool["classgroup"] if 5 * 10 ** 4 <= r[0] <= 3 * 10 ** 5]
        for d, _, _ in pick(positive, lambda r: r[2], self.POSITIVE_US, 2):
            cached.append(["classgroup", str(d)] + maybe_json())
        small_pairs = [r for r in pool["pairs"] if r[0] >= -2000]
        for d, nonprim, _, _ in pick(small_pairs, lambda r: r[3], self.PAIRS_US, 2):
            cached.append(["seifert", "pairs", str(d)] + ["--include-nonprimitive"] * nonprim + maybe_json())

        # a cache user runs cold, then warm against the directory it filled
        units = ([[{"kind": c[0], "argv": c, "cache": False, "phase": "uncached"}] for c in cheap]
                 + [[{"kind": c[0], "argv": c, "cache": True, "phase": ph} for ph in ("cold", "warm")]
                    for c in cached])
        rng.shuffle(units)
        self.queries = [q for unit in units for q in unit]
        self.params = {"commands": len(units), "cache_commands": len(cached),
                       "classgroup_json_us": self.TABLE_US,
                       "classgroup_positive_us": self.POSITIVE_US,
                       "seifert_pairs_us": self.PAIRS_US,
                       "cache_users": "cold (fresh --cache-dir each pass), then warm (same dir)"}

    def begin_pass(self, p: int) -> None:
        self.cache_dir = self.new_dir("cache")

    def new_dir(self, kind: str) -> str:
        self._dirs += 1
        return os.path.join(self.workdir, f"{kind}-{self._dirs}")

    def argv(self, q, cache_dir: str) -> list[str]:
        return q["argv"] + ["--cache-dir", cache_dir]

    def run(self, q):
        if self.in_process:
            return self.run_in_process(self.argv(q, self.cache_dir))
        proc = subprocess.run([sys.executable, "-c", BOOT, *self.argv(q, self.cache_dir)],
                              cwd=self.workdir, env=self.env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        return proc.returncode, proc.stdout

    @staticmethod
    def run_in_process(argv: list[str]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def reference(self, q) -> str:
        key = tuple(q["argv"])
        if key not in self._refs:
            code, out = self.run_in_process(self.argv(q, self.new_dir("ref")))
            require(code == 0, f"reference run of {q['argv']} exited {code}")
            self._refs[key] = out
        return self._refs[key]

    def check(self, q, out) -> None:
        code, stdout = out
        require(code == 0, f"{' '.join(q['argv'])} exited {code}")
        require(stdout == self.reference(q), f"{' '.join(q['argv'])} printed unexpected output")

    def startup_ms(self, runs: int) -> list[float]:
        """Wall times of ``qforms --version`` subprocesses."""
        times = []
        for _ in range(runs):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", BOOT, "--version"], cwd=self.workdir,
                           env=self.env, capture_output=True, check=True, timeout=COMMAND_TIMEOUT_S)
            times.append((time.perf_counter() - t) * 1e3)
        return times

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make_workdir(results: str) -> str:
    os.makedirs(results, exist_ok=True)
    return tempfile.mkdtemp(prefix="cli-", dir=results)
