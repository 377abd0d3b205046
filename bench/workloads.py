"""Seeded workload generators, the queries they time, and the checks on their outputs.

Each in-process workload turns a seed and the fixed pool (``pool.json``)
into a list of queries.  ``run`` is the only code that is timed; ``check``
verifies an output with invariants that do not go through the timed call
and raises ``CheckFailed`` when one does not hold.  The ``cli`` workload
lives in ``cli_workload.py`` because it times subprocesses.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import json
import random
from math import gcd, isqrt, log10

from qforms import compose, cube, forms, lattice, seifert


class CheckFailed(Exception):
    """An output broke one of the invariants a workload checks."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Input helpers (plain integer arithmetic, independent of the library)


def disc(f) -> int:
    a, b, c = f
    return b * b - 4 * a * c


def content(f) -> int:
    a, b, c = f
    return gcd(gcd(a, b), c)


def scramble(rng: random.Random, f, digits: int) -> tuple[int, int, int]:
    """Apply a random SL2(Z) word (T^k, then S, repeated) until a coefficient
    has at least ``digits`` digits.  The result is properly equivalent to f."""
    a, b, c = f
    limit = 10 ** digits
    while max(abs(a), abs(b), abs(c)) < limit:
        k = rng.choice((-1, 1)) * rng.randint(1, 9)
        a, b, c = a, 2 * a * k + b, a * k * k + b * k + c  # x -> x + k y
        a, b, c = c, -b, a  # (x, y) -> (-y, x)
    return a, b, c


def log_uniform_int(rng: random.Random, lo: float, hi: float) -> int:
    return int(10 ** rng.uniform(lo, hi))


def stratified(rng: random.Random, rows: list, key, n: int, weight=None) -> list:
    """n rows, one from each of n strata of equal weight along ``key``.

    Every seed then draws the same profile of ``key`` (the cost attribute),
    so run-to-run spread comes from the inputs' values, not their sizes.
    """
    rows = sorted(rows, key=key)
    cum = list(itertools.accumulate(weight(r) if weight else 1.0 for r in rows))
    total = cum[-1]
    picks = [rows[min(len(rows) - 1, bisect.bisect_left(cum, (i + rng.random()) * total / n))]
             for i in range(n)]
    rng.shuffle(picks)
    return picks


def plain(x):
    """A JSON-able image of a library result, for digests and equality."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if dataclasses.is_dataclass(x):
        return {f.name: plain(getattr(x, f.name))
                for f in dataclasses.fields(x) if not f.name.startswith("_")}
    raise TypeError(f"no plain image for {type(x).__name__}")


def digest(x) -> str:
    doc = json.dumps(plain(x), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def coeffs(f) -> tuple[int, int, int]:
    return (f.a, f.b, f.c)


def canon(t) -> tuple[int, int, int]:
    return coeffs(forms.canonical(forms.Form(*t)))


# ---------------------------------------------------------------------------
# seifert-pairs


class SeifertPairs:
    """enumerate_realizable_pairs, nonisotopic_exists and prescribed_form_exists
    for D < 0, D = 1 mod 4, |D| log-uniform in [10^3, 10^4]."""

    name = "seifert-pairs"
    QUERIES = 48
    # Pool entries costing more than this (microseconds at reference speed)
    # are left out, so that a run holds about eight passes over the list.
    MAX_US = 120_000

    def __init__(self, seed: int, pool: dict):
        rng = random.Random(seed)
        rows = [r for r in pool["pairs"] if r[3] <= self.MAX_US]
        self.queries = [{"kind": "pairs", "D": d, "nonprimitive": bool(nonprim), "classes": classes}
                        for d, nonprim, classes, _ in stratified(rng, rows, key=lambda r: r[3],
                                                                 n=self.QUERIES)]
        self.params = {"queries": self.QUERIES, "abs_D": [10 ** 3, 10 ** 4],
                       "D_distribution": "log-uniform, h^2*w <= 10^5, stratified on pool cost",
                       "max_cost_us": self.MAX_US,
                       "include_nonprimitive": "when D has an odd square factor"}

    def run(self, q):
        d = q["D"]
        pairs = seifert.enumerate_realizable_pairs(d, include_nonprimitive=q["nonprimitive"])
        return pairs, seifert.nonisotopic_exists(d), seifert.prescribed_form_exists(d)

    def check(self, q, out) -> None:
        d = q["D"]
        pairs, (exists, w1), (prescribed, w2) = out
        keys = [(tuple(p["s1"]), tuple(p["s2"])) for p in pairs]
        require(keys == sorted(set(keys)), "pairs are not sorted and unique")
        classes = {s for k in keys for s in k}
        for s in classes:
            require(disc(s) == d, f"class {s} has the wrong discriminant")
            require(canon(s) == s, f"class {s} is not canonical")
        diagonal = {s1 for s1, s2 in keys if s1 == s2}
        require(diagonal == classes and len(classes) == q["classes"],
                f"{len(diagonal)} diagonal pairs for {q['classes']} classes")
        for p, (s1, s2) in zip(pairs, keys):
            bar2 = canon((s2[0], -s2[1], s2[2]))
            require(p["b4_distinguishable"] == (s1 != s2 and s1 != bar2),
                    f"b4_distinguishable wrong for {s1}, {s2}")
        require(exists == seifert.negdisc_criterion(d), "nonisotopic_exists disagrees with the criterion")
        for found, w in ((exists, w1), (prescribed, w2)):
            require((w is not None) == found, "witness presence does not match the answer")
            require(w is None or 1 - 4 * w[0] * w[1] == d, f"witness {w} is not special")


# ---------------------------------------------------------------------------
# indefinite-reduce


def is_reduced_indefinite(f, d: int) -> bool:
    a, b, _ = f
    s = isqrt(d)
    return 0 < b <= s and s - b < 2 * abs(a) <= s + b


class IndefiniteReduce:
    """class_group for positive D, canonical + is_equivalent on scrambled
    indefinite forms, and canonical + square_normal_form for D = N^2."""

    name = "indefinite-reduce"
    GROUPS = 36
    CYCLES = 72
    SQUARES = 24
    # Cycle-pool entries above MAX_CYCLE_US (canonical() microseconds at
    # reference speed) are left out.  Every list also holds the costliest entry up to
    # ANCHOR_US, so peak memory is set by that one cycle on every seed.
    MAX_CYCLE_US = 80_000
    ANCHOR_US = 100_000
    MAX_GROUP_US = 130_000

    def __init__(self, seed: int, pool: dict):
        rng = random.Random(seed)
        self.queries = []
        groups = [r for r in pool["classgroup"] if r[2] <= self.MAX_GROUP_US]
        for d, h, _ in stratified(rng, groups, key=lambda r: r[2], n=self.GROUPS):
            self.queries.append({"kind": "class_group", "D": d, "classes": h})
        anchor = max((r for r in pool["cycle"] if r[3] <= self.ANCHOR_US), key=lambda r: r[3])
        cycles = [r for r in pool["cycle"] if r[3] <= self.MAX_CYCLE_US]
        for d, a, b, _ in [anchor] + stratified(rng, cycles, key=lambda r: r[3], n=self.CYCLES - 1):
            f0 = (a, b, (b * b - d) // (4 * a))
            self.queries.append({"kind": "canonical", "D": d, "f0": f0,
                                 "s1": scramble(rng, f0, rng.randint(20, 30)),
                                 "s2": scramble(rng, f0, rng.randint(20, 30))})
        for _ in range(self.SQUARES):
            m = rng.choice((1, 1, 1, 2, 3, 5))
            n = max(3, log_uniform_int(rng, 0.5, 9 - log10(m)))
            while True:
                r0 = rng.randrange(1, n)
                if gcd(r0, n) == 1:
                    break
            prim = scramble(rng, (r0, n, 0), rng.randint(20, 30))
            self.queries.append({"kind": "square", "N": m * n, "m": m, "n": n, "r0": r0,
                                 "prim": prim, "f": tuple(m * v for v in prim)})
        rng.shuffle(self.queries)
        self.params = {"class_group": {"queries": self.GROUPS, "D": [10 ** 4, 10 ** 6],
                                       "max_cost_us": self.MAX_GROUP_US},
                       "canonical": {"queries": self.CYCLES, "D": [10 ** 6, 10 ** 13],
                                     "max_cost_us": self.MAX_CYCLE_US, "anchor_D": anchor[0],
                                     "anchor_cost_us": anchor[3],
                                     "scrambled_digits": [20, 30]},
                       "square": {"queries": self.SQUARES, "N_max": 10 ** 9},
                       "distribution": "log-uniform D, stratified on pool cost"}

    def run(self, q):
        kind = q["kind"]
        if kind == "class_group":
            return compose.class_group(q["D"])
        if kind == "canonical":
            s1 = forms.Form(*q["s1"])
            return forms.canonical(s1), forms.is_equivalent(s1, forms.Form(*q["s2"]))
        return (forms.canonical(forms.Form(*q["f"])),
                compose.square_normal_form(forms.Form(*q["prim"])))

    def check(self, q, out) -> None:
        kind = q["kind"]
        if kind == "class_group":
            d = q["D"]
            elems = [s.coeffs() for s in out.elements]
            require(elems == sorted(set(elems)), "elements are not sorted and unique")
            require(len(elems) == q["classes"], f"{len(elems)} classes, expected {q['classes']}")
            for s in elems:
                require(disc(s) == d and content(s) == 1, f"{s} is not primitive of disc {d}")
                require(is_reduced_indefinite(s, d), f"{s} is not reduced")
            principal = (1, d % 2, (d % 2 - d) // 4)
            require(elems[out.identity_index] == canon(principal), "wrong identity element")
            probe = elems[len(elems) // 2]
            rng = random.Random(d)
            require(canon(scramble(rng, probe, 20)) == probe, f"{probe} is not its class's representative")
        elif kind == "canonical":
            rep, equivalent = out
            r = coeffs(rep)
            require(equivalent is True, "two scrambles of one form are not equivalent")
            require(disc(r) == q["D"] and content(r) == content(q["f0"]), "disc or content changed")
            require(is_reduced_indefinite(r, q["D"]), f"{r} is not reduced")
            require(canon(r) == r, "canonical is not idempotent")
            require(canon(q["f0"]) == r, "scrambled and unscrambled forms differ")
        else:
            rep, residue = out
            require(coeffs(rep) == (q["m"] * q["r0"], q["N"], 0), f"canonical {rep} is wrong")
            require(tuple(residue) == (q["n"], q["r0"]), f"normal form {residue} is wrong")


# ---------------------------------------------------------------------------
# klein-cube


def mul(x, y):
    return (x.m11 * y.m11 + x.m12 * y.m21, x.m11 * y.m12 + x.m12 * y.m22,
            x.m21 * y.m11 + x.m22 * y.m21, x.m21 * y.m12 + x.m22 * y.m22)


def quad(x, y) -> int:
    """Q(x, y) = tr(x bar(y))."""
    return x.m11 * y.m22 - x.m12 * y.m21 - x.m21 * y.m12 + x.m22 * y.m11


def is_summand(plane) -> bool:
    u = (plane.v1.m11, plane.v1.m12, plane.v1.m21, plane.v1.m22)
    v = (plane.v2.m11, plane.v2.m12, plane.v2.m21, plane.v2.m22)
    g = 0
    for j, k in itertools.combinations(range(4), 2):
        g = gcd(g, u[j] * v[k] - u[k] * v[j])
    return g == 1


def q_of(plane) -> tuple[int, int, int]:
    v1, v2 = plane.v1, plane.v2
    det = lambda x: x.m11 * x.m22 - x.m12 * x.m21  # noqa: E731
    return (det(v1), quad(v1, v2), det(v2))


def bar_form(f):
    return (f[0], -f[1], f[2])


def neg_form(f):
    return (-f[0], -f[1], -f[2])


def definite_pair(rng: random.Random, max_abs_disc: int):
    """Two primitive positive definite forms of one discriminant |D| <= max."""
    while True:
        a1 = log_uniform_int(rng, 0, 6)
        c1 = rng.randint(a1, max(a1, max_abs_disc // (4 * a1)))
        b1 = rng.randint(-a1, a1)
        q1 = (a1, b1, c1)
        d = disc(q1)
        if d >= 0 or -d > max_abs_disc or content(q1) != 1:
            continue
        b2 = rng.randrange(d % 2, 4000, 2)
        m = (b2 * b2 - d) // 4
        a2 = rng.choice([a for a in range(1, 300) if m % a == 0])
        return q1, (a2, b2, m // a2)


class KleinCube:
    """Klein correspondence and Bhargava cubes on scrambled definite pairs,
    with a share of Feher-family planes."""

    name = "klein-cube"
    QUERIES = 200
    FEHER_SHARE = 0.2
    MAX_ABS_DISC = 10 ** 12

    def __init__(self, seed: int, pool: dict):
        rng = random.Random(seed)
        self.queries = []
        for _ in range(self.QUERIES):
            if rng.random() < self.FEHER_SHARE:
                while True:
                    p, q = rng.randint(2, 60), rng.randint(2, 60)
                    if gcd(p, q) == 1:
                        break
                k = rng.randint(-30, 30)
                # n past (1 - 2kp)^2 / 4pq makes the discriminant negative, so
                # these queries cost about as much as the others
                n = (1 - 2 * k * p) ** 2 // (4 * p * q) + rng.randint(1, 60)
                self.queries.append({"kind": "feher", "params": (p, q, k, n)})
                continue
            q1, q2 = definite_pair(rng, self.MAX_ABS_DISC)
            self.queries.append({"kind": "klein",
                                 "q1": scramble(rng, q1, rng.randint(15, 18)),
                                 "q2": scramble(rng, q2, rng.randint(15, 18)),
                                 "axis": rng.randint(1, 3), "side": rng.randint(0, 1)})
        self.params = {"queries": self.QUERIES, "feher_share": self.FEHER_SHARE,
                       "max_abs_D": self.MAX_ABS_DISC, "scrambled_digits": [15, 18],
                       "feher": {"p_q": [2, 60], "k": [-30, 30],
                                 "n": "(1-2kp)^2 // 4pq + [1, 60], so D < 0"}}

    def run(self, q):
        if q["kind"] == "feher":
            pair, target, target_pp = seifert.feher_klein_pair(*q["params"])
            plane = lattice.klein_inverse(pair)
            return pair, target, target_pp, plane, lattice.symplectic_complement(plane)
        q1, q2 = forms.Form(*q["q1"]), forms.Form(*q["q2"])
        pair = lattice.KleinPair(lattice.gross(q1), lattice.gross(q2))
        plane = lattice.klein_inverse(pair)
        back = lattice.klein_map(plane)
        perp = lattice.orth_complement(plane)
        identity = lattice.verify_composition_identity(pair)
        box = cube.cube_from_forms(q1, q2)
        law = cube.cube_law_check(box)
        sl = cube.slicings(box)
        reflected = cube.slicings(cube.reflect(box))
        negated = cube.slicings(cube.negate_layer(box, q["axis"], q["side"]))
        return pair, plane, back, perp, identity, box, law, sl, reflected, negated

    def check(self, q, out) -> None:
        if q["kind"] == "feher":
            pair, target, target_pp, plane, pp = out
            v1, v2 = plane.v1, plane.v2
            theta = v1.m11 * v2.m22 + v1.m12 * v2.m21 - v1.m21 * v2.m12 - v1.m22 * v2.m11
            require(theta == 1, "Feher plane is not symplectic")
            require(is_summand(plane) and is_summand(pp), "a plane is not a direct summand")
            require(canon(q_of(plane)) == canon(coeffs(target)), "q_L misses its target")
            require(canon(q_of(pp)) == canon(coeffs(target_pp)), "q of the complement misses its target")
            return
        pair, plane, back, perp, (via_plane, via_compose, ok), box, law, sl, reflected, negated = out
        require(back == pair, "klein_map(klein_inverse(p)) != p")
        require(is_summand(plane) and is_summand(perp), "a plane is not a direct summand")
        for v in (plane.v1, plane.v2):
            require(mul(pair.a1, v) == mul(v, pair.a2), "plane does not solve a1 x = x a2")
            for w in (perp.v1, perp.v2):
                require(quad(v, w) == 0, "complement is not orthogonal")
        require(lattice.orth_complement(perp) == plane, "orth(orth(L)) != L")
        require(ok and via_plane == via_compose, "composition identity fails")
        d = disc(q["q1"])
        forms = [coeffs(f) for f in sl]
        require(all(disc(f) == d for f in forms + [coeffs(f) for f in reflected + negated]),
                "slicing discriminants disagree")
        require(law is True, "cube law fails")
        require(forms[2] == q["q1"] and forms[1] == q["q2"], "cube does not realize its forms")
        for f, r in zip(forms, reflected):
            require(canon(coeffs(r)) == canon(bar_form(f)), "reflection does not bar a slicing")
        for i, (f, n) in enumerate(zip(forms, negated), start=1):
            want = bar_form(f) if i == q["axis"] else neg_form(f)
            require(coeffs(n) == want, "negate_layer pattern is wrong")


IN_PROCESS = {w.name: w for w in (SeifertPairs, IndefiniteReduce, KleinCube)}
