"""Spans around the public functions of each qforms module, from outside.

``Tracer.install`` replaces every traced function by a wrapper, both where
it is defined and in every qforms module that imported it by name (for
example ``seifert`` binds ``class_compose`` through ``from .compose import``),
and wraps the class attributes ``OrientedClassGroup.table`` and
``Plane.from_basis``.  ``FormClass.of`` reaches ``canonical`` through the
globals of ``forms``, so rebinding it there covers that path.  ``uninstall``
restores every binding.

Spans (name, start, end, parent) are kept in arrays in memory and written
out by ``write``; ``layer_metrics`` derives calls and self time per name.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
from array import array
from math import isqrt

FUNCTIONS = {
    "forms": ["canonical", "is_equivalent"],
    "compose": ["class_compose", "concordant_pair", "class_group", "divisor_pairs", "special_square"],
    "seifert": ["enumerate_realizable_pairs", "realizable_disjoint_pair", "nonisotopic_exists",
                "prescribed_form_exists"],
    "lattice": ["klein_inverse", "klein_map", "orth_complement", "symplectic_complement",
                "verify_composition_identity"],
    "cube": ["cube_from_forms", "cube_law_check", "slicings"],
}
METHODS = {"compose": [("OrientedClassGroup", "table")], "lattice": [("Plane", "from_basis")]}
CANONICAL_REGIMES = ("definite", "indefinite", "square")


def span_names() -> list[str]:
    names = []
    for mod, fns in FUNCTIONS.items():
        for fn in fns:
            if (mod, fn) == ("forms", "canonical"):
                names += [f"forms.canonical.{r}" for r in CANONICAL_REGIMES]
            else:
                names.append(f"{mod}.{fn}")
    names += [f"{mod}.{cls}.{attr}" for mod, attrs in METHODS.items() for cls, attr in attrs]
    return names


def canonical_regime(args) -> str:
    f = args[0]
    d = f.b * f.b - 4 * f.a * f.c
    if d < 0:
        return "forms.canonical.definite"
    return "forms.canonical.square" if isqrt(d) ** 2 == d else "forms.canonical.indefinite"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.cache_calls = 0  # class_group calls given a cache directory
        self.cache_hits = 0  # ... whose cache file existed before the call
        self.pair_tests = 0
        self.pairs_found = 0

    # -- spans -------------------------------------------------------------

    def open(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, label, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = tracer.open(label(args) if callable(label) else label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(result)
            return result

        return traced

    # -- hooks for the ratio metrics ---------------------------------------

    def _class_group_before(self, args, kwargs) -> None:
        cache_dir = kwargs.get("cache_dir", args[1] if len(args) > 1 else None)
        if cache_dir is not None:
            self.cache_calls += 1
            # the library's cache file name, observed from outside
            if os.path.exists(os.path.join(cache_dir, f"classgroup_{args[0]}.json")):
                self.cache_hits += 1

    def _pair_after(self, result) -> None:
        self.pair_tests += 1
        self.pairs_found += bool(result[0])

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qforms" or mod_name.startswith("qforms.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for mod_name, fns in FUNCTIONS.items():
            mod = importlib.import_module(f"qforms.{mod_name}")
            for fn_name in fns:
                original = getattr(mod, fn_name)
                label = canonical_regime if fn_name == "canonical" else f"{mod_name}.{fn_name}"
                before = self._class_group_before if fn_name == "class_group" else None
                after = self._pair_after if fn_name == "realizable_disjoint_pair" else None
                self._rebind(original, self.wrap(original, label, before, after))
        for mod_name, attrs in METHODS.items():
            mod = importlib.import_module(f"qforms.{mod_name}")
            for cls_name, attr in attrs:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                label = f"{mod_name}.{cls_name}.{attr}"
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(raw.__func__, label))
                else:
                    wrapped = self.wrap(raw, label)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_ms per span name, and the ratios built on spans."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            calls[self.name[i]] += 1
            self_ns[self.name[i]] += self.end[i] - self.start[i] - child_ns[i]
        out: dict[str, float] = {}
        for label in span_names():
            nid = self._ids.get(label)
            out[f"{label}.calls"] = calls[nid] if nid is not None else 0
            out[f"{label}.self_ms"] = self_ns[nid] / 1e6 if nid is not None else 0.0
        out["compose.class_group.cache_hit_ratio"] = (
            self.cache_hits / self.cache_calls if self.cache_calls else 0.0)
        out["seifert.realizable_disjoint_pair.found_ratio"] = (
            self.pairs_found / self.pair_tests if self.pair_tests else 0.0)
        out["seifert.compositions_per_pair_test"] = (
            self._compositions_under_pair_tests() / self.pair_tests if self.pair_tests else 0.0)
        return out

    def _compositions_under_pair_tests(self) -> int:
        compose_id = self._ids.get("compose.class_compose")
        pair_id = self._ids.get("seifert.realizable_disjoint_pair")
        if compose_id is None or pair_id is None:
            return 0
        count = 0
        for i in range(len(self.start)):
            if self.name[i] != compose_id:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != pair_id:
                p = self.parent[p]
            count += p >= 0
        return count

    def write(self, path: str) -> None:
        """All spans as gzip'd TSV: name, start_ns, end_ns, parent index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for lo in range(0, len(self.start), 100_000):
                hi = min(len(self.start), lo + 100_000)
                fh.write("".join(f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                                 f"{self.parent[i]}\n" for i in range(lo, hi)))
