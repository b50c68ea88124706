"""Span tracer that wraps ap4kit's public functions from outside the package.

``install()`` replaces every public function of each layer module with a
wrapper at its defining module and at every module attribute that holds the
same object, which covers ``from .x import f`` rebindings (``report``,
``cli`` and ``search`` import ``apk_mean_zn``, ``dft``, ``ap4_sum_z`` and
``load_signal`` by name).  Nothing in ``src/`` is edited.

A span is ``(id, parent, name, start_ns, end_ns, run, counts)``.  Spans stay
in memory until ``dump()`` writes them out; ``self_times()`` gives each
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("cli", "report", "apcount", "spectra", "constructions", "core", "search")


def _apk_counts(args, kwargs) -> dict:
    signals = list(args[0] if args else kwargs["signals"])
    n = signals[0].n
    k = len(signals)
    exact = all(s.exact for s in signals)
    const = any(bool((s.values == s.values[0]).all()) for s in signals)
    path = "k3" if k == 3 else ("exact" if exact else "float")
    return {"n": n, "k": k, "path": path, "pairs": n * n, "const_input": const}


def _draw_counts(args, kwargs) -> dict:
    return {"draws": (args[0] if args else kwargs["p_signal"]).n}


# Counts taken before the call from its arguments, or after it from its result.
BEFORE = {"apcount.apk_mean_zn": _apk_counts, "constructions.sample_indicator": _draw_counts}
AFTER = {
    "search.min_ap4_pm1": lambda r: {"nodes": r.nodes_explored},
    "search.min_ap4_ternary": lambda r: {"nodes": r.nodes_explored},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.run = 0
        self._next_id = 0

    def wrap(self, name: str, fn):
        before = BEFORE.get(name)
        after = AFTER.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = before(args, kwargs) if before else None
            span_id = self._next_id
            self._next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.spans.append((span_id, parent, name, start, end, self.run, counts))
            if after:
                self.spans[-1] = self.spans[-1][:6] + (after(result),)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ap4kit.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                ):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "ap4kit" or modname.startswith("ap4kit."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers:
                        setattr(mod, attr, wrappers[id(obj)])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in self.spans], fh)


def load(path: str) -> list[tuple]:
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)]


def self_times(spans: list[tuple]) -> dict[int, int]:
    """span id -> duration minus the union of its children's intervals, in ns."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _, start, end, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, *_ in spans:
        covered = 0
        reach = start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[sid] = end - start - covered
    return out

