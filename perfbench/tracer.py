"""Outside-in tracing of scorelab's public functions.

`Tracer.install` replaces every public function of every loaded scorelab
module with a timing wrapper, at every name it is bound to.  The modules
import each other's functions by name (`from .mixture import score`), so
wrapping only the defining module would leave calls from svgd, stein or
langevin untraced and their time counted under the caller.

Spans stay in memory until `dump`.  The tracer keeps one call stack, so it
is meant for single-threaded runs (`--threads 1`).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import types

import numpy as np

# Names never wrapped: the CLI entry point is the traced process itself.
SKIP = {"cli.main"}


def _size(value) -> int:
    return int(np.size(value))


def _svgd_work(a, result):
    steps = a["cfg"].iterations
    return {"steps": steps, "kernel_pairs": steps * a["init"].size ** 2}


# Work counted per call, by span name: f(arguments by parameter name, result)
# -> {counter: n}.
WORK = {
    "numerics.quad_integrate": lambda a, r: {"nodes": a["spec"].nodes},
    "mixture.score": lambda a, r: {"points": _size(a["x"])},
    "stein.ksd_vstat": lambda a, r: {"pairs": _size(a["samples"]) ** 2},
    "svgd.svgd_run": _svgd_work,
    "langevin.langevin_step": lambda a, r: {"particle_steps": _size(a["x"])},
    "remedies.kde_log_pdf": lambda a, r: {"pairs": _size(a["x"]) * a["model"].centers.size},
    "svgplot.render_svg": lambda a, r: {"bytes": os.path.getsize(r)},
}


class Tracer:
    """Collects (name, start, end, parent index, counts) spans in memory.

    `counts` is the dict the span's WORK function returned, or None.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int, dict | None]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, self.clock
        signature = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent, None))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if work is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                spans[index] = (name, start, end, parent, work(arguments, result))
            return result

        return traced

    def install(self, package: str = "scorelab") -> None:
        """Wrap the loaded package's public functions wherever they are bound."""
        modules = [
            (name, mod)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        wrapped = {}
        for modname, mod in modules:
            short = modname.partition(".")[2]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    short
                    and not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == modname
                    and name not in SKIP
                ):
                    wrapped[obj] = self.wrap(name, obj, WORK.get(name))
        for _, mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def aggregate(spans, into: dict | None = None) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, total_s and each work counter, summed.

    total_s counts only outermost calls of a name, so recursion is not
    counted twice.
    """
    into = {} if into is None else into
    selfs = self_times(spans)
    for (name, start, end, parent, counts), self_s in zip(spans, selfs):
        row = into.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
        for key, n in (counts or {}).items():
            row[key] = row.get(key, 0) + n
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["total_s"] += end - start
    return into


def top_level_s(spans) -> float:
    """Wall time covered by spans without a parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
