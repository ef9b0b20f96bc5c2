"""Spans around the srcodes layers, installed from outside the package.

`install` replaces each public module-level function of the traced
modules with a wrapper that records one span per call.  The CLI binds
library functions by name (``from .core import encode``), so a wrapper
is bound under every name a srcodes module uses for the function, not
only in its defining module.  Click command callbacks get spans named
``cli.<command>``.

A span is ``[name, start, end, parent, op, amount]``: perf_counter
seconds, the index of the enclosing span (-1 at top level), the op id
of the command, and the bytes or jobs the call handled.  Spans stay in
memory; the launcher writes them out when its command ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

MODULES = ("gf256", "mds", "core", "repair", "shards", "sim", "reliability",
           "metrics", "cli")

# Scalar helpers called once per matrix entry or ring index; a span around
# each call would cost more than the work it measures.
SKIP = frozenset({"gf256.gf_add", "gf256.gf_mul", "gf256.gf_inv",
                  "gf256.gf_div", "core.ring_add", "core.ring_sub"})

# What each call handled: payload bytes for the codec layers, repair jobs
# for the simulator runs.
AMOUNT = {
    "gf256.addmul_buf": lambda args, result: args[2].nbytes if args[1] else 0,
    "core.encode": lambda args, result: len(args[0]),
    "core.reconstruct": lambda args, result: len(result),
    "repair.execute_repair": lambda args, result: result.nbytes,
    "shards.shard_bytes": lambda args, result: len(result),
    "shards.parse_shard": lambda args, result: len(args[0]),
    "shards.load_shard_checked": lambda args, result: result.nbytes,
    "sim.run_node_failure": lambda args, result: result.lost_chunks,
    "sim.run_degraded_read": lambda args, result: result.lost_chunks,
}


class Tracer:
    """Collects the spans of one command."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, amount = self.spans, self._stack, AMOUNT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if amount is not None:
                span[5] = amount(args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the traced modules' public functions and CLI callbacks."""
    import click

    modules = {short: importlib.import_module(f"srcodes.{short}")
               for short in MODULES}
    wrappers = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__ and name not in SKIP):
                wrappers[obj] = tracer.wrap(name, obj)
    for mod in [importlib.import_module("srcodes"), *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    for obj in vars(modules["cli"]).values():
        if isinstance(obj, click.Command) and not isinstance(obj, click.Group):
            obj.callback = tracer.wrap(f"cli.{obj.name}", obj.callback)


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and amount.

    Inclusive seconds and amount count only the outermost span of a name,
    so a recursive call (a node repair executing its chunk plans) is not
    counted twice.  Self seconds are a span's duration minus the time its
    child spans cover; children run inside their parent, one at a time.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _, amount) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "amount": 0})
        row["calls"] += 1
        row["self_s"] += end - start - covered[i]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            row["s"] += end - start
            row["amount"] += amount
    return out
