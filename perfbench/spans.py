"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of the seven dgmdist modules at every
``dgmdist.*`` module attribute bound to it, so calls made inside the package
(``evaluate`` calling ``embed``, ``flowtree_distance`` calling
``greedy_match``) are seen as well as the CLI entry point. Nothing inside the
package is modified on disk; ``install``/``uninstall`` swap module attributes
in this process only, and untraced commands run with the originals.

Each call records a span ``(name, start, end, parent, command)`` in memory.
A few functions also feed counters (points in, entries out, distinct inputs),
computed from their arguments and results. Self time is a span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("diagram", "quadtree", "embedding", "flowtree", "exact", "evaluate", "cli")


def _diagram_key(diagram) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(diagram.coords().tobytes())
    digest.update(diagram.multiplicities().tobytes())
    return digest.digest()


def _observe_load_diagram(t, a, result, exc):
    if exc is None:
        t.counts["diagram.points_loaded"] += len(result)


def _observe_build_tree(t, a, result, exc):
    if exc is None:
        t.counts["quadtree.points_in"] += len(a["points"])
        t.counts["quadtree.levels"] += result.num_levels
        t.counts["quadtree.truncated"] += int(result.truncated)


def _observe_embed(t, a, result, exc):
    if exc is None:
        t.counts["embedding.embed.points_in"] += len(a["diagram"])
        t.counts["embedding.embed.entries_out"] += len(result)
        t.distinct["embed"].add((a["tree"].signature, _diagram_key(a["diagram"])))


def _observe_l1_distance(t, a, result, exc):
    t.counts["embedding.l1_distance.entries_in"] += len(a["a"]) + len(a["b"])


def _observe_greedy_match(t, a, result, exc):
    if exc is None:
        t.counts["flowtree.greedy_match.pairs_out"] += len(result.pairs)
        t.counts["flowtree.greedy_match.point_levels"] += (
            len(a["first"]) + len(a["second"])
        ) * a["tree"].num_levels
        t.counts["flowtree.root_fallback"] += int(result.root_fallback)


def _observe_exact_distance(t, a, result, exc):
    first, second = a["first"], a["second"]
    t.counts["exact.cost_entries"] += (first.total_count + second.total_count) ** 2
    t.distinct["exact"].add((_diagram_key(first), _diagram_key(second), a["metric"]))
    if exc is not None and type(exc).__name__ == "SizeCapError":
        t.counts["exact.size_cap_skips"] += 1


def _observe_written(t, a, result, exc):
    if exc is None:
        t.counts["evaluate.bytes_written"] += Path(a["path"]).stat().st_size


OBSERVERS = {
    "diagram.load_diagram": _observe_load_diagram,
    "quadtree.build_tree": _observe_build_tree,
    "embedding.embed": _observe_embed,
    "embedding.l1_distance": _observe_l1_distance,
    "flowtree.greedy_match": _observe_greedy_match,
    "exact.exact_distance": _observe_exact_distance,
    "evaluate.write_csv": _observe_written,
    "evaluate.write_json": _observe_written,
}


class Tracer:
    """In-memory span recorder over the dgmdist package's public functions."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.distinct = {"embed": set(), "exact": set()}
        self.distinct_total: Counter = Counter()
        self._stack: list[int] = []
        self._command = -1
        self._root = (-1, 0.0)  # index and start of the open command span
        self._patches: list = []
        self._wrappers = {}
        self.names: list[str] = []
        for layer in LAYERS:
            module = importlib.import_module(f"dgmdist.{layer}")
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr.removeprefix('cmd_')}"  # cli.cmd_dist -> cli.dist
                self.names.append(name)
                self._wrappers[value] = self._wrap(name, value, OBSERVERS.get(name))

    def _wrap(self, name, fn, observe):
        signature = inspect.signature(fn) if observe else None
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error, result = exc, None
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._command)
                if observe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(self, bound.arguments, result, error)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Bind the wrappers at every dgmdist.* module attribute."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "dgmdist" or mod_name.startswith("dgmdist.")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    setattr(module, attr, self._wrappers[value])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def begin_command(self, command: int) -> None:
        self._command = command
        self._stack.clear()
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._root = (index, perf_counter())

    def end_command(self) -> None:
        index, start = self._root
        self.spans[index] = ("command", start, perf_counter(), -1, self._command)
        self._stack.clear()
        for key, seen in self.distinct.items():
            self.distinct_total[key] += len(seen)
            seen.clear()

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: number of calls and summed self time."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[i]
        return calls, self_s

    def write(self, path: Path) -> None:
        """Dump every span as one JSON array per line: name, start, end,
        parent index, command id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


COUNTERS = (
    "diagram.points_loaded",
    "quadtree.points_in",
    "embedding.embed.points_in",
    "embedding.embed.entries_out",
    "embedding.l1_distance.entries_in",
    "flowtree.greedy_match.pairs_out",
    "flowtree.greedy_match.point_levels",
    "exact.cost_entries",
    "exact.size_cap_skips",
)
BYTE_COUNTERS = ("evaluate.bytes_written", "cli.bytes_out")


def layer_metrics(tracer: Tracer, commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit). Calls, self times and counters are
    means per traced command; fractions are ratios over all traced calls."""
    calls, self_s = tracer.self_times()
    counts = tracer.counts
    per = 1.0 / max(commands, 1)

    def frac(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name in sorted(tracer.names):
        metrics[f"{name}.calls"] = (calls[name] * per, "count")
        metrics[f"{name}.self_s"] = (self_s[name] * per, "s")
    metrics["cli.self_s"] = (
        sum(v for k, v in self_s.items() if k.startswith("cli.")) * per,
        "s",
    )
    metrics["bench.command.self_s"] = (self_s["command"] * per, "s")
    for key in COUNTERS:
        metrics[key] = (counts[key] * per, "count")
    for key in BYTE_COUNTERS:
        metrics[key] = (counts[key] * per, "bytes")
    builds = calls["quadtree.build_tree"]
    metrics["quadtree.levels_mean"] = (frac(counts["quadtree.levels"], builds), "count")
    metrics["quadtree.truncated_frac"] = (frac(counts["quadtree.truncated"], builds), "ratio")
    metrics["embedding.embed.unique_frac"] = (
        frac(tracer.distinct_total["embed"], calls["embedding.embed"]),
        "ratio",
    )
    metrics["flowtree.root_fallback_frac"] = (
        frac(counts["flowtree.root_fallback"], calls["flowtree.greedy_match"]),
        "ratio",
    )
    metrics["exact.unique_frac"] = (
        frac(tracer.distinct_total["exact"], calls["exact.exact_distance"]),
        "ratio",
    )
    return metrics
