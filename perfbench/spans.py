"""Span tracing of the program's public functions, from outside the program.

``Tracer.install`` replaces each named function with a timing wrapper in
every ``persuade_ot`` module namespace that holds it, because callers
import functions by name (``optimizer`` holds its own ``value_and_grad``,
``benchmarks`` its own ``revenue``). A function that no longer exists is
reported as absent. Spans live in memory with a parent id and the id of
the operation that caused them, and are written out at the end; leaf
functions called per grid point are only counted and timed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, targets: list[str], leaves: set[str]):
        self.targets = targets  # "module.function" names
        self.leaves = leaves
        self.absent: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start, end)
        self.optimizer = {"iterations": 0, "useful": [], "pruned": 0}
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self._op = -1
        self._restore: list[tuple] = []

    def begin_op(self) -> None:
        self._op += 1

    def install(self) -> None:
        self.absent = []
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "persuade_ot" or name.startswith("persuade_ot."))]
        for target in self.targets:
            mod_name, fn_name = target.split(".")
            home = sys.modules.get(f"persuade_ot.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        observe = {"optimizer.optimize": self._saw_optimize,
                   "optimizer.prune_cells": self._saw_prune}.get(name)
        leaf = name in self.leaves
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if not leaf:
                    self.spans.append((span_id, parent, self._op, name, frame[1], end))
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _saw_optimize(self, args, result) -> None:
        iters = len(getattr(result, "trajectory", ()))
        best = getattr(result, "best_iteration", None)
        self.optimizer["iterations"] += iters
        if iters and best is not None:
            self.optimizer["useful"].append((best + 1) / iters)

    def _saw_prune(self, args, result) -> None:
        before = getattr(args[0], "n", None) if args else None
        after = getattr(result, "n", None)
        if before is not None and after is not None:
            self.optimizer["pruned"] += before - after

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")
