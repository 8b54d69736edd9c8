"""Spans around the calls kpart's modules make into each other.

Tracer.install() rebinds, from outside the program, every function that one
kpart module imports from another, at every module that binds its name, so
calls inside the defining module are covered too. It also wraps two methods
that cross module boundaries (Partition.groups, the MergeTrace.steps
property) and json.dumps as kpart.cli sees it. Each span records calls,
total time and self time (total minus the time of wrapped spans it caused).
kpart.cli.main is the span named "cli", so its self time is the part of a
command that no wrapped callee covers. Tracer.restore() puts every binding
back.
"""

from __future__ import annotations

import json
import sys
import types
from time import perf_counter

# spans whose name is not "<defining module>.<function name>"
_RENAMED = {"cli.main": "cli"}


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class _JsonView(types.ModuleType):
    """The json module with dumps replaced, for kpart.cli's json binding only."""

    def __init__(self, dumps) -> None:
        super().__init__("json")
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """In-memory span statistics, keyed by span name."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.partitions_searched = 0
        self._stack: list[float] = []  # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []

    # --- span bookkeeping ---------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self += dt - child
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        return span

    def _count_searched(self, result) -> None:
        self.partitions_searched += result.partitions_searched

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # --- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap the bindings of every kpart module already imported."""
        package = sys.modules["kpart"]
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("kpart.")
        }
        homes = {id(mod.__dict__): m for m, mod in mods.items()}
        bindings: dict[int, list[tuple[object, str]]] = {}
        funcs: dict[int, types.FunctionType] = {}
        for mod in (package, *mods.values()):
            for attr, val in vars(mod).items():
                if isinstance(val, types.FunctionType) and id(val.__globals__) in homes:
                    bindings.setdefault(id(val), []).append((mod, attr))
                    funcs[id(val)] = val
        for key, places in bindings.items():
            if len(places) < 2:
                continue  # bound only where it is defined: no module boundary
            fn = funcs[key]
            home = homes[id(fn.__globals__)]
            name = f"{home}.{fn.__name__.lstrip('_')}"
            name = _RENAMED.get(name, name)
            hook = None
            if fn.__name__ in ("brute_force", "verify_lemma2"):
                hook = self._count_searched
            wrapped = self._wrap(name, fn, hook)
            for mod, attr in places:
                self._set(mod, attr, wrapped)

        # methods that cross a module boundary; skipped if a later version
        # of the program no longer has them
        for mod, cls, attr, name in (
            ("core", "Partition", "groups", "core.Partition.groups"),
            ("solver", "MergeTrace", "steps", "solver.trace_steps"),
        ):
            owner = getattr(mods.get(mod), cls, None)
            member = vars(owner).get(attr) if owner is not None else None
            if isinstance(member, property):
                self._set(owner, attr, property(self._wrap(name, member.fget)))
            elif isinstance(member, types.FunctionType):
                self._set(owner, attr, self._wrap(name, member))
        cli = mods.get("cli")
        if cli is not None and vars(cli).get("json") is json:
            self._set(cli, "json", _JsonView(self._wrap("cli.json_dumps", json.dumps)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # --- results ------------------------------------------------------

    def self_total(self) -> float:
        return sum(s.self for s in self.stats.values())

    def snapshot(self) -> dict:
        out = {}
        for name, s in sorted(self.stats.items()):
            if s.calls:
                out[name] = {"calls": s.calls, "total_s": s.total, "self_s": s.self}
        out["solver.partitions_searched"] = self.partitions_searched
        return out

    def value(self, name: str):
        """A per-layer metric by name: "<span>.calls", "<span>.self_s", or a counter."""
        if name == "solver.partitions_searched":
            return self.partitions_searched
        span, _, field = name.rpartition(".")
        stat = self.stats.get(span)
        if stat is None:
            return 0
        return stat.calls if field == "calls" else stat.self
