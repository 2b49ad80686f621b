"""In-memory spans around the calls made into each fingerbound module.

A traced round installs wrappers on public functions and methods of the
package's modules, replacing every module attribute that names the original,
so calls made from the CLI and from other modules are recorded too. Nothing
inside the package is edited. A span is a name, a start, an end and the index
of its parent span; spans live in flat arrays until `dump` writes them out.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        return self._wrapper(fn, name, None)(*args, **kwargs)

    def _wrapper(self, fn, name, count):
        stack, starts, ends = self._stack, self.start, self.end
        name_ids, parents, intern = self.name_id, self.parent, self._intern
        counts = self.counts
        fixed = intern(name) if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(fixed if fixed is not None else intern(name(args)))
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Record a span around owner.attr. name is a string or a function of
        the call's positional arguments; count(counts, args, result) adds to
        the counters after the span ends. A module-level function is replaced
        in every fingerbound module that binds it."""
        original = getattr(owner, attr)
        wrapper = self._wrapper(original, name, count)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for key, m in list(sys.modules.items())
                       if key.split(".")[0] == "fingerbound"
                       and getattr(m, attr, None) is original]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            out[self.names[self.name_id[i]]] += (dur[i] - child[i]) / 1e9
        return out

    def dump(self, path) -> None:
        """Write the spans as CSV: id, parent, name, start and end in ns
        from the first span's start."""
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i] - t0},{self.end[i] - t0}\n")
