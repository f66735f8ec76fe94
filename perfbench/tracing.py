"""Spans around calls into phaserep's public functions, recorded from outside.

The tracer replaces each target function with a wrapper in every
``phaserep`` module namespace that holds it, because ``cli``, ``tomo``
and ``optics`` bind some names at import (``from .optics import
effective_toffoli``).  Methods are patched on their class.  Spans stay
in memory as ``[name, start, end, parent, op, note]`` and are written
when the run ends.  Self time is a span's duration minus the durations
of its direct child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(result)
            return result

        return traced

    def install(self, targets: dict[str, object]) -> None:
        """Patch ``{"module.function" or "module.Class.method": note}``.

        ``note`` maps a call's return value to a value kept on its span,
        or is None.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if key == "phaserep" or key.startswith("phaserep.")]
        for target, note in targets.items():
            module_name, *path = target.split(".")
            owner = importlib.import_module(f"phaserep.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(target, original, note)
            for holder in [owner] if len(path) > 1 else modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self_s, inclusive durations and notes."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, note in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, op, note) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "durations": [], "notes": []})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            entry["durations"].append(end - start)
            if note is not None:
                entry["notes"].append(note)
        return out

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"fields": ["name", "start", "end", "parent", "op", "note"],
               "names": names,
               "spans": [[index[s[0]], *s[1:]] for s in self.spans]}
        Path(path).write_text(json.dumps(doc, separators=(",", ":")))
