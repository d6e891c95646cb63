"""In-memory span tracer that wraps the public functions of the `defun`
layers from outside.

Spans are recorded only while the wrappers are installed (one traced pass
at a time), so untraced passes run the unmodified functions.  Span times
are process CPU times, like every time the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# The traced functions: (module, attribute, layer).
TRACED = (
    ("defun.frontend", "parse_program", "frontend"),
    ("defun.typecheck", "Checker.check_program", "typecheck"),
    ("defun.defunc", "defunctionalize", "defunc"),
    ("defun.emit", "emit_whyml", "emit"),
    ("defun.vcgen", "generate_vcs", "vcgen"),
    ("defun.vcgen", "emit_smt", "vcgen"),
    ("defun.interp", "equiv_check", "interp"),
    ("defun.interp", "eval_ho", "interp"),
    ("defun.interp", "eval_fo", "interp"),
    ("defun.interp", "gen_value", "interp"),
)
# Layer of each span name.  The benchmark opens a `job` span around each
# operation it times; its self time, such as writing the .mlw file, is
# `other`.
LAYER_OF = {name: layer for _, name, layer in TRACED} | {"job": "other"}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    group: str


class Tracer:
    """Collects spans: name, start, end, parent span and group id.

    All spans opened while one program or one equiv entry is processed
    carry that item's group id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.group = ""
        self._patched: list[tuple] = []

    # -- span recording ------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, time.process_time(), 0.0, parent,
                    self.group)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.process_time()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        # a recursive call (gen_value calls itself) stays inside one span
        if self.stack and self.stack[-1].name == name:
            return fn(*args, **kwargs)
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    # -- installing wrappers -------------------------------------------------

    def install(self):
        """Replace every binding of a traced function in the `defun`
        modules (and `Checker.check_program` on its class) by a wrapper."""
        for modname, attr, _ in TRACED:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, getattr(cls, meth), attr)
                continue
            orig = getattr(mod, attr)
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if name == "defun" or name.startswith("defun."):
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            self._patch(other, key, orig, attr)

    def _patch(self, owner, key, orig, span_name):
        @functools.wraps(orig)
        def traced(*args, **kwargs):
            return self.call(span_name, orig, *args, **kwargs)

        setattr(owner, key, traced)
        self._patched.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- reporting -----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name: its duration minus that of its
        children."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - child_time[s.id]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "group": s.group,
                }) + "\n")
