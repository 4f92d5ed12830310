"""In-memory spans around thermem's layers, installed from outside the package.

Each wrapper replaces a function at the attribute its caller looks it up by
(``thermem.estimation.rtss_steady`` and not ``thermem.smoother.rtss_steady``,
because ``run_em`` calls the name bound in its own module). A span records
its name, start, end and parent; spans stay in memory until the run ends and
are then written as JSON. A layer's self time is its span's duration minus
the durations of its child spans, so the self times of a span tree add up to
the duration of its root.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, dotted attribute, span name). One function imported into several
# modules is wrapped in each of them.
SPAN_TARGETS = (
    ("thermem.estimation", "run_em", "estimation.run_em"),
    ("thermem.cli", "run_em", "estimation.run_em"),
    ("thermem.estimation", "rtss_steady", "smoother.rtss"),
    ("thermem.estimation", "assemble", "model.assemble"),
    ("thermem.estimation", "accumulate_stats", "smoother.stats"),
    ("thermem.estimation", "build_operators", "graph.operators"),
    ("thermem.datagen", "build_operators", "graph.operators"),
    ("thermem.cli", "build_operators", "graph.operators"),
    ("thermem.cli", "generate_dataset", "datagen.generate"),
    ("thermem.config", "build_toy", "mesh.build"),
    ("thermem.smoother", "solve_dare", "solvers.dare"),
    ("thermem.smoother", "solve_dlyap", "solvers.dlyap"),
    ("thermem.smoother", "_kernels.filter_steady", "kernels.filter"),
    ("thermem.smoother", "_kernels.smooth_steady", "kernels.smooth"),
    ("thermem.model", "_kernels.rollout", "kernels.rollout"),
)

# Steps each kernel advances, read from its arguments.
KERNEL_STEPS = {
    "kernels.filter": lambda args: len(args[6]) - 1,   # filter_steady(A, B, C, K, x1, P, Y)
    "kernels.smooth": lambda args: len(args[3]) - 1,   # smooth_steady(A, B, J, Xf, P)
    "kernels.rollout": lambda args: len(args[3]),      # rollout(A, B, T1, P, W=None)
}

COUNTED_LOGGER = "thermem.estimation"


class Tracer:
    """Span recorder plus event counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []
        self.missing = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _parent_name(self):
        return self.spans[self._stack[-1]]["name"] if self._stack else ""

    def _wrap(self, fn, name):
        steps = KERNEL_STEPS.get(name)
        is_write = name.startswith("io.write")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_write = is_write and not self._parent_name().startswith("io.write")
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if steps is not None:
                rec["steps"] = steps(args)
            if outer_write:
                rec["bytes"] = os.path.getsize(args[0])
            return out

        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target that exists; missing ones are listed, not fatal."""
        import thermem.io
        import thermem.solvers

        for module, dotted, name in SPAN_TARGETS:
            owner = importlib.import_module(module)
            *path, attr = dotted.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module}.{dotted}")
                continue
            self._patch(owner, attr, self._wrap(fn, name))
        for attr in sorted(vars(thermem.io)):
            fn = getattr(thermem.io, attr)
            if attr.startswith(("read_", "write_")) and getattr(fn, "__module__", "") == "thermem.io":
                self._patch(thermem.io, attr, self._wrap(fn, f"io.{attr}"))

        fixed_point = getattr(thermem.solvers, "_dare_fixed_point", None)
        if fixed_point is None:
            self.missing.append("thermem.solvers._dare_fixed_point")
        else:
            @functools.wraps(fixed_point)
            def counted(*args, **kwargs):
                self.counts["dare_fallbacks"] += 1
                return fixed_point(*args, **kwargs)

            self._patch(thermem.solvers, "_dare_fixed_point", counted)

        # Decreases after the fifth are logged at DEBUG, so the logger is
        # opened to DEBUG while counting and kept from echoing them.
        log = logging.getLogger(COUNTED_LOGGER)
        handler = _CountingHandler(self.counts)
        saved = (log.level, log.propagate)
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
        log.propagate = False

        def restore_logger():
            log.removeHandler(handler)
            log.setLevel(saved[0])
            log.propagate = saved[1]

        self._undo.append((None, None, restore_logger))
        for target in self.missing:
            print(f"tracing: target {target} not found, not traced", file=sys.stderr)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if owner is None:
                value()
            else:
                setattr(owner, attr, value)

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def subtree(self, root_id):
        """Ids of the span ``root_id`` and of every span below it."""
        inside = {root_id}
        for s in self.spans[root_id + 1:]:
            if s["parent"] in inside:
                inside.add(s["id"])
        return sorted(inside)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
            fh.write("\n")


class _CountingHandler(logging.Handler):
    """Counts M-step clamps and floors and log-likelihood decreases."""

    def __init__(self, counts):
        super().__init__(level=logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        msg = record.msg if isinstance(record.msg, str) else ""
        if msg.startswith(("clamping", "flooring")):
            self.counts["clamps"] += 1
        elif msg.startswith("log-likelihood decreased"):
            self.counts["ll_decreases"] += 1
