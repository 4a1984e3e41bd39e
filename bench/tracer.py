"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each quditzx layer at the
names the layers call each other through (``quditzx.rewrite.evaluate``
is the name ``check_soundness`` calls, ``quditzx.diagram.evaluate`` the
one the CLI calls, and so on).  ``src/`` is not edited: the wrappers are
installed by patching module attributes and removed again afterwards.

Each call becomes a span ``[name, start, end, parent, op, extra]``; spans
stay in memory until the caller asks for them.  ``extra`` holds the
computed counters: result bytes and rank of einsum calls, bytes of
generator factors and of diagram JSON, and a structure digest per
evaluated diagram.  Byte counts come from array sizes, not from the
allocator, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import hashlib
import importlib
import time

import numpy as np

# (module, attribute, span name); a function reachable under two names
# gets one wrapper per name, so each call is counted once.
TARGETS = [
    ("quditzx.rewrite", "check_all", "rewrite.check_all"),
    ("quditzx.rewrite", "instantiate", "rewrite.instantiate"),
    ("quditzx.rewrite", "evaluate", "diagram.evaluate"),
    ("quditzx.rewrite", "max_abs_diff", "tensor.max_abs_diff"),
    ("quditzx.rewrite", "gamma", "gauss.gamma"),
    ("quditzx.diagram", "evaluate", "diagram.evaluate"),
    ("quditzx.diagram", "generator_entries", "generators.entries"),
    ("quditzx.diagram", "dump_json", "diagram.dump_json"),
    ("quditzx.diagram", "load_json", "diagram.load_json"),
    ("quditzx.diagram:Diagram", "validate", "diagram.validate"),
    ("quditzx.tensor", "max_abs_diff", "tensor.max_abs_diff"),
    ("quditzx.tensor", "dump_json", "tensor.dump_json"),
    ("quditzx.tensor", "load_json", "tensor.load_json"),
    ("quditzx.construct", "normal_form", "construct.normal_form"),
    ("quditzx.gauss", "gamma", "gauss.gamma"),
    ("numpy", "einsum", "contraction.einsum"),
]

NAME, START, END, PARENT, OP, EXTRA = range(6)


def structure_digest(d) -> str:
    """Digest of a diagram's kinds, degrees and wiring; amplitudes ignored."""
    nodes = tuple((name, g.kind, g.degree) for name, g in d.nodes.items())
    key = repr((d.dim, d.n_inputs, d.n_outputs, nodes, d.edges))
    return hashlib.blake2b(key.encode(), digest_size=12).hexdigest()


def _extra(name: str, result) -> dict | None:
    if name == "contraction.einsum":
        return {"mb": result.nbytes / 1e6, "rank": result.ndim}
    if name == "generators.entries":
        return {"mb": np.asarray(result).nbytes / 1e6}
    if name == "diagram.dump_json":
        return {"mb": len(result) / 1e6}
    return None


class Tracer:
    """Records spans while installed; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, extra: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, extra])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            extra = None
            if name == "diagram.evaluate":
                extra = {"key": structure_digest(args[0])}
            idx = tracer.begin(name, extra)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            more = _extra(name, result)
            if more:
                tracer.spans[idx][EXTRA] = more
            return result

        return traced

    def install(self) -> None:
        for target, attr, name in TARGETS:
            modname, _, clsname = target.partition(":")
            owner = importlib.import_module(modname)
            if clsname:
                owner = getattr(owner, clsname)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []
