"""Outside-in span tracer for trajkit.

The tracer wraps the public functions of each trajkit module from outside:
every binding of a function in a loaded ``trajkit`` module is replaced by a
wrapper, so names imported by name (``trajkit.flowgen.vae_encode``) and calls
inside a module (``affine`` calling ``matmul`` in ``gradcore.tensor``) are
both seen.  Primitive wrappers also wrap the VJP closures of each returned
Tensor.  No file of the package changes.

A span records name, start, end, parent span and request id (the step,
sample or scene index; -1 during set-up).  Spans stay in memory and are
written out by :meth:`Tracer.save`.  Aggregates (calls, self time, total
time, counts and per-step series) are kept apart for set-up and for timed
operations, for every span whether or not it is stored.  Work the tracer
does for itself (coverage walks, byte counts) is taken off the clock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

from harness import HarnessError

LAYER_MODULES = {
    "trajkit.gradcore.tensor": "gradcore",
    "trajkit.gradcore.optim": "gradcore",
    "trajkit.gradcore.autodiff": "gradcore",
    "trajkit.gradcore.rng": "gradcore.rng",
    "trajkit.models": "models",
    "trajkit.lossbank": "lossbank",
    "trajkit.flowgen": "flowgen",
    "trajkit.trajfield": "trajfield",
    "trajkit.tlf": "tlf",
    "trajkit.metrics": "metrics",
    "trajkit.motionlab": "motionlab",
    "trajkit.scenes": "scenes",
    "trajkit.cli": "cli",
}
NOT_WRAPPED = {"as_tensor"}            # a type conversion, called inside every primitive
COMPOSITES = {"affine", "tmean", "square"}  # return another primitive's output
OP_NAMES = {"tsum": "sum", "absolute": "abs"}
RNG_METHODS = ("draw_normal", "draw_uniform", "draw_integers", "spawn")
MAX_SPANS = 500_000  # spans stored for the trace file; later ones only reach the aggregates


class CoverageError(HarnessError):
    """The tape holds nodes that no wrapped primitive produced."""


def rebind(replacements: dict) -> list:
    """Replace every binding of each original function in loaded trajkit
    modules; returns the (module, name, original) list that undoes it."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "trajkit" or modname.startswith("trajkit.")):
            continue
        for name, value in list(vars(mod).items()):
            new = replacements.get(id(value))
            if new is not None and new[0] is value:
                setattr(mod, name, new[1])
                undo.append((mod, name, value))
    return undo


def unbind(undo: list) -> None:
    for mod, name, value in reversed(undo):
        setattr(mod, name, value)


class Aggregate:
    """Calls, self time and total time per span name; event counts; and
    per-step series (tape nodes, dead nodes, retained grad bytes, and the
    flow times of each dopri5 solve)."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.series = defaultdict(list)


class Tracer:
    def __init__(self):
        self.skew = 0.0
        self.request = -1
        self.dropped = 0
        # stored spans, one column per field
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_req = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        # aggregates per phase: set-up, or timed operations
        self.phases = {"setup": Aggregate(), "timed": Aggregate()}
        self._agg = self.phases["setup"]
        self.step_ops = {}             # id -> op of grad-carrying outputs since the last step boundary
        self.step_outputs = 0          # how many there were (ids of freed ones can recur)
        self._stack: list[list] = []
        self._tape = None
        self._undo: list = []
        self._class_undo: list = []

    # -- clock and spans ----------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self.skew

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> None:
        t = time.perf_counter() - self.skew
        idx = len(self.s_start)
        if idx < MAX_SPANS:
            parent = self._stack[-1][3] if self._stack else -1
            self.s_name.append(self._name_id(name))
            self.s_parent.append(parent)
            self.s_req.append(self.request)
            self.s_start.append(t)
            self.s_end.append(t)
        else:
            idx = -1
            self.dropped += 1
        self._stack.append([name, t, 0.0, idx])

    def exit(self) -> None:
        t = time.perf_counter() - self.skew
        name, start, child, idx = self._stack.pop()
        dur = t - start
        agg = self._agg
        agg.calls[name] += 1
        agg.total_s[name] += dur
        agg.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.s_end[idx] = t

    def off_clock(self, fn, *args):
        """Run tracer bookkeeping without charging its time to any span."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.skew += time.perf_counter() - t0

    def save(self, path) -> None:
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.s_name, np.int32),
            parent=np.frombuffer(self.s_parent, np.int32), request=np.frombuffer(self.s_req, np.int32),
            start=np.frombuffer(self.s_start), end=np.frombuffer(self.s_end),
            dropped=np.array(self.dropped))

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        enter, exit_, off = self.enter, self.exit, self.off_clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                off(before, args)
            enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                off(after, args, out)
            return out

        return traced

    def _wrap_vjp(self, name, vjp):
        enter, exit_ = self.enter, self.exit

        def traced_vjp(g):
            enter(name)
            try:
                return vjp(g)
            finally:
                exit_()

        return traced_vjp

    def _primitive_out(self, args, out):
        self._agg.counts["nodes_created"] += 1
        if out.requires_grad:
            op = out._op
            self.step_ops[id(out)] = op
            self.step_outputs += 1
            name = f"gradcore.{op}.vjp"
            out._vjps = tuple(self._wrap_vjp(name, v) for v in out._vjps)

    def _before_backward(self, args):
        """Walk the tape from the loss.  Every node on it must be an output a
        wrapped primitive recorded in this step; traced grad-carrying outputs
        the walk does not reach are dead nodes (built, never differentiated)."""
        loss = args[0]
        seen, stack, missing = {id(loss)}, [loss], Counter()
        nodes = []
        while stack:
            node = stack.pop()
            nodes.append(node)
            if node._op != "leaf" and self.step_ops.get(id(node)) != node._op:
                missing[node._op] += 1
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        if missing:
            raise CoverageError(f"tape nodes no traced primitive produced, by op: {dict(missing)}")
        inner = sum(1 for n in nodes if n._op != "leaf")
        self._agg.series["tape_nodes"].append(len(nodes))
        self._agg.series["dead_nodes"].append(self.step_outputs - inner)
        self._tape = nodes

    def _after_backward(self, args, out):
        tape, self._tape = self._tape, None
        self._agg.series["grad_bytes"].append(
            sum(n.grad.nbytes for n in tape if n.grad is not None))

    def mark(self, timed: bool, request: int = -1) -> None:
        """Charge the spans that end from now on to the timed phase or to set-up."""
        self._agg = self.phases["timed" if timed else "setup"]
        self.request = request

    def step_boundary(self, index: int, timed: bool) -> None:
        """A step ended: the next one starts with an empty output count and,
        in a timed phase, is a timed operation."""
        self.step_ops.clear()
        self.step_outputs = 0
        if timed:
            self.mark(True, index)

    def _vf_before(self, args):
        if any(frame[0] == "flowgen.dopri5_sample" for frame in self._stack):
            self._agg.series["dopri5_times"][-1].append(float(args[1]))

    def _dopri5_before(self, args):
        self._agg.series["dopri5_times"].append([])

    def _read_bytes(self, args, out):
        self._agg.counts["tlf.bytes_read"] += os.path.getsize(args[0])

    def _write_bytes(self, args, out):
        self._agg.counts["tlf.bytes_written"] += os.path.getsize(args[0])

    def _dispatch_after(self, args, out):
        if out != 0:
            self._agg.counts["cli.nonzero_exits"] += 1

    def install(self) -> None:
        """Wrap every public function of the traced trajkit modules."""
        hooks = {
            "gradcore.backward": (self._before_backward, self._after_backward),
            "models.velocity_forward": (self._vf_before, None),
            "flowgen.dopri5_sample": (self._dopri5_before, None),
            "tlf.read_tlf": (None, self._read_bytes),
            "tlf.write_tlf": (None, self._write_bytes),
            "cli.dispatch": (None, self._dispatch_after),
        }
        replacements = {}
        for modname, layer in LAYER_MODULES.items():
            mod = importlib.import_module(modname)
            for fname, fn in vars(mod).items():
                if (not inspect.isfunction(fn) or fn.__module__ != modname
                        or fname.startswith("_") or fname in NOT_WRAPPED):
                    continue
                if layer == "gradcore.rng":
                    name = "gradcore.rng.new"
                else:
                    name = f"{layer}.{OP_NAMES.get(fname, fname)}"
                before, after = hooks.get(name, (None, None))
                if modname == "trajkit.gradcore.tensor" and fname not in COMPOSITES \
                        and fname != "backward":
                    after = self._primitive_out
                replacements[id(fn)] = (fn, self._wrap(name, fn, before, after))
        self._undo = rebind(replacements)
        rng_cls = importlib.import_module("trajkit.gradcore.rng").Rng
        for meth in RNG_METHODS:
            fn = rng_cls.__dict__[meth]
            self._class_undo.append((rng_cls, meth, fn))
            setattr(rng_cls, meth, self._wrap(f"gradcore.rng.{meth}", fn))

    def uninstall(self) -> None:
        unbind(self._undo)
        for cls, meth, fn in reversed(self._class_undo):
            setattr(cls, meth, fn)
        self._undo, self._class_undo = [], []
