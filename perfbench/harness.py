"""Measurement rules shared by the workloads: percentiles, speed correction,
step boundaries, dopri5 step inference and failure accounting.

Nothing here imports trajkit, so the self-tests in ``perfbench/tests``
exercise it without running a workload.
"""

from __future__ import annotations

import math
import traceback

import numpy as np

MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile
DOPRI5_STAGES = 7  # velocity evaluations per attempted Dormand-Prince step
KEEP_ERRORS = 5  # failure messages a Tally keeps for the report
REF_ITERS = 20_000  # pure-Python iterations of the speed reference
REF_KERNELS = 10    # numpy kernel calls of the speed reference
_REF_X = np.random.default_rng(0).random((64, 256))
_REF_W = np.random.default_rng(1).random((256, 64))
# Seconds the speed reference takes on the 2-CPU Xeon the benchmark was sized
# on, in its fast speed mode: corrected times are given at that speed.
REF_S = 2.5e-3


class Stop(Exception):
    """Raised from a probe to end a training call when its steps are done."""


class HarnessError(Exception):
    """A fault of the measurement itself: it ends the run, never counts as a failed operation."""


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    return float(np.percentile(samples, 100.0 * q))


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the q-th percentile."""
    return n - math.ceil(round(q * n, 9))


def min_samples(q: float) -> int:
    """Smallest sample count whose q-th percentile has MIN_BEYOND samples beyond it."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def tail(samples, q: float):
    """The q-th percentile, or None when fewer than MIN_BEYOND samples lie beyond it."""
    if samples_beyond(len(samples), q) < MIN_BEYOND:
        return None
    return percentile(samples, q)


def reference_time(clock) -> float:
    """Seconds one pass of a fixed reference takes now: a pure-Python loop,
    then a few numpy kernels (tanh, matmul, sum) on 64 KiB arrays.

    A shared machine runs the same code up to 1.75 times slower for seconds
    or minutes at a time.  Timed right after an operation, the reference
    slows with it, so ``corrected`` can take the machine's speed out of a
    time.  Interpreter and numpy work slow by different amounts, so the
    reference holds both, as the workloads do.
    """
    t0 = clock()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i
    for _ in range(REF_KERNELS):
        acc += float((np.tanh(_REF_X) @ _REF_W).sum())
    return clock() - t0


def corrected(times, refs) -> list:
    """Each time scaled to the speed at which the reference loop takes REF_S,
    by the reference time measured right after it."""
    if len(times) != len(refs):
        raise HarnessError(f"{len(times)} times but {len(refs)} reference times")
    return [t * REF_S / r for t, r in zip(times, refs)]


def op_count(seconds: float, per_s: float, least: int, multiple: int = 1) -> int:
    """Operations a run times: about ``seconds`` of work at ``per_s``
    operations a second, at least ``least``, rounded up to a multiple of
    ``multiple``.  The count depends on nothing measured, so every run of a
    workload with the same ``--seconds`` attempts the same operations."""
    n = max(least, math.ceil(seconds * per_s))
    return -(-n // multiple) * multiple


class StepClock:
    """Optimiser-step timing read from outside the training loop.

    A step is the interval between successive returns of ``optim_init`` /
    ``optim_step``; ``optim_init`` opens a new phase.  The call times of
    ``backward`` and ``optim_step`` split each step into the part before
    backward, backward (with the gradient gather that follows it), and the
    optimiser.  With ``speed`` set, the speed reference is timed after each
    step of a timed phase, off the step's clock.  A phase with a step count raises Stop when
    it has that many steps.
    """

    def __init__(self, clock, speed=None):
        self.clock = clock
        self.speed = speed
        self.phases: dict[str, list[float]] = {}
        self.refs: dict[str, list[float]] = {}
        self.splits: dict[str, list[tuple[float, float, float]]] = {}
        self.losses: dict[str, list[float]] = {}
        self.phase = None
        self.steps_wanted = self.t_init = None
        self.params = None
        self.stop_at_init = False
        self.timed = True
        self.on_boundary = None
        self._start = self._bwd = self._opt = None

    def begin(self, phase: str, steps=None, stop_at_init=False, timed=True):
        """Name the phase the next ``optim_init`` opens and the number of
        steps after which it ends.  Boundaries are reported to
        ``on_boundary(steps_done, timed)``."""
        self.phase = phase
        self.timed = timed
        self.steps_wanted = steps
        self.t_init = None
        self.stop_at_init = stop_at_init

    @property
    def steps(self) -> list[float]:
        return self.phases.setdefault(self.phase, [])

    def init_returned(self):
        """optim_init returned.  A phase restarted after a failed step keeps its steps."""
        self._start = self.clock()
        if self.t_init is None:
            self.t_init = self._start
        for series in (self.phases, self.refs, self.splits, self.losses):
            series.setdefault(self.phase, [])
        if self.on_boundary is not None:
            self.on_boundary(len(self.steps), self.timed)
        if self.stop_at_init:
            raise Stop("set-up done")

    def backward_called(self, loss: float):
        self._bwd = self.clock()
        self.losses[self.phase].append(loss)

    def step_called(self):
        self._opt = self.clock()

    def step_returned(self, params):
        now = self.clock()
        self.params = params
        steps = self.steps
        steps.append(now - self._start)
        bwd = self._bwd if self._bwd is not None else self._opt
        self.splits[self.phase].append((bwd - self._start, self._opt - bwd, now - self._opt))
        if self.speed is not None and self.timed:
            self.refs[self.phase].append(self.speed())
            now = self.clock()
        self._start, self._bwd = now, None
        if self.on_boundary is not None:
            self.on_boundary(len(steps), self.timed)
        if self.steps_wanted is not None and len(steps) >= self.steps_wanted:
            raise Stop(f"{self.phase}: {len(steps)} steps")


def dopri5_attempts(times):
    """Infer (accepted, attempted) dopri5 steps from the flow times passed to
    the velocity field.

    Every attempted step evaluates DOPRI5_STAGES velocities, the first at the
    step's start time.  A step was rejected when the next attempt starts at
    the same time; the final attempt of a finished solve is accepted.
    """
    if len(times) % DOPRI5_STAGES:
        raise ValueError(f"{len(times)} evaluations is not a multiple of {DOPRI5_STAGES}")
    starts = list(times[::DOPRI5_STAGES])
    accepted = sum(1 for a, b in zip(starts, starts[1:]) if b > a)
    return accepted + (1 if starts else 0), len(starts)


class Tally:
    """Attempted and failed operations; a failure is recorded and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, why: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < KEEP_ERRORS:
                self.errors.append(why)

    def call(self, fn, *args, **kwargs):
        """Run one operation; return (ok, result).  Stop and HarnessError pass through."""
        try:
            out = fn(*args, **kwargs)
        except (Stop, HarnessError):
            raise
        except Exception as exc:  # the run must go on: record and continue
            self.record(False, "".join(traceback.format_exception_only(type(exc), exc)).strip())
            return False, None
        self.record(True)
        return True, out

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
