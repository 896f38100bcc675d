"""Self-tests for the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from harness import (  # noqa: E402
    REF_S, HarnessError, StepClock, Stop, Tally, corrected, dopri5_attempts, min_samples, op_count,
    samples_beyond, tail,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# -- percentile rule -------------------------------------------------------------


def test_tail_needs_ten_samples_beyond():
    assert min_samples(0.9) == 100
    assert min_samples(0.75) == 40
    assert min_samples(0.5) == 20
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert tail(list(range(99)), 0.9) is None
    assert tail(list(range(100)), 0.9) == pytest.approx(89.1)
    assert tail(list(range(39)), 0.75) is None
    assert tail(list(range(40)), 0.75) is not None


# -- operation counts and speed correction ------------------------------------------


def test_operation_count_is_fixed_by_seconds():
    assert op_count(25, 12.0, 100, 6) == 300
    assert op_count(1, 12.0, 100, 6) == 102     # the tail's minimum, rounded up
    assert op_count(10, 2.0, 10) == 20


def test_corrected_times_scale_by_the_reference():
    assert corrected([1.0, 3.0], [REF_S, 2 * REF_S]) == pytest.approx([1.0, 1.5])
    with pytest.raises(HarnessError):
        corrected([1.0], [])


# -- step boundaries --------------------------------------------------------------


def drive_step(sc, clock, forward, backward, optim, loss=1.0, params="p"):
    clock.t += forward
    sc.backward_called(loss)
    clock.t += backward
    sc.step_called()
    clock.t += optim
    sc.step_returned(params)


def test_steps_run_between_optimiser_returns():
    clock = FakeClock()
    sc = StepClock(clock)
    sc.begin("train")
    clock.t = 5.0
    sc.init_returned()
    assert sc.t_init == 5.0
    drive_step(sc, clock, 0.5, 0.25, 0.125)
    drive_step(sc, clock, 1.0, 0.5, 0.25, loss=0.5, params="q")
    assert sc.phases["train"] == [0.875, 1.75]
    assert sc.splits["train"] == [(0.5, 0.25, 0.125), (1.0, 0.5, 0.25)]
    assert sc.losses["train"] == [1.0, 0.5]
    assert sc.params == "q"


def test_optim_init_opens_a_new_phase():
    clock = FakeClock()
    sc = StepClock(clock)
    sc.begin("pretrain")
    sc.init_returned()
    drive_step(sc, clock, 1.0, 0.0, 0.0)
    sc.begin("finetune")
    clock.t += 7.0  # set-up of the next call is not a step
    sc.init_returned()
    drive_step(sc, clock, 2.0, 0.0, 0.0)
    assert sc.phases == {"pretrain": [1.0], "finetune": [2.0]}


def test_phase_stops_after_its_steps():
    clock = FakeClock()
    sc = StepClock(clock)
    sc.begin("train", steps=3)
    sc.init_returned()
    drive_step(sc, clock, 2.0, 0.0, 0.0)
    drive_step(sc, clock, 2.0, 0.0, 0.0)
    with pytest.raises(Stop):
        drive_step(sc, clock, 2.0, 0.0, 0.0)
    assert len(sc.phases["train"]) == 3


def test_restarted_phase_keeps_its_steps():
    clock = FakeClock()
    sc = StepClock(clock)
    sc.begin("train", steps=2)
    sc.init_returned()
    drive_step(sc, clock, 2.0, 0.0, 0.0)
    clock.t += 5.0
    sc.init_returned()                     # the call failed and was restarted
    assert sc.t_init == 0.0
    with pytest.raises(Stop):
        drive_step(sc, clock, 2.0, 0.0, 0.0)
    assert sc.phases["train"] == [2.0, 2.0]


def test_reference_is_timed_off_the_step_clock():
    clock = FakeClock()

    def speed():
        clock.t += 0.5
        return 0.25

    sc = StepClock(clock, speed)
    sc.begin("bundle", timed=False)
    sc.init_returned()
    drive_step(sc, clock, 1.0, 0.0, 0.0)
    sc.begin("train")
    sc.init_returned()
    drive_step(sc, clock, 1.0, 0.0, 0.0)
    drive_step(sc, clock, 1.0, 0.0, 0.0)
    assert sc.phases["train"] == [1.0, 1.0]
    assert sc.refs == {"bundle": [], "train": [0.25, 0.25]}


def test_setup_only_call_stops_at_optim_init():
    clock = FakeClock()
    sc = StepClock(clock)
    sc.begin("train", stop_at_init=True)
    clock.t = 2.5
    with pytest.raises(Stop):
        sc.init_returned()
    assert sc.t_init == 2.5


def test_boundaries_reach_the_tracer_with_phase_kind():
    clock, seen = FakeClock(), []
    sc = StepClock(clock)
    sc.on_boundary = lambda n, timed: seen.append((n, timed))
    sc.begin("bundle", timed=False)
    sc.init_returned()
    sc.begin("train")
    sc.init_returned()
    drive_step(sc, clock, 1.0, 0.0, 0.0)
    assert seen == [(0, False), (0, True), (1, True)]


# -- dopri5 accept/reject inference ---------------------------------------------------


def test_dopri5_inference_from_stage_times():
    c = [0.0, 0.2, 0.3, 0.8, 8 / 9, 1.0, 1.0]

    def attempt(t, h):
        return [t + ci * h for ci in c]

    # accepted 0->0.1, rejected at 0.1 twice, accepted 0.1->0.5, accepted 0.5->1
    times = attempt(0.0, 0.1) + attempt(0.1, 0.8) + attempt(0.1, 0.6) + attempt(0.1, 0.4) \
        + attempt(0.5, 0.5)
    assert dopri5_attempts(times) == (3, 5)
    assert dopri5_attempts([]) == (0, 0)
    with pytest.raises(ValueError):
        dopri5_attempts(times[:-1])


def test_dopri5_inference_on_the_real_solver():
    from trajkit.flowgen import dopri5_sample

    times = []

    def v_fn(z, t):
        times.append(t)
        return -25.0 * z * np.cos(8.0 * t)

    dopri5_sample(v_fn, np.ones(3), h_init=0.5)
    accepted, attempted = dopri5_attempts(times)
    assert attempted == len(times) // 7
    assert accepted < attempted                  # the large first step is rejected
    assert accepted == len(set(times[::7]))      # each accepted step starts at a new time


# -- failure counting --------------------------------------------------------------------


def test_failures_are_counted_and_the_run_goes_on():
    tally = Tally()

    def op(i):
        if i % 3 == 0:
            raise FloatingPointError(f"bad {i}")
        return i

    results = [tally.call(op, i) for i in range(9)]
    assert tally.attempted == 9 and tally.failed == 3
    assert tally.error_rate == pytest.approx(1 / 3)
    assert [ok for ok, _ in results] == [i % 3 != 0 for i in range(9)]
    assert tally.errors[0].startswith("FloatingPointError: bad 0")


def test_stop_and_harness_errors_are_not_operation_failures():
    tally = Tally()
    for exc in (Stop("done"), HarnessError("tracer")):
        def op():
            raise exc
        with pytest.raises(type(exc)):
            tally.call(op)
    assert tally.attempted == 0 and tally.failed == 0


def test_nonzero_cli_exit_counts_as_failed(tmp_path):
    import workloads as wl

    tally = Tally()
    src = str(tmp_path / "s.tlf")
    wl.run_command(["synth", src, "--kind", "static", "--out", str(tmp_path)], tally)
    wl.run_command(["analyze-variance", src, "--out", str(tmp_path)], tally)  # zero variance
    wl.run_command(["eval", src, "--metric", "nope", "--out", str(tmp_path)], tally)  # usage error
    assert (tally.attempted, tally.failed) == (3, 2)


# -- the benchmark definition matches what a run prints --------------------------------------


def test_benchmark_json_names_match_the_harness():
    import layers
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.E2E]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.E2E]
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [layers.unit(n) for n in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == ["vae-train", "flow-train", "sample",
                                                      "analyze"]
