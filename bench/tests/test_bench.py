"""Tests of the benchmark's own machinery.

Run with ``python3 -m pytest bench/tests`` from the root of the checkout.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checkout  # noqa: E402

checkout.use_source_tree()

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mathieu_kit import _scan, mathieu  # noqa: E402
from mathieu_kit.algebra import field_algebra  # noqa: E402
from mathieu_kit.errors import ConsistencyError, TooLarge  # noqa: E402
from mathieu_kit.fields import GF  # noqa: E402
from mathieu_kit.subspace import Subspace  # noqa: E402


# -- tail percentile ----------------------------------------------------------------------


def test_tail_is_omitted_under_twenty_ops():
    assert run.tail_latency([1.0] * 19) is None
    assert run.tail_latency([]) is None


def test_tail_leaves_exactly_ten_ops_beyond():
    value, percentile, n = run.tail_latency([float(x) for x in range(20, 0, -1)])
    assert (value, percentile, n) == (10.0, 50.0, 20)
    latencies = [float(x) for x in range(1, 101)]
    value, percentile, n = run.tail_latency(latencies)
    assert sum(x > value for x in latencies) == 10
    assert (value, percentile, n) == (90.0, 90.0, 100)


# -- host-speed scaling -------------------------------------------------------------------


def test_an_interval_is_scaled_by_the_reference_timings_around_it():
    clock = hostspeed.HostClock()
    clock.at, clock.seconds = [1.0, 5.0, 9.0, 20.0], [0.1, 0.3, 0.2, 0.4]
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.WINDOW_S == 8.0
    assert clock.scale(2.0, 4.0) == pytest.approx(nominal / 0.2)
    assert clock.scale(0.0, 0.5) == pytest.approx(nominal / 0.2)
    assert clock.scale(13.0, 14.0) == pytest.approx(nominal / 0.3)
    assert clock.scale(25.0, 26.0) == pytest.approx(nominal / 0.4)


def test_a_run_times_the_reference_around_every_op():
    runner = run.Runner(_StubWorkload(census_doc()))
    runner.run(0)
    [(op, _)] = runner.outcomes
    assert len(runner.clock.seconds) == 2
    assert op.scaled == pytest.approx(
        op.seconds * hostspeed.NOMINAL_S / statistics.median(runner.clock.seconds))


# -- self time -------------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    dur, own = tracing.self_times(start, end, parent)
    assert dur.tolist() == [10.0, 3.0, 4.0, 1.0]
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0]
    assert own.sum() == pytest.approx(10.0)


def test_traced_calls_and_generator_steps_are_recorded():
    originals = (_scan.power_chunks, mathieu.radical_enumerate, Subspace.__dict__["span"])
    tr = tracing.Tracer()
    tr.install()
    try:
        assert mathieu.radical_enumerate is not originals[1]
        v = Subspace.zero(field_algebra(GF(5)))
        tr.current_op = 0
        assert [x.coords for x in mathieu.radical_enumerate(v)] == [(0,)]
        tr.current_op = 1
        mathieu.radical_enumerate(v)
        tr.current_op = -1
        mathieu.radical_enumerate(v)  # outside an op: not recorded
    finally:
        tr.uninstall()
    assert (_scan.power_chunks, mathieu.radical_enumerate, Subspace.__dict__["span"]) == originals
    m = tracing.layer_metrics(tr, rounds=2)
    assert m["mathieu.radical_enumerate.calls"] == 1.0
    assert m["mathieu.radical_enumerate.elements"] == 5.0
    assert m["scan.power_chunks.calls"] == 1.0
    assert m["scan.power_chunks.cache_hits"] == 0.5  # the second call reads the cache
    assert m["scan.build_power_chunk.elements"] == 2.5
    assert set(tr.arrays()["op"].tolist()) == {0, 1}
    names = [tr.names[i] for i in tr.arrays()["name"]]
    # one span per power_chunks call plus one per next(), the last one ending it
    assert names.count("scan.power_chunks") == 2 * (1 + 2)


# -- answer gate -------------------------------------------------------------------------------


def census_doc(**changes) -> str:
    identity = ["1", "0", "0", "0", "1", "0", "0", "0", "1"]
    variants = ("left", "pre_two_sided", "right", "two_sided")
    doc = {
        "decision": "witness",
        "n": 3,
        "per_theta": {v: 1 for v in variants},
        "q": 5,
        "representatives": {v: [identity] for v in variants},
        "scan_checked": 5,
        "total": (5**9 - 1) // 4,
    }
    doc.update(changes)
    return json.dumps(doc)


def test_census_gate_accepts_the_derived_answer():
    assert workloads.CENSUS_CLASSES == 488281
    assert workloads.check_census(0, census_doc()) is None


@pytest.mark.parametrize(
    "rc, stdout",
    [
        (0, census_doc(per_theta={"left": 2, "pre_two_sided": 1, "right": 1, "two_sided": 1})),
        (0, census_doc(total=97656)),
        (0, census_doc(decision="scan")),
        (0, census_doc(representatives={v: [["0"] * 9] for v in
                                        ("left", "pre_two_sided", "right", "two_sided")})),
        (1, census_doc()),
    ],
)
def test_census_gate_rejects_tampered_answers(rc, stdout):
    assert workloads.check_census(rc, stdout) is not None


class _StubWorkload:
    name = "census"

    def __init__(self, stdout):
        self.stdout = stdout

    def round(self, run_op):
        run_op("op", 1, lambda: (0, self.stdout), lambda res: workloads.check_census(*res))


def test_a_wrong_answer_is_a_failed_op_and_fails_the_run():
    runner = run.Runner(_StubWorkload(census_doc(per_theta={"left": 2})))
    runner.run(0)
    assert [o.status for o in runner.regular()] == ["wrong"]
    assert not runner.correct()
    good = run.Runner(_StubWorkload(census_doc()))
    good.run(0)
    assert good.correct()


def test_only_the_probe_consistency_error_is_the_known_defect():
    assert workloads.classify("probe", ConsistencyError("x"), None) == "known_defect"
    assert workloads.classify("probe", TooLarge(2, 1), None) == "raised"
    assert workloads.classify("cold", ConsistencyError("x"), None) == "raised"
    assert workloads.classify("probe", None, "probe returned [(1,)]") == "wrong"


# -- inputs ----------------------------------------------------------------------------------------


def inputs_bytes(workload: str, seed: int) -> bytes:
    return json.dumps(workloads.make_inputs(workload, seed), sort_keys=True).encode()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = inputs_bytes(workload, 11)
    assert first == inputs_bytes(workload, 11)
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import checkout; "
        "checkout.use_source_tree(); import workloads; "
        "print(json.dumps(workloads.make_inputs(sys.argv[2], 11), sort_keys=True), end='')"
    )
    other = subprocess.run(
        [sys.executable, "-c", code, str(BENCH), workload],
        capture_output=True, check=True, env={**os.environ, "PYTHONHASHSEED": "7"},
    ).stdout
    assert other == first


@pytest.mark.parametrize("workload", ["radical", "suites"])
def test_inputs_follow_the_seed(workload):
    assert inputs_bytes(workload, 1) != inputs_bytes(workload, 2)
