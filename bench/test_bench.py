"""Tests of the benchmark's own code: span arithmetic and reference checks."""

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent, info=None):
    return [name, start, end, parent, "1:1", info]


def test_self_time_subtracts_direct_children_only():
    tree = [
        span("experiments.run_trial", 0.0, 10.0, None, {"m": 20, "k": 2}),
        span("solver.complete", 1.0, 4.0, 0),
        span("solver.svt", 2.0, 3.0, 1),
        span("signal.synthesize", 5.0, 7.0, 0),
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    tree = [span("a", 0.0, 10.0, None), span("b", 1.0, 5.0, 0),
            span("c", 4.0, 6.0, 0), span("d", 8.0, 9.0, 0)]
    assert spans.self_times(tree)[0] == 10.0 - 5.0 - 1.0


def test_tracer_nests_spans_and_tags_trials():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("solver.svt", lambda x: x + 1)
    outer = tracer.wrap("experiments.build_basis", lambda x: inner(inner(x)))
    assert outer(1) == 3 and outer(5) == 7
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    trials = [s[4].split(":")[1] for s in tracer.spans]
    assert names == ["experiments.build_basis", "solver.svt", "solver.svt"] * 2
    assert parents == [None, 0, 0, None, 3, 3]
    assert trials == ["1", "1", "1", "2", "2", "2"]
    assert spans.self_times(tracer.spans)[:3] == [5.0 - 2.0, 1.0, 1.0]


def test_layer_metrics_split_capped_solves_by_cell():
    tree = [
        span("experiments.run_trial", 0.0, 4.0, None, {"m": 20, "k": 2}),
        span("solver.complete", 0.5, 3.5, 0,
             {"iters": 2000, "converged": False, "weights": "identity"}),
        span("experiments.run_trial", 4.0, 5.0, None, {"m": 40, "k": 8}),
        span("solver.complete", 4.2, 4.8, 2,
             {"iters": 500, "converged": True, "weights": "tuned"}),
    ]
    m, cell_time = spans.layer_metrics(spans.flatten([tree]),
                                       [(20, 2), (40, 8)])
    assert m["solver.iterations"][0] == 2500
    assert m["solver.max_iters_frac"][0] == 0.5
    assert m["solver.wasted_iter_frac"][0] == 2000 / 2500
    assert m["solver.complete_calls_tuned"][0] == 1
    assert m["cell.M20_K2.max_iters_frac"][0] == 1.0
    assert m["cell.M40_K8.time_s"][0] == 1.0
    assert cell_time == {(20, 2): 4.0, (40, 8): 1.0}
    assert m["experiments.cell_imbalance"][0] == 4.0 * 2 / 5.0


class SteadyKernel:
    """Stands in for `speed.Kernel`: a machine that never changes speed."""

    def timed(self, fn, *args):
        return fn(*args), 1.0, 1.0


class ReplayWorkloads:
    """Stands in for `workloads`: trial i replays reference outcome i."""

    compare = staticmethod(workloads.compare)

    def __init__(self, reference):
        self.reference = reference

    def execute(self, i):
        success, code = self.reference[i]
        return success, code, 0.0


def test_flipped_reference_bit_counts_as_failed():
    reference = run.load_reference("band_two_stage", 0)
    assert reference is not None
    items = list(range(len(reference)))
    clean = run.Loop(ReplayWorkloads(reference), items, reference,
                     SteadyKernel())
    clean.run_pass(items)
    assert clean.failed() == 0

    flipped = [list(r) for r in reference]
    flipped[3][0] = not flipped[3][0]
    loop = run.Loop(ReplayWorkloads(reference), items, flipped, SteadyKernel())
    loop.run_for(0.0, random.Random(1))
    loop.run_pass(items)
    assert loop.failed() == 2
    assert loop.failed() / len(loop.outcomes) == 2 / (2 * len(items))


def test_error_code_fails_without_reference():
    outcomes = [(0, True, None), (1, False, "LinAlgError")]
    assert workloads.compare(outcomes, None) == [1]


def test_phase_check_counts_trials_of_changed_cells():
    reference = run.load_reference("phase_cli", 0)
    assert workloads.phase_check(reference, reference) == 0
    lines = reference.splitlines()
    m, k, _ = lines[1].split()
    lines[1] = f"{m} {k} 0.333333"
    changed = "\n".join(lines) + "\n"
    assert workloads.phase_check(changed, reference) == workloads.PHASE_TRIALS
    assert workloads.phase_check("", reference) == workloads.phase_trials()


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {n: run.E2E[n] for n in run.E2E_REPORTED}
    layer = run.layer_report(workloads, [], 1.0, 1.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
