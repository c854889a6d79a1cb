"""Self-tests of the benchmark: the oracle, the tracer and the output checks.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import chebdiff2d as cd
import oracle
import tracing
import workloads


def _random(rng, max_k, max_j):
    return rng.uniform(-1.0, 1.0, size=(max_k + 1, max_j + 1))


@pytest.mark.parametrize("seed", range(5))
def test_oracle_matches_program_on_random_tables(seed):
    rng = np.random.default_rng(seed)
    table = _random(rng, int(rng.integers(4, 24)), int(rng.integers(4, 24)))
    grid = cd.CoeffGrid.from_dense(table)
    for r in (1, 2, 3):
        got = cd.differentiate_coeffs(grid, r).to_dense()
        assert oracle.relative_gap(got, oracle.derivative(table, r)) <= 1e-12
    n = int(rng.integers(3, 30))
    gamma = float(rng.choice([1.0, 1.5, 2.0, rng.uniform(1.0, 3.0)]))
    r = int(rng.integers(1, 3))
    got = cd.truncated_derivative(grid, n, gamma, r).to_dense()
    want = oracle.truncated_derivative(table, n, gamma, r)
    assert oracle.relative_gap(got, want) <= 1e-12
    assert cd.cardinality(n, gamma, r) == oracle.cross_size(n, gamma, r)

    nodes = oracle.cosine_nodes(33)
    values = cd.grid_synthesize(grid, cd.cosine_grid(33), cd.cosine_grid(33))
    assert oracle.relative_gap(values, oracle.values(table, nodes, nodes)) <= 1e-12
    assert math.isclose(cd.l2_omega_norm(grid), oracle.l2w(table), rel_tol=1e-12)
    assert math.isclose(cd.sup_norm(grid, 65), oracle.sup(table, 65), rel_tol=1e-12)
    assert math.isclose(cd.lq_omega_norm(grid, 4.0), oracle.lqw(table, 4.0),
                        rel_tol=1e-12)


def test_oracle_rejects_wrong_degree0_weight():
    table = _random(np.random.default_rng(7), 12, 9)
    grid = cd.CoeffGrid.from_dense(table)
    want = oracle.derivative(table, 1)
    planted = cd.differentiate_coeffs(grid, 1, zeta0=math.sqrt(2.0)).to_dense()
    assert oracle.relative_gap(planted, want) > 1e-3
    right = cd.differentiate_coeffs(grid, 1, zeta0=1.0 / math.sqrt(2.0)).to_dense()
    assert oracle.relative_gap(right, want) <= 1e-12


def test_tracer_spans_cover_calls_and_restore_originals():
    original = cd.truncated_derivative
    grid = cd.CoeffGrid.from_dense(_random(np.random.default_rng(3), 20, 20))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cd.truncated_derivative is not original
        deriv = cd.truncated_derivative(grid, 8, 1.5, 1)
        cd.sup_norm(deriv, 33)
    finally:
        tracer.uninstall()
    assert cd.truncated_derivative is original
    assert cd.CoeffGrid.restrict_to.__name__ == "restrict_to"
    assert not hasattr(cd.CoeffGrid.restrict_to, "__wrapped__")

    metrics = tracer.metrics(1.0, 1)
    setup = {f"setup.{g}.ms" for g in tracing.SETUP_GROUPS}
    assert set(metrics) | setup == set(tracing.per_layer_names())
    spans = tracer.arrays()
    top = spans["parent"] < 0
    top_ms = float((spans["end_ns"] - spans["start_ns"])[top].sum()) / 1e6
    assert math.isclose(metrics["trace.self_sum_ms"], top_ms, rel_tol=1e-9)
    assert metrics["transform.restrict_to.scanned"] == 21 * 21
    assert metrics["transform.restrict_to.kept"] == np.count_nonzero(
        oracle.cross_mask((21, 21), 8, 1.5, 1))
    assert metrics["hypercross.cells"] == cd.cardinality(8, 1.5, 1)
    assert metrics["diffop.flops"] == 2 * 21 * 21 * 21
    assert metrics["norms.sup.calls"] == 1


def test_commands_check_accepts_outputs_and_rejects_a_tampered_one(tmp_path,
                                                                   monkeypatch):
    monkeypatch.setattr(workloads, "CLI_BOX", 24)
    inputs = workloads.prepare_commands(3, tmp_path)
    done = workloads.run_commands(inputs)
    assert done.attempted == len(workloads.CLI_CALLS) + len(tracing.CHECK_NAMES)
    assert done.failed == 0
    assert workloads.check_commands(inputs, done.outputs) == []

    output = inputs["calls"][0][-1]
    lines = output.read_text().splitlines()
    k, j, value = lines[1].split(",")
    lines[1] = f"{k},{j},{float(value) * (1 + 1e-9):.17g}"
    output.write_text("\n".join(lines) + "\n")
    assert len(workloads.check_commands(inputs, done.outputs)) == 1


def test_sweep_check_rejects_an_error_off_by_1e_8():
    config = workloads.prepare_topweight(2, None)[0]
    config = dataclasses.replace(
        config, trials_per_delta=2,
        test_function=dataclasses.replace(config.test_function, max_k=40, max_j=40))
    result = cd.run_convergence(config)
    before = workloads._check_sweep(config, result)
    first = result.trials[0]
    trials = (dataclasses.replace(first, error=first.error * (1 + 1e-8)),) + result.trials[1:]
    after = workloads._check_sweep(config, dataclasses.replace(result, trials=trials))
    added = [p for p in after if p not in before]
    assert len(added) == 1 and "oracle" in added[0]


def test_benchmark_json_lists_every_reported_metric():
    import run

    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in doc["per_layer"]] == tracing.per_layer_names()
    for metric in doc["per_layer"]:
        assert metric["unit"] == tracing.unit(metric["name"])
        assert metric["better"] == tracing.better(metric["name"])
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
