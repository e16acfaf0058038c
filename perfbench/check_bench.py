"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/check_bench.py

Kept out of the package's test suite (the file name does not match
`test_*.py`) because the smoke runs take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
pkg = run.import_package()


def bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def result_of(process):
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"] and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_minimal_run_is_correct_and_prints_every_metric(workload):
    process = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0")
    result = result_of(process)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    table = process.stdout
    for name, unit in list(expected.items()) + [("failed_frac", "frac")]:
        assert f"  {name} " in table and f" {unit}" in table
    assert "failed_frac" in table and "(0/" in table
    record = json.loads(next(line for line in table.splitlines()
                             if line.startswith("record "))[len("record "):])
    assert record["seed"] == 0 and len(record["inputs_sha256"]) == 64
    assert {"nproc", "cpu_model", "python", "numpy", "blas_threads", "commit"} <= set(record["host"])


def test_traced_run_prints_every_per_layer_metric_and_the_predictions():
    process = bench("--workload", "realize", "--seed", "0", "--seconds", "1", "--trace", "1")
    result = result_of(process)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER_UNITS
    assert "prediction 'monoid spans are a negligible share of realize'" in process.stdout
    assert result["metrics"]["core.power.calls"]["value"] > 0
    assert result["metrics"]["numerics.limit_matrix.steps"]["value"] > 0


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    process = bench("--workload", "realize", "--seed", "0", "--seconds", "1", cwd=tmp_path,
                    timeout=180)
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout


@pytest.mark.parametrize("workload", ["analyze-random", "realize"])
def test_seed_fixes_the_inputs(workload, tmp_path):
    digests = []
    for seed in (3, 3, 4):
        work = tmp_path / f"{len(digests)}"
        work.mkdir()
        digests.append(workloads.build(pkg, workload, seed, work).digest)
    assert digests[0] == digests[1] != digests[2]


def test_monoid_reduction_inputs_are_fixed(tmp_path):
    first, second = tmp_path / "1", tmp_path / "2"
    first.mkdir()
    second.mkdir()
    assert (workloads.build(pkg, "monoid-reduction", 5, first).digest
            == workloads.build(pkg, "monoid-reduction", 5, second).digest)


def test_committed_monoids_match_the_oracle():
    committed = json.loads(workloads.EXPECTED_PATH.read_text())["monoid-reduction"]
    for name, (rows, final) in workloads.REDUCTION_INPUTS.items():
        base = pkg.core.automaton_from_json(workloads.automaton_json({"a": rows}, final, ("a",)))
        built = pkg.reduction.build_reduction(base).automaton
        elements = oracle.closure([oracle.support(built.transition(a).entries)
                                   for a in built.alphabet])
        assert committed[name] == {"elements": len(elements),
                                   "digest": workloads.monoid_digest(map(oracle.bitstring, elements))}


def test_oracle_agrees_with_the_package_on_random_automata():
    import random
    rng = random.Random(7)
    for _ in range(40):
        transitions, final = workloads.random_automaton(rng, rng.choice((2, 3)))
        automaton = pkg.core.automaton_from_json(workloads.automaton_json(transitions, final))
        monoid = pkg.monoid.markov_monoid(automaton)
        elements = oracle.closure(list(workloads.letter_supports(transitions).values()))
        assert {e.matrix.bitstring() for e in monoid} == set(map(oracle.bitstring, elements))
        yes, _ = oracle.decide(list(workloads.letter_supports(transitions).values()), (0,),
                                workloads.final_mask(final))
        assert yes == (pkg.monoid.find_value1_witness(monoid, automaton) is not None)


def package_bindings():
    return {(module.__name__, name): value
            for module in list(sys.modules.values())
            if module is not None and module.__name__.startswith(tracing.PACKAGE)
            for name, value in vars(module).items() if callable(value)}


def test_tracer_restores_every_binding_by_identity():
    before = package_bindings()
    power = pkg.core.StochasticMatrix.__dict__["power"]
    tracer = tracing.Tracer()
    with tracer:
        replaced = tracer.bindings()
        assert pkg.cli.markov_monoid is not before[("prostochastic.cli", "markov_monoid")]
        assert pkg.omega.boolean_product is not before[("prostochastic.omega", "boolean_product")]
        assert pkg.numerics.boolean_projection is not before[("prostochastic.numerics",
                                                               "boolean_projection")]
        assert pkg.core.StochasticMatrix.__dict__["power"] is not power
    assert len(replaced) > len(tracing.TARGETS)
    for owner, attribute, original in replaced:
        assert getattr(owner, attribute) is original
    assert package_bindings() == before
    assert all(before[key] is value for key, value in package_bindings().items())
    assert pkg.core.StochasticMatrix.__dict__["power"] is power


def test_traced_answers_equal_untraced(tmp_path):
    workload = workloads.build(pkg, "realize", 2, tmp_path)
    untraced = run.run_passes(workload, 0)
    tracer = tracing.Tracer()
    with tracer:
        traced = run.run_passes(workload, 0, tracer)
    assert untraced.problems == [] and traced.problems == []
    assert traced.answers == untraced.answers
    assert tracer.calls("core.power") > 0 and tracer.calls("numerics.limit_matrix") > 0
