"""Smoke tests of the benchmark itself, on the smallest algebras.

    python3 -m pytest -q perfbench
"""

import importlib
import json
import os
import random
import subprocess

import checks
import run
import workloads
from tracing import NullTracer, Tracer

SPEC = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")


def _spec_units(section):
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _tiny_run(workload, tracer):
    return run.run_workload(workload, seed=7, passes=1, tracer=tracer)


def test_every_metric_is_emitted_with_its_unit():
    plain = _tiny_run(workloads.Stream(["osp:1|2"]), NullTracer())
    result = run.result(run.end_to_end(plain), run.END_TO_END, plain.tally)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        _spec_units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())

    workload = workloads.Relations(["osp:1|2"])
    tracer = Tracer("test")
    traced = _tiny_run(workload, tracer)
    metrics, _ = run.per_layer(tracer, traced, workload, 7)
    result = run.result(metrics, run.PER_LAYER, traced.tally)
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        _spec_units("per_layer")


def test_corrupted_outputs_raise_fail_ratio():
    pkg = importlib.import_module("minwsuper")
    outcome = workloads.Relations(["osp:1|2"]).op(pkg, "osp:1|2",
                                                  NullTracer())()
    assert outcome.problems == []

    wal = outcome.workspace
    gr = wal.grading
    report = pkg.wgen.verify_relations(gr)
    tdigest = checks.table_digest(wal, wal.commutator_table,
                                  pkg.wgen.render_monomial)
    assert checks.check_relations("osp:1|2", report, report, tdigest) == []
    bad_case = json.loads(json.dumps(report))
    bad_case["identities"][0]["cases"] += 1
    bad_c0 = pkg.wgen.compute_c0(gr) + pkg.scalar(1)

    cw = pkg.cartanw.build_cartan_w(gr)
    tally = run.Tally()
    tally.add(checks.check_relations("osp:1|2", report, report, tdigest))
    tally.add(checks.check_relations("osp:1|2", bad_case, bad_case, tdigest))
    tally.add(checks.check_relations("osp:1|2", report, bad_case, tdigest))
    tally.add(checks.check_constants("osp:1|2", bad_c0, None))
    tally.add(checks.check_product({(): 1}, {(): 2}, cw.unit(), cw.unit()))
    tally.add(checks.check_product({}, {}, cw.gen("C"), cw.unit()))
    assert (tally.attempted, tally.failed) == (6, 5)
    assert not run.result({}, {}, tally)["correct"]


def test_same_seed_gives_the_same_ops():
    workload = workloads.Stream(["osp:1|2", "sl:2|1"])
    state, problems = workload.prepare(
        importlib.import_module("minwsuper"), NullTracer())
    assert problems == []

    def ops(seed):
        rng = random.Random(seed)
        return [workload.pass_keys(state, rng) for _ in range(3)]

    assert ops(3) == ops(3)
    assert ops(3) != ops(4)
    first = ops(3)[0]
    assert sorted(first) == sorted(workload.keys(state))
    assert len(first) == len(set(first))

    sweep = workloads.Constants()
    assert sweep.pass_keys(None, random.Random(3)) == \
        sweep.pass_keys(None, random.Random(3))


def test_a_killed_workload_fails_the_run(monkeypatch, capsys):
    def killed(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, -9, stdout="")

    monkeypatch.setattr(run.subprocess, "run", killed)
    assert run.main(["--workload", "all"]) == 1
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct"] is False
