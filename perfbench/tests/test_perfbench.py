"""Tests for the benchmark itself: span arithmetic, wrapper restoration,
answer and count checking, speed rescaling and the λ pool.  Run with

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import hashlib
import json
import sys

import pytest

import probe
import run
import spans
from spans import Span, Tracer
from workloads import CRITICAL_LEVEL, LAMBDA_POOL, WORKLOADS, lambda_draws, lambda_key

MAIN, WORKER = 1, 2


def synthetic_tree():
    # A (main root) calls B, which calls C; an aggregated call in A over
    # [4.5, 6.5] (hot_child 2.0) contains the recorded D; a worker-thread
    # root E over [6.5, 9] with child F is adopted by A.
    return [
        Span(1, None, False, MAIN, "A", 0.0, 10.0, 2.0),
        Span(2, 1, False, MAIN, "B", 1.0, 4.0, 0.0),
        Span(3, 2, False, MAIN, "C", 2.0, 3.0, 0.0),
        Span(4, 1, True, MAIN, "D", 5.0, 6.0, 0.0),
        Span(5, None, False, WORKER, "E", 6.5, 9.0, 0.0),
        Span(6, 5, False, WORKER, "F", 7.0, 8.0, 0.0),
    ]


def test_self_time_on_synthetic_span_tree():
    got = spans.self_times(synthetic_tree(), MAIN)
    assert got == pytest.approx({1: 2.5, 2: 2.0, 3: 1.0, 4: 1.0, 5: 1.5, 6: 1.0})


def test_unattributed_and_interval_union():
    tree = synthetic_tree()
    assert spans.unattributed(tree, 0.0, 10.0) == pytest.approx(0.0)
    assert spans.unattributed(tree, -1.0, 11.0) == pytest.approx(2.0)
    assert spans.covered_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)], 0.5, 5.5) == pytest.approx(3.0)


def test_tail_percentile_needs_ten_samples_beyond():
    vals = list(range(1, 101))
    assert run.tail_percentile(vals, 90) == 90
    assert run.tail_percentile(vals[:40], 90) == 30  # highest with 10 above it
    assert run.tail_percentile([], 90) == 0.0


def _bindings():
    """Every (owner, attribute) a tracer target is bound at, with its value."""
    import importlib

    found = {}
    for modname, *_ in spans.TARGETS:
        importlib.import_module(modname)
    for modname, qualname, *_ in spans.TARGETS:
        owner = importlib.import_module(modname)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        if isinstance(owner, type):
            found[(owner, attr)] = owner.__dict__[attr]
            continue
        for name, mod in list(sys.modules.items()):
            if name == "semiflex" or name.startswith("semiflex."):
                for key, val in vars(mod).items():
                    if val is original:
                        found[(mod, key)] = val
    from semiflex.modules import WeightModule

    found[(WeightModule, "__init__")] = WeightModule.__dict__["__init__"]
    return found


def _first_lambda(seed):
    return next(lambda_draws(seed))


def _answer(name, depth, seed, tmp_path):
    wl = WORKLOADS[name]
    state = wl.setup(depth, _first_lambda(seed), str(tmp_path))
    return wl.fingerprint(state, wl.run(state))


def _traced(name, depth, seed, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        fp = _answer(name, depth, seed, tmp_path)
        tracer.active = False
        report = tracer.report(0.0, 1.0)
        tracer.dump(tmp_path / "spans.jsonl")
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    dumped = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(dumped) == len(tracer.spans()) > 0
    return fp, report["metrics"]


def test_wrappers_restored_after_traced_run_with_identical_answers(tmp_path):
    before = _bindings()
    plain = _answer("wakcoh", 3, 0, tmp_path)
    traced, metrics = _traced("wakcoh", 3, 0, tmp_path)
    after = _bindings()
    assert set(after) == set(before)
    assert all(after[k] is v for k, v in before.items())
    assert traced == plain
    assert metrics["linalg.solve_in_span.calls"] > 0
    assert metrics["forms.enumerate_forms.calls"] > 0
    assert all(v >= 0 for v in metrics.values())


def test_counts_repeat_between_traced_runs(tmp_path):
    for name, depth in (("wakcoh", 3), ("oracle", 4), ("univ", 4)):
        _, m1 = _traced(name, depth, 1, tmp_path)
        _, m2 = _traced(name, depth, 1, tmp_path)
        counted = [n for n, unit, _ in run.PER_LAYER if unit == "count" and n in m1]
        assert counted
        assert {n: m1[n] for n in counted} == {n: m2[n] for n in counted}


def test_count_mismatch_between_traced_jobs_fails_the_job():
    def traced(calls, ratio=0.5):
        metrics = {"linalg.rank.calls": calls, "linalg.rank.repeat_ratio": ratio, "linalg.rank.s": calls / 7}
        return {"trace": True, "ok": True, "reason": "", "metrics": metrics}

    records = [traced(10), {"trace": False, "ok": True}, traced(10), traced(11), traced(10, 0.6)]
    run.check_counts(records)
    assert [r["ok"] for r in records] == [True, True, True, False, False]
    assert "linalg.rank.calls" in records[3]["reason"]
    assert "linalg.rank.repeat_ratio" in records[4]["reason"]


def test_rescale_uses_robust_mean_and_keeps_wall_time_when_samples_fail():
    ref = probe.REFERENCE_S
    samples = [ref] * 6 + [2 * ref] * 4 + [50 * ref]  # two speed states and one preempted sample
    assert probe.typical_sample(samples) == pytest.approx(1.4 * ref)
    wall = len(samples) * probe.INTERVAL
    spent = sum(samples)
    job, setup, corrected = probe.rescale(wall, 0.2, samples, cpu_s=wall)
    assert corrected
    assert job == pytest.approx((wall - spent) / 1.4)
    assert setup == pytest.approx(0.2 / 1.4)
    # More than PARALLEL_CORES busy cores: the samples competed with the job.
    assert probe.rescale(wall, 0.2, samples, cpu_s=2 * wall) == (pytest.approx(wall - spent), 0.2, False)
    # Too few samples for the job's length, or none at all.
    assert probe.rescale(4 * wall, 0.2, samples, cpu_s=wall) == (pytest.approx(4 * wall - spent), 0.2, False)
    assert probe.rescale(0.03, 0.2, [], cpu_s=0.03) == (0.03, 0.2, False)


def _record(name, key, fingerprint):
    return {"workload": name, "lambda": key, "returncode": 0, "error": None, "fingerprint": fingerprint}


def test_corrupted_table_reported_as_failed(tmp_path):
    from workloads import table_fingerprint

    wl = WORKLOADS["wakcoh"]
    hk = LAMBDA_POOL[4]
    key = lambda_key(hk)
    state = wl.setup(3, hk, str(tmp_path))
    table = wl.run(state)
    good = wl.fingerprint(state, table)
    reference = {"wakcoh": {"depth": wl.depth, "by_lambda": {key: good}}}
    assert run.judge(_record("wakcoh", key, good), reference) == (True, "")

    cell = next(iter(table.cells))
    table.cells[cell] += 1
    bad = dict(good, **table_fingerprint(table))
    ok, reason = run.judge(_record("wakcoh", key, bad), reference)
    assert not ok and "table_sha256" in reason

    crashed = dict(_record("wakcoh", key, good), error="Traceback\nInductionError: escaped")
    assert run.judge(crashed, reference) == (False, "InductionError: escaped")
    assert not run.judge(dict(_record("wakcoh", key, good), returncode=1), reference)[0]
    assert not run.judge(_record("wakcoh", lambda_key(LAMBDA_POOL[0]), good), reference)[0]


def test_changed_csv_byte_reported_as_failed(tmp_path):
    wl = WORKLOADS["uscoh_cli"]
    golden = (run.HERE / "golden" / "uscoh_cli.csv").read_bytes()
    reference = json.loads((run.HERE / "reference.json").read_text())
    out = tmp_path / "uscoh.csv"
    out.write_bytes(golden)
    state = {"out": str(out)}
    assert run.judge(_record("uscoh_cli", None, wl.fingerprint(state, 0)), reference) == (True, "")
    out.write_bytes(golden.replace(b"\r\n0,0,0,1", b"\r\n0,0,0,2"))
    ok, reason = run.judge(_record("uscoh_cli", None, wl.fingerprint(state, 0)), reference)
    assert not ok and "csv_sha256" in reason


def test_every_lambda_is_non_critical_and_reachable():
    assert all(k != CRITICAL_LEVEL for _h, k in LAMBDA_POOL)
    assert len(set(LAMBDA_POOL)) == len(LAMBDA_POOL)
    for seed in range(20):
        draws = lambda_draws(seed)
        first = [next(draws) for _ in range(200)]
        assert set(first) == set(LAMBDA_POOL)
        again = lambda_draws(seed)
        assert [next(again) for _ in range(200)] == first


def test_reference_covers_every_lambda_and_golden_csv():
    reference = json.loads((run.HERE / "reference.json").read_text())
    for name, wl in WORKLOADS.items():
        assert reference[name]["depth"] == wl.depth
        if wl.uses_lambda:
            assert set(reference[name]["by_lambda"]) == {lambda_key(hk) for hk in LAMBDA_POOL}
    golden = (run.HERE / "golden" / "uscoh_cli.csv").read_bytes()
    assert hashlib.sha256(golden).hexdigest() == reference["uscoh_cli"]["fingerprint"]["csv_sha256"]
    assert reference["uscoh_cli"]["fingerprint"]["nonzero"] == [[[0, 0], 0, 1]]
    assert reference["univ"]["fingerprint"]["passed"] is True


@pytest.mark.parametrize("seed", [0, 1, 4, 9])
def test_lambda_independent_fingerprints_hold_at_depth_4(seed, tmp_path):
    wak = _answer("wakcoh", 4, seed, tmp_path)
    assert wak["nonzero"] == [[[0, 0], 0, 1]]
    assert wak["euler_consistent"] and wak["character_is_product_formula"]
    assert wak == _answer("wakcoh", 4, 3, tmp_path)
    orc = _answer("oracle", 4, seed, tmp_path)
    assert orc["commutator_failures"] == [] and orc["character_is_product_formula"]
    assert orc == _answer("oracle", 4, 3, tmp_path)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["perfbench"]
