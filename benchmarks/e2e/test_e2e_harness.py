"""Self-tests of the end-to-end benchmark harness; no simulation runs.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import statistics
import sys

import pytest

import compare
import run as harness
import traced


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "trace": None}


def test_summarize_uses_exclusive_quartiles():
    stats = harness.summarize([4.0, 1.0, 3.0, 2.0])
    assert stats == {"best": 1.0, "median": 2.5, "q1": 1.25, "q3": 3.75,
                     "n": 4}
    values = [0.3, 0.1, 0.9, 0.4, 0.7, 0.2, 0.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert harness.summarize(values)["q1"] == q1
    assert harness.summarize(values)["q3"] == q3
    assert harness.summarize([7.0]) == {"best": 7.0, "median": 7.0,
                                        "q1": 7.0, "q3": 7.0, "n": 1}
    assert set(harness.REPORTED) == set(harness.END_TO_END)
    assert set(harness.REPORTED.values()) <= set(stats)


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [span("trace.root", 0.0, 10.0, -1),
             span("a", 1.0, 6.0, 0),
             span("a.first", 2.0, 3.0, 1),
             span("a.second", 4.0, 5.5, 1),
             span("b", 7.0, 9.0, 0)]
    assert harness.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.5,
                                                       2.0])


def test_tracer_records_parents_and_trace_ids(tmp_path):
    class Layer:
        def outer(self, label):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    tracer = traced.Tracer(0.0)
    tracer.wrap(Layer, "outer", "outer", trace_of=lambda layer, label: label)
    tracer.wrap(Layer, "inner", "inner",
                after=lambda result, *a: tracer.bump("inner.calls"))
    with tracer.span("block"):
        assert Layer().outer("cell:a") == 2
    tracer.write(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(lines[0]) == {"counts": {"inner.calls": 2}}
    spans = [json.loads(line) for line in lines[1:]]
    assert [(s["name"], s["parent"], s["trace"]) for s in spans] == [
        ("trace.root", -1, None), ("block", 0, None), ("outer", 1, "cell:a"),
        ("inner", 2, "cell:a"), ("inner", 2, "cell:a")]
    assert all(s["start"] <= s["end"] for s in spans)


def test_layer_metrics_split_self_and_inclusive_times():
    spans = [span("trace.root", 0.0, 12.0, -1),
             span("cli.import", 0.0, 1.0, 0),
             span("report.generate", 1.0, 11.0, 0),
             span("runner.run_cells", 2.0, 5.0, 2),
             span("runner.execute_cell", 2.5, 4.5, 3),
             span("analysis.merge", 5.0, 5.5, 2),
             span("boot.kernel", 6.0, 7.0, 2)]
    metrics = harness.layer_metrics(spans, {"hw.bus_peek": 5}, [],
                                    traced_wall=12.5, run_s=10.0)
    assert metrics["cli.import_s"] == pytest.approx(1.0)
    assert metrics["analysis.merge_s"] == pytest.approx(0.5)
    assert metrics["runner.dispatch_self_s"] == pytest.approx(1.0)
    assert metrics["runner.cell_self_s"] == pytest.approx(2.0)
    assert metrics["boot.kernel_s"] == pytest.approx(1.0)
    assert metrics["hw.bus_peek_n"] == 5
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)
    assert metrics["trace.unattributed_frac"] == pytest.approx(1.0 / 12.0)
    assert set(metrics) == set(harness.LAYER_METRICS)


def sample(stdout, code=0):
    return harness.Sample(wall=1.0, rss_mb=1.0, code=code, stdout=stdout,
                          stderr="")


def test_tampered_stdout_counts_as_failure():
    checker = harness.Checker("table1", seed=0)
    golden = checker.golden
    assert checker.judge("cold", sample(golden),
                         checker.stdout_problems(golden))
    tampered = golden.replace("1", "2", 1)
    assert not checker.judge("cold", sample(tampered),
                             checker.stdout_problems(tampered))
    assert not checker.judge("cold", sample(golden, code=1))
    assert checker.attempted == 3
    assert len(checker.failures) == 2
    assert "differs from expected/table1.txt" in checker.failures[0]


def test_fuzz_timing_line_is_dropped_and_other_seeds_self_compare():
    checker = harness.Checker("fuzz", seed=0)
    timed = "10 example(s), 80 operation(s), 10 differential gate(s) in 5.5s\n"
    head, _, tail = checker.golden.partition("\n\n")
    assert checker.stdout_problems(f"{head}\n\n{timed}{tail}") == []

    other = harness.Checker("fuzz", seed=12345)
    assert other.golden is None
    clean = f"stats: 1\n\n{harness.FUZZ_CLEAN}\n"
    assert other.stdout_problems(clean) == []
    assert other.stdout_problems(clean.replace("1", "2")) != []
    assert other.stdout_problems("FUZZ FAILURE: boom\n") != []


def write_payloads(directory, cells, overrun=0, skew=0):
    directory.mkdir()
    for index, (label, golden) in enumerate(sorted(cells.items())):
        checks = [{"component": "mbm_fifo", "counter": "overrun",
                   "value": overrun, "waived": False, "description": ""}]
        payload = {"accesses": golden["accesses"],
                   "sim_cycles": golden["sim_cycles"] + skew,
                   "metrics": {"components": {}, "gauges": {},
                               "checks": checks}}
        (directory / f"{index}.json").write_text(json.dumps(
            {"schema": 1, "cell": label, "payload": payload}))


def test_failed_integrity_check_in_payload_counts_as_failure(tmp_path):
    checker = harness.Checker("table2", seed=0)
    write_payloads(tmp_path / "clean", checker.cells)
    problems, payloads = checker.payload_problems(tmp_path / "clean")
    assert problems == [] and len(payloads) == len(checker.cells)

    write_payloads(tmp_path / "lossy", checker.cells, overrun=3)
    problems, _ = checker.payload_problems(tmp_path / "lossy")
    assert any("integrity check mbm_fifo.overrun = 3" in p for p in problems)
    assert not checker.judge("cold", sample(checker.golden), problems)
    assert checker.attempted == 1 and len(checker.failures) == 1

    write_payloads(tmp_path / "drift", checker.cells, skew=1)
    problems, _ = checker.payload_problems(tmp_path / "drift")
    assert len(problems) == len(checker.cells)
    assert all("differs from golden" in p for p in problems)

    (tmp_path / "empty").mkdir()
    problems, _ = checker.payload_problems(tmp_path / "empty")
    assert all("no payload" in p for p in problems) and problems


def test_repro_variables_do_not_reach_the_child(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_BACKEND", "fabric")
    monkeypatch.setenv("REPRO_MACROOPS", "0")
    env = harness.child_env(tmp_path, tmp_path / "cache")
    probe = ("import json, os; print(json.dumps({k: v for k, v in "
             "os.environ.items() if k.startswith('REPRO_')}))")
    result = harness.run_child([sys.executable, "-c", probe], tmp_path, env,
                               timeout=60)
    assert result.code == 0 and result.rss_mb > 0
    assert json.loads(result.stdout) == {
        "REPRO_CACHE_DIR": str(tmp_path / "cache")}


def test_child_outliving_its_timeout_is_killed(tmp_path):
    result = harness.run_child(
        [sys.executable, "-c", "import time; time.sleep(60)"], tmp_path,
        harness.child_env(tmp_path), timeout=0.5)
    assert result.code == -9
    assert result.wall < 30


def stats(median, spread=0.0):
    return {"value": median, "median": median, "q1": median - spread / 2,
            "q3": median + spread / 2}


@pytest.mark.parametrize("new, better, expected", [
    (stats(10.5, 0.2), "lower", "within bound"),
    (stats(11.5, 0.2), "lower", "worse"),
    (stats(8.5, 0.2), "lower", "better"),
    (stats(8.5, 0.2), "higher", "worse"),
    (stats(10.0, 1.5), "lower", "unresolved"),
    (dict(stats(10.0, 0.2), value=11.5), "lower", "worse"),
])
def test_compare_verdicts(new, better, expected):
    assert compare.verdict(stats(10.0, 0.2), new, 0.1, better) == expected


def test_compare_reads_result_files(tmp_path, capsys):
    def result(median):
        return {"workloads": {"table1": {"metrics": {
            "run_s": dict(stats(median, 0.1), unit="s", n=5)}}}}

    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(result(2.0)))
    new.write_text(json.dumps(result(2.0 * 1.5)))
    assert compare.main([str(base), str(new)]) == 1
    assert "worse" in capsys.readouterr().out
    new.write_text(json.dumps(result(2.01)))
    assert compare.main([str(base), str(new)]) == 0
    assert "within bound" in capsys.readouterr().out


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads(compare.BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        harness.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == \
        harness.DEFAULT_WORKLOADS
    assert set(harness.DEFAULT_WORKLOADS) <= set(harness.WORKLOADS)
