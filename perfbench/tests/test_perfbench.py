"""Tests of the benchmark itself: span arithmetic, tail rule, metric names,
wrapper restoration, the probe adjustment and the store checks.

Run with ``python3 -m pytest perfbench/tests -q``; the repository's own
test run collects only ``tests/``.
"""

import importlib
import json
import shutil
import types
from pathlib import Path

import numpy as np
import pytest

import spans
import speed
from checks import check_store, compare_digests, digests
from metrics import END_TO_END, NAME_RE, PER_LAYER, layer_metrics, tail_percentile
from workloads import WORKLOADS, Workload, call_cli, reference_from

ROOT = Path(__file__).resolve().parents[2]


def _span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent, None, "run")


def test_self_time_subtracts_nested_and_sibling_children():
    tree = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 4.0, parent=0),
        _span("c", 5.0, 7.0, parent=0),
        _span("d", 2.0, 3.0, parent=1),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [_span("a", 0.0, 10.0), _span("b", 1.0, 5.0, 0), _span("c", 3.0, 6.0, 0), _span("d", 9.0, 12.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_links_parents_and_requests():
    rec = spans.Recorder()
    leaf = rec.wrap("leaf", lambda x: x)
    inner = rec.wrap("inner", lambda x: leaf(x) + leaf(x))
    outer = rec.wrap("outer", lambda cell, rep: inner(rep), request_of=lambda args: (args[0], args[1]))
    rec.phase = "run"
    assert outer("c1", 3) == 6
    assert [(s.name, s.parent, s.request) for s in rec.spans] == [
        ("outer", -1, ("c1", 3)),
        ("inner", 0, ("c1", 3)),
        ("leaf", 1, ("c1", 3)),
        ("leaf", 1, ("c1", 3)),
    ]
    own = spans.self_times(rec.spans)
    assert all(t >= 0.0 for t in own)
    assert sum(own) == pytest.approx(rec.spans[0].duration)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile([float(i) for i in range(199)], 95) is None
    assert tail_percentile([float(i) for i in range(200)], 95) == 189.0
    assert tail_percentile([], 95) is None


def test_metric_names_use_the_allowed_charset_and_are_unique():
    names = [name for name, _, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    assert not NAME_RE.match("bad name")
    assert not NAME_RE.match("x" * 65)


def test_benchmark_json_declares_the_metrics_the_code_emits():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(PER_LAYER)
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    empty = layer_metrics(spans.Recorder(), 1.0, 1.0, 0, 0.0)
    assert list(empty) == [name for name, _, _ in PER_LAYER]


def test_patched_restores_originals_even_when_the_body_raises():
    module = types.ModuleType("fake")
    module.f = original = lambda: 1
    with pytest.raises(RuntimeError):
        with spans.patched([(module, "f", spans.timed(module.f, "oracle", [], None))]):
            assert getattr(module.f, spans.WRAPPER_MARK)
            raise RuntimeError("boom")
    assert module.f is original


def test_trace_wrappers_are_all_restored():
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a in spans.ALL_SITES}
    rec = spans.Recorder()
    with spans.patched(spans.trace_replacements(rec)):
        with pytest.raises(RuntimeError, match="wrappers left installed"):
            spans.assert_unwrapped(spans.ALL_SITES)
    spans.assert_unwrapped(spans.ALL_SITES)
    for (m, a), func in originals.items():
        assert getattr(importlib.import_module(m), a) is func


def test_local_medians_take_the_window_on_either_side():
    assert speed.local_medians([1.0, 9.0, 2.0, 8.0, 3.0], window=1) == [5.0, 2.0, 8.0, 3.0, 5.5]
    assert speed.local_medians([4.0], window=5) == [4.0]


def test_adjust_scales_calls_by_their_probes_and_takes_probes_out():
    slow = 2 * speed.PROBE_NOMINAL_S
    calls = [speed.Timed("oracle", 0, 0.1, slow), speed.Timed("replicate", 100, 0.2, slow)]
    adjusted = speed.adjust(0.1 + 0.2 + 2 * slow + 0.05, calls)
    assert adjusted.raw_s == pytest.approx(0.35)
    assert adjusted.total_s == pytest.approx(0.175)
    assert adjusted.oracle_s == pytest.approx(0.05)
    assert adjusted.replicates == [(100, pytest.approx(0.1))]
    assert adjusted.probe_s == slow
    with pytest.raises(ValueError):
        speed.adjust(1.0, [])


def test_timed_runs_the_probe_after_the_call_and_records_it():
    order = []

    def probe():
        order.append("probe")
        return 0.25

    sink = []
    wrapped = spans.timed(lambda cfg: order.append("call") or 7, "replicate", sink, probe, lambda args: 3)
    assert wrapped(None) == 7
    assert order == ["call", "probe"]
    (record,) = sink
    assert (record.kind, record.cohort_n, record.probe_s) == ("replicate", 3, 0.25)
    assert 0.0 <= record.seconds < 0.25


def test_probe_returns_a_positive_time_and_fixed_results():
    probe = speed.Probe()
    assert probe() > 0.0
    beta_a, table_a = probe.work()
    beta_b, table_b = speed.Probe().work()
    assert np.array_equal(beta_a, beta_b) and table_a == table_b


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    store = tmp_path_factory.mktemp("store") / "s"
    call_cli(
        [
            "run", "--scenarios", "1", "--settings", "1,3", "--prevalences", "0.50", "--arms", "effect",
            "--methods", "LR,IPW", "--n-reps", "4", "--calibration-n", "2000", "--truth-n", "2000",
            "--output-dir", str(store), "--quiet",
        ]
    )
    return store


CELLS = ["s1t1p050_effect", "s1t3p050_effect"]


def _copy(store: Path, tmp_path: Path) -> Path:
    target = tmp_path / "copy"
    shutil.copytree(store, target)
    return target


def test_check_accepts_an_intact_store(small_store):
    result = check_store(small_store, CELLS, ("LR", "IPW"), 4)
    assert result.problems == []
    assert result.records == 16


def test_check_rejects_a_store_truncated_by_one_row(small_store, tmp_path):
    store = _copy(small_store, tmp_path)
    path = store / "cells" / f"{CELLS[1]}_records.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    result = check_store(store, CELLS, ("LR", "IPW"), 4)
    assert result.incomplete == [CELLS[1]]
    assert result.problems


def test_check_rejects_a_store_with_one_flipped_byte(small_store, tmp_path):
    store = _copy(small_store, tmp_path)
    path = store / "cells" / f"{CELLS[0]}_records.csv"
    data = bytearray(path.read_bytes())
    row = data.index(b"\nLR,1,") + len(b"\nLR,1,")
    # The first digit of an ATT value: the records no longer give the metrics.
    data[row + (1 if data[row : row + 1] == b"-" else 0)] ^= 0x01
    path.write_bytes(bytes(data))
    assert check_store(store, CELLS, ("LR", "IPW"), 4).problems
    assert compare_digests(digests(store), digests(small_store), "twin")


def test_check_rejects_a_store_off_its_reference(small_store):
    wl = Workload("t", "", (1,), (1, 3), ("0.50",), ("effect",), ("LR", "IPW"), 4, 2000, 2000)
    reference = reference_from(small_store, wl)
    assert check_store(small_store, CELLS, ("LR", "IPW"), 4, reference).problems == []
    reference[CELLS[0]]["LR"]["bias"] += 1e-6
    assert check_store(small_store, CELLS, ("LR", "IPW"), 4, reference).problems
