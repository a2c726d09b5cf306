"""The benchmark's own checks: the reference is right, each check bites, and
the host-speed slicing times what it should.

Run with the package on the path:

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import importlib.util
import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from checks import check_integrity, check_reference, check_rows, check_same, verdict_row
from hostspeed import SLICE_S, HostSpeed, Sliced, run_sliced
from reference import ReferenceModel, reference_decision
from run_bench import END_TO_END, per_layer_units
from spamrank import EngineConfig, SpamRankEngine, read_records

ROOT = Path(__file__).resolve().parent.parent
CFG = EngineConfig()


def _golden_expected():
    spec = importlib.util.spec_from_file_location(
        "golden_trace_for_bench", ROOT / "tests" / "golden_trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GOLDEN_EXPECTED


@pytest.fixture(scope="module")
def golden():
    records, _ = read_records(str(ROOT / "tests" / "data" / "golden_corpus.jsonl"))
    engine = SpamRankEngine(CFG)
    rows = [verdict_row(engine.process(r)) for r in records]
    return records, rows


def _replace(rows, i, field, value):
    out = list(rows)
    row = list(out[i])
    row[field] = value
    out[i] = tuple(row)
    return out


def test_reference_reproduces_the_hand_derived_golden_trace(golden):
    records, _ = golden
    model = ReferenceModel(CFG.tau)
    for record, (msg_id, p_s, p_r, sr, decision, _) in zip(records, _golden_expected()):
        got_s, got_r = model.step(record)
        assert record.msg_id == msg_id
        assert abs(float(got_s) - p_s) < 1e-12 and abs(float(got_r) - p_r) < 1e-12
        assert abs(float((got_s + got_r) / 2) - sr) < 1e-12
        assert reference_decision(got_s, got_r, CFG.omega) == decision


def test_reference_leaves_band_edges_undecided():
    edge = 1 - Fraction(CFG.omega)
    assert reference_decision(edge, edge, CFG.omega) is None
    assert reference_decision(Fraction(0), Fraction(1, 10), CFG.omega) == "legit"


def test_checks_pass_on_the_engine_output(golden):
    records, rows = golden
    assert check_rows(records, rows, CFG.omega) == []
    assert check_reference(records, rows, len(records), CFG.tau, CFG.omega) == []
    assert check_same(rows, list(rows), "copy") == []


@pytest.mark.parametrize("field, value", [
    (0, "m99"),       # id not the one sent
    (1, 1.5),         # p_s out of [0, 1]
    (3, 0.5),         # sr not the mean of p_s and p_r
    (4, "deferred"),  # decision outside the omega band
    (5, "ham"),       # aux does not echo the input
    (6, "ham"),       # effective label contradicts the decision
])
def test_check_rows_rejects_a_corrupted_verdict(golden, field, value):
    records, rows = golden
    assert check_rows(records, _replace(rows, 0, field, value), CFG.omega)


def test_check_rows_rejects_missing_and_reordered_verdicts(golden):
    records, rows = golden
    assert check_rows(records, rows[:-1], CFG.omega)
    assert check_rows(records, [rows[1], rows[0], *rows[2:]], CFG.omega)


def test_check_reference_rejects_a_shifted_probability_or_decision(golden):
    records, rows = golden
    shifted = _replace(rows, 5, 2, rows[5][2] + 1e-6)
    assert check_reference(records, shifted, len(records), CFG.tau, CFG.omega)
    flipped = _replace(rows, 2, 4, "spam")
    assert check_reference(records, flipped, len(records), CFG.tau, CFG.omega)


def test_check_reference_rejects_a_corrupted_assignment(golden):
    records, _ = golden
    engine = SpamRankEngine(CFG)
    rows = [verdict_row(engine.process(r)) for r in records[:6]]
    # move the spam sender d1.example into the ham senders' cluster by hand,
    # keeping every cache consistent, so only the verdicts can tell
    space = engine.sender_side
    d1, l1 = engine.senders.intern("d1.example"), engine.senders.intern("l1.org")
    space._detach(d1, space.user_cluster[d1])
    space._attach(d1, space.user_cluster[l1])
    engine.check_integrity()
    rows += [verdict_row(engine.process(r)) for r in records[6:]]
    assert check_reference(records, rows, len(records), CFG.tau, CFG.omega)


def test_check_integrity_rejects_a_corrupted_assignment(golden):
    records, _ = golden
    engine = SpamRankEngine(CFG)
    for r in records:
        engine.process(r)
    assert check_integrity(engine) == []
    space = engine.sender_side
    uid = next(iter(space.user_cluster))
    space.user_cluster[uid] = max(space.clusters) + 1
    assert check_integrity(engine)


def test_check_same_rejects_a_changed_resumed_verdict(golden):
    _, rows = golden
    assert check_same(_replace(rows, 9, 1, rows[9][1] / 2), rows, "resumed run")
    assert check_same(rows[:5], rows, "resumed run")


def test_benchmark_json_names_every_metric_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_sliced_counts_the_block_and_not_the_probes():
    host = HostSpeed()
    before = len(host.times)
    with Sliced(host) as clock:
        deadline = time.perf_counter() + 6 * SLICE_S
        while time.perf_counter() < deadline:
            pass
    probes = host.times[before:]
    assert len(probes) >= 3  # one before, one per slice, one after
    # the block's wall time is its slices plus the probes between them
    assert abs(clock.raw_seconds + sum(probes[1:-1]) - 6 * SLICE_S) < 0.02
    assert clock.seconds > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_run_sliced_reports_the_child_cpu_time_and_exit_code():
    host = HostSpeed()
    ref, raw, peak, code = run_sliced(
        host, [sys.executable, "-c",
               "import sys, time\n"
               "t = time.process_time() + 0.2\n"
               "while time.process_time() < t: pass\n"
               "sys.exit(3)"])
    assert code == 3
    assert 0.2 <= raw < 1.0 and ref > 0
    assert peak > 1.0  # MB: an interpreter is resident
