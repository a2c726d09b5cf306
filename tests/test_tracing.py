"""The benchmark's tracer still finds every function it wraps.

`bench/tracing.py` patches spamrank's public functions by name from
outside the package; a rename here would otherwise leave its spans empty
without any error. Run as part of the tier-1 suite.
"""

import importlib.util
from pathlib import Path

from spamrank.cli import EXIT_OK, main

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing_for_tests", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_save_and_resume_enter_every_traced_layer(tmp_path, golden_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the benchmark opens the cli span itself, around main
        state = tmp_path / "state.json"
        assert tracer.call("cli", main, [
            "snapshot-save", "--input", str(golden_path), "--limit", "6",
            "--snapshot-out", str(state)]) == EXIT_OK
        assert tracer.call("cli", main, [
            "snapshot-load", "--input", str(golden_path), "--snapshot-in", str(state),
            "--output", str(tmp_path / "tail.jsonl")]) == EXIT_OK
    finally:
        tracer.uninstall()
    spans = tmp_path / "spans.tsv"
    tracer.write_spans(spans)
    entered = {line.split("\t")[2] for line in spans.read_text().splitlines()[1:]}
    expected = set(tracing.SPAN_NAMES) - {"synthgen.generate"}
    assert expected - entered == set()
