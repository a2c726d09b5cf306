#!/usr/bin/env python3
"""Replay a seeded spamrank workload and print its metrics.

    python3 bench/run_bench.py --workload long-stream --seed 1 --seconds 50 --trace 0
    python3 bench/run_bench.py                       # every workload in turn

The workload is generated from the seed with `spamrank.synthgen` and
written as JSONL; the program under test gets only that file. With
`--trace 0` the file is replayed, in whole rounds while they fit in
`--seconds` (at least MIN_ROUNDS), as a closed loop through `spamrank run`
in a subprocess and through `SpamRankEngine.process` in this process; each
round also replays the steady-state window and saves and loads the state
at the cut. Every timed section is cut into slices with a fixed probe of
the host's speed between them and reported in reference seconds
(hostspeed.py). With `--trace 1` the CLI's `main` is driven in this
process, once plain and once with spans around each module's functions,
and the per-layer split is printed. Every output is checked (see
checks.py). The last line of standard output is one JSON object: correct,
attempted, failed and metrics. Working files go to `.bench_out/` at the
repo root.
See README.md for the workloads, the metrics and how they are read.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 2
SETUPS = 2  # times the corpus is generated and written per round
PASSES = 3  # in-process passes over the whole stream per round
CHUNK = 1000  # records replayed between two host probes
TAIL_REPEATS = 4  # extra replays of the steady-state window per round
SERIES_WINDOWS = 10
REFERENCE_PREFIX = 300  # records the brute-force reference replays (it is quadratic)

END_TO_END = {
    "run_msg_s": "msg/s",
    "peak_rss_mb": "MB",
    "tail_msg_s": "msg/s",
    "process_p50_us": "us",
    "process_p99_us": "us",
    "snapshot_save_s": "s",
    "resume_s": "s",
    "snapshot_mb": "MB",
    "setup_s": "s",
}


def _import_program() -> None:
    """Put the checkout's src/ first on the path; refuse to run without it."""
    init = SRC / "spamrank" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"run_bench: no spamrank sources at {init}")
    sys.path.insert(0, str(SRC))
    import spamrank
    if Path(spamrank.__file__).resolve() != init.resolve():
        raise SystemExit(f"run_bench: imported spamrank from {spamrank.__file__}")


def per_layer_units() -> dict[str, str]:
    from tracing import COUNTERS, SPAN_NAMES, time_metric
    units = {time_metric(n): "s" for n in SPAN_NAMES}
    units.update({c: "count" for c in COUNTERS})
    units["snapshot.bytes"] = "bytes"
    units["trace.overhead_pct"] = "%"
    return units


def _file_digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def write_corpus(w, seed: int, path: Path, generate) -> None:
    """Generate the workload and write it as JSONL."""
    from spamrank import write_jsonl
    write_jsonl(str(path), generate(replace(w.spec, seed=seed)))


def read_corpus(path: Path):
    from spamrank import ParseStats, parse_stream
    stats = ParseStats()
    with open(path, encoding="utf-8") as fh:
        records = list(parse_stream(fh, stats=stats))
    return records, stats


def run_cli(host, argv: list[str], work: Path) -> tuple[float, float, float, int]:
    """One `spamrank` subprocess, sliced (hostspeed.run_sliced): its CPU
    time in reference and host seconds, peak RSS in MB, exit code."""
    from hostspeed import run_sliced
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "cli.stderr", "ab") as err:
        return run_sliced(host, [sys.executable, "-m", "spamrank.cli", *argv],
                          env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=err)


def replay(records, engine, host, marks=()):
    """Feed records to `engine` in a closed loop, one timed call each.

    The records go in chunks of CHUNK, each between two host probes, and a
    chunk's latencies are scaled by its probes (hostspeed.py). Returns
    per-record latencies in reference ns, verdict rows (None where process
    raised: a failed operation, timed until it raised), and the engine
    pickled before each record index in `marks`.
    """
    from checks import verdict_row

    clock = time.perf_counter_ns
    latencies = array("d")
    rows = []
    states = {}
    host.probe()
    for start in range(0, len(records), CHUNK):
        raw = array("q")
        for i in range(start, min(start + CHUNK, len(records))):
            record = records[i]
            if i in marks:
                states[i] = pickle.dumps(engine, pickle.HIGHEST_PROTOCOL)
            t0 = clock()
            try:
                verdict = engine.process(record)
            except Exception as exc:  # counted by the caller
                verdict = None
                print(f"process({record.msg_id}) failed: {type(exc).__name__}: {exc}")
            raw.append(clock() - t0)
            rows.append(verdict and verdict_row(verdict))
        factor = host.factor()
        latencies.extend(ns * factor for ns in raw)
    return latencies, rows, states


def _freeze_own_objects() -> None:
    """Keep the benchmark's own objects (records, verdict rows) out of the
    collector's traversals, so that a timed section pays only for the
    garbage collection of the objects the program makes. Each timed
    section also starts right after a full collection, so the collector's
    counters, and with them where its pauses fall, are the same each time."""
    gc.collect()
    gc.freeze()


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(w, seed: int, seconds: float, work: Path) -> tuple[dict, int, int, list[str], list[str]]:
    """The untraced run: end-to-end metrics, operation counts, problems, notes.

    A round generates and writes the corpus SETUPS times, replays it once through
    `spamrank run` and PASSES times through `process`, replays the
    steady-state window TAIL_REPEATS more times, and saves the state at the
    cut and loads it, in turns, `w.snapshots` times. Rounds repeat while they fit in
    `seconds`, and at least MIN_ROUNDS times. Every timed section sits between two
    host probes and is reported in reference seconds (hostspeed.py); each
    metric is the median of its samples, pooled over the rounds, so that
    how many rounds fit in a run does not move it.
    """
    from checks import check_integrity, check_reference, check_rows, check_same, read_rows
    from hostspeed import HostSpeed, Sliced, pin_to_one_cpu
    from spamrank import EngineConfig, SpamRankEngine, generate, load_snapshot, save_snapshot

    cfg = EngineConfig()
    corpus = work / "input.jsonl"
    verdicts = work / "verdicts.jsonl"
    snap = work / "bench.snapshot"
    pin_to_one_cpu()
    host = HostSpeed()
    problems: list[str] = []
    samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
    raw: dict[str, list[float]] = {"setup_s": [], "run_s": [], "snapshot_save_s": [], "resume_s": []}
    passes: list[array] = []  # per-record latencies of each whole pass, reference ns
    tails: list[array] = []  # those of the window: each pass's, each replay's
    first = None  # (corpus digest, CLI rows, in-process rows) of round one
    attempted = failed = 0
    started = time.perf_counter()
    rounds = 0

    def another_round() -> bool:
        """Until MIN_ROUNDS are done, and then while one more round, at the
        pace so far, ends within `seconds`."""
        spent = time.perf_counter() - started
        return rounds < MIN_ROUNDS or spent * (rounds + 1) / rounds <= seconds

    while another_round():
        rounds += 1
        for _ in range(SETUPS):
            with Sliced(host) as clock:
                write_corpus(w, seed, corpus, generate)
            samples["setup_s"].append(clock.seconds)
            raw["setup_s"].append(clock.raw_seconds)
        digest = _file_digest(corpus)
        if first is None:
            records, stats = read_corpus(corpus)
            n = len(records)
            tail = n - w.window
            if stats.skipped or n != w.spec.n_messages:
                problems.append(f"parse: {n} records, {stats.skipped} skipped")
        elif digest != first[0]:
            problems.append("setup: one seed gave different corpora")

        # closed loop through the CLI: the file is read as fast as it is taken
        cpu_ref, cpu_raw, rss, code = run_cli(
            host, ["run", "--input", str(corpus), "--output", str(verdicts)], work)
        attempted += n
        cli_rows = None
        if code:
            failed += n
            problems.append(f"spamrank run exited {code}")
        else:
            samples["run_msg_s"].append(n / cpu_ref)
            samples["peak_rss_mb"].append(rss)
            raw["run_s"].append(cpu_raw)
            cli_rows = read_rows(verdicts)

        # closed loop through process(), in this process
        _freeze_own_objects()
        for _ in range(PASSES):
            engine = SpamRankEngine(cfg)
            gc.collect()
            lat, rows, states = replay(records, engine, host, {w.cut, tail})
            attempted += n
            failed += sum(row is None for row in rows)
            passes.append(lat)
            tails.append(lat[tail:])
            if first is None:
                first = (digest, cli_rows, rows)
                if cli_rows is not None:
                    problems += check_rows(records, cli_rows, cfg.omega)
                    problems += check_same(rows, cli_rows, "in-process run")
                problems += check_reference(records, rows, REFERENCE_PREFIX, cfg.tau, cfg.omega)
                problems += check_integrity(engine)
            else:
                problems += check_same(rows, first[2], "repeated in-process run")
            del engine
        if cli_rows is not None and first[1] is not None:
            problems += check_same(cli_rows, first[1], "repeated spamrank run")

        # the steady-state window again, from the state at its start
        for _ in range(TAIL_REPEATS):
            engine = pickle.loads(states[tail])
            gc.collect()
            lat, rows, _ = replay(records[tail:], engine, host)
            attempted += w.window
            failed += sum(row is None for row in rows)
            tails.append(lat)
            problems += check_same(rows, first[2][tail:], "tail replay")

        # the state at the cut, saved and loaded with verification, in turns
        _freeze_own_objects()
        at_cut = pickle.loads(states[w.cut])
        del states
        for _ in range(w.snapshots):
            gc.collect()
            with Sliced(host) as clock:
                save_snapshot(at_cut, str(snap))
            samples["snapshot_save_s"].append(clock.seconds)
            raw["snapshot_save_s"].append(clock.raw_seconds)
            gc.collect()
            with Sliced(host) as clock:
                load_snapshot(str(snap))
            samples["resume_s"].append(clock.seconds)
            raw["resume_s"].append(clock.raw_seconds)
        samples["snapshot_mb"].append(snap.stat().st_size / 1e6)
        del at_cut

    if w.resume:
        # cut the stream and resume it through the CLI; (d) it must not show
        head, tail_out = work / "head.jsonl", work / "tail.jsonl"
        cut_snap = work / "cut.snapshot"
        runs = (["snapshot-save", "--input", str(corpus), "--limit", str(w.cut),
                 "--output", str(head), "--snapshot-out", str(cut_snap)],
                ["snapshot-load", "--input", str(corpus), "--skip", str(w.cut),
                 "--output", str(tail_out), "--snapshot-in", str(cut_snap)])
        codes = [run_cli(host, argv, work)[3] for argv in runs]
        attempted += n
        if any(codes):
            failed += n
            problems.append(f"snapshot-save/-load exited {codes}")
        elif first[1] is not None:
            problems += check_same(read_rows(head) + read_rows(tail_out), first[1],
                                   "resumed run")

    # each record's latency is the median of its passes': the work is the same
    # in every pass, so what differs between them is the host
    latency = [statistics.median(x) for x in zip(*passes)]
    metrics = {k: statistics.median(v or [0.0]) for k, v in samples.items()}
    metrics["tail_msg_s"] = w.window * 1e9 / sum(map(statistics.median, zip(*tails)))
    metrics["process_p50_us"] = _quantile(latency, 0.50) / 1e3
    metrics["process_p99_us"] = _quantile(latency, 0.99) / 1e3
    metrics["snapshot_mb"] = samples["snapshot_mb"][0]
    size = n // SERIES_WINDOWS
    series = [size * 1e9 / sum(latency[k:k + size])
              for k in range(0, size * SERIES_WINDOWS, size)]
    probes = host.times
    notes = [f"records {n}  cut {w.cut}  window {w.window}  rounds {rounds}"
             f"  passes {len(passes)}  window replays {len(tails)}"]
    notes.append(f"host probe: {len(probes)} probes, median {statistics.median(probes) * 1e3:.2f} ms, "
                 f"min {min(probes) * 1e3:.2f} ms, spread {_spread(probes):.3f}")
    notes += [f"{k} samples: " + " ".join(f"{x:.5g}" for x in v) for k, v in samples.items() if v]
    notes += [f"unscaled {k} samples (host s): " + " ".join(f"{x:.5g}" for x in v)
              for k, v in raw.items() if v]
    notes.append("window msg/s per replay: "
                 + " ".join(f"{len(t) * 1e9 / sum(t):.0f}" for t in tails))
    notes.append(f"in-process msg/s per {size}-record window: "
                 + " ".join(f"{r:.0f}" for r in series))
    return metrics, attempted, failed, problems, notes


def measure_traced(w, seed: int, work: Path) -> tuple[dict, int, int, list[str], list[str]]:
    """The traced run: per-layer self times and counts, tracing overhead."""
    from checks import check_integrity, check_rows, check_same, read_rows
    from spamrank import EngineConfig, cli, synthgen
    from tracing import SPAN_NAMES, Tracer, time_metric

    cfg = EngineConfig()
    tracer = Tracer()
    corpus = work / "input.jsonl"
    write_corpus(w, seed, corpus,
                 lambda spec: tracer.call("synthgen.generate", synthgen.generate, spec))
    records, _ = read_corpus(corpus)
    n = len(records)
    problems: list[str] = []

    def cut_and_resume(tag: str, main) -> tuple[float, list | None]:
        head, tail = work / f"head-{tag}.jsonl", work / f"tail-{tag}.jsonl"
        snap = work / f"cut-{tag}.snapshot"
        argvs = (["snapshot-save", "--input", str(corpus), "--limit", str(w.cut),
                  "--output", str(head), "--snapshot-out", str(snap)],
                 ["snapshot-load", "--input", str(corpus), "--skip", str(w.cut),
                  "--output", str(tail), "--snapshot-in", str(snap)])
        start = time.perf_counter()
        codes = [main(argv) for argv in argvs]
        elapsed = time.perf_counter() - start
        if any(codes):
            problems.append(f"{tag} cut-and-resume exited {codes}")
            return elapsed, None
        return elapsed, read_rows(head) + read_rows(tail)

    plain_s, plain_rows = cut_and_resume("plain", cli.main)
    tracer.install()
    try:
        traced_s, traced_rows = cut_and_resume(
            "traced", lambda argv: tracer.call("cli", cli.main, argv))
    finally:
        tracer.uninstall()
    failed = sum(rows is None for rows in (plain_rows, traced_rows)) * n
    if traced_rows is not None:
        problems += check_rows(records, traced_rows, cfg.omega)
        if plain_rows is not None:
            problems += check_same(traced_rows, plain_rows, "traced run")
        problems += check_integrity(tracer.engine)
        tracer.census()

    self_s = tracer.self_seconds()
    metrics = {time_metric(name): self_s[name] for name in SPAN_NAMES}
    metrics.update(tracer.counts)
    metrics.pop("engine.calls", None)
    metrics["snapshot.bytes"] = tracer.snapshot_bytes
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    kept = tracer.write_spans(work / "spans.tsv")

    traced_total = sum(self_s.values()) - self_s["synthgen.generate"]
    notes = [f"cut-and-resume wall: plain {plain_s:.3f} s, traced {traced_s:.3f} s; "
             f"{kept} spans written to {work / 'spans.tsv'}"]
    for name in sorted(SPAN_NAMES, key=self_s.get, reverse=True):
        if name != "synthgen.generate":
            notes.append(f"  self {name:32s} {self_s[name]:9.4f} s "
                         f"{100 * self_s[name] / traced_total:5.1f}%")
    for side in ("sender", "recipient"):
        calls = tracer.counts[f"clustering.{side}.assign_calls"] or 1
        notes.append(f"  {side} assignments: " + ", ".join(
            f"{what} {100 * tracer.counts[f'clustering.{side}.{what}'] / calls:.1f}%"
            for what in ("stays", "joins", "seeds")))
    return metrics, 2 * n, failed, problems, notes


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS
    w = WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        metrics, attempted, failed, problems, notes = measure_traced(w, seed, work)
        units = per_layer_units()
    else:
        metrics, attempted, failed, problems, notes = measure(w, seed, seconds, work)
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        problems.append(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    print(f"== {name} seed {seed} trace {int(trace)}")
    for line in notes:
        print(line)
    for k, m in result["metrics"].items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted} failed {failed}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for leftover in work.iterdir():  # corpora, verdicts and snapshots
        if leftover.suffix in (".jsonl", ".snapshot"):
            leftover.unlink()
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def _exit_on_term(signum, frame) -> None:
    # unwind, so that a child held stopped between slices is killed and reaped
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="long-stream, churn-resume or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="rounds repeat while they fit in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_term)
    _import_program()
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}")
    results = {n: run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
