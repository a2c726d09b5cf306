"""Command-line front end.

Subcommands wire the pieces into reproducible runs: `run` streams verdicts,
one line per message, written a block of messages at a time, `generate`
writes a seeded synthetic corpus, the sweep/heatmap/baseline/noise-exp
commands write report files, and `snapshot-save`/`snapshot-load` persist
and resume engine state. Every output file starts with a header carrying the
version, the config fingerprint, and the seed.

Exit codes: 0 success, 2 configuration or usage error, 3 I/O error,
4 input format error, 5 internal state error.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
from collections import Counter, deque
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, nullcontext
from itertools import islice
from json.encoder import encode_basestring_ascii as encode_str
from typing import IO

from . import __version__
from .engine import DEFAULT_OMEGA, DEFAULT_TAU, EngineConfig, SpamRankEngine
from .errors import (
    ConfigError,
    FormatError,
    InternalStateError,
    InvalidAddressError,
    SpamRankError,
)
from .ingest import (
    SENDER_DOMAIN,
    SENDER_FULL,
    MessageRecord,
    ParseStats,
    parse_stream,
    write_header,
    write_jsonl,
)
from .scoring import DEFERRED, HAM, LEGIT, SPAM, accordance
from .snapshot import load_snapshot, message_fields, save_snapshot

# The report commands import spamrank.evaluation, and generate imports
# spamrank.synthgen, inside the command: `run` and the snapshot commands
# never load them, nor the `statistics` and `dataclasses` modules they use.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_STATE = 5

# how many records `run` parses, then scores, then writes at a time; one at
# a time, the parser and the engine evict each other's working set
BLOCK = 64


def parse_grid(text: str) -> list[float]:
    """Grid syntax: 'start:stop:step' (inclusive ends) or 'v1,v2,...'."""
    try:
        if ":" in text:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if step <= 0:
                raise ValueError("step must be positive")
            n = int((stop - start) / step + 1e-9) + 1
            if n < 1:
                raise ValueError("empty range")
            # round away accumulated float noise so grids print cleanly
            return [round(start + k * step, 10) for k in range(n)]
        values = [float(v) for v in text.split(",") if v.strip()]
        if not values:
            raise ValueError("no grid points")
        return values
    except (ValueError, OverflowError) as exc:  # OverflowError: an infinite range
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


# -- plumbing -----------------------------------------------------------------


@contextmanager
def _records(args: argparse.Namespace, cfg: EngineConfig,
             stats: ParseStats | None = None) -> Iterator[Iterator[MessageRecord]]:
    """Open --input ('-' is stdin) and stream its records lazily, in one pass."""
    with (nullcontext(sys.stdin) if args.input == "-" else
          open(args.input, "r", encoding="utf-8", errors="replace")) as fh:
        yield parse_stream(fh, args.format, cfg.sender_identity, stats)


def _named_file(name: str | None, stream: IO[str]) -> str | int | None:
    """The file a path flag names: `name` or, for '-', the descriptor of a
    regular file redirected to `stream` (stdin for --input, stdout for
    --output). A pipe or a terminal on the stream, or a stream with no
    descriptor, names no file."""
    if name != "-":
        return name
    try:
        fd = stream.fileno()
        return fd if stat.S_ISREG(os.fstat(fd).st_mode) else None
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        return None


def _refuse_same(flag: str, path: str | int | None, other_flag: str,
                 other: str | int | None) -> None:
    """Refuse (exit 2) to write `path` if it names the file `other` (each a
    path or the open descriptor of a '-'), under any spelling or symlink: a
    written path is replaced. None names no file."""
    if path is None or other is None:
        return
    try:
        same = os.path.samefile(path, other)
    except OSError:  # a missing file can be named twice only by spelling
        same = (type(path) is str and type(other) is str
                and os.path.realpath(path) == os.path.realpath(other))
    if same:
        raise ConfigError(f"{flag} {'-' if type(path) is int else path} "
                          f"is the {other_flag} file")


def _report_paths(args: argparse.Namespace, *suffixes: str) -> list[str]:
    """The report files PREFIX.suffix that --output names, each refused
    if it is the --input file."""
    paths = [f"{args.output}.{suffix}" for suffix in suffixes]
    input_file = _named_file(args.input, sys.stdin)
    for path in paths:
        _refuse_same("--output", path, "--input", input_file)
    return paths


def _engine_config(args: argparse.Namespace, base: EngineConfig | None = None) -> EngineConfig:
    """Explicit flags over a base config (defaults, or a snapshot's). A
    field whose flag is unset, or not taken by the command, keeps the base value."""
    return (base or EngineConfig()).replace(**{
        name: value for name in _ENGINE_FLAGS if (value := getattr(args, name, None)) is not None
    })


def _header(cfg: EngineConfig, seed: int) -> dict:
    return {"spamrank": __version__, "fingerprint": cfg.fingerprint(), "seed": seed}


def _print_summary(tally: Counter, stats: ParseStats, elapsed: float) -> None:
    """One stderr line from a tally of (decision, aux label) pairs. It ends
    with the auxiliary labels the clusters overturned: spam decided legit,
    then ham decided spam."""
    spam, legit, deferred = (tally[d, SPAM] + tally[d, HAM]
                             for d in (SPAM, LEGIT, DEFERRED))
    n = spam + legit + deferred
    accordance_pct, classified = accordance(tally)
    throughput = n / elapsed if elapsed > 0 else 0.0
    print(
        f"messages={n} spam={spam} legit={legit} deferred={deferred} "
        f"accordance={accordance_pct:.2f} classified={classified} "
        f"skipped_lines={stats.skipped} throughput={throughput:.0f} msg/s "
        f"overturned_spam={tally[LEGIT, SPAM]} overturned_ham={tally[SPAM, HAM]}",
        file=sys.stderr,
    )


# -- commands -----------------------------------------------------------------


def _blocks(items: Iterator, size: int) -> Iterator[list]:
    """Yield the items in lists of `size`, the last one shorter; if `items`
    raises, the partial list is yielded before the error."""
    block: list = []
    try:
        for item in items:
            block.append(item)
            if len(block) == size:
                yield block
                block = []
    except Exception:  # not GeneratorExit, when the consumer stops early
        if block:
            yield block
        raise
    if block:
        yield block


def cmd_run(args: argparse.Namespace) -> int:
    """Stream records through the engine, BLOCK at a time, or one at a time
    and flushed from a pipe, writing verdicts unless --output is None. A run
    that fails part-way still writes the verdict of every record it scored."""
    for flag, value in (("--skip", args.skip), ("--limit", args.limit)):
        if value is not None and value < 0:
            raise ConfigError(f"{flag} must not be negative, got {value}")
    # a written path is replaced, so it must not name a file still to be read
    # nor the other written path (--snapshot-out may name the --snapshot-in
    # file, read first); "-" is stdin or stdout for --input and --output only
    named = {"--input": _named_file(args.input, sys.stdin),
             "--output": _named_file(args.output, sys.stdout),
             "--snapshot-in": args.snapshot_in, "--snapshot-out": args.snapshot_out}
    for flag, other_flag in (("--output", "--input"), ("--output", "--snapshot-in"),
                             ("--snapshot-out", "--input"), ("--snapshot-out", "--output")):
        _refuse_same(flag, named[flag], other_flag, named[other_flag])
    if args.snapshot_in:
        engine = load_snapshot(args.snapshot_in)
        cfg = _engine_config(args, engine.config)
        if cfg.fingerprint() != engine.config.fingerprint():
            raise ConfigError(
                "flags conflict with the snapshot's structural settings "
                f"({engine.config.fingerprint()})"
            )
        engine.config = cfg
        if args.skip not in (None, engine.input_offset):
            raise ConfigError(
                f"--skip {args.skip} conflicts with the snapshot, which was "
                f"saved after {engine.input_offset} input records"
            )
        skip = engine.input_offset
    else:
        cfg = _engine_config(args)
        engine = SpamRankEngine(cfg)
        skip = args.skip or 0

    stats = ParseStats()
    tally: Counter = Counter()  # (decision, aux label) pairs
    # a live pipe sees each verdict before the next record arrives; a file
    # redirected to stdin is read like a file named by --input
    flush = args.input == "-" and not sys.stdin.seekable()
    start = time.perf_counter()
    with _records(args, cfg, stats) as records:
        # read past the skipped records, keeping the last, before --output is
        # opened, so that a refused resume leaves the file as it was
        skipped = deque(islice(records, skip), maxlen=1)
        last = skipped[0] if skipped else None
        # a resume would re-save an offset it never reached; a fresh engine
        # is at 0, so an input shorter than --skip passes over what it has
        if stats.records < engine.input_offset:
            raise ConfigError(
                f"--input holds {stats.records} records, fewer than the "
                f"{engine.input_offset} the snapshot was saved after"
            )
        # a snapshot that names its last message is resumed only on an input
        # that holds that message at its offset
        if (engine.last_record is not None
                and message_fields(last) != message_fields(engine.last_record)):
            raise ConfigError(
                f"record {skip} of --input is not the message the snapshot was saved after"
            )
        engine.input_offset, engine.last_record = stats.records, last
        with (nullcontext() if args.output is None else
              nullcontext(sys.stdout) if args.output == "-" else
              open(args.output, "w", encoding="utf-8")) as out:
            if out is not None:
                write_header(out, _header(cfg, args.seed))
                if flush:
                    out.flush()
            for block in _blocks(islice(records, args.limit), 1 if flush else BLOCK):
                verdicts = []
                try:
                    for record in block:
                        verdicts.append(v := engine.process(record))
                        tally[v.decision, v.aux_label] += 1
                finally:  # an engine error still leaves the verdicts made before it
                    if out is not None:
                        # the line json.dumps would write: only the id may need
                        # escaping (by the encoder json.dumps calls for a str),
                        # the labels are constants, a finite float is written
                        # as its repr
                        out.write("".join([
                            f'{{"id": {encode_str(v.msg_id)}, "p_s": {v.p_s!r}, '
                            f'"p_r": {v.p_r!r}, "sr": {v.spam_rank!r}, '
                            f'"decision": "{v.decision}", "aux": "{v.aux_label}", '
                            f'"effective": "{v.effective_label}"}}\n'
                            for v in verdicts
                        ]))
                        if flush:
                            out.flush()
    elapsed = time.perf_counter() - start

    if args.snapshot_out:
        save_snapshot(engine, args.snapshot_out)
    _print_summary(tally, stats, elapsed)
    return EXIT_OK


def cmd_snapshot_save(args: argparse.Namespace) -> int:
    """Process input (optionally bounded by --limit) and persist the state."""
    if not args.snapshot_out:
        raise ConfigError("snapshot-save requires --snapshot-out")
    return cmd_run(args)


def cmd_snapshot_load(args: argparse.Namespace) -> int:
    """Resume from --snapshot-in at the input offset the snapshot records."""
    if not args.snapshot_in:
        raise ConfigError("snapshot-load requires --snapshot-in")
    return cmd_run(args)


# generate's corpus flags: the WorkloadSpec field each sets, and its type
# (that of the field's default). An unset flag stays None and leaves the
# field at WorkloadSpec's default.
_SPEC_FLAGS = {
    "--messages": ("n_messages", int),
    "--legit-senders": ("n_legit_senders", int),
    "--spam-senders": ("n_spam_senders", int),
    "--recipients": ("n_recipients", int),
    "--communities": ("n_communities", int),
    "--community-size": ("community_size_mean", float),
    "--lists": ("n_distribution_lists", int),
    "--list-size": ("list_size_mean", float),
    "--spam-fraction": ("spam_fraction", float),
    "--legit-fanout": ("legit_recipients_mean", float),
    "--spam-fanout": ("spam_recipients_mean", float),
    "--churn": ("sender_churn_rate", float),
}


def cmd_generate(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from .synthgen import WorkloadSpec, generate, label_flipper

    spec = WorkloadSpec(seed=args.seed, **{
        field: value for flag, (field, _) in _SPEC_FLAGS.items()
        if (value := getattr(args, flag[2:].replace("-", "_"))) is not None
    })
    records = generate(spec)
    # any non-zero rate goes through label_flipper, which refuses one
    # outside [0, 1] (NaN included) before the file is opened
    if args.flip_rate:
        records = map(label_flipper(args.flip_rate, spec.seed), records)
    header = {"spamrank": __version__, "seed": spec.seed,
              "spec": asdict(spec), "flip_rate": args.flip_rate}
    n = write_jsonl(args.output, records, header)
    print(f"wrote {n} messages to {args.output}", file=sys.stderr)
    return EXIT_OK


def _sweep_command(args: argparse.Namespace, sweep: Callable) -> int:
    from .evaluation import write_sweep

    tsv, jsonl = _report_paths(args, "tsv", "jsonl")
    cfg = _engine_config(args)
    grid = parse_grid(args.grid)
    with _records(args, cfg) as records:
        result = sweep(records, grid, cfg)
    write_sweep(result, tsv, jsonl, _header(cfg, args.seed))
    print(f"wrote {tsv} and {jsonl} ({len(grid)} grid points)", file=sys.stderr)
    return EXIT_OK


def cmd_sweep_tau(args: argparse.Namespace) -> int:
    from .evaluation import tau_sweep

    return _sweep_command(args, tau_sweep)


def cmd_sweep_omega(args: argparse.Namespace) -> int:
    from .evaluation import omega_sweep

    return _sweep_command(args, omega_sweep)


def cmd_heatmap(args: argparse.Namespace) -> int:
    from .evaluation import bin_heatmap, write_heatmap

    paths = _report_paths(args, "messages.tsv", "spam.tsv", "jsonl")
    cfg = _engine_config(args)
    with _records(args, cfg) as records:
        grid = bin_heatmap(map(SpamRankEngine(cfg).process, records), args.bin_size)
    write_heatmap(grid, *paths, _header(cfg, args.seed))
    print(f"wrote {', '.join(paths)}", file=sys.stderr)
    return EXIT_OK


def cmd_baseline(args: argparse.Namespace) -> int:
    from .evaluation import sender_history_baseline, write_report

    paths = _report_paths(args, "tsv", "jsonl")
    cfg = _engine_config(args)
    with _records(args, cfg) as records:
        report = sender_history_baseline(records)
    write_report(report, *paths, _header(cfg, args.seed))
    print(
        f"baseline accordance={report.accordance_pct:.2f} "
        f"classified={report.classified_count}/{report.total_messages}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_noise_exp(args: argparse.Namespace) -> int:
    from .evaluation import noise_correction_experiment, write_report

    paths = _report_paths(args, "tsv", "jsonl")
    cfg = _engine_config(args)
    with _records(args, cfg) as records:
        report = noise_correction_experiment(records, args.flip_rate, cfg, args.seed)
    write_report(report, *paths, _header(cfg, args.seed))
    print(
        f"aux_error={report.aux_error_rate:.4f} "
        f"engine_error={report.engine_error_rate:.4f} "
        f"fp_corrected={report.fp_corrected} fp_introduced={report.fp_introduced}",
        file=sys.stderr,
    )
    return EXIT_OK


# -- parser -------------------------------------------------------------------


# one flag per EngineConfig field; an unset flag stays None
_ENGINE_FLAGS = {
    "tau": dict(type=float, help=f"cluster join threshold (default {DEFAULT_TAU})"),
    "omega": dict(type=float, help=f"decision threshold (default {DEFAULT_OMEGA})"),
    "sender_identity": dict(choices=[SENDER_DOMAIN, SENDER_FULL],
                            help="sender identity granularity"),
}

# The report commands: name, function, help, default output prefix, the
# engine flags each reads, and its own flags. A sweep's grid stands in for
# the value it sweeps, neither the heatmap bins nor the baseline decide by
# omega, and the baseline does not cluster, so none takes a flag it ignores.
_REPORTS = (
    ("sweep-tau", cmd_sweep_tau, "replay the corpus across a tau grid", "tau_sweep",
     ("omega", "sender_identity"), {"--grid": dict(default="0:1:0.1")}),
    ("sweep-omega", cmd_sweep_omega, "evaluate decisions across an omega grid",
     "omega_sweep", ("tau", "sender_identity"), {"--grid": dict(default="0.5:1:0.05")}),
    ("heatmap", cmd_heatmap, "bin verdicts over (Ps, Pr)", "heatmap",
     ("tau", "sender_identity"), {"--bin-size": dict(type=float, default=0.1)}),
    ("baseline", cmd_baseline, "sender-history-only baseline accordance", "baseline",
     ("sender_identity",), {}),
    ("noise-exp", cmd_noise_exp, "label-noise correction experiment", "noise_exp",
     ("tau", "omega", "sender_identity"),
     {"--flip-rate": dict(type=float, default=0.1)}),
)


def _add_engine_flags(
    p: argparse.ArgumentParser, names: Sequence[str] = tuple(_ENGINE_FLAGS)
) -> None:
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), **_ENGINE_FLAGS[name])


def _add_io_flags(p: argparse.ArgumentParser, output: str | None, output_help: str) -> None:
    p.add_argument("--input", default="-", help="input path, '-' for stdin")
    p.add_argument("--format", choices=["jsonl", "tsv"], default="jsonl")
    p.add_argument("--output", default=output, help=output_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spamrank",
        description="Structural spam re-classification over mail logs",
    )
    parser.add_argument("--version", action="version",
                        version=f"spamrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=int, default=42,
                       help="seed recorded in output headers (default 42)")
        return p

    # the default --output: verdicts to stdout, or none written (None)
    for name, func, help_, output in (
        ("run", cmd_run, "stream verdicts for a message log", "-"),
        ("snapshot-save", cmd_snapshot_save, "process input and save engine state", None),
        ("snapshot-load", cmd_snapshot_load, "resume from a saved engine state", "-"),
    ):
        p = add(name, func, help_)
        _add_engine_flags(p)
        _add_io_flags(p, output, "verdict jsonl path, '-' for stdout "
                                 f"(default {'stdout' if output else 'none written'})")
        p.add_argument("--skip", type=int, default=None,
                       help="skip this many leading records (default 0, or with "
                            "--snapshot-in the records the snapshot consumed)")
        p.add_argument("--limit", type=int, default=None,
                       help="process at most this many records")
        p.add_argument("--snapshot-in", default=None, help="state file to resume from")
        p.add_argument("--snapshot-out", default=None, help="state file to write at end")

    p = add("generate", cmd_generate, "write a seeded synthetic corpus")
    p.add_argument("--output", required=True, help="corpus jsonl path")
    for flag, (_, type_) in _SPEC_FLAGS.items():
        p.add_argument(flag, type=type_)
    p.add_argument("--flip-rate", type=float, default=0.0,
                   help="flip this fraction of aux labels away from truth")

    for name, func, help_, prefix, engine_flags, own_flags in _REPORTS:
        p = add(name, func, help_)
        _add_engine_flags(p, engine_flags)
        _add_io_flags(p, prefix, f"report path prefix (default {prefix})")
        for flag, kwargs in own_flags.items():
            p.add_argument(flag, **kwargs)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"spamrank: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, InvalidAddressError) as exc:
        print(f"spamrank: format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except InternalStateError as exc:
        print(f"spamrank: internal state error: {exc}", file=sys.stderr)
        return EXIT_STATE
    except SpamRankError as exc:
        print(f"spamrank: error: {exc}", file=sys.stderr)
        return EXIT_STATE
    except OSError as exc:
        print(f"spamrank: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
