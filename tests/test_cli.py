import hashlib
import io
import json
import os
import queue
import subprocess
import sys
import threading
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import pytest

import spamrank
from spamrank import (
    ConfigError,
    EngineConfig,
    InternalStateError,
    SpamRankEngine,
    WorkloadSpec,
    generate,
    save_snapshot,
    write_jsonl,
)
import spamrank.cli as cli
from spamrank.cli import (
    BLOCK,
    EXIT_CONFIG,
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_OK,
    EXIT_STATE,
    _SPEC_FLAGS,
    _blocks,
    build_parser,
    main,
    parse_grid,
)
from golden_trace import GOLDEN_EXPECTED


class TestParseGrid:
    def test_range_syntax_is_inclusive(self):
        assert parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert parse_grid("0:1:0.1") == [
            0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
        ]
        assert parse_grid("0.5:1:0.05")[-1] == 1.0
        assert len(parse_grid("0.5:1:0.05")) == 11

    def test_comma_list(self):
        assert parse_grid("0.2,0.5,0.9") == [0.2, 0.5, 0.9]

    @pytest.mark.parametrize("bad", ["", "a,b", "1:0", "0:1:0", "0:1:-1", "1:2:3:4",
                                     "0:inf:1", "0:1:1e-320"])
    def test_rejects_malformed_grids(self, bad):
        with pytest.raises(ConfigError):
            parse_grid(bad)


def _child_env() -> dict:
    """The environment for a child interpreter that imports this spamrank."""
    src = str(Path(spamrank.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="module")
def corpus_200(tmp_path_factory, default_records):
    """A 200-record corpus (more than three blocks) and its straight run's
    verdict lines, header left out."""
    root = tmp_path_factory.mktemp("corpus_200")
    corpus = root / "corpus.jsonl"
    write_jsonl(str(corpus), default_records[:200])
    out = root / "straight.jsonl"
    assert main(["run", "--input", str(corpus), "--output", str(out)]) == EXIT_OK
    return corpus, out.read_text().splitlines()[1:]


class _Pipe(io.StringIO):
    """Text on stdin that cannot seek, as a pipe's."""

    def seekable(self):
        return False


class TestRunCommand:
    def test_verdicts_match_the_golden_trace(self, tmp_path, golden_path, capsys):
        out = tmp_path / "verdicts.jsonl"
        code = main(["run", "--input", str(golden_path), "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])["header"]
        assert header["seed"] == 42
        assert "fingerprint" in header and "spamrank" in header
        assert len(lines) == 1 + len(GOLDEN_EXPECTED)
        for line, row in zip(lines[1:], GOLDEN_EXPECTED):
            got = json.loads(line)
            msg_id, p_s, p_r, sr, decision, effective = row
            assert got["id"] == msg_id
            assert got["p_s"] == pytest.approx(p_s, abs=1e-9)
            assert got["sr"] == pytest.approx(sr, abs=1e-9)
            assert got["decision"] == decision
            assert got["effective"] == effective
        summary = capsys.readouterr().err
        assert "messages=10" in summary
        assert "accordance=100.00" in summary

    def test_summary_on_a_label_noisy_corpus_matches_both_sweeps(self, tmp_path, capsys):
        # run's summary and the sweep rows share one definition of accordance;
        # here, unlike on the golden corpus, some decisions disagree with aux
        corpus = tmp_path / "noisy.jsonl"
        assert main(["generate", "--output", str(corpus), "--messages", "3650",
                     "--flip-rate", "0.1"]) == EXIT_OK
        assert main(["run", "--input", str(corpus),
                     "--output", str(tmp_path / "v.jsonl")]) == EXIT_OK
        summary = capsys.readouterr().err
        assert " accordance=92.65 classified=2967 " in summary
        records, _ = spamrank.read_records(str(corpus))
        (tau_row,) = spamrank.tau_sweep(records, [0.5]).rows
        (omega_row,) = spamrank.omega_sweep(records, [0.85]).rows
        for row in (tau_row, omega_row):
            assert (f" accordance={row.accordance_pct:.2f} "
                    f"classified={row.classified_count} ") in summary

    def test_summary_ends_with_the_overturn_counts(self, tmp_path, noisy_records, capsys):
        # aux spam decided legit, then aux ham decided spam, counted from the
        # verdict file; the label-noisy corpus that CI pins has both
        corpus, out = tmp_path / "noisy.jsonl", tmp_path / "v.jsonl"
        write_jsonl(str(corpus), noisy_records)
        assert main(["run", "--input", str(corpus), "--output", str(out)]) == EXIT_OK
        verdicts = [json.loads(l) for l in out.read_text().splitlines()[1:]]
        pairs = [(v["decision"], v["aux"]) for v in verdicts]
        overturned = pairs.count(("legit", "spam")), pairs.count(("spam", "ham"))
        assert overturned == (87, 131)
        summary = capsys.readouterr().err
        assert summary.endswith(" msg/s overturned_spam=87 overturned_ham=131\n")

    def test_skip_and_limit_window_the_stream(
            self, tmp_path, golden_path, corpus_200, default_records):
        out = tmp_path / "v.jsonl"
        code = main(["run", "--input", str(golden_path), "--output", str(out),
                     "--skip", "2", "--limit", "3"])
        assert code == EXIT_OK
        ids = [json.loads(l)["id"] for l in out.read_text().splitlines()[1:]]
        assert ids == ["m03", "m04", "m05"]
        # a window from one record short of a block to one past the next is
        # scored as a straight run of those records alone
        window = tmp_path / "window.jsonl"
        write_jsonl(str(window), default_records[BLOCK - 1:2 * BLOCK])
        alone = tmp_path / "alone.jsonl"
        assert main(["run", "--input", str(window), "--output", str(alone)]) == EXIT_OK
        assert main(["run", "--input", str(corpus_200[0]), "--output", str(out),
                     "--skip", str(BLOCK - 1), "--limit", str(BLOCK + 1)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + BLOCK + 1
        assert out.read_text() == alone.read_text()

    def test_deeply_nested_line_is_skipped(self, tmp_path, golden_path, capsys):
        lines = golden_path.read_text().splitlines(keepends=True)
        corpus = tmp_path / "nested.jsonl"
        corpus.write_text("".join(lines[:3]) + "[" * 100_000 + "\n" + "".join(lines[3:]))
        out = tmp_path / "v.jsonl"
        code = main(["run", "--input", str(corpus), "--output", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + len(GOLDEN_EXPECTED)
        assert "skipped_lines=1" in capsys.readouterr().err

    def test_missing_input_is_an_io_error(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "nope.jsonl")]) == EXIT_IO

    def test_missing_input_creates_no_output_file(self, tmp_path):
        out = tmp_path / "v.jsonl"
        code = main(["run", "--input", str(tmp_path / "nope.jsonl"),
                     "--output", str(out)])
        assert code == EXIT_IO
        assert not out.exists()

    def test_output_onto_the_input_is_a_config_error(self, tmp_path, golden_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(golden_path.read_bytes())
        link = tmp_path / "link.jsonl"
        link.symlink_to(corpus)
        for output in (corpus, link):
            assert main(["run", "--input", str(corpus), "--output", str(output)]) == EXIT_CONFIG
            assert corpus.read_bytes() == golden_path.read_bytes()
        assert "is the --input file" in capsys.readouterr().err

    def test_bad_tau_is_a_config_error(self, golden_path):
        assert main(["run", "--input", str(golden_path), "--tau", "1.5"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command,flag", [
        ("run", "--skip"), ("run", "--limit"), ("snapshot-load", "--limit"),
    ])
    def test_negative_skip_or_limit_is_a_config_error(
        self, tmp_path, golden_path, command, flag
    ):
        state = tmp_path / "state.json"
        main(["snapshot-save", "--input", str(golden_path), "--limit", "6",
              "--snapshot-out", str(state)])
        out = tmp_path / "v.jsonl"
        argv = [command, "--input", str(golden_path), "--output", str(out), flag, "-1"]
        if command == "snapshot-load":
            argv += ["--snapshot-in", str(state)]
        assert main(argv) == EXIT_CONFIG
        assert not out.exists()

    def test_verdict_lines_are_what_json_dumps_writes(self, tmp_path, golden_path):
        ids = ['say "hi"', "back\\slash", "naïve-日本", "bell\x07tab\t",
               "line\u2028sep", "\x00", "m07", "", "\u20ac\U0001f600", "end"]
        rows = [json.loads(l) for l in golden_path.read_text().splitlines()]
        for row, msg_id in zip(rows, ids, strict=True):
            row["id"] = msg_id
        corpus = tmp_path / "ids.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "v.jsonl"
        assert main(["run", "--input", str(corpus), "--output", str(out)]) == EXIT_OK
        records, _ = spamrank.read_records(str(corpus))
        expect = [
            json.dumps({"id": v.msg_id, "p_s": v.p_s, "p_r": v.p_r, "sr": v.spam_rank,
                        "decision": v.decision, "aux": v.aux_label,
                        "effective": v.effective_label})
            for v in map(spamrank.SpamRankEngine().process, records)
        ]
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines[1:] == expect + [""]
        assert [json.loads(l)["id"] for l in lines[1:-1]] == ids

    def test_failure_part_way_keeps_the_lines_written(
            self, tmp_path, golden_path, corpus_200, monkeypatch):
        # good records, then more malformed lines than good ones: the parser
        # rejects the stream only once it has seen the whole input; 100
        # records fill one block and part of the next, read from a file and
        # from a pipe on stdin
        good = golden_path.read_text().splitlines()[:3]
        corpus = tmp_path / "mostly_bad.jsonl"
        corpus.write_text("\n".join(good + ["{not json"] * 4) + "\n")
        out = tmp_path / "v.jsonl"
        code = main(["run", "--input", str(corpus), "--output", str(out)])
        assert code == EXIT_FORMAT
        lines = out.read_text().splitlines()
        assert "header" in json.loads(lines[0])
        assert [json.loads(l)["id"] for l in lines[1:]] == ["m01", "m02", "m03"]
        good = corpus_200[0].read_text().splitlines()[:100]
        corpus.write_text("\n".join(good + ["{not json"] * 101) + "\n")
        for source in (str(corpus), "-"):
            monkeypatch.setattr(sys, "stdin", _Pipe(corpus.read_text()))
            assert main(["run", "--input", source, "--output", str(out)]) == EXIT_FORMAT
            assert out.read_text().splitlines()[1:] == corpus_200[1][:100]

    @pytest.mark.parametrize("stdin,size", [(io.StringIO, BLOCK), (_Pipe, 1)])
    def test_stdin_from_a_file_takes_blocks_and_a_pipe_one_record(
            self, tmp_path, corpus_200, monkeypatch, stdin, size):
        # a pipe may be live, so each of its records is scored and flushed
        # before the next is read; a seekable stdin holds every record already
        corpus, straight = corpus_200
        sizes = []
        blocks = cli._blocks
        monkeypatch.setattr(cli, "_blocks", lambda items, n: sizes.append(n) or blocks(items, n))
        monkeypatch.setattr(sys, "stdin", stdin(corpus.read_text()))
        out = tmp_path / "v.jsonl"
        assert main(["run", "--input", "-", "--output", str(out)]) == EXIT_OK
        assert sizes == [size]
        assert out.read_text().splitlines()[1:] == straight

    def test_live_pipe_sees_each_verdict_before_stdin_closes(self, golden_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "spamrank.cli", "run", "--input", "-", "--output", "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=_child_env(),
        )
        lines: queue.Queue = queue.Queue()

        def pump():
            for line in proc.stdout:
                lines.put(line)

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        try:
            proc.stdin.write(golden_path.read_text().splitlines()[0] + "\n")
            proc.stdin.flush()
            header = json.loads(lines.get(timeout=20))
            verdict = json.loads(lines.get(timeout=20))
            assert "header" in header
            assert verdict["id"] == "m01"
            assert proc.poll() is None  # still waiting on the open pipe
            proc.stdin.close()
            assert proc.wait(timeout=20) == EXIT_OK
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            reader.join(timeout=5)


def _then_fail(items):
    """Yield the items, then raise as the parser does at the end of a mostly
    malformed stream."""
    yield from items
    raise spamrank.FormatError("bad tail")


class TestBlocks:
    def test_blocks_keep_order_and_end_with_the_partial_block(self):
        assert list(_blocks(iter(range(7)), 3)) == [[0, 1, 2], [3, 4, 5], [6]]
        assert list(_blocks(iter(range(6)), 3)) == [[0, 1, 2], [3, 4, 5]]

    def test_size_one_yields_each_item_alone(self):
        assert list(_blocks(iter("abc"), 1)) == [["a"], ["b"], ["c"]]

    def test_empty_input_yields_no_block(self):
        assert list(_blocks(iter(()), BLOCK)) == []

    @pytest.mark.parametrize("n,expect", [
        (5, [[0, 1, 2], [3, 4]]), (6, [[0, 1, 2], [3, 4, 5]]), (0, []),
    ])
    def test_partial_block_comes_before_the_error(self, n, expect):
        got = []
        with pytest.raises(spamrank.FormatError, match="bad tail"):
            for block in _blocks(_then_fail(range(n)), 3):
                got.append(block)
        assert got == expect


class TestRunBlocks:
    def test_engine_failure_mid_block_writes_the_verdicts_before_it(
            self, tmp_path, corpus_200, monkeypatch):
        corpus, straight = corpus_200
        process = SpamRankEngine.process
        calls = []

        def failing(engine, record):
            calls.append(record.msg_id)
            if len(calls) == 70:
                raise InternalStateError("injected")
            return process(engine, record)

        monkeypatch.setattr(SpamRankEngine, "process", failing)
        out = tmp_path / "v.jsonl"
        assert main(["run", "--input", str(corpus), "--output", str(out)]) == EXIT_STATE
        assert out.read_text().splitlines()[1:] == straight[:69]

    @pytest.mark.parametrize("k", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_snapshot_save_at_a_block_edge_is_a_library_save(
            self, tmp_path, corpus_200, k):
        corpus, _ = corpus_200
        cli_state = tmp_path / "cli.json"
        assert main(["snapshot-save", "--input", str(corpus), "--limit", str(k),
                     "--snapshot-out", str(cli_state)]) == EXIT_OK
        records, _ = spamrank.read_records(str(corpus))
        engine = SpamRankEngine()
        for record in records[:k]:
            engine.process(record)
        lib_state = tmp_path / "lib.json"
        save_snapshot(engine, str(lib_state))
        assert cli_state.read_bytes() == lib_state.read_bytes()


class TestGenerateCommand:
    def test_generate_then_run(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        code = main(["generate", "--output", str(corpus),
                     "--messages", "300", "--seed", "7"])
        assert code == EXIT_OK
        lines = corpus.read_text().splitlines()
        header = json.loads(lines[0])["header"]
        assert header["seed"] == 7
        assert header["spec"]["n_messages"] == 300
        assert len(lines) == 301
        out = tmp_path / "v.jsonl"
        assert main(["run", "--input", str(corpus), "--output", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 301

    def test_flip_rate_is_recorded_and_applied(self, tmp_path):
        corpus = tmp_path / "noisy.jsonl"
        main(["generate", "--output", str(corpus), "--messages", "400",
              "--flip-rate", "0.5"])
        lines = corpus.read_text().splitlines()
        assert json.loads(lines[0])["header"]["flip_rate"] == 0.5
        flips = sum(
            1 for l in lines[1:]
            if (obj := json.loads(l))["aux"] != obj["truth"]
        )
        assert 130 <= flips <= 270

    def test_flipped_corpus_is_pinned(self, tmp_path):
        # the records after the header line, which names the package version
        corpus = tmp_path / "noisy.jsonl"
        assert main(["generate", "--output", str(corpus), "--flip-rate", "0.1"]) == EXIT_OK
        header, records = corpus.read_bytes().split(b"\n", 1)
        assert json.loads(header)["header"]["flip_rate"] == 0.1
        assert hashlib.sha256(records).hexdigest() == (
            "75289bc3f4b5a3ca398a22fe8710f0caf34e8f075181e80996507f7c418f382d")

    def test_spec_flags_take_the_type_of_the_field_default(self):
        default = WorkloadSpec()
        for flag, (field, type_) in _SPEC_FLAGS.items():
            assert type_ is type(getattr(default, field)), flag

    def test_unset_spec_flags_keep_the_workload_defaults(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        assert main(["generate", "--output", str(corpus), "--messages", "20",
                     "--churn", "0.5", "--seed", "3"]) == EXIT_OK
        header = json.loads(corpus.read_text().splitlines()[0])["header"]
        spec = WorkloadSpec(seed=3, n_messages=20, sender_churn_rate=0.5)
        assert header["spec"] == asdict(spec)

    @pytest.mark.parametrize("flag,value", [("--messages", "1.5"), ("--lists", "x"),
                                            ("--churn", "half")])
    def test_ill_typed_spec_flag_is_a_usage_error(self, tmp_path, flag, value):
        corpus = tmp_path / "corpus.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--output", str(corpus), flag, value])
        assert exc.value.code == EXIT_CONFIG
        assert not corpus.exists()

    @pytest.mark.parametrize("rate", ["-1", "nan", "1.5"])
    def test_flip_rate_outside_the_unit_interval_is_a_config_error(self, tmp_path, rate):
        corpus = tmp_path / "noisy.jsonl"
        code = main(["generate", "--output", str(corpus), "--messages", "50",
                     "--flip-rate", rate])
        assert code == EXIT_CONFIG
        assert not corpus.exists()


def _as_format_6(state: dict) -> None:
    """Rewrite a snapshot in the previous layout: version 6, and each side's
    columns zipped into one row per user, [name, dims, spam, total, cid]
    for a sender and [name, spam, total, cid] for a recipient."""
    state["version"] = 6
    for side in (state["senders"], state["recipients"]):
        keys = [key for key in ("names", "dims", "spam", "total", "cid") if key in side]
        side["users"] = list(map(list, zip(*map(side.pop, keys))))


def _as_format_5(state: dict) -> None:
    """Rewrite a snapshot in the previous layout: version 5, format 6's
    rows, and each recipient row holding its sorted dims, the senders that
    name it."""
    _as_format_6(state)
    state["version"] = 5
    named_by: list[list[int]] = [[] for _ in state["recipients"]["users"]]
    for sid, (_, dims, *_) in enumerate(state["senders"]["users"]):
        for rid in dims:
            named_by[rid].append(sid)
    for row, dims in zip(state["recipients"]["users"], named_by):
        row.insert(1, dims)


def _as_format_3(state: dict) -> None:
    """Rewrite a snapshot in the previous layout: a names list per side,
    rows that start with the user's index, and the longer fingerprint."""
    _as_format_5(state)
    state["version"] = 3
    state["fingerprint"] += ";assign_pre=0;score_pre=0"
    for side in (state["senders"], state["recipients"]):
        side["names"] = [row[0] for row in side["users"]]
        for uid, row in enumerate(side["users"]):
            row[0] = uid


def _as_format_4(state: dict) -> None:
    """Rewrite a snapshot in the previous layout: version 4, format 5's
    rows, and a [cid, freq_sum] row per cluster holding a float sum of
    frequencies."""
    _as_format_5(state)
    state["version"] = 4
    for side in (state["senders"], state["recipients"]):
        sums: dict[int, float] = {}
        for _, _, spam, total, cid in side["users"]:
            sums[cid] = sums.get(cid, 0.0) + (spam / total if total else 0.0)
        side["clusters"] = [[cid, sums[cid]] for cid in sorted(sums)]


class TestSnapshotCommands:
    def test_interrupted_run_matches_straight_run(self, tmp_path, golden_path):
        straight = tmp_path / "straight.jsonl"
        main(["run", "--input", str(golden_path), "--output", str(straight)])

        state = tmp_path / "state.json"
        code = main(["snapshot-save", "--input", str(golden_path),
                     "--limit", "6", "--snapshot-out", str(state)])
        assert code == EXIT_OK
        tail = tmp_path / "tail.jsonl"
        code = main(["snapshot-load", "--input", str(golden_path),
                     "--skip", "6", "--snapshot-in", str(state),
                     "--output", str(tail)])
        assert code == EXIT_OK

        straight_rows = straight.read_text().splitlines()[1:]
        tail_rows = tail.read_text().splitlines()[1:]
        assert tail_rows == straight_rows[6:]  # byte-identical verdict lines

    def test_resume_starts_at_the_recorded_offset(self, tmp_path, golden_path):
        state = tmp_path / "state.json"
        main(["snapshot-save", "--input", str(golden_path), "--limit", "6",
              "--snapshot-out", str(state)])
        tail = tmp_path / "tail.jsonl"
        final = tmp_path / "final.json"
        code = main(["snapshot-load", "--input", str(golden_path),
                     "--snapshot-in", str(state), "--output", str(tail),
                     "--snapshot-out", str(final)])
        assert code == EXIT_OK
        assert len(tail.read_text().splitlines()) == 1 + 4
        saved = json.loads(final.read_text())
        assert saved["messages_processed"] == 10
        assert saved["input_offset"] == 10

    def test_skip_counts_into_the_recorded_offset(self, tmp_path, golden_path):
        state = tmp_path / "state.json"
        main(["snapshot-save", "--input", str(golden_path), "--skip", "2",
              "--limit", "3", "--snapshot-out", str(state)])
        saved = json.loads(state.read_text())
        assert (saved["messages_processed"], saved["input_offset"]) == (3, 5)
        # a skip past the end of the input consumes only what is there
        main(["snapshot-save", "--input", str(golden_path), "--skip", "50",
              "--snapshot-out", str(state)])
        saved = json.loads(state.read_text())
        assert (saved["messages_processed"], saved["input_offset"]) == (0, 10)

    def test_resume_on_an_input_shorter_than_the_offset_is_refused(
            self, tmp_path, golden_path, capsys):
        state = tmp_path / "state.json"
        main(["snapshot-save", "--input", str(golden_path), "--limit", "6",
              "--snapshot-out", str(state)])
        lines = golden_path.read_text().splitlines(keepends=True)
        short, resaved = tmp_path / "short.jsonl", tmp_path / "resaved.json"
        tail = tmp_path / "tail.jsonl"
        argv = ["snapshot-load", "--input", str(short), "--snapshot-in", str(state),
                "--output", str(tail), "--snapshot-out", str(resaved)]
        short.write_text("".join(lines[:4]))
        tail.write_bytes(b"old\n")
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        assert not resaved.exists()
        # the refusal comes before --output is opened
        assert tail.read_bytes() == b"old\n"
        assert "holds 4 records, fewer than the 6" in capsys.readouterr().err
        # an input that ends at the offset resumes, with nothing left to score
        short.write_text("".join(lines[:6]))
        assert main(argv) == EXIT_OK
        assert json.loads(resaved.read_text())["input_offset"] == 6

    def test_save_requires_a_target(self, golden_path):
        assert main(["snapshot-save", "--input", str(golden_path)]) == EXIT_CONFIG

    def test_load_requires_a_source(self, golden_path):
        assert main(["snapshot-load", "--input", str(golden_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("doc", ['{"version": 2}', '{"version": 1}', '{"version": 3}',
                                     '{"version": 4}', '{"version": 5}', '{"version": 6}'])
    def test_snapshot_missing_fields_is_a_format_error(self, tmp_path, golden_path, doc):
        state = tmp_path / "state.json"
        state.write_text(doc)
        assert main(["snapshot-load", "--input", str(golden_path),
                     "--snapshot-in", str(state)]) == EXIT_FORMAT

    @pytest.mark.parametrize("mutate", [
        _as_format_3,
        _as_format_4,
        _as_format_5,
        _as_format_6,
        lambda s: s["recipients"]["names"].__setitem__(1, 1),
        lambda s: s["senders"]["names"].__setitem__(1, s["senders"]["names"][0]),
        # user 0 is in cluster 1, which these would find
        lambda s: s["recipients"]["cid"].__setitem__(1, 1.0),
        lambda s: s["recipients"]["cid"].__setitem__(1, True),
        # and user 0 already holds dim 2
        lambda s: s["senders"]["dims"].__setitem__(1, [0, 1, 2.0]),
        # a config the engine refuses, its fingerprint edited to match
        lambda s: s.update(config={**s["config"], "tau": True},
                           fingerprint=s["fingerprint"].replace("0.5", "True")),
        lambda s: s.update(config={**s["config"], "tau": 2.0},
                           fingerprint=s["fingerprint"].replace("0.5", "2.0")),
        # an int tau, as an earlier version saved it from the library: the
        # stored fingerprint no longer matches the one its config gives
        lambda s: s.update(config={**s["config"], "tau": 1},
                           fingerprint=s["fingerprint"].replace("0.5", "1")),
    ], ids=["format-3", "format-4", "format-5", "format-6", "name-not-a-string", "repeated-name",
            "cid-float", "cid-true", "dim-float", "config-tau-true",
            "config-tau-out-of-range", "int-tau-fingerprint"])
    def test_refused_snapshot_is_a_format_error(self, tmp_path, golden_path, mutate):
        state = tmp_path / "state.json"
        main(["snapshot-save", "--input", str(golden_path), "--limit", "6",
              "--snapshot-out", str(state)])
        doc = json.loads(state.read_text())
        mutate(doc)
        state.write_text(json.dumps(doc))
        assert main(["snapshot-load", "--input", str(golden_path),
                     "--snapshot-in", str(state)]) == EXIT_FORMAT

    @pytest.mark.parametrize("command", ["snapshot-save", "snapshot-load"])
    def test_snapshot_out_onto_the_input_is_a_config_error(
        self, tmp_path, golden_path, capsys, command
    ):
        state = tmp_path / "state.json"
        main(["snapshot-save", "--input", str(golden_path), "--limit", "4",
              "--snapshot-out", str(state)])
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(golden_path.read_bytes())
        link = tmp_path / "link.jsonl"
        link.symlink_to(corpus)
        extra = ["--snapshot-in", str(state)] if command == "snapshot-load" else []
        for target in (corpus, link):
            argv = [command, "--input", str(corpus), "--snapshot-out", str(target)]
            assert main(argv + extra) == EXIT_CONFIG
            assert corpus.read_bytes() == golden_path.read_bytes()
        assert "--snapshot-out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "corpus.jsonl", "link.jsonl", "state.json"]

    def test_output_and_snapshot_out_must_differ(self, tmp_path, golden_path, capsys):
        # a new path named twice, and an existing file under a second name
        out = tmp_path / "out.jsonl"
        argv = ["run", "--input", str(golden_path), "--output", str(out)]
        assert main(argv + ["--snapshot-out", str(tmp_path / "." / "out.jsonl")]) == EXIT_CONFIG
        assert not out.exists()
        out.write_text("kept\n")
        link = tmp_path / "link.json"
        link.symlink_to(out)
        assert main(argv + ["--snapshot-out", str(link)]) == EXIT_CONFIG
        assert out.read_text() == "kept\n"
        assert "--snapshot-out" in capsys.readouterr().err

    def test_output_onto_the_snapshot_in_is_a_config_error(
            self, tmp_path, golden_path, capsys):
        # the verdict lines would replace the saved state
        state = tmp_path / "state.json"
        main(["snapshot-save", "--input", str(golden_path), "--limit", "4",
              "--snapshot-out", str(state)])
        saved = state.read_bytes()
        link = tmp_path / "link.json"
        link.symlink_to(state)
        for output in (state, link):
            assert main(["snapshot-load", "--input", str(golden_path),
                         "--snapshot-in", str(state), "--output", str(output)]) == EXIT_CONFIG
            assert state.read_bytes() == saved
        assert "is the --snapshot-in file" in capsys.readouterr().err

    def test_a_snapshot_flag_reads_dash_as_a_file_name(
            self, tmp_path, golden_path, monkeypatch):
        # only --input and --output take "-" for stdin or stdout, so a clash
        # with a snapshot file named "-" is refused like any other
        monkeypatch.chdir(tmp_path)
        dash = tmp_path / "-"
        assert main(["snapshot-save", "--input", str(golden_path), "--limit", "4",
                     "--snapshot-out", "-"]) == EXIT_OK
        saved = dash.read_bytes()
        assert main(["snapshot-load", "--input", str(golden_path),
                     "--snapshot-in", "-", "--output", "./-"]) == EXIT_CONFIG
        assert dash.read_bytes() == saved
        dash.write_bytes(golden_path.read_bytes())
        assert main(["run", "--input", "./-", "--output", os.devnull,
                     "--snapshot-out", "-"]) == EXIT_CONFIG
        assert dash.read_bytes() == golden_path.read_bytes()

    def test_snapshot_out_may_replace_the_snapshot_in(self, tmp_path, golden_path):
        # the snapshot is read before anything is written
        state = tmp_path / "state.json"
        main(["snapshot-save", "--input", str(golden_path), "--limit", "4",
              "--snapshot-out", str(state)])
        assert main(["snapshot-load", "--input", str(golden_path), "--limit", "3",
                     "--snapshot-in", str(state), "--snapshot-out", str(state)]) == EXIT_OK
        assert json.loads(state.read_text())["input_offset"] == 7

    @pytest.mark.parametrize("corpus, output, snapshot_out", [
        ("corpus.jsonl", "state.json.tmp", "state.json"),  # the verdicts at PATH.tmp
        ("corpus.jsonl.tmp", None, "corpus.jsonl"),  # the input at PATH.tmp
    ], ids=["output", "input"])
    def test_a_file_at_the_snapshot_path_plus_tmp_is_kept(
            self, tmp_path, golden_path, corpus, output, snapshot_out):
        ref = tmp_path / "ref"
        ref.mkdir()
        assert main(["run", "--input", str(golden_path), "--output", str(ref / "verdicts"),
                     "--snapshot-out", str(ref / "state")]) == EXIT_OK
        work = tmp_path / "work"
        work.mkdir()
        (work / corpus).write_bytes(golden_path.read_bytes())
        assert main(["run", "--input", str(work / corpus),
                     "--output", str(work / output) if output else os.devnull,
                     "--snapshot-out", str(work / snapshot_out)]) == EXIT_OK
        expected = {corpus: golden_path.read_bytes(), snapshot_out: (ref / "state").read_bytes()}
        if output:
            expected[output] = (ref / "verdicts").read_bytes()
        assert {p.name: p.read_bytes() for p in work.iterdir()} == expected

    def test_conflicting_flags_rejected_on_resume(self, tmp_path, golden_path):
        state = tmp_path / "state.json"
        main(["snapshot-save", "--input", str(golden_path), "--limit", "4",
              "--snapshot-out", str(state)])
        # tau reshapes clusters, so resuming with a new tau must fail...
        code = main(["snapshot-load", "--input", str(golden_path),
                     "--snapshot-in", str(state), "--tau", "0.9"])
        assert code == EXIT_CONFIG
        # ...while omega only affects future verdicts and is fine
        code = main(["snapshot-load", "--input", str(golden_path), "--skip", "4",
                     "--snapshot-in", str(state), "--omega", "0.95"])
        assert code == EXIT_OK

    def test_library_snapshot_with_an_int_tau_resumes_under_that_tau(
            self, tmp_path, golden_path, golden_records):
        # EngineConfig(tau=1) fingerprints as --tau 1 does: tau=1.0
        straight = tmp_path / "straight.jsonl"
        assert main(["run", "--input", str(golden_path), "--tau", "1",
                     "--output", str(straight)]) == EXIT_OK
        engine = SpamRankEngine(EngineConfig(tau=1))
        for record in golden_records[:4]:
            engine.process(record)
        state = tmp_path / "state.json"
        save_snapshot(engine, str(state))
        tail = tmp_path / "tail.jsonl"
        assert main(["snapshot-load", "--input", str(golden_path), "--tau", "1",
                     "--snapshot-in", str(state), "--output", str(tail)]) == EXIT_OK
        assert tail.read_text().splitlines()[1:] == straight.read_text().splitlines()[5:]


# saved states with one defect each, that snapshot-load refuses with exit 4
# before any user is restored, by the name of the file _refusal_files writes
_BAD_STATES = {
    "null-cid": lambda d: d["senders"]["cid"].__setitem__(0, None),
    "column-not-a-list": lambda d: d["recipients"].update(
        total=dict(enumerate(d["recipients"]["total"]))),
    "column-short": lambda d: d["recipients"]["spam"].pop(),
    "dims-column-long": lambda d: d["senders"]["dims"].append([0]),
    "unknown-key": lambda d: d.update(comment="saved by hand"),
    "recipient-dims": lambda d: d["recipients"].update(
        dims=[[0] for _ in d["recipients"]["names"]]),
}


def _refusal_files(root: Path, golden_path: Path) -> None:
    """The inputs every refusal row reads, and an --output and a
    --snapshot-out target that already hold bytes."""
    lines = golden_path.read_text().splitlines(keepends=True)
    (root / "corpus.jsonl").write_text("".join(lines))
    (root / "short.jsonl").write_text("".join(lines[:4]))
    (root / "junk.jsonl").write_text("".join(lines[:3]) + "{not json\n" * 4)
    # the corpus with its ground truth, which noise-exp reads
    (root / "truth.jsonl").write_text("".join(
        json.dumps({**r, "truth": r["aux"]}) + "\n" for r in map(json.loads, lines)))
    assert main(["snapshot-save", "--input", str(root / "corpus.jsonl"), "--limit", "6",
                 "--snapshot-out", str(root / "state.json")]) == EXIT_OK
    for name, mutate in _BAD_STATES.items():
        doc = json.loads((root / "state.json").read_text())
        mutate(doc)
        (root / f"{name}.json").write_text(json.dumps(doc))
    (root / "broken.json").write_bytes(b"{broken")
    (root / "not-utf-8.json").write_bytes(b'\xff\xfe{"version": 3}')
    (root / "too-deep.json").write_bytes(b"[" * 100_000)
    (root / "format-2.json").write_text('{"version": 2}')
    (root / "out.jsonl").write_bytes(b"old verdicts\n")
    (root / "snap.json").write_bytes(b"old state\n")


# Each documented exit-2 or exit-4 refusal of run, snapshot-save,
# snapshot-load and the report commands. {name} is a file of
# _refusal_files; {new} names no file.
_RESUME = "snapshot-load --input {corpus.jsonl} --snapshot-in {state.json} --output {out.jsonl} "
_REFUSALS = [
    ("run-negative-skip", "run --input {corpus.jsonl} --output {new} --skip -1", EXIT_CONFIG),
    ("run-negative-limit",
     "run --input {corpus.jsonl} --output {out.jsonl} --snapshot-out {snap.json} --limit -1",
     EXIT_CONFIG),
    ("run-negative-limit-new-output", "run --input {corpus.jsonl} --output {new} --limit -1",
     EXIT_CONFIG),
    ("load-negative-limit", _RESUME + "--snapshot-out {snap.json} --limit -1", EXIT_CONFIG),
    ("load-negative-limit-new-output",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {state.json} --output {new} --limit -1",
     EXIT_CONFIG),
    ("run-tau-out-of-range", "run --input {corpus.jsonl} --output {out.jsonl} --tau 1.5",
     EXIT_CONFIG),
    ("output-is-input", "run --input {corpus.jsonl} --output {corpus.jsonl}", EXIT_CONFIG),
    ("snapshot-out-is-input", "snapshot-save --input {corpus.jsonl} --snapshot-out {corpus.jsonl}",
     EXIT_CONFIG),
    ("snapshot-out-is-output",
     "run --input {corpus.jsonl} --output {out.jsonl} --snapshot-out {out.jsonl}", EXIT_CONFIG),
    ("output-is-snapshot-in",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {state.json} --output {state.json}",
     EXIT_CONFIG),
    ("save-without-snapshot-out", "snapshot-save --input {corpus.jsonl} --output {out.jsonl}",
     EXIT_CONFIG),
    ("load-without-snapshot-in",
     "snapshot-load --input {corpus.jsonl} --output {out.jsonl} --snapshot-out {snap.json}",
     EXIT_CONFIG),
    ("load-conflicting-skip", _RESUME + "--snapshot-out {snap.json} --skip 3", EXIT_CONFIG),
    ("load-conflicting-skip-new-output",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {state.json} --output {new} --skip 3",
     EXIT_CONFIG),
    ("load-conflicting-tau", _RESUME + "--snapshot-out {snap.json} --tau 0.9", EXIT_CONFIG),
    ("load-short-input",
     "snapshot-load --input {short.jsonl} --snapshot-in {state.json} --output {out.jsonl} "
     "--snapshot-out {snap.json}", EXIT_CONFIG),
    ("load-unparsable-snapshot",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {broken.json} --output {out.jsonl}",
     EXIT_FORMAT),
    ("load-snapshot-not-utf-8",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {not-utf-8.json} --output {out.jsonl}",
     EXIT_FORMAT),
    ("load-snapshot-too-deep",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {too-deep.json} --output {out.jsonl}",
     EXIT_FORMAT),
    ("load-old-format",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {format-2.json} --output {out.jsonl} "
     "--snapshot-out {snap.json}", EXIT_FORMAT),
    ("load-ill-typed-snapshot",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {null-cid.json} --output {out.jsonl} "
     "--snapshot-out {snap.json}", EXIT_FORMAT),
    ("load-column-not-a-list",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {column-not-a-list.json} "
     "--output {out.jsonl} --snapshot-out {snap.json}", EXIT_FORMAT),
    ("load-column-short",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {column-short.json} "
     "--output {out.jsonl} --snapshot-out {snap.json}", EXIT_FORMAT),
    ("load-dims-column-long",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {dims-column-long.json} "
     "--output {out.jsonl} --snapshot-out {snap.json}", EXIT_FORMAT),
    ("load-unknown-key",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {unknown-key.json} "
     "--output {out.jsonl} --snapshot-out {snap.json}", EXIT_FORMAT),
    ("load-recipient-dims",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {recipient-dims.json} "
     "--output {out.jsonl} --snapshot-out {snap.json}", EXIT_FORMAT),
    ("save-mostly-malformed", "snapshot-save --input {junk.jsonl} --snapshot-out {snap.json}",
     EXIT_FORMAT),
    # a report's --output is a prefix: PREFIX.jsonl here names the --input file
    *((f"{command}-output-is-input", f"{command} --input {{truth.jsonl}} --output {{truth}}",
       EXIT_CONFIG)
      for command in ("sweep-tau", "sweep-omega", "heatmap", "baseline", "noise-exp")),
    # with --input -, the file redirected to stdin is the input file
    ("output-is-stdin", "run --input - --output {corpus.jsonl}", EXIT_CONFIG),
    ("snapshot-out-is-stdin",
     "run --input - --output {out.jsonl} --snapshot-out {corpus.jsonl}", EXIT_CONFIG),
    ("baseline-output-is-stdin", "baseline --input - --output {corpus}", EXIT_CONFIG),
]

# With --output - (run's default), the file stdout appends to is the --output
# file. Each row: the file of _refusal_files stdout appends to, the argv
# (exit 2), and the end of the refusal message, which names --output by "-".
_STDOUT_REFUSALS = [
    ("stdout-is-input", "corpus.jsonl", "run --input {corpus.jsonl}",
     "--output - is the --input file"),
    ("stdout-is-stdin", "corpus.jsonl", "run --input -", "--output - is the --input file"),
    ("stdout-is-snapshot-in", "state.json",
     "snapshot-load --input {corpus.jsonl} --snapshot-in {state.json}",
     "--output - is the --snapshot-in file"),
    ("snapshot-out-is-stdout", "out.jsonl",
     "run --input {corpus.jsonl} --output - --snapshot-out {out.jsonl}",
     "out.jsonl is the --output file"),
]


class TestRefusals:
    @staticmethod
    def _refused(root, golden_path, monkeypatch, argv, code, stdout=None):
        _refusal_files(root, golden_path)
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        args = [str(root / a[1:-1]) if a.startswith("{") else a for a in argv.split()]
        # what --input - reads: the corpus file, redirected to stdin
        with open(root / "corpus.jsonl", encoding="utf-8") as stdin, \
                open(root / stdout, "a", encoding="utf-8") if stdout else nullcontext() as out:
            monkeypatch.setattr(sys, "stdin", stdin)
            if out is not None:
                monkeypatch.setattr(sys, "stdout", out)
            assert main(args) == code
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    @pytest.mark.parametrize("argv, code", [row[1:] for row in _REFUSALS],
                             ids=[row[0] for row in _REFUSALS])
    def test_a_refusal_leaves_every_file_as_it_was(self, tmp_path, golden_path, monkeypatch,
                                                   argv, code):
        self._refused(tmp_path, golden_path, monkeypatch, argv, code)

    @pytest.mark.parametrize("stdout, argv, message", [row[1:] for row in _STDOUT_REFUSALS],
                             ids=[row[0] for row in _STDOUT_REFUSALS])
    def test_a_stdout_appending_to_a_named_file_is_that_file(
            self, tmp_path, golden_path, monkeypatch, capsys, stdout, argv, message):
        self._refused(tmp_path, golden_path, monkeypatch, argv, EXIT_CONFIG, stdout)
        assert capsys.readouterr().err.endswith(f"{message}\n")

    def test_a_part_way_failure_keeps_the_verdicts_it_wrote(self, tmp_path, golden_path):
        # the one documented exception: --output holds the verdicts written
        # before the parse error, and --snapshot-out is untouched
        _refusal_files(tmp_path, golden_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(["run", "--input", str(tmp_path / "junk.jsonl"),
                     "--output", str(tmp_path / "out.jsonl"),
                     "--snapshot-out", str(tmp_path / "snap.json")]) == EXIT_FORMAT
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        written = after.pop("out.jsonl").splitlines()
        assert "header" in json.loads(written[0])
        assert [json.loads(l)["id"] for l in written[1:]] == ["m01", "m02", "m03"]
        del before["out.jsonl"]
        assert after == before


class TestReportCommands:
    def test_sweep_tau_writes_both_files(self, tmp_path, golden_path):
        prefix = tmp_path / "tsweep"
        code = main(["sweep-tau", "--input", str(golden_path),
                     "--grid", "0.3,0.6", "--output", str(prefix)])
        assert code == EXIT_OK
        tsv = (prefix.parent / "tsweep.tsv").read_text().splitlines()
        assert tsv[0].startswith("# ")
        assert len(tsv) == 2 + 2
        rows = [json.loads(l)
                for l in (prefix.parent / "tsweep.jsonl").read_text().splitlines()]
        assert rows[1]["tau"] == 0.3

    def test_sweep_omega_refuses_an_omega_run_refuses(self, tmp_path, golden_path):
        prefix = tmp_path / "osweep"
        code = main(["sweep-omega", "--input", str(golden_path),
                     "--grid", "0.2,0.9", "--output", str(prefix)])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "osweep.tsv").exists()

    def test_heatmap_files(self, tmp_path, golden_path):
        prefix = tmp_path / "hm"
        code = main(["heatmap", "--input", str(golden_path),
                     "--bin-size", "0.25", "--output", str(prefix)])
        assert code == EXIT_OK
        mat = (tmp_path / "hm.messages.tsv").read_text().splitlines()
        counts = [int(c) for row in mat[1:] for c in row.split("\t")]
        assert sum(counts) == 10
        assert len(mat) == 1 + 4

    def test_baseline_report(self, tmp_path, golden_path, capsys):
        prefix = tmp_path / "base"
        assert main(["baseline", "--input", str(golden_path),
                     "--output", str(prefix)]) == EXIT_OK
        row = json.loads((tmp_path / "base.jsonl").read_text().splitlines()[1])
        assert row["total_messages"] == 10

    def test_noise_exp_report(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        main(["generate", "--output", str(corpus), "--messages", "500"])
        prefix = tmp_path / "noise"
        assert main(["noise-exp", "--input", str(corpus), "--flip-rate", "0.1",
                     "--output", str(prefix)]) == EXIT_OK
        row = json.loads((tmp_path / "noise.jsonl").read_text().splitlines()[1])
        assert 0.0 < row["aux_error_rate"] < 0.2
        assert row["total_messages"] == 500

    def test_noise_exp_without_truth_is_a_config_error(self, tmp_path, golden_path):
        prefix = tmp_path / "noise"
        assert main(["noise-exp", "--input", str(golden_path),
                     "--output", str(prefix)]) == EXIT_CONFIG

    def test_sweep_grid_is_parsed_before_the_input_is_read(self, tmp_path):
        assert main(["sweep-tau", "--input", str(tmp_path / "missing.jsonl"),
                     "--grid", "0:inf:1", "--output", str(tmp_path / "t")]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("size", ["1e-320", "1e-300"])
    def test_heatmap_refuses_a_tiny_bin_size(self, tmp_path, golden_path, size):
        assert main(["heatmap", "--input", str(golden_path), "--bin-size", size,
                     "--output", str(tmp_path / "h")]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []


# Few senders keep the sweep's beta CV small (on Python 3.10 its pstdev
# still holds 8 B per pair of sender clusters); many distinct recipients
# make each held record cost ~1 KB, so a command that kept the records
# would stand out.
SPARSE_SPEC = WorkloadSpec(
    seed=11, n_messages=12_000, n_legit_senders=300, n_spam_senders=200,
    n_recipients=20_000, n_communities=400, community_size_mean=25.0,
    n_distribution_lists=100, list_size_mean=40.0, spam_fraction=0.7,
    legit_recipients_mean=3.0, spam_recipients_mean=8.0, sender_churn_rate=0.0,
)

# run one command in a fresh interpreter and print its own peak RSS in kB;
# VmHWM is the child's memory alone, where ru_maxrss carries over the high
# mark of the process that started it
PEAK_RSS_CHILD = """
import sys
from spamrank.cli import main
assert main(sys.argv[1:]) == 0
print(next(l.split()[1] for l in open("/proc/self/status") if l.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux VmHWM")
def test_report_commands_stream_the_corpus(tmp_path):
    corpus = tmp_path / "sparse.jsonl"
    write_jsonl(str(corpus), generate(SPARSE_SPEC))
    procs = {
        cmd: subprocess.Popen(
            [sys.executable, "-c", PEAK_RSS_CHILD, cmd, "--input", str(corpus),
             "--output", str(tmp_path / cmd)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=_child_env(),
        )
        for cmd in ("heatmap", "noise-exp", "sweep-omega")
    }
    peak_mb = {}
    for cmd, proc in procs.items():
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, cmd
        peak_mb[cmd] = int(out) / 1024
    # when both read the corpus into a list, noise-exp peaked 12 MB and
    # sweep-omega 15 MB above heatmap; now sweep-omega keeps only one
    # (rank, aux) pair per message
    assert peak_mb["noise-exp"] < peak_mb["heatmap"] + 2, peak_mb
    assert peak_mb["sweep-omega"] < peak_mb["heatmap"] + 8, peak_mb


# engine flags a report command would ignore: a sweep's grid stands in for
# the swept value, and neither the heatmap bins nor the baseline decide
IGNORED_FLAGS = {
    ("sweep-tau", "--tau"),
    ("sweep-omega", "--omega"),
    ("heatmap", "--omega"),
    ("baseline", "--tau"),
    ("baseline", "--omega"),
}
ENGINE_FLAGS = (("--tau", "0.6", 0.6), ("--omega", "0.9", 0.9),
                ("--sender-identity", "full", "full"))
REPORTS = ("sweep-tau", "sweep-omega", "heatmap", "baseline", "noise-exp")


class TestReportFlags:
    def test_every_engine_config_field_has_a_flag(self):
        # so a new setting cannot ship without its flag
        assert list(cli._ENGINE_FLAGS) == list(EngineConfig.__slots__)

    @pytest.mark.parametrize("command,flag", sorted(IGNORED_FLAGS))
    def test_ignored_engine_flag_is_a_usage_error(self, command, flag, capsys):
        value = {f: v for f, v, _ in ENGINE_FLAGS}[flag]
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,text,value", [
        (command, flag, text, value)
        for command in REPORTS
        for flag, text, value in ENGINE_FLAGS
        if (command, flag) not in IGNORED_FLAGS
    ])
    def test_every_other_engine_flag_is_read(self, command, flag, text, value):
        args = build_parser().parse_args([command, flag, text])
        assert getattr(args, flag[2:].replace("-", "_")) == value


# run in a fresh interpreter: the three streaming commands, then the modules
# that must not have been loaded for them
LEAN_CHILD = """
import sys
from spamrank.cli import main
golden, out, state = sys.argv[1:]
codes = [
    main(["run", "--input", golden, "--output", out]),
    main(["snapshot-save", "--input", golden, "--limit", "4", "--snapshot-out", state]),
    main(["snapshot-load", "--input", golden, "--snapshot-in", state, "--output", out]),
]
heavy = ("dataclasses", "statistics", "spamrank.evaluation", "spamrank.synthgen")
print(codes, [name for name in heavy if name in sys.modules])
"""


class TestTopLevel:
    def test_streaming_commands_load_no_report_or_generator_module(
        self, tmp_path, golden_path
    ):
        proc = subprocess.run(
            [sys.executable, "-c", LEAN_CHILD, str(golden_path),
             str(tmp_path / "v.jsonl"), str(tmp_path / "state.json")],
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=60, check=True,
        )
        assert proc.stdout.strip() == "[0, 0, 0] []"

    def test_every_exported_name_resolves(self):
        for name in spamrank.__all__:
            assert getattr(spamrank, name) is not None, name
        namespace: dict = {}
        exec("from spamrank import *", namespace)
        assert set(spamrank.__all__) <= set(namespace)
        with pytest.raises(AttributeError, match="no_such_name"):
            spamrank.no_such_name

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("spamrank ")
