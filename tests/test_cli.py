import json
import os
import queue
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import spamrank
from spamrank import ConfigError
from spamrank.cli import (
    EXIT_CONFIG,
    EXIT_FORMAT,
    EXIT_IO,
    EXIT_OK,
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

    @pytest.mark.parametrize("bad", ["", "a,b", "1:0", "0:1:0", "0:1:-1", "1:2:3:4"])
    def test_rejects_malformed_grids(self, bad):
        with pytest.raises(ConfigError):
            parse_grid(bad)


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

    def test_skip_and_limit_window_the_stream(self, tmp_path, golden_path):
        out = tmp_path / "v.jsonl"
        code = main(["run", "--input", str(golden_path), "--output", str(out),
                     "--skip", "2", "--limit", "3"])
        assert code == EXIT_OK
        ids = [json.loads(l)["id"] for l in out.read_text().splitlines()[1:]]
        assert ids == ["m03", "m04", "m05"]

    def test_missing_input_is_an_io_error(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "nope.jsonl")]) == EXIT_IO

    def test_missing_input_creates_no_output_file(self, tmp_path):
        out = tmp_path / "v.jsonl"
        code = main(["run", "--input", str(tmp_path / "nope.jsonl"),
                     "--output", str(out)])
        assert code == EXIT_IO
        assert not out.exists()

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

    def test_failure_part_way_keeps_the_lines_written(self, tmp_path, golden_path):
        # three good records, then more malformed lines than good ones: the
        # parser rejects the stream only once it has seen the whole input
        good = golden_path.read_text().splitlines()[:3]
        corpus = tmp_path / "mostly_bad.jsonl"
        corpus.write_text("\n".join(good + ["{not json"] * 4) + "\n")
        out = tmp_path / "v.jsonl"
        code = main(["run", "--input", str(corpus), "--output", str(out)])
        assert code == EXIT_FORMAT
        lines = out.read_text().splitlines()
        assert "header" in json.loads(lines[0])
        assert [json.loads(l)["id"] for l in lines[1:]] == ["m01", "m02", "m03"]

    def test_live_pipe_sees_each_verdict_before_stdin_closes(self, golden_path):
        src = str(Path(spamrank.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "spamrank.cli", "run", "--input", "-", "--output", "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
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

    @pytest.mark.parametrize("rate", ["-1", "nan", "1.5"])
    def test_flip_rate_outside_the_unit_interval_is_a_config_error(self, tmp_path, rate):
        corpus = tmp_path / "noisy.jsonl"
        code = main(["generate", "--output", str(corpus), "--messages", "50",
                     "--flip-rate", rate])
        assert code == EXIT_CONFIG
        assert not corpus.exists()


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

    def test_conflicting_skip_rejected_on_resume(self, tmp_path, golden_path):
        state = tmp_path / "state.json"
        main(["snapshot-save", "--input", str(golden_path), "--limit", "6",
              "--snapshot-out", str(state)])
        tail = tmp_path / "tail.jsonl"
        code = main(["snapshot-load", "--input", str(golden_path), "--skip", "3",
                     "--snapshot-in", str(state), "--output", str(tail)])
        assert code == EXIT_CONFIG
        assert not tail.exists()

    def test_save_requires_a_target(self, golden_path):
        assert main(["snapshot-save", "--input", str(golden_path)]) == EXIT_CONFIG

    def test_load_requires_a_source(self, golden_path):
        assert main(["snapshot-load", "--input", str(golden_path)]) == EXIT_CONFIG

    def test_corrupt_snapshot_is_a_format_error(self, tmp_path, golden_path):
        state = tmp_path / "state.json"
        state.write_text("{broken")
        assert main(["snapshot-load", "--input", str(golden_path),
                     "--snapshot-in", str(state)]) == EXIT_FORMAT

    @pytest.mark.parametrize("doc", ['{"version": 2}', '{"version": 1}'])
    def test_snapshot_missing_fields_is_a_format_error(self, tmp_path, golden_path, doc):
        state = tmp_path / "state.json"
        state.write_text(doc)
        assert main(["snapshot-load", "--input", str(golden_path),
                     "--snapshot-in", str(state)]) == EXIT_FORMAT

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


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("spamrank ")
