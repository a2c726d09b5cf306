import json

import pytest

from spamrank import (
    EngineConfig,
    FormatError,
    InternalStateError,
    SpamRankEngine,
    load_snapshot,
    save_snapshot,
)
from spamrank import snapshot
from spamrank.snapshot import STATE_VERSION, engine_from_state, engine_state


def run_engine(records, cfg=None):
    engine = SpamRankEngine(cfg or EngineConfig())
    verdicts = [engine.process(r) for r in records]
    return engine, verdicts


def _unclustered_user_with_float_dim(state):
    row = state["senders"]["users"][5]
    row[1], row[4] = [0, 2.5], None


class TestStateRoundTrip:
    def test_state_dict_round_trips(self, golden_records):
        engine, _ = run_engine(golden_records)
        state = engine_state(engine)
        clone = engine_from_state(state)
        assert engine_state(clone) == state
        clone.check_integrity()

    def test_resume_mid_stream_is_invisible(self, golden_records):
        _, straight = run_engine(golden_records)
        first, _ = run_engine(golden_records[:6])
        resumed = engine_from_state(engine_state(first))
        tail = [resumed.process(r) for r in golden_records[6:]]
        replayed = [v for _, v in zip(range(6), straight)] + tail
        for a, b in zip(straight, replayed):
            assert a == b  # every field, floats included, must be identical
        assert resumed.messages_processed == 10

    def test_file_round_trip(self, tmp_path, golden_records):
        engine, _ = run_engine(golden_records)
        path = tmp_path / "state.json"
        save_snapshot(engine, str(path))
        clone = load_snapshot(str(path))
        assert engine_state(clone) == engine_state(engine)

    def test_json_is_single_line_and_versioned(self, tmp_path, golden_records):
        engine, _ = run_engine(golden_records)
        path = tmp_path / "state.json"
        save_snapshot(engine, str(path))
        text = path.read_text()
        assert text.count("\n") == 1
        assert json.loads(text)["version"] == STATE_VERSION


class TestValidation:
    def test_wrong_version_rejected(self, golden_records):
        engine, _ = run_engine(golden_records)
        state = engine_state(engine)
        state["version"] = 99
        with pytest.raises(FormatError):
            engine_from_state(state)

    def test_fingerprint_must_match_config(self, golden_records):
        engine, _ = run_engine(golden_records)
        state = engine_state(engine)
        state["fingerprint"] = "tampered"
        with pytest.raises(FormatError):
            engine_from_state(state)

    def test_omega_does_not_invalidate_a_snapshot(self, golden_records):
        # omega shapes verdicts, not state: the fingerprint ignores it
        engine, _ = run_engine(golden_records, EngineConfig(omega=0.6))
        state = engine_state(engine)
        state["config"]["omega"] = 0.95
        clone = engine_from_state(state)
        assert clone.config.omega == 0.95

    def test_corrupted_freq_sum_fails_verification(self, golden_records):
        engine, _ = run_engine(golden_records)
        # tamper with the serialized form, as on-disk corruption would
        state = json.loads(json.dumps(engine_state(engine)))
        # freq_sum is the one cluster value kept on disk: the rebuild that
        # every load runs must notice it no longer sums the members
        state["senders"]["clusters"][0][1] += 0.5
        with pytest.raises(InternalStateError):
            engine_from_state(state)

    def test_clusters_are_stored_as_freq_sums_only(self, golden_records):
        # count vectors, norms and member counts are rebuilt from the users
        engine, _ = run_engine(golden_records)
        state = engine_state(engine)
        for side, space in (("senders", engine.sender_side),
                            ("recipients", engine.recipient_side)):
            assert state[side]["clusters"] == [
                [cid, space.clusters[cid].freq_sum] for cid in sorted(space.clusters)
            ]

    def test_garbage_files_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FormatError):
            load_snapshot(str(bad))
        bad.write_text("[1, 2]")
        with pytest.raises(FormatError):
            load_snapshot(str(bad))

    def test_version_one_snapshot_rejected(self, golden_records):
        engine, _ = run_engine(golden_records)
        state = engine_state(engine)
        state["version"] = 1
        state["config"].update(assign_before_update=False, score_before_update=False)
        with pytest.raises(FormatError):
            engine_from_state(state)

    @pytest.mark.parametrize("mutate", [
        lambda s: s.pop("config"),
        lambda s: s.update(config=[0.5]),
        lambda s: s["config"].update(assign_before_update=False),
        lambda s: s.pop("senders"),
        lambda s: s["recipients"].pop("names"),
        lambda s: s["senders"]["users"].append([99, [], 0]),
        lambda s: s["senders"]["clusters"].append("x"),
        lambda s: s["senders"]["users"][0].__setitem__(4, 12345),
        lambda s: s.pop("messages_processed"),
        lambda s: s.update(messages_processed="six"),
        lambda s: s["recipients"].update(next_cid=2.5),
        lambda s: s["senders"]["users"][1].__setitem__(0, 0),
        lambda s: s["senders"]["users"][0].__setitem__(0, 0.0),
        lambda s: s["senders"]["users"][0].__setitem__(2, 3),
        lambda s: s["senders"]["users"][2].__setitem__(2, -1),
        lambda s: s["senders"]["users"][0].__setitem__(3, 2.0),
        lambda s: s["senders"].update(next_cid=1),
        lambda s: s["senders"]["users"][0].__setitem__(4, 0),
        lambda s: s["senders"]["users"][0].__setitem__(4, "1"),
        lambda s: s["senders"]["users"][5].__setitem__(1, [0, "2"]),
        lambda s: s["senders"]["users"][5].__setitem__(1, [0, 2, 5]),
        lambda s: s["recipients"]["users"][3].__setitem__(1, [-1, 2]),
        _unclustered_user_with_float_dim,
        lambda s: s["senders"]["clusters"].append([7, 0.0]),
        lambda s: s["senders"]["clusters"].pop(),
        lambda s: s["senders"]["clusters"].append([1, 3.0]),
        lambda s: s["senders"]["clusters"][1].__setitem__(1, 0),
        lambda s: s["senders"]["names"].append("d9.example"),
        lambda s: s["senders"]["names"].__setitem__(1, "d1.example"),
        lambda s: s.update(input_offset=3),
    ], ids=["no-config", "config-list", "config-extra-key", "no-senders",
            "no-names", "short-user-row", "cluster-not-a-row",
            "user-in-unknown-cluster", "no-message-count", "message-count-text",
            "next-cid-float", "uid-not-row-index", "uid-float", "spam-above-total",
            "negative-spam", "total-float", "next-cid-at-a-live-cluster",
            "cid-zero", "cid-text", "dim-text", "dim-names-no-user",
            "dim-negative", "unclustered-dim-float", "freq-sum-of-no-members",
            "cluster-without-freq-sum", "freq-sum-twice", "freq-sum-int",
            "name-without-user", "repeated-name", "offset-below-message-count"])
    def test_malformed_state_is_a_format_error(self, golden_records, mutate):
        engine, _ = run_engine(golden_records)
        state = json.loads(json.dumps(engine_state(engine)))
        mutate(state)
        with pytest.raises(FormatError):
            engine_from_state(state)


class TestAtomicSave:
    def test_failed_serialization_keeps_the_previous_snapshot(
        self, tmp_path, golden_records, monkeypatch
    ):
        engine, _ = run_engine(golden_records)
        path = tmp_path / "state.json"
        save_snapshot(engine, str(path))
        before = path.read_bytes()
        monkeypatch.setattr(snapshot, "engine_state", lambda e: {"bad": object()})
        with pytest.raises(TypeError):
            save_snapshot(engine, str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]

    def test_failed_replace_keeps_the_previous_snapshot(
        self, tmp_path, golden_records, monkeypatch
    ):
        first, _ = run_engine(golden_records[:4])
        path = tmp_path / "state.json"
        save_snapshot(first, str(path))
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(snapshot.os, "replace", fail)
        engine, _ = run_engine(golden_records)
        with pytest.raises(OSError):
            save_snapshot(engine, str(path))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]
