import gc
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spamrank import (
    HAM,
    SPAM,
    EngineConfig,
    FormatError,
    InternalStateError,
    MessageRecord,
    SpamRankEngine,
    WorkloadSpec,
    generate,
    load_snapshot,
    save_snapshot,
)
from spamrank import snapshot
from spamrank.clustering import ClusterSpace
from spamrank.snapshot import STATE_VERSION, engine_from_state, engine_state


def run_engine(records, cfg=None):
    engine = SpamRankEngine(cfg or EngineConfig())
    verdicts = [engine.process(r) for r in records]
    return engine, verdicts


def _add(side: dict, **values) -> None:
    # one value appended to each named column, and to no other
    for key, value in values.items():
        side[key].append(value)


def _append_user(side: dict, name: str, **values) -> None:
    # a user in a cluster of its own, so only its own values can be wrong
    _add(side, names=name, **values, cid=side["next_cid"])
    side["next_cid"] += 1


def _repeat_name(side: dict, uid: int) -> None:
    side["names"][uid] = side["names"][0]


def _paths(doc, path=()):
    """(path, value) for every value in a JSON document, containers too."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# one edit: an int swapped for float(v), bool(v), str(v) or null, an int
# off by one, or a list element dropped or duplicated
_SWAPS = {"float": float, "bool": bool, "str": str, "null": lambda v: None,
          "plus-one": lambda v: v + 1, "minus-one": lambda v: v - 1}
_LIST_EDITS = ("drop", "duplicate")


def _same_document(doc: dict) -> str:
    # type-strict through the JSON text; sender dims compared as sets
    doc = json.loads(json.dumps(doc))
    doc["senders"]["dims"] = list(map(sorted, doc["senders"]["dims"]))
    return json.dumps(doc, sort_keys=True)


class TestStateRoundTrip:
    def test_state_dict_round_trips(self, golden_records):
        engine, _ = run_engine(golden_records)
        state = engine_state(engine)
        clone = engine_from_state(state)
        assert engine_state(clone) == state
        clone.check_integrity()

    def test_config_holds_the_config_fields_in_their_order(self, golden_records):
        engine, _ = run_engine(golden_records, EngineConfig(0.4, 0.9, "full"))
        config = engine_state(engine)["config"]
        assert list(config) == list(EngineConfig.__slots__)
        assert EngineConfig(**config) == engine.config

    def test_default_corpus_round_trips_through_json(self, default_records):
        engine, _ = run_engine(default_records)
        state = engine_state(engine)
        clone = engine_from_state(json.loads(json.dumps(state)))
        assert engine_state(clone) == state

    def test_each_side_holds_one_column_per_field(self, golden_records):
        engine, _ = run_engine(golden_records)
        state = engine_state(engine)
        assert state["version"] == STATE_VERSION == 8
        assert list(state) == ["version", "config", "input_offset", "last_message",
                               "senders", "recipients"]
        for side, space, interner in (
            ("senders", engine.sender_side, engine.senders),
            ("recipients", engine.recipient_side, engine.recipients),
        ):
            # cluster values are all rebuilt from the users on load; index
            # i of each column is user i, and only senders store dims
            uids = range(len(interner))
            expect = {"next_cid": space._next_cid, "names": interner.names(),
                      "spam": space.spam, "total": space.total,
                      "cid": [space.user_cluster[uid] for uid in uids]}
            if side == "senders":
                expect["dims"] = [sorted(space.user_dims[uid]) for uid in uids]
            assert state[side] == expect
            assert list(state[side]) == [
                "next_cid", "names", *(["dims"] if side == "senders" else []),
                "spam", "total", "cid"]

    def test_the_state_shares_no_list_with_the_engine(self, tmp_path, golden_records):
        # editing the dict engine_state returns, or the dict an engine was
        # loaded from, leaves that engine as it was: it checks, and saves
        # the same bytes
        engine, _ = run_engine(golden_records)
        path = tmp_path / "state.json"
        save_snapshot(engine, str(path))
        saved = path.read_bytes()
        loaded_from = json.loads(saved)
        clone = engine_from_state(loaded_from)
        for state in (engine_state(engine), loaded_from):
            for side in ("senders", "recipients"):
                state[side]["spam"].append(0)
                state[side]["total"][-1] += 1
                state[side]["cid"][0] += 1
                state[side]["names"][0] = "edited"
            state["senders"]["dims"][0].append(99)
        for live in (engine, clone):
            live.check_integrity()
            save_snapshot(live, str(path))
            assert path.read_bytes() == saved

    def test_recipient_vectors_are_the_transposed_sender_vectors(self, golden_records):
        engine, _ = run_engine(golden_records)
        transposed = [[] for _ in range(len(engine.recipients))]
        for sid, dims in enumerate(engine.sender_side.user_dims):
            for rid in dims:
                transposed[rid].append(sid)
        assert [sorted(dims) for dims in engine.recipient_side.user_dims] == transposed
        clone = engine_from_state(json.loads(json.dumps(engine_state(engine))))
        assert clone.recipient_side.user_dims == list(map(tuple, transposed))
        assert clone.sender_side.user_dims == [
            tuple(sorted(dims)) for dims in engine.sender_side.user_dims]

    def test_resume_mid_stream_is_invisible(self, golden_records):
        _, straight = run_engine(golden_records)
        first, _ = run_engine(golden_records[:6])
        resumed = engine_from_state(engine_state(first))
        tail = [resumed.process(r) for r in golden_records[6:]]
        replayed = [v for _, v in zip(range(6), straight)] + tail
        for a, b in zip(straight, replayed):
            assert a == b  # every field, floats included, must be identical
        assert resumed.input_offset == 10

    def test_an_offset_set_on_a_library_engine_is_saved_and_resumed(self, golden_records):
        # a library engine told it was handed the stream after 5 records
        # saves those 5 in its offset, and resumes as if never cut
        _, straight = run_engine(golden_records)
        engine = SpamRankEngine()
        engine.input_offset = 5
        for record in golden_records[:3]:
            engine.process(record)
        state = engine_state(engine)
        assert (state["input_offset"], sum(state["senders"]["total"])) == (8, 3)
        assert state["last_message"] == ["l1.org", ["c@u.example"], "ham"]
        resumed = engine_from_state(json.loads(json.dumps(state)))
        assert resumed.input_offset == 8
        assert [resumed.process(r) for r in golden_records[3:]] == straight[3:]

    def test_an_engine_with_no_message_round_trips(self):
        # no sender holds a dim, and no recipient is there to name
        state = json.loads(json.dumps(engine_state(SpamRankEngine())))
        assert engine_state(engine_from_state(state)) == state

    def test_the_last_message_round_trips(self, golden_records):
        # the fields of the record process() saw last, which a resume
        # compares with its input; a fresh engine has none
        assert engine_state(SpamRankEngine())["last_message"] is None
        engine, _ = run_engine(golden_records[:6])
        last = golden_records[5]
        state = json.loads(json.dumps(engine_state(engine)))
        assert state["last_message"] == [last.sender, list(last.recipients), last.aux_label]
        clone = engine_from_state(state)
        assert (clone.last_record.sender, clone.last_record.recipients,
                clone.last_record.aux_label) == (last.sender, last.recipients, last.aux_label)
        assert engine_state(clone) == state
        clone.process(golden_records[6])
        assert clone.last_record is golden_records[6]

    def test_resume_of_a_label_noisy_stream_is_invisible(self, noisy_records):
        # flipped labels leave many users with mixed spam/ham histories at the
        # cut, whose frequencies restore and check_integrity must divide for;
        # the golden corpus has too few of them
        cut = 2000
        _, straight = run_engine(noisy_records)
        first, _ = run_engine(noisy_records[:cut])
        state = engine_state(first)
        for side in ("senders", "recipients"):
            counts = zip(state[side]["spam"], state[side]["total"])
            assert sum(0 < spam < total for spam, total in counts) >= 50, side
        resumed = engine_from_state(json.loads(json.dumps(state)))
        assert engine_state(resumed) == state
        assert [resumed.process(r) for r in noisy_records[cut:]] == straight[cut:]

    def test_file_round_trip(self, tmp_path, golden_records):
        engine, _ = run_engine(golden_records)
        path = tmp_path / "state.json"
        save_snapshot(engine, str(path))
        clone = load_snapshot(str(path))
        assert engine_state(clone) == engine_state(engine)

    def test_a_loaded_engine_holds_the_live_engine_tuples(self, tmp_path, golden_records):
        # a restore that handed over lists would cost memory in every
        # resumed run; the load order of ids may differ, not their sets
        engine, _ = run_engine(golden_records)
        path = tmp_path / "state.json"
        save_snapshot(engine, str(path))
        clone = load_snapshot(str(path))
        for live, loaded in ((engine.sender_side, clone.sender_side),
                             (engine.recipient_side, clone.recipient_side)):
            for space in (live, loaded):
                assert {type(dims) for dims in space.user_dims} == {tuple}
                assert {type(c.members) for c in space.clusters.values()} == {tuple}
            assert list(map(sorted, loaded.user_dims)) == list(map(sorted, live.user_dims))
            assert ({cid: sorted(c.members) for cid, c in loaded.clusters.items()}
                    == {cid: sorted(c.members) for cid, c in live.clusters.items()})

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

    def test_omega_does_not_invalidate_a_snapshot(self, golden_records):
        # omega shapes verdicts, not state: the fingerprint ignores it
        engine, _ = run_engine(golden_records, EngineConfig(omega=0.6))
        state = engine_state(engine)
        state["config"]["omega"] = 0.95
        clone = engine_from_state(state)
        assert clone.config.omega == 0.95

    def test_corrupted_freq_sum_fails_verification(self, golden_records):
        # the load rebuilds every sum exactly, so the integrity check that
        # ends it compares with == and a sum off by one unit is caught
        engine = engine_from_state(engine_state(run_engine(golden_records)[0]))
        engine.check_integrity()
        for space in (engine.sender_side, engine.recipient_side):
            cluster = next(c for c in space.clusters.values() if c.scored_members)
            cluster.freq_sum += 1
            with pytest.raises(InternalStateError):
                space.check_integrity()
            cluster.freq_sum -= 1

    def test_garbage_files_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(FormatError):
            load_snapshot(str(bad))
        bad.write_text("[1, 2]")
        with pytest.raises(FormatError):
            load_snapshot(str(bad))
        for content in (b'\xff\xfe{"version": 3}', b"[" * 100_000):  # not UTF-8, too deep
            bad.write_bytes(content)
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
        lambda s: _add(s["senders"], names=99, dims=[], spam=0),
        lambda s: s["senders"]["cid"].__setitem__(0, 12345),
        # the sender totals, which count the messages
        lambda s: s["senders"].pop("total"),
        lambda s: s["senders"]["total"].__setitem__(0, "3"),
        lambda s: s["recipients"].update(next_cid=2.5),
        lambda s: _repeat_name(s["senders"], 1),
        lambda s: s["senders"]["names"].__setitem__(0, 0.0),
        lambda s: s["senders"]["spam"].__setitem__(0, s["senders"]["total"][0] + 1),
        lambda s: s["senders"]["spam"].__setitem__(2, -1),
        lambda s: s["senders"]["total"].__setitem__(0, 2.0),
        lambda s: s["senders"].update(next_cid=1),
        lambda s: s["senders"]["cid"].__setitem__(0, 0),
        lambda s: s["senders"]["cid"].__setitem__(0, "1"),
        lambda s: s["senders"]["dims"].__setitem__(5, [0, "2"]),
        lambda s: s["senders"]["dims"].__setitem__(5, [0, 2, 5]),
        lambda s: s["senders"]["dims"].__setitem__(3, [-1, 2]),
        lambda s: s["senders"]["cid"].__setitem__(5, None),
        lambda s: s["senders"]["dims"].__setitem__(5, [0, 2.5]),
        lambda s: _repeat_name(s["recipients"], -1),
        lambda s: s.update(input_offset=3),
        lambda s: s["senders"]["names"].__setitem__(0, 7),
        lambda s: s["senders"]["dims"].__setitem__(5, [0, 2, 0]),
        lambda s: s["senders"]["dims"].__setitem__(3, (2, 3)),
        # user 0 is in cluster 1, which these would find
        lambda s: s["recipients"]["cid"].__setitem__(1, 1.0),
        lambda s: s["recipients"]["cid"].__setitem__(1, True),
        lambda s: s.update(version=4),
        lambda s: s.update(version=float(STATE_VERSION)),
        # user 0 already holds dims 1 and 2, whose posting keys these would find
        lambda s: s["senders"]["dims"].__setitem__(1, [0, 1, 2.0]),
        lambda s: s["senders"]["dims"].__setitem__(1, [0, True, 2]),
        lambda s: s["config"].update(tau=True),
        lambda s: s["config"].update(omega=True),
        lambda s: s["config"].update(tau=2.0),
        # states no run of process() reaches: a user with no contact
        lambda s: _append_user(s["senders"], "ghost.example", dims=[], spam=0, total=0),
        lambda s: s["senders"]["dims"].__setitem__(3, []),
        lambda s: _append_user(s["recipients"], "ghost@u.example", spam=0, total=0),
        # sender totals, the message count, above the input offset
        lambda s: s["senders"]["total"].__setitem__(0, 4),
        # format 7's keys, which the config and the sender totals give
        lambda s: s.update(fingerprint=EngineConfig(**s["config"]).fingerprint()),
        lambda s: s.update(messages_processed=sum(s["senders"]["total"])),
        # a last message that process() would not have scored
        lambda s: s.update(last_message="m10"),
        lambda s: s.update(last_message={"from": "d2.example"}),
        lambda s: s["last_message"].pop(),
        lambda s: s["last_message"].append(None),
        lambda s: s["last_message"].__setitem__(0, None),
        lambda s: s["last_message"].__setitem__(0, ["d2.example"]),
        lambda s: s["last_message"].__setitem__(1, "a@u.example"),
        lambda s: s["last_message"].__setitem__(1, []),
        lambda s: s["last_message"][1].__setitem__(0, 1),
        lambda s: s["last_message"][1].append(s["last_message"][1][0]),
        lambda s: s["last_message"].__setitem__(2, "SPAM"),
        lambda s: s["last_message"].__setitem__(2, None),
        lambda s: s["last_message"].__setitem__(2, True),
        # recipient c is named by six senders
        lambda s: s["recipients"]["total"].__setitem__(2, 5),
        # a side column that is not a list: an object keyed by index has
        # the list's length, and one keyed by the names iterates the names
        lambda s: s["senders"].update(total=dict(enumerate(s["senders"]["total"]))),
        lambda s: s["recipients"].update(names=dict.fromkeys(s["recipients"]["names"])),
        lambda s: s["recipients"].update(cid=None),
        lambda s: s["senders"].update(dims="abc"),
        # a column whose length differs from names
        lambda s: s["recipients"]["spam"].pop(),
        lambda s: s["senders"]["cid"].append(1),
        lambda s: _add(s["recipients"], names="extra@u.example"),
        lambda s: _add(s["senders"], names="extra.example", spam=0, total=0, cid=1),
        # a sender dims column of the wrong length
        lambda s: s["senders"]["dims"].pop(),
        lambda s: _add(s["senders"], dims=[0]),
        # a key the format does not hold: dims is read on senders only
        lambda s: s.update(comment="saved by hand"),
        lambda s: s["senders"].update(comment="saved by hand"),
        lambda s: s["recipients"].update(dims=[[0] for _ in s["recipients"]["names"]]),
    ], ids=["no-config", "config-list", "config-extra-key", "no-senders",
            "short-user-row",
            "user-in-unknown-cluster", "no-message-count", "message-count-text",
            "next-cid-float", "name-repeated-in-rows", "name-float", "spam-above-total",
            "negative-spam", "total-float", "next-cid-at-a-live-cluster",
            "cid-zero", "cid-text", "dim-text", "dim-names-no-user",
            "dim-negative", "cid-null", "dim-float",
            "repeated-name", "offset-below-message-count",
            "name-an-int", "dims-repeat", "dims-not-a-list", "cid-float", "cid-true",
            "version-4", "version-float", "dim-float-of-a-held-id",
            "dim-true-of-a-held-id", "config-tau-true", "config-omega-true",
            "config-tau-out-of-range", "new-sender-with-no-contact",
            "sender-with-no-contact", "recipient-no-sender-names",
            "sender-total-above-message-count", "stored-fingerprint", "stored-message-count",
            "last-message-a-str", "last-message-an-object", "last-message-short",
            "last-message-long", "last-message-sender-null", "last-message-sender-a-list",
            "last-message-recipients-a-str", "last-message-no-recipients",
            "last-message-recipient-an-int", "last-message-repeats-a-recipient",
            "last-message-aux-upper-case", "last-message-aux-null", "last-message-aux-true",
            "recipient-total-below-its-senders",
            "column-an-object-by-index", "names-an-object", "column-null",
            "dims-column-text", "column-shorter-than-names", "column-longer-than-names",
            "names-longer-than-columns", "user-without-dims",
            "dims-column-short", "dims-column-long", "unknown-key", "unknown-sender-key",
            "recipient-dims"])
    def test_malformed_state_is_a_format_error(self, golden_records, mutate, monkeypatch):
        engine, _ = run_engine(golden_records)
        state = json.loads(json.dumps(engine_state(engine)))
        mutate(state)
        # every refusal comes before the first user is restored
        restored = []
        monkeypatch.setattr(ClusterSpace, "restore", lambda space, *columns: restored.append(1))
        with pytest.raises(FormatError):
            engine_from_state(state)
        assert restored == []


class TestMutationProperty:
    """Any one small edit of a saved state is refused with FormatError, or
    is itself a state: it loads and saves back unchanged. An edit that
    loads as something else (cid 1.0 read as cluster 1) is a hole."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_one_edit_is_refused_or_saves_back_unchanged(self, golden_records, data):
        text = json.dumps(engine_state(run_engine(golden_records)[0]))
        doc = json.loads(text)
        sites = list(_paths(doc))
        edit = data.draw(st.sampled_from(sorted(_SWAPS) + list(_LIST_EDITS)))
        if edit in _SWAPS:
            path = data.draw(st.sampled_from(
                [p for p, v in sites if type(v) is int]))
            _at(doc, path[:-1])[path[-1]] = _SWAPS[edit](_at(doc, path))
        else:
            path = data.draw(st.sampled_from(
                [p for p, v in sites if isinstance(v, list) and v]))
            seq = _at(doc, path)
            i = data.draw(st.integers(0, len(seq) - 1))
            if edit == "drop":
                del seq[i]
            else:
                seq.insert(i, json.loads(json.dumps(seq[i])))
        try:
            engine = engine_from_state(doc)
        except FormatError:
            return
        assert _same_document(engine_state(engine)) == _same_document(doc)


# last_message fields, each valid or, as often, spoiled: as
# test_resume_property.py spoils a message for process() (no recipients, a
# str as recipients, a repeated recipient, a non-str sender, aux "maybe"),
# or by a value of another type
_NAMES = st.sampled_from(["d1.example", "a@u.example", "b@u.example"])
_OTHERS = st.one_of(st.none(), st.integers(-1, 2), st.just("SPAM"))


def _valid_or(valid, *spoiled):
    # half and half: one_of would draw each of its flattened branches alike
    return st.booleans().flatmap(lambda ok: valid if ok else st.one_of(*spoiled))


_LAST_MESSAGES = st.tuples(
    _valid_or(_NAMES, st.just(b"d1.example"), _OTHERS),
    _valid_or(
        st.lists(_NAMES, min_size=1, max_size=3, unique=True),
        st.just([]),
        _NAMES,
        st.lists(_NAMES, min_size=1, max_size=2).map(lambda names: names + names[:1]),
        st.lists(st.one_of(_NAMES, _OTHERS), min_size=1, max_size=3),
        _OTHERS,
    ),
    _valid_or(st.sampled_from([SPAM, HAM]), st.just("maybe"), _OTHERS),
)


class TestLastMessageProperty:
    """The loader refuses a saved last_message exactly when process()
    refuses a record with those fields: the two share one check."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(fields=_LAST_MESSAGES)
    def test_refused_exactly_when_process_refuses(self, golden_records, fields):
        state = engine_state(run_engine(golden_records)[0])
        state["last_message"] = list(fields)
        try:
            SpamRankEngine().process(MessageRecord("m", 0, *fields))
            scored = True
        except FormatError:
            scored = False
        try:
            engine_from_state(state)
            loaded = True
        except FormatError:
            loaded = False
        assert loaded == scored


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

    def test_a_file_at_the_path_plus_tmp_is_left_as_it_was(self, tmp_path, golden_records):
        # it may be a file the run reads or writes, such as its --output
        engine, _ = run_engine(golden_records)
        (tmp_path / "state.json.tmp").write_bytes(b"verdicts\n")
        save_snapshot(engine, str(tmp_path / "state.json"))
        assert (tmp_path / "state.json.tmp").read_bytes() == b"verdicts\n"
        assert engine_state(load_snapshot(str(tmp_path / "state.json"))) == engine_state(engine)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json", "state.json.tmp"]

    def test_an_existing_temporary_file_is_never_reused(self, tmp_path, golden_records):
        engine, _ = run_engine(golden_records)
        taken = tmp_path / f"state.json.{os.getpid()}.tmp"
        taken.write_bytes(b"not ours\n")
        with pytest.raises(FileExistsError):
            save_snapshot(engine, str(tmp_path / "state.json"))
        assert taken.read_bytes() == b"not ours\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name]


class TestCollectorPaused:
    """Save and load create many containers but no cycles, so they run with
    the cyclic garbage collector paused and restore its state afterwards."""

    @pytest.fixture(scope="class")
    def engine(self):
        engine, _ = run_engine(generate(WorkloadSpec(n_messages=2000, seed=7)))
        return engine

    @staticmethod
    def _bad_snapshot(path, engine):
        # refused on the last recipient's spam count, by the column checks
        # that run before any user is restored
        state = engine_state(engine)
        state["recipients"]["spam"][-1] = -1
        path.write_text(json.dumps(state))

    @pytest.fixture
    def restore_gc(self):
        was = gc.isenabled()
        yield
        if was:
            gc.enable()
        else:
            gc.disable()

    def test_no_collection_runs_during_save_or_load(self, tmp_path, engine, restore_gc):
        # the one young collection the pause defers runs at the caller's
        # next allocation, after load_snapshot has returned
        path = str(tmp_path / "state.json")
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.enable()
        gc.collect()
        gc.callbacks.append(count)
        try:
            save_snapshot(engine, path)
            saving = len(starts)
            load_snapshot(path)
        finally:
            gc.callbacks.remove(count)
        assert (saving, len(starts)) == (0, 0)

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_prior_state_survives(self, tmp_path, engine, restore_gc, enabled):
        path = tmp_path / "state.json"
        bad = tmp_path / "bad.json"
        self._bad_snapshot(bad, engine)
        if enabled:
            gc.enable()
        else:
            gc.disable()
        save_snapshot(engine, str(path))
        assert gc.isenabled() is enabled
        load_snapshot(str(path))
        assert gc.isenabled() is enabled
        with pytest.raises(FormatError):
            load_snapshot(str(bad))
        assert gc.isenabled() is enabled

    def test_save_and_load_leave_no_cycles(self, tmp_path, engine, restore_gc):
        # the premise of the pause: nothing it defers would have been freed
        path = tmp_path / "state.json"
        bad = tmp_path / "bad.json"
        self._bad_snapshot(bad, engine)
        gc.disable()
        gc.collect()
        save_snapshot(engine, str(path))
        assert gc.collect() == 0
        clone = load_snapshot(str(path))
        assert gc.collect() == 0
        with pytest.raises(FormatError):
            load_snapshot(str(bad))
        assert gc.collect() == 0
        assert engine_state(clone) == engine_state(engine)
