import gc
import json
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from spamrank import (
    HAM,
    SPAM,
    ConfigError,
    EngineConfig,
    FormatError,
    MessageRecord,
    SpamRankEngine,
    WorkloadSpec,
    generate,
)
from spamrank.snapshot import engine_from_state, engine_state
from golden_trace import (
    GOLDEN_EXPECTED,
    GOLDEN_NEXT_CIDS,
    GOLDEN_RECIPIENT_CLUSTERS,
    GOLDEN_SENDER_CLUSTERS,
)


def msg(i, sender, recipients, aux="spam"):
    return MessageRecord(f"t{i}", 1000 + i, sender, tuple(recipients), aux)


def retained_per_user(records):
    """(users, engine bytes a user) after a replay, as tracemalloc counts."""
    gc.collect()
    tracemalloc.start()
    try:
        engine = SpamRankEngine()
        for record in records:
            engine.process(record)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    users = len(engine.senders) + len(engine.recipients)
    return users, retained / users


class TestConfig:
    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.tau == 0.5
        assert cfg.omega == 0.85
        assert cfg.sender_identity == "domain"

    @pytest.mark.parametrize("kwargs", [
        {"tau": -0.1}, {"tau": 1.5},
        {"omega": 0.49}, {"omega": 1.01},
        {"sender_identity": "hostname"},
        {"tau": True}, {"omega": True},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            EngineConfig(**kwargs)
        with pytest.raises(ConfigError):
            EngineConfig().replace(**kwargs)

    def test_replace_builds_a_new_config_from_this_ones_fields(self):
        cfg = EngineConfig(0.4, 0.9, "full")
        assert cfg.replace() == cfg
        assert cfg.replace(tau=1) == EngineConfig(1.0, 0.9, "full")
        assert cfg.replace(tau=1).fingerprint() == "tau=1.0;identity=full"
        assert cfg.replace(omega=0.6, sender_identity="domain") == EngineConfig(0.4, 0.6)
        assert cfg == EngineConfig(0.4, 0.9, "full")
        with pytest.raises(TypeError):
            cfg.replace(history=10)

    def test_is_an_immutable_value_that_pickles(self):
        cfg = EngineConfig(0.4, 0.9, "full")
        assert cfg == EngineConfig(tau=0.4, omega=0.9, sender_identity="full")
        assert cfg != EngineConfig(0.4, 0.9)
        assert hash(cfg) == hash(EngineConfig(0.4, 0.9, "full"))
        assert repr(cfg) == "EngineConfig(tau=0.4, omega=0.9, sender_identity='full')"
        with pytest.raises(AttributeError):
            cfg.tau = 0.6
        with pytest.raises(AttributeError):
            del cfg.omega
        assert pickle.loads(pickle.dumps(cfg, pickle.HIGHEST_PROTOCOL)) == cfg

    def test_an_engine_pickles_mid_stream(self, golden_records):
        engine = SpamRankEngine(EngineConfig(omega=0.9))
        straight = SpamRankEngine(EngineConfig(omega=0.9))
        for record in golden_records[:5]:
            engine.process(record)
            straight.process(record)
        resumed = pickle.loads(pickle.dumps(engine, pickle.HIGHEST_PROTOCOL))
        assert resumed.config == engine.config
        rest = golden_records[5:]
        assert [resumed.process(r) for r in rest] == [straight.process(r) for r in rest]
        assert engine_state(resumed) == engine_state(straight)

    def test_fingerprint_names_the_structural_settings(self):
        assert EngineConfig().fingerprint() == "tau=0.5;identity=domain"

    def test_an_int_tau_or_omega_is_stored_as_a_float(self):
        cfg = EngineConfig(tau=1, omega=1)
        assert type(cfg.tau) is float and type(cfg.omega) is float
        assert cfg.fingerprint() == EngineConfig(tau=1.0).fingerprint() == "tau=1.0;identity=domain"
        assert cfg == EngineConfig(tau=1.0, omega=1.0)

    def test_fingerprint_ignores_omega_only(self):
        base = EngineConfig()
        assert EngineConfig(omega=0.6).fingerprint() == base.fingerprint()
        assert EngineConfig(tau=0.4).fingerprint() != base.fingerprint()
        assert EngineConfig(sender_identity="full").fingerprint() != base.fingerprint()


class TestGoldenTrace:
    def test_replay_matches_the_hand_trace(self, golden_records):
        engine = SpamRankEngine()
        assert len(golden_records) == len(GOLDEN_EXPECTED)
        for record, row in zip(golden_records, GOLDEN_EXPECTED):
            msg_id, p_s, p_r, sr, decision, effective = row
            v = engine.process(record)
            assert v.msg_id == msg_id
            assert v.p_s == pytest.approx(p_s, abs=1e-9)
            assert v.p_r == pytest.approx(p_r, abs=1e-9)
            assert v.spam_rank == pytest.approx(sr, abs=1e-9)
            assert v.decision == decision
            assert v.effective_label == effective
            assert v.aux_label == record.aux_label
        engine.check_integrity()

    def test_final_cluster_structure(self, golden_records):
        engine = SpamRankEngine()
        for record in golden_records:
            engine.process(record)
        sender_names = engine.senders.names()
        recipient_names = engine.recipients.names()
        senders = {
            cid: sorted(sender_names[u] for u in c.members)
            for cid, c in engine.sender_side.clusters.items()
        }
        recipients = {
            cid: sorted(recipient_names[u] for u in c.members)
            for cid, c in engine.recipient_side.clusters.items()
        }
        assert senders == GOLDEN_SENDER_CLUSTERS
        assert recipients == GOLDEN_RECIPIENT_CLUSTERS
        assert engine.sender_side._next_cid == GOLDEN_NEXT_CIDS[0]
        assert engine.recipient_side._next_cid == GOLDEN_NEXT_CIDS[1]
        assert engine.input_offset == 10


class TestOrderingFlags:
    def test_default_assigns_after_the_update(self):
        engine = SpamRankEngine()
        engine.process(msg(1, "s1.example", ["a@u.example"]))
        engine.process(msg(2, "s2.example", ["a@u.example"]))
        # s2's vector already contains a@u.example when it is assigned
        assert engine.sender_side.census() == {2: 1}


class TestEngineBasics:
    def test_process_counts_messages(self, golden_records):
        engine = SpamRankEngine()
        verdicts = list(map(engine.process, golden_records))
        assert len(verdicts) == 10
        assert engine.input_offset == 10

    def test_census_reports_both_sides(self, golden_records):
        engine = SpamRankEngine()
        for record in golden_records:
            engine.process(record)
        census = engine.census()
        assert census == {"sender": {2: 1, 4: 1}, "recipient": {2: 1, 3: 1}}
        # JSON as it stands, sizes as string keys
        assert json.loads(json.dumps(census)) == {
            "sender": {"2": 1, "4": 1}, "recipient": {"2": 1, "3": 1}}

    def test_state_stays_small_per_user(self, default_records):
        # with vectors and member rosters as tuples the engine holds ~946 B
        # a user on Python 3.11; as lists it held ~1,010-1,060 B on Python
        # 3.10-3.13, and one set per vector and roster over 2,400 B
        users, per_user = retained_per_user(default_records)
        assert users == 700
        assert per_user <= 1600

    def test_sparse_mix_state_per_user(self):
        # 4,000 messages of the churn-resume benchmark mix (bench/workloads.py):
        # most users are seen once or twice, so per-user overhead dominates.
        # With uid-indexed columns for vectors and spam/total counts, and
        # vectors and rosters as tuples, the engine holds ~578 B a user on
        # Python 3.11; with them as lists it held ~638-661 B on Python
        # 3.10-3.13, and dicts keyed by uid and one counter object per user
        # ~760-782 B
        spec = WorkloadSpec(
            seed=7, n_messages=4000, n_legit_senders=20_000, n_spam_senders=5000,
            n_recipients=400_000, n_communities=8000, community_size_mean=25.0,
            n_distribution_lists=2000, list_size_mean=40.0, spam_fraction=0.7,
            legit_recipients_mean=2.0, spam_recipients_mean=4.0,
            sender_churn_rate=0.6,
        )
        users, per_user = retained_per_user(generate(spec))
        assert users == 15_076
        assert per_user <= 700

    def test_full_identity_separates_mailbox_senders(self):
        engine = SpamRankEngine(EngineConfig(sender_identity="full"))
        engine.process(msg(1, "a@s1.example", ["x@u.example"]))
        engine.process(msg(2, "b@s1.example", ["y@u.example"]))
        assert len(engine.senders) == 2


SENDERS = [f"s{i}.example" for i in range(4)]
RECIPIENTS = [f"u{i}@x.example" for i in range(6)]
# a fresh sender and recipient show whether a refused record interned anything
FRESH_SENDER = "fresh.example"
FRESH_RECIPIENT = "fresh@x.example"

valid_prefix = st.lists(
    st.tuples(
        st.sampled_from(SENDERS),
        st.lists(st.sampled_from(RECIPIENTS), min_size=1, max_size=4, unique=True),
        st.sampled_from([SPAM, HAM]),
    ),
    max_size=15,
)


def bad_records(sender, recipient, aux):
    return [
        MessageRecord("bad-empty", 9000, sender, (), aux),
        MessageRecord("bad-repeat", 9001, sender,
                      (FRESH_RECIPIENT, recipient, FRESH_RECIPIENT), aux),
        MessageRecord("bad-aux", 9002, sender, (FRESH_RECIPIENT, recipient), "SPAM"),
        MessageRecord("bad-aux-empty", 9003, sender, (recipient,), ""),
    ]


class TestRefusedRecords:
    @settings(max_examples=60, deadline=None)
    @given(
        valid_prefix,
        st.sampled_from(SENDERS + [FRESH_SENDER]),
        st.sampled_from(RECIPIENTS),
        st.sampled_from([SPAM, HAM]),
    )
    def test_refusal_leaves_state_unchanged(self, prefix, sender, recipient, aux):
        engine = SpamRankEngine()
        for i, (s, rs, label) in enumerate(prefix):
            engine.process(MessageRecord(f"p{i}", 1000 + i, s, tuple(rs), label))
        before = engine_state(engine)
        for record in bad_records(sender, recipient, aux):
            with pytest.raises(FormatError):
                engine.process(record)
            assert engine_state(engine) == before

    @pytest.mark.parametrize("sender, recipients", [
        (5, (FRESH_RECIPIENT,)),
        (None, (FRESH_RECIPIENT,)),
        (SENDERS[0], (FRESH_RECIPIENT, 7)),
        (SENDERS[0], (FRESH_RECIPIENT, b"u0@x.example")),
        (type("Name", (str,), {})(FRESH_SENDER), (FRESH_RECIPIENT,)),
        # a recipients field that is not a tuple or list of names: a str
        # would be read as one recipient per character
        (SENDERS[0], "abc"),
        (SENDERS[0], "u0@x.example"),
        (SENDERS[0], {FRESH_RECIPIENT}),
        (SENDERS[0], None),
    ])
    def test_a_name_that_is_not_a_str_is_refused(self, golden_records, sender, recipients):
        # the snapshot loader's test: an int or None name was scored and
        # then left a snapshot that could not load
        engine = SpamRankEngine()
        for record in golden_records:
            engine.process(record)
        before = engine_state(engine)
        with pytest.raises(FormatError):
            engine.process(MessageRecord("bad-name", 9004, sender, recipients, SPAM))
        assert engine_state(engine) == before
        assert engine_state(engine_from_state(json.loads(json.dumps(before)))) == before
