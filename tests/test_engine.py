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
)
from spamrank.snapshot import engine_state
from golden_trace import (
    GOLDEN_EXPECTED,
    GOLDEN_NEXT_CIDS,
    GOLDEN_RECIPIENT_CLUSTERS,
    GOLDEN_SENDER_CLUSTERS,
)


def msg(i, sender, recipients, aux="spam"):
    return MessageRecord(f"t{i}", 1000 + i, sender, tuple(recipients), aux)


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
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            EngineConfig(**kwargs)

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
        list(engine.process_many(golden_records))
        senders = {
            cid: sorted(engine.senders.name_of(u) for u in c.members)
            for cid, c in engine.sender_side.clusters.items()
        }
        recipients = {
            cid: sorted(engine.recipients.name_of(u) for u in c.members)
            for cid, c in engine.recipient_side.clusters.items()
        }
        assert senders == GOLDEN_SENDER_CLUSTERS
        assert recipients == GOLDEN_RECIPIENT_CLUSTERS
        assert engine.sender_side._next_cid == GOLDEN_NEXT_CIDS[0]
        assert engine.recipient_side._next_cid == GOLDEN_NEXT_CIDS[1]
        assert engine.messages_processed == 10


class TestOrderingFlags:
    def test_default_assigns_after_the_update(self):
        engine = SpamRankEngine()
        engine.process(msg(1, "s1.example", ["a@u.example"]))
        engine.process(msg(2, "s2.example", ["a@u.example"]))
        # s2's vector already contains a@u.example when it is assigned
        assert engine.sender_side.census().num_clusters == 1


class TestEngineBasics:
    def test_process_many_counts(self, golden_records):
        engine = SpamRankEngine()
        verdicts = list(engine.process_many(golden_records))
        assert len(verdicts) == 10
        assert engine.messages_processed == 10

    def test_census_reports_both_sides(self, golden_records):
        engine = SpamRankEngine()
        list(engine.process_many(golden_records))
        report = engine.census()
        assert set(report) == {"sender", "recipient"}
        assert report["sender"].num_clusters == 2

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
