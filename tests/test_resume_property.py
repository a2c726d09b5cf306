"""The engine, cut and resumed at points Hypothesis chooses, stays the
brute-force reference model.

A state machine feeds one engine and one `ReferenceModel` the same drawn
messages. Between messages it may round-trip the engine through its
snapshot document as JSON and go on with the loaded copy, or offer a
record the engine must refuse. After every step the engine passes its
integrity check and agrees with the model by user name on both sides, and
the last verdict's probabilities and decision agree with the model's. The
name pools are small, so contacts collide and cosines tie.
"""

import json

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from spamrank import HAM, SPAM, EngineConfig, FormatError, MessageRecord, SpamRankEngine
from spamrank.snapshot import engine_from_state, engine_state
from oracles import ReferenceModel, partition_by_name, reference_decision

SENDERS = [f"s{i}.example" for i in range(4)]
RECIPIENTS = [f"r{i}@x.example" for i in range(6)]

# (sender, recipients, aux label) of a message process() scores
messages = st.tuples(
    st.sampled_from(SENDERS),
    st.lists(st.sampled_from(RECIPIENTS), min_size=1, max_size=len(RECIPIENTS),
             unique=True).map(tuple),
    st.sampled_from([SPAM, HAM]),
)

# ways to spoil such a message, each one process() must refuse
SPOILERS = {
    "no recipients": lambda s, r, a: (s, (), a),
    "recipients as a str": lambda s, r, a: (s, r[0], a),
    "a repeated recipient": lambda s, r, a: (s, r + r[:1], a),
    "a bytes sender": lambda s, r, a: (s.encode(), r, a),
    "aux label maybe": lambda s, r, a: (s, r, "maybe"),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          stateful_step_count=40)
class CutAndResume(RuleBasedStateMachine):

    @initialize(tau=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                omega=st.floats(0.5, 1.0))
    def start(self, tau, omega):
        self.engine = SpamRankEngine(EngineConfig(tau=tau, omega=omega))
        self.reference = ReferenceModel(tau)
        # the last verdict, and the reference's exact (p_s, p_r) for it
        self.verdict = self.want = None

    def _record(self, sender, recipients, aux):
        return MessageRecord(f"m{self.engine.input_offset}", 0, sender, recipients, aux)

    @rule(message=messages)
    def process(self, message):
        record = self._record(*message)
        self.verdict = self.engine.process(record)
        self.want = self.reference.step(record)

    # test_snapshot.py round-trips an engine that has seen no message
    @precondition(lambda self: self.engine.input_offset)
    @rule()
    def cut_and_resume(self):
        state = engine_state(self.engine)
        self.engine = engine_from_state(json.loads(json.dumps(state)))
        assert engine_state(self.engine) == state

    @rule(message=messages, spoil=st.sampled_from(sorted(SPOILERS)))
    def refuse(self, message, spoil):
        before = engine_state(self.engine)
        with pytest.raises(FormatError):
            self.engine.process(self._record(*SPOILERS[spoil](*message)))
        assert engine_state(self.engine) == before

    @invariant()
    def integrity_holds(self):
        self.engine.check_integrity()

    @invariant()
    def partitions_match_the_reference(self):
        engine, reference = self.engine, self.reference
        for space, interner, side in (
            (engine.sender_side, engine.senders, reference.senders),
            (engine.recipient_side, engine.recipients, reference.recipients),
        ):
            cluster_of, rosters, next_cid = partition_by_name(space, interner)
            assert cluster_of == side.cluster_of
            assert rosters == {cid: sorted(m) for cid, m in side.members.items()}
            assert next_cid == side.next_cid

    @invariant()
    def verdict_matches_the_reference(self):
        if self.verdict is None:
            return
        p_s, p_r = self.want
        assert abs(self.verdict.p_s - p_s) <= 1e-12
        assert abs(self.verdict.p_r - p_r) <= 1e-12
        decision = reference_decision(p_s, p_r, self.engine.config.omega)
        if decision is not None:
            assert self.verdict.decision == decision


TestCutAndResume = CutAndResume.TestCase
