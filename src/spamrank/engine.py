"""Single-pass re-classification engine.

Two independent cluster spaces evolve side by side: senders are vectors
over the recipients they have contacted, recipients are vectors over the
senders they have heard from. Each incoming message first reshapes the
structure (vector growth, then re-assignment of the sender and of every
recipient, in listed order), then is scored: per-user spam counters are
bumped with the auxiliary label and the message's spam rank is the mean of
the sender-cluster and recipient-cluster spam probabilities. A record the
engine cannot score is refused with FormatError before any state changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .clustering import RECIPIENT_SIDE, SENDER_SIDE, CensusReport, ClusterSpace
from .errors import ConfigError, FormatError
from .ingest import SENDER_DOMAIN, SENDER_FULL, MessageRecord
from .scoring import (
    HAM,
    SPAM,
    Verdict,
    cluster_spam_probability,
    decide,
    effective_label,
    spam_rank,
)
from .vectorspace import Interner

DEFAULT_TAU = 0.5
DEFAULT_OMEGA = 0.85


@dataclass(slots=True, frozen=True)
class EngineConfig:
    """Immutable run settings.

    tau gates cluster membership (cosine must strictly exceed it), omega
    gates decisions (spam above omega, legit below 1 - omega, deferred in
    between).
    """

    tau: float = DEFAULT_TAU
    omega: float = DEFAULT_OMEGA
    sender_identity: str = SENDER_DOMAIN

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")
        if not 0.5 <= self.omega <= 1.0:
            raise ConfigError(f"omega must be in [0.5, 1], got {self.omega}")
        if self.sender_identity not in (SENDER_DOMAIN, SENDER_FULL):
            raise ConfigError(
                f"sender_identity must be '{SENDER_DOMAIN}' or '{SENDER_FULL}'"
            )

    def fingerprint(self) -> str:
        """Settings that shape engine state. omega only affects verdicts,
        so two runs differing only in omega share a fingerprint and their
        snapshots are interchangeable. The last two fields name the one
        update ordering (assignment and scoring both after the update), so
        headers still tell these runs from runs of the former ablations."""
        return (
            f"tau={self.tau!r};identity={self.sender_identity};"
            "assign_pre=0;score_pre=0"
        )


class SpamRankEngine:
    """Streaming engine; call process() once per message, in arrival order."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.senders = Interner()
        self.recipients = Interner()
        self.sender_side = ClusterSpace(SENDER_SIDE, self.config.tau)
        self.recipient_side = ClusterSpace(RECIPIENT_SIDE, self.config.tau)
        self.messages_processed = 0
        # leading input records passed over unprocessed (`run --skip`)
        self.records_skipped = 0

    @property
    def input_offset(self) -> int:
        """Input records consumed, skipped ones included: where a resume
        from this engine's snapshot starts reading."""
        return self.records_skipped + self.messages_processed

    def process(self, record: MessageRecord) -> Verdict:
        recipients = record.recipients
        if not recipients:
            raise FormatError(f"message {record.msg_id!r} has no recipients")
        if len(set(recipients)) != len(recipients):
            raise FormatError(f"message {record.msg_id!r} repeats a recipient")
        if record.aux_label != SPAM and record.aux_label != HAM:
            raise FormatError(
                f"message {record.msg_id!r} has aux label {record.aux_label!r}, "
                f"not {SPAM!r} or {HAM!r}"
            )
        s_space = self.sender_side
        r_space = self.recipient_side
        sid = self.senders.intern(record.sender)
        rids = [self.recipients.intern(r) for r in recipients]
        s_space.register_user(sid)
        for rid in rids:
            r_space.register_user(rid)

        # structural phase: sender sees the recipients, recipients see the
        # sender, then everyone touched is re-assigned (sender first)
        s_space.add_dims(sid, rids)
        for rid in rids:
            r_space.add_dims(rid, (sid,))
        s_space.assign_user(sid)
        for rid in rids:
            r_space.assign_user(rid)

        # scoring phase: counters first, then the probabilities they feed
        is_spam = record.aux_label == SPAM
        s_space.record_observation(sid, is_spam)
        p_s = cluster_spam_probability(s_space.cluster_of(sid))
        acc = 0.0
        for rid in rids:
            r_space.record_observation(rid, is_spam)
            acc += cluster_spam_probability(r_space.cluster_of(rid))
        p_r = acc / len(rids)

        sr = spam_rank(p_s, p_r)
        decision = decide(sr, self.config.omega)
        self.messages_processed += 1
        return Verdict(
            msg_id=record.msg_id,
            p_s=p_s,
            p_r=p_r,
            spam_rank=sr,
            decision=decision,
            aux_label=record.aux_label,
            effective_label=effective_label(decision, record.aux_label),
        )

    def process_many(self, records: Iterable[MessageRecord]) -> Iterator[Verdict]:
        for record in records:
            yield self.process(record)

    def census(self) -> dict[str, CensusReport]:
        return {
            SENDER_SIDE: self.sender_side.census(),
            RECIPIENT_SIDE: self.recipient_side.census(),
        }

    def check_integrity(self) -> None:
        self.sender_side.check_integrity()
        self.recipient_side.check_integrity()
