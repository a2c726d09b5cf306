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

from .clustering import RECIPIENT_SIDE, SENDER_SIDE, ClusterSpace, cluster_spam_probability
from .errors import ConfigError, FormatError, SlotRecord
from .ingest import SENDER_DOMAIN, SENDER_FULL, MessageRecord
from .scoring import HAM, SPAM, Verdict, decide, effective_label, spam_rank
from .vectorspace import Interner

DEFAULT_TAU = 0.5
DEFAULT_OMEGA = 0.85


class EngineConfig(SlotRecord):
    """Immutable run settings.

    tau gates cluster membership (cosine must strictly exceed it), omega
    gates decisions (spam above omega, legit below 1 - omega, deferred in
    between).
    """

    __slots__ = ("tau", "omega", "sender_identity")

    def __init__(self, tau: float = DEFAULT_TAU, omega: float = DEFAULT_OMEGA,
                 sender_identity: str = SENDER_DOMAIN) -> None:
        # a bool is an int: true would pass the range test as 1
        if isinstance(tau, bool) or not 0.0 <= tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {tau}")
        if isinstance(omega, bool) or not 0.5 <= omega <= 1.0:
            raise ConfigError(f"omega must be in [0.5, 1], got {omega}")
        if sender_identity not in (SENDER_DOMAIN, SENDER_FULL):
            raise ConfigError(
                f"sender_identity must be '{SENDER_DOMAIN}' or '{SENDER_FULL}'"
            )
        # stored as floats, so tau=1 and tau=1.0 share a fingerprint
        object.__setattr__(self, "tau", float(tau))
        object.__setattr__(self, "omega", float(omega))
        object.__setattr__(self, "sender_identity", sender_identity)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"EngineConfig is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"EngineConfig is immutable: cannot delete {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        # unpickling rebuilds through __init__, which validates, since
        # __setattr__ refuses the slot writes the default protocol makes
        return EngineConfig, self._values()

    def replace(self, **changes: object) -> EngineConfig:
        """A new config: this one's fields with `changes` applied, checked as
        any new config is. A name that is not a field raises TypeError."""
        return EngineConfig(**{**dict(zip(self.__slots__, self._values())), **changes})

    def fingerprint(self) -> str:
        """Settings that shape engine state. omega only affects verdicts,
        so two runs differing only in omega share a fingerprint and their
        snapshots are interchangeable."""
        return f"tau={self.tau!r};identity={self.sender_identity}"


class SpamRankEngine:
    """Streaming engine; call process() once per message, in arrival order."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.senders = Interner()
        self.recipients = Interner()
        self.sender_side = ClusterSpace(SENDER_SIDE, self.config.tau)
        self.recipient_side = ClusterSpace(RECIPIENT_SIDE, self.config.tau)
        # input records consumed, skipped ones included: where a resume
        # from this engine's snapshot starts reading; and the last of them,
        # or None, which a resume finds again at that offset
        self.input_offset = 0
        self.last_record: MessageRecord | None = None

    def process(self, record: MessageRecord) -> Verdict:
        recipients = record.recipients
        # a str would be read as one recipient per character
        if not isinstance(recipients, (tuple, list)):
            raise FormatError(f"message {record.msg_id!r} has recipients {recipients!r}, "
                              "not a tuple or list")
        if not recipients:
            raise FormatError(f"message {record.msg_id!r} has no recipients")
        # the snapshot loader's name test, so every name scored can be
        # saved and loaded back
        if type(record.sender) is not str:
            raise FormatError(f"message {record.msg_id!r} has sender {record.sender!r}, not a str")
        for name in recipients:
            if type(name) is not str:
                raise FormatError(f"message {record.msg_id!r} has recipient {name!r}, not a str")
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

        # structural phase: sender sees the recipients, recipients see the
        # sender (one shared one-id tuple; a first sighting registers the
        # user), then everyone touched is re-assigned (sender first)
        s_space.add_dims(sid, rids)
        sid_dims = (sid,)
        for rid in rids:
            r_space.add_dims(rid, sid_dims)
        s_space.assign_user(sid)
        for rid in rids:
            r_space.assign_user(rid)

        # scoring phase: counters first, then the probabilities they feed
        is_spam = record.aux_label == SPAM
        p_s = cluster_spam_probability(s_space.record_observation(sid, is_spam))
        acc = 0.0
        for rid in rids:
            acc += cluster_spam_probability(r_space.record_observation(rid, is_spam))
        p_r = acc / len(rids)

        sr = spam_rank(p_s, p_r)
        decision = decide(sr, self.config.omega)
        self.input_offset += 1
        self.last_record = record
        return Verdict(record.msg_id, p_s, p_r, sr, decision, record.aux_label,
                       effective_label(decision, record.aux_label))

    def census(self) -> dict[str, dict[int, int]]:
        """Each side's {cluster size: clusters} histogram."""
        return {
            SENDER_SIDE: self.sender_side.census(),
            RECIPIENT_SIDE: self.recipient_side.census(),
        }

    def check_integrity(self) -> None:
        self.sender_side.check_integrity()
        self.recipient_side.check_integrity()
