"""Spam probabilities, spam rank, the three-way decision rule, and the
accordance of decisions with the aux labels.

Probabilities live on users as running spam/total counters. A cluster's
spam probability is the unweighted mean of its members' spam frequencies,
ignoring members that have not been scored yet; a cluster where nobody has
history yet sits at the uninformative 0.5.

A member's frequency is the fixed-point integer (spam << FREQ_BITS) //
total, and a cluster keeps the exact sum, which no update order can change;
the mean is then one correctly rounded division, never above 1.

The spam rank of a message combines the sender-side and recipient-side
probabilities. Geometrically: scale the point (p_s, p_r) onto the unit
square's diagonal frame by 1/sqrt(2) per axis and project it onto the
diagonal; the projected length equals (p_s + p_r) / 2, which is the closed
form used here.
"""

from __future__ import annotations

from .errors import DomainError, InternalStateError, SlotRecord

# type checkers read this as true; `typing` is not loaded to define it
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections import Counter

    from .clustering import Cluster

SPAM = "spam"
HAM = "ham"
LEGIT = "legit"
DEFERRED = "deferred"

# fraction bits of a member's fixed-point spam frequency
FREQ_BITS = 60


class Verdict(SlotRecord):
    """Engine output for one message."""

    __slots__ = ("msg_id", "p_s", "p_r", "spam_rank", "decision", "aux_label",
                 "effective_label")

    def __init__(self, msg_id: str, p_s: float, p_r: float, spam_rank: float,
                 decision: str, aux_label: str, effective_label: str) -> None:
        self.msg_id = msg_id
        self.p_s = p_s
        self.p_r = p_r
        self.spam_rank = spam_rank
        self.decision = decision  # "spam" | "legit" | "deferred"
        self.aux_label = aux_label  # "spam" | "ham"
        # "spam" | "ham"; the decision, or aux when deferred
        self.effective_label = effective_label


def spam_rank(p_s: float, p_r: float) -> float:
    """Diagonal projection of (p_s, p_r), i.e. their arithmetic mean.

    Inputs must lie in [0, 1]; anything else raises DomainError.
    """
    if not (0.0 <= p_s <= 1.0) or not (0.0 <= p_r <= 1.0):
        raise DomainError(f"probabilities out of range: ({p_s}, {p_r})")
    return (p_s + p_r) / 2.0


def decide(sr: float, omega: float) -> str:
    """Three-way call: spam above omega, legit below 1-omega, else deferred.

    Both band edges belong to the deferred region, so omega=1.0 defers
    everything and omega=0.5 defers only a rank of exactly 0.5. The edges
    are the doubles omega and 1.0 - omega; the subtraction is exact for
    omega in [0.5, 1] (Sterbenz), so the band is symmetric about 0.5 in the
    stored omega. That stored value need not be the decimal one:
    decide(0.15, 0.85) is legit, because the double nearest 0.85 lies below
    0.85, which puts the lower edge at 0.15000000000000002.
    """
    if sr > omega:
        return SPAM
    if sr < 1.0 - omega:
        return LEGIT
    return DEFERRED


def effective_label(decision: str, aux_label: str) -> str:
    """Label that actually applies: the decision, or aux when deferred."""
    if decision == SPAM:
        return SPAM
    if decision == LEGIT:
        return HAM
    return aux_label


def accordance(tally: "Counter[tuple[str, str]]") -> tuple[float, int]:
    """(accordance_pct, classified_count) from a tally of (decision, aux
    label) pairs: the share of classified (not deferred) messages whose
    decision agrees with the aux label.

    Zero classified messages reports 100.0 by convention; the count keeps
    the degenerate case visible.
    """
    classified = agree = 0
    for (decision, aux), n in tally.items():
        if decision != DEFERRED:
            classified += n
            if (decision == SPAM) == (aux == SPAM):
                agree += n
    if classified == 0:
        return 100.0, 0
    return 100.0 * agree / classified, classified


def cluster_spam_probability(cluster: "Cluster") -> float:
    """Mean spam frequency over the cluster's scored members.

    Members with no observations are left out of the mean; if no member has
    been scored the probability is 0.5. An empty cluster is a state bug.
    """
    if not cluster.members:
        raise InternalStateError(f"cluster {cluster.cid} has no members")
    n = cluster.scored_members
    if n == 0:
        return 0.5
    return cluster.freq_sum / (n << FREQ_BITS)
