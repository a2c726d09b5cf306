"""Spam probabilities, spam rank, and the three-way decision rule.

Probabilities live on users as running spam/total counters. A cluster's
spam probability is the unweighted mean of its members' spam frequencies,
ignoring members that have not been scored yet; a cluster where nobody has
history yet sits at the uninformative 0.5.

The spam rank of a message combines the sender-side and recipient-side
probabilities. Geometrically: scale the point (p_s, p_r) onto the unit
square's diagonal frame by 1/sqrt(2) per axis and project it onto the
diagonal; the projected length equals (p_s + p_r) / 2, which is the closed
form used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, InternalStateError

if TYPE_CHECKING:
    from .clustering import Cluster

SPAM = "spam"
HAM = "ham"
LEGIT = "legit"
DEFERRED = "deferred"


@dataclass(slots=True)
class SpamStats:
    """Running auxiliary-verdict counters for one user on one side."""

    spam_count: int = 0
    total_count: int = 0


@dataclass(slots=True)
class Verdict:
    """Engine output for one message."""

    msg_id: str
    p_s: float
    p_r: float
    spam_rank: float
    decision: str       # "spam" | "legit" | "deferred"
    aux_label: str      # "spam" | "ham"
    effective_label: str  # "spam" | "ham"; decision, or aux when deferred


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
    p = cluster.freq_sum / n
    # incremental float cache can drift a hair past the bounds
    if p > 1.0:
        return 1.0
    if p < 0.0:
        return 0.0
    return p
