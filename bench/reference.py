"""Brute-force reference for the spamrank model, written from its definitions.

It reads `MessageRecord`s and nothing else from the package. Users are
keyed by their names, not interned ids, and there is no inverted index and
no cached sum:

* a cluster's vector is rebuilt from its members on every comparison;
* a user compared with its own cluster is left out of that sum physically;
* a cosine is one float division of exact integer sums,
  dot / sqrt(|S|^2 |u|^2), the single rounding the package documents; it
  must exceed `tau`, and equal cosines go to the lowest cluster id;
* a cluster's spam probability is the mean of its members' spam
  frequencies, as a fraction, over the members seen so far.

Per message: both sides' vectors grow, the sender and then each recipient
in listed order is re-assigned, the sender's counters are bumped and its
cluster read, then each recipient's in turn. A lone member that joins
nothing is re-seeded under a fresh cluster id.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt

SPAM = "spam"


class _Side:
    def __init__(self, tau: float) -> None:
        self.tau = tau
        self.dims: dict[str, set[str]] = {}
        self.cluster_of: dict[str, int] = {}
        self.members: dict[int, set[str]] = {}
        self.spam: dict[str, int] = {}
        self.total: dict[str, int] = {}
        self.next_cid = 1

    def grow(self, user: str, new_dims) -> None:
        self.dims.setdefault(user, set()).update(new_dims)
        self.spam.setdefault(user, 0)
        self.total.setdefault(user, 0)

    def _similarity(self, user: str, cid: int) -> float:
        vec: dict[str, int] = {}
        for member in self.members[cid]:
            if member == user:
                continue
            for d in self.dims[member]:
                vec[d] = vec.get(d, 0) + 1
        dims = self.dims[user]
        dot = sum(vec.get(d, 0) for d in dims)
        if dot == 0:
            return 0.0
        return dot / sqrt(sum(c * c for c in vec.values()) * len(dims))

    def assign(self, user: str) -> None:
        old = self.cluster_of.get(user)
        best, best_sim = None, 0.0
        for cid in sorted(self.members):
            sim = self._similarity(user, cid)
            if sim > best_sim:
                best, best_sim = cid, sim
        if best is not None and best_sim > self.tau:
            if best != old:
                self._leave(user)
                self.members[best].add(user)
                self.cluster_of[user] = best
            return
        if old is not None and self.members[old] == {user}:
            del self.members[old]
        else:
            self._leave(user)
        self.members[self.next_cid] = {user}
        self.cluster_of[user] = self.next_cid
        self.next_cid += 1

    def _leave(self, user: str) -> None:
        old = self.cluster_of.pop(user, None)
        if old is None:
            return
        self.members[old].discard(user)
        if not self.members[old]:
            del self.members[old]

    def observe(self, user: str, is_spam: bool) -> Fraction:
        self.total[user] += 1
        self.spam[user] += is_spam
        seen = [m for m in self.members[self.cluster_of[user]] if self.total[m]]
        return sum((Fraction(self.spam[m], self.total[m]) for m in seen),
                   Fraction(0)) / len(seen)


class ReferenceModel:
    """Replays records one at a time; `step` returns exact (p_s, p_r)."""

    def __init__(self, tau: float = 0.5) -> None:
        self.senders = _Side(tau)
        self.recipients = _Side(tau)

    def step(self, record) -> tuple[Fraction, Fraction]:
        sender, rcpts = record.sender, record.recipients
        self.senders.grow(sender, rcpts)
        for r in rcpts:
            self.recipients.grow(r, (sender,))
        self.senders.assign(sender)
        for r in rcpts:
            self.recipients.assign(r)
        is_spam = record.aux_label == SPAM
        p_s = self.senders.observe(sender, is_spam)
        p_r = sum((self.recipients.observe(r, is_spam) for r in rcpts),
                  Fraction(0)) / len(rcpts)
        return p_s, p_r


def reference_decision(p_s: Fraction, p_r: Fraction, omega: float) -> str | None:
    """The decision for an exact rank, or None within 1e-12 of a band edge.

    Near an edge the engine's one float rounding may fall either way, so
    only ranks clear of both edges are held to an exact decision.
    """
    sr = (p_s + p_r) / 2
    hi = Fraction(omega)
    lo = 1 - hi
    if min(abs(sr - hi), abs(sr - lo)) < Fraction(1, 10**12):
        return None
    if sr > hi:
        return "spam"
    if sr < lo:
        return "legit"
    return "deferred"
