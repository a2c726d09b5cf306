"""Seeded synthetic mail workloads with ground truth.

The traffic model has two populations. Legitimate mail flows inside social
communities: each legit sender domain belongs to one community of
recipients and addresses mostly (90%) community members, with activity
skewed Zipf-style so a few domains dominate. Spam flows from spammer
domains that share harvested distribution lists: every spam message sprays
a random subsample of one list, and a configurable fraction of spam uses a
fresh, never-repeated sender domain (churn) while still reusing the same
lists: the evasion pattern a contact-structure clusterer should absorb.

Recipient space is split into a social pool and a harvested pool with a
small deliberate overlap, so most recipients see one kind of traffic and a
minority see both. Generation is a pure function of its WorkloadSpec,
including the seed; the same WorkloadSpec yields a byte-identical stream.

Records come out with ``aux == truth``; map label_flipper over them to
model a noisy upstream filter.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import exp
from typing import Callable

from .errors import ConfigError
from .ingest import MessageRecord
from .scoring import HAM, SPAM

# recipient index space: [0, 60%) reachable by social mail, [50%, 100%)
# harvestable by spammers; the 10% overlap gets both kinds of traffic
SOCIAL_POOL_END = 0.6
HARVEST_POOL_START = 0.5
COMMUNITY_LOCALITY = 0.9  # chance a legit recipient draw stays in-community
ZIPF_EXPONENT = 1.1
BASE_TS = 1_072_915_200
TS_STEP = 53


@dataclass(slots=True, frozen=True)
class WorkloadSpec:
    """Knobs for one synthetic workload. Defaults run in a few seconds."""

    seed: int = 42
    n_messages: int = 3650
    n_legit_senders: int = 115
    n_spam_senders: int = 160
    n_recipients: int = 390
    n_communities: int = 12
    community_size_mean: float = 35.0
    n_distribution_lists: int = 8
    list_size_mean: float = 30.0
    spam_fraction: float = 0.475
    legit_recipients_mean: float = 1.6
    spam_recipients_mean: float = 12.0
    sender_churn_rate: float = 0.06

    def validate(self) -> None:
        counts = (
            self.n_messages,
            self.n_legit_senders,
            self.n_spam_senders,
            self.n_recipients,
            self.n_communities,
            self.n_distribution_lists,
        )
        if any(c <= 0 for c in counts):
            raise ConfigError("all workload counts must be positive")
        for name in ("community_size_mean", "list_size_mean",
                     "legit_recipients_mean", "spam_recipients_mean"):
            if not getattr(self, name) > 0:  # NaN too
                raise ConfigError(f"{name} must be positive")
        for name in ("spam_fraction", "sender_churn_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        social, harvest = map(len, _pools(self.n_recipients))
        if self.community_size_mean > social:
            raise ConfigError(
                f"community_size_mean {self.community_size_mean} exceeds the "
                f"{social}-recipient social pool"
            )
        if self.list_size_mean > harvest:
            raise ConfigError(
                f"list_size_mean {self.list_size_mean} exceeds the "
                f"{harvest}-recipient harvest pool"
            )


def recipient_address(j: int) -> str:
    """The address of recipient index j; indices run 0..n_recipients-1."""
    return f"u{j}@m{j % 5}.example"


def _pools(n_recipients: int) -> tuple[range, range]:
    # the social and harvest pools of recipient indices
    return (range(int(round(n_recipients * SOCIAL_POOL_END))),
            range(int(round(n_recipients * HARVEST_POOL_START)), n_recipients))


def _poisson(rng: random.Random, mean: float) -> int:
    # Knuth's product method; fine for the small means used here
    limit = exp(-mean)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _clipped_size(rng: random.Random, mean: float, lo: int, hi: int) -> int:
    return min(hi, max(lo, _poisson(rng, mean)))


def generate(spec: WorkloadSpec) -> list[MessageRecord]:
    """Produce the full message stream for a spec, ground truth attached."""
    spec.validate()
    rng = random.Random(spec.seed)
    # the population structure comes first in the seeded stream; sample
    # and indexing draw the same values from a range as from a list
    social_pool, harvest_pool = _pools(spec.n_recipients)
    communities = [
        rng.sample(social_pool,
                   _clipped_size(rng, spec.community_size_mean, 2, len(social_pool)))
        for _ in range(spec.n_communities)
    ]
    dist_lists = [
        rng.sample(harvest_pool,
                   _clipped_size(rng, spec.list_size_mean, 2, len(harvest_pool)))
        for _ in range(spec.n_distribution_lists)
    ]
    legit_domains = [f"corp{i}.example" for i in range(spec.n_legit_senders)]
    sender_community = [rng.randrange(spec.n_communities)
                        for _ in range(spec.n_legit_senders)]
    spam_domains = [f"promo{i}.example" for i in range(spec.n_spam_senders)]
    spammer_list = [rng.randrange(spec.n_distribution_lists)
                    for _ in range(spec.n_spam_senders)]

    # Zipf-ish activity: sender i gets weight 1/(i+1)^s
    cum_weights = list(accumulate(
        (i + 1) ** -ZIPF_EXPONENT for i in range(spec.n_legit_senders)
    ))
    total_weight = cum_weights[-1]

    churn_serial = 0
    records: list[MessageRecord] = []
    for i in range(spec.n_messages):
        is_spam = rng.random() < spec.spam_fraction
        if is_spam:
            if rng.random() < spec.sender_churn_rate:
                churn_serial += 1
                sender = f"x{churn_serial}.bulk.example"
                lst = dist_lists[rng.randrange(spec.n_distribution_lists)]
            else:
                s = rng.randrange(spec.n_spam_senders)
                sender = spam_domains[s]
                lst = dist_lists[spammer_list[s]]
            k = _clipped_size(rng, spec.spam_recipients_mean, 1, len(lst))
            rec_idx = rng.sample(lst, k)
            truth = SPAM
        else:
            # random() < 1 rounds the product below total_weight, so s < n
            s = bisect_right(cum_weights, rng.random() * total_weight)
            sender = legit_domains[s]
            community = communities[sender_community[s]]
            k = max(1, _poisson(rng, spec.legit_recipients_mean))
            rec_idx = []
            for _ in range(k):
                pool = community if rng.random() < COMMUNITY_LOCALITY else social_pool
                j = pool[rng.randrange(len(pool))]
                if j not in rec_idx:
                    rec_idx.append(j)
            truth = HAM
        records.append(MessageRecord(
            f"g{i + 1}", BASE_TS + i * TS_STEP, sender,
            tuple(map(recipient_address, rec_idx)), truth, truth,
        ))
    return records


def label_flipper(flip_rate: float, seed: int) -> Callable[[MessageRecord], MessageRecord]:
    """A function that copies one record per call, its aux label the truth
    flipped with probability flip_rate, drawing once from a stream seeded
    here; the truth field is left intact. Deterministic in the seed and the
    record order. A rate outside [0, 1] is refused at once."""
    if not 0.0 <= flip_rate <= 1.0:
        raise ConfigError(f"flip_rate must be in [0, 1], got {flip_rate}")
    rng = random.Random(seed)

    def flip(rec: MessageRecord) -> MessageRecord:
        aux = rec.truth if rec.truth is not None else rec.aux_label
        if rng.random() < flip_rate:
            aux = HAM if aux == SPAM else SPAM
        return MessageRecord(rec.msg_id, rec.timestamp, rec.sender, rec.recipients,
                             aux, rec.truth)

    return flip
