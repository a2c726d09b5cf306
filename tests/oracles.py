"""Independent reference implementations used to cross-check the engine.

Everything here favors obviousness over speed: cluster sums are rebuilt
from member lists on every query, candidate search scans all clusters,
self-similarity is handled by physically removing the user's vector, and
statistics come straight from their definitions. None of it shares code
with the package under test beyond the MessageRecord container, except
sweep_row_by_replay, which drives the engine itself to check that one
recorded replay stands in for a replay per tau or per omega.
"""

from __future__ import annotations

import json
import random
from math import exp, sqrt
from types import SimpleNamespace

from spamrank import (
    DEFERRED,
    HAM,
    SPAM,
    EngineConfig,
    MessageRecord,
    NotComputableError,
    SpamRankEngine,
    SweepRow,
    WorkloadSpec,
    beta_cv,
)


class NaiveClusterer:
    """Reference clustering with physical vector arithmetic.

    Keeps only user -> dims and cluster -> member set. Every similarity
    query rebuilds the candidate cluster's sum from scratch; for the
    user's own cluster the user is skipped while summing, which is the
    textbook form of "compare against the cluster without yourself".
    Requires tau >= 0.
    """

    def __init__(self, tau: float) -> None:
        self.tau = tau
        self.user_dims: dict[int, set[int]] = {}
        self.user_cluster: dict[int, int] = {}
        self.clusters: dict[int, set[int]] = {}
        self.next_cid = 1

    def add_dims(self, uid: int, new_dims) -> None:
        self.user_dims.setdefault(uid, set()).update(new_dims)

    def _cluster_sum(self, cid: int, skip: int | None) -> dict[int, int]:
        total: dict[int, int] = {}
        for member in self.clusters[cid]:
            if member == skip:
                continue
            for d in self.user_dims[member]:
                total[d] = total.get(d, 0) + 1
        return total

    def assign_user(self, uid: int) -> int:
        dims = self.user_dims[uid]
        old = self.user_cluster.get(uid)
        nu2 = len(dims)
        best_cid = -1
        best_sim = 0.0
        for cid in self.clusters:
            total = self._cluster_sum(cid, skip=uid if cid == old else None)
            dot = sum(total.get(d, 0) for d in dims)
            if dot <= 0:
                continue
            nsq = sum(c * c for c in total.values())
            sim = dot / sqrt(nsq * nu2)
            if sim > best_sim or (sim == best_sim and cid < best_cid):
                best_sim = sim
                best_cid = cid
        if best_sim > self.tau:
            if best_cid == old:
                return old
            if old is not None:
                self._remove(uid, old)
            self.clusters[best_cid].add(uid)
            self.user_cluster[uid] = best_cid
            return best_cid
        if old is not None:
            members = self.clusters[old]
            if len(members) == 1:
                # retire the lonely cluster's id, never reuse it
                new = self.next_cid
                self.next_cid += 1
                del self.clusters[old]
                self.clusters[new] = members
                self.user_cluster[uid] = new
                return new
            self._remove(uid, old)
        cid = self.next_cid
        self.next_cid += 1
        self.clusters[cid] = {uid}
        self.user_cluster[uid] = cid
        return cid

    def _remove(self, uid: int, cid: int) -> None:
        members = self.clusters[cid]
        members.discard(uid)
        del self.user_cluster[uid]
        if not members:
            del self.clusters[cid]


def naive_cosine(a: dict[int, int], b: dict[int, int]) -> float:
    """Plain two-square-roots cosine over count mappings."""
    dot = sum(c * b.get(d, 0) for d, c in a.items())
    if dot == 0:
        return 0.0
    na = sum(c * c for c in a.values())
    nb = sum(c * c for c in b.values())
    return dot / (sqrt(na) * sqrt(nb))


def _exact_cosine(a: dict[int, int] | set[int], b: dict[int, int]) -> float:
    """Integer dot / single sqrt of the integer norm product, clamped.

    This is the similarity definition the package commits to (exact integer
    operands, one rounding at the final division), rebuilt here from raw
    loops. Matching it operation-for-operation makes the distances below
    bit-identical, so the degenerate zero-spread gates trip in lockstep.
    """
    if isinstance(a, dict):
        dot = sum(v * b.get(d, 0) for d, v in a.items())
        na = sum(v * v for v in a.values())
    else:
        dot = sum(b.get(d, 0) for d in a)
        na = len(a)
    if dot == 0:
        return 0.0
    nb = sum(v * v for v in b.values())
    sim = dot / sqrt(na * nb)
    return 1.0 if sim > 1.0 else sim


def naive_beta_cv(
    user_dims: dict[int, set[int]], clusters: dict[int, set[int]]
) -> float | None:
    """Cluster-quality ratio recomputed from its written definition.

    intra CV over member-to-centroid distances divided by inter CV over
    pairwise centroid distances, distance = 1 - cosine, CV = population
    standard deviation over mean. None marks every not-computable shape.
    The CV-is-zero gates are decided structurally (all values equal); on
    non-negative data that is exactly when an exact population standard
    deviation, or the mean, is zero.
    """
    if len(clusters) < 2:
        return None
    if all(len(m) <= 1 for m in clusters.values()):
        return None
    centroids: dict[int, dict[int, int]] = {}
    for cid, members in clusters.items():
        total: dict[int, int] = {}
        for uid in members:
            for d in user_dims[uid]:
                total[d] = total.get(d, 0) + 1
        centroids[cid] = total
    intra = [
        1.0 - _exact_cosine(user_dims[uid], centroids[cid])
        for cid in sorted(clusters)
        for uid in sorted(clusters[cid])
    ]
    if all(x == intra[0] for x in intra):
        return 0.0  # no intra spread, ratio pinned to the floor
    intra_mean = sum(intra) / len(intra)
    var = sum((x - intra_mean) ** 2 for x in intra) / len(intra)
    intra_cv = sqrt(var) / intra_mean
    cids = sorted(clusters)
    inter = [
        1.0 - _exact_cosine(centroids[a], centroids[b])
        for k, a in enumerate(cids)
        for b in cids[k + 1:]
    ]
    if all(x == inter[0] for x in inter):
        return None  # single pair, coinciding centroids, or equal spread
    inter_mean = sum(inter) / len(inter)
    var = sum((x - inter_mean) ** 2 for x in inter) / len(inter)
    inter_cv = sqrt(var) / inter_mean
    return intra_cv / inter_cv


def projected_rank(p_s: float, p_r: float) -> float:
    """Spam rank built the long way round, as plane geometry.

    Drop the point (Ps, Pr) onto the unit square's main diagonal: scalar
    projection onto the unit direction (1/sqrt2, 1/sqrt2), then rescale
    the diagonal's length sqrt(2) down to 1.
    """
    ux = 1.0 / sqrt(2.0)
    uy = 1.0 / sqrt(2.0)
    proj = p_s * ux + p_r * uy
    return proj / sqrt(2.0)


def random_corpus(seed: int, max_users: int = 200) -> tuple[list[MessageRecord], float]:
    """Small random corpus plus a tau for cross-checking the clusterer.

    Sender and recipient universes together stay within max_users.
    """
    rng = random.Random(seed)
    n_senders = rng.randint(2, max_users // 5)
    n_recipients = rng.randint(2, max_users - max_users // 5)
    n_messages = rng.randint(5, 80)
    tau = rng.choice([0.0, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0])
    pool = [f"u{j}@x.example" for j in range(n_recipients)]
    records = []
    for i in range(n_messages):
        fan = rng.randint(1, min(6, n_recipients))
        records.append(MessageRecord(
            msg_id=f"r{i}",
            timestamp=1_000_000 + i,
            sender=f"s{rng.randrange(n_senders)}.example",
            recipients=tuple(rng.sample(pool, fan)),
            aux_label=SPAM if rng.random() < 0.5 else HAM,
        ))
    return records, tau


def sweep_row_by_replay(
    records: list[MessageRecord], cfg: EngineConfig, value: float
) -> SweepRow:
    """The sweep row at one grid value from a fresh engine replay at cfg.

    Every decision comes from the engine rather than from a recorded spam
    rank, and accordance is counted here. runtime_ms is left at 0.
    """
    engine = SpamRankEngine(cfg)
    classified = agree = 0
    for verdict in map(engine.process, records):
        if verdict.decision == DEFERRED:
            continue
        classified += 1
        if (verdict.decision == SPAM) == (verdict.aux_label == SPAM):
            agree += 1
    try:
        beta = beta_cv(engine.sender_side)
    except NotComputableError:
        beta = None
    return SweepRow(
        value=value,
        num_sender_clusters=len(engine.sender_side.clusters),
        num_recipient_clusters=len(engine.recipient_side.clusters),
        beta_cv=beta,
        accordance_pct=100.0 * agree / classified if classified else 100.0,
        classified_count=classified,
        runtime_ms=0.0,
    )


def reference_parse_jsonl(lines: list[str]) -> tuple[list[MessageRecord], dict[str, int]]:
    """JSONL records and line tallies by the README's rules, one json.loads
    per line, with domain sender identity.

    The tallies are keyed like ParseStats, plus "lines", every line seen.
    The caller decides whether the stream as a whole is refused (skipped
    lines outnumber records).
    """
    records: list[MessageRecord] = []
    tally = {"lines": 0, "records": 0, "skipped": 0, "comments": 0}
    for line_no, raw in enumerate(lines, 1):
        tally["lines"] += 1
        line = raw.strip()
        if line.startswith("#"):
            tally["comments"] += 1
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            obj = None
        if isinstance(obj, dict) and list(obj) == ["header"]:
            tally["comments"] += 1
            continue
        record = _reference_record(obj, line_no) if isinstance(obj, dict) else None
        if record is None:
            tally["skipped"] += 1
        else:
            tally["records"] += 1
            records.append(record)
    return records, tally


def _reference_label(value) -> str | None:
    if isinstance(value, str) and value.lower() in (SPAM, HAM):
        return value.lower()
    return None


def _reference_record(obj: dict, line_no: int) -> MessageRecord | None:
    """The record an object describes, or None if any field is unusable."""
    if not all(key in obj for key in ("ts", "from", "to", "aux")):
        return None
    msg_id = obj.get("id", f"m{line_no}")
    if isinstance(msg_id, (bool, int, float)):
        msg_id = str(msg_id)
    ts = obj["ts"]
    if isinstance(ts, float) and ts.is_integer():
        ts = int(ts)
    sender = obj["from"].strip().lower() if isinstance(obj["from"], str) else ""
    if "@" in sender:
        sender = sender.rsplit("@", 1)[1] or sender
    to = obj["to"] if isinstance(obj["to"], list) else [None]
    recipients = []
    for addr in to:
        addr = addr.strip().lower() if isinstance(addr, str) else ""
        if "@" not in addr:
            return None
        if addr not in recipients:
            recipients.append(addr)
    aux = _reference_label(obj["aux"])
    truth = obj.get("truth")
    if truth is not None:
        truth = _reference_label(truth) or ""
    if (not isinstance(msg_id, str) or type(ts) is not int or not sender
            or not recipients or aux is None or truth == ""):
        return None
    return MessageRecord(msg_id, ts, sender, tuple(recipients), aux, truth)


def record_to_obj(record: MessageRecord) -> dict:
    """The JSON object a jsonl line of this record holds, in key order;
    json.dumps of it is the line write_jsonl must write."""
    obj = {
        "id": record.msg_id,
        "ts": record.timestamp,
        "from": record.sender,
        "to": list(record.recipients),
        "aux": record.aux_label,
    }
    if record.truth is not None:
        obj["truth"] = record.truth
    return obj


def reference_layout(spec: WorkloadSpec) -> SimpleNamespace:
    """The population structure generate(spec) draws before its first
    message, redrawn from random.Random(spec.seed) in the same order: the
    communities, sampled from the social pool (recipient indices below 60%
    of n_recipients), the distribution lists, sampled from the harvest pool
    (from 50% up), then each legit sender's community and each spammer's
    list. Community and list sizes are Poisson draws (Knuth's product
    method) clipped to [2, pool size]. Returns the distribution lists, the
    sender names (legit sender i is corp{i}.example, spammer i
    promo{i}.example) and each spammer's list index."""
    rng = random.Random(spec.seed)

    def clipped_poisson(mean: float, hi: int) -> int:
        k, p = 0, rng.random()
        while p > exp(-mean):
            k += 1
            p *= rng.random()
        return min(hi, max(2, k))

    n = spec.n_recipients
    social, harvest = range(round(n * 0.6)), range(round(n * 0.5), n)
    for _ in range(spec.n_communities):
        rng.sample(social, clipped_poisson(spec.community_size_mean, len(social)))
    dist_lists = [
        rng.sample(harvest, clipped_poisson(spec.list_size_mean, len(harvest)))
        for _ in range(spec.n_distribution_lists)
    ]
    for _ in range(spec.n_legit_senders):
        rng.randrange(spec.n_communities)
    return SimpleNamespace(
        dist_lists=dist_lists,
        legit_domains=[f"corp{i}.example" for i in range(spec.n_legit_senders)],
        spam_domains=[f"promo{i}.example" for i in range(spec.n_spam_senders)],
        spammer_list=[rng.randrange(spec.n_distribution_lists)
                      for _ in range(spec.n_spam_senders)],
    )
