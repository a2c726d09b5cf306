"""Engine state persistence with exact resume.

The snapshot is a single versioned JSON document: config + fingerprint,
interning tables, per-user vectors and counters, per-cluster count vectors
and probability caches, and the message counter. Every number that shapes
future verdicts is stored losslessly (JSON floats round-trip exactly
through repr), so a loaded engine continues the stream with verdicts
identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os

from .clustering import Cluster, ClusterSpace
from .engine import EngineConfig, SpamRankEngine
from .errors import FormatError
from .scoring import SpamStats
from .vectorspace import Interner

STATE_VERSION = 2


def _count(value: object) -> int:
    # the integrity check never reads these counters, so type them here
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _side_state(space: ClusterSpace, interner: Interner) -> dict:
    users = []
    for uid in sorted(space.user_dims):
        st = space.stats[uid]
        users.append([
            uid,
            sorted(space.user_dims[uid]),
            st.spam_count,
            st.total_count,
            space.user_cluster.get(uid),
        ])
    clusters = []
    entries = space.index.all_entries()
    for cid in sorted(space.clusters):
        cluster = space.clusters[cid]
        counts = sorted(entries[cid].items())
        clusters.append([cid, counts, cluster.freq_sum, cluster.scored_members])
    return {
        "names": interner.names(),
        "next_cid": space._next_cid,
        "users": users,
        "clusters": clusters,
    }


def engine_state(engine: SpamRankEngine) -> dict:
    cfg = engine.config
    return {
        "version": STATE_VERSION,
        "config": {
            "tau": cfg.tau,
            "omega": cfg.omega,
            "sender_identity": cfg.sender_identity,
        },
        "fingerprint": cfg.fingerprint(),
        "messages_processed": engine.messages_processed,
        "senders": _side_state(engine.sender_side, engine.senders),
        "recipients": _side_state(engine.recipient_side, engine.recipients),
    }


def _restore_side(space: ClusterSpace, interner: Interner, state: dict) -> None:
    for name in state["names"]:
        interner.intern(name)
    for uid, dims, spam, total, cid in state["users"]:
        space.user_dims[uid] = set(dims)
        space.stats[uid] = SpamStats(spam_count=spam, total_count=total)
        if cid is not None:
            space.user_cluster[uid] = cid
    index = space.index
    for cid, counts, freq_sum, scored in state["clusters"]:
        cluster = Cluster(cid)
        cluster.freq_sum = freq_sum
        cluster.scored_members = scored
        space.clusters[cid] = cluster
        nsq = 0
        for d, c in counts:
            index.postings.setdefault(d, {})[cid] = c
            nsq += c * c
        index.norm_sq[cid] = nsq
    for uid, cid in space.user_cluster.items():
        space.clusters[cid].members.add(uid)
    space._next_cid = _count(state["next_cid"])


def engine_from_state(state: dict, verify: bool = True) -> SpamRankEngine:
    """Rebuild an engine from engine_state() output.

    A wrong version, a fingerprint that does not match the config, or a
    missing or ill-typed field raises FormatError; with verify=True, state
    that parses but is inconsistent raises InternalStateError.
    """
    if state.get("version") != STATE_VERSION:
        raise FormatError(f"unsupported snapshot version {state.get('version')!r}")
    try:
        cfg = EngineConfig(**state["config"])
        if state.get("fingerprint") != cfg.fingerprint():
            raise FormatError("snapshot fingerprint does not match its own config")
        engine = SpamRankEngine(cfg)
        _restore_side(engine.sender_side, engine.senders, state["senders"])
        _restore_side(engine.recipient_side, engine.recipients, state["recipients"])
        engine.messages_processed = _count(state["messages_processed"])
        if verify:
            engine.check_integrity()
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed snapshot: {exc!r}") from exc
    return engine


def save_snapshot(engine: SpamRankEngine, path: str) -> None:
    """Write the engine state to path, replacing any previous snapshot.

    The document is serialized in full first, written to a temporary file
    beside path, and moved over path with os.replace, so a save that fails
    leaves the previous snapshot intact. There is no fsync: this survives a
    failing process, not a power loss.
    """
    text = json.dumps(engine_state(engine), separators=(",", ":")) + "\n"
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_snapshot(path: str, verify: bool = True) -> SpamRankEngine:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            state = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(state, dict):
        raise FormatError("snapshot root must be an object")
    return engine_from_state(state, verify=verify)

