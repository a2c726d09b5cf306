"""Engine state persistence with exact resume.

A snapshot is one versioned JSON document holding only what cannot be
rebuilt (README lists its fields). Loading re-adds every user through the
attach step the engine runs, so cluster sums and norms are recomputed, then
sets each cluster's saved `freq_sum`, a float whose last bits depend on
update order. JSON floats round-trip exactly through repr, so a loaded
engine continues with verdicts identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os

from .clustering import ClusterSpace
from .engine import EngineConfig, SpamRankEngine
from .errors import FormatError
from .scoring import SpamStats
from .vectorspace import Interner

STATE_VERSION = 3


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
    clusters = space.clusters
    return {
        "names": interner.names(),
        "next_cid": space._next_cid,
        "users": users,
        "clusters": [[cid, clusters[cid].freq_sum] for cid in sorted(clusters)],
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
        "input_offset": engine.input_offset,
        "senders": _side_state(engine.sender_side, engine.senders),
        "recipients": _side_state(engine.recipient_side, engine.recipients),
    }


def _ids_within(ids, lo: int, hi: int) -> bool:
    # checked once per distinct id (a cluster, a dimension), not once per
    # stored reference to it, in a few passes that run in C
    return not ids or (set(map(type, ids)) == {int} and lo <= min(ids) and max(ids) < hi)


def _restore_side(space: ClusterSpace, state: dict) -> Interner:
    interner = Interner(state["names"])
    users = state["users"]
    if len(users) != len(interner):
        raise ValueError(f"{len(users)} user rows for {len(interner)} names")
    next_cid = _count(state["next_cid"])
    for uid, (row_uid, dims, spam, total, cid) in enumerate(users):
        if type(row_uid) is not int or row_uid != uid:
            raise ValueError(f"user row {uid} carries uid {row_uid!r}")
        if type(spam) is not int or type(total) is not int or not 0 <= spam <= total:
            raise ValueError(f"user {uid} has counts spam={spam!r} total={total!r}")
        space.restore_user(uid, set(dims), SpamStats(spam, total), cid)
    clusters = space.clusters
    if not _ids_within(clusters, 1, next_cid):
        raise ValueError(f"a cluster id is not a positive int below next_cid {next_cid}")
    freq_sums = dict(state["clusters"])
    if len(freq_sums) != len(state["clusters"]) or freq_sums.keys() != clusters.keys():
        raise ValueError("cluster rows do not name each cluster with members once")
    for cid, freq_sum in freq_sums.items():
        if type(freq_sum) is not float:
            raise ValueError(f"cluster {cid} has freq_sum {freq_sum!r}")
        clusters[cid].freq_sum = freq_sum
    space._next_cid = next_cid
    return interner


def engine_from_state(state: dict) -> SpamRankEngine:
    """Rebuild an engine from engine_state() output.

    A wrong version, a fingerprint that does not match the config, or a
    missing, ill-typed or out-of-range field raises FormatError; state
    that parses but is inconsistent fails check_integrity, which always
    runs, with InternalStateError.
    """
    if state.get("version") != STATE_VERSION:
        raise FormatError(f"unsupported snapshot version {state.get('version')!r}")
    try:
        cfg = EngineConfig(**state["config"])
        if state.get("fingerprint") != cfg.fingerprint():
            raise FormatError("snapshot fingerprint does not match its own config")
        engine = SpamRankEngine(cfg)
        engine.senders = _restore_side(engine.sender_side, state["senders"])
        engine.recipients = _restore_side(engine.recipient_side, state["recipients"])
        for space, other in ((engine.sender_side, engine.recipients),
                             (engine.recipient_side, engine.senders)):
            if not _ids_within(space.dimensions(), 0, len(other)):
                raise ValueError(f"a {space.side} dimension names no user of the other side")
        engine.messages_processed = _count(state["messages_processed"])
        offset = _count(state["input_offset"])
        if offset < engine.messages_processed:
            raise ValueError(f"input offset {offset} is below the message count")
        engine.records_skipped = offset - engine.messages_processed
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


def load_snapshot(path: str) -> SpamRankEngine:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            state = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(state, dict):
        raise FormatError("snapshot root must be an object")
    return engine_from_state(state)

