"""Engine state persistence with exact resume.

A snapshot is one versioned JSON document holding only what cannot be
rebuilt (README lists its fields): per side, the next cluster id and one
row per user. Senders and recipients are the two readings of one contact
relation, so only the sender rows store their vectors: a recipient's
vector is the set of senders whose vectors name it, and loading rebuilds
it by transposition. Loading then re-adds every user through the attach
step the engine runs, which recomputes every cluster value: count vectors,
norms and the fixed-point spam-frequency sums, exact integers whatever the
update order. So a loaded engine continues exactly like an uninterrupted
run.

Save and load run with the cyclic garbage collector paused: they create
and drop tens of thousands of containers but no reference cycles, so every
collection in between would find nothing and only cost time.
"""

from __future__ import annotations

import gc
import json
import os
from itertools import chain
from operator import itemgetter, lt

from .clustering import ClusterSpace
from .engine import EngineConfig, SpamRankEngine
from .errors import ConfigError, FormatError
from .vectorspace import Interner

STATE_VERSION = 6


class _GcPaused:
    """Pause the cyclic garbage collector, process-wide, and restore its
    previous state on every exit. A class, not a generator: __exit__
    allocates nothing, so the young collection the pause defers runs after
    the call has returned, not inside it."""

    def __enter__(self) -> None:
        self._enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc: object) -> None:
        if self._enabled:
            gc.enable()


def _count(value: object) -> int:
    # the integrity check never reads these counters, so type them here
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _side_state(space: ClusterSpace, interner: Interner, *columns) -> dict:
    # row i is user i, and every user the engine has seen is clustered
    cids = map(space.user_cluster.__getitem__, range(len(space.user_dims)))
    return {"next_cid": space._next_cid, "users": list(map(list, zip(
        interner.names(), *columns, space.spam, space.total, cids, strict=True)))}


def engine_state(engine: SpamRankEngine) -> dict:
    cfg = engine.config
    senders = engine.sender_side
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
        "senders": _side_state(senders, engine.senders, map(sorted, senders.user_dims)),
        "recipients": _side_state(engine.recipient_side, engine.recipients),
    }


def _ids_within(ids, lo: int, hi: int) -> bool:
    # ids are typed int by now; the range is checked once per distinct id
    return not ids or (lo <= min(ids) and max(ids) < hi)


def _restore_side(space: ClusterSpace, state: dict, fields, vectors) -> Interner:
    """Re-add users 0, 1, ...: (name, spam, total, cid) from fields, and
    the vectors, which the caller has checked, as their dims."""
    next_cid = _count(state["next_cid"])
    names = []
    for uid, ((name, spam, total, cid), dims) in enumerate(zip(fields, vectors)):
        if type(name) is not str:
            raise ValueError(f"{space.side} {uid} has name {name!r}")
        if type(spam) is not int or type(total) is not int or not 0 <= spam <= total:
            raise ValueError(f"{space.side} {uid} has counts spam={spam!r} total={total!r}")
        if type(cid) is not int:  # restore_user would find cluster 1 by 1.0 or True
            raise ValueError(f"{space.side} {uid} has cluster {cid!r}")
        names.append(name)
        space.restore_user(dims, spam, total, cid)
    if not _ids_within(space.clusters, 1, next_cid):
        raise ValueError(f"a cluster id is not a positive int below next_cid {next_cid}")
    space._next_cid = next_cid
    return Interner(names)  # refuses a repeated name


def _transpose(vectors: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    # ids in [0, n) by now; row j lists the i whose vector holds j, in
    # ascending order, as the sender rows store their dims
    rows: list[list[int]] = [[] for _ in range(n)]
    for i, dims in enumerate(vectors):
        for j in dims:
            rows[j].append(i)
    return list(map(tuple, rows))


def engine_from_state(state: dict) -> SpamRankEngine:
    """Rebuild an engine from engine_state() output.

    A wrong version, a fingerprint that does not match the config, a
    missing, ill-typed or out-of-range field, or counts that no run of
    process() reaches raise FormatError; state that parses but is
    inconsistent fails check_integrity, which always runs, with
    InternalStateError.
    """
    version = state.get("version")
    if type(version) is not int or version != STATE_VERSION:  # 6.0 == 6 as well
        raise FormatError(f"unsupported snapshot version {version!r}")
    try:
        cfg = EngineConfig(**state["config"])
        if state.get("fingerprint") != cfg.fingerprint():
            raise FormatError("snapshot fingerprint does not match its own config")
        engine = SpamRankEngine(cfg)
        s_space, r_space = engine.sender_side, engine.recipient_side
        senders, recipients = state["senders"], state["recipients"]
        s_rows, r_rows = senders["users"], recipients["users"]
        n_recipients = len(r_rows)
        # whole-column passes in C, before any user is restored
        if not set(map(len, s_rows)) <= {5}:
            raise ValueError("a sender row does not have five fields")
        s_dims = list(map(itemgetter(1), s_rows))
        # every user a message has named has a contact
        if not set(map(type, s_dims)) <= {list} or not all(s_dims):
            raise ValueError("a sender's dims are not a non-empty list")
        s_dims = list(map(tuple, s_dims))
        # a dim 2.0 or true would find the posting key 2 or 1
        if not set(map(type, chain.from_iterable(s_dims))) <= {int}:
            raise ValueError("a sender dim is not an int")
        # a repeated id would count twice in the postings and in the
        # integrity recount alike, so only this check can catch it
        if sum(map(len, map(set, s_dims))) != sum(map(len, s_dims)):
            raise ValueError("a sender's dims repeat an id")
        if not (0 <= min(chain.from_iterable(s_dims), default=0)
                and max(chain.from_iterable(s_dims), default=0) < n_recipients):
            raise ValueError("a sender dim names no recipient row")
        vectors = _transpose(s_dims, n_recipients)
        if not all(vectors):
            raise ValueError("a recipient is named by no sender")
        engine.senders = _restore_side(
            s_space, senders, map(itemgetter(0, 2, 3, 4), s_rows), s_dims)
        engine.recipients = _restore_side(r_space, recipients, r_rows, vectors)
        engine.messages_processed = _count(state["messages_processed"])
        # each message counts once for its sender, and once for each of its
        # recipients, which it names once each
        if sum(s_space.total) != engine.messages_processed:
            raise ValueError("sender totals do not sum to the message count")
        if any(map(lt, r_space.total, map(len, vectors))):
            raise ValueError("a recipient's total is below the senders that name it")
        offset = _count(state["input_offset"])
        if offset < engine.messages_processed:
            raise ValueError(f"input offset {offset} is below the message count")
        engine.records_skipped = offset - engine.messages_processed
        engine.check_integrity()
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        # ConfigError: the stored config is out of range or ill-typed
        raise FormatError(f"malformed snapshot: {exc!r}") from exc
    return engine


def save_snapshot(engine: SpamRankEngine, path: str) -> None:
    """Write the engine state to path, replacing any previous snapshot.

    The document is serialized in full first, written to a temporary file
    beside path, and moved over path with os.replace, so a save that fails
    leaves the previous snapshot intact. There is no fsync: this survives a
    failing process, not a power loss.
    """
    with _GcPaused():
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
    """Read a snapshot written by save_snapshot and rebuild its engine.

    A file that is not UTF-8, not JSON, nested too deeply to parse, or not
    a JSON object raises FormatError, as does any state engine_from_state
    refuses.
    """
    with _GcPaused():
        with open(path, "r", encoding="utf-8") as fh:
            try:
                state = json.load(fh)
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError and UnicodeDecodeError are ValueErrors
                raise FormatError(f"snapshot is not valid JSON: {exc}") from exc
        if not isinstance(state, dict):
            raise FormatError("snapshot root must be an object")
        return engine_from_state(state)

