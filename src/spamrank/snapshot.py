"""Engine state persistence with exact resume.

A snapshot is one versioned JSON document holding only what cannot be
rebuilt (README lists its fields): per side, the next cluster id and one
column per user field, user i at index i. Senders and recipients are the
two readings of one contact relation, so only the senders store vectors:
a recipient's vector is the set of senders whose vectors name it, and
loading rebuilds it by transposition. Loading checks every column whole,
then re-adds every user through the attach step the engine runs, which
recomputes every cluster value: count vectors, norms and the fixed-point
spam-frequency sums, exact integers whatever the update order. So a
loaded engine continues exactly like an uninterrupted run.

Save and load run with the cyclic garbage collector paused: they create
and drop tens of thousands of containers but no reference cycles, so every
collection in between would find nothing and only cost time.
"""

from __future__ import annotations

import gc
import json
import os
from itertools import chain
from operator import gt, lt

from .clustering import ClusterSpace
from .engine import EngineConfig, SpamRankEngine
from .errors import ConfigError, FormatError
from .vectorspace import Interner

STATE_VERSION = 7


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


def _side_state(space: ClusterSpace, interner: Interner, **columns: list) -> dict:
    # copies of the engine's columns, user i at index i; every user is clustered
    cids = map(space.user_cluster.__getitem__, range(len(space.user_dims)))
    return {"next_cid": space._next_cid, "names": interner.names(), **columns,
            "spam": space.spam.copy(), "total": space.total.copy(), "cid": list(cids)}


def engine_state(engine: SpamRankEngine) -> dict:
    cfg = engine.config
    senders = engine.sender_side
    return {
        "version": STATE_VERSION,
        "config": dict(zip(cfg.__slots__, cfg._values())),
        "fingerprint": cfg.fingerprint(),
        "messages_processed": sum(senders.total),  # 1 per message, on its sender
        "input_offset": engine.input_offset,
        "senders": _side_state(senders, engine.senders,
                               dims=list(map(sorted, senders.user_dims))),
        "recipients": _side_state(engine.recipient_side, engine.recipients),
    }


def _checked_side(state: dict, side: str, *keys: str) -> tuple[int, Interner, list[list]]:
    """A saved side's next_cid, names Interner and columns keys + (spam,
    total, cid), each column checked whole in C-level passes."""
    if set(state) != {"next_cid", "names", *keys, "spam", "total", "cid"}:
        raise ValueError(f"the {side} keys are not the ones format {STATE_VERSION} holds")
    names = state["names"]
    columns = [state[key] for key in (*keys, "spam", "total", "cid")]
    if not set(map(type, [names, *columns])) <= {list}:
        raise ValueError(f"a {side} column is not a list")
    if not set(map(len, columns)) <= {len(names)}:
        raise ValueError(f"a {side} column is not as long as its names")
    next_cid = _count(state["next_cid"])
    spam, total, cids = columns[-3:]
    if not set(map(type, names)) <= {str}:
        raise ValueError(f"a {side} name is not a str")
    # a cid 1.0 or true would find cluster 1
    if not set(map(type, chain(spam, total, cids))) <= {int}:
        raise ValueError(f"a {side} count or cluster id is not an int")
    if min(spam, default=0) < 0 or any(map(gt, spam, total)):
        raise ValueError(f"a {side} spam count is negative or above its total")
    if min(cids, default=1) < 1 or max(cids, default=0) >= next_cid:
        raise ValueError(f"a {side} cluster id is not a positive int below next_cid {next_cid}")
    return next_cid, Interner(names), columns  # Interner refuses a repeated name


def _transpose(vectors: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    # ids in [0, n) by now; row j lists the i whose vector holds j, in
    # ascending order, as the sender column stores its dims
    rows: list[list[int]] = [[] for _ in range(n)]
    for i, dims in enumerate(vectors):
        for j in dims:
            rows[j].append(i)
    return list(map(tuple, rows))


def engine_from_state(state: dict) -> SpamRankEngine:
    """Rebuild an engine from engine_state() output.

    A wrong version, a fingerprint that does not match the config, a
    missing, unknown, ill-typed or out-of-range field, a column that is not
    a list as long as its side's names, or counts that no run of process()
    reaches raise FormatError before any user is restored; state that
    parses but is inconsistent fails check_integrity with InternalStateError.
    """
    version = state.get("version")
    if type(version) is not int or version != STATE_VERSION:  # 7.0 == 7 as well
        raise FormatError(f"unsupported snapshot version {version!r}")
    try:
        if state.keys() != {"version", "config", "fingerprint", "messages_processed",
                            "input_offset", "senders", "recipients"}:
            raise ValueError(f"the top-level keys are not the ones format {STATE_VERSION} holds")
        cfg = EngineConfig(**state["config"])
        if state.get("fingerprint") != cfg.fingerprint():
            raise FormatError("snapshot fingerprint does not match its own config")
        engine = SpamRankEngine(cfg)
        s_next, senders, (s_dims, s_spam, s_total, s_cids) = _checked_side(
            state["senders"], "sender", "dims")
        r_next, recipients, (r_spam, r_total, r_cids) = _checked_side(
            state["recipients"], "recipient")
        # every user a message has named has a contact
        if not set(map(type, s_dims)) <= {list} or not all(s_dims):
            raise ValueError("a sender's dims are not a non-empty list")
        s_dims = list(map(tuple, s_dims))
        flat = list(chain.from_iterable(s_dims))
        # a dim 2.0 or true would find the posting key 2 or 1
        if not set(map(type, flat)) <= {int}:
            raise ValueError("a sender dim is not an int")
        # a repeated id would count twice in the postings and in the
        # integrity recount alike, so only this check can catch it
        if sum(map(len, map(set, s_dims))) != len(flat):
            raise ValueError("a sender's dims repeat an id")
        if min(flat, default=0) < 0 or max(flat, default=0) >= len(recipients):
            raise ValueError("a sender dim names no recipient")
        vectors = _transpose(s_dims, len(recipients))
        if not all(vectors):
            raise ValueError("a recipient is named by no sender")
        messages = _count(state["messages_processed"])
        # each message counts once for its sender, and once for each of its
        # recipients, which it names once each
        if sum(s_total) != messages:
            raise ValueError("sender totals do not sum to the message count")
        if any(map(lt, r_total, map(len, vectors))):
            raise ValueError("a recipient's total is below the senders that name it")
        offset = _count(state["input_offset"])
        if offset < messages:
            raise ValueError(f"input offset {offset} is below the message count")
        engine.sender_side.restore(s_dims, s_spam, s_total, s_cids)
        engine.recipient_side.restore(vectors, r_spam, r_total, r_cids)
        engine.sender_side._next_cid, engine.recipient_side._next_cid = s_next, r_next
        engine.senders, engine.recipients = senders, recipients
        engine.input_offset = offset
        engine.check_integrity()
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        # ConfigError: the stored config is out of range or ill-typed
        raise FormatError(f"malformed snapshot: {exc!r}") from exc
    return engine


def save_snapshot(engine: SpamRankEngine, path: str) -> None:
    """Write the engine state to path, replacing any previous snapshot.

    The document is serialized in full first, written to a temporary file
    beside path, and moved over path with os.replace, so a save that fails
    leaves the previous snapshot intact. The temporary file is created
    under this process's own name and never reuses an existing file, which
    may be one the run reads or writes. There is no fsync: this survives a
    failing process, not a power loss.
    """
    with _GcPaused():  # the state is a tree, so json need not look for cycles
        text = json.dumps(engine_state(engine), separators=(",", ":"),
                          check_circular=False) + "\n"
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")  # outside the try: a file it finds is not ours
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

