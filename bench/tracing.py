"""Spans and counters around spamrank's public functions, from outside.

`Tracer.install()` replaces module and class attributes with wrappers that
time each call; `uninstall()` puts the originals back. Nothing under
`src/` is edited. A layer's self time is its spans' time minus the time of
the spans they enclose, so the per-layer figures add up to the traced
wall time. Spans are kept in memory and written by `write_spans`; every
`SAMPLE`-th message keeps its whole span tree, the rest are only summed.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from time import perf_counter_ns

import spamrank.cli as cli
import spamrank.engine as engine_mod
import spamrank.snapshot as snapshot_mod
from spamrank.clustering import ClusterSpace
from spamrank.engine import SpamRankEngine
from spamrank.vectorspace import InvertedIndex

SIDES = ("sender", "recipient")
SAMPLE = 100

# span name -> per-layer metric of its self time, in seconds
_ODD_NAMES = {"engine": "engine.self_s", "cli": "cli.self_s", "scoring": "scoring.s"}
SPAN_NAMES = (
    [f"{layer}.{side}.{op}"
     for side in SIDES
     for layer, op in (("vectorspace", "score"), ("vectorspace", "update"),
                       ("clustering", "assign"), ("clustering", "grow"),
                       ("clustering", "observe"))]
    + ["ingest.parse", "engine", "scoring", "cli", "snapshot.state",
       "snapshot.restore", "snapshot.verify", "snapshot.io", "synthgen.generate"]
)
COUNTERS = (
    [f"{layer}.{side}.{what}"
     for side in SIDES
     for layer, what in (("vectorspace", "postings_scanned"), ("vectorspace", "candidates"),
                         ("clustering", "assign_calls"), ("clustering", "stays"),
                         ("clustering", "joins"), ("clustering", "seeds"),
                         ("clustering", "users"), ("clustering", "clusters"),
                         ("vectorspace", "posting_entries"))]
    + ["ingest.records"]
)


def time_metric(span: str) -> str:
    return _ODD_NAMES.get(span, span + "_s")


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._nid = {n: i for i, n in enumerate(self.names)}
        self.self_ns = [0] * len(self.names)
        self.counts: Counter[str] = Counter()
        self.snapshot_bytes = 0
        self.engine: SpamRankEngine | None = None
        # open spans: [span index or -1, start ns, enclosed ns, name id]
        self._stack: list[list[int]] = []
        self._keep = True
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("q")
        self._span_end = array("q")
        self._index_side: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, nid: int) -> None:
        start = perf_counter_ns()
        idx = -1
        if self._keep:
            idx = len(self._span_name)
            self._span_name.append(nid)
            self._span_parent.append(self._stack[-1][0] if self._stack else -1)
            self._span_start.append(start)
            self._span_end.append(0)
        self._stack.append([idx, start, 0, nid])

    def exit(self) -> int:
        end = perf_counter_ns()
        idx, start, enclosed, nid = self._stack.pop()
        dur = end - start
        self.self_ns[nid] += dur - enclosed
        if idx >= 0:
            self._span_end[idx] = end
        if self._stack:
            self._stack[-1][2] += dur
        return end

    def discount(self, since: int) -> None:
        """Keep the tracer's own counting since `since` out of the enclosing
        span's self time."""
        if self._stack:
            self._stack[-1][2] += perf_counter_ns() - since

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own, from the benchmark's side."""
        self.enter(self._nid[name])
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def write_spans(self, path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i, (nid, parent, start, end) in enumerate(zip(
                    self._span_name, self._span_parent, self._span_start,
                    self._span_end)):
                fh.write(f"{i}\t{parent}\t{self.names[nid]}\t{start}\t{end}\n")
        return len(self._span_name)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _plain(self, name: str):
        nid = self._nid[name]

        def make(orig):
            def wrapper(*args, **kwargs):
                self.enter(nid)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.exit()
            return wrapper
        return make

    def _by_side(self, layer: str, op: str, side_of):
        nids = {side: self._nid[f"{layer}.{side}.{op}"] for side in SIDES}

        def make(orig):
            def wrapper(obj, *args, **kwargs):
                self.enter(nids[side_of(obj)])
                try:
                    return orig(obj, *args, **kwargs)
                finally:
                    self.exit()
            return wrapper
        return make

    def install(self) -> None:
        tracer = self
        counts = self.counts
        index_side = self._index_side

        def space_side(space):
            return space.side

        def index_of(index):
            return index_side[id(index)]

        def make_init(orig):
            def wrapper(space, *args, **kwargs):
                orig(space, *args, **kwargs)
                index_side[id(space.index)] = space.side
            return wrapper

        def make_process(orig):
            nid = self._nid["engine"]

            def wrapper(engine, record):
                tracer.engine = engine
                tracer._keep = counts["engine.calls"] % SAMPLE == 0
                counts["engine.calls"] += 1
                tracer.enter(nid)
                try:
                    return orig(engine, record)
                finally:
                    tracer.exit()
                    tracer._keep = True
            return wrapper

        def make_assign(orig):
            nids = {side: self._nid[f"clustering.{side}.assign"] for side in SIDES}

            def wrapper(space, uid):
                side = space.side
                old = space.user_cluster.get(uid)
                tracer.enter(nids[side])
                try:
                    new = orig(space, uid)
                finally:
                    end = tracer.exit()
                if new == old:
                    outcome = "stays"
                elif len(space.clusters[new].members) > 1:
                    outcome = "joins"
                else:
                    outcome = "seeds"
                counts[f"clustering.{side}.{outcome}"] += 1
                counts[f"clustering.{side}.assign_calls"] += 1
                tracer.discount(end)
                return new
            return wrapper

        def make_score(orig):
            nids = {side: self._nid[f"vectorspace.{side}.score"] for side in SIDES}

            def wrapper(index, dims):
                side = index_side[id(index)]
                tracer.enter(nids[side])
                try:
                    scores = orig(index, dims)
                finally:
                    end = tracer.exit()
                postings = index.postings
                counts[f"vectorspace.{side}.postings_scanned"] += sum(
                    len(postings.get(d, ())) for d in dims)
                counts[f"vectorspace.{side}.candidates"] += len(scores)
                tracer.discount(end)
                return scores
            return wrapper

        def make_parse(orig):
            nid = self._nid["ingest.parse"]

            def wrapper(*args, **kwargs):
                nxt = orig(*args, **kwargs).__next__
                while True:
                    tracer._keep = counts["ingest.records"] % SAMPLE == 0
                    tracer.enter(nid)
                    try:
                        record = nxt()
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                        tracer._keep = True
                    counts["ingest.records"] += 1
                    yield record
            return wrapper

        def make_save(orig):
            nid = self._nid["snapshot.io"]

            def wrapper(engine, path):
                tracer.enter(nid)
                try:
                    orig(engine, path)
                finally:
                    tracer.exit()
                tracer.snapshot_bytes = os.path.getsize(path)
            return wrapper

        self._patch(ClusterSpace, "__init__", make_init)
        self._patch(SpamRankEngine, "process", make_process)
        self._patch(SpamRankEngine, "check_integrity", self._plain("snapshot.verify"))
        self._patch(ClusterSpace, "assign_user", make_assign)
        self._patch(ClusterSpace, "add_dims", self._by_side("clustering", "grow", space_side))
        self._patch(ClusterSpace, "record_observation",
                    self._by_side("clustering", "observe", space_side))
        self._patch(InvertedIndex, "score_candidates", make_score)
        for attr in ("add_member_vector", "remove_member_vector", "relabel_cluster"):
            self._patch(InvertedIndex, attr, self._by_side("vectorspace", "update", index_of))
        for attr in ("cluster_spam_probability", "spam_rank", "decide", "effective_label"):
            self._patch(engine_mod, attr, self._plain("scoring"))
        self._patch(cli, "parse_stream", make_parse)
        self._patch(cli, "save_snapshot", make_save)
        self._patch(cli, "load_snapshot", self._plain("snapshot.io"))
        self._patch(snapshot_mod, "engine_state", self._plain("snapshot.state"))
        self._patch(snapshot_mod, "engine_from_state", self._plain("snapshot.restore"))

    # -- results -------------------------------------------------------------

    def census(self) -> None:
        """Take the end-of-stream sizes of the last engine that ran."""
        for side, space in zip(SIDES, (self.engine.sender_side, self.engine.recipient_side)):
            self.counts[f"clustering.{side}.users"] = len(space.user_dims)
            self.counts[f"clustering.{side}.clusters"] = len(space.clusters)
            self.counts[f"vectorspace.{side}.posting_entries"] = sum(
                len(p) for p in space.index.postings.values())

    def self_seconds(self) -> dict[str, float]:
        return {name: ns / 1e9 for name, ns in zip(self.names, self.self_ns)}
