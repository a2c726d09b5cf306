"""Online single-pass clustering of users by contact-vector similarity.

Each side (senders, recipients) is an independent ClusterSpace. Users are
re-assigned every time a message touches them: the best cluster by cosine
wins if its similarity strictly exceeds the threshold tau, otherwise the
user seeds a fresh single-user cluster. While choosing, a user is never
compared against a cluster sum that still contains its own vector; the
comparison against the current cluster uses the sum minus the user, which
is computed in closed form from the accumulated dot product:

    dot(S - u, u)   = dot(S, u) - |u|
    |S - u|^2       = |S|^2 - 2 dot(S, u) + |u|

Both identities are integer-exact, so the lazy evaluation is bit-identical
to physically detaching the user first.

Cluster ids are never reused. A sole member that fails to join anything is
re-seeded under a fresh id (the old cluster is retired), matching the
remove-then-create reading of the assignment step.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Set
from dataclasses import dataclass, field
from math import sqrt
from operator import mul
from typing import Callable

from .errors import InternalStateError, NotAMemberError, UnknownUserError
from .scoring import SpamStats
from .vectorspace import InvertedIndex

SENDER_SIDE = "sender"
RECIPIENT_SIDE = "recipient"

# probe(uid, cid, sim, used_member_adjusted) for every candidate comparison
SimilarityProbe = Callable[[int, int, float, bool], None]


@dataclass(slots=True)
class Cluster:
    """Cluster bookkeeping. The count vector itself lives in the index."""

    cid: int
    members: set[int] = field(default_factory=set)
    # sum of spam frequencies over members with observations, and how many
    freq_sum: float = 0.0
    scored_members: int = 0


@dataclass(slots=True)
class CensusReport:
    num_clusters: int
    size_histogram: dict[int, int]
    num_singletons: int


class ClusterSpace:
    """All clustering state for one side of the traffic."""

    def __init__(self, side: str, tau: float) -> None:
        self.side = side
        self.tau = tau
        self.index = InvertedIndex()
        self.user_dims: dict[int, set[int]] = {}
        self.user_cluster: dict[int, int] = {}
        self.stats: dict[int, SpamStats] = {}
        self.clusters: dict[int, Cluster] = {}
        self._next_cid = 1
        self.similarity_probe: SimilarityProbe | None = None

    # -- user registry ----------------------------------------------------

    def register_user(self, uid: int) -> None:
        if uid not in self.user_dims:
            self.user_dims[uid] = set()
            self.stats[uid] = SpamStats()

    def add_dims(self, uid: int, new_dims) -> None:
        """Grow a user's vector; the current cluster sum tracks it."""
        dims = self.user_dims[uid]
        added = [d for d in new_dims if d not in dims]
        if not added:
            return
        dims.update(added)
        cid = self.user_cluster.get(uid)
        if cid is not None:
            self.index.add_member_vector(cid, added)

    def cluster_of(self, uid: int) -> Cluster:
        return self.clusters[self.user_cluster[uid]]

    def restore_user(
        self, uid: int, dims: set[int], stats: SpamStats, cid: int | None
    ) -> None:
        """Re-add a saved user through assign_user's attach step, registering
        cluster cid the first time it appears; None leaves it unclustered."""
        self.user_dims[uid] = dims
        self.stats[uid] = stats
        if cid is not None:
            cluster = self.clusters.get(cid)
            if cluster is None:
                cluster = self.clusters[cid] = Cluster(cid)
                self.index.register_cluster(cid)
            self._attach_into(uid, cluster)

    def dimensions(self) -> Set[int]:
        """Every dimension some user's vector holds."""
        dims = self.index.postings.keys()
        if len(self.user_cluster) == len(self.user_dims):
            return dims  # only users are clustered, so none is left out
        loose = self.user_dims.keys() - self.user_cluster.keys()
        return dims | set().union(*(self.user_dims[uid] for uid in loose))

    # -- assignment --------------------------------------------------------

    def assign_user(self, uid: int) -> int:
        """Place a user in its best-matching cluster; returns the cluster id.

        Candidate search goes through the inverted index, similarity against
        the current cluster subtracts the user's own vector, ties break to
        the lowest cluster id among equal *rounded* cosines, and joining
        demands similarity strictly above tau. Two cosines that are equal as
        real numbers can round apart, since the current cluster's is
        computed by a different formula: then the larger double wins, not
        the lower id. Unknown users raise UnknownUserError.
        """
        dims = self.user_dims.get(uid)
        if dims is None:
            raise UnknownUserError(f"user {uid} has no vector on side {self.side!r}")
        old = self.user_cluster.get(uid)
        scores = self.index.score_candidates(dims)
        nu2 = len(dims)
        norm_sq = self.index.norm_sq
        probe = self.similarity_probe
        best_cid = -1
        best_sim = 0.0
        for cid, dot in scores.items():
            if cid == old:
                adj = dot - nu2
                if adj <= 0:
                    # zero similarity can never win; -1 sentinel blocks ties
                    if probe is not None:
                        probe(uid, cid, 0.0, True)
                    continue
                sim = adj / sqrt((norm_sq[cid] - dot - dot + nu2) * nu2)
            else:
                sim = dot / sqrt(norm_sq[cid] * nu2)
            if probe is not None:
                probe(uid, cid, sim, cid == old)
            if sim > best_sim or (sim == best_sim and cid < best_cid):
                best_sim = sim
                best_cid = cid
        if best_sim > self.tau:
            if best_cid == old:
                return old
            if old is not None:
                self._detach(uid, old)
            self._attach(uid, best_cid)
            return best_cid
        # no cluster wanted: seed (or re-seed) a singleton
        if old is not None:
            cluster = self.clusters[old]
            if len(cluster.members) == 1:
                # retire the old id, keep the structure
                new = self._next_cid
                self._next_cid += 1
                self.index.relabel_cluster(old, new, dims)
                del self.clusters[old]
                cluster.cid = new
                self.clusters[new] = cluster
                self.user_cluster[uid] = new
                return new
            self._detach(uid, old)
        cid = self._next_cid
        self._next_cid += 1
        cluster = Cluster(cid)
        self.clusters[cid] = cluster
        self.index.register_cluster(cid)
        self._attach_into(uid, cluster)
        return cid

    def _attach(self, uid: int, cid: int) -> None:
        self._attach_into(uid, self.clusters[cid])

    def _attach_into(self, uid: int, cluster: Cluster) -> None:
        self.index.add_member_vector(cluster.cid, self.user_dims[uid])
        cluster.members.add(uid)
        self.user_cluster[uid] = cluster.cid
        st = self.stats[uid]
        if st.total_count:
            cluster.freq_sum += st.spam_count / st.total_count
            cluster.scored_members += 1

    def _detach(self, uid: int, cid: int) -> None:
        cluster = self.clusters[cid]
        if uid not in cluster.members:
            raise NotAMemberError(f"user {uid} not in cluster {cid}")
        self.index.remove_member_vector(cid, self.user_dims[uid])
        cluster.members.discard(uid)
        del self.user_cluster[uid]
        st = self.stats[uid]
        if st.total_count:
            cluster.freq_sum -= st.spam_count / st.total_count
            cluster.scored_members -= 1
        if not cluster.members:
            del self.clusters[cid]
            self.index.drop_cluster(cid)

    # -- scoring hooks -----------------------------------------------------

    def record_observation(self, uid: int, is_spam: bool) -> SpamStats:
        """Bump a user's counters and keep its cluster's cache in step."""
        st = self.stats[uid]
        old_total = st.total_count
        if old_total:
            old_freq = st.spam_count / old_total
        st.total_count = old_total + 1
        if is_spam:
            st.spam_count += 1
        new_freq = st.spam_count / st.total_count
        cid = self.user_cluster.get(uid)
        if cid is not None:
            cluster = self.clusters[cid]
            if old_total:
                cluster.freq_sum += new_freq - old_freq
            else:
                cluster.freq_sum += new_freq
                cluster.scored_members += 1
        return st

    # -- reporting and verification -----------------------------------------

    def census(self) -> CensusReport:
        hist = Counter(len(c.members) for c in self.clusters.values())
        return CensusReport(
            num_clusters=len(self.clusters),
            size_histogram=dict(sorted(hist.items())),
            num_singletons=hist.get(1, 0),
        )

    def check_integrity(self, tol: float = 1e-9) -> None:
        """Revalidate every incremental structure against a rebuild."""
        user_cluster = self.user_cluster
        user_dims = self.user_dims
        stats = self.stats
        index = self.index
        # each cluster's count vector as the postings hold it
        vectors: dict[int, dict[int, int]] = {cid: {} for cid in self.clusters}
        for d, p in index.postings.items():
            if not p:
                raise InternalStateError(f"empty posting retained for dim {d}")
            for cid, cnt in p.items():
                vec = vectors.get(cid)
                if vec is None:
                    raise InternalStateError(f"posting for dead cluster {cid}")
                vec[d] = cnt
        n_members = 0
        for cid, cluster in self.clusters.items():
            if cluster.cid != cid:
                raise InternalStateError("cluster id mismatch")
            if not cluster.members:
                raise InternalStateError(f"empty cluster {cid} retained")
            expect: dict[int, int] = {}
            freq_sum = 0.0
            scored = 0
            for uid in cluster.members:
                if user_cluster.get(uid) != cid:
                    raise InternalStateError(f"membership map out of sync for {uid}")
                for d in user_dims[uid]:
                    expect[d] = expect.get(d, 0) + 1
                st = stats[uid]
                if st.total_count:
                    freq_sum += st.spam_count / st.total_count
                    scored += 1
            n_members += len(cluster.members)
            if vectors[cid] != expect:
                raise InternalStateError(f"cluster {cid} count vector diverged")
            counts = expect.values()
            if index.norm_sq[cid] != sum(map(mul, counts, counts)):
                raise InternalStateError(f"cluster {cid} norm diverged")
            # `not <=` so that a NaN cache fails too
            if scored != cluster.scored_members or not abs(freq_sum - cluster.freq_sum) <= tol:
                raise InternalStateError(f"cluster {cid} stats cache diverged")
        # each member maps back to its own cluster, so members are disjoint
        # and equal totals mean they cover every clustered user
        if n_members != len(user_cluster):
            raise InternalStateError("clustered users do not partition")
