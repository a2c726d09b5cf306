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

|S|^2 is the cluster record's norm_sq, to which every add or remove of a
member vector adds the change the index returns. Both identities are
integer-exact, so the lazy evaluation is bit-identical to physically
detaching the user first.

Per-user state lives in lists indexed by the dense uids 0..n-1 that the
engine's Interner hands out: each user's vector and its spam and total
counts. A vector and a member roster are each a tuple of distinct ids: the
engine only iterates, slices and tests them, and rebuilds one when it
grows or loses a member, and a tuple holds a few ids in less memory than
a list (a one-id tuple takes 48 bytes, a one-id list 88) and far less
than a set.

Cluster ids are never reused. A sole member that fails to join anything is
re-seeded under a fresh id (the old cluster is retired), matching the
remove-then-create reading of the assignment step.
"""

from __future__ import annotations

from collections import Counter, _count_elements
from collections.abc import Iterable
from math import sqrt
from operator import mul

from .errors import InternalStateError, NotAMemberError, SlotRecord, UnknownUserError
from .scoring import FREQ_BITS
from .vectorspace import InvertedIndex

SENDER_SIDE = "sender"
RECIPIENT_SIDE = "recipient"

# the fixed-point frequency of an all-spam history, (n << FREQ_BITS) // n
_ONE = 1 << FREQ_BITS


class Cluster(SlotRecord):
    """Cluster bookkeeping. The count vector itself lives in the index; its
    exact squared norm lives here, kept by the index's returned changes."""

    __slots__ = ("cid", "members", "freq_sum", "scored_members", "norm_sq")

    def __init__(self, cid: int, members: Iterable[int] = (), freq_sum: int = 0,
                 scored_members: int = 0) -> None:
        self.cid = cid
        # distinct user ids, in attach order
        self.members = tuple(members)
        # sum of fixed-point spam frequencies, (spam << FREQ_BITS) // total,
        # over members with observations, and how many
        self.freq_sum = freq_sum
        self.scored_members = scored_members
        self.norm_sq = 0


class ClusterSpace:
    """All clustering state for one side of the traffic."""

    def __init__(self, side: str, tau: float) -> None:
        self.side = side
        self.tau = tau
        self.index = InvertedIndex()
        # per-user columns by uid: distinct dimension ids in arrival order
        self.user_dims: list[tuple[int, ...]] = []
        self.spam: list[int] = []
        self.total: list[int] = []
        self.user_cluster: dict[int, int] = {}
        self.clusters: dict[int, Cluster] = {}
        self._next_cid = 1

    # -- user registry ----------------------------------------------------

    def add_dims(self, uid: int, new_dims) -> None:
        """Grow a user's vector by the ids it does not hold yet, each once,
        in first-seen order; the current cluster sum tracks it. The next
        uid is registered here, with these ids as its vector (a one-id
        tuple is kept, not copied); a negative uid or a gap raises
        UnknownUserError before anything changes."""
        user_dims = self.user_dims
        n = len(user_dims)
        if uid == n:
            user_dims.append(new_dims if type(new_dims) is tuple and len(new_dims) == 1
                             else tuple(dict.fromkeys(new_dims)))
            self.spam.append(0)
            self.total.append(0)
            return
        # a negative index would reach a user counted from the end
        if not 0 <= uid < n:
            raise UnknownUserError(f"user {uid} is not the next id {n} on side {self.side!r}")
        dims = user_dims[uid]
        fresh = []
        for d in new_dims:
            if d not in dims and d not in fresh:
                fresh.append(d)
        if not fresh:
            return
        user_dims[uid] = dims + tuple(fresh)
        cid = self.user_cluster.get(uid)
        if cid is not None:
            self.clusters[cid].norm_sq += self.index.add_member_vector(cid, fresh)

    def restore(self, dims: list, spam: list[int], total: list[int], cids: list[int]) -> None:
        """Re-add saved users as the next uids through assign_user's attach
        step, each into its cluster in cids; every cluster that cids names
        and the side lacks is created first, in first-named order. Each
        dims entry, a tuple of distinct ids, is kept as it is."""
        first = len(self.user_dims)
        self.user_dims += dims
        self.spam += spam
        self.total += total
        clusters = self.clusters
        fresh = [cid for cid in dict.fromkeys(cids) if cid not in clusters]
        clusters.update(zip(fresh, map(Cluster, fresh)))
        attach = self._attach_into
        for uid, cid in enumerate(cids, first):
            attach(uid, clusters[cid])

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
        try:
            if uid < 0:
                raise IndexError(uid)
            dims = self.user_dims[uid]
        except IndexError:
            raise UnknownUserError(f"user {uid} has no vector on side {self.side!r}") from None
        old = self.user_cluster.get(uid)
        scores = self.index.score_candidates(dims)
        nu2 = len(dims)
        clusters = self.clusters
        best_cid = -1
        best_sim = 0.0
        # the current cluster first, against its sum minus the user: any order
        # picks the highest cosine, then the lowest id; a zero ties -1 and loses
        dot = scores.pop(old, 0)
        if dot > nu2:
            best_sim = (dot - nu2) / sqrt((clusters[old].norm_sq - dot - dot + nu2) * nu2)
            best_cid = old
        for cid, dot in scores.items():
            sim = dot / sqrt(clusters[cid].norm_sq * nu2)
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
            cluster = clusters[old]
            if len(cluster.members) == 1:
                # retire the old id, keep the structure
                new = self._next_cid
                self._next_cid += 1
                self.index.relabel_cluster(old, new, dims)
                del clusters[old]
                cluster.cid = new
                clusters[new] = cluster
                self.user_cluster[uid] = new
                return new
            self._detach(uid, old)
        cid = self._next_cid
        self._next_cid += 1
        cluster = clusters[cid] = Cluster(cid)
        self._attach_into(uid, cluster)
        return cid

    def _attach(self, uid: int, cid: int) -> None:
        self._attach_into(uid, self.clusters[cid])

    def _attach_into(self, uid: int, cluster: Cluster) -> None:
        cluster.norm_sq += self.index.add_member_vector(cluster.cid, self.user_dims[uid])
        cluster.members += (uid,)
        self.user_cluster[uid] = cluster.cid
        total = self.total[uid]
        if total:
            # only a mixed history divides: an all-ham one adds 0, an
            # all-spam one exactly 1 << FREQ_BITS
            spam = self.spam[uid]
            if spam:
                cluster.freq_sum += _ONE if spam == total else (spam << FREQ_BITS) // total
            cluster.scored_members += 1

    def _detach(self, uid: int, cid: int) -> None:
        cluster = self.clusters[cid]
        members = cluster.members
        try:
            i = members.index(uid)
        except ValueError:
            raise NotAMemberError(f"user {uid} not in cluster {cid}") from None
        cluster.members = members[:i] + members[i + 1:]
        cluster.norm_sq += self.index.remove_member_vector(cid, self.user_dims[uid])
        del self.user_cluster[uid]
        total = self.total[uid]
        if total:
            spam = self.spam[uid]
            if spam:
                cluster.freq_sum -= _ONE if spam == total else (spam << FREQ_BITS) // total
            cluster.scored_members -= 1
        if not cluster.members:
            del self.clusters[cid]
            if cluster.norm_sq:
                raise InternalStateError(f"dropping cluster {cid} with nonzero vector")

    # -- scoring hooks -----------------------------------------------------

    def record_observation(self, uid: int, is_spam: bool) -> Cluster | None:
        """Bump a user's counters and keep its cluster's cache in step;
        returns that cluster, or None for a user not yet assigned."""
        # the range test costs nothing until it fails; a negative index
        # would reach a user counted from the end
        try:
            if uid < 0:
                raise IndexError(uid)
            spam = self.spam[uid]
        except IndexError:
            raise UnknownUserError(f"user {uid} has no counters on side {self.side!r}") from None
        old_spam = spam
        old_total = self.total[uid]
        if is_spam:
            spam = self.spam[uid] = spam + 1
        total = self.total[uid] = old_total + 1
        cid = self.user_cluster.get(uid)
        if cid is None:
            return None
        cluster = self.clusters[cid]
        if not old_total:
            # a first frequency is spam / 1
            cluster.freq_sum += spam << FREQ_BITS
            cluster.scored_members += 1
        elif 0 < spam < total:
            # only a mixed history moves: an all-ham or all-spam one stays 0 or 1
            cluster.freq_sum += ((spam << FREQ_BITS) // total
                                 - (old_spam << FREQ_BITS) // old_total)
        return cluster

    # -- reporting and verification -----------------------------------------

    def census(self) -> dict[int, int]:
        """How many clusters there are of each size, by size."""
        hist = Counter(len(c.members) for c in self.clusters.values())
        return dict(sorted(hist.items()))

    def check_integrity(self) -> None:
        """Revalidate every incremental structure against a rebuild."""
        user_cluster = self.user_cluster
        user_dims, spam, total = self.user_dims, self.spam, self.total
        # each cluster's count vector as the postings hold it
        vectors = self.index.vectors(self.clusters)
        n_members = 0
        for cid, cluster in self.clusters.items():
            if cluster.cid != cid:
                raise InternalStateError("cluster id mismatch")
            if not cluster.members:
                raise InternalStateError(f"empty cluster {cid} retained")
            expect: dict[int, int] = {}
            freq_sum = 0
            scored = 0
            for uid in cluster.members:
                if user_cluster.get(uid) != cid:
                    raise InternalStateError(f"membership map out of sync for {uid}")
                # one per id, in place: the C loop that Counter.update runs
                _count_elements(expect, user_dims[uid])
                t = total[uid]
                if t:
                    s = spam[uid]
                    if s:
                        freq_sum += _ONE if s == t else (s << FREQ_BITS) // t
                    scored += 1
            n_members += len(cluster.members)
            if vectors[cid] != expect:
                raise InternalStateError(f"cluster {cid} count vector diverged")
            counts = expect.values()
            if cluster.norm_sq != sum(map(mul, counts, counts)):
                raise InternalStateError(f"cluster {cid} norm diverged")
            if scored != cluster.scored_members or freq_sum != cluster.freq_sum:
                raise InternalStateError(f"cluster {cid} stats cache diverged")
        # each member maps back to its own cluster, so members are disjoint
        # and equal totals mean they cover every clustered user
        if n_members != len(user_cluster):
            raise InternalStateError("clustered users do not partition")
