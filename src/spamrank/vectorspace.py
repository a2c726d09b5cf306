"""Sparse contact vectors and the cluster-side inverted index.

A user's contact vector is the tuple of distinct interned dimension ids the
user has exchanged mail with; every present coordinate is 1, so its squared
norm is just the tuple's length. A cluster vector is the element-wise sum of
its member vectors and lives inside the inverted index: the posting for
dimension ``d`` holds the count of every cluster whose vector touches ``d``.
The posting map for a dimension and the cluster count vectors are therefore
one structure.

A posting takes one of two forms. Most dimensions are touched by a single
cluster once, so a new posting is the 1-tuple ``(cid,)``, meaning count 1
for cluster ``cid``; it becomes the dict ``{cid: count}`` when a second count
arrives, and a dict is never turned back. Either form's ``len`` is the number
of clusters it holds. Only this module knows the forms: ``counts`` and
``vectors`` read the index as plain dicts.

The index holds no norms: each add or remove returns the exact integer
change in the cluster's squared norm (a count step c -> c+1 changes it by
2c+1) for the caller to keep, so every cosine built on this index is
computed from exact integers and is bit-for-bit reproducible from the
current counts, no matter what update path produced them.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InternalStateError


class Interner:
    """Bidirectional string <-> dense int table. Ids are allocation order,
    which is also the key order of its one dict, so names() reads the keys."""

    __slots__ = ("_ids",)

    def __init__(self, names: Iterable[str] = ()) -> None:
        """An empty table, or the one whose names() is `names`."""
        names = list(names)
        self._ids: dict[str, int] = dict(zip(names, range(len(names))))
        if len(self._ids) != len(names):
            raise ValueError("interned names repeat")

    def intern(self, name: str) -> int:
        ids = self._ids
        return ids.setdefault(name, len(ids))

    def names(self) -> list[str]:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


class InvertedIndex:
    """Cluster count vectors stored as inverted postings.

    postings: dimension id -> the clusters touching it, as the 1-tuple
        (cid,) for one cluster with count 1, else as {cluster id: count},
        counts always >= 1; a dimension no cluster touches has no posting.
    """

    __slots__ = ("postings",)

    def __init__(self) -> None:
        self.postings: dict[int, tuple[int] | dict[int, int]] = {}

    def add_member_vector(self, cid: int, dims: Iterable[int]) -> int:
        """Add a binary member vector into cluster cid's sum; returns the
        change in its squared norm."""
        postings = self.postings
        nsq = 0
        one = (cid,)  # every posting this call opens shares it
        for d in dims:
            p = postings.get(d)
            if p is None:
                postings[d] = one
                nsq += 1
            elif type(p) is dict:
                c = p.get(cid, 0)
                p[cid] = c + 1
                nsq += 2 * c + 1
            elif p[0] == cid:
                postings[d] = {cid: 2}
                nsq += 3
            else:
                postings[d] = {p[0]: 1, cid: 1}
                nsq += 1
        return nsq

    def remove_member_vector(self, cid: int, dims: Iterable[int]) -> int:
        """Subtract a binary member vector from cluster cid's sum; returns
        the change in its squared norm.

        Raises InternalStateError if any count would go negative, which
        means the vector was never added (or state is corrupt).
        """
        postings = self.postings
        nsq = 0
        for d in dims:
            p = postings.get(d)
            if type(p) is dict and (c := p.get(cid, 0)):
                if c > 1:
                    p[cid] = c - 1
                else:
                    del p[cid]
                    if not p:
                        del postings[d]
                nsq -= 2 * c - 1
            elif p == (cid,):
                del postings[d]
                nsq -= 1
            else:
                raise InternalStateError(f"cluster {cid} has no count for dimension {d}")
        return nsq

    def relabel_cluster(self, old: int, new: int, dims: Iterable[int]) -> None:
        """Move a sole-member cluster's postings to a fresh id."""
        postings = self.postings
        one = (new,)
        for d in dims:
            p = postings[d]
            if type(p) is dict:
                p[new] = p.pop(old)
            else:
                postings[d] = one

    def score_candidates(self, dims: Iterable[int]) -> dict[int, int]:
        """Dot product of a binary vector against every overlapping cluster."""
        # the first occupied dimension seeds the result with a C-level dict
        # copy; only the remaining dimensions pay per-entry accumulation
        scores: dict[int, int] | None = None
        pget = self.postings.get
        for d in dims:
            p = pget(d)
            if p is None:
                continue
            if scores is None:
                scores = dict(p) if type(p) is dict else {p[0]: 1}
                get = scores.get
            elif type(p) is dict:
                for cid, cnt in p.items():
                    scores[cid] = get(cid, 0) + cnt
            else:
                cid = p[0]
                scores[cid] = get(cid, 0) + 1
        return scores if scores is not None else {}

    def counts(self, d: int) -> dict[int, int]:
        """{cluster id: count} for dimension d, empty if no cluster touches
        it; read-only, as it may be the posting itself."""
        p = self.postings.get(d)
        if p is None:
            return {}
        return p if type(p) is dict else {p[0]: 1}

    def vectors(self, cids: Iterable[int]) -> dict[int, dict[int, int]]:
        """{cluster id: {dimension id: count}}, each cluster's count vector
        read back from the postings in one pass. Raises InternalStateError
        for a posting that holds no cluster, or one outside `cids`."""
        vectors: dict[int, dict[int, int]] = {cid: {} for cid in cids}
        get = vectors.get
        for d, p in self.postings.items():
            if type(p) is dict:
                if not p:
                    raise InternalStateError(f"empty posting retained for dim {d}")
                for cid, cnt in p.items():
                    vec = get(cid)
                    if vec is None:
                        raise InternalStateError(f"posting for dead cluster {cid}")
                    vec[d] = cnt
            else:
                vec = get(p[0])
                if vec is None:
                    raise InternalStateError(f"posting for dead cluster {p[0]}")
                vec[d] = 1
        return vectors
