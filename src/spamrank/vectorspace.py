"""Sparse contact vectors and the cluster-side inverted index.

A user's contact vector is the set of interned dimension ids the user has
exchanged mail with; every present coordinate is 1, so its squared norm is
just the set size. A cluster vector is the element-wise sum of its member
vectors and lives inside the inverted index: ``postings[d][cid]`` is cluster
``cid``'s count for dimension ``d``. The posting map for a dimension and the
cluster count vectors are therefore one structure, and the key set of
``postings[d]`` is exactly the set of clusters whose vector touches ``d``.

Squared norms are maintained incrementally in integer arithmetic (a count
step c -> c+1 changes the squared norm by 2c+1), so every cosine here is
computed from exact integers and is bit-for-bit reproducible from the
current counts, no matter what update path produced them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Set
from math import sqrt

from .errors import InternalStateError


class Interner:
    """Bidirectional string <-> dense int table. Ids are allocation order."""

    __slots__ = ("_ids", "_names")

    def __init__(self, names: Iterable[str] = ()) -> None:
        """An empty table, or the one whose names() is `names`."""
        self._names: list[str] = list(names)
        self._ids: dict[str, int] = dict(zip(self._names, range(len(self._names))))
        if len(self._ids) != len(self._names):
            raise ValueError("interned names repeat")

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = len(self._names)
            self._ids[name] = i
            self._names.append(name)
        return i

    def name_of(self, i: int) -> str:
        return self._names[i]

    def names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)


def _as_counts(v: Mapping[object, int] | Set) -> Mapping[object, int]:
    if isinstance(v, Mapping):
        return v
    return dict.fromkeys(v, 1)


def cosine(a: Mapping | Set, b: Mapping | Set) -> float:
    """Cosine similarity of two sparse non-negative vectors.

    Accepts either sets (binary vectors) or mappings to counts. If either
    vector is empty the similarity is defined as 0.0. The result is clamped
    to [0, 1].
    """
    ca = _as_counts(a)
    cb = _as_counts(b)
    if not ca or not cb:
        return 0.0
    if len(cb) < len(ca):
        ca, cb = cb, ca
    dot = 0
    for d, v in ca.items():
        w = cb.get(d)
        if w is not None:
            dot += v * w
    if dot == 0:
        return 0.0
    nsq_a = sum(v * v for v in ca.values())
    nsq_b = sum(v * v for v in cb.values())
    sim = dot / sqrt(nsq_a * nsq_b)
    if sim > 1.0:
        return 1.0
    return sim


class InvertedIndex:
    """Cluster count vectors stored as inverted postings.

    postings: dimension id -> {cluster id: count}, counts always >= 1.
    norm_sq: cluster id -> exact squared norm of that cluster's vector.
    """

    __slots__ = ("postings", "norm_sq")

    def __init__(self) -> None:
        self.postings: dict[int, dict[int, int]] = {}
        self.norm_sq: dict[int, int] = {}

    def register_cluster(self, cid: int) -> None:
        self.norm_sq[cid] = 0

    def add_member_vector(self, cid: int, dims: Iterable[int]) -> None:
        """Add a binary member vector into cluster cid's sum."""
        postings = self.postings
        nsq = self.norm_sq[cid]
        for d in dims:
            p = postings.get(d)
            if p is None:
                p = postings[d] = {}
            c = p.get(cid, 0)
            p[cid] = c + 1
            nsq += 2 * c + 1
        self.norm_sq[cid] = nsq

    def remove_member_vector(self, cid: int, dims: Iterable[int]) -> None:
        """Subtract a binary member vector from cluster cid's sum.

        Raises InternalStateError if any count would go negative, which
        means the vector was never added (or state is corrupt).
        """
        postings = self.postings
        nsq = self.norm_sq[cid]
        for d in dims:
            p = postings.get(d)
            c = p.get(cid, 0) if p is not None else 0
            if c <= 0:
                raise InternalStateError(
                    f"cluster {cid} has no count for dimension {d}"
                )
            if c == 1:
                del p[cid]
                if not p:
                    del postings[d]
            else:
                p[cid] = c - 1
            nsq -= 2 * c - 1
        self.norm_sq[cid] = nsq

    def drop_cluster(self, cid: int) -> None:
        nsq = self.norm_sq.pop(cid)
        if nsq != 0:
            raise InternalStateError(f"dropping cluster {cid} with nonzero vector")

    def relabel_cluster(self, old: int, new: int, dims: Iterable[int]) -> None:
        """Move a sole-member cluster's postings to a fresh id."""
        postings = self.postings
        for d in dims:
            p = postings[d]
            p[new] = p.pop(old)
        self.norm_sq[new] = self.norm_sq.pop(old)

    def score_candidates(self, dims: Iterable[int]) -> dict[int, int]:
        """Dot product of a binary vector against every overlapping cluster."""
        # the first occupied dimension seeds the result with a C-level dict
        # copy; only the remaining dimensions pay per-entry accumulation
        scores: dict[int, int] | None = None
        pget = self.postings.get
        for d in dims:
            p = pget(d)
            if not p:
                continue
            if scores is None:
                scores = dict(p)
                get = scores.get
                continue
            for cid, cnt in p.items():
                scores[cid] = get(cid, 0) + cnt
        return scores if scores is not None else {}

    def all_entries(self) -> dict[int, dict[int, int]]:
        """Materialize every cluster's count vector. Linear in total postings."""
        out: dict[int, dict[int, int]] = {cid: {} for cid in self.norm_sq}
        for d, p in self.postings.items():
            for cid, cnt in p.items():
                out[cid][d] = cnt
        return out

