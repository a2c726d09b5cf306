import pytest
from hypothesis import given, strategies as st

from spamrank import InternalStateError, Interner, InvertedIndex

dims_sets = st.sets(st.integers(min_value=0, max_value=30), max_size=12)


class TestInterner:
    def test_built_from_names(self):
        it = Interner(["a", "b"])
        assert it.names() == ["a", "b"]
        assert (it.intern("b"), it.intern("c")) == (1, 2)
        with pytest.raises(ValueError):
            Interner(["a", "b", "a"])

    def test_ids_are_dense_and_stable(self):
        it = Interner()
        assert it.intern("a") == 0
        assert it.intern("b") == 1
        assert it.intern("a") == 0
        assert len(it) == 2
        assert it.names() == ["a", "b"]
        assert it.names()[1] == "b"

    def test_names_keep_id_order(self):
        it = Interner(["b", "a"])
        assert it.names() == ["b", "a"]
        assert (it.intern("c"), it.intern("a"), it.intern("0")) == (2, 1, 3)
        assert it.names() == ["b", "a", "c", "0"]
        assert len(it) == 4


def _count(index: InvertedIndex, cid: int, d: int) -> int:
    return index.postings.get(d, {}).get(cid, 0)


def _vectors(index: InvertedIndex) -> dict[int, dict[int, int]]:
    """Each cluster's count vector, read back from the postings."""
    out: dict[int, dict[int, int]] = {cid: {} for cid in index.norm_sq}
    for d, p in index.postings.items():
        for cid, cnt in p.items():
            out[cid][d] = cnt
    return out


def _rebuild_norms(index: InvertedIndex) -> dict[int, int]:
    return {cid: sum(c * c for c in counts.values())
            for cid, counts in _vectors(index).items()}


class TestInvertedIndex:
    def test_add_remove_round_trip(self):
        ix = InvertedIndex()
        ix.register_cluster(1)
        ix.add_member_vector(1, {1, 2})
        ix.add_member_vector(1, {2, 3})
        assert _count(ix, 1, 2) == 2
        assert ix.norm_sq[1] == 1 + 4 + 1
        assert ix.norm_sq == _rebuild_norms(ix)
        ix.remove_member_vector(1, {2, 3})
        assert ix.norm_sq[1] == 2
        ix.remove_member_vector(1, {1, 2})
        assert ix.norm_sq[1] == 0
        assert _vectors(ix)[1] == {}
        ix.drop_cluster(1)
        assert 1 not in ix.norm_sq

    def test_remove_below_zero_raises(self):
        ix = InvertedIndex()
        ix.register_cluster(1)
        ix.add_member_vector(1, {5})
        with pytest.raises(InternalStateError):
            ix.remove_member_vector(1, {5, 6})

    def test_drop_nonempty_raises(self):
        ix = InvertedIndex()
        ix.register_cluster(1)
        ix.add_member_vector(1, {5})
        with pytest.raises(InternalStateError):
            ix.drop_cluster(1)

    def test_relabel_moves_everything(self):
        ix = InvertedIndex()
        ix.register_cluster(1)
        ix.add_member_vector(1, {1, 2})
        ix.relabel_cluster(1, 9, {1, 2})
        assert 1 not in ix.norm_sq
        assert ix.norm_sq[9] == 2
        assert _count(ix, 9, 1) == 1
        assert _count(ix, 1, 1) == 0

    def test_score_candidates_matches_naive(self):
        ix = InvertedIndex()
        vectors = {1: {1, 2, 3}, 2: {3, 4}, 3: {9}}
        for cid, dims in vectors.items():
            ix.register_cluster(cid)
            ix.add_member_vector(cid, dims)
        ix.add_member_vector(2, {4, 5})
        query = {3, 4, 7}
        naive: dict[int, int] = {}
        for cid in vectors:
            dot = sum(_count(ix, cid, d) for d in query)
            if dot:
                naive[cid] = dot
        assert ix.score_candidates(query) == naive
        assert ix.score_candidates({99}) == {}

    @given(st.lists(st.tuples(st.integers(1, 3), dims_sets), max_size=20))
    def test_norms_track_random_adds(self, ops):
        ix = InvertedIndex()
        added: list[tuple[int, frozenset]] = []
        for cid in (1, 2, 3):
            ix.register_cluster(cid)
        for cid, dims in ops:
            ix.add_member_vector(cid, dims)
            added.append((cid, frozenset(dims)))
        assert ix.norm_sq == _rebuild_norms(ix)
        # removing everything in reverse restores a clean slate
        for cid, dims in reversed(added):
            ix.remove_member_vector(cid, dims)
        assert all(n == 0 for n in ix.norm_sq.values())
        assert all(not counts for counts in _vectors(ix).values())

