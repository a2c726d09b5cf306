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
    return index.counts(d).get(cid, 0)


def _rebuild_norms(index: InvertedIndex, cids) -> dict[int, int]:
    """Each of clusters cids' squared norm, from its count vector as the
    postings hold it."""
    return {cid: sum(c * c for c in counts.values())
            for cid, counts in index.vectors(cids).items()}


class TestInvertedIndex:
    def test_add_remove_round_trip(self):
        ix = InvertedIndex()
        assert ix.add_member_vector(1, {1, 2}) == 2
        assert ix.add_member_vector(1, {2, 3}) == 3 + 1
        assert _count(ix, 1, 2) == 2
        assert _rebuild_norms(ix, [1]) == {1: 1 + 4 + 1}
        assert ix.remove_member_vector(1, {2, 3}) == -4
        assert _rebuild_norms(ix, [1]) == {1: 2}
        assert ix.remove_member_vector(1, {1, 2}) == -2
        assert ix.vectors([1]) == {1: {}}
        assert not ix.postings

    def test_remove_below_zero_raises(self):
        ix = InvertedIndex()
        ix.add_member_vector(1, {5})
        with pytest.raises(InternalStateError):
            ix.remove_member_vector(1, {5, 6})

    def test_relabel_moves_everything(self):
        ix = InvertedIndex()
        ix.add_member_vector(1, {1, 2})
        ix.relabel_cluster(1, 9, {1, 2})
        assert _rebuild_norms(ix, [1, 9]) == {1: 0, 9: 2}
        assert _count(ix, 9, 1) == 1
        assert _count(ix, 1, 1) == 0

    def test_score_candidates_matches_naive(self):
        ix = InvertedIndex()
        vectors = {1: {1, 2, 3}, 2: {3, 4}, 3: {9}}
        for cid, dims in vectors.items():
            ix.add_member_vector(cid, dims)
        ix.add_member_vector(2, {4, 5})
        # dimensions 1, 2, 5 and 9 hold one cluster once, 3 and 4 hold more; a
        # query may start on either form
        for query in ({3, 4, 7}, [1, 3, 5], [5, 4, 9, 1], [7, 2, 9], [4, 3]):
            naive: dict[int, int] = {}
            for cid in vectors:
                dot = sum(_count(ix, cid, d) for d in query)
                if dot:
                    naive[cid] = dot
            assert ix.score_candidates(query) == naive
        assert ix.score_candidates({99}) == {}

    @given(st.lists(st.tuples(st.integers(1, 3), dims_sets), max_size=20), dims_sets)
    def test_norms_track_random_adds(self, ops, query):
        ix = InvertedIndex()
        added: list[tuple[int, frozenset]] = []
        norms = dict.fromkeys((1, 2, 3), 0)
        for cid, dims in ops:
            norms[cid] += ix.add_member_vector(cid, dims)
            added.append((cid, frozenset(dims)))
        assert norms == _rebuild_norms(ix, norms)
        naive = {cid: dot for cid, vec in ix.vectors(norms).items()
                 if (dot := sum(vec.get(d, 0) for d in query))}
        assert ix.score_candidates(query) == naive
        # removing everything in reverse restores a clean slate
        for cid, dims in reversed(added):
            norms[cid] += ix.remove_member_vector(cid, dims)
        assert all(n == 0 for n in norms.values())
        assert all(not counts for counts in ix.vectors(norms).values())
        assert not ix.postings


class TestPostingForms:
    """A dimension's posting is stored in one form while a single cluster
    counts it once and in another after that; both read back the same."""

    def test_counts_through_adds_and_removes(self):
        ix = InvertedIndex()
        steps = [
            (ix.add_member_vector, 1, {1: 1}, {1: 1, 2: 0}),
            (ix.add_member_vector, 1, {1: 2}, {1: 4, 2: 0}),
            (ix.add_member_vector, 2, {1: 2, 2: 1}, {1: 4, 2: 1}),
            (ix.remove_member_vector, 1, {1: 1, 2: 1}, {1: 1, 2: 1}),
            (ix.remove_member_vector, 2, {1: 1}, {1: 1, 2: 0}),
            (ix.remove_member_vector, 1, {}, {1: 0, 2: 0}),
        ]
        kept = {1: 0, 2: 0}
        for update, cid, counts, norms in steps:
            kept[cid] += update(cid, [5])
            assert ix.counts(5) == counts
            # bench/tracing.py counts the clusters on a posting by its len
            assert len(ix.postings.get(5, ())) == len(counts)
            assert kept == _rebuild_norms(ix, (1, 2)) == norms
            assert ix.score_candidates([5]) == counts
            assert ix.vectors((1, 2)) == {cid: {5: counts[cid]} if cid in counts else {}
                                          for cid in (1, 2)}
        assert 5 not in ix.postings

    def test_a_second_cluster_joins_a_one_entry_posting(self):
        ix = InvertedIndex()
        for cid in (1, 2):
            assert ix.add_member_vector(cid, [5]) == 1
        assert ix.counts(5) == {1: 1, 2: 1}
        assert _rebuild_norms(ix, (1, 2)) == {1: 1, 2: 1}
        assert ix.remove_member_vector(1, [5]) == -1
        assert ix.counts(5) == {2: 1}
        assert ix.remove_member_vector(2, [5]) == -1
        assert ix.counts(5) == {}
        assert not ix.postings

    def test_relabel_moves_a_one_entry_and_a_shared_posting(self):
        ix = InvertedIndex()
        for cid, dims in ((1, [5, 6]), (2, [6])):
            ix.add_member_vector(cid, dims)
        ix.relabel_cluster(1, 9, [5, 6])
        assert ix.counts(5) == {9: 1}
        assert ix.counts(6) == {2: 1, 9: 1}
        assert _rebuild_norms(ix, (1, 2, 9)) == {1: 0, 2: 1, 9: 2}
        assert ix.score_candidates([5, 6]) == {9: 2, 2: 1}
        assert ix.remove_member_vector(9, [5, 6]) == -2
        assert ix.counts(5) == {}
        assert ix.counts(6) == {2: 1}

    def test_one_call_shares_one_tuple_across_the_postings_it_opens(self):
        ix = InvertedIndex()
        assert ix.add_member_vector(1, [5, 6, 7]) == 3
        assert ix.postings[5] is ix.postings[6] is ix.postings[7] == (1,)
        ix.relabel_cluster(1, 9, [5, 6, 7])
        assert ix.postings[5] is ix.postings[6] is ix.postings[7] == (9,)
        # each posting changes alone: the shared tuple is replaced, never edited
        assert ix.add_member_vector(9, [6]) == 3
        assert ix.remove_member_vector(9, [5]) == -1
        assert (ix.counts(5), ix.counts(6), ix.counts(7)) == ({}, {9: 2}, {9: 1})
        assert _rebuild_norms(ix, [9]) == {9: 5}

    @pytest.mark.parametrize("counted", [1, 2], ids=["one-entry", "dict"])
    def test_removing_a_vector_never_added_raises(self, counted):
        ix = InvertedIndex()
        for _ in range(counted):
            ix.add_member_vector(1, [5])
        for cid, dims in ((2, [5]), (1, [6])):
            with pytest.raises(InternalStateError, match=f"cluster {cid} has no count"):
                ix.remove_member_vector(cid, dims)
        assert ix.counts(5) == {1: counted}
        assert _rebuild_norms(ix, (1, 2)) == {1: counted * counted, 2: 0}
