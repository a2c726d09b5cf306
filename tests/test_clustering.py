import pytest
from hypothesis import given, settings, strategies as st

from spamrank import (
    ClusterSpace,
    InternalStateError,
    NotAMemberError,
    SpamRankEngine,
    UnknownUserError,
    WorkloadSpec,
    generate,
)
from spamrank.scoring import FREQ_BITS, cluster_spam_probability


def make_space(tau: float = 0.5) -> ClusterSpace:
    return ClusterSpace("test", tau)


def seed_user(space: ClusterSpace, uid: int, dims) -> int:
    space.add_dims(uid, dims)
    return space.assign_user(uid)


def cluster_of(space: ClusterSpace, uid: int):
    return space.clusters[space.user_cluster[uid]]


def norms(space: ClusterSpace) -> dict[int, int]:
    return {cid: cluster.norm_sq for cid, cluster in space.clusters.items()}


def assert_sums_recomputed(space: ClusterSpace) -> None:
    """Every cluster's frequency sum and scored count equal the ones
    recomputed from its members, and the space passes its integrity check."""
    for cluster in space.clusters.values():
        scored = [u for u in cluster.members if space.total[u]]
        expect = sum((space.spam[u] << FREQ_BITS) // space.total[u] for u in scored)
        assert (cluster.freq_sum, cluster.scored_members) == (expect, len(scored))
    space.check_integrity()


class TestAssignment:
    def test_first_user_seeds_cluster_one(self):
        space = make_space()
        assert seed_user(space, 0, {1, 2}) == 1
        assert sorted(cluster_of(space, 0).members) == [0]

    def test_identical_vector_joins(self):
        space = make_space()
        seed_user(space, 0, {1, 2})
        assert seed_user(space, 1, {1, 2}) == 1
        assert sorted(cluster_of(space, 1).members) == [0, 1]

    def test_disjoint_vector_stays_apart(self):
        space = make_space()
        seed_user(space, 0, {1, 2})
        assert seed_user(space, 1, {3, 4}) == 2

    def test_threshold_is_strict(self):
        # similarity lands exactly on tau: 1 / sqrt(4 * 1) = 0.5
        space = make_space(tau=0.5)
        seed_user(space, 0, {1, 2, 3, 4})
        assert seed_user(space, 1, {1}) == 2

    def test_just_above_threshold_joins(self):
        # 1 / sqrt(3 * 1) ~ 0.577
        space = make_space(tau=0.5)
        seed_user(space, 0, {1, 2, 3})
        assert seed_user(space, 1, {1}) == 1

    def test_tie_breaks_to_lowest_cluster_id(self):
        space = make_space(tau=0.4)
        seed_user(space, 0, {1, 2})
        seed_user(space, 1, {3, 4})
        # equally similar to both (0.5 each); must pick cluster 1
        assert seed_user(space, 2, {1, 3}) == 1

    @pytest.mark.parametrize("own_first", [True, False], ids=["own-id-lower", "own-id-higher"])
    def test_an_exact_tie_with_the_current_cluster_goes_to_the_lower_id(self, own_first):
        # user 2 is {1, 3}, its cluster-mate {1, 2} and the other cluster
        # {3, 4}: both cosines are exactly 1 / sqrt(2 * 2) = 0.5
        space = make_space(tau=0.4)
        first, second = ({1, 2}, {3, 4}) if own_first else ({3, 4}, {1, 2})
        seed_user(space, 0, first)
        seed_user(space, 1, second)
        # {1} alone joins its mate {1, 2} (cosine 0.707), then grows to {1, 3}
        assert seed_user(space, 2, [1]) == (1 if own_first else 2)
        space.add_dims(2, [3])
        assert space.assign_user(2) == 1
        assert space.user_cluster[2] == 1
        space.check_integrity()

    def test_a_user_with_an_empty_vector_reseeds_under_a_fresh_id(self):
        space = make_space()
        space.add_dims(0, ())
        assert space.assign_user(0) == 1
        assert space.assign_user(0) == 2
        assert set(space.clusters) == {2}
        assert cluster_of(space, 0).members == (0,)
        space.check_integrity()

    def test_unknown_user_raises(self):
        space = make_space()
        with pytest.raises(UnknownUserError):
            space.assign_user(7)

    def test_register_user_takes_only_the_next_id(self):
        # add_dims registers the next id; a gap or a negative id is refused
        space = make_space()
        space.add_dims(0, ())
        space.add_dims(0, ())  # already registered: nothing to do
        for gap in (2, -1):
            with pytest.raises(UnknownUserError):
                space.add_dims(gap, [5])
        assert space.user_dims == [()]
        space.add_dims(1, [4, 3, 4])
        assert space.user_dims == [(), (4, 3)]
        assert space.spam == space.total == [0, 0]
        with pytest.raises(UnknownUserError):
            space.assign_user(-1)

    def test_a_first_one_id_tuple_is_shared(self):
        space = make_space()
        one = (7,)
        space.add_dims(0, one)
        space.add_dims(1, one)
        assert space.user_dims[0] is one and space.user_dims[1] is one
        seed_user(space, 2, [8, 9])
        space.add_dims(0, [8])  # growth builds a new vector; the shared one stays
        assert space.user_dims[0] == (7, 8)
        assert space.user_dims[1] is one and one == (7,)

    def test_negative_uid_is_refused_before_any_change(self):
        # a negative list index would reach the last user and corrupt it;
        # an id past the next one has no vector to grow, and one past the
        # last user no counters; add_dims registers the next id, which has
        # no cluster until it is assigned
        space = make_space()
        seed_user(space, 0, [1])
        for uid in (-1, 2):
            with pytest.raises(UnknownUserError):
                space.add_dims(uid, [5])
        for uid in (-1, 1):
            with pytest.raises(UnknownUserError):
                space.record_observation(uid, True)
        assert space.user_dims == [(1,)]
        assert space.spam == space.total == [0]
        assert norms(space) == {1: 1}
        space.check_integrity()
        space.add_dims(1, [5])
        assert space.record_observation(1, True) is None
        assert space.user_cluster == {0: 1}
        assert norms(space) == {1: 1}
        space.check_integrity()

    def test_assign_is_idempotent_when_nothing_changed(self):
        space = make_space()
        seed_user(space, 0, {1, 2})
        seed_user(space, 1, {1, 2})
        assert space.assign_user(1) == 1
        assert space.assign_user(0) == 1


class TestReseedAndMoves:
    def test_lonely_reseed_gets_fresh_id(self):
        space = make_space(tau=0.99)
        assert seed_user(space, 0, {1}) == 1
        # nothing to join, still alone: the id is retired and reissued
        assert space.assign_user(0) == 2
        assert space.assign_user(0) == 3
        assert set(space.clusters) == {3}
        assert cluster_of(space, 0).cid == 3
        assert cluster_of(space, 0).norm_sq == 1

    def test_ids_never_reused_after_moves(self):
        space = make_space()
        seed_user(space, 0, {1, 2})
        seed_user(space, 1, {1, 2})
        seed_user(space, 2, {5, 6})  # cluster 2
        # user 1 grows apart and leaves; the emptied id must not return
        space.add_dims(1, {7, 8, 9, 10, 11, 12})
        cid = space.assign_user(1)
        assert cid == 3
        seed_user(space, 3, {20})
        assert cluster_of(space, 3).cid == 4

    def test_move_empties_and_destroys_old_cluster(self):
        space = make_space(tau=0.3)
        seed_user(space, 0, {1, 2})
        seed_user(space, 1, {5})  # its own cluster 2
        space.add_dims(1, {1, 2})
        assert space.assign_user(1) == 1
        assert 2 not in space.clusters
        assert sorted(cluster_of(space, 1).members) == [0, 1]

    def test_an_id_repeated_in_one_call_is_added_once(self):
        space = make_space()
        seed_user(space, 0, [1, 2])
        space.add_dims(0, [5, 7, 5, 2])
        assert space.index.counts(5) == {1: 1}
        assert space.clusters[1].norm_sq == 4
        assert space.user_dims[0] == (1, 2, 5, 7)
        space.check_integrity()

    def test_detach_unknown_membership_raises(self):
        space = make_space()
        seed_user(space, 0, {1})
        other = seed_user(space, 1, {2})  # disjoint, lands in its own cluster
        with pytest.raises(NotAMemberError):
            space._detach(0, other)

    def test_drop_nonempty_raises(self):
        # a stray count, norm included, that no member holds outlives the
        # sole member's vector
        space = make_space()
        seed_user(space, 0, {1})
        space.clusters[1].norm_sq += space.index.add_member_vector(1, [9])
        with pytest.raises(InternalStateError, match="dropping cluster 1 with nonzero vector"):
            space._detach(0, 1)

    @pytest.mark.parametrize("history", [[], [False, False], [True, True, True], [True, False, False]],
                             ids=["unscored", "all-ham", "all-spam", "mixed"])
    def test_a_move_keeps_the_exact_sums_for_every_history(self, history):
        # a move adds 0 for an all-ham history and exactly 1 << FREQ_BITS for
        # an all-spam one; only a mixed history takes the division
        space = make_space(tau=0.3)
        seed_user(space, 0, {1, 2})
        seed_user(space, 1, {5, 6, 7})
        for uid, is_spam in ((0, True), (0, False), (1, True)):
            space.record_observation(uid, is_spam)
        assert seed_user(space, 2, {1, 2}) == 1
        for is_spam in history:
            space.record_observation(2, is_spam)
        assert_sums_recomputed(space)
        # out of cluster 1 and into cluster 2 through assign_user ...
        space.add_dims(2, {5, 6, 7})
        assert space.assign_user(2) == 2
        assert_sums_recomputed(space)
        # ... and back through the detach and attach steps
        space._detach(2, 2)
        assert_sums_recomputed(space)
        space._attach_into(2, space.clusters[1])
        assert_sums_recomputed(space)
        assert space.clusters[1].members == (0, 2)

    def test_restore_creates_each_named_cluster_once(self):
        space = make_space()
        space.restore([(1, 2), (3,), (1,)], [1, 0, 2], [2, 1, 2], [5, 9, 5])
        nine = space.clusters[9]
        # a second call extends cluster 9 and adds cluster 7
        space.restore([(3, 4), (6,)], [0, 1], [1, 1], [9, 7])
        assert space.clusters[9] is nine
        assert list(space.clusters) == [5, 9, 7]
        assert [space.clusters[cid].members for cid in (5, 9, 7)] == [(0, 2), (1, 3), (4,)]
        assert norms(space) == {5: 5, 9: 5, 7: 1}
        assert_sums_recomputed(space)


class TestScoringHooks:
    def test_observation_cache_follows_members(self):
        space = make_space()
        seed_user(space, 0, {1, 2})
        space.record_observation(0, True)
        space.record_observation(0, False)
        cluster = cluster_of(space, 0)
        assert cluster.freq_sum == 1 << (FREQ_BITS - 1)  # 1/2 in fixed point
        assert cluster.scored_members == 1
        # a second user carries its history into the cluster on join
        space.add_dims(1, {1, 2})
        space.record_observation(1, True)
        space.assign_user(1)
        assert cluster.scored_members == 2
        assert cluster.freq_sum == (1 << FREQ_BITS) + (1 << (FREQ_BITS - 1))
        assert (space.spam, space.total) == ([1, 1], [2, 1])
        assert space.record_observation(1, False) is cluster
        space.check_integrity()

    def test_update_order_does_not_change_the_sum(self):
        # as floats, these orders sum the same frequencies to different bits
        history = {
            0: [True, False, False],
            1: [True, True, False, True, False, False, False],
            2: [False, True, True, False, False, True, False, False, True, False],
        }
        # joined first, then observed in turn, one label at a time
        inside = make_space()
        for uid in history:
            seed_user(inside, uid, {1, 2})
        for step in range(max(map(len, history.values()))):
            for uid, labels in history.items():
                if step < len(labels):
                    inside.record_observation(uid, labels[step])
        # observed first, so each frequency arrives whole on attach
        joining = make_space()
        for uid, labels in history.items():
            joining.add_dims(uid, {1, 2})
            for is_spam in labels:
                joining.record_observation(uid, is_spam)
            joining.assign_user(uid)
        a, b = cluster_of(inside, 0), cluster_of(joining, 0)
        assert sorted(a.members) == sorted(b.members) == [0, 1, 2]
        assert type(a.freq_sum) is int and a.freq_sum == b.freq_sum
        assert cluster_spam_probability(a) == cluster_spam_probability(b)
        inside.check_integrity()
        joining.check_integrity()

    def test_every_observation_transition_keeps_the_exact_sum(self):
        # a first observation, one that keeps a pure history pure, one that
        # makes it mixed, and one inside a mixed history each update the
        # sum, exactly as recomputing every member's frequency would
        space = make_space()
        seed_user(space, 0, {1, 2})
        assert seed_user(space, 1, {1, 2}) == 1
        cluster = cluster_of(space, 0)
        steps = [
            ("first ham", 0, False), ("first spam", 1, True), ("ham to ham", 0, False),
            ("spam to spam", 1, True), ("all-spam to ham", 1, False),
            ("all-ham to spam", 0, True), ("mixed to mixed", 0, False),
        ]
        for step, uid, is_spam in steps:
            assert space.record_observation(uid, is_spam) is cluster, step
            scored = [u for u in (0, 1) if space.total[u]]
            expect = sum((space.spam[u] << FREQ_BITS) // space.total[u] for u in scored)
            assert (cluster.freq_sum, cluster.scored_members) == (expect, len(scored)), step
            # the probability is the one division, or the 0.0 it would give
            assert cluster_spam_probability(cluster) == expect / (len(scored) << FREQ_BITS), step
            space.check_integrity()
        assert (space.spam, space.total) == ([1, 2], [4, 3])

    def test_census_counts_singletons(self):
        space = make_space()
        seed_user(space, 0, {1, 2})
        seed_user(space, 1, {1, 2})
        seed_user(space, 2, {9})
        assert space.census() == {1: 1, 2: 1}


events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
        st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


def dense_ids(ops):
    """The drawn uids renumbered 0, 1, 2, ... in first-seen order, as the
    engine's Interner numbers users."""
    ids: dict[int, int] = {}
    return [(ids.setdefault(uid, len(ids)), *rest) for uid, *rest in ops]


def _stray_count(space: ClusterSpace, cid: int, d: int) -> None:
    """Count cluster cid once more on dimension d, which none of its members
    holds, and leave its squared norm as it was."""
    space.index.add_member_vector(cid, [d])


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(events)
    def test_partition_and_integrity_under_random_streams(self, ops):
        space = make_space()
        for uid, dims, is_spam in dense_ids(ops):
            space.add_dims(uid, dims)
            space.assign_user(uid)
            space.record_observation(uid, is_spam)
        # every assigned user sits in exactly one cluster
        seen: set[int] = set()
        for cid, cluster in space.clusters.items():
            assert cluster.members, "empty cluster survived"
            assert cluster.cid == cid
            for uid in cluster.members:
                assert uid not in seen
                assert space.user_cluster[uid] == cid
                seen.add(uid)
        assert seen == set(space.user_cluster)
        space.check_integrity()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda s: _stray_count(s, 1, 99), "cluster 1 count vector diverged"),
        (lambda s: _stray_count(s, 2, 1), "cluster 2 count vector diverged"),
        (lambda s: s.index.add_member_vector(99, [77]), "posting for dead cluster 99"),
        (lambda s: s.index.add_member_vector(99, [1]), "posting for dead cluster 99"),
        (lambda s: setattr(s.clusters[1], "freq_sum", s.clusters[1].freq_sum - 1),
         "cluster 1 stats cache diverged"),
        (lambda s: s.user_cluster.__setitem__(7, 1), "clustered users do not partition"),
        # the norm left behind under a retired id: cluster 2's record holds none
        (lambda s: setattr(s.clusters[2], "norm_sq", 0), "cluster 2 norm diverged"),
    ], ids=["stray-posting", "stray-count-in-shared-posting", "one-entry-posting-for-dead-cluster",
            "shared-posting-for-dead-cluster", "freq-sum-off-by-one", "clustered-non-member",
            "norm-under-a-dead-cluster-id"])
    def test_integrity_rejects_corruption(self, corrupt, message):
        # clusters 1 (users 0 and 1, dimension 1 counted twice) and 2 (user
        # 2); dimensions 99 and 77 hold no posting before the corruption
        space = make_space()
        for uid, dims in ((0, {1, 2}), (1, {1, 2}), (2, {5})):
            seed_user(space, uid, dims)
            space.record_observation(uid, True)
        space.check_integrity()
        corrupt(space)
        with pytest.raises(InternalStateError, match=message):
            space.check_integrity()

    @settings(max_examples=30, deadline=None)
    @given(events, st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_integrity_across_tau_extremes(self, ops, tau):
        space = make_space(tau)
        for uid, dims, _ in dense_ids(ops):
            space.add_dims(uid, dims)
            space.assign_user(uid)
        if tau == 1.0:
            # strict threshold: similarity never exceeds 1, all singletons
            assert all(len(c.members) == 1 for c in space.clusters.values())
        space.check_integrity()


class TestSingletonDecay:
    # a recurring-user corpus: fixed sender population, no churn
    RECURRING = WorkloadSpec(
        seed=11,
        n_messages=3500,
        n_legit_senders=36,
        n_spam_senders=24,
        n_recipients=200,
        n_communities=8,
        community_size_mean=30.0,
        n_distribution_lists=5,
        list_size_mean=30.0,
        legit_recipients_mean=2.0,
        spam_recipients_mean=10.0,
        sender_churn_rate=0.0,
    )

    def test_sender_singletons_dissolve_as_structure_accumulates(self):
        records = generate(self.RECURRING)
        engine = SpamRankEngine()
        fractions = []
        for i, record in enumerate(records, start=1):
            engine.process(record)
            if i in (700, len(records)):
                hist = engine.sender_side.census()
                fractions.append(hist.get(1, 0) / sum(hist.values()))
        early, late = fractions
        assert late < early
        engine.check_integrity()
