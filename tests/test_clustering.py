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


def make_space(tau: float = 0.5) -> ClusterSpace:
    return ClusterSpace("test", tau)


def seed_user(space: ClusterSpace, uid: int, dims) -> int:
    space.register_user(uid)
    space.add_dims(uid, dims)
    return space.assign_user(uid)


class TestAssignment:
    def test_first_user_seeds_cluster_one(self):
        space = make_space()
        assert seed_user(space, 0, {1, 2}) == 1
        assert space.cluster_of(0).members == {0}

    def test_identical_vector_joins(self):
        space = make_space()
        seed_user(space, 0, {1, 2})
        assert seed_user(space, 1, {1, 2}) == 1
        assert space.cluster_of(1).members == {0, 1}

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

    def test_unknown_user_raises(self):
        space = make_space()
        with pytest.raises(UnknownUserError):
            space.assign_user(7)

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
        assert space.cluster_of(0).cid == 3

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
        assert space.cluster_of(3).cid == 4

    def test_move_empties_and_destroys_old_cluster(self):
        space = make_space(tau=0.3)
        seed_user(space, 0, {1, 2})
        seed_user(space, 1, {5})  # its own cluster 2
        space.add_dims(1, {1, 2})
        assert space.assign_user(1) == 1
        assert 2 not in space.clusters
        assert space.cluster_of(1).members == {0, 1}

    def test_detach_unknown_membership_raises(self):
        space = make_space()
        seed_user(space, 0, {1})
        other = seed_user(space, 1, {2})  # disjoint, lands in its own cluster
        with pytest.raises(NotAMemberError):
            space._detach(0, other)


class TestScoringHooks:
    def test_observation_cache_follows_members(self):
        space = make_space()
        seed_user(space, 0, {1, 2})
        space.record_observation(0, True)
        space.record_observation(0, False)
        cluster = space.cluster_of(0)
        assert cluster.freq_sum == pytest.approx(0.5)
        assert cluster.scored_members == 1
        # a second user carries its history into the cluster on join
        space.register_user(1)
        space.add_dims(1, {1, 2})
        space.record_observation(1, True)
        space.assign_user(1)
        assert cluster.scored_members == 2
        assert cluster.freq_sum == pytest.approx(1.5)
        space.check_integrity()

    def test_census_counts_singletons(self):
        space = make_space()
        seed_user(space, 0, {1, 2})
        seed_user(space, 1, {1, 2})
        seed_user(space, 2, {9})
        report = space.census()
        assert report.num_clusters == 2
        assert report.num_singletons == 1
        assert report.size_histogram == {1: 1, 2: 1}


events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
        st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(events)
    def test_partition_and_integrity_under_random_streams(self, ops):
        space = make_space()
        for uid, dims, is_spam in ops:
            space.register_user(uid)
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

    @pytest.mark.parametrize("corrupt", [
        lambda s: s.index.postings.setdefault(99, {}).__setitem__(1, 1),
        lambda s: setattr(s.clusters[1], "freq_sum", float("nan")),
        lambda s: s.user_cluster.__setitem__(7, 1),
    ], ids=["stray-posting", "nan-freq-sum", "clustered-non-member"])
    def test_integrity_rejects_corruption(self, corrupt):
        space = make_space()
        for uid, dims in ((1, {1, 2}), (2, {1, 2}), (3, {5})):
            seed_user(space, uid, dims)
            space.record_observation(uid, True)
        space.check_integrity()
        corrupt(space)
        with pytest.raises(InternalStateError):
            space.check_integrity()

    @settings(max_examples=30, deadline=None)
    @given(events, st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_integrity_across_tau_extremes(self, ops, tau):
        space = make_space(tau)
        for uid, dims, _ in ops:
            space.register_user(uid)
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
                report = engine.sender_side.census()
                fractions.append(report.num_singletons / report.num_clusters)
        early, late = fractions
        assert late < early
        engine.check_integrity()
