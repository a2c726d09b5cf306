from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spamrank import (
    DEFERRED,
    HAM,
    LEGIT,
    SPAM,
    DomainError,
    InternalStateError,
    decide,
    effective_label,
    spam_rank,
)
from spamrank.clustering import Cluster
from spamrank.scoring import cluster_spam_probability

unit = st.floats(min_value=0.0, max_value=1.0)


class TestSpamRank:
    def test_midpoint_of_the_two_probabilities(self):
        assert spam_rank(0.0, 0.0) == 0.0
        assert spam_rank(1.0, 1.0) == 1.0
        assert spam_rank(1.0, 0.5) == 0.75
        assert spam_rank(0.5, 1.0) == 0.75

    def test_rejects_values_outside_unit_interval(self):
        for ps, pr in ((-0.1, 0.5), (0.5, -0.1), (1.1, 0.5), (0.5, 1.1)):
            with pytest.raises(DomainError):
                spam_rank(ps, pr)

    @given(unit, unit)
    def test_symmetric_and_bounded(self, ps, pr):
        sr = spam_rank(ps, pr)
        assert sr == spam_rank(pr, ps)
        assert 0.0 <= sr <= 1.0


class TestDecide:
    def test_bands(self):
        assert decide(0.9, 0.85) == SPAM
        assert decide(0.1, 0.85) == LEGIT
        assert decide(0.5, 0.85) == DEFERRED

    def test_band_edges_defer(self):
        # both comparisons are strict, so the edges defer
        assert decide(0.75, 0.75) == DEFERRED
        assert decide(0.25, 0.75) == DEFERRED

    def test_edges_are_the_stored_doubles(self):
        # the double nearest 0.85 is below 0.85, so 1 - omega (computed
        # exactly) is above 0.15: a rank of 0.15 is legit, not deferred
        assert 1.0 - 0.85 == 0.15000000000000002
        assert decide(0.15, 0.85) == LEGIT
        assert decide(1.0 - 0.85, 0.85) == DEFERRED
        assert decide(0.85, 0.85) == DEFERRED

    @given(st.floats(min_value=0.5, max_value=1.0))
    def test_lower_edge_is_exact(self, omega):
        # Sterbenz: omega in [0.5, 1] makes 1.0 - omega exact
        lower = 1.0 - omega
        assert Fraction(lower) == 1 - Fraction(omega)
        assert decide(lower, omega) == DEFERRED

    def test_omega_one_defers_everything(self):
        for sr in (0.0, 0.3, 0.5, 1.0):
            assert decide(sr, 1.0) == DEFERRED

    @given(unit, st.floats(min_value=0.5, max_value=1.0))
    def test_exactly_one_band(self, sr, omega):
        d = decide(sr, omega)
        assert d in (SPAM, LEGIT, DEFERRED)
        if d == SPAM:
            assert sr > omega
        elif d == LEGIT:
            assert sr < 1.0 - omega


class TestEffectiveLabel:
    def test_own_decisions_win(self):
        assert effective_label(SPAM, HAM) == SPAM
        assert effective_label(LEGIT, SPAM) == HAM

    def test_deferred_falls_back_to_aux(self):
        assert effective_label(DEFERRED, SPAM) == SPAM
        assert effective_label(DEFERRED, HAM) == HAM


class TestClusterSpamProbability:
    def _cluster(self, freq_sum: float, scored: int, members: int) -> Cluster:
        c = Cluster(1)
        c.members.extend(range(members))
        c.freq_sum = freq_sum
        c.scored_members = scored
        return c

    def test_empty_cluster_is_an_error(self):
        with pytest.raises(InternalStateError):
            cluster_spam_probability(self._cluster(0.0, 0, members=0))

    def test_unscored_members_mean_maximum_uncertainty(self):
        assert cluster_spam_probability(self._cluster(0.0, 0, members=3)) == 0.5

    def test_mean_over_scored_members_only(self):
        # two scored members at 1.0 and 0.5; a third unobserved one is ignored
        assert cluster_spam_probability(self._cluster(1.5, 2, members=3)) == 0.75

    def test_float_drift_is_clamped(self):
        assert cluster_spam_probability(self._cluster(2.0000000001, 2, members=2)) == 1.0
        assert cluster_spam_probability(self._cluster(-1e-12, 1, members=1)) == 0.0
