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
from spamrank.clustering import FREQ_BITS, Cluster, cluster_spam_probability

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
    def _cluster(self, freq_sum: int, scored: int, members: int) -> Cluster:
        c = Cluster(1)
        c.members = tuple(range(members))
        c.freq_sum = freq_sum
        c.scored_members = scored
        return c

    def test_empty_cluster_is_an_error(self):
        with pytest.raises(InternalStateError):
            cluster_spam_probability(self._cluster(0, 0, members=0))

    def test_unscored_members_mean_maximum_uncertainty(self):
        assert cluster_spam_probability(self._cluster(0, 0, members=3)) == 0.5

    def test_mean_over_scored_members_only(self):
        # two scored members at 1.0 and 0.5; a third unobserved one is ignored
        one = 1 << FREQ_BITS
        assert cluster_spam_probability(self._cluster(one + one // 2, 2, members=3)) == 0.75

    def test_full_and_empty_sums_are_exactly_one_and_zero(self):
        # the bounds are reached exactly and there is no clamp to hide drift
        for n in (1, 2, 3, 7, 1000):
            assert cluster_spam_probability(self._cluster(n << FREQ_BITS, n, members=n)) == 1.0
            assert cluster_spam_probability(self._cluster(0, n, members=n)) == 0.0

    @given(st.lists(st.integers(0, 50).flatmap(
        lambda total: st.tuples(st.integers(0, total), st.just(total))), min_size=1))
    def test_mean_of_fixed_point_frequencies(self, counts):
        # each member's frequency is floored to FREQ_BITS fraction bits and
        # the mean is one correctly rounded division of the exact sum
        scored = [(spam, total) for spam, total in counts if total]
        freqs = [(spam << FREQ_BITS) // total for spam, total in scored]
        p = cluster_spam_probability(self._cluster(sum(freqs), len(scored), len(counts)))
        if not scored:
            assert p == 0.5
            return
        assert p == float(Fraction(sum(freqs), len(scored) << FREQ_BITS))
        exact = sum(Fraction(spam, total) for spam, total in scored) / len(scored)
        assert 0.0 <= p <= 1.0 and abs(Fraction(p) - exact) <= Fraction(1, 1 << 52)
