"""End-to-end behavioral gate.

Eleven independently checkable guarantees, one test each. Every test
finishes by printing a single `[acceptance] criterion NN PASS` line with
the measured numbers, so a verbose run reads as a checklist. Tolerances
are pinned inline; the exact-equality assertions lean on the integer
arithmetic documented in the vectorspace and clustering modules.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import chain, repeat
from math import sqrt
from operator import mul

import pytest

from spamrank import (
    DEFERRED,
    EngineConfig,
    NotComputableError,
    SpamRankEngine,
    WorkloadSpec,
    beta_cv,
    bin_heatmap,
    generate,
    noise_correction_experiment,
    omega_sweep,
    spam_rank,
    tau_sweep,
)
from spamrank.snapshot import engine_state, load_snapshot, save_snapshot
from golden_trace import GOLDEN_EXPECTED
from oracles import (
    ReferenceModel,
    naive_beta_cv,
    partition_by_name,
    projected_rank,
    random_corpus,
)

# large corpus for the throughput bound: spam-heavy traffic with tight
# recipient lists, the regime the index is built for
THROUGHPUT_SPEC = WorkloadSpec(
    seed=7,
    n_messages=100_000,
    n_legit_senders=4000,
    n_spam_senders=3000,
    n_recipients=48_000,
    n_communities=800,
    community_size_mean=10.0,
    n_distribution_lists=150,
    list_size_mean=14.0,
    spam_fraction=0.8,
    legit_recipients_mean=1.1,
    spam_recipients_mean=2.2,
    sender_churn_rate=0.02,
)


def _replay(records, cfg=None):
    engine = SpamRankEngine(cfg or EngineConfig())
    return engine, [engine.process(r) for r in records]


def test_criterion_01_golden_trace(golden_records):
    """Frozen ten-message trace: decisions exact, probabilities to 1e-9."""
    engine = SpamRankEngine(EngineConfig())
    start = time.perf_counter()
    verdicts = [engine.process(r) for r in golden_records]
    elapsed = time.perf_counter() - start
    assert len(verdicts) == len(GOLDEN_EXPECTED) == 10
    for v, (msg_id, p_s, p_r, sr, decision, effective) in zip(verdicts, GOLDEN_EXPECTED):
        assert v.msg_id == msg_id
        assert v.p_s == pytest.approx(p_s, abs=1e-9)
        assert v.p_r == pytest.approx(p_r, abs=1e-9)
        assert v.spam_rank == pytest.approx(sr, abs=1e-9)
        assert v.decision == decision
        assert v.effective_label == effective
    assert elapsed < 1.0
    print(f"[acceptance] criterion 01 PASS: 10/10 verdicts match the frozen "
          f"trace (probs within 1e-9), replay took {elapsed * 1000:.1f} ms")


def test_criterion_02_rank_is_the_diagonal_projection():
    """spam_rank == scalar projection onto the unit square's diagonal."""
    rng = random.Random(20260816)
    worst = 0.0
    for _ in range(10_000):
        a, b = rng.random(), rng.random()
        worst = max(worst, abs(spam_rank(a, b) - projected_rank(a, b)))
    assert worst <= 1e-12
    # on dyadic inputs the midpoint form is exact, no tolerance at all
    for i in range(65):
        for j in range(65):
            a, b = i / 64, j / 64
            assert spam_rank(a, b) == (a + b) / 2
    print(f"[acceptance] criterion 02 PASS: 10000 random pairs within 1e-12 "
          f"of the projection (worst {worst:.3e}), 65x65 dyadic grid exact")


def test_criterion_03_clustering_matches_the_reference_model():
    """Engine assignments and probabilities equal the brute-force reference
    model's, by user name, every step."""
    corpora = 0
    messages = 0
    worst = 0.0
    for seed in range(100):
        records, tau = random_corpus(seed)
        engine = SpamRankEngine(EngineConfig(tau=tau))
        reference = ReferenceModel(tau)
        for record in records:
            verdict = engine.process(record)
            p_s, p_r = reference.step(record)
            for space, interner, side in (
                (engine.sender_side, engine.senders, reference.senders),
                (engine.recipient_side, engine.recipients, reference.recipients),
            ):
                cluster_of, rosters, next_cid = partition_by_name(space, interner)
                assert cluster_of == side.cluster_of
                assert rosters == {cid: sorted(m) for cid, m in side.members.items()}
                assert next_cid == side.next_cid
            gap = max(abs(verdict.p_s - p_s), abs(verdict.p_r - p_r))
            assert gap <= 1e-12
            worst = max(worst, gap)
            messages += 1
        corpora += 1
    print(f"[acceptance] criterion 03 PASS: {corpora} random corpora, "
          f"{messages} messages, every assignment identical to the reference "
          f"model on both sides, probabilities within 1e-12 (worst {worst:.3e})")


class _AssignAuditor:
    """Stands in for one ClusterSpace's assign_user and audits its calls.

    For every `stride`-th call it works out the outcome before the engine
    does, from first principles: each candidate cluster's sum is rebuilt
    from its member roster and the members' vectors, leaving the user out
    of its own cluster, and the rule is applied as documented (the largest
    cosine strictly above tau wins, ties go to the lowest id, otherwise
    the user is seeded under the next fresh id). The candidates come from
    the other side's vectors, the transpose of this side's, so neither
    the inverted index nor its cached norms are read. Exact equality is
    required: the engine's closed form works on the same integers.
    """

    def __init__(self, space, other, stride: int):
        self.space = space
        self.other = other
        self.stride = stride
        self._assign = space.assign_user
        space.assign_user = self  # an instance attribute shadows the method
        self.calls = 0
        self.audited = 0
        self.with_cluster = 0
        self.mismatches = 0
        self.divergent = 0

    def _sum(self, cid: int, leave_out: int) -> Counter:
        user_dims = self.space.user_dims
        return Counter(chain.from_iterable(
            user_dims[m] for m in self.space.clusters[cid].members if m != leave_out))

    @staticmethod
    def _cosine(dims, total: Counter) -> float:
        dot = sum(map(total.get, dims, repeat(0)))
        if dot <= 0:
            return 0.0
        counts = total.values()
        return dot / sqrt(sum(map(mul, counts, counts)) * len(dims))

    def _outcome(self, sims: dict[int, float]) -> int:
        best = min(sims, key=lambda cid: (-sims[cid], cid), default=None)
        if best is not None and sims[best] > self.space.tau:
            return best
        return self.space._next_cid

    def __call__(self, uid: int) -> int:
        self.calls += 1
        if self.calls % self.stride:
            return self._assign(uid)
        user_cluster = self.space.user_cluster
        dims = self.space.user_dims[uid]
        old = user_cluster.get(uid)
        candidates = {user_cluster[v] for d in dims for v in self.other.user_dims[d]
                      if v in user_cluster}
        sums = {cid: self._sum(cid, uid) for cid in candidates}
        sims = {cid: self._cosine(dims, total) for cid, total in sums.items()}
        expect = self._outcome(sims)
        if old is not None:
            self.with_cluster += 1
            # the same choice with the user still counted in its own sum
            biased = sums.get(old, Counter()) + Counter(dims)
            if self._outcome({**sims, old: self._cosine(dims, biased)}) != expect:
                self.divergent += 1
        got = self._assign(uid)
        self.audited += 1
        if got != expect or user_cluster[uid] != expect:
            self.mismatches += 1
        return got


def test_criterion_04_self_removal_is_never_skipped(default_records):
    """A user is never scored against a sum still holding its own vector."""
    engine = SpamRankEngine(EngineConfig())
    audits = (_AssignAuditor(engine.sender_side, engine.recipient_side, stride=16),
              _AssignAuditor(engine.recipient_side, engine.sender_side, stride=16))
    for record in default_records:
        engine.process(record)
    engine.check_integrity()
    audited = sum(a.audited for a in audits)
    with_cluster = sum(a.with_cluster for a in audits)
    divergent = sum(a.divergent for a in audits)
    assert [a.mismatches for a in audits] == [0, 0]
    assert with_cluster > 1000
    assert divergent > 0  # the self-removal visibly changes real outcomes
    print(f"[acceptance] criterion 04 PASS: {audited} of "
          f"{sum(a.calls for a in audits)} assignments audited against cluster "
          f"sums rebuilt from the rosters, 0 mismatches; in {with_cluster} the "
          f"user's own cluster was rebuilt without it, and {divergent} would "
          f"have ended differently had the user been left in")


def test_criterion_05_omega_one_reproduces_the_auxiliary(default_records):
    """At omega = 1.0 nothing is classified and effective == aux, exactly."""
    engine, verdicts = _replay(default_records, EngineConfig(omega=1.0))
    n = len(verdicts)
    deferred = sum(1 for v in verdicts if v.decision == DEFERRED)
    matched = sum(1 for v in verdicts if v.effective_label == v.aux_label)
    assert deferred == n
    assert matched == n
    row = omega_sweep(default_records, [1.0], EngineConfig())[0]
    assert row.classified_count == 0
    assert row.accordance_pct == 100.0
    print(f"[acceptance] criterion 05 PASS: omega=1.0 defers all {n} "
          f"messages and reproduces the auxiliary label {matched}/{n}; "
          f"sweep row agrees (classified=0)")


def test_criterion_06_omega_sweep_is_monotone(default_records):
    """Raising omega never hurts accordance, never classifies more."""
    grid = [round(0.5 + k * 0.05, 10) for k in range(11)]
    start = time.perf_counter()
    rows = omega_sweep(default_records, grid, EngineConfig())
    elapsed = time.perf_counter() - start
    acc = [row.accordance_pct for row in rows]
    cls = [row.classified_count for row in rows]
    assert all(a <= b + 1e-12 for a, b in zip(acc, acc[1:]))
    assert all(a >= b for a, b in zip(cls, cls[1:]))
    assert elapsed < 30.0
    print(f"[acceptance] criterion 06 PASS: accordance {acc[0]:.2f} -> "
          f"{acc[-1]:.2f} non-decreasing, classified {cls[0]} -> {cls[-1]} "
          f"non-increasing over 11 omega points in {elapsed:.2f} s")


def _corner_mean(grid, corner: tuple[float, float]) -> tuple[float, int]:
    """Mean spam fraction over the three cells nearest a corner.

    Nearest by cell-center distance, ties broken by index so the pick is
    deterministic. Empty cells have no spam fraction (NA, as in the report
    files) and drop out of the mean.
    """
    cells = sorted(
        (
            (corner[0] - (i + 0.5) * grid.bin_size) ** 2
            + (corner[1] - (j + 0.5) * grid.bin_size) ** 2,
            i,
            j,
        )
        for i in range(grid.n)
        for j in range(grid.n)
    )[:3]
    fractions = [
        f for _, i, j in cells if (f := grid.spam_fraction(i, j)) is not None
    ]
    assert fractions, f"no messages in the three cells nearest {corner}"
    return sum(fractions) / len(fractions), len(fractions)


def test_criterion_07_probability_corners_separate(default_records):
    """(Ps, Pr) near (1,1) is spam-dominated, near (0,0) it is not."""
    _, verdicts = _replay(default_records)
    grid = bin_heatmap(verdicts, 0.25)
    hot_mean, hot_n = _corner_mean(grid, (1.0, 1.0))
    cold_mean, cold_n = _corner_mean(grid, (0.0, 0.0))
    assert hot_mean - cold_mean >= 0.5
    print(f"[acceptance] criterion 07 PASS: mean spam fraction "
          f"{hot_mean:.3f} over the cells nearest (1,1) ({hot_n} populated) "
          f"vs {cold_mean:.3f} nearest (0,0) ({cold_n} populated), "
          f"separation {hot_mean - cold_mean:.3f} >= 0.5")


def test_criterion_08_label_noise_is_corrected(default_records):
    """With 10% flipped aux labels the engine beats its own input."""
    start = time.perf_counter()
    report = noise_correction_experiment(
        default_records, 0.10, EngineConfig(tau=0.5, omega=0.85), 42)
    elapsed = time.perf_counter() - start
    assert report.engine_error_rate < report.aux_error_rate
    assert report.fp_corrected > report.fp_introduced
    assert elapsed < 30.0
    print(f"[acceptance] criterion 08 PASS: engine error "
          f"{report.engine_error_rate:.4f} < aux error "
          f"{report.aux_error_rate:.4f}; false positives corrected "
          f"{report.fp_corrected} > introduced {report.fp_introduced} "
          f"({elapsed:.2f} s)")


def test_criterion_09_beta_cv_and_tau_response(default_records):
    """beta CV equals brute force; higher tau never merges clusters."""
    computed = 0
    degenerate = 0
    for seed in range(1000, 1050):
        records, tau = random_corpus(seed)
        engine, _ = _replay(records, EngineConfig(tau=tau))
        for space in (engine.sender_side, engine.recipient_side):
            try:
                got = beta_cv(space)
            except NotComputableError:
                got = None
            want = naive_beta_cv(
                space.user_dims,
                {cid: set(c.members) for cid, c in space.clusters.items()},
            )
            if want is None:
                assert got is None
                degenerate += 1
            else:
                assert got == pytest.approx(want, abs=1e-9)
                computed += 1
    assert computed >= 20
    grid = [round(0.1 * k, 10) for k in range(11)]
    rows = tau_sweep(default_records, grid, EngineConfig())
    sc = [row.num_sender_clusters for row in rows]
    rc = [row.num_recipient_clusters for row in rows]
    assert all(a <= b for a, b in zip(sc, sc[1:]))
    assert all(a <= b for a, b in zip(rc, rc[1:]))
    print(f"[acceptance] criterion 09 PASS: beta CV matched brute force "
          f"within 1e-9 on {computed} instances ({degenerate} degenerate "
          f"shapes agreed as not computable); cluster counts "
          f"{sc[0]}->{sc[-1]} senders / {rc[0]}->{rc[-1]} recipients "
          f"non-decreasing in tau")


def test_criterion_10_throughput(default_records):
    """Default corpus replays fast; a 100k-message stream sustains 10k/s."""
    engine = SpamRankEngine(EngineConfig())
    start = time.perf_counter()
    for record in default_records:
        engine.process(record)
    small_elapsed = time.perf_counter() - start
    assert small_elapsed < 2.0

    big = generate(THROUGHPUT_SPEC)  # generation is not part of the bound
    engine = SpamRankEngine(EngineConfig())
    start = time.perf_counter()
    for record in big:
        engine.process(record)
    big_elapsed = time.perf_counter() - start
    rate = len(big) / big_elapsed
    assert rate >= 10_000
    print(f"[acceptance] criterion 10 PASS: {len(default_records)} default "
          f"messages in {small_elapsed:.3f} s; {len(big)} messages at "
          f"{rate:,.0f} msg/s (bound 10,000)")


def test_criterion_11_snapshot_resume_is_invisible(default_records, tmp_path):
    """Save/load mid-stream changes nothing: verdicts and state identical."""
    split = 1800
    full_engine, full = _replay(default_records)

    head_engine = SpamRankEngine(EngineConfig())
    head = [head_engine.process(r) for r in default_records[:split]]
    path = tmp_path / "state.json"
    save_snapshot(head_engine, str(path))
    resumed = load_snapshot(str(path))
    tail = [resumed.process(r) for r in default_records[split:]]

    assert head + tail == full  # Verdict equality: every field, exactly
    assert resumed.input_offset == full_engine.input_offset
    assert engine_state(resumed) == engine_state(full_engine)
    print(f"[acceptance] criterion 11 PASS: resume at message {split} of "
          f"{len(full)} reproduced all verdicts and the exact final state")
