"""The benchmark's workloads: a `WorkloadSpec` mix each, sized to one run.

The seed of each spec is replaced by the `--seed` of the run. `cut` is
where the stream is snapshotted (and, for `resume`, cut and resumed through
the CLI); the last `window` records are the steady-state window that
`tail_msg_s` replays.
"""

from __future__ import annotations

from dataclasses import dataclass

from spamrank import WorkloadSpec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: WorkloadSpec
    cut: int
    window: int
    resume: bool = False
    # saves and loads of the state at the cut per round
    snapshots: int = 3


def _long_stream() -> Workload:
    # acceptance criterion 10's THROUGHPUT_SPEC mix, cut to 32k records so
    # that a run's rounds fit its time budget; the per-window rate still
    # falls by a third along the stream
    n = 32_000
    spec = WorkloadSpec(
        n_messages=n,
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
    return Workload(
        "long-stream",
        "sparse Zipf-skewed long stream: per-message cost grows with stream "
        "length, so the tail window runs well below the start",
        spec, cut=n - 3200, window=3200, snapshots=4)


def _churn_resume() -> Workload:
    n = 16_000
    spec = WorkloadSpec(
        n_messages=n,
        n_legit_senders=20_000,
        n_spam_senders=5000,
        n_recipients=400_000,
        n_communities=8000,
        community_size_mean=25.0,
        n_distribution_lists=2000,
        list_size_mean=40.0,
        spam_fraction=0.7,
        legit_recipients_mean=2.0,
        spam_recipients_mean=4.0,
        sender_churn_rate=0.6,
    )
    return Workload(
        "churn-resume",
        "sparse high-cardinality mix, most spam from never-seen senders, cut "
        "midway and resumed from a snapshot through the CLI",
        spec, cut=n // 2, window=n // 10, resume=True, snapshots=5)


WORKLOADS = {w.name: w for w in (_long_stream(), _churn_resume())}
