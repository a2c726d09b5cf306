import hashlib
import importlib
import math
import statistics
from dataclasses import replace
from pathlib import Path

import pytest

from spamrank import (
    HAM,
    SPAM,
    ConfigError,
    WorkloadSpec,
    generate,
    write_jsonl,
)
from spamrank.synthgen import label_flipper, recipient_address

from oracles import reference_layout


def _cosine(a: set, b: set) -> float:
    return len(a & b) / math.sqrt(len(a) * len(b))


def small_spec(**kwargs) -> WorkloadSpec:
    base = dict(
        seed=5,
        n_messages=400,
        n_legit_senders=20,
        n_spam_senders=12,
        n_recipients=120,
        n_communities=4,
        community_size_mean=15.0,
        n_distribution_lists=3,
        list_size_mean=20.0,
        spam_fraction=0.5,
        legit_recipients_mean=2.0,
        spam_recipients_mean=8.0,
        sender_churn_rate=0.0,
    )
    base.update(kwargs)
    return WorkloadSpec(**base)


class TestGenerate:
    def test_deterministic_for_a_seed(self):
        spec = small_spec()
        assert generate(spec) == generate(spec)

    def test_seed_changes_the_stream(self):
        assert generate(small_spec()) != generate(small_spec(seed=6))

    def test_shape_of_the_default_corpus(self, default_records):
        spec = WorkloadSpec()
        assert len(default_records) == spec.n_messages
        assert [r.msg_id for r in default_records[:3]] == ["g1", "g2", "g3"]
        ts = [r.timestamp for r in default_records]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)
        for r in default_records[:50]:
            assert r.truth in (SPAM, HAM)
            assert r.aux_label == r.truth  # clean corpus: aux starts at truth
            assert r.recipients

    def test_spam_fraction_extremes(self):
        assert all(r.truth == HAM for r in generate(small_spec(spam_fraction=0.0)))
        assert all(r.truth == SPAM for r in generate(small_spec(spam_fraction=1.0)))

    def test_spam_fraction_concentration(self):
        spam = sum(1 for r in generate(small_spec(n_messages=2000))
                   if r.truth == SPAM)
        assert 850 <= spam <= 1150

    def test_validation_rejects_impossible_shapes(self):
        with pytest.raises(ConfigError):
            generate(small_spec(n_messages=0))
        with pytest.raises(ConfigError):
            generate(small_spec(spam_fraction=1.5))
        with pytest.raises(ConfigError):
            # a community cannot exceed the social pool
            generate(small_spec(community_size_mean=500.0))
        # a NaN mean would keep generate's Poisson draw looping forever, so
        # these call validate(), which cannot hang
        for name in ("community_size_mean", "list_size_mean",
                     "legit_recipients_mean", "spam_recipients_mean"):
            with pytest.raises(ConfigError):
                small_spec(**{name: float("nan")}).validate()


# the benchmark's two mixes (bench/workloads.py), cut to 2,000 messages at
# the benchmark's default seed
LONG_STREAM_2K = WorkloadSpec(
    seed=1, n_messages=2000, n_legit_senders=4000, n_spam_senders=3000,
    n_recipients=48_000, n_communities=800, community_size_mean=10.0,
    n_distribution_lists=150, list_size_mean=14.0, spam_fraction=0.8,
    legit_recipients_mean=1.1, spam_recipients_mean=2.2, sender_churn_rate=0.02)
CHURN_RESUME_2K = WorkloadSpec(
    seed=1, n_messages=2000, n_legit_senders=20_000, n_spam_senders=5000,
    n_recipients=400_000, n_communities=8000, community_size_mean=25.0,
    n_distribution_lists=2000, list_size_mean=40.0, spam_fraction=0.7,
    legit_recipients_mean=2.0, spam_recipients_mean=4.0, sender_churn_rate=0.6)


class TestGoldenCorpora:
    """Generated corpora are pinned byte for byte: a change to the draws, the
    address format or the writer shows here first."""

    @pytest.mark.parametrize("spec,digest", [
        (WorkloadSpec(),
         "a19e485e7411e0b6e33f3b779561806e46e34f4194368a70e94143132d165430"),
        (LONG_STREAM_2K,
         "57ea12022456afbeade77cd615bb54f6236eea3e2d9c5a0d553322d099552fb1"),
        (CHURN_RESUME_2K,
         "13af6342d7472123a44a3a5144d24812d529b9792700a408f82da8d09d2b0d0b"),
    ], ids=["default", "long-stream-2k", "churn-resume-2k"])
    def test_sha256_of_the_written_corpus(self, tmp_path, spec, digest):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(str(path), generate(spec))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_the_pinned_mixes_are_the_benchmarks(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        workloads = importlib.import_module("workloads")
        for name, spec in (("long-stream", LONG_STREAM_2K),
                           ("churn-resume", CHURN_RESUME_2K)):
            bench_spec = workloads.WORKLOADS[name].spec
            assert replace(bench_spec, seed=1, n_messages=2000) == spec


def flip_labels(records, flip_rate, seed):
    return list(map(label_flipper(flip_rate, seed), records))


class TestFlipLabels:
    def test_zero_rate_is_identity(self, default_records):
        assert flip_labels(default_records, 0.0, seed=1) == default_records

    def test_full_rate_inverts_every_label(self):
        records = generate(small_spec())
        flipped = flip_labels(records, 1.0, seed=1)
        assert all(f.aux_label != r.aux_label for f, r in zip(flipped, records))
        assert all(f.truth == r.truth for f, r in zip(flipped, records))

    def test_partial_rate_concentrates(self):
        records = generate(small_spec(n_messages=10_000, n_recipients=400))
        flipped = flip_labels(records, 0.1, seed=42)
        n = sum(1 for f, r in zip(flipped, records) if f.aux_label != r.aux_label)
        assert 850 <= n <= 1150

    def test_rate_validated(self):
        # refused when the flipper is made, before any record is read
        with pytest.raises(ConfigError):
            label_flipper(-0.1, seed=1)
        with pytest.raises(ConfigError):
            label_flipper(1.0001, seed=1)
        with pytest.raises(ConfigError):
            label_flipper(float("nan"), seed=1)


class TestLayout:
    def test_layout_matches_the_generated_stream(self):
        # one list, no churn: every spam recipient set sits inside that list
        spec = small_spec(n_distribution_lists=1, spam_recipients_mean=6.0)
        layout = reference_layout(spec)
        (only_list,) = layout.dist_lists
        allowed = set(map(recipient_address, only_list))
        for rec in generate(spec):
            if rec.truth == SPAM:
                assert set(rec.recipients) <= allowed

    def test_sender_names_come_from_the_layout(self):
        spec = small_spec()
        layout = reference_layout(spec)
        known = set(layout.legit_domains) | set(layout.spam_domains)
        for rec in generate(spec):
            assert rec.sender in known  # no churn in this spec

    def test_spammers_on_one_list_look_alike(self, default_records):
        """Structural separability: shared-list spammers vs spam-legit pairs."""
        spec = WorkloadSpec()
        layout = reference_layout(spec)
        vectors: dict[str, set[str]] = {}
        for rec in default_records:
            vectors.setdefault(rec.sender, set()).update(rec.recipients)
        by_list: dict[int, list[set[str]]] = {}
        for i, domain in enumerate(layout.spam_domains):
            if domain in vectors:
                by_list.setdefault(layout.spammer_list[i], []).append(vectors[domain])
        same_list = [
            _cosine(a, b)
            for group in by_list.values()
            for k, a in enumerate(group)
            for b in group[k + 1:]
        ]
        legit = [vectors[d] for d in layout.legit_domains if d in vectors]
        spam = [vectors[d] for d in layout.spam_domains if d in vectors]
        cross = [_cosine(s, l) for s in spam[:40] for l in legit[:40]]
        assert statistics.fmean(same_list) > statistics.fmean(cross) + 0.15
