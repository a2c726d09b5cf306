import json
import tracemalloc
from dataclasses import replace
from itertools import repeat

import pytest

from spamrank import (
    DEFERRED,
    HAM,
    LEGIT,
    SPAM,
    BinGrid,
    ClusterSpace,
    ConfigError,
    EngineConfig,
    MessageRecord,
    NotComputableError,
    SpamRankEngine,
    SweepResult,
    SweepRow,
    Verdict,
    beta_cv,
    bin_heatmap,
    noise_correction_experiment,
    omega_sweep,
    sender_history_baseline,
    tau_sweep,
)
from spamrank import evaluation
from spamrank.evaluation import write_heatmap, write_report, write_sweep

from oracles import naive_beta_cv, random_corpus, sweep_row_by_replay


def build_space(tau: float, layout: dict[int, dict[int, set]]) -> ClusterSpace:
    """Build a ClusterSpace in an exact, integrity-checked shape, as a
    snapshot load builds one: unscored users, each in its layout cluster."""
    space = ClusterSpace("test", tau)
    users = sorted((uid, tuple(dims), cid) for cid, members in layout.items()
                   for uid, dims in members.items())
    # a layout numbers its users 0..n-1, as the engine's Interner does
    assert [uid for uid, _, _ in users] == list(range(len(users)))
    n = len(users)
    space.restore([dims for _, dims, _ in users], [0] * n, [0] * n,
                  [cid for _, _, cid in users])
    space._next_cid = max(layout) + 1
    space.check_integrity()
    return space


def verdict(p_s: float, p_r: float, aux: str = SPAM) -> Verdict:
    return Verdict(
        msg_id="v",
        p_s=p_s,
        p_r=p_r,
        spam_rank=(p_s + p_r) / 2,
        decision=DEFERRED,
        aux_label=aux,
        effective_label=aux,
    )


def msg(i, sender, recipients, aux, truth=None):
    return MessageRecord(f"e{i}", 100 + i, sender, tuple(recipients), aux, truth)


class TestBetaCv:
    def test_single_cluster_not_computable(self):
        space = build_space(0.5, {1: {0: {1, 2}, 1: {1, 2}}})
        with pytest.raises(NotComputableError):
            beta_cv(space)

    def test_all_singletons_not_computable(self):
        space = build_space(0.5, {1: {0: {1}}, 2: {1: {2}}})
        with pytest.raises(NotComputableError):
            beta_cv(space)

    def test_perfectly_tight_clusters_score_zero(self):
        # every member coincides with its centroid: intra CV is exactly 0
        space = build_space(0.5, {
            1: {0: {1, 2}, 1: {1, 2}},
            2: {2: {3, 4}, 3: {3, 4}},
        })
        assert beta_cv(space) == 0.0

    def test_tight_clusters_win_even_when_centroids_coincide(self):
        # the intra short-circuit must fire before the inter degeneracy
        space = build_space(0.5, {
            1: {0: {1, 2}, 1: {1, 2}},
            2: {2: {1, 2}, 3: {1, 2}},
        })
        assert beta_cv(space) == 0.0

    def test_coinciding_centroids_not_computable(self):
        # same member mix in both clusters: centroids are parallel, but the
        # members sit at different angles so intra CV stays positive
        space = build_space(0.5, {
            1: {0: {1}, 1: {1, 2}},
            2: {2: {1}, 3: {1, 2}},
        })
        with pytest.raises(NotComputableError):
            beta_cv(space)

    def test_two_clusters_have_no_inter_spread(self):
        # a single inter-centroid distance has zero deviation
        space = build_space(0.5, {
            1: {0: {1}, 1: {1, 2}},
            2: {2: {3}, 3: {3, 4}},
        })
        with pytest.raises(NotComputableError):
            beta_cv(space)

    def test_matches_the_naive_definition_on_replayed_corpora(self):
        checked = 0
        for seed in range(12):
            records, tau = random_corpus(seed + 300)
            engine = SpamRankEngine(EngineConfig(tau=tau))
            for r in records:
                engine.process(r)
            for space in (engine.sender_side, engine.recipient_side):
                expected = naive_beta_cv(
                    space.user_dims,
                    {cid: set(c.members) for cid, c in space.clusters.items()},
                )
                try:
                    got = beta_cv(space)
                except NotComputableError:
                    got = None
                if expected is None or got is None:
                    assert expected == got
                else:
                    assert got == pytest.approx(expected, abs=1e-9)
                    checked += 1
        assert checked >= 4  # computable shapes actually exercised

    def test_memory_does_not_grow_with_the_cluster_pairs(self):
        # 1,000 two-member clusters on their own dimensions, every 100th also
        # on one shared dimension: nearly all 499,500 centroid pairs sit at
        # distance 1.0. A list of one distance per pair costs ~33 B a pair;
        # Python 3.10's pstdev still copies its input, 8 B a pair.
        n = 1000
        layout = {k + 1: {2 * k: {2 * k}, 2 * k + 1: {2 * k, 2 * k + 1}}
                  for k in range(n)}
        for k in range(0, n, 100):
            layout[k + 1][2 * n + k // 100] = {10 * n}
        space = build_space(0.5, layout)
        tracemalloc.start()
        try:
            beta_cv(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * (n * (n - 1) // 2), peak


class TestSweeps:
    def test_grid_must_be_strictly_increasing(self, golden_records):
        with pytest.raises(ConfigError):
            tau_sweep(golden_records, [])
        with pytest.raises(ConfigError):
            tau_sweep(golden_records, [0.2, 0.2])
        with pytest.raises(ConfigError):
            omega_sweep(golden_records, [0.9, 0.8])

    # tau rows re-decide each message from its recorded spam rank; on the
    # label-noisy corpus a decision disagrees with the aux label
    @pytest.mark.parametrize("corpus", ["golden_records", "noisy_records"])
    def test_tau_sweep_rows_match_direct_replays(self, request, corpus):
        records = request.getfixturevalue(corpus)
        grid = [0.3, 0.5]
        result = tau_sweep(records, grid)
        assert result.parameter == "tau"
        assert [replace(row, runtime_ms=0.0) for row in result.rows] == [
            sweep_row_by_replay(records, EngineConfig(tau=tau), tau) for tau in grid
        ]
        if corpus == "golden_records":
            assert result.rows[1].classified_count == 8
            assert result.rows[1].accordance_pct == 100.0

    def test_omega_sweep_recorded_equals_naive(self, golden_records):
        grid = [0.5, 0.65, 0.85, 1.0]
        fast = omega_sweep(golden_records, grid)
        assert [replace(row, runtime_ms=0.0) for row in fast.rows] == [
            sweep_row_by_replay(golden_records, EngineConfig(omega=omega), omega)
            for omega in grid
        ]

    @pytest.mark.parametrize("sweep,grid", [
        (omega_sweep, [0.2]), (omega_sweep, [0.6, 1.2]), (tau_sweep, [0.5, 1.5]),
    ])
    def test_sweep_refuses_a_grid_point_before_any_replay(
        self, golden_records, monkeypatch, sweep, grid
    ):
        def replay(*args):
            raise AssertionError("replayed before checking the grid")

        monkeypatch.setattr("spamrank.evaluation._replay", replay)
        with pytest.raises(ConfigError):
            sweep(golden_records, grid)

    def test_omega_one_defers_the_whole_corpus(self, golden_records):
        result = omega_sweep(golden_records, [1.0])
        (row,) = result.rows
        assert row.classified_count == 0
        assert row.accordance_pct == 100.0  # convention for an empty set

    def test_omega_sweep_records_few_bytes_per_message(self):
        # one record repeated: the engine's state stays a single cluster per
        # side, so the peak is the per-message record. A double and a spam
        # flag take ~10 B a message on Python 3.10-3.13; one (rank, aux)
        # tuple in a list took ~89-90 B
        n = 20_000
        record = MessageRecord("m", 0, "s.example", ("r@x.example",), SPAM)
        tracemalloc.start()
        try:
            (row,) = omega_sweep(repeat(record, n), [0.85]).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.classified_count == n
        assert peak / n <= 16, peak


class TestBinHeatmap:
    def test_cell_indexing(self):
        grid = bin_heatmap([verdict(0.3, 0.6)], 0.25)
        assert grid.n == 4
        assert grid.message_count[1][2] == 1
        assert sum(map(sum, grid.message_count)) == 1

    def test_extremes_land_in_corner_cells(self):
        grid = bin_heatmap([verdict(0.0, 0.0), verdict(1.0, 1.0)], 0.25)
        assert grid.message_count[0][0] == 1
        assert grid.message_count[3][3] == 1

    def test_spam_fraction_follows_aux_labels(self):
        grid = bin_heatmap(
            [verdict(0.1, 0.1, SPAM), verdict(0.1, 0.1, HAM)], 0.5
        )
        assert grid.spam_fraction(0, 0) == 0.5
        assert grid.spam_fraction(1, 1) is None

    def test_partition(self, golden_records):
        engine = SpamRankEngine()
        verdicts = [engine.process(r) for r in golden_records]
        grid = bin_heatmap(verdicts, 0.25)
        assert sum(map(sum, grid.message_count)) == len(verdicts)

    # 1e-320 makes 1 / bin_size infinite; 1e-300 makes too many bins to index
    @pytest.mark.parametrize("bad", [0.3, 0.0, -0.25, 0.7, 1e-320, 1e-300])
    def test_bin_size_must_divide_one(self, bad):
        with pytest.raises(ConfigError):
            bin_heatmap([], bad)


class TestSenderHistoryBaseline:
    def test_scores_before_updating(self):
        records = [
            msg(1, "d.example", ["a@u.example"], SPAM),
            msg(2, "d.example", ["a@u.example"], SPAM),
            msg(3, "d.example", ["a@u.example"], HAM),
            msg(4, "d.example", ["a@u.example"], SPAM),
        ]
        report = sender_history_baseline(records)
        # verdicts: deferred (unseen), spam, spam (vs ham), spam
        assert report.total_messages == 4
        assert report.classified_count == 3
        assert report.accordance_pct == pytest.approx(200 / 3)

    def test_exact_tie_defers(self):
        records = [
            msg(1, "d.example", ["a@u.example"], SPAM),
            msg(2, "d.example", ["a@u.example"], HAM),
            msg(3, "d.example", ["a@u.example"], HAM),
        ]
        report = sender_history_baseline(records)
        # message 2 is classified (history 1/1 spam, vs aux ham); message 3
        # sees 1 spam / 2 total, a dead heat, and must stay deferred
        assert report.classified_count == 1
        assert report.accordance_pct == 0.0


class TestNoiseCorrection:
    def test_needs_ground_truth(self):
        records = [msg(1, "d.example", ["a@u.example"], SPAM)]
        with pytest.raises(ConfigError):
            noise_correction_experiment(records, 0.1, EngineConfig(tau=0.5, omega=0.85))

    def test_zero_flip_rate_has_no_aux_errors(self, default_records):
        sample = default_records[:400]
        report = noise_correction_experiment(sample, 0.0, EngineConfig(tau=0.5, omega=0.85))
        assert report.aux_error_rate == 0.0
        assert report.total_messages == 400

    def test_full_flip_rate_inverts_aux(self, default_records):
        sample = default_records[:200]
        report = noise_correction_experiment(sample, 1.0, EngineConfig(tau=0.5, omega=0.85))
        assert report.aux_error_rate == 1.0

    # a truth that is neither "spam" nor "ham" would flip to an aux label
    # of "spam" and count every message as an error
    @pytest.mark.parametrize("truth", ["Spam", "junk", ""])
    @pytest.mark.parametrize("flip_rate", [0.0, 1.0])
    def test_refuses_a_truth_other_than_spam_or_ham(self, truth, flip_rate):
        records = [msg(1, "d.example", ["a@u.example"], SPAM, SPAM),
                   msg(2, "d.example", ["a@u.example"], SPAM, truth)]
        with pytest.raises(ConfigError, match="ground-truth"):
            noise_correction_experiment(records, flip_rate, EngineConfig(tau=0.5, omega=0.85))

    def test_the_engine_runs_under_the_given_config(self, monkeypatch, default_records):
        built = []

        class Recorded(SpamRankEngine):
            def __init__(self, config=None):
                super().__init__(config)
                built.append(self.config)

        monkeypatch.setattr(evaluation, "SpamRankEngine", Recorded)
        cfg = EngineConfig(tau=0.4, omega=0.9, sender_identity="full")
        noise_correction_experiment(default_records[:50], 0.1, cfg)
        assert built == [cfg]


class TestStreamedRecords:
    """Each analysis reads its records once, so an iterator gives the same
    result as the list."""

    @pytest.mark.parametrize("sweep", [tau_sweep, omega_sweep])
    def test_sweeps(self, sweep, default_records):
        sample = default_records[:600]

        def rows(result):
            return [replace(row, runtime_ms=0.0) for row in result.rows]

        grid = [0.5, 0.9]
        assert rows(sweep(iter(sample), grid)) == rows(sweep(sample, grid))

    def test_baseline(self, default_records):
        assert (sender_history_baseline(iter(default_records))
                == sender_history_baseline(default_records))

    def test_noise_experiment(self, default_records):
        sample = default_records[:600]
        cfg = EngineConfig(tau=0.5, omega=0.85)
        assert (noise_correction_experiment(iter(sample), 0.1, cfg, 7)
                == noise_correction_experiment(sample, 0.1, cfg, 7))

    def test_noise_experiment_refuses_a_bad_rate_unread(self):
        def unread():
            raise AssertionError("a record was read")
            yield

        with pytest.raises(ConfigError, match="flip_rate"):
            noise_correction_experiment(unread(), 1.5, EngineConfig(tau=0.5, omega=0.85))

    def test_truthless_record_mid_stream(self, default_records):
        r = default_records[50]
        truthless = MessageRecord(r.msg_id, r.timestamp, r.sender, r.recipients, r.aux_label)
        records = [*default_records[:50], truthless, *default_records[51:100]]
        with pytest.raises(ConfigError, match="ground-truth"):
            noise_correction_experiment(iter(records), 0.1, EngineConfig(tau=0.5, omega=0.85))


class TestReportWriters:
    def test_write_sweep_formats_na_and_headers(self, tmp_path):
        result = SweepResult(
            parameter="tau",
            rows=[SweepRow(0.1, 2, 3, None, 100.0, 5, 1.25)],
        )
        tsv = tmp_path / "s.tsv"
        jsonl = tmp_path / "s.jsonl"
        write_sweep(result, str(tsv), str(jsonl), {"seed": 9})
        lines = tsv.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1].split("\t")[0] == "tau"
        assert lines[2].split("\t")[3] == "NA"
        out = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert out[0] == {"header": {"seed": 9}}
        assert out[1]["tau"] == 0.1
        assert out[1]["beta_cv"] is None
        assert "value" not in out[1]

    def test_write_heatmap_matrices(self, tmp_path):
        grid = bin_heatmap([verdict(0.0, 0.0, SPAM), verdict(0.9, 0.9, HAM)], 0.5)
        write_heatmap(
            grid,
            str(tmp_path / "m.tsv"),
            str(tmp_path / "f.tsv"),
            str(tmp_path / "h.jsonl"),
            {"seed": 1},
        )
        mat = (tmp_path / "m.tsv").read_text().splitlines()
        assert mat[1:] == ["1\t0", "0\t1"]
        frac = (tmp_path / "f.tsv").read_text().splitlines()
        assert frac[1:] == ["1.0\tNA", "NA\t0.0"]
        rows = [json.loads(l) for l in (tmp_path / "h.jsonl").read_text().splitlines()]
        assert len(rows) == 1 + 4
        assert rows[1]["spam_fraction"] == 1.0

    def test_write_report_single_row(self, tmp_path):
        report = sender_history_baseline(
            [msg(1, "d.example", ["a@u.example"], SPAM)]
        )
        write_report(report, str(tmp_path / "r.tsv"), str(tmp_path / "r.jsonl"),
                     {"seed": 1})
        lines = (tmp_path / "r.tsv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split("\t")[0] == "accordance_pct"
        row = json.loads((tmp_path / "r.jsonl").read_text().splitlines()[1])
        assert row["total_messages"] == 1
