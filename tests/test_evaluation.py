import json

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
from spamrank.clustering import Cluster
from spamrank.evaluation import write_heatmap, write_report, write_sweep

from oracles import naive_beta_cv, omega_sweep_by_replay, random_corpus


def build_space(tau: float, layout: dict[int, dict[int, set]]) -> ClusterSpace:
    """Wire a ClusterSpace into an exact, integrity-checked shape."""
    space = ClusterSpace("test", tau)
    next_cid = 1
    for cid, members in layout.items():
        space.index.register_cluster(cid)
        cluster = Cluster(cid)
        space.clusters[cid] = cluster
        for uid, dims in members.items():
            space.register_user(uid)
            space.user_dims[uid] = set(dims)
            space.index.add_member_vector(cid, dims)
            cluster.members.add(uid)
            space.user_cluster[uid] = cid
        next_cid = max(next_cid, cid + 1)
    space._next_cid = next_cid
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
        space = build_space(0.5, {1: {1: {1, 2}, 2: {1, 2}}})
        with pytest.raises(NotComputableError):
            beta_cv(space)

    def test_all_singletons_not_computable(self):
        space = build_space(0.5, {1: {1: {1}}, 2: {2: {2}}})
        with pytest.raises(NotComputableError):
            beta_cv(space)

    def test_perfectly_tight_clusters_score_zero(self):
        # every member coincides with its centroid: intra CV is exactly 0
        space = build_space(0.5, {
            1: {1: {1, 2}, 2: {1, 2}},
            2: {3: {3, 4}, 4: {3, 4}},
        })
        assert beta_cv(space) == 0.0

    def test_tight_clusters_win_even_when_centroids_coincide(self):
        # the intra short-circuit must fire before the inter degeneracy
        space = build_space(0.5, {
            1: {1: {1, 2}, 2: {1, 2}},
            2: {3: {1, 2}, 4: {1, 2}},
        })
        assert beta_cv(space) == 0.0

    def test_coinciding_centroids_not_computable(self):
        # same member mix in both clusters: centroids are parallel, but the
        # members sit at different angles so intra CV stays positive
        space = build_space(0.5, {
            1: {1: {1}, 2: {1, 2}},
            2: {3: {1}, 4: {1, 2}},
        })
        with pytest.raises(NotComputableError):
            beta_cv(space)

    def test_two_clusters_have_no_inter_spread(self):
        # a single inter-centroid distance has zero deviation
        space = build_space(0.5, {
            1: {1: {1}, 2: {1, 2}},
            2: {3: {3}, 4: {3, 4}},
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


class TestSweeps:
    def test_grid_must_be_strictly_increasing(self, golden_records):
        with pytest.raises(ConfigError):
            tau_sweep(golden_records, [])
        with pytest.raises(ConfigError):
            tau_sweep(golden_records, [0.2, 0.2])
        with pytest.raises(ConfigError):
            omega_sweep(golden_records, [0.9, 0.8])

    def test_tau_sweep_rows_match_direct_replays(self, golden_records):
        result = tau_sweep(golden_records, [0.3, 0.5])
        assert result.parameter == "tau"
        assert [row.value for row in result.rows] == [0.3, 0.5]
        engine = SpamRankEngine(EngineConfig(tau=0.5))
        for r in golden_records:
            engine.process(r)
        row = result.rows[1]
        assert row.num_sender_clusters == len(engine.sender_side.clusters)
        assert row.num_recipient_clusters == len(engine.recipient_side.clusters)
        assert row.classified_count == 8
        assert row.accordance_pct == 100.0

    def test_omega_sweep_recorded_equals_naive(self, golden_records):
        grid = [0.5, 0.65, 0.85, 1.0]
        fast = omega_sweep(golden_records, grid)
        slow = omega_sweep_by_replay(golden_records, grid)
        assert len(fast.rows) == len(slow) == len(grid)
        for a, b in zip(fast.rows, slow):
            assert a.value == b.value
            assert a.num_sender_clusters == b.num_sender_clusters
            assert a.num_recipient_clusters == b.num_recipient_clusters
            assert a.beta_cv == b.beta_cv
            assert a.accordance_pct == b.accordance_pct
            assert a.classified_count == b.classified_count

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


class TestBinHeatmap:
    def test_cell_indexing(self):
        grid = bin_heatmap([verdict(0.3, 0.6)], 0.25)
        assert grid.n == 4
        assert grid.message_count[1][2] == 1
        assert grid.total_messages() == 1

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
        assert grid.total_messages() == len(verdicts)

    @pytest.mark.parametrize("bad", [0.3, 0.0, -0.25, 0.7])
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
            noise_correction_experiment(records, 0.1, 0.5, 0.85)

    def test_zero_flip_rate_has_no_aux_errors(self, default_records):
        sample = default_records[:400]
        report = noise_correction_experiment(sample, 0.0, 0.5, 0.85)
        assert report.aux_error_rate == 0.0
        assert report.total_messages == 400

    def test_full_flip_rate_inverts_aux(self, default_records):
        sample = default_records[:200]
        report = noise_correction_experiment(sample, 1.0, 0.5, 0.85)
        assert report.aux_error_rate == 1.0


class TestReportWriters:
    def test_write_sweep_formats_na_and_headers(self, tmp_path):
        result = SweepResult(
            parameter="tau",
            grid=[0.1],
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
