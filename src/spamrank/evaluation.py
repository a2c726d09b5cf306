"""Replay analyses over record streams.

Everything here replays a corpus through fresh engine state and reports
aggregate behavior: cluster counts and beta CV across a tau sweep,
accordance/classified tradeoffs across an omega sweep, (Ps, Pr) bin grids,
a no-clustering sender-history baseline, and a label-noise correction
experiment against generator ground truth. Outputs are plain TSV matrices
and JsonLines, each prefixed with a reproducibility header.

Beta CV is intra CV / inter CV with distance = 1 - cosine: intra over
member-to-centroid distances (centroid = the cluster's sum vector), inter
over pairwise centroid distances. Coefficient of variation uses the
population standard deviation. The distances come from the inverted index
the engine keeps: its postings give the exact integer dots and each
cluster's squared norm the rest, and centroid pairs that share no dimension
are counted at distance 1.0 rather than compared. Sweep tables report the sender side.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import asdict, astuple, dataclass, fields
from itertools import chain, combinations, repeat
from math import sqrt
from statistics import fmean, pstdev
from typing import Iterable, Sequence

from .clustering import ClusterSpace
from .engine import EngineConfig, SpamRankEngine
from .errors import ConfigError, NotComputableError
from .ingest import MessageRecord, write_header
from .scoring import DEFERRED, HAM, LEGIT, SPAM, Verdict, accordance, decide
from .synthgen import label_flipper


@dataclass(slots=True)
class SweepRow:
    value: float
    num_sender_clusters: int
    num_recipient_clusters: int
    beta_cv: float | None  # None = not computable at this grid point
    accordance_pct: float
    classified_count: int
    runtime_ms: float


@dataclass(slots=True)
class SweepResult:
    parameter: str  # "tau" or "omega"
    rows: list[SweepRow]


@dataclass(slots=True)
class BinGrid:
    """Square (Ps, Pr) histogram; index [i][j] = (Ps bin, Pr bin)."""

    bin_size: float
    n: int
    message_count: list[list[int]]
    spam_count: list[list[int]]

    def spam_fraction(self, i: int, j: int) -> float | None:
        m = self.message_count[i][j]
        if m == 0:
            return None
        return self.spam_count[i][j] / m


@dataclass(slots=True)
class BaselineReport:
    accordance_pct: float
    classified_count: int
    total_messages: int


@dataclass(slots=True)
class NoiseReport:
    aux_error_rate: float
    engine_error_rate: float
    fp_corrected: int
    fp_introduced: int
    fn_corrected: int
    fn_introduced: int
    total_messages: int


# -- beta CV ----------------------------------------------------------------


def _cv(values: Sequence[float]) -> float:
    # distances are non-negative, so mean 0 means every value is 0
    m = fmean(values)
    if m == 0.0:
        return 0.0
    return pstdev(values) / m


def _distance(dot: int, nsq_a: int, nsq_b: int) -> float:
    """1 - cosine, from an exact integer dot and squared norms: one rounding
    at the division, the cosine clamped at 1."""
    if dot == 0:
        return 1.0
    sim = dot / sqrt(nsq_a * nsq_b)
    return 0.0 if sim > 1.0 else 1.0 - sim


def beta_cv(space: ClusterSpace) -> float:
    """Intra CV / inter CV for one side's current clustering.

    Raises NotComputableError on the degenerate shapes: fewer than two
    clusters, no multi-member cluster, coinciding centroids, or zero
    spread in the inter distances (division by zero).
    """
    clusters = space.clusters
    if len(clusters) < 2:
        raise NotComputableError("need at least two clusters")
    if not any(len(c.members) > 1 for c in clusters.values()):
        raise NotComputableError("no multi-member cluster")
    counts = space.index.counts
    user_dims = space.user_dims
    intra = [
        _distance(sum(counts(d)[cid] for d in dims), len(dims), cluster.norm_sq)
        for cid, cluster in clusters.items()
        for dims in (user_dims[uid] for uid in cluster.members)
    ]
    intra_cv = _cv(intra)
    if intra_cv == 0.0:
        return 0.0
    # only centroids that share a dimension have a nonzero dot; every other
    # pair sits at distance exactly 1.0, so it is counted, not listed
    dots: dict[tuple[int, int], int] = {}
    for d in space.index.postings:
        for (a, ca), (b, cb) in combinations(sorted(counts(d).items()), 2):
            dots[a, b] = dots.get((a, b), 0) + ca * cb
    near = [_distance(dot, clusters[a].norm_sq, clusters[b].norm_sq)
            for (a, b), dot in dots.items()]
    far = len(clusters) * (len(clusters) - 1) // 2 - len(near)
    # fmean (an fsum) and pstdev (an exact sum) do not depend on input order
    inter_mean = fmean(chain(repeat(1.0, far), near))
    if inter_mean == 0.0:
        raise NotComputableError("all centroids coincide")
    inter_cv = pstdev(chain(repeat(1.0, far), near)) / inter_mean
    if inter_cv == 0.0:
        raise NotComputableError("inter-centroid distances have no spread")
    return intra_cv / inter_cv


# -- sweeps ------------------------------------------------------------------


def _check_grid(grid: Sequence[float]) -> list[float]:
    grid = list(grid)
    if not grid:
        raise ConfigError("empty sweep grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("sweep grid must be strictly increasing")
    return grid


def _replay(
    records: Iterable[MessageRecord],
    cfg: EngineConfig,
    points: Sequence[tuple[float, float]],
) -> list[SweepRow]:
    """Stream records once through a fresh engine, recording each message's
    spam rank, then one row per (value, omega) point: the end state's cluster
    counts and beta CV, and accordance with every message re-decided at that
    omega. runtime_ms is the replay's wall time, recording included.
    """
    engine = SpamRankEngine(cfg)
    ranks = array("d")
    spam = bytearray()
    start = time.perf_counter()
    for v in map(engine.process, records):
        ranks.append(v.spam_rank)
        spam.append(v.aux_label == SPAM)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    n_send = len(engine.sender_side.clusters)
    n_recv = len(engine.recipient_side.clusters)
    try:
        beta = beta_cv(engine.sender_side)
    except NotComputableError:
        beta = None
    rows: list[SweepRow] = []
    for value, omega in points:
        tally = Counter(
            (decide(sr, omega), SPAM if is_spam else HAM) for sr, is_spam in zip(ranks, spam)
        )
        rows.append(SweepRow(value, n_send, n_recv, beta, *accordance(tally), runtime_ms))
    return rows


def tau_sweep(
    records: Iterable[MessageRecord],
    grid: Sequence[float],
    config: EngineConfig | None = None,
) -> SweepResult:
    """Full fresh replay per tau, so the records are read into a list (the one
    analysis that holds them); omega (for accordance) comes from config."""
    grid = _check_grid(grid)
    base = config or EngineConfig()
    # replace refuses a bad grid point here, before any replay
    configs = [base.replace(tau=tau) for tau in grid]
    records = list(records)
    rows = [row for cfg in configs for row in _replay(records, cfg, [(cfg.tau, cfg.omega)])]
    return SweepResult(parameter="tau", rows=rows)


def omega_sweep(
    records: Iterable[MessageRecord],
    grid: Sequence[float],
    config: EngineConfig | None = None,
) -> SweepResult:
    """Accordance/classified tradeoff across omega at fixed tau.

    omega never feeds back into engine state, so one replay records each
    message's spam rank and decisions are re-derived for every grid value.
    """
    grid = _check_grid(grid)
    base = config or EngineConfig()
    # replace refuses a bad grid point here, before the replay
    omegas = [base.replace(omega=omega).omega for omega in grid]
    rows = _replay(records, base, [(omega, omega) for omega in omegas])
    return SweepResult(parameter="omega", rows=rows)


# -- bin heatmap ---------------------------------------------------------------


def bin_heatmap(verdicts: Iterable[Verdict], bin_size: float) -> BinGrid:
    """Histogram verdicts into (Ps, Pr) bins of the given size.

    bin_size must divide 1 evenly, into fewer bins than a list can index.
    Cell index is floor(p / bin_size) with p = 1 clamped into the top cell;
    spam counts follow the aux label.
    """
    bins = 1.0 / bin_size if bin_size > 0 else 0.0
    n = round(bins) if bins < sys.maxsize else 0  # inf or too many to index
    if n < 1 or abs(n * bin_size - 1.0) > 1e-9:
        raise ConfigError(
            f"bin_size {bin_size} does not divide 1 evenly into indexable bins"
        )
    top = n - 1
    messages = [[0] * n for _ in range(n)]
    spam = [[0] * n for _ in range(n)]
    for v in verdicts:
        i = min(top, int(v.p_s / bin_size))
        j = min(top, int(v.p_r / bin_size))
        messages[i][j] += 1
        if v.aux_label == SPAM:
            spam[i][j] += 1
    return BinGrid(bin_size=bin_size, n=n, message_count=messages, spam_count=spam)


# -- baselines and experiments -------------------------------------------------


def sender_history_baseline(records: Iterable[MessageRecord]) -> BaselineReport:
    """Classify on the sender's own spam frequency, no clustering.

    Score is the frequency before the current message: above 1/2 is spam,
    below is legit, unseen senders and exact 1/2 defer. Counters update
    after scoring. Accordance is measured against the aux labels.
    """
    history: dict[str, list[int]] = {}  # sender -> [spam, total]
    tally: Counter = Counter()  # (decision, aux label) pairs
    for rec in records:
        st = history.setdefault(rec.sender, [0, 0])  # unseen: a dead heat
        if 2 * st[0] > st[1]:
            decision = SPAM
        elif 2 * st[0] < st[1]:
            decision = LEGIT
        else:
            decision = DEFERRED
        st[1] += 1
        if rec.aux_label == SPAM:
            st[0] += 1
        tally[decision, rec.aux_label] += 1
    acc, classified = accordance(tally)
    return BaselineReport(
        accordance_pct=acc, classified_count=classified, total_messages=tally.total()
    )


def noise_correction_experiment(
    records: Iterable[MessageRecord],
    flip_rate: float,
    config: EngineConfig | None = None,
    seed: int = 42,
) -> NoiseReport:
    """Measure how much label noise the structure corrects vs. introduces.

    Takes a corpus with generator ground truth, flips aux labels at
    flip_rate (seeded), runs an engine with config (None: the defaults) on
    the noisy labels, and compares effective labels against the hidden
    truth, one record at a time. fp_* rows are about ground-truth ham,
    fn_* about ground-truth spam; corrected means the engine overrode a
    wrong aux label, introduced means it broke a right one. A record whose
    truth is not "spam" or "ham" is refused before it is scored.
    """
    flip = label_flipper(flip_rate, seed)
    engine = SpamRankEngine(config)
    tally: Counter = Counter()  # (truth, aux, effective) triples
    for rec in records:
        if rec.truth != SPAM and rec.truth != HAM:
            raise ConfigError("noise experiment needs ground-truth labels "
                              f"('spam' or 'ham'), got {rec.truth!r}")
        noisy = flip(rec)
        tally[rec.truth, noisy.aux_label, engine.process(noisy).effective_label] += 1
    total = tally.total()
    aux_errors = sum(n for (truth, aux, _), n in tally.items() if aux != truth)
    engine_errors = sum(n for (truth, _, eff), n in tally.items() if eff != truth)
    return NoiseReport(
        aux_error_rate=aux_errors / total if total else 0.0,
        engine_error_rate=engine_errors / total if total else 0.0,
        fp_corrected=tally[HAM, SPAM, HAM],
        fp_introduced=tally[HAM, HAM, SPAM],
        fn_corrected=tally[SPAM, HAM, SPAM],
        fn_introduced=tally[SPAM, SPAM, HAM],
        total_messages=total,
    )


# -- report files ---------------------------------------------------------------

# every output file leads with version + fingerprint + seed so a plot can
# always be traced back to the exact run


def _fmt(v: object) -> str:
    if v is None:
        return "NA"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_tsv(path: str, header: dict, rows: Iterable[Iterable[object]]) -> None:
    """A `# k=v ...` header line, then one tab-separated line per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in header.items()) + "\n")
        for row in rows:
            fh.write("\t".join(_fmt(v) for v in row) + "\n")


def _write_jsonl(path: str, header: dict, objs: Iterable[dict]) -> None:
    """A `{"header": ...}` line, then one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        write_header(fh, header)
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def write_sweep(
    result: SweepResult, tsv_path: str, jsonl_path: str, header: dict
) -> None:
    cols = (result.parameter, *(f.name for f in fields(SweepRow)[1:]))
    _write_tsv(tsv_path, header, [cols, *map(astuple, result.rows)])
    objs = [asdict(row) for row in result.rows]
    for obj in objs:
        obj[result.parameter] = obj.pop("value")
    _write_jsonl(jsonl_path, header, objs)


def write_heatmap(
    grid: BinGrid,
    messages_tsv_path: str,
    spam_tsv_path: str,
    jsonl_path: str,
    header: dict,
) -> None:
    """Two TSV matrices (message counts, spam fractions) plus cell rows.

    Matrix rows run over the Ps bin, columns over the Pr bin, both
    ascending; empty cells print NA in the fraction matrix.
    """
    cells = range(grid.n)
    fractions = [[grid.spam_fraction(i, j) for j in cells] for i in cells]
    _write_tsv(messages_tsv_path, header, grid.message_count)
    _write_tsv(spam_tsv_path, header, fractions)
    _write_jsonl(jsonl_path, header, (
        {
            "ps_bin": i,
            "pr_bin": j,
            "message_count": grid.message_count[i][j],
            "spam_count": grid.spam_count[i][j],
            "spam_fraction": fractions[i][j],
        }
        for i in cells
        for j in cells
    ))


def write_report(report: object, tsv_path: str, jsonl_path: str, header: dict) -> None:
    """Single-row table for the baseline and noise reports."""
    row = asdict(report)
    _write_tsv(tsv_path, header, [row, row.values()])
    _write_jsonl(jsonl_path, header, [row])
