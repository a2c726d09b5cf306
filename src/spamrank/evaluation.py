"""Replay analyses over record streams.

Everything here replays a corpus through fresh engine state and reports
aggregate behavior: cluster censuses and beta CV across a tau sweep,
accordance/classified tradeoffs across an omega sweep, (Ps, Pr) bin grids,
a no-clustering sender-history baseline, and a label-noise correction
experiment against generator ground truth. Outputs are plain TSV matrices
and JsonLines, each prefixed with a reproducibility header.

Beta CV is intra CV / inter CV with distance = 1 - cosine: intra over
member-to-centroid distances (centroid = the cluster's sum vector), inter
over pairwise centroid distances. Coefficient of variation uses the
population standard deviation. Sweep tables report the sender side.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from statistics import fmean, pstdev
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .clustering import ClusterSpace
from .engine import EngineConfig, SpamRankEngine
from .errors import ConfigError, NotComputableError
from .ingest import MessageRecord
from .scoring import DEFERRED, HAM, LEGIT, SPAM, Verdict, decide
from .synthgen import flip_labels
from .vectorspace import cosine

T = TypeVar("T")


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
    grid: list[float]
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

    def total_messages(self) -> int:
        return sum(sum(row) for row in self.message_count)


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
    sums = space.index.all_entries()
    intra: list[float] = []
    for cid in sorted(clusters):
        centroid = sums[cid]
        for uid in sorted(clusters[cid].members):
            intra.append(1.0 - cosine(space.user_dims[uid], centroid))
    intra_cv = _cv(intra)
    if intra_cv == 0.0:
        return 0.0
    cids = sorted(clusters)
    inter = [
        1.0 - cosine(sums[a], sums[b])
        for k, a in enumerate(cids)
        for b in cids[k + 1:]
    ]
    inter_mean = fmean(inter)
    if inter_mean == 0.0:
        raise NotComputableError("all centroids coincide")
    inter_cv = pstdev(inter) / inter_mean
    if inter_cv == 0.0:
        raise NotComputableError("inter-centroid distances have no spread")
    return intra_cv / inter_cv


def _beta_or_none(space: ClusterSpace) -> float | None:
    try:
        return beta_cv(space)
    except NotComputableError:
        return None


# -- sweeps ------------------------------------------------------------------


def _accordance(pairs: Iterable[tuple[str, str]]) -> tuple[float, int]:
    """(accordance_pct, classified_count) over (decision, aux) pairs.

    Zero classified messages reports 100.0 by convention; the caller keeps
    the count so the degenerate case stays visible.
    """
    classified = 0
    agree = 0
    for decision, aux in pairs:
        if decision == DEFERRED:
            continue
        classified += 1
        if (decision == SPAM) == (aux == SPAM):
            agree += 1
    if classified == 0:
        return 100.0, 0
    return 100.0 * agree / classified, classified


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
    fold: Callable[[Iterator[Verdict]], T],
) -> tuple[SpamRankEngine, T, float]:
    """Stream records through a fresh engine into fold.

    Returns the engine, fold's result over the verdict stream, and the
    replay's wall time in milliseconds.
    """
    engine = SpamRankEngine(cfg)
    start = time.perf_counter()
    folded = fold(engine.process_many(records))
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return engine, folded, runtime_ms


def tau_sweep(
    records: Sequence[MessageRecord],
    grid: Sequence[float],
    config: EngineConfig | None = None,
) -> SweepResult:
    """Full fresh replay per tau; omega (for accordance) comes from config."""
    grid = _check_grid(grid)
    base = config or EngineConfig()
    # EngineConfig refuses a bad grid point here, before any replay
    configs = [replace(base, tau=tau) for tau in grid]
    rows: list[SweepRow] = []
    for cfg in configs:
        engine, (acc, classified), runtime_ms = _replay(
            records,
            cfg,
            lambda verdicts: _accordance((v.decision, v.aux_label) for v in verdicts),
        )
        rows.append(SweepRow(
            value=cfg.tau,
            num_sender_clusters=len(engine.sender_side.clusters),
            num_recipient_clusters=len(engine.recipient_side.clusters),
            beta_cv=_beta_or_none(engine.sender_side),
            accordance_pct=acc,
            classified_count=classified,
            runtime_ms=runtime_ms,
        ))
    return SweepResult(parameter="tau", grid=grid, rows=rows)


def omega_sweep(
    records: Sequence[MessageRecord],
    grid: Sequence[float],
    config: EngineConfig | None = None,
) -> SweepResult:
    """Accordance/classified tradeoff across omega at fixed tau.

    omega never feeds back into engine state, so one replay records each
    message's spam rank and decisions are re-derived for every grid value.
    """
    grid = _check_grid(grid)
    base = config or EngineConfig()
    # EngineConfig refuses a bad grid point here, before the replay
    omegas = [replace(base, omega=omega).omega for omega in grid]
    engine, recorded, runtime_ms = _replay(
        records,
        base,
        lambda verdicts: [(v.spam_rank, v.aux_label) for v in verdicts],
    )
    n_send = len(engine.sender_side.clusters)
    n_recv = len(engine.recipient_side.clusters)
    beta = _beta_or_none(engine.sender_side)
    rows: list[SweepRow] = []
    for omega in omegas:
        acc, classified = _accordance(
            (decide(sr, omega), aux) for sr, aux in recorded
        )
        rows.append(SweepRow(
            value=omega,
            num_sender_clusters=n_send,
            num_recipient_clusters=n_recv,
            beta_cv=beta,
            accordance_pct=acc,
            classified_count=classified,
            runtime_ms=runtime_ms,
        ))
    return SweepResult(parameter="omega", grid=grid, rows=rows)


# -- bin heatmap ---------------------------------------------------------------


def bin_heatmap(verdicts: Iterable[Verdict], bin_size: float) -> BinGrid:
    """Histogram verdicts into (Ps, Pr) bins of the given size.

    bin_size must divide 1 evenly. Cell index is floor(p / bin_size) with
    p = 1 clamped into the top cell; spam counts follow the aux label.
    """
    n = round(1.0 / bin_size) if bin_size > 0 else 0
    if n < 1 or abs(n * bin_size - 1.0) > 1e-9:
        raise ConfigError(f"bin_size {bin_size} does not divide 1 evenly")
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
    history: dict[str, list[int]] = {}
    pairs: list[tuple[str, str]] = []
    total = 0
    for rec in records:
        total += 1
        st = history.get(rec.sender)
        if st is None:
            decision = DEFERRED
            st = history[rec.sender] = [0, 0]
        elif 2 * st[0] > st[1]:
            decision = SPAM
        elif 2 * st[0] < st[1]:
            decision = LEGIT
        else:
            decision = DEFERRED
        pairs.append((decision, rec.aux_label))
        st[1] += 1
        if rec.aux_label == SPAM:
            st[0] += 1
    acc, classified = _accordance(pairs)
    return BaselineReport(
        accordance_pct=acc, classified_count=classified, total_messages=total
    )


def noise_correction_experiment(
    records: Sequence[MessageRecord],
    flip_rate: float,
    tau: float,
    omega: float,
    seed: int = 42,
) -> NoiseReport:
    """Measure how much label noise the structure corrects vs. introduces.

    Takes a corpus with generator ground truth, flips aux labels at
    flip_rate (seeded), runs the engine on the noisy labels, and compares
    effective labels against the hidden truth. fp_* rows are about
    ground-truth ham, fn_* about ground-truth spam; corrected means the
    engine overrode a wrong aux label, introduced means it broke a right
    one.
    """
    if any(r.truth is None for r in records):
        raise ConfigError("noise experiment needs ground-truth labels")
    noisy = flip_labels(records, flip_rate, seed)
    engine = SpamRankEngine(EngineConfig(tau=tau, omega=omega))
    aux_errors = 0
    engine_errors = 0
    fp_corrected = fp_introduced = 0
    fn_corrected = fn_introduced = 0
    for rec, verdict in zip(noisy, engine.process_many(noisy)):
        truth = rec.truth
        aux = rec.aux_label
        eff = verdict.effective_label
        if aux != truth:
            aux_errors += 1
        if eff != truth:
            engine_errors += 1
        if truth == HAM:
            if aux == SPAM and eff == HAM:
                fp_corrected += 1
            elif aux == HAM and eff == SPAM:
                fp_introduced += 1
        else:
            if aux == HAM and eff == SPAM:
                fn_corrected += 1
            elif aux == SPAM and eff == HAM:
                fn_introduced += 1
    total = len(noisy)
    return NoiseReport(
        aux_error_rate=aux_errors / total if total else 0.0,
        engine_error_rate=engine_errors / total if total else 0.0,
        fp_corrected=fp_corrected,
        fp_introduced=fp_introduced,
        fn_corrected=fn_corrected,
        fn_introduced=fn_introduced,
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
        fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
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
