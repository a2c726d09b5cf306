"""Structural spam re-classification.

Clusters mail senders and recipients by the similarity of their contact
lists and scores each message by the spam history of the clusters it
touches, deferring to an upstream filter only when the structure is
ambiguous. See README.md for the model and the CLI.
"""

from .clustering import CensusReport, Cluster, ClusterSpace
from .engine import DEFAULT_OMEGA, DEFAULT_TAU, EngineConfig, SpamRankEngine
from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    InternalStateError,
    InvalidAddressError,
    NotAMemberError,
    NotComputableError,
    SpamRankError,
    UnknownUserError,
)
from .evaluation import (
    BaselineReport,
    BinGrid,
    NoiseReport,
    SweepResult,
    SweepRow,
    beta_cv,
    bin_heatmap,
    noise_correction_experiment,
    omega_sweep,
    sender_history_baseline,
    tau_sweep,
)
from .ingest import (
    SENDER_DOMAIN,
    SENDER_FULL,
    MessageRecord,
    ParseStats,
    normalize_recipient,
    normalize_sender,
    parse_stream,
    read_records,
    write_jsonl,
)
from .scoring import (
    DEFERRED,
    HAM,
    LEGIT,
    SPAM,
    Verdict,
    decide,
    effective_label,
    spam_rank,
)
from .snapshot import load_snapshot, save_snapshot
from .synthgen import WorkloadSpec, flip_labels, generate
from .vectorspace import Interner, InvertedIndex

__version__ = "0.1.0"

__all__ = [
    "BaselineReport",
    "BinGrid",
    "CensusReport",
    "Cluster",
    "ClusterSpace",
    "ConfigError",
    "DEFAULT_OMEGA",
    "DEFAULT_TAU",
    "DEFERRED",
    "DomainError",
    "EngineConfig",
    "FormatError",
    "HAM",
    "Interner",
    "InternalStateError",
    "InvalidAddressError",
    "InvertedIndex",
    "LEGIT",
    "MessageRecord",
    "NoiseReport",
    "NotAMemberError",
    "NotComputableError",
    "ParseStats",
    "SENDER_DOMAIN",
    "SENDER_FULL",
    "SPAM",
    "SpamRankEngine",
    "SpamRankError",
    "SweepResult",
    "SweepRow",
    "UnknownUserError",
    "Verdict",
    "WorkloadSpec",
    "beta_cv",
    "bin_heatmap",
    "decide",
    "effective_label",
    "flip_labels",
    "generate",
    "load_snapshot",
    "noise_correction_experiment",
    "normalize_recipient",
    "normalize_sender",
    "omega_sweep",
    "parse_stream",
    "read_records",
    "save_snapshot",
    "sender_history_baseline",
    "spam_rank",
    "tau_sweep",
    "write_jsonl",
    "__version__",
]
