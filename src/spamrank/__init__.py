"""Structural spam re-classification.

Clusters mail senders and recipients by the similarity of their contact
lists and scores each message by the spam history of the clusters it
touches, deferring to an upstream filter only when the structure is
ambiguous. See README.md for the model and the CLI.
"""

from .clustering import Cluster, ClusterSpace
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
from .vectorspace import Interner, InvertedIndex

__version__ = "0.1.0"

# The report and generator modules load on first use of one of their names
# (PEP 562), so that a `spamrank run` process never imports them nor the
# `statistics` and `dataclasses` modules they need.
_LAZY = {
    **dict.fromkeys((
        "BaselineReport", "BinGrid", "NoiseReport", "SweepResult", "SweepRow",
        "beta_cv", "bin_heatmap", "noise_correction_experiment", "omega_sweep",
        "sender_history_baseline", "tau_sweep"), "evaluation"),
    **dict.fromkeys(("WorkloadSpec", "generate"), "synthgen"),
}


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value

__all__ = [
    "BaselineReport",
    "BinGrid",
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
