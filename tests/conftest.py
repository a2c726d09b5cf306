from pathlib import Path

import pytest

from spamrank import WorkloadSpec, generate, read_records
from spamrank.synthgen import label_flipper

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def golden_path() -> Path:
    return DATA_DIR / "golden_corpus.jsonl"


@pytest.fixture(scope="session")
def golden_records(golden_path):
    records, stats = read_records(str(golden_path))
    assert stats.records == 10 and stats.skipped == 0
    return records


@pytest.fixture(scope="session")
def default_records():
    """The seed-42 default synthetic corpus, shared across the suite."""
    return generate(WorkloadSpec())


@pytest.fixture(scope="session")
def noisy_records(default_records):
    """The default corpus with 10% of aux labels flipped away from truth, the
    records of `spamrank generate --flip-rate 0.1`."""
    return list(map(label_flipper(0.1, 42), default_records))
