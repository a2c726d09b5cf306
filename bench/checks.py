"""Output checks every workload runs on what the program produced.

A verdict row is the tuple (id, p_s, p_r, sr, decision, aux, effective),
read from `spamrank run` output or built from an in-process `Verdict`.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
from itertools import islice

from reference import ReferenceModel, reference_decision

KEYS = ("id", "p_s", "p_r", "sr", "decision", "aux", "effective")
MAX_REPORTED = 5


def read_rows(path) -> list[tuple]:
    """Verdict rows of a `spamrank run` output file, header skipped."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "header" not in obj:
                rows.append(tuple(obj[k] for k in KEYS))
    return rows


def verdict_row(v) -> tuple:
    return (v.msg_id, v.p_s, v.p_r, v.spam_rank, v.decision, v.aux_label,
            v.effective_label)


def _decide(sr: float, omega: float) -> str:
    if sr > omega:
        return "spam"
    if sr < 1.0 - omega:
        return "legit"
    return "deferred"


def check_rows(records, rows, omega: float) -> list[str]:
    """(a) One verdict per record, in input order, each self-consistent."""
    problems = []
    if len(rows) != len(records):
        problems.append(f"{len(rows)} verdicts for {len(records)} records")
    for i, (rec, row) in enumerate(zip(records, rows)):
        if row is None:  # a failed operation, counted elsewhere
            continue
        msg_id, p_s, p_r, sr, decision, aux, effective = row
        why = None
        if msg_id != rec.msg_id:
            why = f"id {msg_id!r} where {rec.msg_id!r} was sent"
        elif not (0.0 <= p_s <= 1.0 and 0.0 <= p_r <= 1.0):
            why = f"probability out of [0, 1]: ({p_s}, {p_r})"
        elif sr != (p_s + p_r) / 2:
            why = f"sr {sr!r} is not the mean of ({p_s!r}, {p_r!r})"
        elif decision != _decide(sr, omega):
            why = f"decision {decision!r} outside the omega band for sr {sr!r}"
        elif aux != rec.aux_label:
            why = f"aux {aux!r} does not echo {rec.aux_label!r}"
        elif effective != {"spam": "spam", "legit": "ham"}.get(decision, aux):
            why = f"effective {effective!r} for decision {decision!r}"
        if why:
            problems.append(f"verdict {i}: {why}")
            if len(problems) >= MAX_REPORTED:
                break
    return problems


def check_reference(records, rows, prefix: int, tau: float, omega: float,
                    tol: float = 1e-9) -> list[str]:
    """(b) The first `prefix` verdicts match the brute-force reference."""
    problems = []
    model = ReferenceModel(tau)
    for i, (rec, row) in enumerate(islice(zip(records, rows), prefix)):
        p_s, p_r = model.step(rec)
        if row is None:
            continue
        want = reference_decision(p_s, p_r, omega)
        if abs(row[1] - p_s) > tol or abs(row[2] - p_r) > tol:
            problems.append(f"verdict {i}: (p_s, p_r) = ({row[1]}, {row[2]}), "
                            f"reference ({float(p_s)}, {float(p_r)})")
        elif want is not None and row[4] != want:
            problems.append(f"verdict {i}: decision {row[4]!r}, reference {want!r}")
        if len(problems) >= MAX_REPORTED:
            break
    return problems


def check_integrity(engine) -> list[str]:
    """(c) The final state survives a rebuild of every cached structure."""
    try:
        engine.check_integrity()
    except Exception as exc:  # any failure here is the finding
        return [f"check_integrity: {type(exc).__name__}: {exc}"]
    return []


def check_same(rows, expected, what: str) -> list[str]:
    """(d) and determinism: two verdict sequences are identical."""
    if len(rows) != len(expected):
        return [f"{what}: {len(rows)} verdicts where {len(expected)} expected"]
    for i, (got, want) in enumerate(zip(rows, expected)):
        if got != want and got is not None and want is not None:
            return [f"{what}: verdict {i} is {got}, expected {want}"]
    return []
