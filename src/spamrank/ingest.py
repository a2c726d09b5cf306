"""Message-stream parsing and identity normalization.

Input is line oriented. Two wire formats are supported:

* ``jsonl`` (default): one JSON object per line with nothing after it,
  for example ``{"id": "m1", "ts": 1074470400, "from": "ann@dept.univ.br",
  "to": ["bob@example.com"], "aux": "spam"}``. A line is decoded as
  ``json.loads`` would decode it: a leading byte-order mark, a second value
  or a stray ``]`` after the object makes it malformed. ``id`` is optional
  and is synthesized from the line number when absent; a string or number
  is kept as a string, anything else (``null`` included) makes the line
  malformed. A ``truth`` field, when present, is carried through as a side
  channel for evaluation tooling; the engine itself never reads it. Other
  unknown fields are ignored.
* ``tsv``: ``ts<TAB>from<TAB>to1,to2,...<TAB>spam|ham``.

Senders are identified by the domain after the last ``@`` (lower-cased);
``--sender-identity full`` keeps the whole address instead. Recipients are
always full addresses, lower-cased and stripped. Lines starting with ``#``
and JSON objects whose only key is ``header`` are comments. Malformed data
lines are counted and skipped; when they outnumber the good ones at end of
stream the whole input is rejected with FormatError, since that usually
means the wrong format flag.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from io import TextIOBase
from json.encoder import encode_basestring_ascii as encode_str

from .errors import FormatError, InvalidAddressError, SlotRecord
from .scoring import HAM, SPAM

SENDER_DOMAIN = "domain"
SENDER_FULL = "full"

# lower-cased wire label -> the shared constant, so no record holds its own
_LABELS = {SPAM: SPAM, HAM: HAM}

# the decoder json.loads uses; a stripped line must end where its value does
_decode = json.JSONDecoder().raw_decode
_NO_ID = object()


class MessageRecord(SlotRecord):
    """One normalized message event."""

    __slots__ = ("msg_id", "timestamp", "sender", "recipients", "aux_label", "truth")

    def __init__(self, msg_id: str, timestamp: int, sender: str,
                 recipients: tuple[str, ...], aux_label: str,
                 truth: str | None = None) -> None:
        self.msg_id = msg_id
        self.timestamp = timestamp
        self.sender = sender
        self.recipients = recipients
        self.aux_label = aux_label  # "spam" | "ham"
        self.truth = truth  # generator ground truth; the engine never reads it


def normalize_sender(address: str, identity: str = SENDER_DOMAIN) -> str:
    """Sender identity: domain after the last '@', or the full address.

    An address without '@' is used whole (already a domain). Empty input
    raises InvalidAddressError.
    """
    addr = address.strip().lower()
    if not addr:
        raise InvalidAddressError("empty sender address")
    if identity == SENDER_FULL:
        return addr
    return addr.rsplit("@", 1)[-1] or addr


def normalize_recipient(address: str) -> str:
    """Recipient identity: the full address, lower-cased and stripped."""
    addr = address.strip().lower()
    if not addr or "@" not in addr:
        raise InvalidAddressError(f"not a full address: {address!r}")
    return addr


class ParseStats(SlotRecord):
    __slots__ = ("records", "skipped", "comments")

    def __init__(self, records: int = 0, skipped: int = 0, comments: int = 0) -> None:
        self.records = records
        self.skipped = skipped
        self.comments = comments


def _coerce_ts(v: object) -> int:
    if isinstance(v, bool):
        raise ValueError("bool timestamp")
    if isinstance(v, int):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"bad timestamp {v!r}")


def _normalize_recipients(raw: Iterable[str]) -> tuple[str, ...]:
    out: list[str] = []
    seen: set[str] = set()
    for addr in raw:
        if not isinstance(addr, str):
            raise InvalidAddressError(f"recipient not a string: {addr!r}")
        norm = normalize_recipient(addr)
        if norm not in seen:
            seen.add(norm)
            out.append(norm)
    if not out:
        raise InvalidAddressError("no recipients")
    return tuple(out)


def _label(raw: object) -> str:
    label = _LABELS.get(raw.lower()) if isinstance(raw, str) else None
    if label is None:
        raise ValueError(f"bad label {raw!r}")
    return label


def _parse_json_line(line: str, line_no: int, identity: str) -> MessageRecord | None:
    obj, end = _decode(line)
    if end != len(line):
        raise ValueError("extra data after the object")
    if not isinstance(obj, dict):
        raise ValueError("not an object")
    if len(obj) == 1 and "header" in obj:
        return None
    raw_id = obj.get("id", _NO_ID)
    if raw_id is _NO_ID:
        raw_id = f"m{line_no}"
    elif type(raw_id) in (int, float):  # a bool is an int too, and malformed
        raw_id = str(raw_id)
    elif not isinstance(raw_id, str):
        raise ValueError("bad id")
    truth = obj.get("truth")
    to = obj["to"]
    if not isinstance(to, list):
        raise ValueError("'to' not a list")
    return MessageRecord(
        raw_id,
        _coerce_ts(obj["ts"]),
        normalize_sender(obj["from"], identity),
        _normalize_recipients(to),
        _label(obj["aux"]),
        None if truth is None else _label(truth),
    )


def write_header(fh: TextIOBase, header: dict) -> None:
    """Write the `{"header": ...}` line that _parse_json_line reads as a comment."""
    fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")


def _parse_tsv_line(line: str, line_no: int, identity: str) -> MessageRecord:
    parts = line.split("\t")
    if len(parts) != 4:
        raise ValueError(f"expected 4 fields, got {len(parts)}")
    ts_raw, sender, to_raw, aux = parts
    return MessageRecord(
        f"m{line_no}",
        int(ts_raw.strip()),
        normalize_sender(sender, identity),
        _normalize_recipients(to_raw.split(",")),
        _label(aux.strip()),
    )


def parse_stream(
    lines: Iterable[str],
    fmt: str = "jsonl",
    sender_identity: str = SENDER_DOMAIN,
    stats: ParseStats | None = None,
) -> Iterator[MessageRecord]:
    """Yield MessageRecords from an iterable of text lines, in input order.

    Malformed lines are skipped and tallied in ``stats``. After the stream
    is exhausted, FormatError is raised if skipped lines outnumber parsed
    records (more than half the data lines were bad).
    """
    if fmt not in ("jsonl", "tsv"):
        raise FormatError(f"unknown format {fmt!r}")
    if stats is None:
        stats = ParseStats()
    json_mode = fmt == "jsonl"
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            stats.skipped += 1
            continue
        if line.startswith("#"):
            stats.comments += 1
            continue
        try:
            if json_mode:
                rec = _parse_json_line(line, line_no, sender_identity)
                if rec is None:
                    stats.comments += 1
                    continue
            else:
                rec = _parse_tsv_line(line, line_no, sender_identity)
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
                InvalidAddressError):
            stats.skipped += 1
            continue
        stats.records += 1
        yield rec
    if stats.skipped > stats.records:
        raise FormatError(
            f"{stats.skipped} of {stats.skipped + stats.records} data lines "
            "malformed; wrong --format?"
        )


def read_records(
    path: str,
    fmt: str = "jsonl",
    sender_identity: str = SENDER_DOMAIN,
) -> tuple[list[MessageRecord], ParseStats]:
    """Parse a whole file into memory. Convenience wrapper over parse_stream."""
    stats = ParseStats()
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        records = list(parse_stream(fh, fmt, sender_identity, stats))
    return records, stats


def write_jsonl(path: str, records: Iterable[MessageRecord], header: dict | None = None) -> int:
    """Write records as jsonl, one f-string line each; returns the record count.

    A line is what json.dumps writes for {id, ts, from, to, aux[, truth]}; a
    field not of its declared type (str, int ts, str or None truth) raises
    TypeError. The optional header dict is emitted first as {"header": ...},
    which parse_stream treats as a comment, so the file reads back cleanly.
    """
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            write_header(fh, header)
        write = fh.write
        for rec in records:
            ts = rec.timestamp
            if type(ts) is not int:  # json.dumps would write a float or a bool
                raise TypeError(f"timestamp must be an int, got {ts!r}")
            truth = "" if rec.truth is None else f', "truth": {encode_str(rec.truth)}'
            write(f'{{"id": {encode_str(rec.msg_id)}, "ts": {ts!r}, '
                  f'"from": {encode_str(rec.sender)}, '
                  f'"to": [{", ".join(map(encode_str, rec.recipients))}], '
                  f'"aux": {encode_str(rec.aux_label)}{truth}}}\n')
            n += 1
    return n
