import io
import json

import pytest

from spamrank import (
    HAM,
    SENDER_FULL,
    SPAM,
    FormatError,
    InvalidAddressError,
    MessageRecord,
    ParseStats,
    normalize_recipient,
    normalize_sender,
    parse_stream,
    read_records,
    write_jsonl,
)
from spamrank.ingest import record_to_obj, write_header


class TestNormalizeSender:
    def test_domain_identity_extracts_the_domain(self):
        assert normalize_sender("User@Mail.Example.COM") == "mail.example.com"
        assert normalize_sender("  promo@d1.example  ") == "d1.example"

    def test_last_at_sign_wins(self):
        assert normalize_sender("a@b@c.net") == "c.net"

    def test_bare_domain_passes_through(self):
        assert normalize_sender("relay7.example") == "relay7.example"

    def test_full_identity_keeps_the_whole_address(self):
        assert normalize_sender("User@Mail.Example.COM", SENDER_FULL) == (
            "user@mail.example.com"
        )

    def test_empty_address_rejected(self):
        with pytest.raises(InvalidAddressError):
            normalize_sender("   ")


class TestNormalizeRecipient:
    def test_lowercases_and_strips(self):
        assert normalize_recipient(" A@U.Example ") == "a@u.example"

    def test_requires_an_at_sign(self):
        with pytest.raises(InvalidAddressError):
            normalize_recipient("not-an-address")


def parse_lines(lines, fmt="jsonl"):
    stats = ParseStats()
    records = list(parse_stream(lines, fmt, stats=stats))
    return records, stats


class TestJsonlParsing:
    def test_happy_path(self):
        line = json.dumps({
            "id": "x1", "ts": 100, "from": "a@d.example",
            "to": ["B@u.example", "c@u.example", "b@U.example"], "aux": "SPAM",
        })
        records, stats = parse_lines([line])
        (rec,) = records
        assert rec.msg_id == "x1"
        assert rec.sender == "d.example"
        # duplicates collapse, first-seen order kept
        assert rec.recipients == ("b@u.example", "c@u.example")
        assert rec.aux_label == "spam"
        assert rec.truth is None
        assert stats.records == 1

    def test_id_is_synthesized_from_the_line_number(self):
        line = json.dumps({"ts": 1, "from": "d.example", "to": ["a@u.example"],
                           "aux": "ham"})
        records, _ = parse_lines(["", line])
        assert records[0].msg_id == "m2"

    def test_numeric_id_coerced_to_string(self):
        line = json.dumps({"id": 7, "ts": 1, "from": "d.example",
                           "to": ["a@u.example"], "aux": "ham"})
        records, _ = parse_lines([line])
        assert records[0].msg_id == "7"

    def test_truth_side_channel_round_trips(self):
        line = json.dumps({"id": "x", "ts": 1, "from": "d.example",
                           "to": ["a@u.example"], "aux": "ham", "truth": "SPAM"})
        records, _ = parse_lines([line])
        assert records[0].truth == "spam"

    def test_header_and_comment_lines_are_not_data(self):
        good = json.dumps({"id": "x", "ts": 1, "from": "d.example",
                           "to": ["a@u.example"], "aux": "ham"})
        lines = [json.dumps({"header": {"seed": 1}}), "# note", good]
        records, stats = parse_lines(lines)
        assert len(records) == 1
        assert stats.comments == 2
        assert stats.skipped == 0

    @pytest.mark.parametrize("mutation", [
        lambda o: o.pop("aux"),
        lambda o: o.pop("to"),
        lambda o: o.pop("ts"),
        lambda o: o.update(aux="junk"),
        lambda o: o.update(ts=True),
        lambda o: o.update(ts="soon"),
        lambda o: o.update(to=[]),
        lambda o: o.update(to="a@u.example"),
        lambda o: o.update({"from": 17}),
        lambda o: o.update(truth="junk"),
    ])
    def test_malformed_lines_are_skipped(self, mutation):
        obj = {"id": "x", "ts": 1, "from": "d.example",
               "to": ["a@u.example"], "aux": "ham"}
        mutation(obj)
        good = json.dumps({"id": "y", "ts": 2, "from": "d.example",
                           "to": ["a@u.example"], "aux": "ham"})
        records, stats = parse_lines([json.dumps(obj), good, good])
        assert len(records) == 2
        assert stats.skipped == 1

    def test_fractional_timestamp_rejected_integral_accepted(self):
        base = {"id": "x", "from": "d.example", "to": ["a@u.example"], "aux": "ham"}
        records, stats = parse_lines([
            json.dumps({**base, "ts": 5.5}),
            json.dumps({**base, "ts": 5.0}),
            json.dumps({**base, "ts": 6}),
        ])
        assert [r.timestamp for r in records] == [5, 6]
        assert stats.skipped == 1

    def test_deeply_nested_line_is_skipped(self):
        good = json.dumps({"id": "y", "ts": 2, "from": "d.example",
                           "to": ["a@u.example"], "aux": "ham"})
        records, stats = parse_lines([good, "[" * 100_000, good])
        assert len(records) == 2
        assert stats.skipped == 1

    def test_mostly_garbage_raises_format_error(self):
        good = json.dumps({"id": "x", "ts": 1, "from": "d.example",
                           "to": ["a@u.example"], "aux": "ham"})
        lines = ["{bad", "also bad", "nope", good]
        with pytest.raises(FormatError):
            parse_lines(lines)

    def test_unknown_format_rejected_up_front(self):
        with pytest.raises(FormatError):
            list(parse_stream([], fmt="csv"))


class TestTsvParsing:
    def test_happy_path(self):
        line = "100\tpromo@d1.example\ta@u.example,b@u.example\tSpam"
        records, stats = parse_lines([line], fmt="tsv")
        (rec,) = records
        assert rec.msg_id == "m1"
        assert rec.timestamp == 100
        assert rec.sender == "d1.example"
        assert rec.recipients == ("a@u.example", "b@u.example")
        assert rec.aux_label == "spam"

    def test_field_count_is_enforced(self):
        good = "1\td.example\ta@u.example\tham"
        records, stats = parse_lines([good, "1\td.example\tham", good], fmt="tsv")
        assert len(records) == 2
        assert stats.skipped == 1


def test_labels_are_the_shared_constants():
    # every record holds the one SPAM/HAM string, not a copy per line
    jsonl = [json.dumps({"ts": 1, "from": "d.example", "to": ["a@u.example"],
                         "aux": aux, "truth": truth})
             for aux, truth in (("spam", "HAM"), ("Ham", "spam"))]
    tsv = ["1\td.example\ta@u.example\tSPAM", "1\td.example\ta@u.example\tham "]
    (s, h), _ = parse_lines(jsonl)
    assert s.aux_label is SPAM and s.truth is HAM
    assert h.aux_label is HAM and h.truth is SPAM
    (s, h), _ = parse_lines(tsv, fmt="tsv")
    assert s.aux_label is SPAM and h.aux_label is HAM


class TestWriteJsonl:
    def test_round_trip_with_header(self, tmp_path):
        records = [
            MessageRecord("a1", 5, "d.example", ("a@u.example",), "spam", "ham"),
            MessageRecord("a2", 6, "e.example", ("b@u.example",), "ham"),
        ]
        path = tmp_path / "out.jsonl"
        n = write_jsonl(str(path), records, header={"seed": 3})
        assert n == 2
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"header": {"seed": 3}}
        back, stats = read_records(str(path))
        assert back == records
        assert stats.comments == 1

    def test_header_line_reads_back_as_a_comment(self):
        buf = io.StringIO()
        write_header(buf, {"spamrank": "x", "seed": 3})
        assert buf.getvalue() == '{"header": {"seed": 3, "spamrank": "x"}}\n'
        stats = ParseStats()
        assert list(parse_stream(buf.getvalue().splitlines(), stats=stats)) == []
        assert stats.comments == 1

    def test_record_to_obj_omits_missing_truth(self):
        rec = MessageRecord("a1", 5, "d.example", ("a@u.example",), "spam")
        assert "truth" not in record_to_obj(rec)
        rec2 = MessageRecord("a1", 5, "d.example", ("a@u.example",), "spam", "spam")
        assert record_to_obj(rec2)["truth"] == "spam"
