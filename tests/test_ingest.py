import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from spamrank.ingest import write_header

from oracles import record_to_obj, reference_parse_jsonl


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

    def test_boolean_id_is_malformed(self):
        # a bool is an int to Python, but JSON's true is no number
        base = {"ts": 1, "from": "d.example", "to": ["a@u.example"], "aux": "ham"}
        lines = [json.dumps({**base, "id": True}), json.dumps({**base, "id": "y"}),
                 json.dumps({**base, "id": False}), json.dumps({**base, "id": 0})]
        records, stats = parse_lines(lines)
        assert [r.msg_id for r in records] == ["y", "0"]
        assert stats.skipped == 2
        assert reference_parse_jsonl(lines)[1]["skipped"] == 2

    def test_truth_side_channel_round_trips(self):
        line = json.dumps({"id": "x", "ts": 1, "from": "d.example",
                           "to": ["a@u.example"], "aux": "ham", "truth": "SPAM"})
        records, _ = parse_lines([line])
        assert records[0].truth == "spam"

    def test_header_and_comment_lines_are_not_data(self):
        fields = {"id": "x", "ts": 1, "from": "d.example",
                  "to": ["a@u.example"], "aux": "ham"}
        # a header key beside record fields is an unknown field, not a comment
        lines = [json.dumps({"header": {"seed": 1}}), "# note", json.dumps(fields),
                 json.dumps({"header": {"seed": 1}, **fields, "id": "h"})]
        records, stats = parse_lines(lines)
        assert [r.msg_id for r in records] == ["x", "h"]
        assert stats.comments == 2
        assert stats.skipped == 0

    @pytest.mark.parametrize("mutation", [
        lambda o: o.__delitem__("aux"),
        lambda o: o.__delitem__("to"),
        lambda o: o.__delitem__("ts"),
        lambda o: o.update(aux="junk"),
        lambda o: o.update(ts=True),
        lambda o: o.update(ts="soon"),
        lambda o: o.update(to=[]),
        lambda o: o.update(to="a@u.example"),
        lambda o: o.update({"from": 17}),
        lambda o: o.update(truth="junk"),
        lambda o: o.update(id=None),
        lambda o: o.update(header={"seed": 1}, ts="soon"),
        # the rest return the whole line: one JSON object, with nothing after it
        lambda o: json.dumps(o) + ' {"id": "z"}',
        lambda o: json.dumps(o) + "]",
        lambda o: "\ufeff" + json.dumps(o),
    ])
    def test_malformed_lines_are_skipped(self, mutation):
        obj = {"id": "x", "ts": 1, "from": "d.example",
               "to": ["a@u.example"], "aux": "ham"}
        line = mutation(obj) or json.dumps(obj)  # None: obj changed in place
        good = json.dumps({"id": "y", "ts": 2, "from": "d.example",
                           "to": ["a@u.example"], "aux": "ham"})
        records, stats = parse_lines([line, good, good])
        assert len(records) == 2
        assert stats.skipped == 1
        assert stats.comments == 0

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


# JSON punctuation, escapes, str.strip() whitespace that JSON does not
# allow, a byte-order mark, and the characters of addresses and labels
_EDIT_CHARS = '{}[]",:\\ \t\x1c\xa0\ufeff#@.-01eEnNsSpPaAmMhH'
_TEXT = st.text(alphabet=_EDIT_CHARS, max_size=6)
_PIECE = st.one_of(st.sampled_from(["\ufeff", "]", ' {"id": 1}', "\xa0"]), _TEXT)
_ADDRESS = st.sampled_from(["a@u.example", " B@U.example ", "c@v.example",
                            "d.example", "x@", "", "E@D.Example"])
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), _TEXT,
                    st.sampled_from([2.0, 2.5, float("inf")]))
_VALUE = st.one_of(_SCALAR, _ADDRESS, st.sampled_from(["spam", "HAM", "Spam"]),
                   st.lists(st.one_of(_ADDRESS, _SCALAR), max_size=3))
_GOOD = {"id": "x", "ts": 1, "from": "a@d.example", "to": ["b@u.example"],
         "aux": "ham"}


@st.composite
def _edited_line(draw) -> str:
    """A record line with some fields dropped or replaced, a header, or some
    other JSON value; then a few characters inserted or cut."""
    kind = draw(st.sampled_from(["record", "record", "record", "header", "other"]))
    if kind == "record":
        obj = dict(_GOOD)
        keys = [*_GOOD, "truth", "header", "extra"]
        for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
            if draw(st.booleans()):
                obj.pop(key, None)
            else:
                obj[key] = draw(_VALUE)
    elif kind == "header":
        obj = {"header": draw(_SCALAR)}
    else:
        obj = draw(st.one_of(_SCALAR, st.lists(_SCALAR, max_size=2)))
    line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.one_of(st.sampled_from([0, len(line)]), st.integers(0, len(line))))
        cut = draw(st.integers(0, 2))
        line = line[:at] + draw(_PIECE) + line[at + cut:]
    return line


class TestParseMatchesReference:
    """parse_stream against a json.loads-per-line reference (tests/oracles.py)."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.lists(_edited_line(), max_size=8))
    def test_same_records_and_tallies(self, lines):
        want, tally = reference_parse_jsonl(lines)
        stats = ParseStats()
        got: list[MessageRecord] = []
        refused = False
        try:
            got.extend(parse_stream(lines, stats=stats))
        except FormatError:
            refused = True
        assert got == want
        lines = tally.pop("lines")
        assert stats == ParseStats(**tally)
        # every line is a record, a skip or a comment
        assert stats.records + stats.skipped + stats.comments == lines
        assert refused == (tally["skipped"] > tally["records"])


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


# ids and addresses with quotes, backslashes, control characters, non-ASCII
# text and lone surrogates, all of which json.dumps escapes
_WIRE_TEXT = st.text(alphabet=st.one_of(
    st.characters(), st.sampled_from(list('"\\/\x00\x1f\x7f\u2028\ud800\U0001f4e7'))))
_WIRE_RECORD = st.builds(
    MessageRecord, _WIRE_TEXT, st.integers(), _WIRE_TEXT,
    st.lists(_WIRE_TEXT, max_size=3).map(tuple), st.sampled_from([SPAM, HAM]),
    st.sampled_from([None, SPAM, HAM]))


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

    def test_missing_truth_writes_no_truth_key(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(str(path), [
            MessageRecord("a1", 5, "d.example", ("a@u.example",), "spam"),
            MessageRecord("a1", 5, "d.example", ("a@u.example",), "spam", "spam"),
        ])
        first, second = map(json.loads, path.read_text().splitlines())
        assert "truth" not in first
        assert second["truth"] == "spam"

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(_WIRE_RECORD, max_size=4))
    def test_lines_are_what_json_dumps_writes(self, tmp_path, records):
        path = tmp_path / "out.jsonl"
        assert write_jsonl(str(path), records) == len(records)
        expected = "".join(json.dumps(record_to_obj(r)) + "\n" for r in records)
        assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("field,value", [
        (0, 7), (0, None), (0, b"a1"), (1, 5.0), (1, True), (1, "5"), (1, None),
        (2, None), (3, ("a@u.example", 3)), (4, None), (5, 1),
    ])
    def test_a_field_of_the_wrong_type_is_a_type_error(self, tmp_path, field, value):
        fields = ["a1", 5, "d.example", ("a@u.example",), "spam", "ham"]
        fields[field] = value
        with pytest.raises(TypeError):
            write_jsonl(str(tmp_path / "out.jsonl"), [MessageRecord(*fields)])
