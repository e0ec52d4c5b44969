"""Unit tests for the JSON-lines wire protocol."""

import json

import pytest

from repro.service.protocol import (
    MAX_BATCH_REQUESTS,
    MAX_LINE_BYTES,
    MAX_NAME_LENGTH,
    ProtocolError,
    encode_response,
    parse_request,
)


def line(**payload):
    return json.dumps(payload)


class TestParseAdmit:
    def test_full_admit(self):
        request = parse_request(line(
            op="admit", id="r1", channel="A", arrival=120,
            execution=3, deadline=500))
        assert request.op == "admit"
        assert request.id == "r1"
        assert request.fields == {
            "channel": "A", "arrival": 120, "execution": 3,
            "deadline": 500, "name": "r1"}

    def test_name_defaults_from_id(self):
        request = parse_request(line(
            op="admit", id="r9", channel="B", arrival=0,
            execution=1, deadline=10))
        assert request.fields["name"] == "r9"

    def test_explicit_name_wins(self):
        request = parse_request(line(
            op="admit", id="r9", name="task-1", channel="B",
            arrival=0, execution=1, deadline=10))
        assert request.fields["name"] == "task-1"

    def test_missing_name_and_id_rejected(self):
        with pytest.raises(ProtocolError, match="name"):
            parse_request(line(op="admit", channel="A", arrival=0,
                               execution=1, deadline=10))

    @pytest.mark.parametrize("field,value", [
        ("arrival", -1), ("execution", 0), ("deadline", 0),
        ("arrival", 1.5), ("execution", "3"), ("deadline", None),
        ("arrival", True),  # bool is not an acceptable integer
    ])
    def test_bad_numeric_fields(self, field, value):
        payload = {"op": "admit", "id": "r1", "channel": "A",
                   "arrival": 0, "execution": 1, "deadline": 10,
                   field: value}
        with pytest.raises(ProtocolError):
            parse_request(json.dumps(payload))

    def test_missing_channel(self):
        with pytest.raises(ProtocolError, match="channel"):
            parse_request(line(op="admit", id="r1", arrival=0,
                               execution=1, deadline=10))


class TestParseOthers:
    def test_release(self):
        request = parse_request(line(op="release", channel="A", name="j"))
        assert request.fields == {"channel": "A", "name": "j"}

    def test_stats_and_ping_carry_no_fields(self):
        assert parse_request(line(op="stats")).fields == {}
        assert parse_request(line(op="ping", id="p")).id == "p"

    def test_plan_retransmission(self):
        request = parse_request(line(
            op="plan_retransmission", rho=0.9999,
            messages={"m1": {"failure_probability": 1e-3,
                             "instances": 20.0, "cost": 2.0}}))
        assert request.fields["rho"] == 0.9999
        assert request.fields["messages"]["m1"]["cost"] == 2.0

    @pytest.mark.parametrize("rho", [0.0, -0.1, 1.5, "high", True])
    def test_plan_bad_rho(self, rho):
        with pytest.raises(ProtocolError):
            parse_request(line(
                op="plan_retransmission", rho=rho,
                messages={"m": {"failure_probability": 0.1,
                                "instances": 1.0}}))

    def test_plan_bad_probability(self):
        with pytest.raises(ProtocolError, match="failure_probability"):
            parse_request(line(
                op="plan_retransmission", rho=0.9,
                messages={"m": {"failure_probability": 1.0,
                                "instances": 1.0}}))


class TestMalformed:
    @pytest.mark.parametrize("text", [
        "not json at all",
        "[1, 2, 3]",
        '"just a string"',
        '{"op": 42}',
        '{"op": "fly"}',
        '{"op": "admit", "id": 7, "channel": "A", "arrival": 0, '
        '"execution": 1, "deadline": 10}',
    ])
    def test_rejected_with_protocol_error(self, text):
        with pytest.raises(ProtocolError):
            parse_request(text)

    def test_oversize_line(self):
        huge = line(op="ping", id="x" * (MAX_LINE_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            parse_request(huge)


class TestEncode:
    def test_newline_terminated_sorted_keys(self):
        encoded = encode_response({"b": 1, "a": 2})
        assert encoded.endswith(b"\n")
        assert encoded == b'{"a":2,"b":1}\n'

    def test_roundtrip(self):
        payload = {"status": "accepted", "id": "r1", "window_slack": 4}
        assert json.loads(encode_response(payload)) == payload


class TestParseAdmitBatch:
    def entry(self, **overrides):
        base = {"channel": "A", "name": "t1", "arrival": 0,
                "execution": 1, "deadline": 10}
        base.update(overrides)
        return base

    def test_valid_batch(self):
        request = parse_request(line(
            op="admit_batch", id="b1",
            requests=[self.entry(name="t1"),
                      self.entry(name="t2", channel="B", arrival=5)]))
        assert request.op == "admit_batch"
        assert request.id == "b1"
        first, second = request.fields["requests"]
        assert first == {"channel": "A", "arrival": 0, "execution": 1,
                         "deadline": 10, "name": "t1"}
        assert second["channel"] == "B"
        assert second["arrival"] == 5

    def test_invalid_entry_is_isolated(self):
        request = parse_request(line(
            op="admit_batch",
            requests=[self.entry(),
                      self.entry(execution=0),
                      self.entry(name="t3")]))
        parsed = request.fields["requests"]
        assert "invalid" not in parsed[0]
        assert "execution" in parsed[1]["invalid"]
        assert "invalid" not in parsed[2]

    def test_non_object_entry_is_isolated(self):
        request = parse_request(line(
            op="admit_batch", requests=[self.entry(), 42]))
        assert request.fields["requests"][1] == {
            "invalid": "entry must be an object"}

    def test_entry_requires_explicit_name(self):
        # Batch entries have no line-level id to default the name from.
        request = parse_request(line(
            op="admit_batch", requests=[self.entry(name=None)]))
        assert "name" in request.fields["requests"][0]["invalid"]

    def test_empty_batch_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_request(line(op="admit_batch", requests=[]))

    def test_non_list_batch_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_request(line(op="admit_batch", requests={"a": 1}))

    def test_oversized_batch_rejected(self):
        entries = [self.entry(name=f"t{i}")
                   for i in range(MAX_BATCH_REQUESTS + 1)]
        with pytest.raises(ProtocolError, match="exceeds"):
            parse_request(line(op="admit_batch", requests=entries))


class TestNameLength:
    """``name`` and ``channel`` are bounded: the ledger keeps a name and
    every reply echoes it."""

    long = "n" * (MAX_NAME_LENGTH + 1)

    def admit(self, **overrides):
        payload = {"op": "admit", "id": "r1", "channel": "A",
                   "arrival": 0, "execution": 1, "deadline": 10}
        payload.update(overrides)
        return json.dumps(payload)

    def test_longest_name_accepted(self):
        name = "n" * MAX_NAME_LENGTH
        assert parse_request(self.admit(name=name)).fields["name"] == name

    @pytest.mark.parametrize("field", ["name", "id", "channel"])
    def test_admit_rejects_long_name_or_channel(self, field):
        # A long id is the defaulted name.
        with pytest.raises(ProtocolError, match="exceeds"):
            parse_request(self.admit(**{field: self.long}))

    def test_release_rejects_long_name_and_channel(self):
        for field in ("name", "channel"):
            payload = {"op": "release", "channel": "A", "name": "j",
                       field: self.long}
            with pytest.raises(ProtocolError, match=field):
                parse_request(json.dumps(payload))

    def test_batch_entry_error_stays_isolated(self):
        entries = [{"channel": "A", "name": name, "arrival": 0,
                    "execution": 1, "deadline": 10}
                   for name in ("t1", self.long, "t3")]
        parsed = parse_request(line(op="admit_batch",
                                    requests=entries)).fields["requests"]
        assert "invalid" not in parsed[0]
        assert "exceeds" in parsed[1]["invalid"]
        assert "invalid" not in parsed[2]
