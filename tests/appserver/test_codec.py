"""The positional frame headers and the span rows, as properties.

A request's environment and a worker's span tree are the two things a
frame carries besides the body.  Both must come back unchanged, and
anything a peer could send that is not the exported shape must be a
:class:`CgiProtocolError` — never a ``TypeError`` or ``IndexError``
escaping into the dispatcher or the worker.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appserver import protocol
from repro.cgi.environ import CgiEnvironment, cgi_headers
from repro.cgi.request import CgiRequest, CgiResponse
from repro.errors import CgiProtocolError
from repro.obs.trace import Span, Tracer

#: Any text JSON can carry, non-BMP characters included (no lone
#: surrogates: a ``str`` from a decoded HTTP request never has one).
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
HEADER_NAMES = st.sampled_from(["accept", "Accept", "AUTHORIZATION",
                                "x_forwarded_for", "X-Forwarded-For",
                                "Content-Type", "host"])


@st.composite
def environments(draw) -> CgiEnvironment:
    pairs = draw(st.lists(st.tuples(HEADER_NAMES, TEXT), max_size=6))
    return CgiEnvironment(
        request_method=draw(st.sampled_from(["GET", "POST", "HEAD"])),
        script_name=draw(TEXT), path_info=draw(TEXT),
        query_string=draw(TEXT), content_type=draw(TEXT),
        content_length=draw(st.integers(0, 2**40)),
        server_name=draw(TEXT), server_port=draw(st.integers(0, 65535)),
        remote_addr=draw(TEXT), remote_user=draw(TEXT),
        tenant=draw(TEXT), http_headers=cgi_headers(pairs),
        trace_id=draw(TEXT))


class TestRequestHeader:
    @settings(max_examples=150, deadline=None)
    @given(environ=environments(), body=st.binary(max_size=64))
    def test_round_trip_preserves_every_field(self, environ, body):
        decoded = protocol.decode_request(
            protocol.encode_request(CgiRequest(environ, stdin=body)))
        assert decoded.environ == environ
        assert decoded.stdin == body

    def test_non_bmp_text_and_a_repeated_header(self):
        environ = CgiEnvironment(
            query_string="q=\U0001F600", remote_user="\U00010348",
            http_headers=cgi_headers([("accept", "text/html"),
                                      ("ACCEPT", "application/json")]))
        assert environ.http_headers == {"Accept": "application/json"}
        decoded = protocol.decode_request(
            protocol.encode_request(CgiRequest(environ)))
        assert decoded.environ == environ


def request_payload(header) -> bytes:
    encoded = json.dumps(header).encode()
    return struct.pack(">I", len(encoded)) + encoded


def good_header() -> list:
    return json.loads(protocol.encode_request(CgiRequest(
        CgiEnvironment(http_headers={"Host": "h"})))[4:])


def with_field(index, value) -> list:
    header = good_header()
    header[index] = value
    return header


#: Every header shape a decoder must refuse (CONTENT_LENGTH is field 5,
#: SERVER_PORT 7, the header dict 11).
MALFORMED_REQUESTS = {
    "no fields": [],
    "one field short": good_header()[:-1],
    "one field over": good_header() + [""],
    "an object": {"environ": {}},
    "bool for an int": with_field(5, True),
    "str for an int": with_field(7, "80"),
    "float for an int": with_field(5, 1.0),
    "null for a str": with_field(0, None),
    "int header value": with_field(11, {"Host": 5}),
    "null header value": with_field(11, {"Host": None}),
    "list for the headers": with_field(11, [["Host", "h"]]),
}


class TestMalformedRequestHeader:
    @pytest.mark.parametrize("header", MALFORMED_REQUESTS.values(),
                             ids=MALFORMED_REQUESTS.keys())
    def test_is_a_protocol_error(self, header):
        with pytest.raises(CgiProtocolError):
            protocol.decode_request(request_payload(header))

    def test_the_good_header_decodes(self):
        decoded = protocol.decode_request(request_payload(good_header()))
        assert decoded.environ.http_headers == {"Host": "h"}


def response_payload(header) -> bytes:
    encoded = json.dumps(header).encode()
    return struct.pack(">I", len(encoded)) + encoded + b"body"


class TestResponseHeader:
    def test_round_trip_with_rows(self):
        rows = [["worker", -1, 0, 150, {"pid": 7}],
                ["sql.execute", 0, 20, 9, {}]]
        response = protocol.decode_response(protocol.encode_response(
            CgiResponse(status=404, reason="Not Found",
                        headers=[("X-A", "1"), ("X-A", "2")], body=b"b"),
            trace=rows))
        assert (response.status, response.reason) == (404, "Not Found")
        assert response.headers == [("X-A", "1"), ("X-A", "2")]
        assert response.trace == rows
        assert response.body == b"b"

    @pytest.mark.parametrize("header", [
        [200, "OK", []], [200, "OK", [], None, None], {"status": 200},
        [True, "OK", [], None], ["200", "OK", [], None],
        [200, None, [], None], [200, "OK", [["A"]], None],
        [200, "OK", [["A", 1]], None], [200, "OK", ["A: b"], None],
        [200, "OK", [], {"name": "worker"}],
    ])
    def test_malformed_is_a_protocol_error(self, header):
        with pytest.raises(CgiProtocolError):
            protocol.decode_response(response_payload(header))


# -- span rows -------------------------------------------------------------

ATTR_VALUES = st.one_of(TEXT, st.integers(-2**40, 2**40), st.booleans(),
                        st.none())


@st.composite
def span_trees(draw) -> Span:
    """A finished tree on a synthetic clock: each span starts inside
    its parent and takes a random share of it."""
    count = draw(st.integers(1, 12))
    root = Span("worker", "t", None, draw(st.dictionaries(
        TEXT, ATTR_VALUES, max_size=3)) or None)
    root.start, root.end = 5.0, 5.0 + draw(st.floats(0, 0.05))
    spans = [root]
    for _ in range(count - 1):
        parent = spans[draw(st.integers(0, len(spans) - 1))]
        span = Span(draw(TEXT), "t", parent.span_id,
                    draw(st.dictionaries(TEXT, ATTR_VALUES, max_size=3))
                    or None)
        length = parent.end - parent.start
        span.start = parent.start + draw(st.floats(0, 1)) * length
        span.end = span.start + draw(st.floats(0, 1)) * (
            parent.end - span.start)
        parent.add_child(span)
        spans.append(span)
    return root


def shape(root: Span) -> list:
    """Each span's name, parent position and attrs, depth-first."""
    order = list(root.walk())
    position = {id(span): index for index, span in enumerate(order)}
    parents = {id(child): position[id(span)] for span in order
               for child in span._children or ()}
    return [(span.name, parents.get(id(span), -1), span._attrs or {})
            for span in order]


@pytest.fixture()
def tracer():
    tracer = Tracer()
    tracer.enable()
    return tracer


class TestSpanRows:
    @settings(max_examples=150, deadline=None)
    @given(tree=span_trees())
    def test_graft_of_export_keeps_the_tree(self, tree):
        tracer = Tracer()
        tracer.enable()
        # Through the codec, as a worker's rows reach the dispatcher.
        rows = protocol.decode_response(protocol.encode_response(
            CgiResponse(), trace=tree.export())).trace
        act = tracer.begin("appserver.dispatch", trace_id="live")
        grafted = tracer.graft(rows)
        act.finish()
        assert act.span.children == [grafted]
        assert grafted.parent_id == act.span.span_id
        assert shape(grafted) == shape(tree)
        for copy, original in zip(grafted.walk(), tree.walk()):
            assert copy.trace_id == "live" and copy.remote
            assert abs(copy.duration_ms - original.duration_ms) <= 0.001

    @pytest.mark.parametrize("rows", [
        [["worker", -1, 0, 5, {}], ["a", 1, 0, 1, {}]],
        [["worker", -1, 0, 5, {}], ["a", 2, 0, 1, {}],
         ["b", 0, 0, 1, {}]],
        [["worker", -1, 0, 5, {}], ["a", 7, 0, 1, {}]],
        [["worker", -1, 0, 5, {}], ["a", -1, 0, 1, {}]],
        [["worker", -2, 0, 5, {}]],
        [["worker", 0, 0, 5, {}]],
        [["worker", -1, True, 5, {}]],
        [["worker", -1, 0, "5", {}]],
        [["worker", False, 0, 5, {}]],
        [["worker", -1, 0, 5]],
        [["worker", -1, 0, 5, {}, None]],
        [[5, -1, 0, 5, {}]],
        [["worker", -1, 0, 5, []]],
        [{"name": "worker"}],
        [None],
    ], ids=["own-row", "forward", "out-of-range", "negative-past-row-0",
            "negative-root", "root-names-itself", "bool-offset",
            "str-duration", "bool-parent", "four-fields", "six-fields",
            "int-name", "list-attrs", "object-row", "null-row"])
    def test_malformed_rows_are_a_protocol_error(self, tracer, rows):
        act = tracer.begin("appserver.dispatch")
        with pytest.raises(CgiProtocolError):
            tracer.graft(rows)
        act.finish()
        assert not act.span.children  # nothing half-attached
