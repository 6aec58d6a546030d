"""The QUERY_STRING codec: RFC 1738 form-urlencoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cgi.query_string import (
    decode_component,
    decode_pairs,
    encode_component,
    encode_pairs,
)


class TestEncoding:
    @pytest.mark.parametrize("text,encoded", [
        ("plain", "plain"),
        ("two words", "two+words"),
        ("a&b=c", "a%26b%3Dc"),
        ("100%", "100%25"),
        ("", ""),
        ("café", "caf%C3%A9"),
        ("a+b", "a%2Bb"),
    ])
    def test_encode_component(self, text, encoded):
        assert encode_component(text) == encoded

    def test_encode_pairs_preserves_order(self):
        pairs = [("b", "2"), ("a", "1"), ("b", "3")]
        assert encode_pairs(pairs) == "b=2&a=1&b=3"


class TestDecoding:
    @pytest.mark.parametrize("encoded,text", [
        ("two+words", "two words"),
        ("a%26b", "a&b"),
        ("caf%C3%A9", "café"),
        ("%41", "A"),
        ("100%", "100%"),           # lenient: bad escape is literal
        ("%zz", "%zz"),
        ("%4", "%4"),
    ])
    def test_decode_component(self, encoded, text):
        assert decode_component(encoded) == text

    def test_decode_pairs_figure3_example(self):
        # The multi-valued DBFIELD of Section 2.2 / Figure 3.
        query = ("SEARCH=&USE_URL=yes&USE_TITLE=yes"
                 "&DBFIELD=title&DBFIELD=desc")
        assert decode_pairs(query) == [
            ("SEARCH", ""),
            ("USE_URL", "yes"),
            ("USE_TITLE", "yes"),
            ("DBFIELD", "title"),
            ("DBFIELD", "desc"),
        ]

    def test_field_without_equals(self):
        assert decode_pairs("flag&x=1") == [("flag", ""), ("x", "1")]

    def test_empty_fields_skipped(self):
        assert decode_pairs("a=1&&b=2&") == [("a", "1"), ("b", "2")]

    def test_empty_query(self):
        assert decode_pairs("") == []

    def test_value_containing_equals(self):
        assert decode_pairs("eq=a%3Db=c") == [("eq", "a=b=c")]


class TestRoundTrip:
    pair_strategy = st.tuples(
        st.text(min_size=1, max_size=12).filter(lambda s: s.strip()),
        st.text(max_size=24),
    )

    @given(st.lists(pair_strategy, max_size=8))
    def test_pairs_roundtrip(self, pairs):
        """decode(encode(pairs)) == pairs for arbitrary names/values."""
        assert decode_pairs(encode_pairs(pairs)) == pairs

    @given(st.text(max_size=40))
    def test_component_roundtrip(self, text):
        assert decode_component(encode_component(text)) == text

    @given(st.text(max_size=40))
    def test_decode_is_total(self, junk):
        """Arbitrary junk never raises (servers must survive anything)."""
        decode_component(junk)
        decode_pairs(junk)


def loop_decode(text: str) -> str:
    """The character loop of ``decode_component``, kept verbatim as the
    reference its fast path must agree with."""
    out = bytearray()
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "+":
            out.append(0x20)
            i += 1
        elif ch == "%" and i + 2 < n + 1 and _is_hex(text[i + 1:i + 3]):
            out.append(int(text[i + 1:i + 3], 16))
            i += 3
        else:
            out.extend(ch.encode("utf-8"))
            i += 1
    return out.decode("utf-8", "replace")


def _is_hex(pair: str) -> bool:
    return len(pair) == 2 and all(c in "0123456789abcdefABCDEF"
                                  for c in pair)


class TestDecodeFastPath:
    """A component with neither ``+`` nor ``%`` is returned as it came."""

    #: every character class the loop treats differently, over-sampled:
    #: escapes whole and broken, the latin-1 range a request line is
    #: decoded from, and whatever else Hypothesis finds
    component = st.text(max_size=24, alphabet=st.one_of(
        st.sampled_from("+%4zZaF09 =&"),
        st.characters(min_codepoint=0x80, max_codepoint=0xFF),
        st.characters()))

    @given(component)
    def test_agrees_with_the_character_loop(self, text):
        try:
            expected = loop_decode(text)
        except UnicodeEncodeError:
            return  # a lone surrogate: the loop accepts no such text
        assert decode_component(text) == expected

    @pytest.mark.parametrize("text", [
        "", "plain", "%", "100%", "%zz", "trailing%4", "%4", "a+b",
        "café", "ÿþ", "%C3%A9", "%c3", "€", "%%41",
    ])
    def test_named_cases_agree(self, text):
        assert decode_component(text) == loop_decode(text)

    def test_untouched_text_is_the_same_object(self):
        text = "SEARCH"
        assert decode_component(text) is text
