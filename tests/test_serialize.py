"""Wire form of matrices: the whole-array parse and emit paths against
per-entry references, and the exact error of each malformed entry."""

import json

import numpy as np
import pytest

from krausblocks.errors import ParseError
from krausblocks.serialize import (
    dumps_report,
    matrix_to_wire,
    parse_channel_ops,
    parse_measurement,
    parse_operator,
    wire_to_matrix,
)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
           1.0, -3.0, 1e16, 2.0**53 + 2, 0.1, 1 / 3]


def fuzz_matrices(seed, count=40):
    """Complex matrices of random shape whose entries span the float range,
    with special values and integer-valued entries mixed in."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rows, cols = rng.integers(1, 9, size=2)
        n = 2 * rows * cols
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, size=n)
        special = rng.random(n) < 0.3
        x[special] = rng.choice(SPECIAL, size=special.sum())
        integral = rng.random(n) < 0.1
        x[integral] = np.round(rng.uniform(-1e6, 1e6, size=integral.sum()))
        yield x.view(complex).reshape(rows, cols)


def reference_parse(data):
    """The per-entry conversion the whole-array parse replaces."""
    return np.array([complex(float(re), float(im)) for re, im in data], dtype=complex)


def reference_emit(wire):
    """Each float printed on its own with ``repr``."""
    return "[" + ",".join("[" + repr(re) + "," + repr(im) + "]" for re, im in wire) + "]"


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_exact(self, seed):
        for m in fuzz_matrices(seed):
            text = dumps_report({"m": matrix_to_wire(m)})
            back = wire_to_matrix(json.loads(text)["m"], *m.shape, "$.m")
            assert back.dtype == complex and back.shape == m.shape
            assert np.array_equal(bits(back), bits(m))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parse_matches_per_entry_reference(self, seed):
        for m in fuzz_matrices(seed):
            data = json.loads(json.dumps(matrix_to_wire(m)))
            got = wire_to_matrix(data, *m.shape, "$")
            assert np.array_equal(bits(got.reshape(-1)), bits(reference_parse(data)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_emit_matches_per_float_reference(self, seed):
        for m in fuzz_matrices(seed):
            wire = matrix_to_wire(m)
            assert dumps_report(wire) == reference_emit(wire)

    def test_emit_special_values(self):
        wire = [[x, -x] for x in SPECIAL] + [[-0.0, 0.0], [3.0, 4.0]]
        assert dumps_report(wire) == reference_emit(wire)
        assert dumps_report([[-0.0, 5e-324]]) == "[[-0.0,5e-324]]"

    def test_integer_pairs_keep_integer_form(self):
        # ints print as ints, not as floats
        text = dumps_report({"m": [[1, 0], [10**20, -2]]})
        assert text == '{"m":[[1,0],[100000000000000000000,-2]]}'

    def test_wire_is_plain_floats(self):
        m = np.array([[1 + 2j, -0.0], [3, 4j]])
        wire = matrix_to_wire(m)
        assert wire == [[1.0, 2.0], [-0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]
        assert all(type(x) is float for pair in wire for x in pair)
        json.dumps(wire)

    def test_wire_is_row_major_for_strided_input(self):
        m = np.arange(6).reshape(2, 3) + 1j * np.arange(6).reshape(2, 3)
        assert matrix_to_wire(m.T) == matrix_to_wire(np.ascontiguousarray(m.T))

    def test_integer_entries_parse_as_complex(self):
        got = wire_to_matrix([[1, 0]], 1, 1, "$")
        assert got.dtype == complex
        assert got[0, 0] == 1 + 0j

    def test_channel_ops_are_one_stack(self):
        doc = {"schema_version": "1", "dim": 2,
               "kraus": [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [1, 0]]]}
        dim, kraus = parse_channel_ops(json.dumps(doc))
        assert dim == 2
        assert kraus.shape == (2, 2, 2) and kraus.dtype == complex
        assert np.array_equal(kraus.sum(axis=0), np.eye(2))


GOOD = [[1, 0], [0, 0], [0, 0], [1, 0]]


def channel_with_entry(entry, index=2):
    bad = list(GOOD)
    bad[index] = entry
    return {"schema_version": "1", "dim": 2, "kraus": [GOOD, GOOD, bad]}


PAIR_MESSAGE = "entry must be a [re, im] pair of numbers"
FINITE_MESSAGE = "entry must be a [re, im] pair of finite numbers"

# (document, ParseError path, message), as the per-entry parse reported them
MALFORMED = {
    "true": (channel_with_entry(True), "$.kraus[2][2]", PAIR_MESSAGE),
    "string": (channel_with_entry("1"), "$.kraus[2][2]", PAIR_MESSAGE),
    "null": (channel_with_entry(None), "$.kraus[2][2]", PAIR_MESSAGE),
    "one number": (channel_with_entry([1]), "$.kraus[2][2]", PAIR_MESSAGE),
    "three numbers": (channel_with_entry([1, 2, 3]), "$.kraus[2][2]", PAIR_MESSAGE),
    "nested": (channel_with_entry([[1], 2]), "$.kraus[2][2]", PAIR_MESSAGE),
    "object": (channel_with_entry({"re": 1}), "$.kraus[2][2]", PAIR_MESSAGE),
    "boolean in pair": (channel_with_entry([True, 0]), "$.kraus[2][2]", PAIR_MESSAGE),
    "kraus entry not a list": (
        {"schema_version": "1", "dim": 2, "kraus": [GOOD, 5]},
        "$.kraus[1]", "matrix must be a list of [re, im] pairs"),
    "kraus list too short": (
        {"schema_version": "1", "dim": 2, "kraus": [GOOD, GOOD[:3], GOOD]},
        "$.kraus[1]", "expected 4 entries, got 3"),
    "kraus list too long": (
        {"schema_version": "1", "dim": 2, "kraus": [GOOD, GOOD + [[0, 0]], GOOD]},
        "$.kraus[1]", "expected 4 entries, got 5"),
    "first bad matrix wins": (
        {"schema_version": "1", "dim": 2, "kraus": [[[0, 0], "x", [0, 0], [0, 0]], [[0, 0]]]},
        "$.kraus[0][1]", PAIR_MESSAGE),
    "first bad entry wins": (
        {"schema_version": "1", "dim": 2, "kraus": [GOOD, [[0, 0], [0, 0], [0, 0], "x"], [1]]},
        "$.kraus[1][3]", PAIR_MESSAGE),
}


class TestMalformedEntries:
    @pytest.mark.parametrize("case", MALFORMED, ids=str)
    def test_channel(self, case):
        doc, path, message = MALFORMED[case]
        with pytest.raises(ParseError) as exc:
            parse_channel_ops(json.dumps(doc))
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"

    def test_measurement_element(self):
        doc = {"schema_version": "1", "dim": 2, "type": "povm",
               "elements": [GOOD, [[0.5, 0], [0, 0], [0, 0], [0.5, None]]]}
        with pytest.raises(ParseError) as exc:
            parse_measurement(json.dumps(doc))
        assert exc.value.path == "$.elements[1][3]"
        assert str(exc.value) == f"$.elements[1][3]: {PAIR_MESSAGE}"

    def test_measurement_element_not_a_list(self):
        doc = {"schema_version": "1", "dim": 2, "type": "povm", "elements": [GOOD, "x"]}
        with pytest.raises(ParseError) as exc:
            parse_measurement(json.dumps(doc))
        assert str(exc.value) == "$.elements[1]: matrix must be a list of [re, im] pairs"

    def test_operator(self):
        doc = {"schema_version": "1", "dim": 2, "matrix": [[1, 0], [0, 0], [0, 0], [1, 0, 0]]}
        with pytest.raises(ParseError) as exc:
            parse_operator(json.dumps(doc))
        assert str(exc.value) == f"$.matrix[3]: {PAIR_MESSAGE}"
        doc["matrix"] = [[1, 0]]
        with pytest.raises(ParseError) as exc:
            parse_operator(json.dumps(doc))
        assert str(exc.value) == "$.matrix: expected 4 entries, got 1"


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" + "0" * 400]


class TestNonFiniteEntries:
    @pytest.mark.parametrize("token", NON_FINITE, ids=lambda t: t[:10])
    @pytest.mark.parametrize("part", ["[%s, 0]", "[0, %s]"], ids=["re", "im"])
    def test_channel(self, token, part):
        text = ('{"schema_version": "1", "dim": 1, "kraus": [[[1, 0]], [[0, 0]], [%s]]}'
                % (part % token))
        with pytest.raises(ParseError) as exc:
            parse_channel_ops(text)
        assert exc.value.path == "$.kraus[2][0]"
        assert str(exc.value) == f"$.kraus[2][0]: {FINITE_MESSAGE}"

    def test_earlier_malformed_entry_wins(self):
        text = '{"schema_version": "1", "dim": 1, "kraus": [[[1, 0]], [true], [[NaN, 0]]]}'
        with pytest.raises(ParseError) as exc:
            parse_channel_ops(text)
        assert exc.value.path == "$.kraus[1][0]"

    @pytest.mark.parametrize("token", NON_FINITE, ids=lambda t: t[:10])
    def test_measurement_and_operator(self, token):
        text = ('{"schema_version": "1", "dim": 1, "type": "povm", "elements": [[[%s, 0]]]}'
                % token)
        with pytest.raises(ParseError) as exc:
            parse_measurement(text)
        assert exc.value.path == "$.elements[0][0]"
        text = '{"schema_version": "1", "dim": 1, "matrix": [[0, %s]]}' % token
        with pytest.raises(ParseError) as exc:
            parse_operator(text)
        assert exc.value.path == "$.matrix[0]"

    def test_largest_finite_values_pass(self):
        text = ('{"schema_version": "1", "dim": 1, "matrix": [[1.7976931348623157e308, '
                '-1.7976931348623157e308]]}')
        assert parse_operator(text)[0, 0] == complex(1.7976931348623157e308,
                                                     -1.7976931348623157e308)


class TestDocumentInput:
    """Every parser takes the document as text, UTF-8 bytes or an already
    decoded object, and checks the same header."""

    DOCS = {
        parse_channel_ops: {"schema_version": "1", "dim": 1, "kraus": [[[1, 0]]]},
        parse_measurement: {"schema_version": "1", "dim": 1, "type": "povm",
                            "elements": [[[1, 0]]]},
        parse_operator: {"schema_version": "1", "dim": 1, "matrix": [[1, 0]]},
    }
    PARSERS = list(DOCS)

    @staticmethod
    def operators(result):
        if isinstance(result, tuple):  # parse_channel_ops: (dim, stack)
            return result[1]
        return getattr(result, "elements", result)

    @pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("form", [str.encode, lambda s: bytearray(s.encode()), json.loads],
                             ids=["bytes", "bytearray", "object"])
    def test_forms_agree(self, parse, form):
        text = json.dumps(self.DOCS[parse])
        expected = np.asarray(self.operators(parse(text)))
        assert np.array_equal(np.asarray(self.operators(parse(form(text)))), expected)

    @pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("data", [b"[1]", [1], b"{", "\"x\""],
                             ids=["bytes-list", "list", "bytes-broken", "string"])
    def test_not_an_object(self, parse, data):
        with pytest.raises(ParseError) as exc:
            parse(data)
        assert exc.value.path == "$"
        message = "invalid JSON at line 1, column 2" if data == b"{" else \
            "document must be a JSON object"
        assert str(exc.value) == f"$: {message}"

    @pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("data", [b"\xff", bytearray(b'{"dim": "\xff"}'), "[" * 200000,
                                      b"[" * 200000],
                             ids=["bytes-not-utf8", "bytearray-not-utf8", "nested",
                                  "bytes-nested"])
    def test_undecodable(self, parse, data):
        with pytest.raises(ParseError) as exc:
            parse(data)
        assert exc.value.path == "$"
        assert str(exc.value).startswith("$: cannot decode the document: ")

    @pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("dim, path, message", [
        (0, "$.dim", "dim must be >= 1"),
        (-2, "$.dim", "dim must be >= 1"),
        (True, "$.dim", "field 'dim' must be an integer"),
        ("1", "$.dim", "field 'dim' has the wrong type"),
    ])
    def test_header(self, parse, dim, path, message):
        doc = json.dumps({**self.DOCS[parse], "dim": dim}).encode()
        with pytest.raises(ParseError) as exc:
            parse(doc)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("parse, key", [(parse_channel_ops, "kraus"),
                                            (parse_measurement, "elements")],
                             ids=["kraus", "elements"])
    def test_empty_list(self, parse, key):
        doc = json.dumps({**self.DOCS[parse], key: []}).encode()
        with pytest.raises(ParseError) as exc:
            parse(doc)
        assert str(exc.value) == f"$.{key}: {key} list must be nonempty"
