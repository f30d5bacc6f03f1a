import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import hypersign as hs
from hypersign.errors import (
    DuplicateVertexInEdgeError,
    EmptyEdgeError,
    HypersignError,
    InvalidValueError,
    ParseError,
    VertexOutOfRangeError,
)


GOOD = """\
# a comment
vertices 3

edge first +1 -2
edge second +2 +3
"""


def test_parse_text_basic():
    g = hs.parse_text(GOOD)
    assert g.n == 3
    assert g.m == 2
    assert g.names == ("first", "second")
    assert g.orientation(0, 2) == -1


def test_parse_error_line_numbers():
    with pytest.raises(ParseError) as err:
        hs.parse_text("vertices 2\nvertices 3\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        hs.parse_text("edge e1 +1\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        hs.parse_text("vertices 2\nedge e1 +1\nedge e1 +2\n")
    assert err.value.line == 3
    assert "duplicate edge name 'e1'" in str(err.value)
    with pytest.raises(ParseError) as err:
        hs.parse_text("vertices 2\nedge e1 1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        hs.parse_text("vertices 2\nedge e1 +x\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        hs.parse_text("vertices two\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        hs.parse_text("frobnicate 3\n")
    with pytest.raises(ParseError):
        hs.parse_text("# nothing but comments\n")


def test_parse_text_accepts_ascii_digits_only():
    # str.isdigit also accepts superscripts (which int() rejects) and other
    # scripts' digits (which int() would read as numbers).
    for text, line in (
        ("vertices \u00b3\n", 1),
        ("vertices \uff13\n", 1),
        ("vertices 3\nedge e1 +1 -\u00b2\n", 2),
        ("vertices 3\nedge e1 +1 -\u0663\n", 2),
        ("vertices 3\n# note\nedge e1 +\u0967 -2\n", 3),
    ):
        with pytest.raises(ParseError) as err:
            hs.parse_text(text)
        assert err.value.line == line


def test_parse_text_propagates_structural_errors():
    with pytest.raises(VertexOutOfRangeError):
        hs.parse_text("vertices 2\nedge e1 +5\n")
    with pytest.raises(EmptyEdgeError):
        hs.parse_text("vertices 2\nedge e1\n")


BAD_SECOND_EDGES = [
    ([], "", EmptyEdgeError(1)),
    ([(4, 1)], "+4", VertexOutOfRangeError(1, 4, 3)),
    ([(2, 1), (2, -1)], "+2 -2", DuplicateVertexInEdgeError(1, 2)),
    ([(3, 2)], None, InvalidValueError("edge 1: orientation at vertex 3 must be +1 or -1")),
]


@pytest.mark.parametrize("edge, tokens, expected", BAD_SECOND_EDGES)
def test_every_reader_raises_the_same_construction_error(edge, tokens, expected):
    first = [(1, 1), (2, -1)]
    readers = [
        lambda: hs.build(3, [first, edge]),
        lambda: hs.from_json_dict({"n": 3, "edges": [
            {"name": name, "incidences": [{"v": v, "sign": s} for v, s in spec]}
            for name, spec in (("a", first), ("b", edge))
        ]}),
    ]
    if tokens is not None:
        readers.append(lambda: hs.parse_text(f"vertices 3\nedge a +1 -2\nedge b {tokens}\n"))
    for read in readers:
        with pytest.raises(type(expected)) as err:
            read()
        assert type(err.value) is type(expected) and err.value.args == expected.args


def test_serialize_is_canonical(ex):
    text = hs.serialize(ex, "ohg")
    lines = text.splitlines()
    assert lines[0] == "vertices 6"
    assert lines[1] == "edge e1 +1 -2 +3 +4"
    # round trip is exact
    assert hs.parse(text) == ex
    with pytest.raises(ValueError):
        hs.serialize(ex, "xml")


def test_serialize_sorts_incidences_by_vertex():
    g = hs.build(3, [[(3, 1), (1, -1)]])
    assert "edge e1 -1 +3" in hs.serialize(g, "ohg")


def test_json_round_trip(ex):
    blob = hs.serialize(ex, "json")
    data = json.loads(blob)
    assert data["n"] == 6
    assert data["edges"][0]["name"] == "e1"
    assert hs.parse(blob) == ex
    assert hs.from_json_dict(hs.to_json_dict(ex)) == ex


def test_parse_sniffs_json_and_text(ex):
    assert hs.parse(hs.serialize(ex, "json")) == ex
    assert hs.parse(hs.serialize(ex, "ohg")) == ex
    with pytest.raises(ParseError):
        hs.parse("{not json")


def test_save_and_load(tmp_path, ex):
    text_path = tmp_path / "instance.ohg"
    hs.save(ex, text_path)
    assert hs.load(text_path) == ex
    json_path = tmp_path / "instance.json"
    hs.save(ex, json_path)
    assert json.loads(json_path.read_text())["n"] == 6
    assert hs.load(json_path) == ex


def test_parse_takes_content_and_load_takes_a_path(tmp_path, monkeypatch, ex, e1):
    monkeypatch.chdir(tmp_path)
    hs.save(ex, tmp_path / "x.ohg")
    hs.save(e1, "vertices_e1.ohg")
    for name, g in ((str(tmp_path / "x.ohg"), ex), ("vertices_e1.ohg", e1)):
        assert hs.load(name) == hs.load(Path(name)) == g
        # The name is content to parse, and it is no instance.
        with pytest.raises(ParseError, match="line 1: unknown directive"):
            hs.parse(name)
    with pytest.raises(FileNotFoundError):
        hs.load("missing.ohg")


@pytest.mark.parametrize("value", [5, None, b"vertices 3\n", 1.5, ["vertices 3"]])
def test_content_and_names_must_be_str(value):
    for read, name in ((hs.parse, "text"), (hs.parse_text, "text"),
                       (hs.load_bundled, "name")):
        with pytest.raises(InvalidValueError, match=f"^{name} must be a str"):
            read(value)


def test_a_file_descriptor_is_no_path(ex):
    # open() would read an integer as a file descriptor and close it when
    # done, so the descriptor here is a pipe's, never a standard stream's.
    # Its write end is closed first, so a read of it cannot block.
    read, write = os.pipe()
    os.write(write, hs.serialize(ex).encode())
    os.close(write)
    try:
        for path in (read, np.int64(read), b"x.ohg"):
            with pytest.raises(InvalidValueError, match="path must be a str or os.PathLike"):
                hs.load(path)
            with pytest.raises(InvalidValueError, match="path must be a str or os.PathLike"):
                hs.save(ex, path)
        assert os.read(read, 100).startswith(b"vertices 6\n")  # still open, and unread
    finally:
        os.close(read)


def test_bundled_fixtures_parse(ex, e1, triangle):
    names = hs.bundled_names()
    assert set(names) >= {"e1", "ex_c3_42", "triangle_one_negative"}
    assert hs.load_bundled("ex_c3_42").edges == ex.edges
    assert hs.load_bundled("e1.ohg").edges == e1.edges
    assert hs.load_bundled("triangle_one_negative").edges == triangle.edges


def test_load_bundled_refuses_names_it_does_not_ship():
    shipped = re.escape(", ".join(hs.bundled_names()))
    for name in ("nope", "../__init__", "../data/e1", "e1.ohg.ohg", "E1", ""):
        with pytest.raises(InvalidValueError, match=f"no bundled instance .*; shipped: {shipped}$"):
            hs.load_bundled(name)


def test_round_trip_random_instances():
    import random

    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = hs.generate(
            n,
            rng.randint(0, 5),
            size_range=(1, min(4, n)),
            p_neg=0.5,
            seed=rng.randrange(2**32),
        )
        assert hs.parse(hs.serialize(g, "ohg")) == g
        assert hs.parse(hs.serialize(g, "json")) == g


def test_parse_one_line_content(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert hs.parse("vertices 3") == hs.build(3, [])
    assert hs.parse('{"n": 2, "edges": []}') == hs.build(2, [])
    with pytest.raises(ParseError):
        hs.parse("{not json")


def json_instance(n="3", name='"a"', v="1", sign="1", second='"b"') -> str:
    """A two-edge instance in the JSON mirror, with raw JSON text spliced in."""
    return (
        f'{{"n": {n}, "edges": ['
        f'{{"name": {name}, "incidences": [{{"v": {v}, "sign": {sign}}}, '
        f'{{"v": 2, "sign": -1}}]}}, '
        f'{{"name": {second}, "incidences": [{{"v": 3, "sign": 1}}]}}]}}'
    )


# Each is refused by the JSON reader with a ParseError.
BAD_JSON = [
    *(dict(n=n) for n in ('"abc"', '"3"', "1e400", "3.7", "3.0", "true", "null")),
    *(dict(v=v) for v in ('"1"', "1.0", "true", "null")),
    *(dict(sign=s) for s in ('"+"', "1.0", "-1.0", "true", "false")),
    *(dict(name=name) for name in ('""', '{"a": 1}', '"a b"', '"a\\tb"', "7", "null")),
    dict(second='"a"'),
    dict(n="1" * 5000),
]


@pytest.mark.parametrize("fields", BAD_JSON)
def test_json_reader_takes_integers_and_text_format_names_only(fields):
    with pytest.raises(ParseError):
        hs.parse(json_instance(**fields))


def test_json_reader_refuses_nesting_too_deep_to_decode():
    with pytest.raises(ParseError):
        hs.parse('{"n": ' + "[" * 100_000)


def test_json_reader_accepts_the_names_the_text_format_holds():
    g = hs.parse(json_instance(name='"+1"', second='"e#2"'))
    assert g.names == ("+1", "e#2")
    assert hs.parse(hs.serialize(g)) == g


@pytest.mark.parametrize("fields, message", [
    (dict(n="-1"), "vertex count must be nonnegative"),
    (dict(sign="2"), "edge 0: orientation at vertex 1 must be +1 or -1"),
    (dict(sign="0"), "edge 0: orientation at vertex 1 must be +1 or -1"),
])
def test_json_values_out_of_range_are_typed_value_errors(fields, message):
    with pytest.raises(InvalidValueError) as err:
        hs.parse(json_instance(**fields))
    assert isinstance(err.value, HypersignError) and isinstance(err.value, ValueError)
    assert err.value.args == (message,)


def test_text_reader_refuses_numbers_int_cannot_read():
    for text in ("vertices " + "1" * 5000 + "\n", "vertices 3\nedge a +" + "0" * 5000 + "1\n"):
        with pytest.raises(ParseError) as err:
            hs.parse_text(text)
        assert "number too long" in str(err.value)
