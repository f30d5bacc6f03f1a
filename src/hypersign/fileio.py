"""Instance files: a small line-oriented text format plus a JSON mirror.

Text format::

    # comment, blank lines ignored
    vertices 6
    edge e1 +1 -2 +3 +4

`+v` / `-v` encode the orientation at vertex v; the sign is mandatory.
The JSON mirror is {"n": ..., "edges": [{"name": ..., "incidences":
[{"v": ..., "sign": ...}]}]}; its reader takes n, v and sign only as
JSON integers, and edge names only as distinct, non-empty strings free
of whitespace, the names the text format can hold.  Serialization is
canonical — incidences sorted by vertex, edges kept in order — so
parse(serialize(g)) is g and serialize(parse(text)) canonicalizes text.

parse, parse_text and from_json_dict read content, load and save a file
named by a str or os.PathLike, and load_bundled an instance shipped with
the package, by name.
"""

from __future__ import annotations

import json
import re
from importlib import resources
from itertools import islice

import numpy as np

from .core import OrientedHypergraph, _by_edge
from .errors import InvalidValueError, ParseError, check_path, check_text

__all__ = [
    "parse",
    "parse_text",
    "load",
    "save",
    "serialize",
    "to_json_dict",
    "from_json_dict",
    "bundled_names",
    "load_bundled",
]


# An edge line's incidences when every one is a sign and at most 18 ASCII
# digits, which int64 holds, and they are parted by the blanks that
# numpy's text reader skips.  Other lines are checked token by token.
_INCIDENCES = re.compile(r"[+-][0-9]{1,18}(?:[ \t]+[+-][0-9]{1,18})*[ \t]*")


def _check_incidence_tokens(lineno: int, tokens: list[str]) -> None:
    """Raise ParseError at the first token that is not +v or -v; int()
    raises ValueError at one with more digits than it reads."""
    for token in tokens:
        if (
            len(token) < 2
            or token[0] not in "+-"
            or not (token.isascii() and token[1:].isdigit())
        ):
            raise ParseError(lineno, f"incidence token {token!r} must look like +3 or -3")
        int(token[1:])


def parse_text(text: str) -> OrientedHypergraph:
    """Parse the text format; syntax problems carry a 1-based line number."""
    check_text(text, "text")
    n: int | None = None
    chunks: list[str] = []  # each edge's incidence tokens, blank-separated
    sizes: list[int] = []
    names: dict[str, None] = {}  # insertion-ordered, O(1) repeat check
    plain = True  # every edge line matched _INCIDENCES
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.split(None, 2)
            if not tokens or tokens[0][0] == "#":
                continue
            if tokens[0] == "edge":
                if n is None:
                    raise ParseError(lineno, "'edge' before the 'vertices' line")
                if len(tokens) < 2:
                    raise ParseError(lineno, "expected: edge <name> <+v|-v> ...")
                name = tokens[1]
                if name in names:
                    raise ParseError(lineno, f"duplicate edge name {name!r}")
                incidences = tokens[2] if len(tokens) == 3 else ""
                if incidences and not _INCIDENCES.fullmatch(incidences):
                    split = incidences.split()
                    _check_incidence_tokens(lineno, split)
                    incidences, plain = " ".join(split), False
                chunks.append(incidences)
                sizes.append(incidences.count("+") + incidences.count("-"))
                names[name] = None
            elif tokens[0] == "vertices":
                if n is not None:
                    raise ParseError(lineno, "duplicate 'vertices' line")
                # ASCII digits only: str.isdigit also accepts superscripts and
                # other scripts' digits, which int() rejects or reads as numbers.
                if len(tokens) != 2 or not (tokens[1].isascii() and tokens[1].isdigit()):
                    raise ParseError(lineno, "expected: vertices <count>")
                n = int(tokens[1])
            else:
                raise ParseError(lineno, f"unknown directive {tokens[0]!r}")
    except ValueError:  # int() reads at most sys.get_int_max_str_digits() digits
        raise ParseError(lineno, "number too long") from None
    if n is None:
        raise ParseError(1, "missing 'vertices' line")
    blob = " ".join(chunks)
    if not plain:  # numbers int64 may not hold: the constructor checks them whole
        pairs = [(abs(v), -1 if v < 0 else 1) for v in map(int, blob.split())]
        return OrientedHypergraph(n, _by_edge(pairs, sizes), tuple(names))
    values = np.empty(0, np.intp)
    if any(sizes):  # only then: numpy reads a string of blanks as [0]
        values = np.fromstring(blob, dtype=np.intp, sep=" ")
    return OrientedHypergraph._read(n, sizes, np.abs(values), np.sign(values), tuple(names))


def _json_int(value, field: str) -> int:
    # bool is a subclass of int, but JSON true is not the number 1.
    if type(value) is not int:
        raise ParseError(0, f"{field!r} must be a JSON integer, got {value!r:.40}")
    return value


def from_json_dict(data: dict) -> OrientedHypergraph:
    try:
        n = _json_int(data["n"], "n")
        names: dict[str, None] = {}  # insertion-ordered, O(1) repeat check
        flat: list[int] = []  # vertex and sign of every incidence, edge by edge
        sizes: list[int] = []
        for j, entry in enumerate(data["edges"]):
            name = entry["name"]
            if not isinstance(name, str) or not name or any(map(str.isspace, name)):
                raise ParseError(
                    0, f"edge {j}: name {name!r:.40} must be a non-empty string "
                    "without whitespace"
                )
            if name in names:
                raise ParseError(0, f"edge {j}: duplicate edge name {name!r}")
            names[name] = None
            start = len(flat)
            for inc in entry["incidences"]:
                flat += (_json_int(inc["v"], "v"), _json_int(inc["sign"], "sign"))
            sizes.append((len(flat) - start) // 2)
    except (KeyError, TypeError) as exc:
        raise ParseError(0, f"malformed instance JSON: {exc}") from exc
    try:
        values = np.array(flat, dtype=np.intp)
    except OverflowError:  # the constructor reports the value whole
        edges = _by_edge(list(zip(flat[0::2], flat[1::2])), sizes)
        return OrientedHypergraph(n, edges, tuple(names))
    return OrientedHypergraph._read(n, sizes, values[0::2], values[1::2].copy(), tuple(names))


def _signed_members(g: OrientedHypergraph) -> tuple[list[int], list[int]]:
    """v or -v, for orientation +1 or -1, at every incidence, edge by edge
    and by vertex within an edge, and the size of every edge.  Read from
    the stored edges of an instance that has them, else from its incidence
    core, whose vertex rows list each vertex's edges in ascending order, so
    a stable regrouping by edge keeps every edge's members by vertex.
    Neither representation is built from the other."""
    if "edges" in vars(g):  # constructed, or a read instance whose edges were read
        codes = [v if s > 0 else -v for edge in g.edges for v, s in sorted(edge)]
        return codes, list(map(len, g.edges))
    core = g.incidence_core
    slots = core.slot[: core.size][core.indices[: core.size].argsort(kind="stable")]
    codes = (core.edge_major()[1][slots] + 1) * core.signs[slots]
    return codes.tolist(), core.edge_sizes().tolist()


def to_json_dict(g: OrientedHypergraph) -> dict:
    codes, sizes = _signed_members(g)
    incidences = ({"v": abs(c), "sign": 1 if c > 0 else -1} for c in codes)
    return {
        "n": g.n,
        "edges": [
            {"name": name, "incidences": list(islice(incidences, size))}
            for name, size in zip(g.names, sizes)
        ],
    }


def serialize(g: OrientedHypergraph, fmt: str = "ohg") -> str:
    """Canonical text (or JSON) form of an instance."""
    if fmt == "json":
        return json.dumps(to_json_dict(g), indent=2) + "\n"
    if fmt != "ohg":
        raise InvalidValueError(f"unknown format {fmt!r}")
    codes, sizes = _signed_members(g)
    # One format per edge size: "%+d" writes code v as "+v" and -v as "-v".
    formats = {size: "edge %s" + " %+d" * size for size in set(sizes)}
    lines, start = [f"vertices {g.n}"], 0
    for name, size in zip(g.names, sizes):
        lines.append(formats[size] % (name, *codes[start : start + size]))
        start += size
    return "\n".join(lines) + "\n"


def _parse_content(text: str) -> OrientedHypergraph:
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, f"bad JSON: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:  # too many digits or too deep
            raise ParseError(0, f"bad JSON: {exc}") from exc
        return from_json_dict(data)
    return parse_text(text)


def parse(text: str) -> OrientedHypergraph:
    """Parse content, text or JSON, told apart by shape; load reads a file."""
    return _parse_content(check_text(text, "text"))


def load(path) -> OrientedHypergraph:
    """Read an instance file, text or JSON, named by a str or os.PathLike."""
    with open(check_path(path), "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(0, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return _parse_content(text)


def save(g: OrientedHypergraph, path) -> None:
    """Write g to a file named by a str or os.PathLike: JSON if the name
    ends in .json, else the text format."""
    fmt = "json" if str(check_path(path)).endswith(".json") else "ohg"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(g, fmt))


def bundled_names() -> list[str]:
    """Names of the instances shipped with the package."""
    folder = resources.files(__package__).joinpath("data")
    return sorted(
        entry.name[: -len(".ohg")]
        for entry in folder.iterdir()
        if entry.name.endswith(".ohg")
    )


def load_bundled(name: str) -> OrientedHypergraph:
    """One of the shipped instances, by name (with or without .ohg)."""
    filename = name if check_text(name, "name").endswith(".ohg") else f"{name}.ohg"
    traversable = resources.files(__package__).joinpath("data").joinpath(filename)
    return _parse_content(traversable.read_text(encoding="utf-8"))
