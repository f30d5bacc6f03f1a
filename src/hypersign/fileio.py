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
"""

from __future__ import annotations

import errno
import json
import os
from importlib import resources

from .core import OrientedHypergraph
from .errors import ParseError

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


def parse_text(text: str) -> OrientedHypergraph:
    """Parse the text format; syntax problems carry a 1-based line number."""
    n: int | None = None
    edges: list[tuple[tuple[int, int], ...]] = []
    names: dict[str, None] = {}  # insertion-ordered, O(1) repeat check
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if tokens[0] == "vertices":
                if n is not None:
                    raise ParseError(lineno, "duplicate 'vertices' line")
                # ASCII digits only: str.isdigit also accepts superscripts and
                # other scripts' digits, which int() rejects or reads as numbers.
                if len(tokens) != 2 or not (tokens[1].isascii() and tokens[1].isdigit()):
                    raise ParseError(lineno, "expected: vertices <count>")
                n = int(tokens[1])
            elif tokens[0] == "edge":
                if n is None:
                    raise ParseError(lineno, "'edge' before the 'vertices' line")
                if len(tokens) < 2:
                    raise ParseError(lineno, "expected: edge <name> <+v|-v> ...")
                name = tokens[1]
                if name in names:
                    raise ParseError(lineno, f"duplicate edge name {name!r}")
                incidences = []
                for token in tokens[2:]:
                    if (
                        len(token) < 2
                        or token[0] not in "+-"
                        or not (token.isascii() and token[1:].isdigit())
                    ):
                        raise ParseError(
                            lineno, f"incidence token {token!r} must look like +3 or -3"
                        )
                    incidences.append((int(token[1:]), 1 if token[0] == "+" else -1))
                edges.append(tuple(incidences))
                names[name] = None
            else:
                raise ParseError(lineno, f"unknown directive {tokens[0]!r}")
    except ValueError:  # int() reads at most sys.get_int_max_str_digits() digits
        raise ParseError(lineno, "number too long") from None
    if n is None:
        raise ParseError(1, "missing 'vertices' line")
    return OrientedHypergraph(n, tuple(edges), tuple(names))


def _json_int(value, field: str) -> int:
    # bool is a subclass of int, but JSON true is not the number 1.
    if type(value) is not int:
        raise ParseError(0, f"{field!r} must be a JSON integer, got {value!r:.40}")
    return value


def from_json_dict(data: dict) -> OrientedHypergraph:
    try:
        n = _json_int(data["n"], "n")
        edges, names = [], {}  # names: insertion-ordered, O(1) repeat check
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
            edges.append(tuple(
                (_json_int(inc["v"], "v"), _json_int(inc["sign"], "sign"))
                for inc in entry["incidences"]
            ))
    except (KeyError, TypeError) as exc:
        raise ParseError(0, f"malformed instance JSON: {exc}") from exc
    return OrientedHypergraph(n, tuple(edges), tuple(names))


def to_json_dict(g: OrientedHypergraph) -> dict:
    return {
        "n": g.n,
        "edges": [
            {
                "name": g.names[j],
                "incidences": [
                    {"v": v, "sign": s} for v, s in sorted(g.edges[j])
                ],
            }
            for j in range(g.m)
        ],
    }


def serialize(g: OrientedHypergraph, fmt: str = "ohg") -> str:
    """Canonical text (or JSON) form of an instance."""
    if fmt == "json":
        return json.dumps(to_json_dict(g), indent=2) + "\n"
    if fmt != "ohg":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"vertices {g.n}"]
    for j in range(g.m):
        tokens = " ".join(
            f"{'+' if s > 0 else '-'}{v}" for v, s in sorted(g.edges[j])
        )
        lines.append(f"edge {g.names[j]} {tokens}".rstrip())
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


def parse(source: str) -> OrientedHypergraph:
    """Parse a path or raw content (text or JSON, sniffed by shape).

    A string without a newline that names an existing file is a path;
    anything else is content.  A one-line string that names no file and
    fails to parse as text names a missing file: FileNotFoundError.
    """
    if "\n" not in source and os.path.isfile(source):
        return load(source)
    try:
        return _parse_content(source)
    except ParseError as exc:
        if "\n" in source or source.lstrip().startswith("{"):
            raise
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), source) from exc


def load(path) -> OrientedHypergraph:
    with open(path, "r", encoding="utf-8") as handle:
        return _parse_content(handle.read())


def save(g: OrientedHypergraph, path) -> None:
    fmt = "json" if str(path).endswith(".json") else "ohg"
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
    filename = name if name.endswith(".ohg") else f"{name}.ohg"
    traversable = resources.files(__package__).joinpath("data").joinpath(filename)
    return _parse_content(traversable.read_text(encoding="utf-8"))
