"""SQL-like query language.

Grammar:

    SELECT <op> <attr>(,<attr>)* ON <dp>(,<dp>)*
        [WHERE <attr> <cmp> <literal>] [RANGE <lo>,<hi>]

Operation names are case-insensitive; the operation table in ``privq.encodings``
maps aliases to kinds (``average`` -> mean, ``std_dev`` -> stddev, ...). Syntax
errors carry the line and column of the offending token.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, fields

from ..encodings import ALIASES, OperationSpec, default_feature_count
from ..errors import MalformedQuery, QuerySyntaxError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<comma>,)|(?P<cmp><=|>=|!=|=|<|>)|(?P<str>'[^']*')"
    r"|(?P<num>-?\d+(?:\.\d+)?)|(?P<word>[A-Za-z_][A-Za-z_0-9]*))"
)


@dataclass
class Token:
    kind: str
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for line_no, line in enumerate(text.splitlines() or [""], start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise QuerySyntaxError(f"unexpected character {line[pos]!r}", line_no, pos)
            kind = m.lastgroup
            tokens.append(Token(kind, m.group(kind).strip(), line_no, m.start(kind)))
            pos = m.end()
    return tokens


@dataclass
class Query:
    query_id: str
    text: str
    operation: OperationSpec
    attributes: tuple
    dp_list: tuple
    filter: tuple | None = None  # (attribute, comparator, literal)
    dp_privacy: bool = False
    params: dict = field(default_factory=dict)

    @property
    def bounds(self):
        return self.operation.bounds

    def encode(self) -> bytes:
        """Canonical bytes stored in the ledger block."""
        doc = {f.name: getattr(self.operation, f.name) for f in fields(OperationSpec)}
        doc.update(query_id=self.query_id, text=self.text, attributes=self.attributes,
                   dps=self.dp_list, filter=self.filter or None,
                   dp_privacy=self.dp_privacy, params=self.params)
        return json.dumps(doc, sort_keys=True).encode()


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, kind=None, value=None, what="token"):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 0)
            raise QuerySyntaxError(f"expected {what}, found end of query",
                                   last.line, last.column + len(last.value))
        if kind and tok.kind != kind:
            raise QuerySyntaxError(f"expected {what}, found {tok.value!r}",
                                   tok.line, tok.column)
        if value and tok.value.upper() != value:
            raise QuerySyntaxError(f"expected {value}, found {tok.value!r}",
                                   tok.line, tok.column)
        self.pos += 1
        return tok

    def word_list(self, what):
        items = [self.next("word", what=what).value]
        while self.peek() and self.peek().kind == "comma":
            self.next()
            items.append(self.next("word", what=what).value)
        return items


def parse_query(text: str, scale: int = 100, bitwise_mode: str = "random",
                dp_privacy: bool = False, max_records: int = 1,
                query_id: str | None = None, feature_count: int | None = None,
                approx_degree: int = 2) -> Query:
    parser = _Parser(_tokenize(text), text)
    parser.next("word", "SELECT", what="SELECT")
    op_tok = parser.next("word", what="operation name")
    kind = ALIASES.get(op_tok.value.lower())
    if kind is None:
        raise QuerySyntaxError(f"unknown operation {op_tok.value!r}",
                               op_tok.line, op_tok.column)
    attributes = parser.word_list("attribute name")
    parser.next("word", "ON", what="ON")
    dp_list = parser.word_list("DP identity")
    filter_clause = None
    bounds = None
    while parser.peek() is not None:
        tok = parser.next("word", what="WHERE or RANGE")
        upper = tok.value.upper()
        if upper == "WHERE":
            attr = parser.next("word", what="filter attribute").value
            cmp_tok = parser.next("cmp", what="comparator")
            lit = parser.peek()
            if lit is None or lit.kind not in ("num", "str", "word"):
                raise QuerySyntaxError("expected literal after comparator",
                                       cmp_tok.line, cmp_tok.column)
            parser.pos += 1
            literal = lit.value.strip("'") if lit.kind == "str" else lit.value
            if lit.kind == "num":
                literal = float(literal) if "." in literal else int(literal)
            filter_clause = (attr, cmp_tok.value, literal)
        elif upper == "RANGE":
            lo = parser.next("num", what="range low bound").value
            parser.next("comma", what="comma")
            hi = parser.next("num", what="range high bound").value
            bounds = (int(float(lo)), int(float(hi)))
            if bounds[0] >= bounds[1]:
                raise QuerySyntaxError("empty RANGE", tok.line, tok.column)
        else:
            raise QuerySyntaxError(f"unexpected clause {tok.value!r}",
                                   tok.line, tok.column)
    if feature_count is None:
        feature_count = default_feature_count(kind, len(attributes))
    try:
        operation = OperationSpec(
            kind=kind,
            bounds=bounds,
            feature_count=feature_count,
            approx_degree=approx_degree,
            bitwise_mode=bitwise_mode,
            scale=scale,
            max_records=max_records,
        )
    except MalformedQuery as exc:
        raise QuerySyntaxError(str(exc), op_tok.line, op_tok.column) from exc
    if query_id is None:
        query_id = hashlib.sha256(
            text.encode() + repr((scale, bitwise_mode, dp_privacy)).encode()
        ).hexdigest()[:16]
    return Query(
        query_id=query_id,
        text=text,
        operation=operation,
        attributes=tuple(attributes),
        dp_list=tuple(dp_list),
        filter=filter_clause,
        dp_privacy=dp_privacy,
    )


def decode_query(data: bytes) -> Query:
    """Inverse of Query.encode."""
    try:
        doc = json.loads(data.decode())
        spec = {f.name: doc[f.name] for f in fields(OperationSpec) if f.name in doc}
        spec["bounds"] = tuple(spec["bounds"]) if spec.get("bounds") else None
        operation = OperationSpec(**spec)
        return Query(
            query_id=doc["query_id"],
            text=doc.get("text", ""),
            operation=operation,
            attributes=tuple(doc["attributes"]),
            dp_list=tuple(doc["dps"]),
            filter=tuple(doc["filter"]) if doc.get("filter") else None,
            dp_privacy=doc.get("dp_privacy", False),
            params=doc.get("params", {}),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedQuery(f"undecodable query: {exc}") from exc


def apply_filter(rows: list[dict], filter_clause) -> list[dict]:
    """Evaluate the WHERE predicate locally over a DP's own records."""
    if filter_clause is None:
        return rows
    attr, cmp_op, literal = filter_clause
    ops = {
        "=": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }
    fn = ops[cmp_op]
    out = []
    for row in rows:
        if attr in row:
            try:
                if fn(row[attr], literal):
                    out.append(row)
            except TypeError:
                continue
    return out
