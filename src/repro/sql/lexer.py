"""SQL lexer for the subquery-oriented SQL subset.

Produces a flat token stream for the recursive-descent parser.  Keywords
are case-insensitive; identifiers keep their original spelling.  String
literals use single quotes with ``''`` as the escape.  A number is ASCII
digits with at most one fractional part (``1``, ``2.5``, ``.5``); other
Unicode digits (``²``, ``٣``) are not numbers, and they cannot start an
identifier either.

One compiled pattern covers every token class; :func:`tokenize` walks
its matches and dispatches on the name of the alternative that matched.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import SQLSyntaxError

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "OR", "NOT", "EXISTS",
    "IN", "IS", "NULL", "SOME", "ANY", "ALL", "AS", "GROUP", "BY",
    "ORDER", "ASC", "DESC", "HAVING", "BETWEEN", "LIMIT", "OFFSET",
    "UNION", "EXCEPT", "INTERSECT",
}

#: Multi-character operators first so maximal munch applies.
OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".",
             "*", "+", "-", "/")

#: Alternatives in priority order.  Whitespace and ``--`` comments come
#: before the ``-`` operator and a number before the ``.`` operator; a
#: string's closing quote is never followed by another, so ``'a''`` is
#: unterminated rather than ``'a'`` and a stray quote; ``BAD`` takes any
#: character nothing else does, so the matches tile the text.
_TOKEN = re.compile("|".join((
    r"(?P<SKIP>(?:\s+|--[^\n]*)+)",
    r"(?P<NUMBER>[0-9]+(?:\.[0-9]+)?|\.[0-9]+)",
    r"(?P<WORD>\w+)",
    r"(?P<STRING>'[^']*(?:''[^']*)*'(?!'))",
    r"(?P<UNTERMINATED>')",
    "(?P<OP>" + "|".join(map(re.escape, OPERATORS)) + ")",
    r"(?P<BAD>.)",
)), re.DOTALL)


@dataclass(slots=True)
class Token:
    kind: str  # KEYWORD | IDENT | NUMBER | STRING | OP | EOF
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.text == word

    def is_op(self, op: str) -> bool:
        return self.kind == "OP" and self.text == op


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens; raises :class:`SQLSyntaxError` on junk."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "SKIP":
            continue
        value = match.group()
        start = match.start()
        if kind == "WORD":
            first = value[0]
            if not (first.isalpha() or first == "_"):
                # A Unicode digit (``٣``, ``²``) is a word character but
                # starts neither a number nor an identifier.
                raise SQLSyntaxError(f"unexpected character {first!r}", start)
            upper = value.upper()
            if upper in KEYWORDS:
                append(Token("KEYWORD", upper, start))
            else:
                append(Token("IDENT", value, start))
        elif kind == "OP":
            append(Token("OP", "<>" if value == "!=" else value, start))
        elif kind == "NUMBER":
            append(Token("NUMBER", value, start))
        elif kind == "STRING":
            append(Token("STRING", value[1:-1].replace("''", "'"), start))
        elif kind == "UNTERMINATED":
            raise SQLSyntaxError("unterminated string literal", start)
        else:
            raise SQLSyntaxError(f"unexpected character {value!r}", start)
    append(Token("EOF", "", len(text)))
    return tokens
