"""Unit tests for the SQL lexer.

:func:`reference_tokenize` is the character-at-a-time lexer that
:func:`repro.sql.lexer.tokenize` replaced, kept here as its oracle: a
hypothesis property holds the compiled-pattern lexer to the same
``(kind, text, position)`` list — or the same error class at the same
position — over arbitrary text.  The one intended difference is that a
number is ASCII digits only (``²`` and ``٣`` are ``str.isdigit()``); the
reference below applies that rule too, where the old loop called
``isdigit()``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SQLSyntaxError
from repro.sql.lexer import KEYWORDS, OPERATORS, Token, tokenize

_ASCII_DIGITS = "0123456789"


def reference_tokenize(text):
    """The old character loop, with an ASCII-digit test for numbers."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text.startswith("--", i):
            newline = text.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if ch == "'":
            j = i + 1
            pieces = []
            while True:
                if j >= n:
                    raise SQLSyntaxError("unterminated string literal", i)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        pieces.append("'")
                        j += 2
                        continue
                    break
                pieces.append(text[j])
                j += 1
            tokens.append(("STRING", "".join(pieces), i))
            i = j + 1
            continue
        if ch in _ASCII_DIGITS or (
            ch == "." and i + 1 < n and text[i + 1] in _ASCII_DIGITS
        ):
            j = i
            seen_dot = False
            while j < n and (text[j] in _ASCII_DIGITS
                             or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    if j + 1 >= n or text[j + 1] not in _ASCII_DIGITS:
                        break
                    seen_dot = True
                j += 1
            tokens.append(("NUMBER", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(("KEYWORD", upper, i))
            else:
                tokens.append(("IDENT", word, i))
            i = j
            continue
        for op in OPERATORS:
            if text.startswith(op, i):
                tokens.append(("OP", "<>" if op == "!=" else op, i))
                i += len(op)
                break
        else:
            raise SQLSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", "", n))
    return tokens


def outcome(lexer, text):
    """A lexer's token triples, or the class and position it raised."""
    try:
        return [(token.kind, token.text, token.position)
                if isinstance(token, Token) else token
                for token in lexer(text)]
    except SQLSyntaxError as exc:
        return (type(exc), exc.position)


def kinds(text):
    return [token.kind for token in tokenize(text)]


def texts(text):
    return [token.text for token in tokenize(text)][:-1]  # drop EOF


class TestBasics:
    def test_keywords_uppercased(self):
        assert texts("select From WHERE") == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_keep_case(self):
        assert texts("Flow customer_Name") == ["Flow", "customer_Name"]

    def test_eof_token_appended(self):
        assert tokenize("x")[-1].kind == "EOF"

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].text == "42"
        assert tokens[1].text == "3.14"

    def test_qualified_reference_is_three_tokens(self):
        assert texts("t.col") == ["t", ".", "col"]


class TestStrings:
    def test_string_literal(self):
        token = tokenize("'hello'")[0]
        assert token.kind == "STRING"
        assert token.text == "hello"

    def test_escaped_quote(self):
        assert tokenize("'it''s'")[0].text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("'oops")


class TestOperators:
    def test_maximal_munch(self):
        assert texts("a <= b <> c >= d") == ["a", "<=", "b", "<>", "c", ">=", "d"]

    def test_bang_equals_normalized(self):
        assert "<>" in texts("a != b")

    def test_arithmetic_symbols(self):
        assert texts("( a + b ) * c / d - e") == [
            "(", "a", "+", "b", ")", "*", "c", "/", "d", "-", "e"
        ]


class TestComments:
    def test_line_comment_skipped(self):
        assert texts("a -- a comment\nb") == ["a", "b"]

    def test_comment_at_end(self):
        assert texts("a -- trailing") == ["a"]


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError) as info:
            tokenize("a @ b")
        assert info.value.position == 2

    def test_is_keyword_helper(self):
        token = Token("KEYWORD", "SELECT", 0)
        assert token.is_keyword("SELECT")
        assert not token.is_keyword("FROM")

    def test_is_op_helper(self):
        token = Token("OP", "(", 0)
        assert token.is_op("(")


#: Fragments that between them reach every branch of both lexers.
_FRAGMENTS = [
    "SELECT", "select", "From", "x", "_y", "t1", "a٣", "é", "ß", "²", "٣",
    "½", "0", "7", "42", "1.", ".5", "1.5", "1..2", ".", "'", "''", "'a'",
    "'it''s'", "'\n'", "--", "-- c\n", "-", "!=", "!", "<>", "<=", ">=",
    "<", ">", "=", "(", ")", ",", "*", "+", "/", " ", "\n", "\t",
    "\u00a0", "\u2028", "@", "#", ";", "\\",
]


class TestAgainstTheCharacterLoop:
    @settings(max_examples=300, deadline=None)
    @given(text=st.text(max_size=60))
    def test_arbitrary_text(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    @settings(max_examples=300, deadline=None)
    @given(text=st.lists(st.sampled_from(_FRAGMENTS), max_size=24)
           .map("".join))
    def test_sql_shaped_text(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    @pytest.mark.parametrize("text", [
        "a != b",
        "a -- note\nb",
        "a -- trailing",
        "--",
        "'it''s'",
        "''",
        ".5",
        "1.",
        "1.5.5",
        "1..2",
        "t.1",
        "'oops",
        "'a''",
        "'a'''",
        "x'",
        "SELECT '--' FROM t",
        "a\u00a0b",
        "é_1 ٣",
    ])
    def test_named_cases(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    def test_one_dot_is_number_then_op(self):
        assert outcome(tokenize, "1.") == [
            ("NUMBER", "1", 0), ("OP", ".", 1), ("EOF", "", 2)]

    def test_doubled_quote_at_the_end_is_unterminated(self):
        assert outcome(tokenize, "'a''") == (SQLSyntaxError, 0)


class TestAsciiDigits:
    @pytest.mark.parametrize("text, position", [
        ("٣", 0),  # ARABIC-INDIC DIGIT THREE
        ("a = ٣", 4),
        ("²", 0),  # SUPERSCRIPT TWO
        ("a = ²", 4),
        ("1٣", 1),
    ])
    def test_unicode_digits_are_not_numbers(self, text, position):
        with pytest.raises(SQLSyntaxError) as info:
            tokenize(text)
        assert info.value.position == position

    def test_unicode_digit_inside_an_identifier_stays_in_it(self):
        assert texts("a٣ b²") == ["a٣", "b²"]
