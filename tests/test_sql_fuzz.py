"""Robustness fuzzing of the SQL frontend.

The parser/lexer must reject malformed input with SQLSyntaxError — never
crash with an internal exception — and valid generated queries must bind
and evaluate without internal errors.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ReproError
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_sql
from repro.storage import Catalog, DataType, Relation

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

_catalog = Catalog()
_catalog.create_table("T", Relation.from_columns(
    [("a", DataType.INTEGER), ("b", DataType.INTEGER)],
    [(1, 2), (3, 4), (None, 5)],
))
_catalog.create_table("U", Relation.from_columns(
    [("a", DataType.INTEGER)], [(1,), (3,)],
))

#: Words of the whole frontend's fuzz: clauses the parser property's
#: letters cannot spell (LIMIT, OFFSET), numbers with and without a
#: fractional part, and Unicode digits that are not numbers.
_FRONTEND_TOKENS = [
    "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "OR", "NOT", "EXISTS",
    "IN", "IS", "NULL", "ALL", "SOME", "GROUP", "BY", "HAVING", "ORDER",
    "DESC", "LIMIT", "OFFSET", "UNION", "AS", "count", "max", "T", "U",
    "t", "u", "a", "b", "T.a", "U.a", "t.b", ".", ",", "(", ")", "*",
    "=", "<>", "<", ">=", "+", "-", "/", "0", "2", "17", "2.5", ".5",
    "1.", "'x'", "\u00b2", "\u0663", "\u00bd",
]

_VALUES = ["0", "2", "17", "2.5", ".5", "1.", "'x'", "NULL", "a", "T.b",
           "\u00b2", "\u0663"]


@st.composite
def frontend_texts(draw):
    """Token soup, or a statement the grammar accepts with a value drawn
    into each literal slot and a few words then replaced, dropped or
    inserted — so that LIMIT, OFFSET and WHERE are reached often."""
    words = st.sampled_from(_FRONTEND_TOKENS)
    if draw(st.booleans()):
        soup = draw(st.lists(words, max_size=24))
    else:
        value = st.sampled_from(_VALUES)
        soup = ["SELECT", draw(st.sampled_from(["a", "*", "count(*)"])),
                "FROM", draw(st.sampled_from(["T", "U u", "T t"]))]
        if draw(st.booleans()):
            soup += ["WHERE", draw(st.sampled_from(["a", "b"])),
                     draw(st.sampled_from(["=", "<", "<>"])), draw(value)]
        if draw(st.booleans()):
            soup += ["LIMIT", draw(value)]
            if draw(st.booleans()):
                soup += ["OFFSET", draw(value)]
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(soup)))
            edit = draw(st.sampled_from(["replace", "drop", "insert"]))
            if edit == "insert" or at == len(soup):
                soup.insert(at, draw(words))
            elif edit == "drop":
                del soup[at]
            else:
                soup[at] = draw(words)
    return draw(st.sampled_from([" ", ""])).join(soup)


class TestGarbageInput:
    @SETTINGS
    @given(text=st.text(max_size=80))
    def test_lexer_never_crashes_unexpectedly(self, text):
        try:
            tokenize(text)
        except ReproError:
            pass  # SQLSyntaxError is the contract

    @SETTINGS
    @given(text=st.text(
        alphabet=st.sampled_from(list("SELECTFROMWHERE()*,.<>=' abt01")),
        max_size=60,
    ))
    def test_parser_never_crashes_unexpectedly(self, text):
        try:
            parse_sql(text)
        except ReproError:
            pass
        except RecursionError:
            pass  # pathological nesting depth is acceptable to refuse

    @SETTINGS
    @given(text=frontend_texts())
    def test_frontend_never_crashes_unexpectedly(self, text):
        """Lexer, parser and binder together: any token soup fails as a
        :class:`ReproError`, never as a bare ``ValueError`` from a
        literal the lexer should not have called a number."""
        from repro.sql import compile_sql

        try:
            compile_sql(text, _catalog)
        except ReproError:
            pass
        except RecursionError:
            pass


@st.composite
def valid_queries(draw):
    column = draw(st.sampled_from(["a", "b", "T.a", "T.b"]))
    value = draw(st.integers(-5, 5))
    op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
    shape = draw(st.sampled_from(["plain", "exists", "in", "scalar",
                                  "compound"]))
    if shape == "plain":
        return f"SELECT {column} FROM T WHERE {column} {op} {value}"
    if shape == "exists":
        return (f"SELECT {column} FROM T WHERE EXISTS "
                f"(SELECT * FROM U WHERE U.a {op} T.a)")
    if shape == "in":
        negated = draw(st.sampled_from(["", "NOT "]))
        return (f"SELECT {column} FROM T WHERE T.a {negated}IN "
                f"(SELECT a FROM U)")
    if shape == "scalar":
        func = draw(st.sampled_from(["count(*)", "min(a)", "max(a)"]))
        return (f"SELECT {column} FROM T WHERE T.a {op} "
                f"(SELECT {func} FROM U)")
    return (f"SELECT a FROM T UNION SELECT a FROM U "
            f"EXCEPT SELECT a FROM U WHERE a {op} {value}")


class TestGeneratedQueries:
    @SETTINGS
    @given(sql=valid_queries())
    def test_valid_queries_execute_under_all_strategies(self, sql):
        from repro.engine import execute
        from repro.sql import compile_sql

        plan = compile_sql(sql, _catalog)
        reference = execute(plan, _catalog, "naive")
        for strategy in ("native", "gmdj", "gmdj_optimized"):
            assert reference.bag_equal(execute(plan, _catalog, strategy)), (
                sql, strategy,
            )
