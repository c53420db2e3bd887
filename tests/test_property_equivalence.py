"""Property-based tests: strategy equivalence on random databases/queries.

The master invariant of the whole library: for any database instance and
any nested query from the supported grammar, the GMDJ translation (plain
and optimized), the smart native loop, and — where it applies — join
unnesting must return exactly the bag that tuple-iteration semantics
defines.  NULLs are injected everywhere so three-valued logic stays hot.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.aggregates import agg
from repro.algebra.expressions import TRUE, col, lit
from repro.algebra.nested import (
    Exists,
    NestedSelect,
    QuantifiedComparison,
    ScalarComparison,
    Subquery,
)
from repro.algebra.operators import ScanTable
from repro.baselines import evaluate_join_unnest, evaluate_naive, evaluate_native
from repro.errors import TranslationError
from repro.gmdj import evaluate_plan, select_fragmenter
from repro.storage import Catalog, DataType, Relation
from repro.unnesting import subquery_to_gmdj

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

small_int = st.one_of(st.none(), st.integers(min_value=0, max_value=6))


@st.composite
def databases(draw):
    catalog = Catalog()
    b_rows = draw(st.lists(st.tuples(small_int, small_int), min_size=0,
                           max_size=8))
    r_rows = draw(st.lists(st.tuples(small_int, small_int), min_size=0,
                           max_size=12))
    catalog.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER), ("X", DataType.INTEGER)], b_rows,
    ))
    catalog.create_table("R", Relation.from_columns(
        [("K", DataType.INTEGER), ("Y", DataType.INTEGER)], r_rows,
    ))
    return catalog


comparison_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
quantifiers = st.sampled_from(["some", "all"])
agg_functions = st.sampled_from(["count", "sum", "avg", "min", "max"])


@st.composite
def inner_conditions(draw, alias="r"):
    """A subquery-local θ: correlation and/or a local filter."""
    conjuncts = []
    if draw(st.booleans()):
        conjuncts.append(col(f"{alias}.K") == col("b.K"))
    if draw(st.booleans()):
        op = draw(comparison_ops)
        from repro.algebra.expressions import Comparison

        conjuncts.append(Comparison(op, col(f"{alias}.Y"),
                                    lit(draw(st.integers(0, 6)))))
    if not conjuncts:
        return TRUE
    predicate = conjuncts[0]
    for extra in conjuncts[1:]:
        predicate = predicate & extra
    return predicate


@st.composite
def subquery_leaves(draw, alias="r"):
    theta = draw(inner_conditions(alias))
    kind = draw(st.sampled_from(["exists", "not_exists", "some", "all",
                                 "agg"]))
    if kind == "exists":
        return Exists(Subquery(ScanTable("R", alias), theta))
    if kind == "not_exists":
        return Exists(Subquery(ScanTable("R", alias), theta), negated=True)
    if kind == "agg":
        function = draw(agg_functions)
        argument = None if function == "count" else col(f"{alias}.Y")
        return ScalarComparison(
            draw(comparison_ops), col("b.X"),
            Subquery(ScanTable("R", alias), theta,
                     aggregate=agg(function, argument, "v")),
        )
    return QuantifiedComparison(
        draw(comparison_ops), kind, col("b.X"),
        Subquery(ScanTable("R", alias), theta, item=col(f"{alias}.Y")),
    )


@st.composite
def predicates(draw):
    first = draw(subquery_leaves("r1"))
    shape = draw(st.sampled_from(["single", "and", "or", "not"]))
    if shape == "single":
        return first
    if shape == "not":
        from repro.algebra.expressions import Not

        return Not(first)
    second = draw(
        st.one_of(
            subquery_leaves("r2"),
            st.builds(lambda v: col("b.X") > lit(v), st.integers(0, 6)),
        )
    )
    if shape == "and":
        return first & second
    return first | second


class TestTranslationEquivalence:
    @SETTINGS
    @given(catalog=databases(), predicate=predicates())
    def test_gmdj_translation_matches_reference(self, catalog, predicate):
        query = NestedSelect(ScanTable("B", "b"), predicate)
        expected = evaluate_naive(NestedSelect(ScanTable("B", "b"), predicate),
                                  catalog)
        plain = subquery_to_gmdj(query, catalog).evaluate(catalog)
        assert expected.bag_equal(plain)

    @SETTINGS
    @given(catalog=databases(), predicate=predicates())
    def test_optimizer_preserves_semantics(self, catalog, predicate):
        query = NestedSelect(ScanTable("B", "b"), predicate)
        expected = subquery_to_gmdj(query, catalog).evaluate(catalog)
        optimized = subquery_to_gmdj(query, catalog, optimize=True).evaluate(
            catalog
        )
        assert expected.bag_equal(optimized)

    @SETTINGS
    @given(catalog=databases(), predicate=predicates())
    def test_native_loop_matches_reference(self, catalog, predicate):
        query = NestedSelect(ScanTable("B", "b"), predicate)
        expected = evaluate_naive(NestedSelect(ScanTable("B", "b"), predicate),
                                  catalog)
        native = evaluate_native(query, catalog)
        assert expected.bag_equal(native)

    @SETTINGS
    @given(catalog=databases(), predicate=predicates())
    def test_join_unnesting_matches_where_supported(self, catalog, predicate):
        query = NestedSelect(ScanTable("B", "b"), predicate)
        try:
            joined = evaluate_join_unnest(query, catalog)
        except TranslationError:
            return  # disjunctions etc. are legitimately unsupported
        expected = evaluate_naive(NestedSelect(ScanTable("B", "b"), predicate),
                                  catalog)
        assert expected.bag_equal(joined)


class TestFragmentedEvaluation:
    """Partitioned (parallel merge) execution preserves the master
    invariant.

    It must agree with the tuple-iteration reference on the exact same
    random inputs the strategy tests use — including the partitioned AVG
    reconstruction (SUM/COUNT recombination) and empty fragments when
    partitions exceed the detail cardinality.
    """

    @SETTINGS
    @given(catalog=databases(), predicate=predicates(),
           partitions=st.integers(min_value=1, max_value=6))
    def test_partitioned_matches_reference(self, catalog, predicate,
                                           partitions):
        query = NestedSelect(ScanTable("B", "b"), predicate)
        expected = evaluate_naive(NestedSelect(ScanTable("B", "b"), predicate),
                                  catalog)
        plan = subquery_to_gmdj(query, catalog)
        partitioned = evaluate_plan(
            plan, catalog,
            fragmenter=select_fragmenter(partitions=partitions))
        assert expected.bag_equal(partitioned)

    @SETTINGS
    @given(catalog=databases(), predicate=predicates())
    def test_modes_agree_on_optimized_plans(self, catalog, predicate):
        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog, optimize=True)
        expected = plan.evaluate(catalog)
        assert expected.bag_equal(evaluate_plan(
            plan, catalog, fragmenter=select_fragmenter(partitions=3)))


class TestLinearNestingProperty:
    @SETTINGS
    @given(catalog=databases(), op=comparison_ops,
           negate_outer=st.booleans(), negate_inner=st.booleans())
    def test_depth_two_chains(self, catalog, op, negate_outer, negate_inner):
        from repro.algebra.expressions import Comparison

        inner = Exists(
            Subquery(ScanTable("R", "r2"),
                     Comparison(op, col("r2.Y"), col("r1.Y"))),
            negated=negate_inner,
        )
        outer = Subquery(ScanTable("R", "r1"),
                         (col("r1.K") == col("b.K")) & inner)
        query = NestedSelect(ScanTable("B", "b"),
                             Exists(outer, negated=negate_outer))
        expected = evaluate_naive(
            NestedSelect(ScanTable("B", "b"),
                         Exists(outer, negated=negate_outer)),
            catalog,
        )
        translated = subquery_to_gmdj(query, catalog).evaluate(catalog)
        assert expected.bag_equal(translated)
