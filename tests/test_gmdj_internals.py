"""White-box tests for the GMDJ evaluator's access-path machinery."""

import pytest

from repro.algebra.aggregates import count_star
from repro.algebra.expressions import TRUE, col, lit
from repro.algebra.operators import ScanTable
from repro.errors import UnknownAttributeError
import repro.gmdj.evaluate as evaluate
from repro.gmdj import md
from repro.gmdj.evaluate import _BlockRuntime, invariant_sharing
from repro.gmdj.operator import ThetaBlock
from repro.storage import Catalog, DataType, Relation, collect


@pytest.fixture
def parts():
    base = Relation.from_columns(
        [("K", DataType.INTEGER)], [(i,) for i in range(8)], qualifier="b",
    )
    detail_schema = Relation.from_columns(
        [("K", DataType.INTEGER), ("V", DataType.INTEGER)], [],
        qualifier="r",
    ).schema
    return base, detail_schema


def runtime_for(condition, base, detail_schema, allow_invariant=True):
    block = ThetaBlock([count_star("c")], condition)
    combined = base.schema.concat(detail_schema)
    return _BlockRuntime(0, block, base, detail_schema, combined,
                         allow_invariant)


class TestAccessPathSelection:
    def test_equality_condition_uses_hash(self, parts):
        base, detail_schema = parts
        runtime = runtime_for(col("b.K") == col("r.K"), base, detail_schema)
        assert runtime.uses_hash
        assert not runtime.invariant
        runtime.prepare_python_scan()
        assert len(runtime.buckets) == 8

    def test_buckets_are_built_only_for_a_tuple_at_a_time_scan(
            self, parts, monkeypatch):
        # The logical build is counted when the block is bound; the
        # Python dict over B exists only once a row/python kernel
        # prepares to probe it (the array kernel never does).
        base, detail_schema = parts
        builds = []
        builder = evaluate._bucket_base_rows
        monkeypatch.setattr(
            evaluate, "_bucket_base_rows",
            lambda *args: builds.append(1) or builder(*args))
        with collect() as stats:
            runtime = runtime_for(col("b.K") == col("r.K"), base,
                                  detail_schema)
        assert stats.index_builds == 1
        assert runtime.buckets is None and not builds
        runtime.prepare_python_scan()
        runtime.prepare_python_scan()
        assert runtime.buckets[(3,)] == [3] and builds == [1]

    def test_inequality_condition_scans(self, parts):
        base, detail_schema = parts
        runtime = runtime_for(col("b.K") != col("r.K"), base, detail_schema)
        assert not runtime.uses_hash
        assert runtime.buckets is None
        assert not runtime.invariant  # references the base

    def test_detail_only_condition_is_invariant(self, parts):
        base, detail_schema = parts
        runtime = runtime_for(col("r.V") > lit(3), base, detail_schema)
        assert runtime.invariant
        runtime.prepare_python_scan()
        assert runtime.shared_state is not None

    def test_true_condition_is_invariant(self, parts):
        base, detail_schema = parts
        runtime = runtime_for(TRUE, base, detail_schema)
        assert runtime.invariant
        assert runtime.residual_eval is None

    def test_invariant_disabled_by_flag(self, parts):
        base, detail_schema = parts
        runtime = runtime_for(col("r.V") > lit(3), base, detail_schema,
                              allow_invariant=False)
        assert not runtime.invariant

    def test_invariant_disabled_by_context_manager(self, parts):
        base, detail_schema = parts
        with invariant_sharing(False):
            runtime = runtime_for(col("r.V") > lit(3), base, detail_schema)
        assert not runtime.invariant
        # And the flag is restored afterwards.
        restored = runtime_for(col("r.V") > lit(3), base, detail_schema)
        assert restored.invariant

    def test_invariant_block_updates_once_per_qualifying_detail_tuple(self):
        # Shared state: six updates for six qualifying rows, not 8 x 6.
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(i,) for i in range(8)]))
        catalog.create_table("R", Relation.from_columns(
            [("V", DataType.INTEGER)], [(v,) for v in range(10)]))
        plan = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c")]], [col("r.V") > lit(3)])
        with collect() as stats:
            result = plan.evaluate(catalog)
        assert [row[-1] for row in result.rows] == [6] * 8
        assert stats.aggregate_updates == 6

    def test_null_base_keys_not_bucketed(self):
        base = Relation.from_columns(
            [("K", DataType.INTEGER)], [(1,), (None,), (2,)], qualifier="b",
        )
        detail_schema = Relation.from_columns(
            [("K", DataType.INTEGER), ("V", DataType.INTEGER)], [],
            qualifier="r",
        ).schema
        runtime = runtime_for(col("b.K") == col("r.K"), base, detail_schema)
        runtime.prepare_python_scan()
        assert len(runtime.buckets) == 2


class TestErrorPaths:
    def test_unknown_attribute_in_condition(self):
        catalog = Catalog()
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(1,)],
        ))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER)], [(1,)],
        ))
        plan = md(ScanTable("B", "b"), ScanTable("R", "r"),
                  [[count_star("c")]], [col("b.K") == col("z.Q")])
        with pytest.raises(UnknownAttributeError):
            plan.evaluate(catalog)


class TestActiveListShrinks:
    def test_completion_reduces_scan_candidates(self):
        # A no-equality block plus a must-be-zero rule: each doomed base
        # tuple leaves the active list, so total residual evaluations are
        # far below |B| x |R|.
        catalog = Catalog()
        n_base, n_detail = 64, 800
        catalog.create_table("B", Relation.from_columns(
            [("K", DataType.INTEGER)], [(i,) for i in range(n_base)],
        ))
        catalog.create_table("R", Relation.from_columns(
            [("K", DataType.INTEGER)], [(i % n_base,) for i in range(n_detail)],
        ))
        from repro.algebra.expressions import Comparison
        from repro.gmdj import SelectGMDJ, derive_completion_rule

        def build():
            return md(ScanTable("B", "b"), ScanTable("R", "r"),
                      [[count_star("cnt")]],
                      [(col("b.K") <= col("r.K"))
                       & (col("b.K") >= col("r.K"))])  # = without hashability

        selection = Comparison("=", col("cnt"), lit(0))
        rule = derive_completion_rule(selection, build(), False)
        with collect() as fused_stats:
            SelectGMDJ(build(), selection, rule).evaluate(catalog)
        with collect() as plain_stats:
            from repro.algebra.operators import Select

            Select(build(), selection).evaluate(catalog)
        assert fused_stats.predicate_evals < plain_stats.predicate_evals / 2
