"""Tests for the unified QueryOptions API and the deprecation shims."""

import dataclasses

import pytest

from repro import Database, DataType, QueryOptions
from repro.engine.options import GMDJ_STRATEGIES, STRATEGIES
from repro.errors import ConfigurationError, PlanError


@pytest.fixture
def db() -> Database:
    database = Database()
    database.create_table(
        "B", [("K", DataType.INTEGER)], [(i,) for i in range(4)]
    )
    database.create_table(
        "R", [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        [(i % 4, i) for i in range(12)],
    )
    return database


SQL = ("SELECT K FROM B b WHERE EXISTS "
       "(SELECT * FROM R r WHERE r.K = b.K AND r.V > 5)")


class TestConstruction:
    def test_defaults(self):
        options = QueryOptions()
        assert options.strategy == "gmdj_optimized"
        assert options.backend == "auto"
        assert options.rollup == "off"
        assert options.use_cache is True
        assert options.trace is False

    def test_seven_fields_and_two_rollup_levels(self):
        from repro.engine.options import ROLLUP_LEVELS

        assert [field.name for field in dataclasses.fields(QueryOptions)] == [
            "strategy", "backend", "partitions", "workers", "trace",
            "use_cache", "rollup"]
        assert ROLLUP_LEVELS == ("off", "subsume")
        for gone in (dict(lint="strict"), dict(rollup="exact"),
                     dict(mqo="off"), dict(mqo="coalesce")):
            with pytest.raises((TypeError, ConfigurationError)):
                QueryOptions(**gone)

    def test_frozen(self):
        options = QueryOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.strategy = "gmdj"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(PlanError):
            QueryOptions(strategy="quantum")

    @pytest.mark.parametrize("field", ["partitions", "workers"])
    def test_nonpositive_knobs_rejected(self, field):
        with pytest.raises(ConfigurationError):
            QueryOptions(**{field: 0})

    @pytest.mark.parametrize("knob", [
        dict(partitions="2"), dict(workers=1.5), dict(partitions=2.5),
        dict(workers=True), dict(use_cache="no"), dict(trace=1),
    ], ids=repr)
    def test_wrongly_typed_values_rejected(self, knob):
        # A JSON body cannot smuggle in "2" for 2 or "no" for False.
        with pytest.raises(ConfigurationError, match=next(iter(knob))):
            QueryOptions(**knob)

    def test_of_coerces_none_string_and_options(self):
        assert QueryOptions.of(None) == QueryOptions()
        assert QueryOptions.of("gmdj").strategy == "gmdj"
        options = QueryOptions(strategy="naive")
        assert QueryOptions.of(options) is options

    def test_of_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            QueryOptions.of(42)

    def test_reexported_from_package_root(self):
        import repro

        assert repro.QueryOptions is QueryOptions
        assert "QueryOptions" in repro.__all__


class TestCanonical:
    def test_no_knobs_mean_one_scan_per_gmdj(self):
        assert QueryOptions().fragmenter() is None

    def test_workers_imply_partitioned(self):
        assert QueryOptions(workers=2).fragmenter() == "partitioned"

    def test_partitions_imply_partitioned(self):
        assert QueryOptions(partitions=3).fragmenter() == "partitioned"

    @pytest.mark.parametrize("knob", [
        dict(partitions=2), dict(workers=2), dict(backend="row"),
        dict(partitions=1, workers=1), dict(backend="python"),
    ])
    def test_physical_knobs_on_baseline_rejected(self, knob):
        with pytest.raises(ConfigurationError):
            QueryOptions(strategy="naive", **knob).canonical()

    def test_canonical_is_idempotent_and_cheap(self):
        options = QueryOptions(strategy="gmdj", partitions=2)
        assert options.canonical() is options
        assert QueryOptions(strategy="naive").canonical().backend == "auto"

    @pytest.mark.parametrize("field", ["backend", "rollup"])
    def test_none_is_not_a_value(self, field):
        # Each default is one of the field's own names, so a JSON null
        # in a request body is a typing error like any other.
        with pytest.raises(ConfigurationError):
            QueryOptions(**{field: None})

    def test_every_strategy_is_known(self):
        assert len(STRATEGIES) == 7
        assert GMDJ_STRATEGIES <= set(STRATEGIES)
        for strategy in STRATEGIES:
            QueryOptions(strategy=strategy)  # must not raise


class TestKernelSelection:
    def test_default_kernel_is_auto(self):
        assert QueryOptions().backend == "auto"
        assert QueryOptions().kernel() == "numpy"
        assert QueryOptions(backend="row").kernel() == "row"

    def test_kernel_composes_with_partitions_and_workers(self):
        canon = QueryOptions(backend="python", partitions=3,
                             workers=2).canonical()
        assert (canon.kernel(), canon.fragmenter()) == (
            "python", "partitioned")
        assert (canon.partitions, canon.workers) == (3, 2)

    def test_cache_key_tells_kernels_and_fragmenters_apart(self):
        keys = {
            QueryOptions(backend="row").cache_key(),
            QueryOptions(backend="python").cache_key(),
            QueryOptions(backend="row", partitions=4).cache_key(),
        }
        assert len(keys) == 3

    def test_batch_kernel_execution_matches_row_kernel(self, db):
        expected = db.execute_sql(SQL, QueryOptions(strategy="gmdj",
                                                    backend="row"))
        result = db.execute_sql(
            SQL, QueryOptions(strategy="gmdj", backend="python")
        )
        assert expected.bag_equal(result)


class TestDatabaseAcceptsOptions:
    def test_execute_sql_with_options(self, db):
        plain = db.execute_sql(SQL, QueryOptions(strategy="naive"))
        gmdj = db.execute_sql(
            SQL, QueryOptions(strategy="gmdj", partitions=3, workers=2)
        )
        assert plain.bag_equal(gmdj)

    def test_profile_carries_options(self, db):
        options = QueryOptions(strategy="gmdj_optimized")
        report = db.profile(db.sql(SQL), options)
        assert report.options == options
        assert report.counters

    def test_explain_accepts_options(self, db):
        text = db.explain(db.sql(SQL), QueryOptions(strategy="gmdj"))
        assert "GMDJ" in text

    def test_explain_analyze_accepts_options(self, db):
        text = db.explain_analyze(
            db.sql(SQL),
            QueryOptions(strategy="gmdj", partitions=2, workers=2),
            strict=True,
        )
        assert "(strategy=gmdj kernel=" in text
        assert "fragmenter=partitioned" in text
        assert "all hold" in text


class TestRemovedShims:
    """The PR-3 string-strategy shims completed their deprecation cycle:
    QueryOptions (or None) is now the only options surface, and the old
    forms fail loudly with the migration spelled out."""

    def test_execute_sql_string_raises(self, db):
        with pytest.raises(ConfigurationError, match="QueryOptions"):
            db.execute_sql(SQL, "naive")

    def test_execute_strategy_keyword_is_gone(self, db):
        with pytest.raises(TypeError, match="strategy"):
            db.execute(db.sql(SQL), strategy="gmdj")

    def test_profile_string_raises(self, db):
        with pytest.raises(ConfigurationError, match="Database.profile"):
            db.profile(db.sql(SQL), "gmdj")

    def test_explain_string_raises(self, db):
        with pytest.raises(ConfigurationError, match="removed"):
            db.explain(db.sql(SQL), "gmdj")

    def test_execute_batch_rejects_strings(self, db):
        with pytest.raises(ConfigurationError, match="QueryOptions"):
            db.execute_batch([db.sql(SQL)], "gmdj")

    def test_options_form_is_warning_free(self, db, recwarn):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            db.execute_sql(SQL, QueryOptions(strategy="gmdj"))
            db.profile(db.sql(SQL), QueryOptions(strategy="naive"))

    def test_execute_is_batch_of_one(self, db):
        single = db.execute_sql(SQL, QueryOptions(strategy="gmdj"))
        batch = db.execute_sql_batch([SQL], QueryOptions(strategy="gmdj"))
        assert len(batch) == 1
        assert batch[0].rows == single.rows
        assert batch.report.queries == 1
