"""The five workloads: what each generates, runs, and checks.

Sizes are for a 2-core box and the measured window ``BENCHMARK.json``
fixes (``run_seconds``); ``scale`` multiplies every row count and exists
for the smoke test only.  Each ``why`` is the sentence
``BENCHMARK.json`` carries.
"""

from __future__ import annotations

import shutil
import time
from collections.abc import Iterator
from pathlib import Path

from perfbench import data, queries
from perfbench.data import Table
from perfbench.harness import (
    DEFAULT_PROFILE,
    Calibrator,
    Measurement,
    Op,
    build_options,
    children_cpu_seconds,
    run_closed_loop,
)
from perfbench.oracle import Answer, Oracle, digest
from perfbench.queries import Query
from perfbench.serve import (
    CLASS_OPTIONS,
    Request,
    ServeQuery,
    ServeSession,
    run_load,
    schedule,
    warm_requests,
)


class Workload:
    """Base: generate tables, load them, compute answers, warm up, run.

    Subclasses state their tables and queries; the in-process closed
    loop, the oracle and the warm-up pass are shared.
    """

    name = ""
    why = ""
    profile = DEFAULT_PROFILE
    #: Load tables through ``save_binary``/``load_binary`` (mmap'd
    #: ``.cols``) instead of ``create_table``.
    via_cols = False
    #: The big table: what the storage and fragmenting probes work on.
    detail_table = ""
    #: ``(table, row)`` whose insertion changes no answer of this workload.
    neutral_insert: tuple[str, tuple] = ("", ())
    #: The ``repro serve`` child, for the workload that has one.
    session: ServeSession | None = None

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.data_dir = workdir / "data"
        self.generate_s = 0.0
        self.answers: dict[str, Answer] = {}
        self.db = None
        self.ops: list[Op] = []

    def rows(self, count: int, floor: int = 8) -> int:
        return max(floor, int(count * self.scale))

    # -- what a subclass states ------------------------------------------------

    def generate(self) -> list[Table]:
        raise NotImplementedError

    def queries(self) -> list[Query]:
        raise NotImplementedError

    def oracle_indexes(self) -> list[tuple[str, str]]:
        return []

    # -- shared lifecycle ------------------------------------------------------

    def setup(self) -> None:
        started = time.perf_counter()
        tables = self.generate()
        self.generate_s = time.perf_counter() - started
        self.options, self.resolved_options = build_options(self.profile)
        self.query_list = self.queries()
        self.compute_answers(tables)
        self.load(tables)
        self.warm_up()

    def compute_answers(self, tables: list[Table]) -> None:
        oracle = Oracle(tables)
        for table, column in self.oracle_indexes():
            oracle.index(table, column)
        for query in self.query_list:
            self.answers[query.name] = oracle.answer(query.oracle_sql)
        oracle.close()

    def load(self, tables: list[Table]) -> None:
        from repro import Database, DataType

        self.db = Database()
        if self.via_cols:
            self.write_cols(tables)
            self.open_cols(self.db)
        else:
            for table in tables:
                self.db.create_table(
                    table.name,
                    [(name, DataType(kind)) for name, kind in table.columns],
                    table.rows)
        self.ops = self.build_ops()

    def write_cols(self, tables: list[Table]) -> None:
        from repro import DataType, Relation
        from repro.storage import save_binary

        if self.data_dir.exists():
            shutil.rmtree(self.data_dir)
        for table in tables:
            relation = Relation.from_columns(
                [(name, DataType(kind)) for name, kind in table.columns],
                table.rows, name=table.name)
            save_binary(relation, self.data_dir / table.name)

    def open_cols(self, db) -> None:
        for path in sorted(self.data_dir.glob("*.cols")):
            db.load_binary(path.stem, path)

    def op_units(self) -> list[list[Query]]:
        """One round of ops, each as the texts it executes: one text per
        op unless the op is a batch."""
        return [[query] for query in self.query_list]

    def unit_answer(self, unit: list[Query]) -> Answer:
        return self.answers[unit[0].name]

    def execute(self, unit: list[Query], options) -> list:
        """Run one op in-process and return its rows."""
        return self.db.execute_sql(unit[0].sql, options).rows

    def build_ops(self) -> list[Op]:
        return [
            Op(unit[0].name,
               lambda unit=unit: self.execute(unit, self.options),
               self.unit_answer(unit))
            for unit in self.op_units()
        ]

    def warm_up(self) -> None:
        for op in self.ops:
            op.run()

    def measure(self, seconds: float, calibrator: Calibrator) -> Measurement:
        children_before = children_cpu_seconds()
        result = run_closed_loop(self.ops, seconds, calibrator)
        result.cpu_s += children_cpu_seconds() - children_before
        return result

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None

    # -- what the traced pass asks for ----------------------------------------------

    def inprocess_db(self):
        return self.db

    def serve_pools(self) -> dict[str, list[ServeQuery]]:
        """Texts per request class when this workload's data is served."""
        pool = [ServeQuery(query.sql, self.answers[query.name])
                for query in self.query_list]
        return {klass: pool for klass in CLASS_OPTIONS}

    def requests(self) -> Iterator[Request]:
        return schedule(self.seed, self.serve_pools(), self.neutral_insert)

    def corrupt_one_answer(self) -> None:
        """Falsify the first op's expected digest (the smoke test's probe)."""
        first = self.ops[0]
        first.expected = (first.expected[0], "0" * 64)


# -- scan_heavy ----------------------------------------------------------------

class ScanHeavy(Workload):
    name = "scan_heavy"
    why = ("Figure 2/3/5 queries over 2,000 x 60,000 rows from mmap'd .cols:"
           " the gmdj kernel and storage do nearly all the work, the"
           " frontend ~0%; kernel changes must show here and not in"
           " small_query")
    via_cols = True
    detail_table = "orders"
    neutral_insert = ("orders", (0, 0, 1000.0, 0, "5-LOW"))

    def generate(self) -> list[Table]:
        customers = self.rows(2_000)
        return [
            data.customer(customers, self.seed),
            data.orders(self.rows(60_000), customers * 2, self.seed),
        ]

    def queries(self) -> list[Query]:
        return queries.scan_heavy_queries()

    def oracle_indexes(self) -> list[tuple[str, str]]:
        return [("orders", "custkey")]


# -- small_query ---------------------------------------------------------------

class SmallQuery(Workload):
    name = "small_query"
    why = ("13 subquery shapes over <=1,000-row tables: fixed overhead (sql,"
           " unnesting, lint, engine planning) dominates and the kernel does"
           " little, so a kernel change predicts no change here")
    detail_table = "orders"
    neutral_insert = ("orders", (0, 0, 1000.0, 0, "5-LOW"))

    def generate(self) -> list[Table]:
        customers = self.rows(50)
        base, detail = data.table1_pair(
            self.rows(120), self.rows(1_000), self.seed)
        return [
            data.customer(customers, self.seed),
            data.orders(self.rows(1_000), customers, self.seed),
            data.part(self.rows(100), self.seed),
            data.supplier(self.rows(25), self.seed),
            base, detail,
        ]

    def queries(self) -> list[Query]:
        return queries.where_subquery_shapes() + queries.table1_forms()


# -- completion_all ------------------------------------------------------------

class CompletionAll(Workload):
    name = "completion_all"
    why = ("Figure 4 '>= ALL' with '<>' correlation and its NOT EXISTS twin"
           " over 300 x 300 parts: scan-partitioned theta plus Thm 4.1/4.2"
           " completion, which leaves the array kernel; bypassed by"
           " batch_mqo")
    detail_table = "part2"
    # Cheaper than every part1 row, so no '>= ALL' or NOT EXISTS flips.
    neutral_insert = ("part2", (0, "part 0", "Brand#11", 1.0, 1))

    def generate(self) -> list[Table]:
        size = self.rows(300, floor=100)
        return [
            data.part(size, self.seed, "part1", leader_every=97),
            data.part(size, self.seed + 1, "part2"),
        ]

    def queries(self) -> list[Query]:
        return queries.completion_queries()

    # A round is ALL, twin, ALL.  The two shapes differ fourfold in cost,
    # and with one of each the median op latency would fall in the gap
    # between them, where it measures nothing; at 2:1 both the median
    # and the p90 lie inside the Figure 4 query's own distribution.
    def op_units(self) -> list[list[Query]]:
        figure4, twin = self.query_list
        return [[figure4], [twin], [figure4]]


# -- batch_mqo -----------------------------------------------------------------

class BatchMqo(Workload):
    name = "batch_mqo"
    why = ("one execute_sql_batch of 8 members over B 200 x R 30,000 (4"
           " dedup-able, 3 distinct-theta, 1 unshareable): engine.mqo and"
           " gmdj.share do the work; in small_query sharing can only cost")
    detail_table = "R"
    neutral_insert = ("R", (-1, -1, 0))

    def generate(self) -> list[Table]:
        return list(data.table1_pair(
            self.rows(200), self.rows(30_000), self.seed))

    def queries(self) -> list[Query]:
        return queries.mqo_batch(self.seed)

    def oracle_indexes(self) -> list[tuple[str, str]]:
        return [("R", "K")]

    def compute_answers(self, tables: list[Table]) -> None:
        """Per-member answers, and one for the batch as a whole."""
        oracle = Oracle(tables)
        oracle.index("R", "K")
        tagged = []
        for index, query in enumerate(self.query_list):
            rows = oracle.connection.execute(query.oracle_sql).fetchall()
            self.answers[query.name] = digest(rows)
            tagged.extend((index, *row) for row in rows)
        oracle.close()
        self.answers["batch"] = digest(tagged)

    def op_units(self) -> list[list[Query]]:
        return [self.query_list]

    def unit_answer(self, unit: list[Query]) -> Answer:
        return self.answers["batch"]

    def execute(self, unit: list[Query], options) -> list:
        batch = self.db.execute_sql_batch([q.sql for q in unit], options)
        return [(index, *row) for index, relation in enumerate(batch)
                for row in relation.rows]


# -- serve_mixed ---------------------------------------------------------------

class ServeMixed(Workload):
    name = "serve_mixed"
    why = ("HTTP through repro serve over 500 x 20,000 .cols rows, one"
           " closed-loop connection, 45% cache hits, 30% rollup hits, 20%"
           " executes, 5% inserts: every serving tier, each insert"
           " clearing cache and rollups")
    via_cols = True
    detail_table = "orders"
    neutral_insert = ("orders", (0, 0, 1000.0, 0, "5-LOW"))

    def generate(self) -> list[Table]:
        customers = self.rows(500)
        return [
            data.customer(customers, self.seed),
            data.orders(self.rows(20_000), customers * 2, self.seed),
        ]

    def class_queries(self) -> dict[str, list[Query]]:
        return {
            "cache_hit": [queries.fig2_exists(), queries.fig5_two_exists()],
            # Under the default strategy EXISTS fuses with completion and
            # is never rollup-served; the aggregate comparison is, and
            # every factor reuses the one stored AVG rollup.
            "rollup_hit": [queries.fig3_avg(factor)
                           for factor in (30, 40, 60, 70)],
            "execute": [queries.fig2_exists(threshold)
                        for threshold in range(380_000, 450_000, 10_000)],
        }

    def queries(self) -> list[Query]:
        unique = {}
        for pool in self.class_queries().values():
            for query in pool:
                unique[query.name] = query
        return list(unique.values())

    def oracle_indexes(self) -> list[tuple[str, str]]:
        return [("orders", "custkey")]

    def load(self, tables: list[Table]) -> None:
        self.write_cols(tables)
        self.session = ServeSession(
            self.data_dir, self.workdir / "serve.log", workers=2,
        ).start()

    def serve_pools(self) -> dict[str, list[ServeQuery]]:
        return {
            klass: [ServeQuery(q.sql, self.answers[q.name]) for q in pool]
            for klass, pool in self.class_queries().items()
        }

    def warm_up(self) -> None:
        """One untimed request per (class, text), so the tiers are filled."""
        run_load(self.session.port, warm_requests(self.serve_pools()))

    def measure(self, seconds: float, calibrator: Calibrator) -> Measurement:
        harness_before = time.process_time()
        server_before = self.session.cpu_seconds()
        result, _ = run_load(
            self.session.port, self.requests(), seconds=seconds,
            calibrator=calibrator,
        )
        result.cpu_s = (time.process_time() - harness_before
                        + self.session.cpu_seconds() - server_before)
        return result

    def teardown(self) -> None:
        if self.session is not None:
            self.session.stop()
            self.session = None
        super().teardown()

    def inprocess_db(self):
        """The same ``.cols`` tables opened here, for the replayed chain."""
        from repro import Database

        if self.db is None:
            self.db = Database()
            self.open_cols(self.db)
        return self.db

    def corrupt_one_answer(self) -> None:
        name = self.class_queries()["cache_hit"][0].name
        self.answers[name] = (self.answers[name][0], "0" * 64)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ScanHeavy, SmallQuery, CompletionAll, BatchMqo, ServeMixed)
}
