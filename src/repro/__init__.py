"""repro — GMDJ-based subquery processing for complex OLAP.

A from-scratch reproduction of *Efficient Computation of Subqueries in
Complex OLAP* (Akinde & Böhlen, ICDE 2003): an in-memory relational engine
whose subquery evaluation is built on the Generalized Multi-Dimensional
Join (GMDJ) operator and counting, together with the conventional
baselines the paper compares against.

Quickstart::

    from repro import Database, DataType

    db = Database()
    db.create_table("Flow", [("SourceIP", DataType.STRING),
                             ("NumBytes", DataType.INTEGER)],
                    [("10.0.0.1", 100), ("10.0.0.2", 50)])
    result = db.execute_sql(
        "SELECT SourceIP FROM Flow f WHERE NOT EXISTS "
        "(SELECT * FROM Flow g WHERE g.NumBytes > f.NumBytes)")
    print(result.pretty())
"""

from repro.algebra import (
    AggregateSpec,
    Exists,
    NestedSelect,
    QuantifiedComparison,
    ScalarComparison,
    Subquery,
    agg,
    col,
    count_star,
    in_predicate,
    lit,
    not_in_predicate,
    project,
    scan,
    select,
)
from repro.engine import (
    BatchReport,
    BatchResult,
    Database,
    ExecutionReport,
    QueryOptions,
    STRATEGIES,
    execute,
    profile,
)
from repro.errors import (
    CertificateViolation,
    InvariantViolation,
    ReproError,
)
from repro.gmdj import GMDJ, md, optimize_plan
from repro.lint import CostCertificate, LintReport, certify_plan, lint_plan
from repro.obs import Explain, Tracer, explain_analyze, tracing
from repro.storage import Catalog, DataType, Relation, Schema, collect
from repro.unnesting import subquery_to_gmdj

__version__ = "1.0.0"

__all__ = [
    "AggregateSpec",
    "BatchReport",
    "BatchResult",
    "Catalog",
    "CostCertificate",
    "Database",
    "DataType",
    "ExecutionReport",
    "Exists",
    "Explain",
    "GMDJ",
    "CertificateViolation",
    "InvariantViolation",
    "LintReport",
    "NestedSelect",
    "QuantifiedComparison",
    "QueryOptions",
    "Relation",
    "ReproError",
    "STRATEGIES",
    "ScalarComparison",
    "Schema",
    "Subquery",
    "Tracer",
    "agg",
    "certify_plan",
    "col",
    "collect",
    "count_star",
    "execute",
    "explain_analyze",
    "in_predicate",
    "lint_plan",
    "lit",
    "md",
    "not_in_predicate",
    "optimize_plan",
    "profile",
    "project",
    "scan",
    "select",
    "subquery_to_gmdj",
    "tracing",
    "__version__",
]
