"""Query engine: database façade, strategy planner, executor, reports."""

from repro.engine.cache import PlanCache
from repro.engine.database import Database, DatabaseClosedError
from repro.engine.executor import execute, profile
from repro.engine.mqo import (
    BatchItem,
    BatchPlan,
    BatchReport,
    BatchResult,
    execute_batch,
    plan_batch,
)
from repro.engine.options import QueryOptions
from repro.engine.planner import STRATEGIES, plan_for
from repro.engine.reports import ExecutionReport
from repro.engine.rollup import RollupStore

__all__ = [
    "BatchItem",
    "BatchPlan",
    "BatchReport",
    "BatchResult",
    "Database",
    "DatabaseClosedError",
    "PlanCache",
    "QueryOptions",
    "RollupStore",
    "ExecutionReport",
    "STRATEGIES",
    "execute",
    "execute_batch",
    "plan_batch",
    "plan_for",
    "profile",
]
