"""The GMDJ operator, its evaluator, and the Section-4 optimizations."""

from repro.gmdj.coalesce import coalesce_plan, merge_stacked, pull_up_base_selection
from repro.gmdj.completion import CompletionRule, derive_completion_rule
from repro.gmdj.evaluate import SelectGMDJ, run_gmdj
from repro.gmdj.operator import GMDJ, ThetaBlock, md
from repro.gmdj.optimize import fuse_completion, optimize_plan, push_base_selections
from repro.gmdj.parallel import DetailPartitions, partition_rows
from repro.gmdj.physical import (
    evaluate_gmdj_partitioned,
    evaluate_node,
    evaluate_plan,
    evaluate_plan_vectorized,
    select_fragmenter,
    select_kernel,
)
from repro.gmdj.pool import (
    DEFAULT_WORKERS,
    PoolRegistry,
    choose_executor,
    map_partitions,
    pooling,
    resolve_workers,
)
from repro.gmdj.pushdown import (
    embed_base_in_detail,
    pull_join_out_of_base,
    push_join_into_base,
)
from repro.gmdj.to_sql import expression_to_sql, gmdj_to_sql, plan_to_sql
from repro.gmdj.vectorized import DEFAULT_CHUNK_SIZE, run_gmdj_vectorized

__all__ = [
    "CompletionRule",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_WORKERS",
    "DetailPartitions",
    "GMDJ",
    "SelectGMDJ",
    "ThetaBlock",
    "PoolRegistry",
    "choose_executor",
    "coalesce_plan",
    "derive_completion_rule",
    "embed_base_in_detail",
    "evaluate_gmdj_partitioned",
    "evaluate_node",
    "evaluate_plan",
    "evaluate_plan_vectorized",
    "expression_to_sql",
    "fuse_completion",
    "gmdj_to_sql",
    "map_partitions",
    "md",
    "merge_stacked",
    "resolve_workers",
    "optimize_plan",
    "pooling",
    "push_base_selections",
    "partition_rows",
    "plan_to_sql",
    "pull_join_out_of_base",
    "pull_up_base_selection",
    "push_join_into_base",
    "run_gmdj",
    "run_gmdj_vectorized",
    "select_fragmenter",
    "select_kernel",
]
