"""Baseline subquery evaluation strategies the paper compares against."""

from repro.algebra.nested import LoopEvaluator
from repro.baselines.join_unnest import JoinUnnester, evaluate_join_unnest
from repro.baselines.native import evaluate_naive, evaluate_native

__all__ = [
    "JoinUnnester",
    "LoopEvaluator",
    "evaluate_join_unnest",
    "evaluate_naive",
    "evaluate_native",
]
