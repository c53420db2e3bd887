"""Deterministic random sources for data generation.

Every generator in :mod:`repro.data` derives its stream from a caller-
supplied seed so that workloads are exactly reproducible across runs and
machines — the property the paper gets from TPC-R's ``dbgen``.
"""

from __future__ import annotations

import random


def make_rng(seed: int, stream: str = "") -> random.Random:
    """A reproducible ``random.Random`` for one named stream.

    Distinct ``stream`` labels decorrelate the tables generated from one
    master seed, so growing one table never perturbs another.
    """
    return random.Random(f"{seed}/{stream}")
