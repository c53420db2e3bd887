"""Figures 2 to 5 never leave the array kernel.

The paper's own plans under the default strategy, through the CLI's
``repro explain --backend numpy --analyze --json``: EXISTS (Thm 4.1
assurance), the scalar AVG comparison (an unfused GMDJ: aggregate state
finalized as columns, no completion), ``>= ALL`` with a ``<>``
correlation (the pairwise doom Thm 4.2 generalizes to) and two coalesced
EXISTS.  Every detail scan must run on the numpy backend with no
per-operator fallback, the customer x orders scans must resolve their
dense custkey range by direct addressing, and every flat operator above
the node must have taken its array form (``columnar=true``, no
``fallback``).

Figure 4's two ``<>`` blocks must take the range form (sorted search
over a detail index, no candidate pairs).  Over one database loaded from
``.cols``, a second run of each figure query must reuse the customer x
orders join index — for Figure 4, the part2 range indexes — the first
one built.  Tiles are cut by the pairs θ admits — one per order that
has a customer and passes the block's own conjuncts (custkey is unique)
— so over 2,000 customers and 20,000 orders the completion scans of
Figures 2 and 5 walk one ``TILE_PAIRS`` tile and Figure 3 one per
``TILE_PAIRS`` orders that have a customer.
(The CI workflow runs this file as its own step.)
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import Database, QueryOptions
from repro.bench.workloads import build_fig2, build_fig4
from repro.cli import main
from repro.gmdj.npkernel import TILE_PAIRS
from repro.storage import save_catalog
from repro.storage.binio import (
    binary_tables,
    save_catalog_binary,
    table_stem,
)

FIGURES = {
    "fig2": "SELECT c.custkey FROM customer c WHERE EXISTS "
            "(SELECT * FROM orders o WHERE o.custkey = c.custkey "
            "AND o.totalprice > 300000)",
    "fig3": "SELECT c.custkey FROM customer c WHERE c.acctbal * 50 > "
            "(SELECT AVG(o.totalprice) FROM orders o "
            "WHERE o.custkey = c.custkey)",
    "fig4": "SELECT p.partkey FROM part1 p WHERE p.retailprice >= ALL "
            "(SELECT q.retailprice FROM part2 q "
            "WHERE q.partkey <> p.partkey)",
    "fig5": "SELECT c.custkey FROM customer c WHERE EXISTS "
            "(SELECT * FROM orders o1 WHERE o1.custkey = c.custkey "
            "AND o1.totalprice > 300000) AND EXISTS "
            "(SELECT * FROM orders o2 WHERE o2.custkey = c.custkey "
            "AND o2.orderpriority = '1-URGENT')",
}

#: Customers, and orders rows: more than two tiles of ``TILE_PAIRS``, and
#: half the orders have a customer, so Figure 3's ten thousand pairs take
#: two tiles.
CUSTOMERS, ORDERS = 2_000, 20_000


@pytest.fixture(scope="module")
def catalogs():
    return build_fig2(ORDERS, CUSTOMERS).catalog, build_fig4(300).catalog


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, catalogs):
    directory = tmp_path_factory.mktemp("figs_csv")
    for catalog in catalogs:
        save_catalog(catalog, directory)
    return directory


@pytest.fixture(scope="module")
def cols_dir(tmp_path_factory, catalogs):
    directory = tmp_path_factory.mktemp("figs_cols")
    for catalog in catalogs:
        save_catalog_binary(catalog, directory)
    return directory


def walk(span):
    yield span
    for child in span["children"]:
        yield from walk(child)


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_figure_stays_on_arrays(data_dir, figure):
    out = io.StringIO()
    code = main(["explain", FIGURES[figure], "--data", str(data_dir),
                 "--backend", "numpy", "--analyze", "--json"], out=out)
    assert code == 0
    payload = json.loads(out.getvalue())
    spans = [span for root in payload["trace"]["spans"]
             for span in walk(root)]
    scans = [span for span in spans if span["kind"] == "detail_scan"]
    assert scans, "no detail scan in the trace"
    for scan in scans:
        attrs = scan["attrs"]
        assert attrs["backend"] == "numpy", attrs
        assert not attrs.get("fallbacks"), attrs
        assert attrs["tiles"] >= 1 and "chunks" not in attrs, attrs
        if attrs["relation"] == "orders":
            assert set(attrs["key_lookup"]) == {"direct"}, attrs
        if figure == "fig4":  # ALL's pair of <> blocks, no pair walk
            assert attrs["forms"] == ["range", "range"], attrs
    fused = any(span["kind"] == "gmdj" and span["attrs"]["completion"]
                for span in spans)
    completed = payload["counters"].get("completed_tuples", 0)
    assert (completed > 0) == fused, (completed, fused)
    above = [span for span in spans
             if span["kind"] == "flat" and span["name"] != "ScanTable"]
    assert above, "no flat operator above the node"
    for span in above:
        assert span["attrs"]["columnar"] is True, span
        assert "fallback" not in span["attrs"], span
    assert "flat_fallbacks" not in payload["executed"]


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_a_second_run_reuses_the_join_index(cols_dir, figure):
    db = Database()
    for path in binary_tables(cols_dir):
        db.load_binary(table_stem(path), path)
    query = db.sql(FIGURES[figure])
    options = QueryOptions(backend="numpy", use_cache=False)
    first, second = (db.explain_analyze(query, options).payload["executed"]
                     for _ in range(2))
    if figure == "fig4":  # <> scan blocks: sorted detail indexes, no keys
        assert "join_index" not in first and "join_index" not in second
        assert first["forms"] == second["forms"] == ["range", "range"]
        assert set(first["range_index"]) == {"built"}, first
        assert set(second["range_index"]) == {"reused"}, second
        assert first["tiles"] == second["tiles"] == 1, (first, second)
        return
    assert set(first["join_index"]) == {"built"}, first
    assert set(second["join_index"]) == {"reused"}, second
    # One pair per admitted row; a first tile of TILE_PAIRS of them —
    # more than Figures 2 and 5 admit per block — then tiles of 8x.
    assert first["pairs_built"] == first["rows_admitted"], first
    assert second["pairs_built"] == first["pairs_built"], second
    tiles = 1 + -(-(max(first["pairs_built"]) - TILE_PAIRS)
                  // (8 * TILE_PAIRS))
    assert tiles == (2 if figure == "fig3" else 1), first
    assert first["tiles"] == second["tiles"] == tiles, (first, second)


def test_the_scan_says_what_theta_admitted(cols_dir, catalogs):
    # Figure 2's hash block admits the orders that have a customer and
    # pass the threshold — counted here from the generated rows alone —
    # and builds one pair per admitted row: custkey is unique.
    customer, orders = (catalogs[0].table(name)
                        for name in ("customer", "orders"))
    custkeys = np.array([row[customer.schema.index_of("custkey")]
                         for row in customer.rows])
    keys = np.array([row[orders.schema.index_of("custkey")]
                     for row in orders.rows])
    prices = np.array([row[orders.schema.index_of("totalprice")]
                       for row in orders.rows])
    admitted = int(np.count_nonzero(np.isin(keys, custkeys)
                                    & (prices > 300000)))
    assert len(np.unique(custkeys)) == len(custkeys)
    assert 0 < admitted < np.count_nonzero(np.isin(keys, custkeys))
    db = Database()
    for path in binary_tables(cols_dir):
        db.load_binary(table_stem(path), path)
    executed = db.explain_analyze(
        db.sql(FIGURES["fig2"]),
        QueryOptions(backend="numpy", use_cache=False)).payload["executed"]
    assert executed["rows_admitted"] == [admitted], executed
    assert executed["pairs_built"] == executed["rows_admitted"], executed
