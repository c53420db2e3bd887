"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import load_data_directory, main
from repro.engine import Database
from repro.storage import DataType, Relation, save_csv


@pytest.fixture
def data_dir(tmp_path):
    flow = Relation.from_columns(
        [("SourceIP", DataType.STRING), ("NumBytes", DataType.INTEGER)],
        [("10.0.0.1", 100), ("10.0.0.2", 50), ("10.0.0.1", 25)],
    )
    users = Relation.from_columns(
        [("IPAddress", DataType.STRING)], [("10.0.0.1",)],
    )
    save_csv(flow, tmp_path / "flow.csv")
    save_csv(users, tmp_path / "users.csv")
    return tmp_path


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


class TestLoading:
    def test_load_data_directory(self, data_dir):
        db = Database()
        names = load_data_directory(db, data_dir)
        assert names == ["flow", "users"]
        assert len(db.table("flow")) == 3


class TestExecution:
    def test_simple_query(self, data_dir):
        code, out = run_cli(
            ["SELECT SourceIP FROM flow WHERE NumBytes > 30",
             "--data", str(data_dir)]
        )
        assert code == 0
        assert "10.0.0.1" in out and "10.0.0.2" in out

    def test_subquery_with_strategy(self, data_dir):
        code, out = run_cli(
            ["SELECT f.SourceIP FROM flow f WHERE EXISTS "
             "(SELECT * FROM users u WHERE u.IPAddress = f.SourceIP)",
             "--data", str(data_dir), "--strategy", "gmdj_optimized"]
        )
        assert code == 0
        assert out.count("10.0.0.1") == 2
        assert "10.0.0.2" not in out

    def test_profile_output(self, data_dir):
        code, out = run_cli(
            ["SELECT SourceIP FROM flow", "--data", str(data_dir),
             "--profile"]
        )
        assert code == 0
        assert "rows=" in out and "work=" in out

    def test_explain(self, data_dir):
        code, out = run_cli(
            ["SELECT f.SourceIP FROM flow f WHERE EXISTS "
             "(SELECT * FROM users u WHERE u.IPAddress = f.SourceIP)",
             "--data", str(data_dir), "--explain"]
        )
        assert code == 0
        assert "GMDJ" in out

    def test_index_flag(self, data_dir):
        code, out = run_cli(
            ["SELECT f.SourceIP FROM flow f WHERE EXISTS "
             "(SELECT * FROM users u WHERE u.IPAddress = f.SourceIP)",
             "--data", str(data_dir), "--index", "users.IPAddress",
             "--strategy", "native"]
        )
        assert code == 0
        assert "10.0.0.1" in out

    def test_limit(self, data_dir):
        code, out = run_cli(
            ["SELECT SourceIP FROM flow", "--data", str(data_dir),
             "--limit", "1"]
        )
        assert code == 0
        assert "more rows" in out


class TestErrors:
    def test_sql_error_is_exit_1(self, data_dir):
        code, _ = run_cli(["SELECT FROM nothing", "--data", str(data_dir)])
        assert code == 1

    def test_unknown_table_is_exit_1(self, data_dir):
        code, _ = run_cli(["SELECT x FROM missing", "--data", str(data_dir)])
        assert code == 1

    def test_missing_directory_is_exit_2(self, tmp_path):
        code, _ = run_cli(["SELECT 1 FROM x",
                           "--data", str(tmp_path / "nope")])
        assert code == 2

    def test_empty_directory_is_exit_2(self, tmp_path):
        code, _ = run_cli(["SELECT 1 FROM x", "--data", str(tmp_path)])
        assert code == 2

    def test_bad_index_spec_is_exit_2(self, data_dir):
        code, _ = run_cli(["SELECT SourceIP FROM flow",
                           "--data", str(data_dir), "--index", "flow"])
        assert code == 2


class TestExplainSubcommand:
    SQL = ("SELECT f.SourceIP FROM flow f WHERE EXISTS "
           "(SELECT * FROM users u WHERE u.IPAddress = f.SourceIP)")

    def test_plain_explain_prints_plan(self, data_dir):
        code, out = run_cli(["explain", self.SQL, "--data", str(data_dir)])
        assert code == 0
        assert "GMDJ" in out
        assert "EXPLAIN ANALYZE" not in out

    def test_analyze_annotates_with_trace_and_invariants(self, data_dir):
        code, out = run_cli(["explain", self.SQL, "--data", str(data_dir),
                             "--analyze"])
        assert code == 0
        assert "-- EXPLAIN ANALYZE (strategy=gmdj_optimized kernel=" in out
        assert "detail_scan" not in out  # spans render by name, not kind
        assert "scan [" in out
        assert "tuples_scanned=" in out
        assert "-- single-scan expectation: users" in out
        assert "all hold" in out

    def test_analyze_single_scan_over_coalesced_detail(self, data_dir):
        sql = ("SELECT f.SourceIP FROM flow f WHERE EXISTS "
               "(SELECT * FROM flow g WHERE g.SourceIP = f.SourceIP "
               "AND g.NumBytes > 60) AND EXISTS "
               "(SELECT * FROM flow h WHERE h.SourceIP = f.SourceIP "
               "AND h.NumBytes < 60)")
        code, out = run_cli(["explain", sql, "--data", str(data_dir),
                             "--analyze", "--strategy", "gmdj_optimized",
                             "--strict-invariants"])
        assert code == 0
        # Both subqueries coalesced: the detail is scanned exactly once.
        # (Vectorized runs add chunk attrs to the scan span, so match the
        # line rather than a fixed attr ordering.)
        scans = [line for line in out.splitlines()
                 if line.lstrip().startswith("scan [")
                 and "relation=flow" in line]
        assert len(scans) == 1

    def test_json_trace_export(self, data_dir):
        import json

        code, out = run_cli(["explain", self.SQL, "--data", str(data_dir),
                             "--analyze", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "gmdj_optimized"
        assert payload["invariants"]["violations"] == []
        assert payload["trace"]["spans"][0]["kind"] == "query"

    def test_json_without_analyze_is_static_payload(self, data_dir):
        import json

        code, out = run_cli(["explain", self.SQL, "--data", str(data_dir),
                             "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "gmdj_optimized"
        assert "plan" in payload and "certificate" in payload
        assert "trace" not in payload  # nothing executed

    def test_sql_error_is_exit_1(self, data_dir):
        code, _ = run_cli(["explain", "SELECT FROM nothing",
                           "--data", str(data_dir)])
        assert code == 1

    def test_missing_directory_is_exit_2(self, tmp_path):
        code, _ = run_cli(["explain", "SELECT 1 FROM x",
                           "--data", str(tmp_path / "nope")])
        assert code == 2


class TestEmitSql:
    def test_emit_sql_outputs_case_aggregation(self, data_dir):
        code, out = run_cli(
            ["SELECT f.SourceIP FROM flow f WHERE EXISTS "
             "(SELECT * FROM users u WHERE u.IPAddress = f.SourceIP)",
             "--data", str(data_dir), "--emit-sql"]
        )
        assert code == 0
        assert "COUNT(CASE WHEN" in out
        assert "LEFT OUTER JOIN" in out


class TestServeSubcommand:
    def test_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port is None
        assert args.workers == 4
        assert args.queue_depth == 64
        assert args.deadline_ms == 30_000.0
        assert args.strategy == "gmdj_optimized"
        assert args.rollup == "off"

    def test_data_must_be_directory(self, tmp_path):
        code, _ = run_cli(["serve", "--data", str(tmp_path / "missing")])
        assert code == 2

    def test_serve_boots_answers_and_drains(self, data_dir):
        import json
        import re
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--data", str(data_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            # The banner carries the ephemeral port.
            pattern = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")
            port = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                match = pattern.search(line or "")
                if match:
                    port = int(match.group(1))
                    break
            assert port, "serve banner with port never appeared"

            def call(path, body=None):
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}{path}",
                    data=None if body is None else json.dumps(body).encode(),
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.status, json.loads(response.read())

            _, payload = call("/query", {
                "sql": "SELECT SourceIP FROM flow WHERE NumBytes > 60"})
            assert payload["rows"] == [["10.0.0.1"]]
            # Plain gmdj keeps EXISTS unfused, so the rollup store keeps
            # it and the second run reads no detail.
            exists = {
                "sql": "SELECT f.SourceIP FROM flow f WHERE EXISTS "
                       "(SELECT * FROM users u WHERE u.IPAddress = f.SourceIP)",
                "options": {"strategy": "gmdj", "rollup": "subsume",
                            "use_cache": False},
            }
            call("/query", exists)
            _, hit = call("/query", exists)
            assert hit["served_by"] == "rollup"
            assert hit["detail_scans"] == 0
            assert call("/metrics")[0] == 200
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
