"""Tests for the perf bench harness and the ``repro perf`` subcommand."""

import json
import os

import pytest

from repro.__main__ import build_parser, main
from repro.perf.bench import (
    SCHEMA,
    default_output_path,
    run_bench,
    write_bench,
)


class TestRunBench:
    def test_payload_shape(self):
        payload = run_bench(
            designs=("footprint",), num_requests=2_000, repeats=1
        )
        assert payload["schema"] == SCHEMA
        assert payload["protocol"]["num_requests"] == 2_000
        generation = payload["trace_generation"]
        assert generation["requests_per_second"] > 0
        bench = payload["designs"]["footprint"]
        assert bench["warm_requests_per_second"] > 0
        assert bench["cold_requests_per_second"] > 0

    def test_headline_reports_footprint_warm_throughput(self):
        payload = run_bench(designs=("footprint",), num_requests=2_000, repeats=1)
        headline = payload["headline"]
        assert headline["design"] == "footprint"
        assert headline["engine"] == "vector"
        assert (
            headline["warm_requests_per_second"]
            == payload["designs"]["footprint"]["warm_requests_per_second"]
        )

    def test_invalid_requests(self):
        with pytest.raises(ValueError):
            run_bench(num_requests=0)


class TestWriteBench:
    def test_writes_json(self, tmp_path):
        payload = run_bench(designs=("baseline",), num_requests=1_000, repeats=1)
        path = write_bench(payload, str(tmp_path / "BENCH_perf.json"))
        with open(path) as handle:
            assert json.load(handle)["schema"] == SCHEMA

    def test_default_path_is_repo_root(self):
        path = default_output_path()
        assert os.path.basename(path) == "BENCH_perf.json"
        assert os.path.isdir(os.path.join(os.path.dirname(path), "benchmarks"))


class TestPerfCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["perf", "--quick"])
        assert args.quick and args.designs is None
        assert args.perf_workload == "web_search"

    def test_unknown_design_rejected(self, tmp_path, capsys):
        code = main(["perf", "--designs", "bogus", "--out", str(tmp_path / "b.json")])
        assert code == 2
        assert "unknown design" in capsys.readouterr().err

    def test_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        history = tmp_path / "BENCH_history.jsonl"
        code = main([
            "perf", "--designs", "footprint", "--requests", "2000",
            "--repeats", "1", "--out", str(out), "--history", str(history),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "warm trace cache" in stdout
        assert "bench report written" in stdout
        assert "history appended" in stdout
        payload = json.loads(out.read_text())
        assert "footprint" in payload["designs"]
        assert payload["headline"]["design"] == "footprint"
        records = [json.loads(line) for line in history.read_text().splitlines()]
        assert [r["design"] for r in records] == ["footprint"]
