"""Absolute oracle: committed SHA-256 digests of dataset and report bytes.

Every other equivalence check in the suite is relative (path A == path B),
so a bug that hits every path at once would pass them all.  This suite pins
the bytes themselves: the dataset JSONL of one small build (seed 7, ``bd``
and ``th``, quota 4) and the ``analyze``/``mismatch``/``kizuki --json``
reports over it, checked on every execution and transport path:

* serial simulated with ``max_in_flight`` 1 and 4;
* thread and process backends, 2 workers, sub-shards of 3;
* loopback HTTP against a live ``LocalSiteServer``, ``max_in_flight`` 1 and 4;
* a crawl-cache build, cold and then warm;
* a distributed build with 2 workers.

The digests live in ``tests/golden/digests.json``.  A change to them must
be justified; ``python tests/golden/regenerate.py`` prints a diff report of
the current bytes against the committed digests (``--write`` updates them).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.pipeline import LangCrUXPipeline, PipelineConfig, build_web_for_config

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "digests.json"
SRC = Path(__file__).resolve().parent.parent / "src"

#: The pinned build: CLI defaults apart from countries, quota and seed.
GOLDEN_CONFIG = PipelineConfig(countries=("bd", "th"), sites_per_country=4, seed=7)

#: The report subcommands whose ``--json`` bytes are pinned.
REPORTS = {
    "analyze.json": ["analyze", "--json"],
    "mismatch.json": ["mismatch", "--json"],
    "kizuki.json": ["kizuki", "--json"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digests(dataset_path: Path) -> dict[str, str]:
    """Digests of the dataset file and of every pinned report over it."""
    from repro.cli import main

    digests = {"dataset.jsonl": sha256(dataset_path.read_bytes())}
    for name, command in REPORTS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*command, str(dataset_path)]) == 0
        digests[name] = sha256(out.getvalue().encode("utf-8"))
    return digests


def build_dataset(config: PipelineConfig, path: Path) -> bytes:
    """Run the single-host pipeline and write its dataset like ``build``."""
    LangCrUXPipeline(config).run().dataset.save_jsonl(path)
    return path.read_bytes()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["digests"]


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return load_golden()


@pytest.fixture(scope="module")
def live_server():
    from repro.webgen.server import LocalSiteServer

    web, _crux = build_web_for_config(GOLDEN_CONFIG)
    with LocalSiteServer(web) as server:
        yield server


def test_serial_build_and_reports_match_the_golden_digests(golden, tmp_path) -> None:
    path = tmp_path / "serial.jsonl"
    build_dataset(GOLDEN_CONFIG, path)
    assert report_digests(path) == golden


@pytest.mark.parametrize("overrides", [
    dict(max_in_flight=4),
    dict(executor="thread", workers=2, sub_shard_size=3),
    dict(executor="process", workers=2, sub_shard_size=3),
], ids=["serial-mif4", "thread2-sub3", "process2-sub3"])
def test_execution_paths_match_the_golden_dataset(golden, tmp_path, overrides) -> None:
    data = build_dataset(replace(GOLDEN_CONFIG, **overrides), tmp_path / "ds.jsonl")
    assert sha256(data) == golden["dataset.jsonl"]


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_loopback_http_matches_the_golden_dataset(golden, live_server, tmp_path,
                                                  max_in_flight) -> None:
    config = replace(GOLDEN_CONFIG, transport="http", http_gateway=live_server.gateway,
                     max_in_flight=max_in_flight)
    assert sha256(build_dataset(config, tmp_path / "ds.jsonl")) == golden["dataset.jsonl"]


def test_cold_and_warm_crawl_cache_builds_match_the_golden_dataset(golden,
                                                                   tmp_path) -> None:
    config = replace(GOLDEN_CONFIG, crawl_cache=str(tmp_path / "cache"))
    cold = build_dataset(config, tmp_path / "cold.jsonl")
    warm = build_dataset(config, tmp_path / "warm.jsonl")
    assert sha256(cold) == sha256(warm) == golden["dataset.jsonl"]


def test_distributed_build_matches_the_golden_dataset(golden, tmp_path,
                                                      monkeypatch) -> None:
    from repro.dist import dist_build

    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv("PYTHONPATH", str(SRC) + (os.pathsep + existing if existing else ""))
    out = tmp_path / "dist.jsonl"
    # ``dist-build``'s defaults: windows of 10, the cache inside the queue.
    queue = tmp_path / "queue"
    config = replace(GOLDEN_CONFIG, sub_shard_size=10,
                     crawl_cache=str(queue / "crawl-cache"))
    dist_build(config, queue, out, workers=2, lease_timeout_s=30.0)
    assert sha256(out.read_bytes()) == golden["dataset.jsonl"]
