"""One process of a benchmark run: a ``langcrux`` entry point, optionally traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 langbench/child.py [--trace DIR] cli ARGS...
    python3 langbench/child.py [--trace DIR] analyze DATASET OUTDIR
    python3 langbench/child.py [--trace DIR] dist QUEUE CACHE OUTPUT SEED QUOTA WINDOW SUMMARY
    python3 langbench/child.py [--trace DIR] worker QUEUE
    python3 langbench/child.py oracle-analyze DATASET OUTDIR
    python3 langbench/child.py server SEED QUOTA

With ``--trace`` the process wraps every layer's entry points
(:mod:`tracing`) after importing ``repro.cli`` and writes its layer sums to
``DIR/<role>-<pid>.json`` when it ends.  Without it nothing is wrapped.
"""

import time

_T0 = time.perf_counter()
_EPOCH0 = time.time()

import contextlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def _all_countries() -> tuple[str, ...]:
    from repro.langid.languages import langcrux_country_codes

    return langcrux_country_codes()


def run_analyze(dataset: str, outdir: str) -> int:
    """Load the dataset once and render every report the CLI renders."""
    from repro.api.aggregates import DatasetAggregates, render_json

    aggregates = DatasetAggregates.load(dataset)
    documents = {
        # `langcrux analyze|mismatch|kizuki --json` print the document.
        "analyze.json": render_json(aggregates.analyze_payload()) + "\n",
        "mismatch.json": render_json(aggregates.mismatch_payload()) + "\n",
        "kizuki.json": render_json(aggregates.kizuki_payload(_all_countries())) + "\n",
        # `langcrux export` writes the document without a newline.
        "explorer.json": render_json(aggregates.explorer_payload()),
    }
    for name, text in documents.items():
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    print(f"loaded {aggregates.site_count} records")
    return 0


def run_oracle_analyze(dataset: str, outdir: str) -> int:
    """The reference bytes of :func:`run_analyze`, from the CLI itself."""
    from repro.cli import main

    commands = {
        "analyze.json": ["analyze", "--json", dataset],
        "mismatch.json": ["mismatch", "--json", dataset],
        "kizuki.json": ["kizuki", "--json", dataset, "--countries", *_all_countries()],
    }
    for name, argv in commands.items():
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as handle, \
                contextlib.redirect_stdout(handle):
            main(argv)
    with contextlib.redirect_stdout(sys.stderr):
        return main(["export", dataset, "--output", os.path.join(outdir, "explorer.json")])


def run_dist(queue: str, cache: str, output: str, seed: str, quota: str,
             window: str, summary: str, trace_dir: str | None) -> int:
    """A distributed build: the coordinator plus one local worker."""
    import json

    from repro.core.pipeline import PipelineConfig
    from repro.dist import Coordinator

    config = PipelineConfig(countries=_all_countries(), sites_per_country=int(quota),
                            seed=int(seed), sub_shard_size=int(window),
                            crawl_cache=cache)
    worker = [sys.executable, os.path.abspath(__file__)]
    if trace_dir is not None:
        worker += ["--trace", trace_dir]
    coordinator = Coordinator(config, queue, output, workers=1,
                              worker_command=worker + ["worker", queue])
    result = coordinator.run()
    metrics = result.transport_metrics
    with open(summary, "w", encoding="utf-8") as handle:
        json.dump({"records": result.streamed_records,
                   "network_requests": metrics.network_requests if metrics else None,
                   "cache_hits": metrics.cache_hits if metrics else None,
                   "cache_misses": metrics.cache_misses if metrics else None,
                   "windows_merged": result.windows_merged,
                   "windows_reissued": result.windows_reissued}, handle)
    return 0


def run_worker(queue: str) -> int:
    from repro.dist import CrawlWorker

    CrawlWorker(queue).run()
    return 0


def run_server(seed: str, quota: str) -> int:
    """Serve the seed's synthetic web with every page generated up front.

    Pages are otherwise generated lazily on first request, which would put
    page generation inside the timed client run.  Prints the gateway once
    ready and serves until standard input closes.
    """
    from repro.core.pipeline import PipelineConfig, build_web_for_config
    from repro.webgen.server import LocalSiteServer
    from repro.webgen.sitegen import GLOBAL, LOCALIZED

    config = PipelineConfig(countries=_all_countries(), sites_per_country=int(quota),
                            seed=int(seed))
    web, _crux = build_web_for_config(config)
    for domain in web.domains():
        site = web.site(domain)
        for path in site.page_paths:
            for variant in (LOCALIZED, GLOBAL):
                site.page_html(path, variant)
    with LocalSiteServer(web) as server:
        print(server.gateway, flush=True)
        sys.stdin.read()
    return 0


def main(argv: list[str]) -> int:
    trace_dir = None
    if argv[:1] == ["--trace"]:
        trace_dir, argv = argv[1], argv[2:]
    mode, args = argv[0], argv[1:]
    tracer = tracing.Tracer() if trace_dir is not None else None
    if tracer is not None:
        spawned_at = os.environ.pop(tracing.SPAWNED_AT_ENV, None)
        if mode == "worker" and spawned_at is not None:
            # The worker's budget starts at the coordinator's spawn call.
            tracer.add_self("dist.spawn", max(0.0, _EPOCH0 - float(spawned_at)))
        tracer.enter("startup")
    import repro.cli  # noqa: F401  (the start-up every langcrux process pays)
    if tracer is not None:
        tracer.exit()
        tracer.enter("trace.install")
        tracing.install(tracer)
        tracer.exit()
        tracer.enter("cli")
    try:
        if mode == "cli":
            code = repro.cli.main(args)
        elif mode == "analyze":
            code = run_analyze(*args)
        elif mode == "oracle-analyze":
            code = run_oracle_analyze(*args)
        elif mode == "dist":
            code = run_dist(*args, trace_dir=trace_dir)
        elif mode == "worker":
            code = run_worker(*args)
        elif mode == "server":
            code = run_server(*args)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.exit()
    if tracer is not None:
        end = time.perf_counter()
        if mode == "worker" and spawned_at is not None:
            wall_s = time.time() - float(spawned_at)
        else:
            wall_s = end - _T0
        tracer.dump(os.path.join(trace_dir, f"{mode}-{os.getpid()}.json"),
                    role=mode, wall_s=wall_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
