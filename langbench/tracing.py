"""Layer tracing for the benchmark's traced runs.

The program under test is never edited for tracing: :func:`install` wraps
the public functions of each layer from the outside (module functions are
rebound in every ``repro`` module that imported them, methods are replaced
on their classes) and a :class:`Tracer` keeps one span stack for the main
thread.  A span's *self* time is its duration minus the time of the spans
nested in it, so the self times of all layers plus the time outside every
span add up to the process's wall time — the layer budget.

* Coroutine functions are traced step by step: each resumption of the
  coroutine is one short synchronous span, so interleaved asyncio tasks
  never leave overlapping spans on the stack, and the time the event loop
  sits idle in ``epoll`` is its own layer (``transport.wait``).
* Generator functions are traced per ``next()`` for the same reason.
* Re-entering the layer that is already on top of the stack merges into
  that span (recursion and same-layer helpers cost one span, not many).
* Only the main thread is traced; calls on other threads run unwrapped
  (``offthread_calls`` counts them).

Spans are kept in memory as per-layer sums and written once, as JSON, when
the process ends (:meth:`Tracer.dump`).  A wrap target that no longer
exists is skipped and listed under ``missing_hooks``, so a refactor of the
program degrades the per-layer numbers instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import selectors
import sys
import threading
import time
from collections import defaultdict

_now = time.perf_counter

#: Environment variable the coordinator's spawn wrapper sets to the epoch
#: time of the spawn, so a worker can count its interpreter boot.
SPAWNED_AT_ENV = "LANGBENCH_SPAWNED_AT"

# (module, qualified name, layer).  Layers follow the package layout; see
# README.md for which end-to-end metric each one should move.
HOOKS: tuple[tuple[str, str, str], ...] = (
    # webgen: the simulator, reported apart from the system under test.
    ("repro.core.pipeline", "build_web_for_config", "webgen"),
    ("repro.webgen.pagegen", "PageGenerator.generate_html", "webgen"),
    ("repro.webgen.pagegen", "PageGenerator.generate_document", "webgen"),
    # pipeline orchestration: shard/window execution, merge, executors.
    ("repro.core.pipeline", "LangCrUXPipeline.run", "pipeline"),
    ("repro.core.pipeline", "execute_country_shard", "pipeline"),
    ("repro.core.pipeline", "execute_selection_subshard", "pipeline"),
    # crawler: crawl walk, session, fetcher, robots.
    ("repro.crawler.crawler", "LangCruxCrawler.crawl_origin", "crawler"),
    ("repro.crawler.crawler", "LangCruxCrawler.crawl_origin_async", "crawler"),
    ("repro.crawler.crawler", "LangCruxCrawler.crawl", "crawler"),
    ("repro.crawler.crawler", "LangCruxCrawler.crawl_batch", "crawler"),
    ("repro.crawler.session", "CrawlSession.fetch", "crawler"),
    ("repro.crawler.session", "CrawlSession.allowed", "crawler"),
    ("repro.crawler.session", "CrawlSession.fetch_async", "crawler"),
    ("repro.crawler.session", "CrawlSession.allowed_async", "crawler"),
    ("repro.crawler.session", "CrawlSession.fetch_batch", "crawler"),
    ("repro.crawler.fetcher", "Fetcher.__init__", "crawler"),
    ("repro.crawler.fetcher", "Fetcher.fetch", "crawler"),
    ("repro.crawler.fetcher", "AsyncFetcher.__init__", "crawler"),
    ("repro.crawler.fetcher", "AsyncFetcher.fetch", "crawler"),
    ("repro.crawler.fetcher", "AsyncFetcher.fetch_many", "crawler"),
    ("repro.crawler.fetcher", "SimulatedTransport.send", "crawler"),
    ("repro.crawler.robots", "parse_robots_txt", "crawler"),
    # transport: the HTTP stack (the event loop's idle time is
    # transport.wait, hooked on the selector below).
    ("repro.crawler.transport", "build_transport_stack", "transport"),
    ("repro.crawler.transport", "HttpAsyncTransport.send", "transport"),
    ("repro.crawler.transport", "InstrumentedTransport.send", "transport"),
    ("repro.crawler.transport", "PoliteTransport.send", "transport"),
    ("repro.crawler.transport", "RetryingTransport.send", "transport"),
    ("repro.crawler.transport", "AsyncTransportSyncAdapter.send", "transport"),
    ("repro.crawler.fetcher", "SyncTransportAdapter.send", "transport"),
    # cache: the on-disk crawl cache.
    ("repro.crawler.transport", "CachingTransport.__init__", "cache"),
    ("repro.crawler.transport", "CachingTransport.send", "cache"),
    ("repro.crawler.transport", "CachingTransport.close", "cache"),
    # html
    ("repro.html.parser", "parse_html", "parse"),
    ("repro.html.index", "DocumentIndex.__init__", "index"),
    ("repro.html.index", "ensure_index", "index"),
    ("repro.html.visibility", "is_visible", "visibility"),
    ("repro.html.visibility", "extract_visible_text", "visibility"),
    ("repro.html.visibility", "visible_text_of", "visibility"),
    ("repro.html.visibility", "visible_text_length", "visibility"),
    ("repro.html.index", "DocumentIndex.visible_text", "visibility"),
    ("repro.html.index", "DocumentIndex.document_text", "visibility"),
    ("repro.html.accessibility", "accessible_name", "accessibility"),
    ("repro.html.accessibility", "has_explicit_accessibility_text", "accessibility"),
    ("repro.html.index", "DocumentIndex.accessible_name", "accessibility"),
    # langid
    ("repro.langid.detector", "ScriptDetector.share", "langid"),
    ("repro.langid.detector", "ScriptDetector.native_share", "langid"),
    ("repro.langid.detector", "ScriptDetector.meets_threshold", "langid"),
    ("repro.langid.detector", "detect_language_mix", "langid"),
    ("repro.langid.detector", "dominant_language_code", "langid"),
    ("repro.langid.detector", "visible_script_profile", "langid"),
    ("repro.langid.classify", "classify_share", "langid"),
    ("repro.langid.classify", "classify_text_language", "langid"),
    ("repro.langid.classify", "is_language_consistent", "langid"),
    ("repro.langid.ngram", "NGramClassifier.scores", "langid"),
    ("repro.langid.ngram", "NGramClassifier.classify", "langid"),
    ("repro.langid.ngram", "NGramClassifier.confidence", "langid"),
    ("repro.langid.ngram", "NGramModel.score", "langid"),
    # audit
    ("repro.audit.engine", "AuditEngine.audit_document", "audit"),
    ("repro.audit.engine", "AuditEngine.audit_html", "audit"),
    ("repro.audit.engine", "AuditEngine.audit_many", "audit"),
    # core.site_selection
    ("repro.core.site_selection", "SiteSelector.evaluate", "select"),
    ("repro.core.site_selection", "SiteSelector.evaluate_chunk", "select"),
    ("repro.core.site_selection", "SiteSelector.evaluate_window", "select"),
    ("repro.core.site_selection", "SiteSelector.select", "select"),
    ("repro.core.site_selection", "SiteSelector._evaluation", "select"),
    ("repro.core.site_selection", "RankOrderCommitter.commit", "select"),
    ("repro.core.site_selection", "RankOrderCommitter.commit_chunk", "select"),
    # core.extraction (and the record assembly around it)
    ("repro.core.pipeline", "record_from_crawl", "extract"),
    ("repro.core.extraction", "extract_page", "extract"),
    ("repro.core.extraction", "merge_extractions", "extract"),
    ("repro.core.dataset", "SiteRecord.from_extraction", "extract"),
    # core.kizuki
    ("repro.core.kizuki", "Kizuki.audit_document", "kizuki"),
    ("repro.core.kizuki", "Kizuki.score_shift", "kizuki"),
    ("repro.core.kizuki", "Kizuki.image_alt_consistency", "kizuki"),
    ("repro.core.kizuki", "Kizuki.rescore_record", "kizuki"),
    ("repro.core.kizuki", "RescoreAccumulator.add", "kizuki"),
    ("repro.core.kizuki", "RescoreAccumulator.summary", "kizuki"),
    ("repro.core.kizuki", "rescore_dataset", "kizuki"),
    # core.filtering
    ("repro.core.filtering", "classify_text", "filtering"),
    ("repro.core.filtering", "is_informative", "filtering"),
    ("repro.core.filtering", "filter_texts", "filtering"),
    # core.dataset: record (de)serialization and the dataset writer
    ("repro.core.dataset", "SiteRecord.to_dict", "dataset.serialize"),
    ("repro.core.dataset", "LangCrUXDataset.save_jsonl", "dataset.serialize"),
    ("repro.core.dataset", "StreamingDatasetWriter.write", "dataset.serialize"),
    ("repro.core.dataset", "StreamingDatasetWriter.write_many", "dataset.serialize"),
    ("repro.core.dataset", "StreamingDatasetWriter.write_serialized", "dataset.serialize"),
    ("repro.core.dataset", "StreamingDatasetWriter.begin_section", "dataset.serialize"),
    ("repro.core.dataset", "StreamingDatasetWriter.end_section", "dataset.serialize"),
    ("repro.core.dataset", "StreamingDatasetWriter.close", "dataset.serialize"),
    ("repro.dist.results", "encode_window_result", "dataset.serialize"),
    ("repro.core.dataset", "SiteRecord.from_dict", "dataset.decode"),
    ("repro.core.dataset", "LangCrUXDataset.iter_jsonl", "dataset.decode"),
    ("repro.core.dataset", "LangCrUXDataset.load_jsonl", "dataset.decode"),
    ("repro.dist.results", "decode_window_result", "dataset.decode"),
    # core.analysis, core.mismatch, core.language_mix
    ("repro.core.analysis", "element_statistics", "analysis"),
    ("repro.core.analysis", "ElementStatsAccumulator.add", "analysis"),
    ("repro.core.analysis", "ElementStatsAccumulator.rows", "analysis"),
    ("repro.core.analysis", "DiscardCounter.add", "analysis"),
    ("repro.core.analysis", "DiscardCounter.add_many", "analysis"),
    ("repro.core.analysis", "DiscardCounter.percentages", "analysis"),
    ("repro.core.mismatch", "MismatchAccumulator.add", "analysis"),
    ("repro.core.mismatch", "MismatchAccumulator.summary", "analysis"),
    ("repro.core.mismatch", "MismatchAccumulator.examples", "analysis"),
    ("repro.core.language_mix", "LanguageMixAccumulator.add", "analysis"),
    ("repro.core.language_mix", "LanguageMixAccumulator.add_many", "analysis"),
    ("repro.core.language_mix", "LanguageMixAccumulator.summary", "analysis"),
    ("repro.core.language_mix", "classify_texts", "analysis"),
    # api.aggregates and the renderers shared with the CLI
    ("repro.api.aggregates", "DatasetAggregates.load", "aggregates"),
    ("repro.api.aggregates", "DatasetAggregates.from_records", "aggregates"),
    ("repro.api.aggregates", "DatasetAggregates.add", "aggregates"),
    ("repro.api.aggregates", "DatasetAggregates.analyze_payload", "aggregates"),
    ("repro.api.aggregates", "DatasetAggregates.mismatch_payload", "aggregates"),
    ("repro.api.aggregates", "DatasetAggregates.kizuki_payload", "aggregates"),
    ("repro.api.aggregates", "DatasetAggregates.explorer_payload", "aggregates"),
    ("repro.api.aggregates", "render_json", "aggregates.render"),
    ("repro.report.export", "export_dataset_summary", "aggregates.render"),
    ("repro.report.export", "write_dataset_summary", "aggregates.render"),
    # dist
    ("repro.dist.coordinator", "Coordinator.run", "dist.merge"),
    ("repro.dist.coordinator", "Coordinator._await_result", "dist.merge_wait"),
    ("repro.dist.coordinator", "Coordinator._spawn_worker", "dist.spawn"),
    ("repro.dist.worker", "CrawlWorker.run", "dist.claim_wait"),
    ("repro.dist.workqueue", "WorkQueue.wait_for_build", "dist.claim_wait"),
    ("repro.dist.workqueue", "WorkQueue.load_windows", "dist.claim_wait"),
    ("repro.dist.workqueue", "WorkQueue.try_claim", "dist.claim_wait"),
    ("repro.dist.workqueue", "WorkQueue.filled_countries", "dist.claim_wait"),
    ("repro.dist.workqueue", "WorkQueue.is_done", "dist.claim_wait"),
)

#: Layers whose inclusive time is reported besides their self time.
INCLUSIVE = {"execute_selection_subshard": "dist.execute"}


class Tracer:
    """Per-process span stack and per-layer sums (main thread only)."""

    def __init__(self) -> None:
        self.main_ident = threading.main_thread().ident
        # Open frames: [layer, start, child_time, same-layer depth].
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.entries: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans = 0
        self.offthread_calls = 0
        self.missing_hooks: list[str] = []
        self.fetchers: list = []
        self.transport_metrics: dict[int, object] = {}

    def on_main_thread(self) -> bool:
        return threading.get_ident() == self.main_ident

    def enter(self, layer: str) -> None:
        stack = self.stack
        if stack and stack[-1][0] == layer:
            stack[-1][3] += 1
            return
        stack.append([layer, _now(), 0.0, 0])
        self.entries[layer] += 1

    def exit(self) -> float:
        """Close the innermost span; returns its duration (0 if merged)."""
        frame = self.stack[-1]
        if frame[3]:
            frame[3] -= 1
            return 0.0
        self.stack.pop()
        duration = _now() - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        self.spans += 1
        return duration

    def add_self(self, layer: str, seconds: float) -> None:
        """Attribute time no span can cover (a worker's interpreter boot)."""
        self.self_s[layer] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- results -----------------------------------------------------------

    def _collect_program_counters(self) -> None:
        # A batched fetch's AsyncFetcher may share its Fetcher's stats dict.
        unique_stats = {id(fetcher.stats): fetcher.stats for fetcher in self.fetchers}
        for stats in unique_stats.values():
            self.counts["crawler.requests"] += stats.get("requests", 0)
            self.counts["crawler.retries"] += stats.get("retries", 0)
            self.counts["crawler.failed"] += stats.get("failures", 0)
        for metrics in self.transport_metrics.values():
            for name in ("network_requests", "connections_opened",
                         "connections_reused", "retries", "cache_hits",
                         "cache_misses", "cache_stores"):
                self.counts[f"transport.{name}"] += getattr(metrics, name, 0)

    def dump(self, path: str, *, role: str, wall_s: float) -> None:
        """Write this process's layer sums as JSON (once, at process end)."""
        self._collect_program_counters()
        payload = {
            "role": role,
            "pid": os.getpid(),
            "wall_s": wall_s,
            "open_spans": len(self.stack),
            "spans": self.spans,
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "entries": dict(self.entries),
            "counts": dict(self.counts),
            "offthread_calls": self.offthread_calls,
            "missing_hooks": self.missing_hooks,
        }
        temp = f"{path}.tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(temp, path)


# -- wrappers -------------------------------------------------------------------


class _Steps:
    """Awaitable that drives a coroutine one traced step at a time."""

    __slots__ = ("tracer", "layer", "coro")

    def __init__(self, tracer: Tracer, layer: str, coro) -> None:
        self.tracer = tracer
        self.layer = layer
        self.coro = coro

    def __await__(self):
        tracer, layer, coro = self.tracer, self.layer, self.coro
        traced = tracer.on_main_thread()
        value, error = None, None
        while True:
            if traced:
                tracer.enter(layer)
            try:
                yielded = coro.send(value) if error is None else coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if traced:
                    tracer.exit()
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


def _wrap(tracer: Tracer, fn, layer: str, *, inclusive: str | None = None,
          after=None):
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_coroutine(*args, **kwargs):
            return await _Steps(tracer, layer, fn(*args, **kwargs))
        return traced_coroutine

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                traced = tracer.on_main_thread()
                if traced:
                    tracer.enter(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if traced:
                        tracer.exit()
                yield item
        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.on_main_thread():
            tracer.offthread_calls += 1
            return fn(*args, **kwargs)
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.exit()
            if inclusive is not None:
                tracer.inclusive_s[inclusive] += duration
        if after is not None:
            after(args, kwargs, result)
        return result
    return traced


def _after_hooks(tracer: Tracer) -> dict[str, object]:
    """Per-target callbacks that read counts off arguments and results."""

    def pages(args, kwargs, result):
        tracer.count("webgen.pages")

    def parsed(args, kwargs, result):
        markup = args[0] if args else kwargs.get("markup", "")
        tracer.count("parse.chars", len(markup))

    def evaluated(args, kwargs, result):
        tracer.count("select.evaluated")

    def committed(args, kwargs, result):
        if result is not None:
            tracer.count("select.accepted")

    def fetcher_made(args, kwargs, result):
        tracer.fetchers.append(args[0])

    def stack_made(args, kwargs, result):
        metrics = getattr(result, "metrics", None)
        if metrics is not None:
            tracer.transport_metrics[id(metrics)] = metrics

    def window_merged(args, kwargs, result):
        tracer.count("dist.windows")

    def coordinated(args, kwargs, result):
        tracer.count("dist.reissued", getattr(result, "windows_reissued", 0))

    return {
        "PageGenerator.generate_html": pages,
        "parse_html": parsed,
        "SiteSelector._evaluation": evaluated,
        "RankOrderCommitter.commit": committed,
        "Fetcher.__init__": fetcher_made,
        "AsyncFetcher.__init__": fetcher_made,
        "build_transport_stack": stack_made,
        "decode_window_result": window_merged,
        "Coordinator.run": coordinated,
    }


def _rebind_everywhere(original, replacement) -> None:
    """Replace ``original`` in every loaded ``repro`` module namespace."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _wrap_spawn(tracer: Tracer, fn):
    """The coordinator's spawn, stamping the spawn time for the worker."""
    traced = _wrap(tracer, fn, "dist.spawn")

    @functools.wraps(fn)
    def spawn(*args, **kwargs):
        os.environ[SPAWNED_AT_ENV] = repr(time.time())
        return traced(*args, **kwargs)
    return spawn


def _wrap_selector(tracer: Tracer) -> None:
    """Count the event loop's idle time in ``epoll`` as ``transport.wait``."""
    selector_class = selectors.DefaultSelector
    original = selector_class.select

    @functools.wraps(original)
    def select(self, timeout=None):
        if timeout == 0 or not tracer.on_main_thread():
            return original(self, timeout)
        tracer.enter("transport.wait")
        try:
            return original(self, timeout)
        finally:
            tracer.exit()
    selector_class.select = select


def install(tracer: Tracer) -> None:
    """Import every hooked module and wrap its layer entry points."""
    after = _after_hooks(tracer)
    for module_name, qualname, layer in HOOKS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tracer.missing_hooks.append(f"{module_name}:{qualname}")
            continue
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None or isinstance(raw, property):
            tracer.missing_hooks.append(f"{module_name}:{qualname}")
            continue
        if qualname == "Coordinator._spawn_worker":
            setattr(owner, attr, _wrap_spawn(tracer, raw))
            continue
        kwargs = {"inclusive": INCLUSIVE.get(attr), "after": after.get(qualname)}
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(_wrap(tracer, raw.__func__, layer, **kwargs)))
        elif owner is module:
            _rebind_everywhere(raw, _wrap(tracer, raw, layer, **kwargs))
        else:
            setattr(owner, attr, _wrap(tracer, raw, layer, **kwargs))
    _wrap_selector(tracer)
