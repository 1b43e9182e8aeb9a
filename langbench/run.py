"""Repository benchmark: build and analyse a LangCrUX dataset end to end.

Run from the repository root::

    python3 langbench/run.py --workload build-http --seed 7 --seconds 30 --trace 0

Each workload is a closed loop with one client.  One iteration sets the
workload up (timed: ``setup_s``), then runs it once in fresh processes
through the program's public entry points (timed: ``wall_s``), checks the
output bytes, and tears down.  Iterations repeat until ``--seconds`` have
passed and the medians are reported.  With ``--trace 1`` every iteration
also makes a traced run, and the per-layer metrics come from the traced run
of median wall time (see README.md).  The last line of standard output is
the JSON result; the lines before it stamp every sample with its
environment and print the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE_FILE = HERE / "reference.json"
WORK_DIR = ".bench_work"

DEFAULT_SEED = 7
QUOTA = 10
#: Per-process timeout; the whole run must also end within RUN_DEADLINE_S.
PROCESS_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0

WORKLOADS = ("build-http", "dist-warm", "analyze")
#: The documents the analyze workload renders (see child.py).
ANALYZE_OUTPUTS = ("analyze.json", "mismatch.json", "kizuki.json", "explorer.json")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("records_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Self-time metric of each traced layer.  Together with ``unattributed_s``
#: these add up to ``traced_wall_s`` (the layer budget).
SELF_METRICS = {
    "startup": "startup.import_s",
    "trace.install": "trace.install_s",
    "cli": "cli.self_s",
    "pipeline": "pipeline.self_s",
    "webgen": "webgen.self_s",
    "crawler": "crawler.self_s",
    "transport": "transport.self_s",
    "transport.wait": "transport.wait_s",
    "cache": "cache.self_s",
    "parse": "parse.self_s",
    "index": "index.self_s",
    "visibility": "visibility.self_s",
    "accessibility": "accessibility.self_s",
    "langid": "langid.self_s",
    "audit": "audit.self_s",
    "select": "select.self_s",
    "extract": "extract.self_s",
    "kizuki": "kizuki.self_s",
    "filtering": "filtering.self_s",
    "dataset.serialize": "dataset.serialize_s",
    "dataset.decode": "dataset.decode_s",
    "analysis": "analysis.self_s",
    "aggregates": "aggregates.self_s",
    "aggregates.render": "aggregates.render_s",
    "dist.spawn": "dist.spawn_s",
    "dist.claim_wait": "dist.claim_wait_s",
    "dist.merge_wait": "dist.merge_wait_s",
    "dist.merge": "dist.merge_s",
}

PER_LAYER = tuple((name, "s") for name in SELF_METRICS.values()) + (
    ("webgen.pages", "count"),
    ("webgen.server_cpu_s", "s"),
    ("crawler.requests", "count"),
    ("crawler.retries", "count"),
    ("crawler.failed", "count"),
    ("transport.connections_opened", "count"),
    ("transport.reuse_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.stores", "count"),
    ("cache.hit_ratio", "ratio"),
    ("parse.calls", "count"),
    ("parse.chars_per_s", "chars/s"),
    ("visibility.calls", "count"),
    ("langid.calls", "count"),
    ("audit.calls", "count"),
    ("select.evaluated", "count"),
    ("select.useful_ratio", "ratio"),
    ("filtering.calls", "count"),
    ("dataset.bytes", "bytes"),
    ("dist.execute_s", "s"),
    ("dist.windows", "count"),
    ("dist.reissued", "count"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here at all (no result is printed)."""


@dataclass
class Process:
    """One finished child process, as the benchmark measured it."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool
    log: Path

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.timed_out

    def tail(self) -> str:
        try:
            return self.log.read_text(errors="replace")[-2000:]
        except OSError:
            return ""


@dataclass
class Run:
    """One timed (or traced) run of a workload and its verdict."""

    process: Process
    records: int = 0
    failure: str | None = None
    trace_dir: Path | None = None
    server_cpu_s: float = 0.0
    dataset_bytes: int = 0


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    quota: int
    deadline: float
    env: dict = field(default_factory=dict)
    python: str = sys.executable

    def child(self, *args: str, trace_dir: Path | None = None) -> list[str]:
        argv = [self.python, str(CHILD)]
        if trace_dir is not None:
            argv += ["--trace", str(trace_dir)]
        return argv + [str(arg) for arg in args]

    def cli(self, *args: str, trace_dir: Path | None = None) -> list[str]:
        """``langcrux ARGS`` as a user runs it (through child.py when traced)."""
        if trace_dir is not None:
            return self.child("cli", *args, trace_dir=trace_dir)
        return [self.python, "-m", "repro.cli", *[str(arg) for arg in args]]

    def timeout(self) -> float:
        return max(1.0, min(PROCESS_TIMEOUT_S, self.deadline - time.monotonic()))


def run_process(ctx: Context, argv: list[str], log: Path) -> Process:
    """Run ``argv`` to completion in its own process group.

    Wall time spans launch to exit; CPU time and peak RSS come from
    ``wait4``, which covers the process and every descendant it waited for.
    """
    timed_out = threading.Event()
    with open(log, "wb") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ctx.root, env=ctx.env, stdout=sink,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                                start_new_session=True)

        def kill() -> None:
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(ctx.timeout(), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # strays of a killed or crashed run
    return Process(code=proc.returncode, wall_s=wall_s,
                   cpu_s=usage.ru_utime + usage.ru_stime,
                   peak_rss_mb=usage.ru_maxrss / 1024.0,
                   timed_out=timed_out.is_set(), log=log)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


# -- references (the output oracle, never timed) --------------------------------


def load_pinned(seed: int, quota: int) -> dict | None:
    pinned = json.loads(REFERENCE_FILE.read_text())
    if pinned["seed"] == seed and pinned["quota"] == quota:
        return pinned
    return None


def compute_reference(ctx: Context, *, with_analyze: bool) -> dict:
    """Reference digests for the seed: a serial, simulated, in-memory build
    (and, for ``analyze``, the CLI's own reports of that dataset)."""
    ref_dir = ctx.work / "reference"
    ref_dir.mkdir(parents=True, exist_ok=True)
    dataset = ref_dir / "dataset.jsonl"
    process = run_process(ctx, ctx.cli("build", "--sites-per-country", ctx.quota,
                                       "--seed", ctx.seed, "--output", dataset),
                          ref_dir / "build.log")
    if not process.ok:
        raise BenchmarkError(f"reference build failed:\n{process.tail()}")
    reference = {"seed": ctx.seed, "quota": ctx.quota, "dataset": sha256(dataset)}
    if with_analyze:
        process = run_process(ctx, ctx.child("oracle-analyze", dataset, ref_dir),
                              ref_dir / "oracle.log")
        if not process.ok:
            raise BenchmarkError(f"reference reports failed:\n{process.tail()}")
        reference["analyze"] = {name: sha256(ref_dir / name) for name in ANALYZE_OUTPUTS}
    return reference


# -- workloads --------------------------------------------------------------------


class Workload:
    """Set-up, one run and its output check.  Subclasses fill these in."""

    name = ""
    needs_analyze_reference = False
    one_core = False

    def __init__(self, ctx: Context, reference: dict) -> None:
        self.ctx = ctx
        self.reference = reference

    def setup(self, iteration: Path) -> Process:
        raise NotImplementedError

    def run(self, iteration: Path, tag: str, trace_dir: Path | None) -> Run:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def check_dataset(self, run: Run, output: Path) -> Run:
        if not run.process.ok:
            run.failure = f"exit code {run.process.code}" + \
                (" (timed out)" if run.process.timed_out else "")
        elif not output.exists():
            run.failure = "no output dataset"
        elif sha256(output) != self.reference["dataset"]:
            run.failure = "dataset bytes differ from the serial simulated reference"
        else:
            run.records = count_lines(output)
            run.dataset_bytes = output.stat().st_size
        return run


class BuildHttp(Workload):
    """The same build over loopback HTTP against a site server process.

    Set-up starts the server, which generates every page before it answers
    (it would otherwise generate them lazily inside the timed run).  Each run
    crawls into a fresh, empty crawl cache.  Server and client share one
    core: a request handed between them is then a context switch, never the
    wake-up of an idle virtual CPU, which costs milliseconds on a busy host.
    """

    name = "build-http"
    one_core = True

    def setup(self, iteration: Path) -> Process:
        ctx = self.ctx
        log = iteration / "server.log"
        self.server_log = open(log, "wb")
        started = time.perf_counter()
        self.server = subprocess.Popen(
            ctx.child("server", ctx.seed, ctx.quota), cwd=ctx.root, env=ctx.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.server_log, start_new_session=True)
        timer = threading.Timer(ctx.timeout(), _kill_group, (self.server.pid,))
        timer.start()
        try:
            self.gateway = self.server.stdout.readline().decode().strip()
        finally:
            timer.cancel()
        setup_s = time.perf_counter() - started
        code = 0 if self.gateway else 1
        return Process(code=code, wall_s=setup_s, cpu_s=0.0, peak_rss_mb=0.0,
                       timed_out=False, log=log)

    def server_cpu_s(self) -> float:
        ticks = os.sysconf("SC_CLK_TCK")
        with open(f"/proc/{self.server.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / ticks

    def run(self, iteration: Path, tag: str, trace_dir: Path | None) -> Run:
        ctx = self.ctx
        output = iteration / f"{tag}.jsonl"
        cache = iteration / f"{tag}-cache"
        argv = ctx.cli("build", "--sites-per-country", ctx.quota, "--seed", ctx.seed,
                       "--transport", "http", "--http-gateway", self.gateway,
                       "--sub-shard-size", ctx.quota,
                       "--max-in-flight", min(2, os.cpu_count() or 1),
                       "--crawl-cache", cache, "--stream-output", output,
                       trace_dir=trace_dir)
        fresh = not cache.exists()
        server_before = self.server_cpu_s()
        process = run_process(ctx, argv, iteration / f"{tag}.log")
        run = self.check_dataset(Run(process, trace_dir=trace_dir,
                                     server_cpu_s=self.server_cpu_s() - server_before),
                                 output)
        if run.failure is None and not fresh:
            run.failure = "the run did not start with an empty crawl cache"
        elif run.failure is None and not (cache.is_dir() and any(cache.iterdir())):
            run.failure = "the run stored nothing in its crawl cache"
        return run

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        try:
            server.stdin.close()
            server.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        _kill_group(server.pid)
        server.wait()
        server.stdout.close()
        self.server_log.close()
        self.server = None


class DistWarm(Workload):
    """Coordinator plus one worker process over a crawl cache set-up filled.

    One window per country (the whole candidate pool) keeps the set of
    fetches independent of timing, so every fetch of the run is a cache hit.
    """

    name = "dist-warm"

    def setup(self, iteration: Path) -> Process:
        ctx = self.ctx
        self.cache = iteration / "cache"
        self.window = 2 * ctx.quota
        argv = ctx.cli("build", "--sites-per-country", ctx.quota, "--seed", ctx.seed,
                       "--sub-shard-size", self.window, "--crawl-cache", self.cache,
                       "--stream-output", iteration / "setup.jsonl")
        return run_process(ctx, argv, iteration / "setup.log")

    def run(self, iteration: Path, tag: str, trace_dir: Path | None) -> Run:
        ctx = self.ctx
        output = iteration / f"{tag}.jsonl"
        summary = iteration / f"{tag}-summary.json"
        argv = ctx.child("dist", iteration / f"{tag}-queue", self.cache, output,
                         ctx.seed, ctx.quota, self.window, summary, trace_dir=trace_dir)
        run = self.check_dataset(Run(run_process(ctx, argv, iteration / f"{tag}.log"),
                                     trace_dir=trace_dir), output)
        if run.failure is None:
            counts = json.loads(summary.read_text())
            if counts["network_requests"] != 0 or counts["cache_misses"] != 0:
                run.failure = (f"warm run went to the network: {counts['network_requests']}"
                               f" requests, {counts['cache_misses']} cache misses")
        return run


class Analyze(Workload):
    """Load the dataset into the API aggregates and render every report.

    Set-up builds the dataset (serial, simulated) in one process.
    """

    name = "analyze"
    needs_analyze_reference = True

    def setup(self, iteration: Path) -> Process:
        ctx = self.ctx
        self.dataset = iteration / "dataset.jsonl"
        process = run_process(ctx, ctx.cli("build", "--sites-per-country", ctx.quota,
                                           "--seed", ctx.seed, "--stream-output",
                                           self.dataset), iteration / "setup.log")
        if process.ok and sha256(self.dataset) != self.reference["dataset"]:
            process.code = 1
            process.log.write_text("set-up dataset differs from the reference\n")
        return process

    def run(self, iteration: Path, tag: str, trace_dir: Path | None) -> Run:
        ctx = self.ctx
        outdir = iteration / tag
        outdir.mkdir()
        argv = ctx.child("analyze", self.dataset, outdir, trace_dir=trace_dir)
        run = Run(run_process(ctx, argv, iteration / f"{tag}.log"), trace_dir=trace_dir)
        if not run.process.ok:
            run.failure = f"exit code {run.process.code}"
            return run
        for name, digest in self.reference["analyze"].items():
            path = outdir / name
            if not path.exists() or sha256(path) != digest:
                run.failure = f"{name} differs from the CLI's report"
                return run
        run.records = count_lines(self.dataset)
        run.dataset_bytes = self.dataset.stat().st_size
        return run


WORKLOAD_CLASSES = {cls.name: cls for cls in (BuildHttp, DistWarm, Analyze)}


# -- per-layer metrics from a traced run ------------------------------------------


def layer_metrics(run: Run) -> dict[str, float]:
    """Sum the traced processes' layer files and check the layer budget.

    The budget is over process-seconds: the root process's wall time as the
    benchmark measured it plus each worker's own lifetime from its spawn.
    Raises ``ValueError`` when the budget does not add up.
    """
    files = sorted(run.trace_dir.glob("*.json"))
    if not files:
        raise ValueError("traced run wrote no layer files")
    self_s: dict[str, float] = {}
    entries: dict[str, float] = {}
    counts: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    traced_wall = run.process.wall_s
    for path in files:
        payload = json.loads(path.read_text())
        if payload["open_spans"]:
            raise ValueError(f"{path.name}: {payload['open_spans']} spans left open")
        print(f"# trace {path.name}: {payload['spans']} spans,"
              f" {payload['offthread_calls']} off-thread calls,"
              f" hooks not found: {payload['missing_hooks'] or 'none'}", flush=True)
        if payload["role"] == "worker":
            traced_wall += payload["wall_s"]
            for name, value in payload["inclusive_s"].items():
                inclusive[name] = inclusive.get(name, 0.0) + value
        for target, source in ((self_s, "self_s"), (entries, "entries"),
                               (counts, "counts")):
            for name, value in payload[source].items():
                target[name] = target.get(name, 0.0) + value
    unknown = set(self_s) - set(SELF_METRICS)
    if unknown:
        raise ValueError(f"layers without a metric: {sorted(unknown)}")
    if any(value < -1e-9 for value in self_s.values()):
        raise ValueError(f"negative self time: {self_s}")
    metrics = {SELF_METRICS[layer]: self_s.get(layer, 0.0) for layer in SELF_METRICS}
    attributed = sum(metrics.values())
    unattributed = traced_wall - attributed
    if unattributed < 0:
        raise ValueError(f"self times ({attributed:.6f}s) exceed the traced wall"
                         f" ({traced_wall:.6f}s)")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    hits, misses = counts.get("transport.cache_hits", 0), counts.get("transport.cache_misses", 0)
    opened = counts.get("transport.connections_opened", 0)
    reused = counts.get("transport.connections_reused", 0)
    metrics.update({
        "webgen.pages": counts.get("webgen.pages", 0),
        "webgen.server_cpu_s": run.server_cpu_s,
        "crawler.requests": counts.get("crawler.requests", 0),
        "crawler.retries": counts.get("crawler.retries", 0) + counts.get("transport.retries", 0),
        "crawler.failed": counts.get("crawler.failed", 0),
        "transport.connections_opened": opened,
        "transport.reuse_ratio": ratio(reused, opened + reused),
        "cache.hits": hits,
        "cache.stores": counts.get("transport.cache_stores", 0),
        "cache.hit_ratio": ratio(hits, hits + misses),
        "parse.calls": entries.get("parse", 0),
        "parse.chars_per_s": ratio(counts.get("parse.chars", 0), self_s.get("parse", 0.0)),
        "visibility.calls": entries.get("visibility", 0),
        "langid.calls": entries.get("langid", 0),
        "audit.calls": entries.get("audit", 0),
        "select.evaluated": counts.get("select.evaluated", 0),
        "select.useful_ratio": ratio(counts.get("select.accepted", 0),
                                     counts.get("select.evaluated", 0)),
        "filtering.calls": entries.get("filtering", 0),
        "dataset.bytes": run.dataset_bytes,
        "dist.execute_s": inclusive.get("dist.execute", 0.0),
        "dist.windows": counts.get("dist.windows", 0),
        "dist.reissued": counts.get("dist.reissued", 0),
        "traced_wall_s": traced_wall,
        "unattributed_s": unattributed,
        "unattributed_share": ratio(unattributed, traced_wall),
    })
    budget = sum(metrics[name] for name in SELF_METRICS.values()) + metrics["unattributed_s"]
    if abs(budget - traced_wall) > 1e-9 * max(1.0, traced_wall):
        raise ValueError(f"layer budget {budget!r} != traced wall {traced_wall!r}")
    return metrics


# -- the measurement loop -----------------------------------------------------------


def environment_stamp(root: Path) -> dict:
    revision = None
    if (root / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                                      capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            revision = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "git_revision": revision, "source_sha256": digest.hexdigest()[:16]}


def measure(workload: Workload, args: argparse.Namespace, stamp: dict) -> dict:
    ctx = workload.ctx
    setups: list[float] = []
    runs: list[Run] = []
    traced: list[Run] = []
    attempted = failed = 0
    started = time.monotonic()
    durations: list[float] = []
    iteration_index = 0
    # Start another iteration only if a typical one still ends in time.
    while not durations or (
            time.monotonic() - started + statistics.median(durations) <= args.seconds
            and time.monotonic() + max(durations) < ctx.deadline):
        iteration_started = time.monotonic()
        iteration = ctx.work / f"iteration-{iteration_index}"
        iteration.mkdir()
        sample = dict(stamp, workload=workload.name, seed=ctx.seed, quota=ctx.quota,
                      iteration=iteration_index, loadavg_1m=os.getloadavg()[0])
        # Alternate which run goes first, so drift hits both alike.
        order = [("untraced", None)]
        if args.trace:
            order.append(("traced", iteration / "trace"))
            if iteration_index % 2:
                order.reverse()
        attempted += len(order)
        try:
            setup = workload.setup(iteration)
            if not setup.ok:
                failed += len(order)
                sample["failure"] = f"set-up failed: {setup.tail()}"
            else:
                setups.append(setup.wall_s)
                sample["setup_s"] = setup.wall_s
                for tag, trace_dir in order:
                    if trace_dir is not None:
                        trace_dir.mkdir()
                    run = workload.run(iteration, tag, trace_dir)
                    if tag == "traced":
                        traced.append(run)
                        sample["traced_wall_s"] = run.process.wall_s
                    else:
                        runs.append(run)
                        sample.update(wall_s=run.process.wall_s, cpu_s=run.process.cpu_s,
                                      peak_rss_mb=run.process.peak_rss_mb,
                                      records=run.records)
                    if run.failure is not None:
                        failed += 1
                        sample["failure"] = f"{tag}: {run.failure}\n{run.process.tail()}"
        finally:
            workload.teardown()
        print("# sample " + json.dumps(sample, sort_keys=True), flush=True)
        durations.append(time.monotonic() - iteration_started)
        iteration_index += 1

    good = [run for run in runs if run.failure is None]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if not good or not setups:
        return dict(result, correct=False, metrics={})
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(run.process.wall_s for run in good),
        "records_per_s": statistics.median(run.records / run.process.wall_s for run in good),
        "cpu_s": statistics.median(run.process.cpu_s for run in good),
        "peak_rss_mb": statistics.median(run.process.peak_rss_mb for run in good),
    }
    if not args.trace:
        return dict(result, metrics={name: {"value": end_to_end[name], "unit": unit}
                                     for name, unit in END_TO_END})
    good_traced = sorted((run for run in traced if run.failure is None),
                         key=lambda run: run.process.wall_s)
    if not good_traced:
        return dict(result, correct=False, metrics={})
    representative = good_traced[len(good_traced) // 2]
    try:
        layers = layer_metrics(representative)
    except ValueError as error:
        print(f"# layer budget check failed: {error}", flush=True)
        return dict(result, correct=False, failed=failed + 1, metrics={})
    layers["trace_overhead"] = (statistics.median(run.process.wall_s for run in good_traced)
                                / end_to_end["wall_s"] - 1.0)
    return dict(result, metrics={name: {"value": layers[name], "unit": unit}
                                 for name, unit in PER_LAYER})


def print_table(result: dict) -> None:
    print("# metric                              value  unit")
    for name, entry in result["metrics"].items():
        print(f"# {name:<30} {entry['value']:>14.6g}  {entry['unit']}")
    print(f"# attempted {result['attempted']}, failed {result['failed']},"
          f" correct {result['correct']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quota", type=int, default=QUOTA,
                        help="sites per country (the smoke test uses a tiny one)")
    parser.add_argument("--write-reference", action="store_true",
                        help="pin the seed's reference digests in reference.json"
                             " instead of measuring")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: {root} holds no src/repro; run from the repository root",
              file=sys.stderr)
        return 2
    work_root = root / WORK_DIR
    work = work_root / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # A fixed hash seed gives every run the same set and dict layouts.
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work),
               PYTHONHASHSEED="0")
    env.pop("PYTHONPYCACHEPREFIX", None)
    ctx = Context(root=root, work=work, seed=args.seed, quota=args.quota,
                  deadline=time.monotonic() + RUN_DEADLINE_S, env=env)
    try:
        # Compile the sources once, untimed, so no timed process pays it.
        warmup = run_process(ctx, [ctx.python, "-m", "compileall", "-q", "src/repro"],
                             work / "compile.log")
        if not warmup.ok:
            raise BenchmarkError(f"cannot compile the sources:\n{warmup.tail()}")
        cls = WORKLOAD_CLASSES[args.workload]
        if cls.one_core:
            # Children inherit the mask, so every process of the run shares
            # one core.
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        if args.write_reference:
            reference = compute_reference(ctx, with_analyze=True)
            REFERENCE_FILE.write_text(json.dumps(reference, indent=2) + "\n")
            print(f"pinned the references of seed {args.seed} in {REFERENCE_FILE}")
            return 0
        reference = load_pinned(args.seed, args.quota) or compute_reference(
            ctx, with_analyze=cls.needs_analyze_reference)
        stamp = environment_stamp(root)
        result = measure(cls(ctx, reference), args, stamp)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print_table(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
