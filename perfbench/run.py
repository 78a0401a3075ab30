#!/usr/bin/env python3
"""The magmoves benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``enumerate-n5``: ``magmoves enumerate --n 5`` through ``cli.main``,
  output hashed; the bulk enumeration path.
* ``sweep-n4``: ``magmoves verify --n 4`` then ``magmoves conjecture --n 4``
  through ``cli.main``; many tiny graphs.
* ``queries``: one client sending single-graph queries back to back (a
  closed loop) from a seeded stream of at least 1,000 (``gen.py``).

Each run repeats whole passes of its workload until ``--seconds`` have
passed, then checks every output against ``reference.json`` or against
invariants that hold for any seed.  With ``--trace 0`` the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics:

* ``setup_s``: process start to the first timed operation, the median of
  several fresh processes that do only the set-up;
* ``peak_rss_mb``: peak resident memory at the end of the timed phase;
* ``wall_s``: median wall time of one pass;
* ``op_p50_ms``: lower median latency of one operation in a pass, where an
  operation is one CLI command or one query (median over passes);
* ``op_p99_ms``: the highest latency in a pass with at least ten
  operations beyond it, or the largest when a pass has fewer than eleven
  (median over passes).  On ``sweep-n4`` the two percentiles are the
  ``conjecture`` and ``verify`` commands.

With ``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer metrics of ``layers.py`` instead; the spans are
written to ``.bench_build/perfbench/``.  ``--record`` rewrites
``reference.json`` from the current library.

Lines before the last one give the environment fingerprint and the
figures behind each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("enumerate-n5", "sweep-n4", "queries")
CLI_OPS = {
    "enumerate-n5": (("enumerate", "--n", "5"),),
    "sweep-n4": (("verify", "--n", "4"), ("conjecture", "--n", "4")),
}
REFERENCE_SEED = 1
SETUP_RUNS = 5


class HashSink:
    """A write-only text stream that hashes and counts what it receives."""

    def __init__(self, keep: bool) -> None:
        self.sha = hashlib.sha256()
        self.lines = 0
        self.parts: list[str] | None = [] if keep else None

    def write(self, s: str) -> int:
        self.sha.update(s.encode())
        self.lines += s.count("\n")
        if self.parts is not None:
            self.parts.append(s)
        return len(s)

    def flush(self) -> None:
        pass

    def summary(self) -> dict:
        out = {"lines": self.lines, "sha256": self.sha.hexdigest()}
        if self.parts is not None:
            out["report"] = json.loads("".join(self.parts))
        return out


# -- workloads -------------------------------------------------------------


class CliWorkload:
    """Fixed CLI commands run in-process, each output checked in full."""

    def __init__(self, name: str, reference: dict) -> None:
        from magmoves import cli

        self.cli = cli
        self.ops = CLI_OPS[name]
        self.reference = reference

    def one_pass(self) -> list[tuple[str, float, object]]:
        out = []
        for argv in self.ops:
            key = " ".join(argv)
            sink = HashSink(keep=argv[0] != "enumerate")
            with contextlib.redirect_stdout(sink):
                t0 = time.perf_counter()
                rc = self.cli.main(list(argv))
                dt = time.perf_counter() - t0
            out.append((key, dt, (rc, sink.summary())))
        return out

    def condense(self, ops):
        return ops

    def failures(self, passes) -> list[str]:
        bad = []
        for ops in passes:
            for key, _, (rc, got) in ops:
                if rc != 0:
                    bad.append(f"{key}: exit code {rc}")
                elif got != self.reference.get(key):
                    bad.append(f"{key}: output differs from the recorded one")
        return bad

    def figures(self, passes, walls) -> list[str]:
        return [
            f"{key.split()[0]}_s={dt:.4f} lines={got['lines']}"
            for ops in passes
            for key, dt, (_, got) in ops
        ]


class QueryWorkload:
    """A seeded stream of single-graph queries, answered one at a time."""

    def __init__(self, seed: int, reference: dict) -> None:
        import gen
        import queries

        self.queries = queries
        self.stream = gen.query_stream(seed)
        self.reference = reference if seed == reference.get("seed") else None

    def one_pass(self) -> list[tuple[str, float, object]]:
        run = self.queries.run
        out = []
        for q in self.stream:
            t0 = time.perf_counter()
            try:
                result = run(q)
            except Exception as exc:  # a failed query, counted and reported
                result = exc
            out.append((q.kind, time.perf_counter() - t0, result))
        return out

    def digests(self, ops) -> list[str | None]:
        return [
            None if isinstance(r, Exception) else self.queries.answer_digest(q, r)
            for q, (_, _, r) in zip(self.stream, ops)
        ]

    def condense(self, ops):
        """A later pass keeps only answer digests, so memory does not grow
        with the number of passes a run fits in."""
        return [(kind, dt, d) for (kind, dt, _), d in zip(ops, self.digests(ops))]

    def failures(self, passes) -> list[str]:
        """One entry per failed query execution.

        Answers of the first pass are checked against invariants, the
        oracle, and (for the reference seed) the recorded digests; a later
        pass fails wherever its answer differs from the first pass's.
        """
        first = self.digests(passes[0])
        want = self.reference["answers"] if self.reference else None
        parsed: dict = {}
        first_bad = []
        for i, (q, (_, _, r)) in enumerate(zip(self.stream, passes[0])):
            if isinstance(r, Exception):
                why = [f"raised {type(r).__name__}: {r}"]
            else:
                why = self.queries.check(q, r, parsed)
            if want is not None and (i >= len(want) or want[i] != first[i]):
                why.append("answer differs from the recorded one")
            first_bad.append(f"query {i} ({q.kind}): {'; '.join(why)}" if why else None)
        if want is not None and len(want) != len(first):
            first_bad.append(f"{len(first)} queries, {len(want)} recorded")
        bad = [b for b in first_bad if b]
        for ops in passes[1:]:
            again = [d for _, _, d in ops]
            for i, (a, b) in enumerate(zip(first, again)):
                if first_bad[i] or a != b:
                    bad.append(f"query {i}: {first_bad[i] or 'answer changed'}")
        return bad

    def figures(self, passes, walls) -> list[str]:
        count = sum(len(ops) for ops in passes)
        tiers = ", ".join(
            f"{tier} {kinds}" for tier, kinds in self.composition().items()
        )
        return [
            f"queries_per_s={count / sum(walls):.3f} over {count} queries, "
            f"one client in a closed loop; stream: {tiers}"
        ]

    def composition(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for q in self.stream:
            kinds = out.setdefault(q.tier, {})
            kinds[q.kind] = kinds.get(q.kind, 0) + 1
        return out


def set_up(workload: str, seed: int):
    reference = json.loads(REFERENCE.read_text())
    if workload == "queries":
        return QueryWorkload(seed, reference["queries"])
    return CliWorkload(workload, reference["cli"])


# -- metrics ---------------------------------------------------------------


def _tail(sorted_values: list[float]) -> float:
    """Highest value with at least ten values beyond it, else the largest."""
    if len(sorted_values) >= 11:
        return sorted_values[-11]
    return sorted_values[-1]


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that start, set up and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
    cmd += ["--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def fingerprint(seed: int) -> dict:
    import numpy

    from magmoves import _kernels

    src = hashlib.sha256()
    for path in sorted((SRC / "magmoves").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        commit = got.stdout.strip() or commit
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "using_numba": _kernels.USING_NUMBA,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(work, seconds: int) -> tuple[list, list[float], float]:
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = work.one_pass()
        walls.append(time.perf_counter() - t0)
        if passes:
            ops = work.condense(ops)
        passes.append(ops)
        if time.perf_counter() - start >= seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, walls, rss_mb


def end_to_end(args, work) -> tuple[dict, list, list[str]]:
    passes, walls, rss_mb = timed_run(work, args.seconds)
    setups = setup_seconds(args.workload, args.seed)
    # Percentiles are taken per pass, then the median over passes, so the
    # number of passes a run fits in does not shift them.
    per_pass = [sorted(dt for _, dt, _ in ops) for ops in passes]
    p50 = [statistics.median_low(lat) for lat in per_pass]
    p99 = [_tail(lat) for lat in per_pass]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "op_p50_ms": _metric(1e3 * statistics.median(p50), "ms"),
        "op_p99_ms": _metric(1e3 * statistics.median(p99), "ms"),
    }
    notes = [
        f"passes={len(walls)} pass_s={[round(w, 4) for w in walls]}",
        f"setup_s runs={[round(s, 4) for s in setups]}",
        f"operations per pass={[len(lat) for lat in per_pass]}",
        f"op_p50_ms per pass={[round(1e3 * v, 4) for v in p50]}",
        f"op_p99_ms per pass={[round(1e3 * v, 4) for v in p99]}",
    ] + work.figures(passes, walls)
    return metrics, passes, notes


def traced(args, work) -> tuple[dict, list, list[str]]:
    import layers
    import spans

    t0 = time.perf_counter()
    plain = work.one_pass()
    untraced_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install(spans.package_modules(), layers.TARGETS)
    try:
        t0 = time.perf_counter()
        seen = work.one_pass()
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    values, absent = layers.per_layer(tracer, traced_s - untraced_s)
    units = {name: spec[0] for name, spec in layers.PER_LAYER.items()}
    metrics = {name: _metric(values[name], units[name]) for name in layers.PER_LAYER}
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    dump = tracer.dump()
    dump.update(env=fingerprint(args.seed), metrics=values, absent=absent)
    out.write_text(json.dumps(dump, indent=1))
    notes = [f"untraced_s={untraced_s:.4f} traced_s={traced_s:.4f}", f"spans: {out}"]
    notes += [f"absent {name}: {why}" for name, why in sorted(absent.items())]
    return metrics, [plain, work.condense(seen)], notes


# -- entry -----------------------------------------------------------------


def record() -> None:
    """Rewrite the reference outputs from the current library."""
    cli = {}
    for name in CLI_OPS:
        work = CliWorkload(name, {})
        for key, _, (rc, got) in work.one_pass():
            if rc != 0:
                raise SystemExit(f"{key} exited with {rc}; nothing recorded")
            cli[key] = got
    work = QueryWorkload(REFERENCE_SEED, {})
    answers = work.digests(work.one_pass())
    if None in answers:
        raise SystemExit("a reference query raised; nothing recorded")
    doc = {"cli": cli, "queries": {"seed": REFERENCE_SEED, "answers": answers}}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = ap.parse_args()
    if not (SRC / "magmoves" / "__init__.py").is_file():
        print(f"error: no magmoves sources under {SRC}", file=sys.stderr)
        return 2
    # Every workload is measured as one single-threaded process.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    work = set_up(args.workload, args.seed)
    if args.setup_only:
        sys.stdout.flush()
        os._exit(0)  # skip interpreter teardown, which is not set-up
    measure = traced if args.trace else end_to_end
    metrics, passes, notes = measure(args, work)
    bad = work.failures(passes)
    attempted = sum(len(ops) for ops in passes)
    print("env " + json.dumps(fingerprint(args.seed), sort_keys=True))
    for line in notes:
        print(line)
    for line in bad[:20]:
        print(f"FAILED {line}")
    print(f"failed_frac={len(bad) / attempted:.6f} ({len(bad)}/{attempted})")
    print(
        json.dumps(
            {
                "correct": not bad,
                "attempted": attempted,
                "failed": len(bad),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
