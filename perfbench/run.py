"""Closed-loop benchmark of the `ncm` decision verbs.

    python3 perfbench/run.py --workload pump --seed 1 --seconds 38 --trace 0

One client in one process sends the workload's queries one after another
through `ncmkit.cli.main([..., "--format", "structured"])`, so each query
takes the user's path: parsing, constructions, phase automaton, flow
search, replay and JSON.  Every verdict is checked against the known
answers in reference.py.  A pass answers the whole query list once.
Then decided queries are answered again while they fit in --seconds:
each up to MIN_ANSWERS times, cheapest first, and then always the one
that has taken the least time so far.

Times are CPU time of this process, scaled to a fixed machine speed.
The program is single-threaded and never waits, so on an unshared
machine its CPU time is its elapsed time.  On a shared virtual machine,
CPU time leaves out the stretches in which the host runs other tenants,
which stretched elapsed times up to 1.8x.  The CPU time of the same work
still swings by about 1.75x as the host switches between a fast and a
slow state every few seconds.  So a pure-Python reference loop, which
does not use ncmkit, is timed just before and just after every answer
(see Speed), and each answer's CPU time is scaled to the speed at which
the loop takes REFERENCE_MS.  Each query is answered several times
across the run, and the median of its scaled times counts.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each query
untraced and then traced (see spans.py), checks that both give the same
output, and prints the per-layer metrics.  The last line of standard
output is the JSON result; the lines before it list undecided and
failed queries.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import reference
from spans import Tracer, layer_metrics
from workloads import LIMITS, UNDECIDED_AT_SEED, WORKLOADS, Query

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE_DIR = SRC / "ncmkit" / "fixtures"
WORK_DIR = ROOT / ".perfbench-work"

SETUP_REPEATS = 9
# Every decided query is answered at least this often if the run allows.
MIN_ANSWERS = 3
# The reference self-test compares predicates and the oracle on every word
# up to the longest length with at most this many words (and at most 7).
SELFTEST_WORDS = 50_000
# Share of a traced pass that its top-level spans must cover.
COVERAGE_TOLERANCE = 0.05
# Reported times are scaled to the machine speed at which the reference
# loop takes REFERENCE_MS of CPU time.
REFERENCE_MS = 5.0


def _reference_loop():
    """Pure Python of the kinds ncmkit spends its time on, without ncmkit:
    Fraction arithmetic and tuple keys in dicts."""
    total, seen = Fraction(0), {}
    for i in range(1, 2000):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 97, i % 13)
        seen[key] = seen.get(key, 0) + 1
    return total, len(seen)


class Speed:
    """The machine's speed, from the reference loop's CPU time.

    The host switches every few seconds between a fast state and one in
    which the same CPU work takes about 1.75 times as long, and runs
    differ in how much of their time falls in each.  The reference loop
    slows with the program, so a time scaled by the reference times
    taken just before and just after it is nearly the same in both."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def reference(self) -> float:
        start = process_time()
        _reference_loop()
        self.times.append(process_time() - start)
        return self.times[-1]

    @staticmethod
    def factor(before: float, after: float) -> float:
        """From CPU seconds between two reference timings to seconds at
        the reference speed."""
        return 2 * REFERENCE_MS / 1000.0 / (before + after)


class QueryTimeout(BaseException):
    """Raised by the CPU-time alarm handler; a BaseException so that no
    handler in the package can swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


@dataclass
class Outcome:
    kind: str        # "exit" (cli.main returned), "timeout" or "raised"
    code: int | None
    stdout: str
    seconds: float             # CPU time
    elapsed: float             # wall-clock time
    fault: str | None = None   # last open span, in traced passes
    scaled: float = 0.0        # CPU time at the reference speed

    def same_as(self, other: "Outcome") -> bool:
        return (self.kind, self.code, self.stdout) == (other.kind, other.code, other.stdout)


def _import_ncmkit():
    for name in [n for n in sys.modules if n == "ncmkit" or n.startswith("ncmkit.")]:
        del sys.modules[name]
    import ncmkit.cli
    return ncmkit


def _setup(workload: str, seed: int, work: Path):
    """Import ncmkit, then generate, write and parse the seeded inputs."""
    ncmkit = _import_ncmkit()
    queries = WORKLOADS[workload](random.Random(seed))
    paths = {}
    for q in queries:
        name = q.target_name
        if name in paths:
            continue
        if isinstance(q.target, reference.Crossed):
            path = work / f"{name}.ncm"
            path.write_text(q.target.text(), encoding="utf-8")
        else:
            path = FIXTURE_DIR / f"{name}.ncm"
        ncmkit.machine.load_machine(str(path))
        paths[name] = str(path)
    return ncmkit, queries, paths


def _selftest(ncmkit, queries) -> dict:
    """Check every predicate against the oracle on short words.

    Returns, per target, the accepted words up to the horizon, which the
    witness checks use.  Raises RuntimeError on any disagreement."""
    targets = {name: name for name in reference.FIXTURES}
    targets.update((q.target_name, q.target) for q in queries)
    samples = {}
    for name, target in targets.items():
        if isinstance(target, reference.Crossed):
            accepts, alphabet = target.accepts, target.alphabet
            machine = ncmkit.machine.parse_machine(target.text())
        else:
            accepts, alphabet = reference.LANGUAGES[name], reference.ALPHABETS[name]
            machine = ncmkit.machine.load_machine(str(FIXTURE_DIR / f"{name}.ncm"))
        if set(alphabet) != set(machine.alphabet):
            raise RuntimeError(f"{name}: reference alphabet {alphabet} differs")
        horizon = 7
        while len(alphabet) ** horizon > SELFTEST_WORDS:
            horizon -= 1
        expected = reference.words_upto(accepts, alphabet, horizon)
        sample = ncmkit.oracle.enumerate_language(machine, ncmkit.oracle.caps_for(horizon))
        found = {"".join(w) for w in sample.words}
        if found != expected:
            diff = sorted(found ^ expected, key=lambda w: (len(w), w))[:5]
            raise RuntimeError(f"{name}: predicate and oracle disagree on {diff} "
                               f"(horizon {horizon}, truncated={sample.truncated})")
        samples[name] = expected
    return samples


def _run_query(main, argv, limit: float, tracer: Tracer | None) -> Outcome:
    out = io.StringIO()
    code, kind = None, "exit"
    start, cpu = perf_counter(), process_time()
    try:
        signal.setitimer(signal.ITIMER_PROF, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
    except QueryTimeout:
        if code is None:
            kind = "timeout"
    except Exception as exc:  # a traceback from the program is a failed query
        kind = "raised"
        out.write(f"{type(exc).__name__}: {exc}")
    seconds, elapsed = process_time() - cpu, perf_counter() - start
    fault = tracer.end_query() if tracer is not None else None
    return Outcome(kind, code, out.getvalue(), seconds, elapsed, fault)


def _run_pass(ncmkit, queries, paths, limit, speed=None):
    """Answer each query once.  A full collection runs before each query,
    so its time does not depend on what ran before it, as in a fresh
    `ncm` process."""
    outcomes = []
    for q in queries:
        before = speed.reference() if speed is not None else 0.0
        gc.collect()
        o = _run_query(ncmkit.cli.main, q.argv(paths[q.target_name]), limit, None)
        if speed is not None:
            factor = speed.factor(before, speed.reference())
            # a timeout costs its limit, whatever the machine's speed
            o.scaled = o.seconds if o.kind == "timeout" else o.seconds * factor
        outcomes.append(o)
    return outcomes


def _run_traced_pass(ncmkit, queries, paths, limit, tracer):
    """Answer every query untraced and then traced, back to back, so that
    both runs of a query see the same machine speed."""
    plain, traced = [], []
    for q in queries:
        argv = q.argv(paths[q.target_name])
        gc.collect()
        plain.append(_run_query(ncmkit.cli.main, argv, limit, None))
        tracer.install()
        try:
            gc.collect()
            traced.append(_run_query(ncmkit.cli.main, argv, limit, tracer))
        finally:
            tracer.uninstall()
    return plain, traced


def _judge(q: Query, o: Outcome, samples) -> tuple[str, str]:
    """("decided" | "undecided" | "failed", reason)."""
    if o.kind == "timeout":
        return "undecided", "time limit"
    if o.kind == "raised":
        return "failed", o.stdout.strip()
    if o.code == 3:
        return "undecided", "exit 3"
    if o.code != 0:
        return "failed", f"exit {o.code}"
    try:
        verdict = json.loads(o.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "failed", "no JSON verdict"
    if q.verb == "member":
        reason = reference.check_member(q.word, q.target, verdict)
    elif q.verb == "satisfies":
        reason = reference.check_satisfies(q.pattern, q.expected, verdict)
    else:
        reason = reference.check(q.verb, q.target, verdict, q.expected,
                                 samples[q.target_name])
    return ("failed", reason) if reason else ("decided", "")


def _budget_used(outcomes) -> int:
    total = 0
    for o in outcomes:
        if o.kind == "exit" and o.code == 0:
            with contextlib.suppress(ValueError, IndexError):
                total += json.loads(o.stdout.strip().splitlines()[-1]).get("budget_used", 0)
    return total


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


LAYER_UNITS = {"ms": "ms", "self_ms": "ms", "yes_frac": "frac",
               "overhead_frac": "frac", "coverage_frac": "frac",
               "refuted_without_search": "frac"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ncmkit" / "__init__.py").is_file():
        print(f"error: no ncmkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def _benchmark(args, work: Path) -> int:
    setup_times, speed = [], Speed()
    for _ in range(SETUP_REPEATS):
        before = speed.reference()
        start = process_time()
        ncmkit, queries, paths = _setup(args.workload, args.seed, work)
        seconds = process_time() - start
        setup_times.append(seconds * speed.factor(before, speed.reference()))
    if not Path(ncmkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported ncmkit from {ncmkit.__file__}", file=sys.stderr)
        return 2
    try:
        samples = _selftest(ncmkit, queries)
    except RuntimeError as err:
        print(f"error: reference self-test failed: {err}", file=sys.stderr)
        return 1

    signal.signal(signal.SIGPROF, _on_alarm)
    limit = LIMITS[args.workload]
    problems = []
    began = perf_counter()
    if args.trace:
        tracer = Tracer()
        outcomes, traced = _run_traced_pass(ncmkit, queries, paths, limit, tracer)
        runs = outcomes + traced
        traced_wall = sum(o.elapsed for o in traced)
        layers = layer_metrics(tracer.spans, len(queries), traced_wall)
        layers["decide.budget_used"] = _budget_used(traced)
        layers["trace.overhead_frac"] = (sum(o.seconds for o in traced)
                                         / sum(o.seconds for o in outcomes) - 1)
        for q, a, b in zip(queries, outcomes, traced):
            if not a.same_as(b):
                problems.append(f"traced output differs: {q.label}")
        if layers["trace.coverage_frac"] < 1 - COVERAGE_TOLERANCE:
            problems.append(f"top-level spans cover only "
                            f"{layers['trace.coverage_frac']:.3f} of the traced pass")
    else:
        outcomes, traced = _run_pass(ncmkit, queries, paths, limit, speed), []
        runs = list(outcomes)
        times = [[o.scaled] for o in outcomes]
        cost = [o.elapsed for o in outcomes]
        spent = list(cost)
        repeat = [i for i, o in enumerate(outcomes) if o.kind != "timeout"]
        # While its last answer's time still fits in the run, answer again
        # the query with fewer than MIN_ANSWERS answers, or else the one
        # that has taken the least time so far.  Cheap queries get many
        # answers, spread over the whole run.
        while True:
            left = args.seconds - (perf_counter() - began)
            fits = [i for i in repeat if cost[i] <= left]
            if not fits:
                break
            i = min(fits, key=lambda i: (len(times[i]) >= MIN_ANSWERS, spent[i]))
            start = perf_counter()
            (again,) = _run_pass(ncmkit, [queries[i]], paths, limit, speed)
            spent[i] += perf_counter() - start
            cost[i] = again.elapsed
            times[i].append(again.scaled)
            runs.append(again)
            if not again.same_as(outcomes[i]):
                problems.append(f"repeated query gave another output: {queries[i].label}")
        query_times = [statistics.median(t) for t in times]

    # the untraced pass, then the traced one; undecided queries are listed
    # from the last pass, which in a traced run knows the last open span
    judged = [(q, o, *_judge(q, o, samples))
              for q, o in zip(queries * 2, outcomes + traced)]
    failed = 0
    for q, o, status, reason in judged:
        if status == "failed":
            failed += 1
            problems.append(f"failed: {q.label}: {reason}")
    for q, o, status, reason in judged[-len(queries):]:
        if status == "undecided":
            cell = (q.verb, q.target_name)
            note = "" if cell in UNDECIDED_AT_SEED else " (decided at the seed)"
            where = f", last open span {o.fault}" if o.fault else ""
            print(f"undecided: {q.label}: {reason} after {o.seconds:.2f} s{where}{note}")
    for line in problems:
        print(line)
    print(f"workload={args.workload} seed={args.seed} queries={len(queries)} "
          f"runs={len(runs)} limit={limit:g}s "
          f"reference_ms={1000 * statistics.median(speed.times):.3f}")

    if args.trace:
        metrics = {key: _metric(value, LAYER_UNITS.get(key.rsplit(".", 1)[-1], "count"))
                   for key, value in layers.items()}
    else:
        latencies = [1000.0 * t for t in query_times]
        decided = sum(status == "decided" for _, _, status, _ in judged)
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "pass_cpu_s": _metric(sum(query_times), "s"),
            "query_ms_p50": _metric(statistics.median(latencies), "ms"),
            "query_ms_p75": _metric(
                statistics.quantiles(latencies, n=4, method="inclusive")[2], "ms"),
            "decided_frac": _metric(decided / len(queries), "frac"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({"correct": not problems, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
