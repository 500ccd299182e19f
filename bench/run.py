"""Closed-loop benchmark of moss: one client, one run at a time, each run a fresh child.

    python3 bench/run.py --workload emit|check|certify|all --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
    emit     moss family --q 13 --out DIR: writes the 156 documents of GF(13)
    check    moss verify --files on the 72 documents of family --q 9, made
             before timing; the seed shuffles the order of the files
    certify  verify_family(build_family(GF(81)), "fast"): 20 991 960 pairs

Runs repeat until --seconds have passed (at least MIN_RUNS of them).  Each
run must pass its workload's correctness gate, against results recorded in
baseline.json; a run that fails is counted in `failed` and not timed.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s and peak_rss_mb of
one run (medians; CPU time and the child's own ru_maxrss from os.wait4),
items_per_s (squares written or pairs checked per second) and setup_s, the
median wall time of the children, SETUP_PER_RUN after each run, that import
moss, build GF(q) and run find_alpha and derive_lambda.

--trace 1 alternates untraced and traced runs and reports per-layer metrics
from spans recorded around calls into moss (spans.py): per function the calls,
busy and self time of one run, and the median and tail duration of one call;
the work counts in spans.COUNTS; and the tracing overhead, the median over
pairs of adjacent runs of traced minus untraced wall time, with a note when
it is smaller than the spread of those differences.  Span files are kept in
.bench_work/spans.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 when every run
passed its gate, 1 when one failed or the inputs could not be made (then
without a result line), 2 when there is no moss source tree to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
WORK = ROOT / ".bench_work"
SPANS = WORK / "spans"

MIN_RUNS = 3  # timed runs of each kind, however short --seconds is
SETUP_PER_RUN = 3  # setup children after each untraced run
CHILD_TIMEOUT_S = 60  # a run still going after this is killed and fails its gate

ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class SetupFailed(Exception):
    """The benchmark could not prepare its inputs."""


class Child(NamedTuple):
    code: int
    stdout: str
    wall_s: float
    cpu_s: float
    rss_mb: float


class Run(NamedTuple):
    child: Child
    ok: bool
    trace_file: Path | None


def _expire(signum, frame):
    raise TimeoutError


def _wait(pid: int):
    """os.wait4 on one child; kills it after CHILD_TIMEOUT_S or on interrupt."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    try:
        return os.wait4(pid, 0)
    except BaseException as exc:
        os.kill(pid, signal.SIGKILL)
        result = os.wait4(pid, 0)
        if isinstance(exc, TimeoutError):
            return result
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def spawn(args: list[str], out: Path) -> Child:
    """Run child.py with args in a fresh interpreter; stdout goes to out."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(out.with_suffix(".err")), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, str(CHILD), *args], ENV,
                         file_actions=actions)
    _, status, usage = _wait(pid)
    wall = time.perf_counter() - start
    return Child(os.waitstatus_to_exitcode(status), out.read_text(), wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def family_size(q: int) -> int:
    return q * (q - 1)


def pair_count(q: int) -> int:
    n = family_size(q)
    return n * (n - 1) // 2


def digest(directory: Path) -> str:
    """sha256 over the bytes of the files, in sorted name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.read_bytes())
    return h.hexdigest()


def expected_digest(q: int) -> str:
    """sha256 of the documents of family --q q, recorded from the unmodified program."""
    digests = json.loads((BENCH / "baseline.json").read_text())["expected"]["family_sha256"]
    if str(q) not in digests:
        raise SetupFailed(f"baseline.json records no family digest for q = {q}")
    return digests[str(q)]


class Workload:
    """One kind of run: its inputs, its child arguments and its correctness gate."""

    name: str
    default_q: int
    dominant: tuple[str, ...]  # functions expected to take most of the traced wall time

    def __init__(self, seed: int, tmp: Path):
        self.q, self.seed, self.tmp = self.default_q, seed, tmp

    @property
    def items(self) -> int:
        """What items_per_s counts in one run: pairs checked, unless overridden."""
        return pair_count(self.q)

    def prepare(self) -> None:
        """Untimed work before each run."""

    def args(self) -> list[str]:
        raise NotImplementedError

    def passed(self, child: Child) -> bool:
        raise NotImplementedError


class Emit(Workload):
    name, default_q = "emit", 13
    dominant = ("sudoku.build_from_canonical", "serialize.SquareDocument.to_json")

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.out = tmp / "emit"
        self.expected = expected_digest(self.q)

    @property
    def items(self):
        """Squares written."""
        return family_size(self.q)

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def args(self):
        return ["cli", "family", "--q", str(self.q), "--out", str(self.out)]

    def passed(self, child):
        return child.code == 0 and self.out.is_dir() and digest(self.out) == self.expected


class Check(Workload):
    name, default_q = "check", 9
    dominant = ("sudoku.verify_orthogonal_bruteforce",)

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        docs = tmp / "documents"
        made = spawn(["cli", "family", "--q", str(self.q), "--out", str(docs)],
                     tmp / "documents.out")
        if made.code != 0 or not docs.is_dir() or digest(docs) != expected_digest(self.q):
            raise SetupFailed(f"family --q {self.q} did not reproduce the recorded documents")
        self.files = sorted(str(path) for path in docs.iterdir())
        self.rng = random.Random(seed)

    def args(self):
        return ["cli", "verify", "--files", *self.rng.sample(self.files, len(self.files))]

    def passed(self, child):
        last = child.stdout.rstrip("\n").rpartition("\n")[2]
        return child.code == 0 and last == (
            f"{family_size(self.q)} squares ok, {pair_count(self.q)} pairs checked, 0 failures")


class Certify(Workload):
    name, default_q = "certify", 81
    dominant = ("family.verify_family",)

    def args(self):
        return ["certify", str(self.q)]

    def passed(self, child):
        try:
            report = json.loads(child.stdout)
        except ValueError:
            return False
        return child.code == 0 and report == {
            "ok": True, "size": family_size(self.q), "pairs": pair_count(self.q)}


WORKLOADS = {w.name: w for w in (Emit, Check, Certify)}


def setup_wall(workload: Workload) -> float:
    """Wall time of one setup child for the workload's q."""
    child = spawn(["setup", str(workload.q)], workload.tmp / "setup.out")
    if child.code != 0:
        raise SetupFailed(f"setup child for q = {workload.q} exited {child.code}")
    return child.wall_s


def measure(workload: Workload, seconds: float,
            trace: bool) -> tuple[dict[bool, list[Run]], list[float]]:
    """Closed loop until `seconds` have passed; returns the runs and the setup times.

    With trace, untraced and traced runs alternate, so that each traced run
    has an untraced neighbour to measure the tracing overhead against.
    Without it, SETUP_PER_RUN setup children follow each run, after one
    untimed warm-up: spread over the whole loop, they see the same changes
    in the speed of a shared host as the runs do, where a block of them
    before the loop would see only its first seconds.
    """
    runs: dict[bool, list[Run]] = {False: [], True: []}
    setup: list[float] = []
    if not trace:
        setup_wall(workload)
    deadline = time.perf_counter() + seconds
    while len(runs[trace]) < MIN_RUNS or time.perf_counter() < deadline:
        traced = trace and len(runs[False]) > len(runs[True])
        workload.prepare()
        args = workload.args()
        path = None
        if traced:
            run_id = str(len(runs[True]))
            path = SPANS / f"{workload.name}-seed{workload.seed}-run{run_id}.jsonl"
            args = ["--spans", str(path), workload.name, run_id, *args]
        child = spawn(args, workload.tmp / "run.out")
        runs[traced].append(Run(child, workload.passed(child), path))
        if not trace:
            setup += [setup_wall(workload) for _ in range(SETUP_PER_RUN)]
    return runs, setup


def tail(values: list[float]) -> tuple[float, str]:
    """The largest value with at least ten values above it, and its percentile.

    Below twenty values that percentile would lie under the median, so the
    maximum is given instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], "max"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f}"


def end_to_end(workload: Workload, good: list[Run], setup: list[float]) -> dict:
    walls = [r.child.wall_s for r in good]
    wall = statistics.median(walls)
    return {
        "wall_s": (wall, "s", walls),
        "cpu_s": (statistics.median(r.child.cpu_s for r in good), "s",
                  [r.child.cpu_s for r in good]),
        "items_per_s": (workload.items / wall, "1/s", None),
        "peak_rss_mb": (statistics.median(r.child.rss_mb for r in good), "MB",
                        [r.child.rss_mb for r in good]),
        "setup_s": (statistics.median(setup), "s", setup),
    }


def per_layer(traced: list[Run], overheads: list[float]) -> dict:
    """Span metrics of the traced runs.

    overheads holds, per pair of adjacent runs, traced minus untraced wall time.
    """
    runs = [spans.summarize(spans.read(r.trace_file)) for r in traced]
    metrics = {}
    for name in spans.FUNCTIONS:
        entries = [run[name] for run in runs]
        durations = [d / 1e9 for e in entries for d in e["durations_ns"]]
        metrics[f"{name}.calls"] = (statistics.median(e["calls"] for e in entries), "count", None)
        for key in ("busy", "self"):
            values = [e[f"{key}_ns"] / 1e9 for e in entries]
            metrics[f"{name}.{key}_s"] = (statistics.median(values), "s", values)
        metrics[f"{name}.call_p50_s"] = (statistics.median(durations) if durations else 0.0,
                                         "s", None)
        metrics[f"{name}.call_tail_s"] = (tail(durations)[0] if durations else 0.0,
                                          "s", durations or None)
        if name in spans.COUNTS:
            unit = spans.COUNTS[name][0]
            metrics[f"{name}.{unit}"] = (statistics.median(e["count"] for e in entries), unit, None)
    traced_walls = [r.child.wall_s for r in traced]
    traced_wall = statistics.median(traced_walls)
    metrics["trace.wall_s"] = (traced_wall, "s", traced_walls)
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s", overheads)
    return metrics


def describe(name: str, value: float, unit: str, samples: list[float] | None) -> str:
    line = f"  {name:<48} {value:>14.6g} {unit}"
    if samples:
        top, label = tail(samples)
        line += f"   (n={len(samples)}, {label} {top:.6g})"
    return line


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """Measure one workload, print its metrics; returns (metrics, attempted, failed)."""
    tmp = WORK / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    SPANS.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, tmp)
        runs, setup = measure(workload, seconds, trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    every = runs[False] + runs[True]
    failed = sum(not r.ok for r in every)
    print(f"{name}: q={workload.q} seed={seed} trace={int(trace)}")
    print(describe("failed_ratio", failed / len(every), "ratio", None)
          + f"   ({failed}/{len(every)} runs)")
    good = [r for r in runs[trace] if r.ok]
    overheads = [t.child.wall_s - u.child.wall_s
                 for u, t in zip(runs[False], runs[True]) if u.ok and t.ok]
    if not good or (trace and not overheads):
        return {}, len(every), failed
    if trace:
        metrics = per_layer(good, overheads)
        busy = sum(metrics[f"{f}.busy_s"][0] for f in workload.dominant)
        share = busy / metrics["trace.wall_s"][0]
        print(f"  dominant: {' + '.join(workload.dominant)} busy for "
              f"{100 * share:.1f}% of the traced wall time")
    else:
        metrics = end_to_end(workload, good, setup)
    for metric, (value, unit, samples) in metrics.items():
        print(describe(metric, value, unit, samples))
    if trace and len(overheads) > 1:
        q1, _, q3 = statistics.quantiles(overheads, n=4)
        if abs(metrics["trace.overhead_s"][0]) < q3 - q1:
            print(f"  trace.overhead_s is within the noise: the pair differences have an "
                  f"IQR of {q3 - q1:.6g} s")
    return {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()}, len(every), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "moss" / "__init__.py").is_file():
        print(f"error: no moss sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            found, tried, bad = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
        attempted += tried
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
