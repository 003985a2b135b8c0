"""Benchmark of bianchimax: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload membership_sweep --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the library is imported from ./src.  With
--trace 0 the run measures the workload for --seconds and prints the
end-to-end metrics; with --trace 1 it runs a fixed, seeded list of
operations under spans and prints the per-layer metrics.  Every answer is
checked against an oracle outside the timed region.  The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the lines
before it restate the metrics with the environment and the input digest.
--plant-failure corrupts one expected answer, so the run must fail: it
shows that the checker is not vacuous.  See perfbench/README.md.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from math import ceil, inf  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_FILE_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7  # set-ups per run; setup_s takes their median


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of the values."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q / 100 * len(ordered)) - 1)]


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, op id).

    Each operation gets a root span "op"; every public call the benchmark
    makes inside it is a child span.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.root = None
        self.op_id = -1

    def call(self, name, fn, *args):
        start = perf_counter()
        result = fn(*args)
        self.spans.append((name, start, perf_counter(), self.root, self.op_id))
        return result

    def run_op(self, op, item):
        self.op_id += 1
        self.root = len(self.spans)
        self.spans.append(None)
        start = perf_counter()
        try:
            return op(item, self.call)
        finally:
            self.spans[self.root] = ("op", start, perf_counter(), None, self.op_id)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, total self time) per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + end - start - child[i])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps({"name": name, "start_us": round((start - t0) * 1e6, 3),
                                         "end_us": round((end - t0) * 1e6, 3),
                                         "parent": parent, "op": op_id}) + "\n")


def attempt(fn, *args):
    """fn(*args), or the exception it raised: an op that raises counts as failed."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def timed_loop(wl, seconds: float, direct):
    """Closed loop over wl.order, cycling, until `seconds` have passed.

    Returns each op's latency, its end time and its answer, and the start.
    """
    op, items, order = wl.op, wl.items, wl.order
    latencies, ends, answers = [], [], []
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        item = items[order[i % len(order)]]
        t0 = perf_counter()
        answer = attempt(op, item, direct)
        t1 = perf_counter()
        latencies.append(t1 - t0)
        ends.append(t1)
        answers.append(answer)
        i += 1
        if t1 >= deadline:
            return latencies, ends, answers, start


def fastest_per_input(latencies, inputs: int) -> list[float]:
    """Each input's fastest latency over its visits in the timed loop.

    The loop cycles through the inputs, so an input's visits are spread over
    the whole run.  A shared host can run 2x slower for tens of seconds; an
    input's fastest visit is its cost under the least contention from other
    tenants, and taking it for every input keeps the input mix intact.
    """
    best = [inf] * inputs
    for k, latency in enumerate(latencies):
        i = k % inputs
        if latency < best[i]:
            best[i] = latency
    return [x for x in best if x < inf]


def count_failures(wl, indices, answers, plant: bool) -> tuple[int, list[str]]:
    expected = wl.expected(sorted(set(indices)))
    if plant:
        expected[wl.order[0]] = wl.tamper(expected[wl.order[0]])
    failed, examples = 0, []
    for i, answer in zip(indices, answers):
        if isinstance(answer, Exception) or answer != expected[i]:
            failed += 1
            if len(examples) < 3:
                examples.append(f"input {i}: got {answer!r}, expected {expected[i]!r}")
    problems = wl.global_failures()
    return failed + len(problems), examples + problems


def replay_us(calls, min_seconds: float = 0.02, repeats: int = 3) -> float:
    """Median over repeats of the mean time per call, in microseconds."""
    results = []
    for _ in range(repeats):
        n = 0
        start = perf_counter()
        while True:
            for fn, args in calls:
                fn(*args)
            n += len(calls)
            elapsed = perf_counter() - start
            if elapsed >= min_seconds:
                break
        results.append(elapsed / n)
    return statistics.median(results) * 1e6


def spawn_ms(args: list[str], env: dict, runs: int = 5) -> float:
    times = []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run([sys.executable] + args, env=env, cwd=ROOT, capture_output=True, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def environment(args, wl) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "workload": args.workload, "seed": args.seed, "workers": 1,
            "inputs": len(wl.items), "input_digest": wl.input_digest}


def end_to_end(wl, args, setup_s: float, direct) -> tuple[dict, dict, int, int, list[str]]:
    gc.collect()
    gc.freeze()
    latencies, ends, answers, start = timed_loop(wl, args.seconds, direct)
    indices = [wl.order[k % len(wl.order)] for k in range(len(answers))]
    failed, problems = count_failures(wl, indices, answers, args.plant_failure)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_pipeline" else resource.RUSAGE_SELF
    n = len(latencies)
    best = fastest_per_input(latencies, len(wl.order))
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (len(best) / sum(best), "ops/s"),
        "latency_p50_ms": (percentile(best, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(best, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "ops": n, "timed_s": ends[-1] - start, "inputs_timed": len(best),
        "visits_per_input": n // len(wl.order), "beyond_p90": len(best) - ceil(0.9 * len(best)),
        "error_rate": failed / n,
    }
    return metrics, notes, n, failed, problems


def per_layer(wl, args, workloads) -> tuple[dict, dict, int, int, list[str]]:
    """Each traced op runs once without and once with spans, alternately, so
    drift in machine speed falls on both sides of the overhead ratio."""
    order = wl.order
    tracer = Tracer()
    plain, traced = [], []
    untraced = wall = 0.0
    for i in order:
        item = wl.items[i]
        start = perf_counter()
        plain.append(attempt(wl.traced_op, item, workloads.direct))
        middle = perf_counter()
        traced.append(attempt(tracer.run_op, wl.traced_op, item))
        untraced += middle - start
        wall += perf_counter() - middle
    tracer.write(SPAN_FILE_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl")
    failed, problems = count_failures(wl, order + order, plain + traced, args.plant_failure)

    metrics: dict[str, tuple[float, str]] = {}
    spans = tracer.self_times()
    replays = workloads.replay_calls(wl.sample_matrices())
    for name in workloads.SPAN_FUNCTIONS:
        calls, total = spans.get(name, (0, 0.0))
        us = total / calls * 1e6 if calls else replay_us(replays[name])
        metrics[f"{name}.us_per_call"] = (us, "us")
        metrics[f"{name}.calls"] = (calls, "count")
    for name in workloads.REPLAY_FUNCTIONS:
        metrics[f"{name}.us_per_call"] = (replay_us(replays[name]), "us")
    for layer in workloads.LAYERS:
        busy = sum(t for name, (_, t) in spans.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.busy_share"] = (busy / wall, "ratio")
    for name, value in wl.ratios(order).items():
        metrics[name] = (value, "ratio")
    metrics["trace.overhead_factor"] = (wall / untraced, "ratio")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    interpreter = spawn_ms(["-c", "pass"], env)
    metrics["cli.interpreter_ms"] = (interpreter, "ms")
    metrics["cli.import_ms"] = (spawn_ms(["-c", "import bianchimax.cli"], env) - interpreter, "ms")
    reference = workloads.replay_calls([workloads.reference_sample()])
    for name in workloads.REFERENCE_FUNCTIONS:
        metrics[f"ref_m5_v10.{name}.us_per_call"] = (replay_us(reference[name]), "us")
    notes = {"traced_ops": len(order), "spans": len(tracer.spans),
             "error_rate": failed / (2 * len(order)),
             "us_per_call": "span self time where .calls > 0, else a replay on the workload's inputs"}
    return metrics, notes, 2 * len(order), failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--plant-failure", action="store_true",
                        help="corrupt one expected answer; the run must then fail")
    args = parser.parse_args()

    if not (SRC / "bianchimax" / "__init__.py").is_file():
        print(f"error: no bianchimax sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    import bianchimax

    if Path(bianchimax.__file__).resolve().parent != SRC / "bianchimax":
        print(f"error: imported bianchimax from {bianchimax.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    imported = perf_counter() - PROCESS_START

    wl = workloads.WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        wl.setup(args.seed, str(ROOT))
        setups.append(perf_counter() - start)

    if args.trace:
        result = per_layer(wl, args, workloads)
    else:
        result = end_to_end(wl, args, imported + statistics.median(setups), workloads.direct)
    metrics, notes, attempted, failed, problems = result

    print("environment " + json.dumps(environment(args, wl)))
    print("notes " + json.dumps(notes))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"FAILED {problem}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
