"""jetgeo benchmark: one client in a closed loop over `jetgeo.cli.main`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The client runs in this single process with no extra threads and calls
`jetgeo.cli.main(argv)` once per operation, on inputs generated from the
seed, with `--out` pointing at a scratch file.  Every operation is checked
by the workload's oracle.

--trace 0 makes one untimed warm-up call, then loops over whole passes
through the workload's cases for about S seconds and reports the
end-to-end metrics.  Op times are reported in "ref", the median duration
of a fixed reference computation (calibrate.py) run between and during
the calls, which cancels the drift of a shared host's speed; the wall-clock figures
go to the info line.  Set-up time is the median of several cold starts in
fresh interpreters spread over the run, in seconds.
--trace 1 runs whole passes through the workload's cases untraced for
about S/2 seconds (at least one pass), then the same operations with
timing spans installed, and reports the per-layer metrics with the
tracing overhead; every traced `--out` must match its untraced twin byte
for byte.

The last line of stdout is the result as JSON; the line before it records
the run's environment and any failed operations.
"""
from __future__ import annotations

import os

# Pinned before numpy is imported, so BLAS starts one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLD_STARTS = 15
TAIL_BEYOND = 10
REF_BLOCK = 3        # reference runs between two calls
REF_INTERVAL = 0.1   # seconds between reference runs during a call


class Client:
    """Calls the CLI in-process and collects what each call produced."""

    def __init__(self, cli, out_path):
        self.cli = cli
        self.out_path = out_path

    def call(self, case, sampler=None):
        """Returns (exit code, seconds, --out text, stdout text).  With a
        calibrate.Sampler, the host is sampled during the call and the time
        the samples took is not counted in its seconds."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        stdout, stderr = io.StringIO(), io.StringIO()
        sampling = sampler if sampler is not None else contextlib.nullcontext()
        spent = sampler.spent if sampler is not None else 0.0
        start = perf_counter()
        try:
            with sampling, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(case.argv + ["--out", self.out_path])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if sampler is not None:
            seconds -= sampler.spent - spent
        out = ""
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                out = fh.read()
        return code, seconds, out, stdout.getvalue()


class Ledger:
    """Counts operations and failures; checks repeat calls for identical --out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}     # (case, exit code, reason) -> count
        self.first_out = {}    # case index -> sha256 of its first --out

    def record(self, index, case, result, reference=None):
        """Checks one call; returns (case index, seconds, --out digest)."""
        code, seconds, out, stdout = result
        digest = hashlib.sha256(out.encode()).hexdigest()
        self.attempted += 1
        reason = case.check(code, out, stdout)
        if reason is None and reference is not None and digest != reference:
            reason = "traced --out differs from the untraced call"
        if reason is None and self.first_out.setdefault(index, digest) != digest:
            reason = "--out differs from an earlier call on the same input"
        if reason is not None:
            self.failed += 1
            key = (case.label, str(code), reason)
            self.failures[key] = self.failures.get(key, 0) + 1
        return index, seconds, digest

    def failure_list(self):
        return [{"case": c, "exit": e, "reason": r, "count": n}
                for (c, e, r), n in sorted(self.failures.items())]

    def digest(self):
        h = hashlib.sha256()
        for index in sorted(self.first_out):
            h.update(self.first_out[index].encode())
        return h.hexdigest()


def loop(client, ledger, cases, seconds, between=None):
    """Closed loop over whole passes through `cases`, after one untimed
    warm-up call of the first case.  Passes continue while the next one is
    expected to end nearer to `seconds` than stopping now does, so every
    case is timed equally often.

    The host's speed is sampled with REF_BLOCK runs of the reference work
    before the first call and after each call, and every REF_INTERVAL
    seconds during a call.  Each call is scaled by the median of its own
    samples and the blocks on either side of it.  `between(elapsed)`, if
    given, runs after each call's block.

    Returns ([(case index, seconds, ref seconds)], warm-up seconds, number
    of reference runs).
    """
    def block():
        return [calibrate.reference() for _ in range(REF_BLOCK)]

    warmup = ledger.record(0, cases[0], client.call(cases[0]))[1]
    sampler = calibrate.Sampler(REF_INTERVAL)
    blocks, done = [block()], []
    start = perf_counter()
    while True:
        for index, case in enumerate(cases):
            first = len(sampler.samples)
            _, took, _ = ledger.record(index, case, client.call(case, sampler))
            blocks.append(sampler.samples[first:] + block())
            done.append((index, took, statistics.median(blocks[-2][-REF_BLOCK:] + blocks[-1])))
            if between is not None:
                between(perf_counter() - start)
        elapsed = perf_counter() - start
        passes = len(done) // len(cases)
        if elapsed + 0.5 * elapsed / passes > seconds:
            return done, warmup, sum(len(b) for b in blocks)


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when that percentile would not exceed the
    median."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cold_start(workload):
    args = [str(p) for p in workload.connections]
    for path in workload.jets:
        args += ["--jets", str(path)]
    done = subprocess.run([sys.executable, str(HERE / "coldstart.py"), *args],
                          capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(client, ledger, workload, seconds):
    # Cold starts are spread over the run, so that their median does not
    # rest on the host's speed at a single moment.
    setup = []

    def between(elapsed):
        if len(setup) < COLD_STARTS and elapsed >= len(setup) * seconds / COLD_STARTS:
            setup.append(cold_start(workload))

    done, warmup, ref_runs = loop(client, ledger, workload.cases, seconds, between)
    while len(setup) < COLD_STARTS:
        setup.append(cold_start(workload))
    latencies = [took for _, took, _ in done]
    scaled = [took / ref for _, took, ref in done]
    items = sum(workload.cases[index].items for index, _, _ in done)
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "items_per_ref": (items / sum(scaled), "1/ref"),
        "op_p50_ref": (statistics.median(scaled), "ref"),
    }
    by_case = {}
    for index, took, _ in done:
        by_case.setdefault(workload.cases[index].label, []).append(1000.0 * took)
    info = {"ops_timed": len(done), "passes": len(done) // len(workload.cases),
            "item": workload.item, "setup_runs_s": setup, "warmup_ms": 1000.0 * warmup,
            "ref_ms": 1000.0 * statistics.median(ref for _, _, ref in done),
            "ref_runs": ref_runs,
            "op_tail_ref": tail(scaled)[0],
            "wall": {"items_per_s": items / sum(latencies),
                     "op_p50_ms": 1000.0 * statistics.median(latencies),
                     "op_tail_ms": 1000.0 * tail_value},
            "tail_percentile": tail_pct, "tail_samples": len(latencies),
            "case_p50_ms": {k: statistics.median(v) for k, v in sorted(by_case.items())}}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def traced(client, ledger, workload, seconds, trace_path):
    from metrics import per_layer_values
    from spans import Tracer

    plain = []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds / 2.0:
        plain += [ledger.record(index, case, client.call(case))
                  for index, case in enumerate(workload.cases)]
    tracer = Tracer()
    tracer.install()
    try:
        twins = []
        for op, (index, _, reference) in enumerate(plain):
            tracer.op = op
            case = workload.cases[index]
            twins.append(ledger.record(index, case, client.call(case), reference=reference))
    finally:
        tracer.uninstall()
    overhead = sum(t[1] for t in twins) / sum(t[1] for t in plain)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    metrics = per_layer_values(tracer, len(twins), ledger.attempted, ledger.failed, overhead)
    info = {"ops_traced": len(twins), "trace_overhead": overhead, "trace_file":
            str(trace_path.relative_to(ROOT))}
    return metrics, info


def commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    ref = head.read_text().strip() if head.is_file() else "unknown"
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        ref = path.read_text().strip() if path.is_file() else "unknown"
    return ref


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jetgeo" / "cli.py").is_file():
        print(f"error: no jetgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import jetgeo.cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        client = Client(jetgeo.cli, str(workdir / "out"))
        ledger = Ledger()
        if args.trace:
            trace_path = scratch / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, info = traced(client, ledger, workload, args.seconds, trace_path)
        else:
            metrics, info = end_to_end(client, ledger, workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "out_digest": ledger.digest(), "failures": ledger.failure_list(),
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
