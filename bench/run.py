"""Benchmark of modtopo: per-pass time, set-up time and peak memory on the
library and cli workloads, or per-layer self times and counts with
``--trace 1``.

    python3 bench/run.py --workload library --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; the library is imported from ``src/``
of that checkout (nothing needs installing).  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give sample counts and spreads.

One run:

1. one untimed interpreter warms the bytecode caches;
2. a worker interpreter builds the inputs, runs one untimed warm-up pass
   whose outputs give the baseline, then repeats timed passes until
   ``--seconds`` have passed, with ``gc.collect()`` between passes (GC
   stays on).  Every pass must reproduce the warm-up outputs exactly.
   ``pass_s`` is the median pass time and ``peak_rss_mb`` the worker's
   peak resident memory, plus the largest child's for the cli workload,
   read before the last pass's outputs are checked against
   :mod:`reference`;
3. SETUP_SAMPLES times, spread over the run, the worker waits between two
   passes while the orchestrator times a fresh interpreter that imports
   modtopo and builds the workload's inputs; ``setup_s`` is the median
   time from spawning one to its being ready for a first pass;
4. with ``--trace 1`` untraced and traced passes alternate instead, and the
   per-layer metrics are medians over the traced passes.  The spans of the
   first traced pass are written to ``bench/out/``.

An operation is one problem of one pass; one that raises or disagrees
with the independent check counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import METRICS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 11
STARTUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60  # keeps a hung run inside a 180 s limit at --seconds 50


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _quartile_spread(values) -> float:
    if len(values) < 4:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


# ---------------------------------------------------------------------------
# worker: runs in its own interpreter


def _make_problems(workload: str, seed: int, trace: bool):
    import workloads  # imports modtopo, which the orchestrator never needs

    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        # a traced pass runs the same commands in process, where the
        # tracer can see the library calls
        return workloads.cli(rng, in_process=trace)
    return workloads.library(rng)


def _run_pass(problems):
    outs = []
    start = time.perf_counter()
    for p in problems:
        try:
            outs.append(p.run())
        except Exception as exc:  # a failed operation, counted by the caller
            outs.append(exc)
    return time.perf_counter() - start, outs


class _Ledger:
    """Operation counts.  The warm-up pass's digests are the baseline that
    every timed pass must reproduce."""

    def __init__(self, problems, outs):
        self.problems = problems
        self.baseline: list = [None] * len(problems)
        self.bad: set[int] = set()
        self.wrong: list[str] = []
        self.passes = 0
        self.failed = 0
        for i, (p, out) in enumerate(zip(problems, outs)):
            if isinstance(out, Exception):
                self.bad.add(i)
                print(f"failed: {p.label}: {out!r}", file=sys.stderr)
                continue
            try:
                self.baseline[i] = p.digest(out)
            except Exception as exc:  # output too malformed to digest
                self._mark_wrong(i, f"{p.label}: {exc!r}")
        self._tally()

    @property
    def attempted(self) -> int:
        return self.passes * len(self.problems)

    def _mark_wrong(self, i: int, what: str) -> None:
        self.bad.add(i)
        self.wrong.append(what)
        print(f"wrong: {what}", file=sys.stderr)

    def later(self, outs) -> None:
        for i, (p, out) in enumerate(zip(self.problems, outs)):
            if i in self.bad:
                continue
            if isinstance(out, Exception) or p.digest(out) != self.baseline[i]:
                self._mark_wrong(i, f"{p.label}: output differs from the first pass")
        self._tally()

    def verify(self, outs) -> None:
        """Check one pass's outputs against :mod:`reference`.  Every pass
        reproduced them, so a wrong one failed in every pass."""
        for i, (p, out) in enumerate(zip(self.problems, outs)):
            if i in self.bad:
                continue
            try:
                p.verify(out)
            except Exception as exc:  # a wrong answer, or output too malformed to check
                self._mark_wrong(i, f"{p.label}: {exc!r}")
                self.failed += self.passes

    def _tally(self) -> None:
        self.passes += 1
        self.failed += len(self.bad)


def _request_setup_probe() -> None:
    """Have the orchestrator time one set-up while this worker waits idle."""
    print("PROBE", flush=True)
    if sys.stdin.readline().strip() != "GO":
        raise RuntimeError("orchestrator did not answer a set-up probe")


def worker(args) -> int:
    problems = _make_problems(args.workload, args.seed, args.trace == 1)
    if args.probe:
        print(f"READY {time.monotonic()!r}", flush=True)
        return 0

    _, outs = _run_pass(problems)
    ledger = _Ledger(problems, outs)
    del outs
    gc.collect()

    tracer = Tracer() if args.trace else None
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    # set-up probes are spread over the run, at most one between two
    # passes, so that their median spans the host's phases as pass_s does
    probes = 0 if args.trace else SETUP_SAMPLES
    probes_due = [start + i * args.seconds / probes for i in range(probes)]
    while True:
        if probes_due and time.perf_counter() >= probes_due[0]:
            probes_due.pop(0)
            _request_setup_probe()
        elapsed, outs = _run_pass(problems)
        plain.append(elapsed)
        ledger.later(outs)
        if tracer is not None:
            del outs
            gc.collect()
            tracer.reset()
            tracer.keep_spans = not traced
            tracer.install()
            try:
                elapsed, outs = _run_pass(problems)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            layers.append(tracer.pass_metrics())
            ledger.later(outs)
        if time.perf_counter() >= deadline:
            break
        del outs
        gc.collect()
    for _ in probes_due:
        _request_setup_probe()

    # the peak is read before the reference checks, which allocate too
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "cli":
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ledger.verify(outs)

    result = {
        "problems": len(problems),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "wrong": ledger.wrong,
        "pass_s": plain,
    }
    if tracer is None:
        result["peak_rss_mb"] = rss_kb / 1024
    else:
        result["traced_pass_s"] = traced
        result["layers"] = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        result["absent"] = tracer.absent
        _write_spans(args, tracer)
    print(json.dumps(result))
    return 0


def _write_spans(args, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        head = {
            "workload": args.workload,
            "seed": args.seed,
            "pass": "first traced pass",
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "absent": tracer.absent,
        }
        fh.write(json.dumps(head) + "\n")
        for span in sorted(tracer.spans):
            fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# orchestrator


def _command(args, *extra: str) -> list[str]:
    """This script again, as a worker or set-up probe."""
    return [
        sys.executable,
        str(BENCH / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--worker",
        *extra,
    ]


def _setup_sample(args) -> float:
    start = time.monotonic()
    proc = subprocess.run(
        _command(args, "--probe"),
        capture_output=True,
        text=True,
        env=_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    ready = float(proc.stdout.split()[-1])
    return ready - start


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def _run_worker(args, setup: list[float]) -> tuple[int, str]:
    """Run the worker in its own process group, so that a timeout also stops
    any process it started, and time a set-up whenever it asks for one.
    Returns its exit code and its last line of output."""
    with subprocess.Popen(
        _command(args),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=_env(),
        start_new_session=True,
    ) as proc:
        timer = threading.Timer(args.seconds + CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            last = ""
            for line in proc.stdout:
                if line.strip() == "PROBE":
                    setup.append(_setup_sample(args))
                    proc.stdin.write("GO\n")
                    proc.stdin.flush()
                else:
                    last = line
            proc.wait()
        except BaseException:
            _kill_group(proc.pid)
            raise
        finally:
            timer.cancel()
    return proc.returncode, last


def _startup_sample(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=_env(), check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def orchestrate(args) -> int:
    if not (ROOT / "src" / "modtopo" / "__init__.py").is_file():
        print(f"no modtopo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _setup_sample(args)  # untimed: fills the bytecode caches
    if args.trace:
        bare, full = [], []
        for _ in range(STARTUP_SAMPLES):
            bare.append(_startup_sample("pass"))
            full.append(_startup_sample("import modtopo"))

    setup: list[float] = []
    code, last = _run_worker(args, setup)
    if code != 0:
        print(f"worker failed with exit code {code}", file=sys.stderr)
        return 1
    res = json.loads(last)
    plain = res["pass_s"]
    print(
        f"{args.workload}: {res['problems']} operations per pass, "
        f"{len(plain)} timed passes, quartile spread {_quartile_spread(plain):.3f}"
    )
    for line in res["wrong"]:
        print(f"wrong: {line}")

    if args.trace:
        traced = res["traced_pass_s"]
        untraced = statistics.median(plain)
        metrics = {
            name: _metric(value, METRICS[name][0]) for name, value in sorted(res["layers"].items())
        }
        bare_s, full_s = statistics.median(bare), statistics.median(full)
        metrics["cli.interpreter_s"] = _metric(bare_s, "s")
        metrics["cli.import_s"] = _metric(full_s - bare_s, "s")
        metrics["cli.run_s"] = _metric(untraced if args.workload == "cli" else 0.0, "s")
        metrics["trace.untraced_pass_s"] = _metric(untraced, "s")
        metrics["trace.traced_pass_s"] = _metric(statistics.median(traced), "s")
        metrics["trace.overhead_ratio"] = _metric(statistics.median(traced) / untraced, "ratio")
        if res["absent"]:
            print(f"absent from the library: {', '.join(res['absent'])}")
    else:
        print(f"setup_s samples: {len(setup)}, quartile spread {_quartile_spread(setup):.3f}")
        metrics = {
            "pass_s": _metric(statistics.median(plain), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
    summary = {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("library", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return worker(args) if args.worker else orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
