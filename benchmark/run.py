"""Benchmark of sigma2lab through its command-line entry point.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports ``sigma2lab`` from
``src/`` and calls ``sigma2lab.cli.main(argv)`` in this one process, one
operation after another.  A round runs every operation of the workload once
and checks each answer (see ``workloads.py``); rounds repeat while the next
one is expected to end within S seconds, and at least one runs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; ``--trace 1`` runs half the time untraced, then
installs the wrappers of ``tracing.py`` and reports the per-layer metrics
of the traced rounds, writing the spans to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# set-ups per run: this process's own and SETUP_SAMPLES - 1 in fresh
# processes, since an import happens once per process; setup_s is the median
SETUP_SAMPLES = 5


def _pin_threads() -> None:
    """At most one BLAS thread per available core; must run before numpy loads."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)


def set_up(workload: str, seed: int, out: Path):
    """Import sigma2lab from this checkout and build the workload's operations."""
    start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "sigma2lab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no sigma2lab sources under {src}")
    sys.path.insert(0, str(src))
    from sigma2lab import cli

    import workloads

    ops = workloads.build(workload, seed, out)
    return time.perf_counter() - start, cli, ops


def _set_up_elsewhere(args) -> float:
    """Set-up time measured in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.splitlines()[-1])


def invoke(cli, argv: list[str]):
    """Run one command line; returns (exit code, stdout, stderr, seconds)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the installed command would exit 1 with a traceback
            code = "traceback"
            traceback.print_exc()
    return code, stdout.getvalue(), stderr.getvalue(), time.perf_counter() - start


def run_round(cli, ops, out: Path):
    """Every operation once: (seconds inside cli.main, [(operation, problems)])."""
    shutil.rmtree(out, ignore_errors=True)  # a check must never read a stale file
    state: dict = {}
    busy = 0.0
    failed = []
    for op in ops:
        code, text, err, elapsed = invoke(cli, op.argv)
        busy += elapsed
        if code != op.expect:
            problems = [f"exit {code}, expected {op.expect}: {err.strip()[-400:]}"]
        else:
            try:
                problems = op.check(json.loads(text), state)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            failed.append((op, problems))
    return busy, failed


def run_rounds(cli, ops, out: Path, seconds: float, tracer=None) -> list:
    """Rounds while the next is expected to end within ``seconds``; at least one."""
    start = time.perf_counter()
    rounds, lengths = [], []
    while True:
        began = time.perf_counter()
        if tracer is not None:
            tracer.new_round()
        busy, failed = run_round(cli, ops, out)
        rounds.append((busy, failed, dict(tracer.round) if tracer is not None else None))
        now = time.perf_counter()
        lengths.append(now - began)
        if now + statistics.median(lengths) > start + seconds:
            return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    _pin_threads()
    out = OUT / f"run-{os.getpid()}"
    setup_s, cli, ops = set_up(args.workload, args.seed, out)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    try:
        setups = [setup_s] + [_set_up_elsewhere(args) for _ in range(SETUP_SAMPLES - 1)]
        if args.trace:
            import tracing

            plain = run_rounds(cli, ops, out, args.seconds / 2)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced = run_rounds(cli, ops, out, args.seconds / 2, tracer)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            rounds = plain + traced
            metrics = {
                name: statistics.median(r[2].get(name, 0.0) for r in traced) for name in tracing.METRICS
            }
            metrics["trace.overhead_s"] = (
                statistics.median(r[0] for r in traced) - statistics.median(r[0] for r in plain)
            )
            units = {name: "s" if name.endswith(("_s", ".s")) else "count" for name in metrics}
        else:
            rounds = run_rounds(cli, ops, out, args.seconds)
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(r[0] for r in rounds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(out, ignore_errors=True)

    failures = [f for r in rounds for f in r[1]]
    unexpected = [f for f in failures if f[0].known_fault is None]
    for op, problems in {f[0].label: f for f in failures}.values():
        note = f" (known fault: {op.known_fault})" if op.known_fault else ""
        sys.stderr.write(f"FAILED {op.label}{note}: {'; '.join(problems)}\n")
    result = {
        "correct": not unexpected,
        "attempted": len(ops) * len(rounds),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
