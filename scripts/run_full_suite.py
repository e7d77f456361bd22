#!/usr/bin/env python3
"""Drive every CLI subcommand once and collect the reports in one directory.

Each run shells out to ``python3 -m sigma2lab.cli`` exactly as a user would,
saves the JSON envelope under <out>/<name>.json, and prints one line per
command.  Exit status is nonzero if any command fails.  The convergence run
at h = 0.05 dominates the runtime (a few seconds); pass --quick to use a
coarser pair of spacings with a correspondingly wider ratio window.

Example:
    python3 scripts/run_full_suite.py --out results/full_suite
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HEFORM_B = '{"2,0": 1, "0,2": -1}'


def roster(quick: bool) -> list[tuple[str, list[str]]]:
    ce = ["--candidate", "counterexample"]
    if quick:
        convergence = ["convergence", *ce, "--h-list", "0.25,0.125", "--ratio-lo", "3", "--ratio-hi", "5"]
    else:
        convergence = ["convergence", *ce, "--h-list", "0.1,0.05"]
    return [
        ("verify_counterexample", ["verify", *ce]),
        ("verify_quadratic", ["verify", "--candidate", "quadratic"]),
        ("curvature_raw", ["curvature", *ce]),
        ("curvature_rescaled", ["curvature", *ce, "--rescaled"]),
        ("solve_counterexample", ["solve", *ce, "--grid", "3,-1..1,21"]),
        ("solve_quadratic", ["solve", "--candidate", "quadratic", "--grid", "3,-1..1,17"]),
        ("rigidity", ["rigidity", "--candidate", "quadratic"]),
        ("barrier", ["barrier", "--candidate", "quadratic", "--level", "1.0"]),
        ("legendre_counterexample", ["legendre", *ce, "--x-spans", "1..2,1..2", "--shape", "15,15", "--z-count", "31"]),
        ("classify_heform", ["classify", "--candidate", "heform", "--b-coeffs", HEFORM_B]),
        ("classify_counterexample", ["classify", *ce]),
        ("convergence", convergence),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results/full_suite", help="directory for the JSON reports")
    ap.add_argument("--quick", action="store_true", help="coarser convergence pair (about a second)")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    failures = 0
    for name, cmd in roster(args.quick):
        proc = subprocess.run(
            [sys.executable, "-m", "sigma2lab.cli", *cmd],
            capture_output=True,
            text=True,
        )
        report_path = out / f"{name}.json"
        if proc.stdout.strip():
            report_path.write_text(proc.stdout)
        status = "ok" if proc.returncode == 0 else f"EXIT {proc.returncode}"
        note = ""
        if proc.returncode == 0:
            doc = json.loads(proc.stdout)
            checks = {c["name"]: c["value"] for c in doc.get("checks", [])}
            if "verdict" in doc:
                note = f"verdict: {doc['verdict']}"
            elif checks:
                key, val = next(iter(checks.items()))
                note = f"{key} = {val:.3e}" if isinstance(val, float) else f"{key} = {val}"
        else:
            failures += 1
            note = (proc.stderr.strip().splitlines() or ["no stderr"])[0]
        print(f"{name:<26s} {status:<8s} {note}")

    print()
    if failures:
        print(f"{failures} command(s) failed; reports in {out}/")
        return 1
    print(f"all commands passed; reports in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
