#!/usr/bin/env python3
"""Run the full verification matrix and write the JSON report.

Usage:  python scripts/run_verify_all.py [report.json]

Prints one summary line per suite; the exit code is 0 only when every
case passes.
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from qktw.report import verify_all_json  # noqa: E402
from qktw.suites import verify_all  # noqa: E402


def main() -> int:
    out_path = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else None
    start = time.perf_counter()
    reports = verify_all()
    elapsed = time.perf_counter() - start
    for rep in reports:
        status = "ok" if rep.passed else "FAILED"
        print(f"{rep.suite:<14} {rep.total:>4} cases  {status}")
    payload = verify_all_json(reports)
    summary = payload["summary"]
    print(f"total: {summary['cases']} cases, {summary['failed']} failed, {elapsed:.1f}s")
    if out_path:
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {out_path}")
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
