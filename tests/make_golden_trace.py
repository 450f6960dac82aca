"""Regenerate tests/data/golden_trace_mpc.json.

Run after an *intentional* change to instrumentation::

    PYTHONPATH=src python tests/make_golden_trace.py
"""

from pathlib import Path

from test_trace_export import GOLDEN, run_golden_workload

from repro.analysis import write_chrome_trace


def main() -> None:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    res = run_golden_workload()
    write_chrome_trace(res.tracer, GOLDEN, elapsed=res.elapsed)
    print(f"wrote {GOLDEN} ({len(res.tracer.records)} spans)")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    main()
