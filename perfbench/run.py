"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

rimhooks is imported from ``src/`` next to this directory and nowhere else:
without that source tree the benchmark exits non-zero and prints no result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import rimhooks
    except ImportError as exc:
        print(f"perfbench: cannot import rimhooks from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    expected = (ROOT / "src" / "rimhooks").resolve()
    if Path(rimhooks.__file__).resolve().parent != expected:
        print(f"perfbench: rimhooks came from {rimhooks.__file__}, not {expected}", file=sys.stderr)
        return 2
    from perfbench import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
