"""Child bootstrap: import the onephase CLI, stamp the time, run one command.

Usage: python3 boot.py <onephase argv...>

Environment:
    PERFBENCH_STAMP  file that receives time.monotonic() right after
                     `onephase.cli` is imported (the op's set-up end).
    PERFBENCH_TRACE  optional; when set, the public functions of every
                     onephase module are wrapped before the command runs and
                     the spans and counters are written to this file at exit.

The exit code is the CLI's.  Nothing is written under the CLI's --out.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path


def main() -> int:
    import onephase.cli as cli

    ready = time.monotonic()
    Path(os.environ["PERFBENCH_STAMP"]).write_text(repr(ready), encoding="utf-8")
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        return cli.main(sys.argv[1:])

    import tracer

    tr = tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tr.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
