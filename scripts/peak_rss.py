"""Wall time and peak resident memory of one `faultlab` command.

Runs `python3 -m faultlab.cli ARGS...` in a child process, with this
checkout's `src/` first on PYTHONPATH, waits for it and prints one line:

    exit=0 wall_s=12.34 peak_rss_mb=228.1

`peak_rss_mb` is the child's `ru_maxrss` (the kernel reports KiB on Linux)
divided by 1024. The child's own stdout and stderr pass through, and this
script exits with the child's exit code.

    python3 scripts/peak_rss.py gen --regime mixed --paper-scale --out mixed.csv
    python3 scripts/peak_rss.py infer --models runs/quick/models/full \\
        --in mixed.csv --out pred.csv
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if args else 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "faultlab.cli", *args], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    print(f"exit={code} wall_s={wall:.2f} peak_rss_mb={usage.ru_maxrss / 1024.0:.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
