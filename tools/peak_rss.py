"""Peak resident memory of one CLI run, against a limit.

    python tools/peak_rss.py LIMIT_MB CONFIG_JSON

CONFIG_JSON is the text of a CLI config document; its ``output_dir`` is
set to a temporary directory.  The script runs ``python -m efgp.cli`` on
it as a child process with ``PYTHONPATH=src``, prints the child's peak
RSS (``ru_maxrss`` of ``RUSAGE_CHILDREN``, in MB) and exits 1 if the run
fails or the peak exceeds LIMIT_MB, else 0.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    limit, cfg = float(argv[0]), json.loads(argv[1])
    with tempfile.TemporaryDirectory(prefix="efgp-peak-rss-") as tmp:
        path = Path(tmp) / "config.json"
        cfg_out = dict(cfg, output_dir=str(Path(tmp) / "out"))
        path.write_text(json.dumps(cfg_out), encoding="utf-8")
        code = subprocess.run(
            [sys.executable, "-m", "efgp.cli", str(path), "--quiet"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{cfg['command']} at N = {cfg['N']}: exit {code}, "
          f"peak RSS {peak:.1f} MB (limit {limit:g} MB)")
    return 1 if code != 0 or peak > limit else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
