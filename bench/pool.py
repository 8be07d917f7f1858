"""Set-up step of the qmeter benchmark, run in a fresh interpreter.

Imports qmeter from ``src/`` under the current directory, writes a pool of
seeded random devices with ``qmeter catalog random`` and loads each one back
with the CLI's own loader. ``bench/run.py`` times the whole process, import
included, because every shell call of ``qmeter`` pays that import too.

    python3 bench/pool.py OUT_DIR D N COUNT SEED_BASE

Device ``k`` is written to ``OUT_DIR/device{k:03d}.json`` from catalog seed
``SEED_BASE + k``.
"""

import io
import os
import sys
from contextlib import redirect_stdout


def device_path(out_dir: str, k: int) -> str:
    return os.path.join(out_dir, f"device{k:03d}.json")


def main(argv) -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from qmeter import cli

    out_dir, d, n, count, seed_base = argv[0], int(argv[1]), int(argv[2]), int(argv[3]), int(argv[4])
    os.makedirs(out_dir, exist_ok=True)
    for k in range(count):
        path = device_path(out_dir, k)
        cmd = ["catalog", "random", "--d", str(d), "--n", str(n), "--seed", str(seed_base + k), "--out", path]
        with redirect_stdout(io.StringIO()):
            rc = cli.main(cmd)
        if rc != 0:
            return rc
        cli.load_device(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
