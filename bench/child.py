"""One benchmark sample in a fresh interpreter.

    python3 bench/child.py setup  CONFIG
    python3 bench/child.py run    CONFIG --seed N --threads T --out DIR
    python3 bench/child.py trace  CONFIG --seed N --threads T --out DIR

`setup` imports chainshell.cli and loads CONFIG, the work a user pays before
a run starts.  `run` times one `chainshell run` through `cli.main`.  `trace`
does the same under the outside-in tracer and adds its span table.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path


def _versions() -> dict:
    import numpy
    import scipy

    def blas(config: dict) -> str:
        return config.get("Build Dependencies", {}).get("blas", {}).get("version", "?")

    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_openblas": blas(numpy.__config__.CONFIG),
            "scipy_openblas": blas(scipy.__config__.CONFIG),
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("config")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    from chainshell import cli
    from chainshell.config import load_config
    import_s = time.perf_counter() - t0
    src = Path("src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"chainshell was imported from {cli.__file__}, not {src}")

    if args.mode == "setup":
        load_config(args.config)
        print(json.dumps({"versions": _versions()}))
        return 0

    argv = ["run", "--config", args.config, "--seed", str(args.seed),
            "--threads", str(args.threads), "--out", args.out]
    if args.mode == "run":
        t0 = time.perf_counter()
        rc = cli.main(argv)
        print(json.dumps({"rc": rc, "run_s": time.perf_counter() - t0}))
        return 0

    from tracer import Tracer
    with Tracer() as tracer:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        run_s = time.perf_counter() - t0
    print(json.dumps({"rc": rc, "run_s": run_s, "import_s": import_s,
                      "spans": tracer.snapshot()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
