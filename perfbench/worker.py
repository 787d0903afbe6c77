"""One benchmark pass, run by ``run.py`` in a fresh process.

The process first gets ready the way a user's process does (import
``noncollide``, which pulls in numpy and scipy, and build the CLI parser)
and prints ``ready``; the launcher, which starts it pinned to the CPU of
the speed helper (speed.py), times set-up up to that line. With
``--setup-only`` it exits there. Otherwise it builds the workload's op
list from the seed, runs every op under the per-op deadline (the timed
region), scales the op times by the helper's samples in ``--speed``,
records peak RSS, checks every output outside the timed region, and
writes its record as JSON to ``--result``.

A fresh process per pass keeps process-global caches in the library (such
as the binomial rows behind ``scaling_check``) from carrying over between
passes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ready() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import noncollide
    from noncollide import cli

    cli.build_parser()
    source = Path(noncollide.__file__).resolve()
    if not source.is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"noncollide imported from {source}, not from the checkout")
    print("ready", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work")
    parser.add_argument("--result")
    parser.add_argument("--speed", help="the speed helper's sample file")
    args = parser.parse_args()
    _ready()
    if args.setup_only:
        return 0

    import json

    import passes

    record = passes.run_pass(
        args.workload, args.seed, Path(args.work), Path(args.speed), trace=bool(args.trace),
        probes=bool(args.probes),
    )
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
