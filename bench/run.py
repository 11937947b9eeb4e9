"""Train-and-caption benchmark for captionkit.

    python3 bench/run.py --workload cnn|lstm --seed N --seconds S --trace 0|1

Run from the repository root. One process, one caller, a closed loop, BLAS
held to one thread. A workload trains one model kind on a synthetic corpus
made from the seed, then captions the held-out images with the trained
model, in whole rounds until ``--seconds`` have passed:

  set-up   ``captionkit synth`` through ``cli.main`` and the reads that
           turn its files into examples; done several times, the median
           is ``setup_s``
  warm-up  a short training run and a few captions, not timed
  round    ``training.train`` from a fresh init for a few epochs, writing
           checkpoints and ``metrics.csv`` as the CLI does (each epoch is
           one timed unit); after each epoch, greedy and beam-3 captions
           of every held-out image with the model the previous round
           saved (each caption is one timed unit); then
           ``load_checkpoint`` of this round's ``best.ckpt``

Rates are medians over the units of all rounds, and caption latencies
percentiles over images of each image's median, so a slow stretch of the
machine moves a few units rather than the result. Every round is checked
(see checks.py). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 1`` wraps
the layers' public functions (see tracing.py) and reports the per-layer
metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS thread, so the process uses one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description="Train-and-caption benchmark for captionkit.")
    p.add_argument("--workload", choices=("cnn", "lstm"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes, for tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "captionkit" / "__init__.py").is_file():
        print(f"run.py: no captionkit sources at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    from tracing import Tracer
    from workload import FULL, TINY, Bench

    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    tracer = Tracer()
    bench = Bench(args.workload, args.seed, TINY if args.tiny else FULL, tracer, work)
    try:
        if args.trace:
            tracer.install()
        bench.run(args.seconds)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = bench.layer_metrics() if args.trace else bench.end_to_end_metrics()
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(bench.summary(), file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
