import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

if not run.use_checkout_sources():
    raise RuntimeError("no thpoly sources next to the benchmark")
