"""Print one SHA-256 digest per solve, over every field of its SolveResult.

Run from the repository root:

    python3 tools/solve_digests.py --tag "dense(2,6)" --method C --seeds 1-18
    python3 tools/solve_digests.py --tag "S(4,10)" --method T --seeds 1 --senses min

Each line is ``<instance id>:<sense> <digest>``. The digest covers every
field of the result in declaration order: floats and arrays by their raw
bytes (with dtype and shape), lists, tuples and dicts element by element,
so two commits solve bit-identically exactly when their outputs ``diff``
clean. Each solve's status, iteration count, wall time and the process's
peak RSS so far go to stderr as
``<instance id>:<sense> <status> <iterations> it <seconds> s <MB> MB peak RSS``,
where the time covers assemble, lower and solve, so stdout holds only the
digests.
Instances come from ``patternrelax.bench.gen_instance`` and pass through
``patternrelax.pipeline.solve_relaxation`` (assemble, lower and solve) with
the default policy and solver configuration, as in ``patternrelax solve``.
BLAS is pinned to one thread, as in the tests and the benchmark; set
``OPENBLAS_CORETYPE`` to compare under another kernel.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import resource  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from patternrelax.bench import family_for_method, gen_instance  # noqa: E402
from patternrelax.pipeline import solve_relaxation  # noqa: E402


def _feed(h, v) -> None:
    """Add v to the hash, tagged by kind so that different shapes cannot collide."""
    if isinstance(v, np.ndarray):
        h.update(f"a{v.dtype.str}{v.shape}".encode())
        h.update(np.ascontiguousarray(v).tobytes())
    elif isinstance(v, (bool, np.bool_, int, np.integer, str)) or v is None:
        h.update(f"{type(v).__name__}:{v!r};".encode())
    elif isinstance(v, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(v)))
    elif isinstance(v, (list, tuple)):
        h.update(f"l{len(v)}[".encode())
        for item in v:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(v, dict):
        h.update(f"d{len(v)}{{".encode())
        for key, item in v.items():
            _feed(h, key)
            _feed(h, item)
        h.update(b"}")
    else:
        raise TypeError(f"cannot digest {type(v).__name__}")


def digest(result) -> str:
    h = hashlib.sha256()
    for f in dataclasses.fields(result):
        h.update(f.name.encode())
        _feed(h, getattr(result, f.name))
    return h.hexdigest()


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True, help='instance tag, e.g. "dense(2,6)" or A6')
    ap.add_argument("--method", required=True, help="pattern method, e.g. M, C or tssos-sos")
    ap.add_argument("--seeds", type=_seed_range, required=True,
                    help="instance seeds, one (7) or a range (1-400)")
    ap.add_argument("--senses", default="min,max", help="comma-separated, of min and max")
    args = ap.parse_args(argv)
    senses = args.senses.split(",")
    for seed in args.seeds:
        inst = gen_instance(args.tag, seed)
        fam = family_for_method(args.method, inst.f)
        for sense in senses:
            start = time.perf_counter()
            res = solve_relaxation(inst.f, fam, inst.box, sense).result
            wall = time.perf_counter() - start
            print(f"{inst.id}:{sense} {digest(res)}", flush=True)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
            print(f"{inst.id}:{sense} {res.status} {res.iterations} it {wall:.3f} s "
                  f"{rss_mb:.0f} MB peak RSS", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
