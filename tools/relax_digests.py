"""Print one SHA-256 digest per assembled program, over what the relax path makes.

Run from the repository root:

    python3 tools/relax_digests.py --tag "dense(6,4)" --method M --seeds 1-4 --senses min
    python3 tools/relax_digests.py --tag "dense(3,4)" --method T --seeds 1-2

Each line is ``<instance id>:<sense> <digest>``. The program is assembled
with the default policy and lowered, as in ``patternrelax relax``; the digest
covers, in this order, its SDPA text, the kind and payload of every piece,
``col_exponents`` (``None`` for each auxiliary column) and ``lift_point``
at one box point drawn from the instance seed, which sets every auxiliary
column. Values are fed as in ``tools/solve_digests.py`` (floats and arrays
by their raw bytes), so two commits relax bit-identically exactly when their
outputs ``diff`` clean. The seconds for assemble, lower and export go to
stderr as ``<instance id>:<sense> <seconds> s``, so stdout holds only the
digests.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

# solve_digests pins BLAS to one thread before numpy loads and puts src/ on
# the path, so it comes first
from solve_digests import _feed, _seed_range

import numpy as np
from patternrelax.assemble import assemble_relaxation
from patternrelax.bench import family_for_method, gen_instance
from patternrelax.program import export_sdpa


def digest(prog, text: str, point) -> str:
    h = hashlib.sha256()
    for name, value in (
        ("sdpa", text),
        ("pieces", [(p.kind, p.payload) for p in prog.pieces]),
        ("col_exponents", prog.col_exponents),
        ("lift_point", prog.lift_point(point)),
    ):
        h.update(name.encode())
        _feed(h, value)
    return h.hexdigest()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True, help='instance tag, e.g. "dense(6,4)" or A6')
    ap.add_argument("--method", required=True, help="pattern method, e.g. M, C or tssos-sos")
    ap.add_argument("--seeds", type=_seed_range, required=True,
                    help="instance seeds, one (7) or a range (1-400)")
    ap.add_argument("--senses", default="min,max", help="comma-separated, of min and max")
    args = ap.parse_args(argv)
    senses = args.senses.split(",")
    for seed in args.seeds:
        inst = gen_instance(args.tag, seed)
        fam = family_for_method(args.method, inst.f)
        point = inst.box.sample(np.random.default_rng(seed), 1)[0]
        for sense in senses:
            start = time.perf_counter()
            prog = assemble_relaxation(inst.f, fam, inst.box, sense=sense).lowered()
            text = export_sdpa(prog)
            wall = time.perf_counter() - start
            print(f"{inst.id}:{sense} {digest(prog, text, point)}", flush=True)
            print(f"{inst.id}:{sense} {wall:.3f} s", file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
