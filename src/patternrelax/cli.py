"""Command-line interface: gen / relax / solve / verify / bench."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .assemble import assemble_relaxation
from .bench import BenchConfig, family_for_method, gen_instance, records_to_csv, run_benchmark
from .certificates import (Certificate, CertificateError, extract_certificate,
                           verify_certificate)
from .io import export_instance_json, import_instance_json
from .pipeline import solve_relaxation
from .program import export_sdpa


def _family_for(args, f, fam_from_file):
    if args.method == "custom":
        if fam_from_file is None:
            raise SystemExit("method 'custom' needs a family embedded in the instance")
        return fam_from_file
    return family_for_method(args.method, f)


def _read_instance(path):
    """(f, box, family or None, meta) from the instance file, or None after a
    FAIL line if the file is malformed."""
    try:
        return import_instance_json(Path(path).read_text())
    except ValueError as exc:
        print(f"FAIL (malformed instance): {exc}")
        return None


def cmd_gen(args):
    inst = gen_instance(args.tag, args.seed)
    text = export_instance_json(inst.f, inst.box, id=inst.id, tag=inst.tag,
                                seed=inst.seed)
    Path(args.out).write_text(text)
    print(f"wrote {args.out}: n={inst.n}, {len(inst.f.terms)} terms")


def cmd_relax(args):
    if (inst := _read_instance(args.instance)) is None:
        return 1
    f, box, fam_file, _ = inst
    fam = _family_for(args, f, fam_file)
    prog = assemble_relaxation(f, fam, box, sense=args.sense)
    lowered = prog.lowered()
    text = export_sdpa(lowered)
    Path(args.export_sdpa).write_text(text)
    print(f"wrote {args.export_sdpa}: {lowered.ncols} variables, "
          f"{len(lowered.eqs)} equality rows, {len(lowered.ineqs)} inequality rows, "
          f"{len(lowered.blocks)} psd blocks")


def cmd_solve(args):
    if (inst := _read_instance(args.instance)) is None:
        return 1
    f, box, fam_file, _ = inst
    fam = _family_for(args, f, fam_file)
    rel = solve_relaxation(f, fam, box, args.sense)
    result = rel.result
    print(f"status: {result.status}")
    print(f"value:  {rel.bound:.10g}")
    print(f"dual:   {result.dual:.10g}  iters: {result.iterations}")
    if args.certificate:
        if result.status != "optimal":
            raise SystemExit(f"no certificate: solver status {result.status}")
        cert = extract_certificate(rel.program, result)
        Path(args.certificate).write_text(cert.dumps())
        print(f"wrote certificate {args.certificate} (lambda={cert.lam:.10g})")
    return 0 if result.status == "optimal" else 2


def cmd_verify(args):
    if (inst := _read_instance(args.instance)) is None:
        return 1
    f, box, _, _ = inst
    try:
        cert = Certificate.loads(Path(args.certificate).read_text())
    except CertificateError as exc:
        print(f"FAIL (malformed certificate): {exc}")
        return 1
    target = f if cert.sense == "min" else -f
    report = verify_certificate(cert, target, box)
    print(report)
    return 0 if report.passed else 1


def cmd_bench(args):
    cfg = BenchConfig.from_json_dict(json.loads(Path(args.config).read_text()))
    records, summary = run_benchmark(cfg)
    Path(args.out).write_text(records_to_csv(records))
    print(f"wrote {args.out} ({len(records)} records)")
    for row in summary:
        print("  {family:>12} {method:>16}  solved {solved}/{instances}  "
              "median triv {triv_median:.4f} "
              "(q1 {triv_q1:.4f}, q3 {triv_q3:.4f})  mean time {mean_time_s:.3f}s"
              .format(**row))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="patternrelax",
        description="Pattern-based convex relaxations for polynomial minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--tag", required=True,
                   help="dense(n,d) | S(n,d) | A5 | A6 | A7 | A8 | Aex")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("relax", help="build a relaxation and export SDPA")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--sense", choices=("min", "max"), default="min")
    p.add_argument("--export-sdpa", required=True, dest="export_sdpa")
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("solve", help="solve a relaxation")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--sense", choices=("min", "max"), default="min")
    p.add_argument("--certificate", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify a certificate against an instance")
    p.add_argument("--certificate", required=True)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run a benchmark configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    rc = args.func(args)
    return rc if isinstance(rc, int) else 0


if __name__ == "__main__":
    sys.exit(main())
