import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from patternrelax.bench import family_for_method
from patternrelax.certificates import Certificate, CertificateError, verify_certificate
from patternrelax.cli import main
from patternrelax.io import import_instance_json
from patternrelax.pipeline import solve_relaxation


def test_cli_gen_relax_solve_verify_bench(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--tag", "S(2,4)", "--seed", "3", "--out", str(inst)]) == 0
    data = json.loads(inst.read_text())
    assert set(data) >= {"f", "box", "id", "tag", "seed"}

    sdpa = tmp_path / "prog.dat-s"
    capsys.readouterr()
    assert main(["relax", "--instance", str(inst), "--method", "C",
                 "--sense", "min", "--export-sdpa", str(sdpa)]) == 0
    # the v_0 = 1 row is an equality; it counts, as do the inequalities
    assert capsys.readouterr().out == (
        f"wrote {sdpa}: 9 variables, 1 equality rows, 6 inequality rows, 4 psd blocks\n")
    body = sdpa.read_text().splitlines()
    assert int(body[0]) > 0 and int(body[1]) > 0

    cert = tmp_path / "cert.json"
    assert main(["solve", "--instance", str(inst), "--method", "C",
                 "--sense", "min", "--certificate", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "status: optimal" in out
    cert_data = json.loads(cert.read_text())
    assert set(cert_data) == {"lambda", "kind", "blocks"}

    assert main(["verify", "--certificate", str(cert),
                 "--instance", str(inst)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")

    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"families": ["S(2,3)"], "methods": ["M"],
                               "samples": 2, "base_seed": 1}))
    csv_out = tmp_path / "results.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("instance_id,family,method,sense")
    assert len(lines) == 1 + 2 * 2


def test_cli_verify_detects_tampered_certificate(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--tag", "S(2,4)", "--seed", "5", "--out", str(inst)])
    cert = tmp_path / "cert.json"
    main(["solve", "--instance", str(inst), "--method", "M",
          "--sense", "min", "--certificate", str(cert)])
    capsys.readouterr()
    data = json.loads(cert.read_text())
    data["lambda"] = data["lambda"] + 0.5  # claim a better bound
    cert.write_text(json.dumps(data))
    assert main(["verify", "--certificate", str(cert),
                 "--instance", str(inst)]) == 1
    assert capsys.readouterr().out.startswith("FAIL")


def _break_gram(blocks):
    blk = next(b for b in blocks if b["kind"] == "sos" and len(b["basis"]) > 1)
    blk["gram"] = [[1.0]]


def _drop_weight(blocks):
    del next(b for b in blocks if b["kind"] == "linear")["weight"]


def _shorten_vertices(blocks):
    blk = next(b for b in blocks if b["kind"] == "vertex")
    blk["vertices"] = [v[:-1] for v in blk["vertices"]]


@pytest.mark.parametrize("malform", [_break_gram, _drop_weight, _shorten_vertices],
                         ids=["gram_smaller_than_basis", "linear_without_weight",
                              "short_vertex_tuples"])
def test_malformed_certificate_fails_without_raising(tmp_path, capsys, malform):
    inst = tmp_path / "inst.json"
    main(["gen", "--tag", "S(2,4)", "--seed", "3", "--out", str(inst)])
    cert = tmp_path / "cert.json"
    assert main(["solve", "--instance", str(inst), "--method", "H",
                 "--sense", "min", "--certificate", str(cert)]) == 0
    data = json.loads(cert.read_text())
    malform(data["blocks"])
    cert.write_text(json.dumps(data))
    f, box, _, _ = import_instance_json(inst.read_text())
    report = verify_certificate(Certificate.from_json_dict(data), f, box)
    assert not report.passed
    assert any(p.startswith("piece ") for p in report.problems)
    capsys.readouterr()
    assert main(["verify", "--certificate", str(cert),
                 "--instance", str(inst)]) == 1
    assert capsys.readouterr().out.startswith("FAIL")


def _ragged_gram(data):
    blk = next(b for b in data["blocks"] if b["kind"] == "sos" and len(b["basis"]) > 1)
    blk["gram"] = [[1.0, 0.0], [0.0]]


def _factor_without_payload(data):
    blk = next(b for b in data["blocks"] if b["kind"] == "linear")
    blk["factors"] = [[blk["factors"][0][0]]]


def _drop_lambda(data):
    del data["lambda"]


def _affine_factor(data):
    # a factor kind with a whole polynomial as its payload, x_1 >= 0 written
    # as an "affine" factor; the verifier knows no such kind
    blk = next(b for b in data["blocks"] if b["kind"] == "linear")
    n = len(blk["factors"][0][1])
    blk["factors"] = [["affine", {"n": n, "terms": [[1] + [0] * (n - 1) + [1.0]]}]]


def _bogus_sense(data):
    data["blocks"][0]["sense"] = "bogus"


def _null_sense(data):
    # without a sense check, verify would test this against -f, as for max
    data["blocks"][0]["sense"] = None


def _boolean_lambda(data):
    # float() would read it as lambda = 1
    data["lambda"] = True


def _string_weight(data):
    blk = next(b for b in data["blocks"] if b["kind"] == "linear")
    blk["weight"] = str(blk["weight"])


@pytest.mark.parametrize("malform",
                         [_ragged_gram, _factor_without_payload, _drop_lambda, _affine_factor,
                          _bogus_sense, _null_sense, _boolean_lambda, _string_weight],
                         ids=["ragged_gram", "factor_without_payload", "missing_lambda",
                              "affine_factor", "bogus_sense", "null_sense", "boolean_lambda",
                              "string_weight"])
def test_undecodable_certificate_fails_without_raising(tmp_path, capsys, malform):
    # data the field decoders cannot read is a CertificateError, which the
    # CLI reports as a FAIL line rather than a traceback
    inst = tmp_path / "inst.json"
    main(["gen", "--tag", "S(2,4)", "--seed", "3", "--out", str(inst)])
    cert = tmp_path / "cert.json"
    assert main(["solve", "--instance", str(inst), "--method", "H",
                 "--sense", "min", "--certificate", str(cert)]) == 0
    data = json.loads(cert.read_text())
    malform(data)
    with pytest.raises(CertificateError):
        Certificate.from_json_dict(data)
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--certificate", str(cert),
                 "--instance", str(inst)]) == 1
    assert capsys.readouterr().out.startswith("FAIL (malformed certificate)")


@pytest.mark.parametrize("text", ['{"n": 1}', "[1]", "5",
                                  '{"f": 5, "box": {"l": [0], "u": [1]}}'],
                         ids=["without_f", "list", "number", "f_not_an_object"])
def test_malformed_instance_fails_without_raising(tmp_path, capsys, text):
    inst = tmp_path / "inst.json"
    main(["gen", "--tag", "S(2,4)", "--seed", "3", "--out", str(inst)])
    cert = tmp_path / "cert.json"
    assert main(["solve", "--instance", str(inst), "--method", "H",
                 "--sense", "min", "--certificate", str(cert)]) == 0
    inst.write_text(text)
    capsys.readouterr()
    assert main(["verify", "--certificate", str(cert),
                 "--instance", str(inst)]) == 1
    assert capsys.readouterr().out.startswith("FAIL (malformed instance): ")


@pytest.mark.parametrize("command", [["relax", "--export-sdpa", "prog.dat-s"], ["solve"]],
                         ids=["relax", "solve"])
def test_relax_and_solve_report_a_malformed_instance(tmp_path, capsys, command, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("inst.json").write_text('{"n": 1}')
    name, *rest = command
    assert main([name, "--instance", "inst.json", "--method", "H", *rest]) == 1
    assert capsys.readouterr().out == \
        "FAIL (malformed instance): instance JSON missing field 'f'\n"
    assert not Path("prog.dat-s").exists()


def test_cli_max_sense_certificate_round_trip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--tag", "S(2,4)", "--seed", "7", "--out", str(inst)])
    cert = tmp_path / "cert.json"
    assert main(["solve", "--instance", str(inst), "--method", "H",
                 "--sense", "max", "--certificate", str(cert)]) == 0
    value_line = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("value:"))
    assert main(["verify", "--certificate", str(cert),
                 "--instance", str(inst)]) == 0
    assert capsys.readouterr().out.startswith("PASS")

    # the CLI, bench's CSV and the library give the same upper bound on max f
    f, box, _, _ = import_instance_json(inst.read_text())
    rel = solve_relaxation(f, family_for_method("H", f), box, sense="max")
    assert value_line == f"value:  {rel.bound:.10g}"
    cfg, csv_out = tmp_path / "bench.json", tmp_path / "results.csv"
    cfg.write_text(json.dumps({"families": ["S(2,4)"], "methods": ["H"], "base_seed": 7,
                               "samples": 1}))
    assert main(["bench", "--config", str(cfg), "--out", str(csv_out)]) == 0
    row = next(r for r in csv.DictReader(csv_out.read_text().splitlines()) if r["sense"] == "max")
    assert row["value"] == "%.12g" % rel.bound
    assert rel.certify()[1].passed


def test_cli_bench_prints_solved_count(tmp_path, capsys):
    # a method that refuses the instance shows as solved 0/1, not only as a
    # NaN median
    cfg, csv_out = tmp_path / "bench.json", tmp_path / "results.csv"
    cfg.write_text(json.dumps({"families": ["A6"], "methods": ["T"], "samples": 1}))
    assert main(["bench", "--config", str(cfg), "--out", str(csv_out)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 1 and rows[0].split()[:4] == ["A6", "T", "solved", "0/1"]


def test_cli_rejects_unknown_method(tmp_path):
    inst = tmp_path / "inst.json"
    main(["gen", "--tag", "Aex", "--seed", "1", "--out", str(inst)])
    with pytest.raises(ValueError):
        main(["solve", "--instance", str(inst), "--method", "nope",
              "--sense", "min"])


# f = x on [0, 1], with one negative exponent in the family or the certificate
_X_ON_UNIT = {"f": {"n": 1, "terms": [[1, 1.0]]}, "box": {"l": [0.0], "u": [1.0]}}
_CHAIN_WITH_NEGATIVE_GAMMA = {"kind": "custom", "patterns": [[[0], [1], [2]]], "meta": {
    "dimension": 1, "pattern_kinds": ["chain"], "pattern_meta": [{"gamma": [-1], "steps": 2}]}}
_LINEAR_WITH_NEGATIVE_FACTOR = {"kind": "linear", "factors": [["mon_minus_lo", [-1]]],
                                "weight": 1.0}
_VERTEX_WITH_NEGATIVE_BASE = {"kind": "vertex", "poly": [[1, 1.0]], "base_alpha": [-2],
                              "support": [0], "vertices": [[0.0], [1.0]]}


@pytest.mark.parametrize("family, piece, command, out", [
    (None, _LINEAR_WITH_NEGATIVE_FACTOR, ["verify", "--certificate", "cert.json"],
     "FAIL (malformed certificate)"),
    (None, _VERTEX_WITH_NEGATIVE_BASE, ["verify", "--certificate", "cert.json"],
     "FAIL (malformed certificate)"),
    (_CHAIN_WITH_NEGATIVE_GAMMA, None,
     ["relax", "--method", "custom", "--export-sdpa", "prog.dat-s"],
     "FAIL (malformed instance)"),
], ids=["verify_linear_factor", "verify_vertex_base", "relax_chain_gamma"])
def test_negative_exponent_fails_without_hanging(tmp_path, family, piece, command, out):
    # monomial_range loops forever on a negative exponent that gets past the
    # decoders, so the CLI runs in its own interpreter under a timeout
    Path(tmp_path, "inst.json").write_text(json.dumps({**_X_ON_UNIT, "family": family}))
    Path(tmp_path, "cert.json").write_text(json.dumps(
        {"lambda": 0.0, "kind": "mixed", "blocks": [piece]}))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "patternrelax.cli", *command,
                           "--instance", "inst.json"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.startswith(out), proc.stdout
