"""Lower-bound certificates extracted from dual solutions, and their verifier.

A certificate decomposes f - lambda into pieces, one per constraint group of
the solved program: nonnegative combinations of product rows (Handelman),
Gram forms on moment blocks (sparse SOS), vertex-supported multilinear
pieces, and circuit pieces.  verify_certificate is the one check of every
certificate: it re-expands each piece with poly-core arithmetic only, proves
it nonnegative on the box by the check of its kind, and compares the sum
with f - lambda coefficient-wise, so it shares no code with the model
builders beyond poly-core, which holds the factor descriptors.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .polynomials import (Box, Polynomial, _exponent, _integer, _number, exp_add, exp_support,
                          factor_min_on_box, monomial_range, product_of_factors,
                          unit_exponent)

if TYPE_CHECKING:
    from .ipm import SolveResult
    from .program import ConicProgram

COEFF_TOL = 1e-6
EIG_TOL = 1e-7
DUAL_SIGN_TOL = 1e-10
CIRCUIT_SLACK_TOL = 1e-9


class CertificateError(ValueError):
    pass


@dataclass
class CertificatePiece:
    kind: str  # "linear", "sos", "vertex", "circuit"
    data: dict


@dataclass
class Certificate:
    lam: float
    kind: str  # "sos", "handelman", "circuit", "mixed"
    pieces: list
    sense: str = "min"

    def to_json_dict(self) -> dict:
        blocks = [{"kind": "meta", "sense": self.sense}]
        for p in self.pieces:
            blocks.append({"kind": p.kind,
                           **{k: _FIELD_CODECS.get(k, _IDENTITY)[0](v) for k, v in p.data.items()}})
        return {"lambda": self.lam, "kind": self.kind, "blocks": blocks}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        if not isinstance(data, dict):
            raise CertificateError("certificate JSON is not an object")
        for key in ("lambda", "kind", "blocks"):
            if key not in data:
                raise CertificateError(f"certificate JSON missing field '{key}'")
        sense = "min"
        pieces = []
        # the field decoders raise whatever numpy or Python raises on data of
        # the wrong shape or type; each becomes a CertificateError
        where = "blocks"
        try:
            for i, blk in enumerate(data["blocks"]):
                where = f"block {i}"
                kind = blk.get("kind")
                if kind == "meta":
                    sense = blk.get("sense", "min")
                    continue
                pieces.append(CertificatePiece(kind, {k: _FIELD_CODECS.get(k, _IDENTITY)[1](v)
                                                      for k, v in blk.items() if k != "kind"}))
            where = "lambda"
            lam = _number(data["lambda"])
        except (TypeError, ValueError, IndexError, KeyError, AttributeError) as exc:
            raise CertificateError(f"{where} cannot be decoded: "
                                   f"{type(exc).__name__}: {exc}") from exc
        if sense not in ("min", "max"):
            raise CertificateError(f"sense must be 'min' or 'max', not {sense!r}")
        return cls(lam, data["kind"], pieces, sense)

    @classmethod
    def loads(cls, text: str) -> "Certificate":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateError(f"certificate is not JSON: {exc}") from exc
        return cls.from_json_dict(data)


def _number_array(v) -> np.ndarray:
    """A (nested) list of JSON numbers as a float array of its shape."""
    a = np.array(v, dtype=object)
    return np.array([_number(x) for x in a.flat], float).reshape(a.shape)


# JSON codecs of piece data fields, as (encode, decode) pairs; a field not in
# the table is stored as is. The decoders take numbers and integers only where
# JSON has them
_FACTORS = (lambda v: [[f[0], list(f[1])] for f in v],
            lambda v: tuple((f[0], _exponent(f[1])) for f in v))
_EXPONENT_LIST = (lambda v: [list(e) for e in v], lambda v: tuple(map(_exponent, v)))
_OPTIONAL_EXPONENT = (lambda v: list(v) if v is not None else None,
                      lambda v: _exponent(v) if v is not None else None)
_FIELD_CODECS = {
    "factors": _FACTORS,
    "multiplier_factors": _FACTORS,
    "basis": _EXPONENT_LIST,
    "gammas": _EXPONENT_LIST,
    "pattern": _EXPONENT_LIST,
    "vertices": (lambda v: [list(p) for p in v],
                 lambda v: tuple(tuple(map(_number, p)) for p in v)),
    "beta": _OPTIONAL_EXPONENT,
    "base_alpha": _OPTIONAL_EXPONENT,
    "support": (list, lambda v: tuple(map(_integer, v))),
    "gram": (lambda v: np.asarray(v).tolist(), _number_array),
    "poly": (lambda v: [list(a) + [c] for a, c in sorted(v.items())],
             lambda v: {_exponent(row[:-1]): _number(row[-1]) for row in v}),
    "lambdas": (list, lambda v: tuple(map(_number, v))),
    "weight": (lambda v: v, _number),
}
_IDENTITY = (lambda v: v, lambda v: v)


# ---------------------------------------------------------------------------
# extraction

_AGGREGATED = ("vertex", "circuit")  # pieces stored as their dual polynomial


def extract_certificate(prog: ConicProgram, result: SolveResult) -> Certificate:
    """Turn the dual solution of a solved relaxation into a certificate.

    The program must be the lowered program the result was produced from,
    built by assemble_relaxation (it carries piece metadata).
    """
    if result.status != "optimal":
        raise CertificateError(f"cannot certify a result with status {result.status!r}")
    if not prog.pieces or "minimized" not in prog.meta:
        raise CertificateError("program carries no certificate metadata")
    piece_kind = [p.kind for p in prog.pieces]
    agg = {pid: {} for pid, kind in enumerate(piece_kind) if kind in _AGGREGATED}
    weight: dict = {}  # linear piece -> dual of its first row
    gram: dict = {}  # sos piece -> Gram matrix of its block

    # one pass over rows and blocks; a row's dual multiplies its coefficients,
    # a block's dual is paired with its entries, each off-diagonal one twice
    for rows, duals in ((prog.ineqs, result.z_lin), (prog.eqs, -result.y_eq)):
        for row, w in zip(rows, duals):
            pid = row.piece
            if pid in agg:
                if w == 0.0:
                    continue
                target = agg[pid]
                for col, c in row.coeff.items():
                    alpha = prog.col_exponents[col]
                    if alpha is not None:
                        target[alpha] = target.get(alpha, 0.0) + float(w) * c
            elif pid is not None and piece_kind[pid] == "linear":
                weight.setdefault(pid, float(w))
    for blk, Z in zip(prog.blocks, result.z_psd):
        pid = blk.piece
        if pid is None:
            continue
        Z = 0.5 * (Z + Z.T)
        if piece_kind[pid] == "sos":
            gram[pid] = Z
        elif pid in agg:
            target = agg[pid]
            for (col, i, j), v in blk.entries.items():
                alpha = prog.col_exponents[col]
                if alpha is not None:
                    w = v * Z[i, j] if i == j else 2.0 * v * Z[i, j]
                    target[alpha] = target.get(alpha, 0.0) + float(w)

    pieces = []
    for pid, meta in enumerate(prog.pieces):
        if meta.kind == "linear":
            z = weight.get(pid, 0.0)
            if abs(z) < 1e-14:
                continue
            data = {"factors": tuple(meta.payload.get("factors") or ()), "weight": z}
        elif meta.kind == "sos":
            Q = gram.get(pid)
            if Q is None or float(np.max(np.abs(Q))) < 1e-14:
                continue
            data = {
                "basis": tuple(meta.payload["basis"]),
                "multiplier_factors": tuple(meta.payload.get("multiplier_factors") or ()),
                "gram": Q,
            }
        elif meta.kind in _AGGREGATED:
            poly = {a: c for a, c in agg[pid].items() if abs(c) > 1e-13}
            if not poly:
                continue
            data = dict(meta.payload)
            data["poly"] = poly
        else:
            continue
        pieces.append(CertificatePiece(meta.kind, data))
    kinds = {p.kind for p in pieces}
    if kinds == {"sos"}:
        kind = "sos"
    elif kinds <= {"linear"}:
        kind = "handelman"
    elif "circuit" in kinds and kinds <= {"circuit", "linear"}:
        kind = "circuit"
    else:
        kind = "mixed"
    return Certificate(
        lam=float(result.dual),
        kind=kind,
        pieces=pieces,
        sense=prog.meta.get("sense", "min"),
    )


# ---------------------------------------------------------------------------
# verification: one check per piece kind validates the piece's data, proves
# the piece nonnegative on the box and returns its polynomial, or raises
# CertificateError; verify_certificate sums the pieces against f - lambda


@dataclass
class VerifyReport:
    passed: bool
    lam: float = math.nan
    max_residual: float = math.nan
    problems: list = field(default_factory=list)

    def __bool__(self):
        return self.passed

    def __str__(self):
        head = "PASS" if self.passed else "FAIL"
        body = "; ".join(self.problems) if self.problems else "ok"
        return f"{head} (lambda={self.lam:.9g}, residual={self.max_residual:.3g}): {body}"


def _fields(data: dict, *names):
    for name in names:
        if name not in data:
            raise CertificateError(f"missing field '{name}'")
    return [data[name] for name in names]


def _check_factors(factors, box: Box):
    for fct in factors:
        if factor_min_on_box(fct, box) < -1e-9:
            raise CertificateError(f"factor {fct} is not nonnegative on the box")


def _linear_piece(data: dict, n: int, box: Box) -> Polynomial:
    """weight * prod(factors), with weight >= 0 and every factor >= 0 on the box."""
    factors, weight = _fields(data, "factors", "weight")
    z = float(weight)
    if z < -DUAL_SIGN_TOL:
        raise CertificateError(f"negative multiplier {z:.3e} on a product row")
    _check_factors(factors, box)
    return max(z, 0.0) * product_of_factors(factors, box, n)


def _gram_polynomial(n: int, basis, Q: np.ndarray) -> Polynomial:
    terms: dict = {}
    for a, ba in enumerate(basis):
        for b, bb in enumerate(basis):
            if Q[a, b]:
                key = exp_add(tuple(ba), tuple(bb))
                terms[key] = terms.get(key, 0.0) + Q[a, b]
    return Polynomial(n, terms)


def _sos_piece(data: dict, n: int, box: Box) -> Polynomial:
    """prod(multiplier factors) * (x^B)' Q x^B, with Q PSD up to EIG_TOL.

    Eigenvalues inside the tolerance are clipped to zero.
    """
    basis, gram = _fields(data, "basis", "gram")
    factors = data.get("multiplier_factors", ())
    Q = np.asarray(gram, float)
    if not basis or Q.shape != (len(basis), len(basis)):
        raise CertificateError(
            f"Gram matrix of shape {Q.shape} does not match its basis of {len(basis)} monomials")
    Qs = 0.5 * (Q + Q.T)
    scale = 1.0 + float(np.max(np.abs(Qs)))
    if float(np.max(np.abs(Qs - Q))) > 1e-9 * scale:
        raise CertificateError("Gram matrix is not symmetric")
    eigs, vecs = np.linalg.eigh(Qs)
    if eigs[0] < -EIG_TOL * scale:
        raise CertificateError(f"Gram eigenvalue {eigs[0]:.3e} below -{EIG_TOL:g}*(1+|Q|)")
    _check_factors(factors, box)
    clipped = vecs @ np.diag(np.clip(eigs, 0.0, None)) @ vecs.T
    return product_of_factors(factors, box, n) * _gram_polynomial(n, basis, clipped)


def _vertex_piece(data: dict, n: int, box: Box) -> Polynomial:
    """A polynomial multilinear in the y_i = x_i^base_i (i in support) and
    >= 0 at every vertex of their box."""
    terms, base, support, vertices = _fields(data, "poly", "base_alpha", "support", "vertices")
    poly = Polynomial(n, terms)
    if len(base) != n or not all(0 <= i < n for i in support):
        raise CertificateError(f"base or support does not fit {n} variables")
    # a table that omits a vertex would prove nothing: it must be the box's
    ranges = [monomial_range(unit_exponent(n, i, base[i]), box) for i in support]
    if not all(r.finite for r in ranges):
        raise CertificateError("a vertex coordinate is unbounded on the box")
    if tuple(map(tuple, vertices)) != tuple(itertools.product(*[(r.lo, r.hi) for r in ranges])):
        raise CertificateError(
            f"vertex tuples do not match the box's vertices on the support {tuple(support)}")
    scale = 1.0 + max((abs(c) for c in poly.terms.values()), default=0.0)
    for alpha in poly.terms:
        if any(a not in (0, base[i]) or (i not in support and a) for i, a in enumerate(alpha)):
            raise CertificateError(f"exponent {alpha} lies outside the piece's cube")
    pos = {i: j for j, i in enumerate(support)}
    for p in vertices:
        val = 0.0
        for alpha, c in poly.terms.items():
            term = c
            for i in exp_support(alpha):
                term *= p[pos[i]]
            val += term
        if val < -EIG_TOL * scale:
            raise CertificateError(f"negative ({val:.3e}) at a box vertex")
    return poly


def _circuit_piece(data: dict, n: int, box: Box) -> Polynomial:
    """A polynomial on one circuit's exponents that passes the AGE/SONC test.

    The box's lower bounds decide the sign rule: outer exponents must be even
    where x can be negative, and the inner one counts as even where x >= 0.
    The test is f_beta + prod (f_gamma/lambda)^lambda >= -CIRCUIT_SLACK_TOL
    for an even inner exponent and the same with -|f_beta| for an odd one.
    """
    terms, beta, gammas, lambdas = _fields(data, "poly", "beta", "gammas", "lambdas")
    if len(beta) != n or any(len(g) != n for g in gammas) or len(lambdas) != len(gammas):
        raise CertificateError(f"exponents or weights do not fit {n} variables")
    # the circuit test proves nothing unless the weights write beta in the gammas
    if min(lambdas, default=0.0) <= 0.0 or abs(sum(lambdas) - 1.0) > CIRCUIT_SLACK_TOL or any(
            abs(sum(w * g[i] for w, g in zip(lambdas, gammas)) - beta[i]) > CIRCUIT_SLACK_TOL
            for i in range(n)):
        raise CertificateError("weights are not barycentric coordinates of beta")
    allowed = {tuple(beta)} | {tuple(g) for g in gammas}
    poly = Polynomial(n, terms)
    kept = {}
    for a, c in poly.terms.items():
        if a in allowed:
            kept[a] = c
        elif abs(c) > COEFF_TOL:
            raise CertificateError(f"touches foreign exponent {a}")
    poly = Polynomial(n, kept)
    fbeta = poly.coefficient(tuple(beta))
    fg = [poly.coefficient(tuple(g)) for g in gammas]
    if not box.nonnegative and any(e % 2 for g in gammas for e in g):
        raise CertificateError("odd outer circuit exponent where x can be negative")
    even = box.nonnegative or all(e % 2 == 0 for e in beta)
    # outer coefficients must be positive unless the inner term vanishes
    if any(v <= 0.0 for v in fg) and not (
            even and abs(fbeta) <= CIRCUIT_SLACK_TOL
            and all(v >= -CIRCUIT_SLACK_TOL for v in fg)):
        raise CertificateError("nonpositive coefficient on an outer circuit exponent")
    prod = 1.0
    for v, lamb in zip(fg, lambdas):
        prod *= (max(v, 0.0) / lamb) ** lamb
    slack = (fbeta if even else -abs(fbeta)) + prod
    if slack < -CIRCUIT_SLACK_TOL:
        raise CertificateError(f"circuit condition violated by {-slack:.3e}")
    return poly


_PIECE_CHECKS = {
    "linear": _linear_piece,
    "sos": _sos_piece,
    "vertex": _vertex_piece,
    "circuit": _circuit_piece,
}


def verify_certificate(cert: Certificate, f: Polynomial, box: Box) -> VerifyReport:
    """Re-expand every piece independently and check sum == f - lambda.

    f must be the polynomial the certificate bounds from below (for a max
    solve that is the negated objective).  A piece whose data is malformed or
    that is not nonnegative adds nothing to the sum and a problem naming it.
    The pieces' terms are added into one dict, in piece order, and the sum
    polynomial is built once, so a partial sum is never rounded to zero; it
    must match f - lambda coefficient-wise up to COEFF_TOL.
    """
    # a NaN lambda would pass unseen: Polynomial drops the NaN constant of f - lambda
    problems: list = [] if math.isfinite(cert.lam) else [f"lambda {cert.lam} is not finite"]
    terms: dict = {}
    for i, piece in enumerate(cert.pieces):
        check = _PIECE_CHECKS.get(piece.kind)
        if check is None:
            problems.append(f"piece {i}: unknown piece kind {piece.kind!r}")
            continue
        try:
            part = check(piece.data, f.n, box)
        except (ValueError, TypeError) as exc:
            # CertificateError and the factor descriptors' errors are ValueErrors,
            # as are numbers and exponents of the wrong shape; TypeError is a
            # field of the wrong type, such as a null from JSON
            problems.append(f"piece {i} ({piece.kind}): {exc}")
            continue
        for alpha, c in part.terms.items():
            terms[alpha] = terms.get(alpha, 0.0) + c
    total = Polynomial(f.n, terms)
    target = f - cert.lam
    keys = set(total.terms) | set(target.terms)
    residual = max((abs(total.terms.get(k, 0.0) - target.terms.get(k, 0.0)) for k in keys),
                   default=0.0)
    if residual > COEFF_TOL:
        problems.append(f"coefficient residual {residual:.3e} exceeds {COEFF_TOL:g}")
    return VerifyReport(not problems, cert.lam, residual, problems)
