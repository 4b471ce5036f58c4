"""Command-line entry points.

Every subcommand reads exact JSON, works over the rationals, and writes a
deterministic JSON report (stdout by default, --out to a file).  Exit codes:
0 success, 2 precondition or input error, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import jsonio
from .binforms import certify_form, integral_point_to_form, reduction_classify
from .covers import beta_tuples, reconstruct_h_f
from .curves import CurvePoint, HyperCurve, compute_t
from .errors import InternalCheckError
from .finitefield import check_field_order
from .points import (
    IntegralitySpec,
    brute_force_points,
    recover_points_detailed,
)
from .polys import Poly, RatFunc
from .scalars import is_prime
from .zeta import prym_check_obstruction, prym_product_check

DEFAULT_PRIME_BUDGET = 31


def _read_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _parse_point(text: str) -> CurvePoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"point must be 'x,y', got {text!r}")
    return CurvePoint.affine(
        jsonio.str_to_rat(parts[0]), jsonio.str_to_rat(parts[1])
    )


def _parse_coeffs(text: str) -> Poly:
    return Poly([jsonio.str_to_rat(c) for c in text.split(",")])


def _parse_func(args) -> RatFunc:
    """The function f = num/den from --num and --den."""
    den = _parse_coeffs(args.den)
    if den.is_zero():
        raise ValueError("the denominator of f must be nonzero")
    return RatFunc(_parse_coeffs(args.num), den)


def _parse_primes(text: Optional[str]) -> tuple:
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _emit(payload: Any, out: Optional[str]) -> None:
    text = jsonio.dumps(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_curve(path: str) -> HyperCurve:
    return jsonio.json_to_curve(_read_json(path))


# reconstruct_h_f raises InternalCheckError unless all four identities hold
_COVER_STATUS = {
    "h_at_P": "verified",
    "h_at_Q": "verified",
    "h_degree": "verified",
    "square_identity": "verified",
}


def cmd_covers(args) -> int:
    curve = _load_curve(args.curve)
    p_pt = _parse_point(args.p)
    q_pt = _parse_point(args.q)
    certs = []
    for t in beta_tuples(curve, p_pt, q_pt):
        entry = jsonio.cover_certificate_to_json(reconstruct_h_f(t))
        entry["status"] = dict(_COVER_STATUS)
        certs.append(entry)
    _emit({"curve": jsonio.curve_to_json(curve), "certificates": certs}, args.out)
    return 0


def _usable_prime(cert, budget: int) -> int:
    p = 3
    while p <= budget:
        if is_prime(p) and not prym_check_obstruction(cert, p):
            return p
        p += 2
    raise ValueError(f"no usable prime up to {budget}")


def cmd_prym_check(args) -> int:
    curve = _load_curve(args.curve)
    p_pt = _parse_point(args.p)
    q_pt = _parse_point(args.q)
    tuples = beta_tuples(curve, p_pt, q_pt)
    certs = [reconstruct_h_f(t) for t in tuples]
    primes = _parse_primes(args.primes)
    for p in primes:
        if p == 2 or not is_prime(p):
            raise ValueError(f"need odd primes, got {p}")
    if not primes:
        primes = (_usable_prime(certs[0], args.prime_budget),)
    for p in primes:
        check_field_order(p, curve.genus)
    # Prime-major, so that only one prime's fields are cached at a time;
    # the cells are emitted tuple-major.
    cells: Dict[Tuple[int, int], Dict[str, Any]] = {}
    any_failed = False
    for p in primes:
        for i, cert in enumerate(certs):
            cell: Dict[str, Any] = {"tuple": i, "p": p}
            try:
                rep = prym_product_check(cert, p)
            except ValueError as exc:
                cell["skipped"] = f"bad reduction: {exc}"
            else:
                cell["report"] = jsonio.prym_report_to_json(rep)
                if not rep.matched_twists:
                    any_failed = True
            cells[i, p] = cell
    ordered = [cells[i, p] for i in range(len(certs)) for p in primes]
    _emit({"curve": jsonio.curve_to_json(curve), "cells": ordered}, args.out)
    if any_failed:
        raise InternalCheckError("a twist cell matched no Jacobian product")
    return 0


def cmd_certify(args) -> int:
    curve = _load_curve(args.curve)
    p_pt = _parse_point(args.p)
    q_pt = _parse_point(args.q)
    cert = integral_point_to_form(curve, p_pt, q_pt, _parse_primes(args.s_primes))
    _emit(jsonio.form_certificate_to_json(cert), args.out)
    return 0


def cmd_check_bprime(args) -> int:
    obj = _read_json(args.form)
    s_primes = _parse_primes(args.s_primes)
    if isinstance(obj, dict) and "form" in obj:
        # a certificate file: re-check its own form against its own S
        loaded = jsonio.json_to_form_certificate(obj)
        form = loaded.form
        if not s_primes:
            s_primes = loaded.s_primes
    else:
        form = jsonio.json_to_form(obj)
    result = certify_form(form, s_primes)
    if isinstance(result, str):
        _emit({"accepted": False, "reason": result}, args.out)
    else:
        payload = jsonio.form_certificate_to_json(result)
        payload["accepted"] = True
        _emit(payload, args.out)
    return 0


def cmd_classify_reduction(args) -> int:
    cert = jsonio.json_to_form_certificate(_read_json(args.certificate))
    recheck = certify_form(cert.form, cert.s_primes)
    if isinstance(recheck, str):
        raise ValueError(f"certificate does not re-verify: {recheck}")
    if recheck.entries != cert.entries:
        raise ValueError("certificate entries do not match its form")
    report = reduction_classify(cert, args.prime)
    _emit(jsonio.reduction_report_to_json(report), args.out)
    return 0


def cmd_points(args) -> int:
    curve = _load_curve(args.curve)
    func = _parse_func(args)
    spec = IntegralitySpec(func, _parse_primes(args.s_primes), args.height_bound)
    pts = brute_force_points(curve, spec)
    _emit(jsonio.points_to_json([(p, "height search") for p in pts]), args.out)
    return 0


def cmd_recover(args) -> int:
    curve = _load_curve(args.curve)
    func = _parse_func(args)
    spec = IntegralitySpec(
        func, _parse_primes(args.s_primes), args.height_bound
    )
    candidates = jsonio.json_to_candidate_set(_read_json(args.candidates))
    detail = recover_points_detailed(curve, spec, candidates)
    _emit(jsonio.points_to_json(detail), args.out)
    return 0


def cmd_compute_t(args) -> int:
    curve = _load_curve(args.curve)
    func = _parse_func(args)
    primes = compute_t(curve, func, _parse_primes(args.s_primes))
    _emit({"primes": list(primes)}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prymcover",
        description="Exact double covers, unit-discriminant certificates and "
        "integral point recovery for hyperelliptic curves over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, s_primes=True):
        p.add_argument("--out", help="write the JSON report to this file")
        if s_primes:
            p.add_argument(
                "--s-primes", help="comma-separated finite primes of S", default=""
            )

    p = sub.add_parser("covers", help="all double-cover certificates for (C, P, Q)")
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("--p", required=True, help="point P as 'x,y'")
    p.add_argument("--q", required=True, help="point Q as 'x,y'")
    common(p, s_primes=False)
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser(
        "prym-check", help="Jacobian product identity over small prime fields"
    )
    p.add_argument("curve")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--primes", default="", help="comma-separated odd primes")
    p.add_argument(
        "--prime-budget",
        type=int,
        default=DEFAULT_PRIME_BUDGET,
        help="when --primes is empty, search for a usable prime up to this bound",
    )
    common(p, s_primes=False)
    p.set_defaults(func=cmd_prym_check)

    p = sub.add_parser(
        "certify", help="turn an S-integral pair into a unit-discriminant form"
    )
    p.add_argument("curve")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "check-bprime",
        help="check the shaped-discriminant condition on a form or certificate",
    )
    p.add_argument("form", help="form or certificate JSON file")
    common(p)
    p.set_defaults(func=cmd_check_bprime)

    p = sub.add_parser(
        "classify-reduction", help="residue curves of a certified form at a prime"
    )
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--prime", type=int, required=True)
    common(p, s_primes=False)
    p.set_defaults(func=cmd_classify_reduction)

    p = sub.add_parser("points", help="bounded-height S-integral point search")
    p.add_argument("curve")
    p.add_argument("--num", required=True, help="f numerator coefficients 'c0,c1,...'")
    p.add_argument("--den", required=True, help="f denominator coefficients")
    p.add_argument("--height-bound", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_points)

    p = sub.add_parser(
        "recover", help="integral points through candidate cover cross-ratios"
    )
    p.add_argument("curve")
    p.add_argument("candidates", help="candidate set JSON file")
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)
    p.add_argument("--height-bound", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser(
        "compute-t", help="support-set primes for S-integrality of f on C"
    )
    p.add_argument("curve")
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)
    common(p)
    p.set_defaults(func=cmd_compute_t)

    return parser


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parsing leaves the parser as it was."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
