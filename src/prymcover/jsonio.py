"""Serialization to and from the JSON report formats.

Rationals travel as exact "p/q" strings so no file ever contains floating
point.  Every dump sorts its keys and ends with a newline, which makes
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Any, Dict, List, Optional, Union

from .binforms import (
    BinaryForm,
    FormCertificate,
    PrimeEntry,
    ReductionReport,
)
from .covers import BetaTuple, CoverCertificate
from .curves import CurvePoint, HyperCurve, make_curve
from .points import CandidateSet
from .polys import Poly
from .scalars import MQElem, Scalar
from .zeta import PrymCheckReport


def rat_to_str(r: Union[Fraction, int]) -> str:
    r = Fraction(r)
    if r.denominator == 1:
        return str(r.numerator)
    return "%d/%d" % (r.numerator, r.denominator)


def str_to_rat(s: str) -> Fraction:
    if not isinstance(s, str) or any(ch in s for ch in ".eE "):
        raise ValueError(f"not an exact rational string: {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational string: {s!r}") from None


def _list(obj: Any, what: str) -> List[Any]:
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a list, got {obj!r}")
    return obj


def _int(obj: Any) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValueError(f"expected an integer, got {obj!r}")
    return obj


def scalar_to_json(s: Scalar) -> Union[str, Dict[str, Any]]:
    if isinstance(s, MQElem) and not s.is_rational:
        gens = s.generators
        coords: Dict[str, str] = {}
        for size in range(len(gens) + 1):
            for subset in itertools.combinations(range(len(gens)), size):
                val = s.coordinate(gens[i] for i in subset)
                if val:
                    coords[",".join(str(i) for i in subset)] = rat_to_str(val)
        return {"gens": list(gens), "coords": coords}
    if isinstance(s, MQElem):
        return rat_to_str(s.as_fraction())
    return rat_to_str(Fraction(s))


def json_to_scalar(obj: Union[str, Dict[str, Any]]) -> Scalar:
    if isinstance(obj, str):
        return str_to_rat(obj)
    if not isinstance(obj, dict) or set(obj) != {"gens", "coords"}:
        raise ValueError(f"not a scalar encoding: {obj!r}")
    gens = [_int(d) for d in _list(obj["gens"], "generators")]
    if not isinstance(obj["coords"], dict):
        raise ValueError(f"scalar coordinates must be an object: {obj!r}")
    coords: Dict[tuple, Fraction] = {}
    for key, val in obj["coords"].items():
        idxs = [] if key == "" else [int(i) for i in key.split(",")]
        if any(i < 0 or i >= len(gens) for i in idxs):
            raise ValueError(f"generator index out of range in {key!r}")
        coords[tuple(gens[i] for i in idxs)] = str_to_rat(val)
    return MQElem(coords)


def poly_to_json(f: Poly) -> List[Any]:
    return [scalar_to_json(c) for c in f.coeffs]


def json_to_poly(obj: List[Any]) -> Poly:
    if not isinstance(obj, list):
        raise ValueError("polynomial must be a coefficient list")
    return Poly([json_to_scalar(c) for c in obj])


def curve_to_json(c: HyperCurve) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "lead": scalar_to_json(c.lead),
        "roots": [scalar_to_json(r) for r in c.roots],
    }
    if c.twist_unknown:
        out["twist_unknown"] = True
    return out


def json_to_curve(obj: Dict[str, Any]) -> HyperCurve:
    if not isinstance(obj, dict) or "lead" not in obj or "roots" not in obj:
        raise ValueError("curve encoding needs 'lead' and 'roots'")
    return make_curve(
        [json_to_scalar(r) for r in _list(obj["roots"], "curve roots")],
        json_to_scalar(obj["lead"]),
        bool(obj.get("twist_unknown", False)),
    )


def point_to_json(p: CurvePoint) -> Dict[str, Any]:
    if p.at_infinity:
        return {"infinity": True}
    return {"x": scalar_to_json(p.x), "y": scalar_to_json(p.y)}


def json_to_point(obj: Dict[str, Any]) -> CurvePoint:
    if not isinstance(obj, dict):
        raise ValueError("point encoding must be an object")
    if obj.get("infinity"):
        return CurvePoint.infinity()
    if "x" not in obj or "y" not in obj:
        raise ValueError("affine point encoding needs 'x' and 'y'")
    return CurvePoint.affine(json_to_scalar(obj["x"]), json_to_scalar(obj["y"]))


def cover_certificate_to_json(cert: CoverCertificate) -> Dict[str, Any]:
    return {
        "beta": [scalar_to_json(b) for b in cert.beta.betas],
        "h": poly_to_json(cert.h),
        "F": poly_to_json(cert.big_f),
        "P": point_to_json(cert.beta.p),
        "Q": point_to_json(cert.beta.q),
    }


def json_to_cover_certificate(
    obj: Dict[str, Any], curve: HyperCurve
) -> CoverCertificate:
    if not isinstance(obj, dict) or not {"beta", "h", "F", "P", "Q"} <= set(obj):
        raise ValueError("cover certificate needs beta, h, F, P and Q")
    bt = BetaTuple(
        curve,
        json_to_point(obj["P"]),
        json_to_point(obj["Q"]),
        tuple(json_to_scalar(b) for b in _list(obj["beta"], "beta")),
    )
    return CoverCertificate(bt, json_to_poly(obj["h"]), json_to_poly(obj["F"]))


def prym_report_to_json(rep: PrymCheckReport) -> Dict[str, Any]:
    labels = {"1": "1", str(rep.nonresidue): "ns"}
    matched = tuple(labels[t] for t in rep.matched_twists)
    # when both twists pass the product test the report stays deterministic
    # by preferring the trivial one
    single: Optional[str] = matched[0] if matched else None
    return {
        "p": rep.prime,
        "counts": {
            "C": list(rep.counts_base),
            "Ctilde": list(rep.counts_cover),
            "X_twist1": list(rep.counts_prym["1"]),
            "X_twistns": list(rep.counts_prym[str(rep.nonresidue)]),
        },
        "orders": {
            "C": rep.order_base,
            "Ctilde": rep.order_cover,
            "X_twist1": rep.orders_prym["1"],
            "X_twistns": rep.orders_prym[str(rep.nonresidue)],
        },
        "nonresidue": rep.nonresidue,
        "matched_twist": single,
        "matched_twists": list(matched),
    }


def form_to_json(form: BinaryForm) -> Dict[str, Any]:
    return {
        "degree": form.degree,
        "lambda": rat_to_str(form.lam),
        "factors": [[rat_to_str(d), rat_to_str(g)] for d, g in form.factors],
    }


def json_to_form(obj: Dict[str, Any]) -> BinaryForm:
    if not isinstance(obj, dict) or "factors" not in obj:
        raise ValueError("form encoding needs 'factors'")
    factors = _list(obj["factors"], "form factors")
    if not all(isinstance(f, list) and len(f) == 2 for f in factors):
        raise ValueError("each form factor must be a [delta, gamma] pair")
    form = BinaryForm(
        tuple((str_to_rat(d), str_to_rat(g)) for d, g in factors),
        str_to_rat(obj.get("lambda", "1")),
    )
    if "degree" in obj and form.degree != obj["degree"]:
        raise ValueError("form degree does not match its factors")
    return form


def form_certificate_to_json(cert: FormCertificate) -> Dict[str, Any]:
    return {
        "form": form_to_json(cert.form),
        "S": list(cert.s_primes),
        "entries": [
            {"p": e.prime, "m": e.m, "n": e.n, "roots": list(e.root_indices)}
            for e in cert.entries
        ],
    }


def json_to_form_certificate(obj: Dict[str, Any]) -> FormCertificate:
    if not isinstance(obj, dict) or not {"form", "S", "entries"} <= set(obj):
        raise ValueError("form certificate needs form, S and entries")
    entries = _list(obj["entries"], "certificate entries")
    fields = {"p", "m", "n", "roots"}
    if not all(isinstance(e, dict) and fields <= set(e) for e in entries):
        raise ValueError("each certificate entry needs p, m, n and roots")
    return FormCertificate(
        json_to_form(obj["form"]),
        tuple(_int(p) for p in _list(obj["S"], "S")),
        tuple(
            PrimeEntry(
                _int(e["p"]),
                _int(e["m"]),
                _int(e["n"]),
                tuple(_int(i) for i in _list(e["roots"], "entry roots")),
            )
            for e in entries
        ),
    )


def reduction_report_to_json(rep: ReductionReport) -> Dict[str, Any]:
    return {
        "p": rep.prime,
        "kind": rep.kind,
        "components": [
            {"coeffs": list(c.coeffs), "genus": c.genus} for c in rep.components
        ],
    }


def candidate_set_to_json(cs: CandidateSet) -> Dict[str, Any]:
    return {"genus": cs.genus, "curves": [curve_to_json(c) for c in cs.curves]}


def json_to_candidate_set(obj: Dict[str, Any]) -> CandidateSet:
    if not isinstance(obj, dict) or "genus" not in obj or "curves" not in obj:
        raise ValueError("candidate set encoding needs 'genus' and 'curves'")
    return CandidateSet(
        _int(obj["genus"]),
        tuple(json_to_curve(c) for c in _list(obj["curves"], "candidate curves")),
    )


def points_to_json(detailed: List[tuple]) -> Dict[str, Any]:
    return {
        "points": [point_to_json(pt) for pt, _ in detailed],
        "provenance": [
            {"point": point_to_json(pt), "via": via} for pt, via in detailed
        ],
    }


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
