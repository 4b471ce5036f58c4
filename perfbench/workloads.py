"""The four benchmark workloads.

Each workload builds its inputs from a seed through the public prymcover API,
warms what a command-line user pays for once per invocation, runs one op at a
time and checks every output.  Ops call the package through module attributes
(``zeta.prym_product_check``, never a name imported into this file), so the
wrappers that the traced run installs on those attributes see every call.

An op returns the list of JSON documents it produced, as bytes.  Their SHA-256
digest is compared against ``golden.json`` (recorded by ``record_golden.py``)
wherever the inputs are fixed, and every op is also checked for properties
that must hold whatever the inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction as F
from typing import Dict, List, Optional, Sequence

from prymcover import (
    cli,
    covers,
    curves,
    finitefield,
    jsonio,
    points,
    polys,
    scalars,
    zeta,
)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# The two instances pinned by the acceptance tests.
E1_ROOTS = (F(-1, 3), F(9, 8), F(25, 24))
E1_P = (F(1), F(1, 12))
E1_Q = (F(0), F(5, 8))
G2_ROOTS = (F(-1, 3), F(9, 8), F(25, 24), F(4, 3), F(49, 48))
G2_P = (F(1), F(1, 144))
G2_Q = (F(0), F(35, 48))

G2_PRIME = 17
G2_DEGENERATE_CELLS = 10
SWEEP_PRIME_LIMIT = 160
SWEEP_STRATUM = 4  # consecutive good primes per stratum
SWEEP_PER_STRATUM = 3  # primes the seed keeps from each stratum


def digest(docs: Sequence[bytes]) -> str:
    return hashlib.sha256(b"".join(docs)).hexdigest()


def _json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _instance(roots, p, q):
    curve = curves.make_curve(list(roots))
    return curve, curves.CurvePoint.affine(*p), curves.CurvePoint.affine(*q)


class Workload:
    """One op sequence over seeded inputs.

    ``keys`` lists the op inputs in the seeded order.  A cycling workload
    repeats that order until the time is up; the others run it once.  With
    ``whole_pass`` the first pass always runs to its end, so that every run
    measures each input at least once: set where ops differ in cost.
    ``trace_ops`` is how many ops the traced run makes (None: the list
    once), a fixed number so that its counts repeat exactly for a seed.
    ``golden`` maps an op key, as a string, to what ``golden.json`` recorded
    for it.
    """

    name = ""
    cycle = True
    whole_pass = False
    trace_ops: Optional[int] = None

    def __init__(self, seed: int, workdir: str, golden: Dict[str, object]):
        self.seed = seed
        self.workdir = workdir
        self.golden = golden
        self.rng = random.Random("%s/%d" % (self.name, seed))
        self.keys: List[object] = []

    def build_inputs(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Work a user pays once per invocation; none by default."""

    def setup(self) -> None:
        self.build_inputs()
        self.warm_up()

    def input_digest(self) -> str:
        raise NotImplementedError

    def run_op(self, key) -> List[bytes]:
        raise NotImplementedError

    def check_op(self, key, docs: List[bytes]) -> List[str]:
        raise NotImplementedError

    def final_check(self, done: Dict[object, List[bytes]]) -> List[str]:
        """Checks over every distinct op of the run; none by default."""
        return []


class PrymG2(Workload):
    """G2, all 16 covers at p = 17; one op is one Prym product-check cell."""

    name = "prym-g2"
    trace_ops = 4

    def build_inputs(self) -> None:
        self.curve, p_pt, q_pt = _instance(G2_ROOTS, G2_P, G2_Q)
        tuples = covers.beta_tuples(self.curve, p_pt, q_pt)
        self.certs = [covers.reconstruct_h_f(t) for t in tuples]
        self.keys = list(range(len(self.certs)))
        self.rng.shuffle(self.keys)

    def warm_up(self) -> None:
        # The fields F_{17^k}, their character and square-root tables, and the
        # base curve's values over each field: the first cell of a prym-check
        # invocation builds these and every later cell reuses them.
        base = zeta.reduce_curve(self.curve, G2_PRIME)
        for deg in range(1, 2 * self.curve.genus + 1):
            field = finitefield.get_field(G2_PRIME, deg)
            field.chi_table()
            field.sqrt_table()
            field.element_list()
            zeta.count_points(base, deg)

    def input_digest(self) -> str:
        return _json_digest(
            {
                "order": self.keys,
                "prime": G2_PRIME,
                "covers": [jsonio.cover_certificate_to_json(c) for c in self.certs],
            }
        )

    def run_op(self, key) -> List[bytes]:
        rep = zeta.prym_product_check(self.certs[key], G2_PRIME)
        return [jsonio.dumps(jsonio.prym_report_to_json(rep)).encode()]

    def check_op(self, key, docs: List[bytes]) -> List[str]:
        want = self.golden.get(str(key), {})
        out = []
        if digest(docs) != want.get("sha256"):
            out.append("cell %d: report differs from the recorded bytes" % key)
        rep = json.loads(docs[0])
        if not rep["matched_twists"]:
            out.append("cell %d: no twist matched" % key)
        equal = rep["orders"]["X_twist1"] == rep["orders"]["X_twistns"]
        if equal != want.get("equal_orders"):
            out.append("cell %d: equal-order flag changed" % key)
        return out

    def final_check(self, done: Dict[object, List[bytes]]) -> List[str]:
        flagged = sum(1 for v in self.golden.values() if v["equal_orders"])
        if flagged != G2_DEGENERATE_CELLS:
            return ["recorded %d equal-order cells, expected %d" % (flagged, G2_DEGENERATE_CELLS)]
        return []


class PrymSweep(Workload):
    """E1, all 4 covers; one op runs the 4 cells at one prime.

    Every field is first built inside its op.  The seed keeps three primes
    from each run of four consecutive good primes, so that every seed's
    sample spreads over the same range of field sizes.  The list runs once:
    a second pass would find its fields already built.
    """

    name = "prym-sweep"
    cycle = False
    whole_pass = True
    trace_ops = None  # the whole sample

    def build_inputs(self) -> None:
        self.curve, p_pt, q_pt = _instance(E1_ROOTS, E1_P, E1_Q)
        tuples = covers.beta_tuples(self.curve, p_pt, q_pt)
        self.certs = [covers.reconstruct_h_f(t) for t in tuples]
        self.candidates = [
            p
            for p in range(3, SWEEP_PRIME_LIMIT, 2)
            if scalars.is_prime(p)
            and not any(zeta.prym_check_obstruction(c, p) for c in self.certs)
        ]
        keys: List[int] = []
        for at in range(0, len(self.candidates), SWEEP_STRATUM):
            stratum = self.candidates[at : at + SWEEP_STRATUM]
            keep = min(SWEEP_PER_STRATUM, len(stratum))
            keys.extend(self.rng.sample(stratum, keep))
        self.rng.shuffle(keys)
        self.keys = keys

    def input_digest(self) -> str:
        return _json_digest(
            {
                "primes": self.keys,
                "covers": [jsonio.cover_certificate_to_json(c) for c in self.certs],
            }
        )

    def run_op(self, key) -> List[bytes]:
        reps = [zeta.prym_product_check(c, key) for c in self.certs]
        return [jsonio.dumps([jsonio.prym_report_to_json(r) for r in reps]).encode()]

    def check_op(self, key, docs: List[bytes]) -> List[str]:
        out = []
        if digest(docs) != self.golden.get(str(key)):
            out.append("p=%d: reports differ from the recorded bytes" % key)
        for k, rep in enumerate(json.loads(docs[0])):
            if not rep["matched_twists"]:
                out.append("p=%d cover %d: no twist matched" % (key, k))
        return out


class RecoverG2(Workload):
    """G2 with f = 1/x and S empty; one op recovers points from one of the
    16 Prym candidate models, as ``prymcover recover`` does on a one-model
    file."""

    name = "recover-g2"
    whole_pass = True  # ops take 0.4-1.4 s, depending on the model
    trace_ops = 16

    def build_inputs(self) -> None:
        self.curve, p_pt, self.pole = _instance(G2_ROOTS, G2_P, G2_Q)
        self.func = polys.RatFunc(polys.Poly.constant(F(1)), polys.Poly.x())
        self.spec = points.IntegralitySpec(self.func, (), 100)
        tuples = covers.beta_tuples(self.curve, p_pt, self.pole)
        self.models = [covers.prym_curve_equation(t) for t in tuples]
        self.keys = list(range(len(self.models)))
        self.rng.shuffle(self.keys)

    def input_digest(self) -> str:
        return _json_digest(
            {
                "order": self.keys,
                "models": [jsonio.curve_to_json(m) for m in self.models],
            }
        )

    def run_op(self, key) -> List[bytes]:
        cands = points.CandidateSet(2, (self.models[key],))
        detail = points.recover_points_detailed(self.curve, self.spec, cands)
        return [jsonio.dumps(jsonio.points_to_json(detail)).encode()]

    def _points(self, docs: List[bytes]):
        return [jsonio.json_to_point(p) for p in json.loads(docs[0])["points"]]

    def check_op(self, key, docs: List[bytes]) -> List[str]:
        out = []
        if digest(docs) != self.golden.get(str(key)):
            out.append("model %d: points or provenance differ from the recorded bytes" % key)
        for pt in self._points(docs):
            if pt.at_infinity:
                ok = F(self.func.value_at_infinity()).denominator == 1
            else:
                ok = (
                    curves.is_on_curve(self.curve, pt)
                    and not self.func.is_pole(pt.x)
                    and F(self.func.value_at(pt.x)).denominator == 1
                )
            if not ok:
                out.append("model %d: %r is off the curve or not integral" % (key, pt))
        return out

    def final_check(self, done: Dict[object, List[bytes]]) -> List[str]:
        """The union over all 16 models covers the height-100 search hits
        outside the exceptional set; checked when the run reached every
        model."""
        if len(done) < len(self.models):
            return []
        found = set()
        for docs in done.values():
            found.update((p.x, p.y) for p in self._points(docs) if not p.at_infinity)
        exc = {(p.x, p.y) for p in points.exceptional_points(self.curve, self.pole)}
        return [
            "missed (%s, %s)" % (p.x, p.y)
            for p in points.brute_force_points(self.curve, self.spec)
            if (p.x, p.y) not in exc and (p.x, p.y) not in found
        ]


def _special_betas(rng: random.Random, genus: int) -> tuple:
    """Betas congruent to -1 (n of them, n odd) or +1 modulo a small prime
    ell, with squares distinct modulo ell^2, so that ell can become a
    special prime once x_P - x_Q is displaced by ell^(-2g)."""
    ell = rng.choice((7, 11)) if genus == 2 else 11
    n = rng.choice(range(3, 2 * genus, 2))
    betas: List[F] = []
    for sign in [-1] * n + [1] * (2 * genus + 1 - n):
        while True:
            b = F(sign + ell * rng.randint(1, 4) * rng.choice((1, -1)))
            if all((b * b - c * c) % (ell * ell) != 0 for c in betas):
                break
        betas.append(b)
    return tuple(betas), F(1, ell ** (2 * genus))


def _plain_betas(rng: random.Random, genus: int) -> tuple:
    betas: List[F] = []
    while len(betas) < 2 * genus + 1:
        b = F(rng.randint(2, 12) * rng.choice((1, -1)))
        if all(b * b != c * c for c in betas):
            betas.append(b)
    return tuple(betas), rng.choice((F(1), F(1, 49)))


def _displaced(betas, scale):
    """Instance through the betas with x_P - x_Q = scale * prod(1 - b^2)."""
    prod = F(1)
    for b in betas:
        prod *= 1 - b * b
    return covers.curve_through_betas(list(betas), x_p=scale * prod)


class CertifyCli(Workload):
    """Seeded genus 1-3 instances; one op runs ``certify``, ``check-bprime``
    and ``classify-reduction`` at each entry prime through ``cli.main``, with
    files in a scratch directory.

    The pool has a fixed make-up so that every seed weighs the same kinds of
    instance equally: 32 plain instances of each genus 1-3 and 48 of genus 2
    and of genus 3 built to carry a special prime.  It is large so that the
    mean op cost of one seed's pool is close to that of another's.
    """

    name = "certify-cli"
    trace_ops = 200
    PLAIN_PER_GENUS = 32
    SPECIAL_PER_GENUS = 48

    def build_inputs(self) -> None:
        kinds = [(False, g) for g in (1, 2, 3) for _ in range(self.PLAIN_PER_GENUS)]
        kinds += [(True, g) for g in (2, 3) for _ in range(self.SPECIAL_PER_GENUS)]
        self.pool = []
        for k, (special, genus) in enumerate(kinds):
            make = _special_betas if special else _plain_betas
            betas, scale = make(self.rng, genus)
            curve, p_pt, q_pt = _displaced(betas, scale)
            path = os.path.join(self.workdir, "curve-%d.json" % k)
            with open(path, "w") as fh:
                fh.write(jsonio.dumps(jsonio.curve_to_json(curve)))
            args = ["--p=%s,%s" % (p_pt.x, p_pt.y), "--q=%s,%s" % (q_pt.x, q_pt.y)]
            self.pool.append((path, args, curve.genus))
        self.keys = list(range(len(self.pool)))
        self.rng.shuffle(self.keys)
        self.ops_run = 0

    def warm_up(self) -> None:
        # One untimed op builds the per-process state a CLI invocation builds
        # once: the factorization sieve, argparse and json internals.
        self.run_op(self.keys[0])

    def input_digest(self) -> str:
        docs = []
        for path, args, _ in self.pool:
            with open(path) as fh:
                docs.append([fh.read(), args])
        return _json_digest({"order": self.keys, "instances": docs})

    def _main(self, argv: List[str]) -> None:
        rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError("prymcover %s exited %d" % (argv[0], rc))

    def run_op(self, key) -> List[bytes]:
        # Every op writes new files: rewriting the same file makes ext4 write
        # it back on every close (about 0.1 ms a file, against 0.03 ms for a
        # new one), which would put the shared disk's latency into the op.
        self.ops_run += 1
        stem = os.path.join(self.workdir, "op-%d-" % self.ops_run)
        cert_path, check_path = stem + "cert.json", stem + "check.json"
        path, args, _ = self.pool[key]
        self._main(["certify", path] + args + ["--out", cert_path])
        self._main(["check-bprime", cert_path, "--out", check_path])
        with open(cert_path, "rb") as fh:
            docs = [fh.read()]
        with open(check_path, "rb") as fh:
            docs.append(fh.read())
        for entry in json.loads(docs[0])["entries"]:
            out = "%sclassify-%d.json" % (stem, entry["p"])
            self._main(
                ["classify-reduction", cert_path, "--prime", str(entry["p"]), "--out", out]
            )
            with open(out, "rb") as fh:
                docs.append(fh.read())
        return docs

    def check_op(self, key, docs: List[bytes]) -> List[str]:
        genus = self.pool[key][2]
        cert = json.loads(docs[0])
        check = json.loads(docs[1])
        out = []
        if check.get("accepted") is not True or check["entries"] != cert["entries"]:
            out.append("instance %d: certificate does not re-pass check-bprime" % key)
        for entry, doc in zip(cert["entries"], docs[2:]):
            total = sum(c["genus"] for c in json.loads(doc)["components"])
            if total != genus:
                out.append(
                    "instance %d at p=%d: residue genera sum to %d, not %d"
                    % (key, entry["p"], total, genus)
                )
        return out


WORKLOADS = {w.name: w for w in (PrymG2, PrymSweep, RecoverG2, CertifyCli)}
