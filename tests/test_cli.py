import json
from fractions import Fraction as F

import pytest

from prymcover import jsonio
from prymcover.cli import main
from prymcover.covers import beta_tuples, curve_through_betas, prym_curve_equation
from prymcover.curves import CurvePoint, make_curve
from prymcover.finitefield import _FIELD_CACHE
from prymcover.points import CandidateSet

E1_JSON = {"lead": "1", "roots": ["-1/3", "9/8", "25/24"]}
G2_JSON = {"lead": "1", "roots": ["-1/3", "9/8", "25/24", "4/3", "49/48"]}
FIVE_ROOT_JSON = {"lead": "1", "roots": ["0", "1", "2", "3", "4"]}
CERT_JSON = {
    "S": [2, 3, 5, 11, 19, 29],
    "entries": [{"m": 1, "n": 3, "p": 7, "roots": [1, 2, 3]}],
    "form": {
        "degree": 6,
        "factors": [
            ["0", "1"], ["-5", "392"], ["1", "-49"],
            ["-1", "98"], ["-1", "79"], ["-1", "78"],
        ],
        "lambda": "1",
    },
}
NO_M_JSON = dict(CERT_JSON, entries=[{"n": 3, "p": 7, "roots": [1, 2, 3]}])


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(E1_JSON))
    return str(path)


@pytest.fixture
def g2_file(tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(json.dumps(G2_JSON))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestCovers:
    def test_e1_emits_four_verified_certificates(self, capsys, e1_file):
        code, out = _run(capsys, [
            "covers", e1_file, "--p", "1,1/12", "--q", "0,5/8",
        ])
        assert code == 0
        assert len(out["certificates"]) == 4
        for cert in out["certificates"]:
            assert set(cert["status"].values()) == {"verified"}

    def test_weierstrass_point_exits_2(self, capsys, e1_file):
        # values starting with a dash must use the --flag=value form
        code, _ = _run(capsys, [
            "covers", e1_file, "--p=-1/3,0", "--q", "0,5/8",
        ])
        assert code == 2

    def test_out_file(self, tmp_path, capsys, e1_file):
        out_path = tmp_path / "covers.json"
        code, _ = _run(capsys, [
            "covers", e1_file, "--p", "1,1/12", "--q", "0,5/8",
            "--out", str(out_path),
        ])
        assert code == 0
        assert json.loads(out_path.read_text())["curve"] == E1_JSON


class TestPrymCheck:
    def test_explicit_prime(self, capsys, e1_file):
        code, out = _run(capsys, [
            "prym-check", e1_file, "--p", "1,1/12", "--q", "0,5/8",
            "--primes", "13",
        ])
        assert code == 0
        assert len(out["cells"]) == 4
        for cell in out["cells"]:
            assert cell["report"]["matched_twist"] in ("1", "ns")

    def test_bad_prime_cell_skipped(self, capsys, e1_file):
        # 3 divides a root denominator, so reduction is impossible there
        code, out = _run(capsys, [
            "prym-check", e1_file, "--p", "1,1/12", "--q", "0,5/8",
            "--primes", "3,13",
        ])
        assert code == 0
        by_p = {}
        for cell in out["cells"]:
            by_p.setdefault(cell["p"], []).append(cell)
        assert all("skipped" in c for c in by_p[3])
        assert all("report" in c for c in by_p[13])

    def test_two_primes_emit_tuple_major(self, capsys, e1_file):
        # The cells run prime-major, so that only the last prime's fields
        # stay cached, and are emitted tuple-major.
        code, out = _run(capsys, [
            "prym-check", e1_file, "--p", "1,1/12", "--q", "0,5/8",
            "--primes", "17,13",
        ])
        assert code == 0
        assert [(c["tuple"], c["p"]) for c in out["cells"]] == [
            (i, p) for i in range(4) for p in (17, 13)
        ]
        assert {key[0] for key in _FIELD_CACHE} == {13}

    def test_even_prime_exits_2(self, capsys, e1_file):
        code, _ = _run(capsys, [
            "prym-check", e1_file, "--p", "1,1/12", "--q", "0,5/8",
            "--primes", "2",
        ])
        assert code == 2

    def test_field_too_large_exits_2(self, capsys, g2_file):
        # F_{1031^2} has more than 2^20 elements: refused before any cell
        code = main([
            "prym-check", g2_file, "--p=1,1/144", "--q=0,35/48",
            "--primes", "17,1031",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "F_1031^2 has 1062961 elements" in captured.err

    def test_budget_autopick(self, capsys, e1_file):
        code, out = _run(capsys, [
            "prym-check", e1_file, "--p", "1,1/12", "--q", "0,5/8",
            "--prime-budget", "31",
        ])
        assert code == 0
        primes = {cell["p"] for cell in out["cells"]}
        assert len(primes) == 1
        assert primes.pop() == 13


class TestCertify:
    def test_rational_instance(self, capsys, tmp_path):
        betas = [F(7), F(14), F(21)]
        prod = F(1)
        for b in betas:
            prod *= 1 - b * b
        curve, p_pt, q_pt = curve_through_betas(betas, x_p=F(1, 49) * prod)
        path = tmp_path / "c.json"
        path.write_text(jsonio.dumps(jsonio.curve_to_json(curve)))
        code, out = _run(capsys, [
            "certify", str(path),
            "--p=%s,%s" % (p_pt.x, p_pt.y),
            "--q=%s,%s" % (q_pt.x, q_pt.y),
        ])
        assert code == 0
        assert out["entries"] == []
        assert 13 in out["S"]

    def test_irrational_instance_exits_2(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(jsonio.dumps({"lead": "1", "roots": ["0", "-3", "-8"]}))
        code, _ = _run(capsys, [
            "certify", str(path), "--p", "12,60", "--q", "1,6",
        ])
        assert code == 2


class TestCheckBprime:
    def test_unit_disc_form_accepted(self, capsys, tmp_path):
        form = {
            "degree": 4,
            "lambda": "1",
            "factors": [["1", "1"], ["7", "1"], ["1", "2"], ["1", "3"]],
        }
        path = tmp_path / "f.json"
        path.write_text(json.dumps(form))
        code, out = _run(capsys, [
            "check-bprime", str(path), "--s-primes", "2,3,5,7,11,13",
        ])
        assert code == 0
        assert out["accepted"] is True
        assert out["entries"] == []

    def test_rejection_is_a_value(self, capsys, tmp_path):
        form = {
            "degree": 4,
            "lambda": "1",
            "factors": [["1", "0"], ["1", "1"], ["1", "2"], ["1", "9"]],
        }
        path = tmp_path / "f.json"
        path.write_text(json.dumps(form))
        code, out = _run(capsys, ["check-bprime", str(path), "--s-primes", "2,3"])
        assert code == 0
        assert out["accepted"] is False
        assert "prime" in out["reason"]

    def test_certificate_file_rechecks_idempotently(self, capsys, tmp_path):
        betas = [F(6), F(3, 4), F(4, 3), F(9, 2), F(8)]
        prod = F(1)
        for b in betas:
            prod *= 1 - b * b
        curve, p_pt, q_pt = curve_through_betas(betas, x_p=F(1, 49) ** 2 * prod)
        cert_path = tmp_path / "cert.json"
        code, _ = _run(capsys, [
            "certify", str(_write_curve(tmp_path, curve)),
            "--p=%s,%s" % (p_pt.x, p_pt.y),
            "--q=%s,%s" % (q_pt.x, q_pt.y),
            "--out", str(cert_path),
        ])
        assert code == 0
        code, out = _run(capsys, ["check-bprime", str(cert_path)])
        assert code == 0
        assert out["accepted"] is True
        reloaded = json.loads(cert_path.read_text())
        assert out["entries"] == reloaded["entries"]
        assert out["S"] == reloaded["S"]


def _write_curve(tmp_path, curve, name="curve.json"):
    path = tmp_path / name
    path.write_text(jsonio.dumps(jsonio.curve_to_json(curve)))
    return path


class TestClassifyReduction:
    @pytest.fixture
    def cert_file(self, capsys, tmp_path):
        betas = [F(6), F(3, 4), F(4, 3), F(9, 2), F(8)]
        prod = F(1)
        for b in betas:
            prod *= 1 - b * b
        curve, p_pt, q_pt = curve_through_betas(betas, x_p=F(1, 49) ** 2 * prod)
        cert_path = tmp_path / "cert.json"
        assert main([
            "certify", str(_write_curve(tmp_path, curve)),
            "--p=%s,%s" % (p_pt.x, p_pt.y),
            "--q=%s,%s" % (q_pt.x, q_pt.y),
            "--out", str(cert_path),
        ]) == 0
        capsys.readouterr()
        return str(cert_path)

    def test_split_product_at_special_prime(self, capsys, cert_file):
        code, out = _run(capsys, [
            "classify-reduction", cert_file, "--prime", "7",
        ])
        assert code == 0
        assert out["kind"] == "split-product"
        assert sorted(c["genus"] for c in out["components"]) == [1, 1]

    def test_good_prime_irreducible(self, capsys, cert_file):
        code, out = _run(capsys, [
            "classify-reduction", cert_file, "--prime", "13",
        ])
        assert code == 0
        assert out["kind"] == "good-irreducible"
        assert out["components"] == []

    def test_prime_in_s_exits_2(self, capsys, cert_file):
        code, _ = _run(capsys, [
            "classify-reduction", cert_file, "--prime", "3",
        ])
        assert code == 2


class TestPoints:
    def test_five_root_box(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(FIVE_ROOT_JSON))
        code, out = _run(capsys, [
            "points", str(path), "--num", "0,1", "--den", "1",
            "--height-bound", "50",
        ])
        assert code == 0
        assert out["points"] == [
            {"x": "0", "y": "0"},
            {"x": "1", "y": "0"},
            {"x": "2", "y": "0"},
            {"x": "3", "y": "0"},
            {"x": "4", "y": "0"},
        ]
        assert all(p["via"] == "height search" for p in out["provenance"])


class TestRecover:
    def test_g2_scenario(self, capsys, tmp_path, g2_file):
        curve = make_curve([F(r.numerator, r.denominator) for r in
                            map(F, G2_JSON["roots"])])
        tups = beta_tuples(
            curve, CurvePoint.affine(1, F(1, 144)), CurvePoint.affine(0, F(35, 48))
        )
        cands = CandidateSet(2, (prym_curve_equation(tups[0]),))
        cand_path = tmp_path / "cands.json"
        cand_path.write_text(jsonio.dumps(jsonio.candidate_set_to_json(cands)))
        code, out = _run(capsys, [
            "recover", g2_file, str(cand_path), "--num", "1", "--den", "0,1",
        ])
        assert code == 0
        assert {"x": "1", "y": "1/144"} in out["points"]
        assert {"x": "1", "y": "-1/144"} in out["points"]


class TestComputeT:
    def test_g2_support(self, capsys, g2_file):
        code, out = _run(capsys, ["compute-t", g2_file, "--num", "1", "--den", "0,1"])
        assert code == 0
        primes = out["primes"]
        assert primes == sorted(primes)
        assert 2 in primes and 3 in primes

    def test_composite_s_prime_exits_2(self, capsys, g2_file):
        code, _ = _run(capsys, [
            "compute-t", g2_file, "--num", "1", "--den", "0,1",
            "--s-primes", "6",
        ])
        assert code == 2


class TestPlumbing:
    def test_missing_file_exits_2(self, capsys):
        code, _ = _run(capsys, [
            "covers", "/nonexistent.json", "--p", "1,1", "--q", "0,1",
        ])
        assert code == 2

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = _run(capsys, [
            "covers", str(path), "--p", "1,1", "--q", "0,1",
        ])
        assert code == 2

    @pytest.mark.parametrize("command, payload", [
        ("covers", {"lead": "1", "roots": 5}),
        ("covers", {"lead": "1", "roots": ["0", "1", {"gens": [2], "coords": []}]}),
        ("check-bprime", NO_M_JSON),
        ("check-bprime", dict(CERT_JSON, S=2)),
        ("check-bprime", dict(CERT_JSON, S=[2.5, 3])),
        ("classify-reduction", NO_M_JSON),
        ("classify-reduction", dict(CERT_JSON, S=2)),
    ], ids=["roots-int", "coords-list", "bprime-no-m", "bprime-s-int",
            "bprime-s-float", "classify-no-m", "classify-s-int"])
    def test_misshapen_json_exits_2(self, capsys, tmp_path, command, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        extra = {
            "covers": ["--p", "1,1", "--q", "0,1"],
            "check-bprime": [],
            "classify-reduction": ["--prime", "13"],
        }[command]
        assert main([command, str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("command", ["points", "recover", "compute-t"])
    @pytest.mark.parametrize("den", ["0", "0,0"])
    def test_zero_denominator_exits_2(self, capsys, tmp_path, g2_file, command, den):
        cand_path = tmp_path / "cands.json"
        cand_path.write_text(
            jsonio.dumps(jsonio.candidate_set_to_json(CandidateSet(2, ())))
        )
        extra = [str(cand_path)] if command == "recover" else []
        argv = [command, g2_file, *extra, "--num", "1", "--den", den]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_determinism_byte_identical(self, tmp_path, capsys, e1_file):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert main([
                "covers", e1_file, "--p", "1,1/12", "--q", "0,5/8",
                "--out", str(out),
            ]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
