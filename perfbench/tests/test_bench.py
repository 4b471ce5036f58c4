"""Tests of the benchmark itself (not of prymcover).

    python3 -m pytest perfbench/tests -q

About a minute: the smoke runs make one or a few ops of each workload.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

workloads = run._import_package()
import tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _workload(name, seed, workdir):
    return workloads.WORKLOADS[name](seed, str(workdir), workloads.load_golden().get(name, {}))


def test_metric_names_and_counts():
    spec = _spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    assert len(e2e) == len(spec["end_to_end"]) and len(layer) == len(spec["per_layer"])
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    for name in list(e2e) + list(layer):
        assert NAME.match(name), name
    assert len(e2e) + len(layer) == len(set(e2e) | set(layer))  # names are unique
    assert {n: m["unit"] for n, m in e2e.items()} == run.E2E_UNITS
    assert {n: (m["unit"], m["better"]) for n, m in layer.items()} == tracer.METRICS
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    for name in run.WORKLOAD_NAMES:
        digests = []
        for seed in (1, 1, 2):
            wl = _workload(name, seed, tmp_path)
            wl.build_inputs()
            digests.append(wl.input_digest())
        assert digests[0] == digests[1], name
        if name in ("certify-cli", "prym-sweep"):
            assert digests[0] != digests[2], name


def test_tracer_restores_every_binding():
    import prymcover
    from prymcover import binforms, cli, finitefield, zeta

    tr = tracer.Tracer()
    originals = {
        "certify_form": binforms.certify_form,
        "get_field": finitefield.get_field,
        "mul": finitefield.FiniteField.mul,
    }
    tr.install()
    try:
        replaced = tr.installed()
        for ns, attr, original in replaced:
            assert getattr(ns, attr) is not original
        assert cli.certify_form is binforms.certify_form is not originals["certify_form"]
        assert zeta.get_field is finitefield.get_field is not originals["get_field"]
        assert prymcover.get_field is finitefield.get_field
    finally:
        tr.uninstall()
    assert replaced
    for ns, attr, original in replaced:
        assert getattr(ns, attr) is original, (ns, attr)
    assert cli.certify_form is originals["certify_form"]
    assert zeta.get_field is originals["get_field"]
    assert finitefield.FiniteField.mul is originals["mul"]


@pytest.mark.parametrize(
    "name,pick",
    [
        ("prym-g2", lambda wl: wl.keys[:1]),
        ("prym-sweep", lambda wl: sorted(wl.keys)[:2]),
        ("recover-g2", lambda wl: [10]),  # the cheapest model
        ("certify-cli", lambda wl: wl.keys),
    ],
)
def test_smoke_run_checks_every_output(tmp_path, name, pick):
    wl = _workload(name, 7, tmp_path)
    wl.setup()
    log = run.run_ops(wl, pick(wl))
    assert log.attempted >= 1
    assert log.failed == 0, log.problems
    assert wl.final_check(log.first_docs) == []


def test_check_flags_changed_bytes(tmp_path):
    wl = _workload("prym-sweep", 7, tmp_path)
    wl.build_inputs()
    p = min(wl.keys)
    docs = wl.run_op(p)
    assert wl.check_op(p, docs) == []
    assert wl.check_op(p, [docs[0].replace(b'"p"', b'"q"', 1)])


def test_traced_outputs_match_untraced(tmp_path):
    wl = _workload("certify-cli", 5, tmp_path)
    wl.setup()
    keys = wl.keys[:12]
    plain = run.run_ops(wl, keys)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = run.run_ops(wl, keys, tracer=tr)
    finally:
        tr.uninstall()
    assert traced.failed == 0 and traced.digests == plain.digests
    metrics = tr.layer_metrics(traced.attempted)
    assert set(metrics) == {n for n in tracer.METRICS if not n.startswith("trace.") or n == "trace.spans"}
    assert metrics["cli.main.self_s"] > 0
    assert metrics["binforms.certify_form.calls"] >= 2
    assert metrics["finitefield.mul.calls"] == metrics["finitefield.fields_built"] == 0
    assert metrics["layer.finitefield.self_s"] == 0


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_line(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-cli", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    want = run.E2E_UNITS if trace == 0 else {n: u for n, (u, _) in tracer.METRICS.items()}
    assert {n: m["unit"] for n, m in out["metrics"].items()} == want


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prym-g2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
