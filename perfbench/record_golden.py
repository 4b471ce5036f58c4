"""Record golden.json: the SHA-256 of every op output whose inputs do not
depend on the seed, after checking the properties the recorded bytes must
have.

    python3 perfbench/record_golden.py

Covers every prym-g2 cell, every recover-g2 model and every prym-sweep
candidate prime, so each seed's ops can be checked.  Rerun it only when a
change to the package alters these outputs on purpose, and say so in the
change.  Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run._import_package()
    import workloads

    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = run.OUT_DIR  # none of these three workloads writes files
    g2 = workloads.PrymG2(0, workdir, {})
    g2.setup()
    outputs = {g2: {key: g2.run_op(key) for key in range(len(g2.certs))}}
    for key, docs in outputs[g2].items():
        orders = json.loads(docs[0])["orders"]
        g2.golden[str(key)] = {
            "sha256": workloads.digest(docs),
            "equal_orders": orders["X_twist1"] == orders["X_twistns"],
        }
    sweep = workloads.PrymSweep(0, workdir, {})
    sweep.build_inputs()
    rec = workloads.RecoverG2(0, workdir, {})
    rec.build_inputs()
    for wl, keys in ((sweep, sweep.candidates), (rec, range(len(rec.models)))):
        outputs[wl] = {key: wl.run_op(key) for key in keys}
        wl.golden.update({str(k): workloads.digest(d) for k, d in outputs[wl].items()})

    problems = []
    for wl, out in outputs.items():
        problems += [line for k, d in out.items() for line in wl.check_op(k, d)]
        problems += wl.final_check(out)
    if problems:
        for line in problems:
            print("CHECK FAILED: %s" % line)
        return 1
    golden = {wl.name: wl.golden for wl in outputs}
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % workloads.GOLDEN_PATH)
    return 0

if __name__ == "__main__":
    sys.exit(main())
