#!/usr/bin/env python3
"""Regenerate ``reference_energies.json`` from the solver in ``src/``.

The file holds the certified bound-state energies of the default seed for
the first passes of the two bound-state workloads; a benchmark run with
that seed fails any item whose energies moved by more than ``REF_TOL``.
Regenerate it only on purpose, when a change is meant to move energies:

    python3 benchmarks/make_reference.py
"""

import json
import sys

import run

PASSES = {"bound_survey_k0": 12, "bound_kband": 2}


def energies(name, value):
    if name == "bound_survey_k0":
        return [e for _, es, _ in value for e in es]
    return list(value)


def main() -> int:
    wl_mod = run.import_solver()
    table = {}
    for name, passes in PASSES.items():
        wl = wl_mod.WORKLOADS[name]()
        rec = wl_mod.Recorder()
        for p in range(passes):
            for task in wl.tasks(wl_mod.DEFAULT_SEED, p):
                wl.run_task(rec, task)
        for it in rec.items:
            table[it.key] = energies(name, it.value) if it.ok else None
    doc = {"seed": wl_mod.DEFAULT_SEED, "passes": PASSES,
           "tolerance": wl_mod.REF_TOL, "energies": table}
    wl_mod.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(table)} entries to {wl_mod.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
