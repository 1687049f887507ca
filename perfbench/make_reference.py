"""Regenerate perfbench/reference.json: the error functionals of every level
of every workload, which each benchmark run checks its levels against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Only rerun this when a change is meant to alter the computed errors, and say
why in the change that commits the new file.
"""

import json

import pdwg

import workloads


def main():
    rows = {}
    for workload in workloads.WORKLOADS:
        for case_id, k, ladder in workloads.studies(workload, seed=0):
            report = pdwg.run_study(case_id, ladder, k=k)
            for level in report.levels:
                if level.failed:
                    raise SystemExit(f"{case_id} k={k} n={level.n} failed: {level.message}")
                row = {"case": case_id, "k": k, "n": level.n}
                row.update((c, getattr(level.report, c)) for c in workloads.COLUMNS)
                rows[case_id, k, level.n] = row
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump([rows[key] for key in sorted(rows)], fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} levels to {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
