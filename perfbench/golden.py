"""Record the golden outputs that the benchmark checks against.

    python3 perfbench/golden.py      # rewrites perfbench/golden.json

The file holds, per workload: the verify reports without ``elapsed_ms``;
the identity-basis digests with ``dim_id`` taken from ``verify_conjecture``;
the normal-form JSON digests and the ``check`` verdicts of the default
seed, keyed by a digest of the expression text.  Regenerate it only when
an output is meant to change.
"""

import json

import run
import workloads as W


def record():
    run.import_weylpi()
    golden = {}
    wl = W.Workload("verify-d6")
    golden["verify-d6"] = {job.key: wl.op(job) for job in W.make_jobs("verify-d6", W.DEFAULT_SEED)}
    wl = W.Workload("crosscheck-d5")
    entries = {}
    for job in W.make_jobs("crosscheck-d5", W.DEFAULT_SEED):
        out = wl.op(job)
        delta = tuple(int(d) for d in job.key.split(","))
        dim_id = wl.api.verify_conjecture(delta, wl.field).dim_id
        entries[job.key] = {"digest": out["digest"], "dim_id": dim_id}
    golden["crosscheck-d5"] = entries
    wl = W.Workload("normalize-d7")
    golden["normalize-d7"] = {
        W.digest(job.key): W.digest(wl.op(job)[2])
        for job in W.make_jobs("normalize-d7", W.DEFAULT_SEED)
    }
    wl = W.Workload("check-d5")
    golden["check-d5"] = {
        W.digest(job.key): wl.op(job) for job in W.make_jobs("check-d5", W.DEFAULT_SEED)
    }
    return golden


if __name__ == "__main__":
    run.GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
