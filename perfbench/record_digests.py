"""Record the default seed's per-op output digests in digests.json.

Every run at the default seed compares each op's canonical output with this
file, so any change to an output shows up as failed ops. Re-record only
after a deliberate output change, from the root of a checkout:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    if not run.prepare():
        return 2
    import workloads

    entries = {}
    for name in run.WORKLOADS:
        wl = workloads.build(name, run.DEFAULT_SEED, run.ROOT)
        outcome = run.Outcome()
        run.run_pass(wl, outcome, None)
        if outcome.failed:
            sys.stderr.write("\n".join(outcome.failures) + "\n")
            sys.stderr.write(f"error: {name} has failed ops; nothing recorded\n")
            return 1
        entries[name] = {
            "ops": len(wl.ops),
            "pass_digest": run.pass_digest(outcome.digests),
            "op_digests": outcome.digests,
        }
        print(f"{name}: {len(wl.ops)} ops, pass digest {entries[name]['pass_digest']}")
    payload = {"seed": run.DEFAULT_SEED, "workloads": entries}
    run.DIGESTS.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
