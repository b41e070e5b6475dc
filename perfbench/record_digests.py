"""Record the payload digest of every fixed figure point the benchmark runs.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/record_digests.py

It rewrites ``perfbench/digests.json``.  The benchmark then requires
every fixed point, computed or served, to match these digests exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runner.service import run_experiments  # noqa: E402

from measure import BENCH_DIR, digest  # noqa: E402

#: Every experiment a workload regenerates or serves from its hot set.
EXPERIMENTS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
               "table4", "fig_faults")


def main() -> int:
    report = run_experiments(EXPERIMENTS, quick=True, jobs=2,
                             use_cache=False)
    failed = [o.job.job_id for o in report.outcomes if not o.ok]
    failed += [f"{exp}: {name}" for exp, result in report.results.items()
               for name, ok in result.checks.items() if not ok]
    if failed or report.errors:
        print(f"refusing to record: {failed or report.errors}",
              file=sys.stderr)
        return 1
    digests = {o.job.job_id: digest(o.payload) for o in report.outcomes}
    with open(BENCH_DIR / "digests.json", "w", encoding="utf-8") as fh:
        json.dump({"quick": True, "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} point digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
