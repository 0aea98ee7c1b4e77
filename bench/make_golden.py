"""Store the outputs of this checkout's library as ``golden/<workload>.json``.

    python3 bench/make_golden.py [WORKLOAD ...]

The stored files hold the outputs of the commit that defined the benchmark.
Writing them again moves the baseline the output check compares against, so
do it only together with a change to the benchmark itself.
"""

from __future__ import annotations

import json
import sys

from check import fitted_ratios
from run import GOLDEN, OUT, import_program, untraced_pass
from workloads import RATIOS, WORKLOADS


def dump(workload: str, records: dict, ratios: dict) -> str:
    """JSON with one record per line; floats keep every digit."""
    sweeps = ",\n".join(
        f"  {json.dumps(name)}: [\n"
        + ",\n".join("   " + json.dumps(r, sort_keys=True) for r in recs)
        + "\n  ]" for name, recs in records.items())
    return (f'{{"workload": {json.dumps(workload)},\n'
            f' "ratios": {json.dumps(ratios, sort_keys=True)},\n'
            f' "records": {{\n{sweeps}\n }}\n}}\n')


def main(names) -> None:
    import_program()
    from hpexp.harness import run_config
    OUT.mkdir(exist_ok=True)
    GOLDEN.mkdir(exist_ok=True)
    for workload in names or WORKLOADS:
        records, _, _ = untraced_pass(run_config, WORKLOADS[workload])
        ratios = fitted_ratios(records, RATIOS[workload])
        (GOLDEN / f"{workload}.json").write_text(dump(workload, records, ratios))
        print(workload, ratios)


if __name__ == "__main__":
    main(sys.argv[1:])
