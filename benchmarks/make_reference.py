"""Write reference.json: the values the correctness gate compares against.

  python3 benchmarks/make_reference.py

Runs each workload's config at a high trial count and with a seed of its own
(the fig4 and fig5 presets as shipped, and the SCMA link sweep at 20 000
vectors) and stores the CSVs. Takes about four minutes on a 2-CPU Xeon.
Regenerate only when the simulated model itself changes, and say why.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from sweep import LINK_SCMA, ROOT, SRC

OUT = Path(__file__).with_name("reference.json")


def main() -> int:
    sys.path.insert(0, str(SRC))
    from unoma.config import preset_config, validate_config
    from unoma.engine import run_experiment

    configs = [preset_config("fig4"), preset_config("fig5"),
               validate_config(dict(LINK_SCMA, seed=20180123, trials=20000))]
    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as out:
        for config in configs:
            csv_path, _, _ = run_experiment(config, out, workers=os.cpu_count())
            reference[config.kind] = {"config": config.name, "seed": config.seed,
                                      "trials": config.trials,
                                      "csv": csv_path.read_text()}
            print(f"{config.name}: {config.trials} trials per point", flush=True)
    OUT.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
