"""One benchmark set-up, run in a fresh interpreter: import the package,
write the pipeline config and run ``nic generate-data`` on it.

Usage: python bench/setup_stage.py <config-json> <dataset-dir>
(``src`` must be on PYTHONPATH; bench/run.py arranges that.)
"""

import json
import sys
from pathlib import Path

import yaml

from nic.cli import main as nic_main


def main(argv) -> int:
    config, out = json.loads(argv[0]), Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False))
    return nic_main(["generate-data", "--config", str(path), "--out", str(out)])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
