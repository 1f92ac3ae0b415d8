"""Record the reference outputs that round 0 of seed 0 is checked against.

    python3 bench/record_reference.py

Writes ``bench/reference/seed0``: the four campaign CSVs, byte-exact
``lastfall --seed 0 verify ...`` output, and refuses to record unless every
row passes.  Run it only at a commit whose outputs are known to be right: the
benchmark trusts these files.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from lastfall import cli  # noqa: E402
from workloads import REFERENCE_DIR, FallCampaigns, LinearCampaigns  # noqa: E402


def main():
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for fn_name, csv_name, expected in FallCampaigns.campaigns + LinearCampaigns.campaigns:
        result = getattr(cli, fn_name)(seed=0)
        if len(result.rows) != expected or not result.ok:
            raise SystemExit(f"{fn_name}: not every row passes; nothing recorded")
        with open(os.path.join(REFERENCE_DIR, csv_name), "w") as fh:
            fh.write(cli.campaign_csv(result))
        print(f"{csv_name}: {expected} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
