#!/usr/bin/env python3
"""Calibrate all three models to each dated Lehman CDS strip.

Writes one calibration report per quote date, calibration_<preset>.json in
the current directory (the script passes --out, so $FPCREDIT_OUT_DIR does
not apply), and prints the pillar survival comparison tables.  Extra arguments are passed to every
`calibrate` call, e.g. --convention exact.
"""

import sys

from fpcredit.cli import main

PRESETS = ("lehman-2007-07-10", "lehman-2008-06-12", "lehman-2008-09-12")


def run() -> int:
    worst = 0
    for preset in PRESETS:
        print(f"=== {preset} ===")
        code = main(["calibrate", "--preset", preset, "--model", "all",
                     "--out", f"calibration_{preset}.json"] + sys.argv[1:])
        worst = max(worst, code)
        print()
    return worst


if __name__ == "__main__":
    sys.exit(run())
