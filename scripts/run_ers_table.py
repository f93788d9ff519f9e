#!/usr/bin/env python3
"""Fair equity-return-swap spread vs correlation, all three credit models.

Reproduces the counterparty-risk study table: the models are calibrated to
the 2009-09-16 bid/ask strip, then the fair ERS spread is computed at
rho in {-1, -0.2, 0, 0.5, 1} with 10^5 paths at the default seed.  The
intensity model is correlation-blind and serves as the independence
anchor.  Takes a few seconds; pass e.g. --paths 1000000 for tighter errors.
"""

import sys

from fpcredit.cli import main

if __name__ == "__main__":
    sys.exit(main(["price-ers", "--preset", "ers-paper-2009-09-16",
                   "--models", "at1p,sbtv,intensity",
                   "--rho=-1,-0.2,0,0.5,1",
                   "--out", "ers_table.json"] + sys.argv[1:]))
