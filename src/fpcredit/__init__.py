"""Structural first-passage credit models: exact CDS calibration and
counterparty-risk pricing of equity return swaps.
"""

__version__ = "0.1.0"

from .calibration import (CalibrationReport, bootstrap_intensity,
                          calibrate_at1p, calibrate_sbtv)
from .cds import CdsContract, cds_legs, cds_price, fair_spread, leg_grid
from .curves import DiscountCurve, PaymentSchedule, make_schedule
from .errors import (CalibrationError, ConfigurationError, DegenerateInputError,
                     DomainError, FpcreditError)
from .mc import (CvaEstimate, ErsContract, ErsPricingResult, PathRecords,
                 SimulationConfig, ers_cva_term, ers_fair_spread,
                 ers_fair_spread_from_paths, make_ers_contract,
                 simulate_intensity_paths, simulate_joint_paths)
from .presets import preset_checksum, preset_strip
from .quotes import CdsQuote, CdsQuoteStrip, read_quote_csv
from .survival import (At1pParams, HazardCurve, SbtvParams,
                       VolatilityTermStructure, at1p_survival, intensity_survival,
                       sbtv_survival)
