"""Named market-data presets: the three Lehman CDS strips and the
counterparty strip + contract terms of the equity-return-swap study.
"""

from __future__ import annotations

import hashlib
import json

from .quotes import CdsQuote, CdsQuoteStrip

PRESET_VERSION = "1"

_LEHMAN_TENORS = (1.0, 3.0, 5.0, 7.0, 10.0)

_STRIPS = {
    "lehman-2007-07-10": ("2007-07-10", (16.0, 29.0, 45.0, 50.0, 58.0)),
    "lehman-2008-06-12": ("2008-06-12", (397.0, 315.0, 277.0, 258.0, 240.0)),
    "lehman-2008-09-12": ("2008-09-12", (1437.0, 902.0, 710.0, 636.0, 588.0)),
}

# counterparty CDS bid/ask for the ERS study; mids are computed, not quoted
_ERS_STRIP = ("2009-09-16", ((1.0, 25.0, 31.0), (3.0, 34.0, 39.0), (5.0, 42.0, 47.0),
                             (7.0, 46.0, 51.0), (10.0, 50.0, 55.0)))

ERS_PRESET_NAME = "ers-paper-2009-09-16"

ERS_CONTRACT_TERMS = {
    "s0": 20.0,
    "equity_vol": 0.20,
    "dividend_yield": 0.008,
    "maturity": 5.0,
    "payment_frequency": 2,
    "recovery": 0.40,
    "stock_count": 1.0,
}

STRIP_PRESETS = tuple(_STRIPS) + (ERS_PRESET_NAME,)


def preset_strip(name: str, recovery: float = 0.40) -> CdsQuoteStrip:
    if name in _STRIPS:
        date, spreads = _STRIPS[name]
        quotes = tuple(CdsQuote(tenor=t, spread_bp=s)
                       for t, s in zip(_LEHMAN_TENORS, spreads))
        return CdsQuoteStrip(quotes=quotes, recovery=recovery, quote_date=date)
    if name == ERS_PRESET_NAME:
        date, bid_ask = _ERS_STRIP
        quotes = tuple(CdsQuote(tenor=t, spread_bp=0.5 * (bid + ask), bid_bp=bid, ask_bp=ask)
                       for t, bid, ask in bid_ask)
        return CdsQuoteStrip(quotes=quotes, recovery=recovery, quote_date=date)
    raise KeyError(f"unknown preset {name!r}; available: {sorted(STRIP_PRESETS)}")


def preset_checksum(name: str) -> str:
    """Stable checksum of the expanded preset, embedded in reports."""
    strip = preset_strip(name)
    payload = {
        "preset": name,
        "version": PRESET_VERSION,
        "quotes": [[q.tenor, q.spread_bp, q.bid_bp, q.ask_bp] for q in strip.quotes],
        "recovery": strip.recovery,
        "quote_date": strip.quote_date,
    }
    if name == ERS_PRESET_NAME:
        payload["contract"] = {**ERS_CONTRACT_TERMS, "quote_date": strip.quote_date}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
