"""CDS quote strips and the CSV format they are read from.

CSV format: header ``tenor_years,spread_bp[,bid_bp,ask_bp]``, UTF-8,
dot-decimal.  When the mid column is empty the mid is computed as
(bid + ask) / 2.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .errors import DomainError, require_finite


@dataclass(frozen=True)
class CdsQuote:
    tenor: float
    spread_bp: float
    bid_bp: float | None = None
    ask_bp: float | None = None

    def __post_init__(self):
        require_finite(self, "tenor", "spread_bp",
                       *(name for name in ("bid_bp", "ask_bp") if getattr(self, name) is not None))
        if self.tenor <= 0:
            raise DomainError("quote tenor must be positive")
        if self.spread_bp < 0:
            raise DomainError("quote spread must be non-negative")
        if self.bid_bp is not None and self.ask_bp is not None:
            if not self.bid_bp <= self.spread_bp <= self.ask_bp:
                raise DomainError("mid must lie between bid and ask")


@dataclass(frozen=True)
class CdsQuoteStrip:
    quotes: tuple[CdsQuote, ...]
    recovery: float = 0.40
    quote_date: str | None = None

    def __post_init__(self):
        quotes = tuple(self.quotes)
        if not quotes:
            raise DomainError("quote strip must be non-empty")
        tenors = [q.tenor for q in quotes]
        if tenors != sorted(set(tenors)):
            raise DomainError("quote tenors must be strictly increasing")
        if not 0 <= self.recovery < 1:
            raise DomainError("recovery must lie in [0, 1)")
        object.__setattr__(self, "quotes", quotes)

    @property
    def tenors(self) -> list[float]:
        return [q.tenor for q in self.quotes]

    @property
    def spreads_bp(self) -> list[float]:
        return [q.spread_bp for q in self.quotes]


def _parse_float(text: str, line: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"line {line}, column {column!r}: cannot parse {text!r} as a number")


def read_quote_csv(text: str, recovery: float = 0.40) -> CdsQuoteStrip:
    """Parse a quote strip; errors name the offending line and column."""
    reader = csv.DictReader(io.StringIO(text), restval="")  # short rows: empty cells
    try:
        fields = set(reader.fieldnames or ())
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise DomainError(f"line {reader.line_num}: malformed CSV ({exc})") from None
    required = {"tenor_years"}
    if not required <= fields:
        raise DomainError(f"CSV header must contain {sorted(required)}; got {reader.fieldnames}")
    quotes = []
    for lineno, row in rows:
        tenor = _parse_float(row["tenor_years"], lineno, "tenor_years")
        bid = ask = None
        if row.get("bid_bp") not in (None, ""):
            bid = _parse_float(row["bid_bp"], lineno, "bid_bp")
        if row.get("ask_bp") not in (None, ""):
            ask = _parse_float(row["ask_bp"], lineno, "ask_bp")
        mid_text = row.get("spread_bp")
        if mid_text not in (None, ""):
            mid = _parse_float(mid_text, lineno, "spread_bp")
        elif bid is not None and ask is not None:
            mid = 0.5 * (bid + ask)
        else:
            raise DomainError(f"line {lineno}, column 'spread_bp': missing mid and no bid/ask to infer it")
        quotes.append(CdsQuote(tenor=tenor, spread_bp=mid, bid_bp=bid, ask_bp=ask))
    return CdsQuoteStrip(quotes=tuple(quotes), recovery=recovery)
