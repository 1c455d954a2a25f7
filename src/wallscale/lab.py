"""Parameter sweeps, quantitative verification reports, and persistence.

The rate sweep drives the ansatz search per cross-section and checks the
rate-of-convergence inequality

    | rescaled_min - 16/sqrt(pi) | <= 200/sqrt(|ln c|) + 20 l

from above (a true check, since the ansatz value is an upper bound) and from
below (a sanity implication).  Whenever the right-hand side exceeds
16/sqrt(pi) itself the record is flagged `vacuous_bound` instead of
pretending precision.  The sweep takes no tolerance: its energies use kernel
values whose error estimates the kernels module holds to a relative 1e-8.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import VerificationError
from .kernels import CrossSection, a_c_scaling_ratio
from .magnetostatics import GAMMA_LIMIT, RescalingParams
from .minimize import minimize_full_ansatz

__all__ = [
    "SweepRecord",
    "CorollaryRow",
    "CorollaryReport",
    "rate_sweep",
    "corollary33_report",
    "emit_report",
    "read_report_json",
    "plot_companion_path",
]

logger = logging.getLogger(__name__)

# columns exactly in declared field order; `lambda` and `pass` are spelled
# out here because they are reserved words in Python
_CSV_COLUMNS = (
    "l",
    "d",
    "c",
    "lambda",
    "mu",
    "rescaled_min_upper",
    "gamma_limit",
    "gap",
    "rate_rhs",
    "pass",
    "vacuous_bound",
)


@dataclass(frozen=True)
class SweepRecord:
    """One (l, d) experiment of the rate sweep."""

    l: float
    d: float
    c: float
    lam: float
    mu: float
    rescaled_min_upper: float
    gamma_limit: float
    gap: float
    rate_rhs: float
    passed: bool
    vacuous_bound: bool

    def as_row(self) -> tuple:
        return astuple(self)


def _rate_rhs(c: float, l: float) -> float:
    return 200.0 / math.sqrt(abs(math.log(c))) + 20.0 * l


def rate_sweep(
    cases: Sequence[CrossSection],
    scale_grid: Optional[np.ndarray] = None,
    n_nodes: Optional[int] = None,
) -> list[SweepRecord]:
    """Run the ansatz minimization per case and fill the rate-check records.

    Per-case failures are recorded as NaN rows with passed=False and the
    sweep continues.  n_nodes is ignored, as the ansatz energies sample no
    grid; perfbench/workloads.py still passes it.
    """
    records: list[SweepRecord] = []
    for cs in cases:
        if cs.c >= 1.0:
            raise ValueError("rate sweep requires aspect ratio c < 1 for every case")
        rhs = _rate_rhs(cs.c, cs.l)
        params = RescalingParams(lam=math.nan, mu=math.nan)
        try:
            params = RescalingParams.from_cross_section(cs)
            value = minimize_full_ansatz(cs, scale_grid=scale_grid).energy
        except Exception:
            logger.exception("sweep case l=%g d=%g failed", cs.l, cs.d)
            value = math.nan  # a NaN row fails both comparisons below
        gap = value - GAMMA_LIMIT
        records.append(
            SweepRecord(
                l=cs.l,
                d=cs.d,
                c=cs.c,
                lam=params.lam,
                mu=params.mu,
                rescaled_min_upper=value,
                gamma_limit=GAMMA_LIMIT,
                gap=gap,
                rate_rhs=rhs,
                passed=(gap <= rhs) and (value >= GAMMA_LIMIT - rhs),
                vacuous_bound=rhs > GAMMA_LIMIT,
            )
        )
    return records


@dataclass(frozen=True)
class CorollaryRow:
    c: float
    ratio: float
    bracket_low: float
    bracket_high: float
    in_bracket: bool


@dataclass(frozen=True)
class CorollaryReport:
    rows: tuple[CorollaryRow, ...]
    deviations_decreasing: bool


def corollary33_report(c_grid: Sequence[float]) -> CorollaryReport:
    """Tabulate a_c/(c |ln c|) with its closed-form bracket per grid point.

    The bracket endpoints come from the two-sided kernel bounds at zero
    frequency: (1 - 5/sqrt(|ln c|))/2 from below and (3 + |ln c|)/(2 |ln c|)
    from above.  The report asserts |ratio - 1/2| decreases along the grid
    (grid ordered by decreasing c).

    Raises:
        VerificationError: a ratio falls outside its bracket.
    """
    rows = []
    for c in c_grid:
        if not (0.0 < c < 1.0):
            raise ValueError("corollary grid must lie in (0, 1)")
        ratio = a_c_scaling_ratio(c)
        ln_abs = abs(math.log(c))
        low = 0.5 * (1.0 - 5.0 / math.sqrt(ln_abs))
        high = (3.0 + ln_abs) / (2.0 * ln_abs)
        ok = low <= ratio <= high
        if not ok:
            raise VerificationError(
                f"a_c scaling ratio {ratio!r} at c={c!r} outside bracket [{low!r}, {high!r}]"
            )
        rows.append(CorollaryRow(c=c, ratio=ratio, bracket_low=low, bracket_high=high, in_bracket=ok))
    deviations = [abs(r.ratio - 0.5) for r in rows]
    decreasing = all(a > b for a, b in zip(deviations, deviations[1:]))
    return CorollaryReport(rows=tuple(rows), deviations_decreasing=decreasing)


def plot_companion_path(path: str | Path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + "_plot.dat")


def emit_report(records: Sequence[SweepRecord], format: str, path: str | Path) -> Path:
    """Persist sweep records as CSV or JSON plus a plot companion file.

    CSV columns follow the declared record field order; JSON is an array of
    objects keyed identically.  The companion file holds three whitespace
    columns (|ln c|, gap, rate_rhs) next to the main output.
    """
    out = Path(path)
    if format == "csv":
        lines = [",".join(_CSV_COLUMNS)]
        for r in records:
            cells = []
            for v in r.as_row():
                cells.append(str(v).lower() if isinstance(v, bool) else repr(float(v)))
            lines.append(",".join(cells))
        out.write_text("\n".join(lines) + "\n")
    elif format == "json":
        payload = [dict(zip(_CSV_COLUMNS, r.as_row())) for r in records]
        out.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        raise ValueError(f"unknown format {format!r} (expected 'csv' or 'json')")
    companion = plot_companion_path(out)
    with open(companion, "w") as fh:
        for r in records:
            fh.write(f"{abs(math.log(r.c))!r} {r.gap!r} {r.rate_rhs!r}\n")
    return out


def read_report_json(path: str | Path) -> list[SweepRecord]:
    """Parse a JSON report back into records (round-trip inverse of emit)."""
    payload = json.loads(Path(path).read_text())
    return [SweepRecord(*(obj[col] for col in _CSV_COLUMNS)) for obj in payload]
