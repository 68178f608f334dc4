"""Canned configurations for the published coverage tables and figures.

The simulation design behind every table is the same: alpha = 2 rates,
150 centres censused at t, a count objective reaching to total time 400
or a time objective chasing 200 further recruits, and level 0.9
intervals.  Appendix variants tweak one knob at a time (beta = 50,
C = 20, level 0.95, a two-component rate mixture).  This module only
assembles configurations; the heavy lifting stays in
:mod:`recruitcast.simulate`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .asymptotics import LimitLaw, count_limit_law, limit_prob_density, time_limit_law
from .predict import COUNT, TIME
from .simulate import (
    GammaMixture,
    SimConfig,
    Simultaneous,
    SingleGamma,
    SplitHalf,
    UniformOnCensus,
)

__all__ = [
    "TABLE_IDS",
    "FIGURE_IDS",
    "DEFAULT_SEED",
    "TableLayout",
    "FigureCurve",
    "table_columns",
    "row_labels",
    "reproduction_table",
    "figure_curve",
    "MAX_GRID_SIZE",
    "check_grid_size",
]

DEFAULT_SEED = 97
DEFAULT_ALPHA = 2.0
DEFAULT_BETA = 150.0
DEFAULT_CENTRES = 150
TOTAL_TIME = 400.0  # census + horizon for every count table
TIME_TARGET = 200
CENSUS_GRID_COUNT = (50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0)
CENSUS_GRID_TIME = (50.0, 100.0, 150.0, 200.0, 300.0, 500.0, 1000.0)
# Grid points of a figure curve: far more than a plot resolves, and a
# bound on the time and memory of the curve and its kernel density.
MAX_GRID_SIZE = 100_000

# table 2's design: every other table turns one or two of its knobs
_TABLE_2 = dict(prior=SingleGamma(DEFAULT_ALPHA, DEFAULT_BETA), centres=DEFAULT_CENTRES,
                schedule=Simultaneous(), objective=COUNT, level=0.9)
_MIXTURE = GammaMixture(DEFAULT_ALPHA, DEFAULT_BETA, 3.0 * DEFAULT_BETA)
# table id -> where its design departs from table 2's
_TABLES: dict[str, dict] = {
    "2": {},
    "3": {"schedule": UniformOnCensus()},
    "4": {"schedule": SplitHalf()},
    "D1": {"prior": SingleGamma(DEFAULT_ALPHA, 50.0)},
    "D2": {"centres": 20},
    "D3": {"level": 0.95},
    "D4": {"objective": TIME},
    "D5": {"objective": TIME, "schedule": UniformOnCensus()},
    "F1": {"prior": _MIXTURE, "schedule": UniformOnCensus()},
    "F2": {"prior": _MIXTURE, "schedule": UniformOnCensus(), "objective": TIME},
}
_CENSUS_GRIDS = {COUNT: CENSUS_GRID_COUNT, TIME: CENSUS_GRID_TIME}
TABLE_IDS = tuple(_TABLES)


@dataclass(frozen=True)
class TableLayout:
    """Row configurations plus the column names the table publishes."""

    table_id: str
    objective: str
    staggered: bool
    columns: tuple[str, ...]
    rows: tuple[tuple[dict, SimConfig], ...]


def table_columns(objective: str, staggered: bool) -> tuple[str, ...]:
    """The columns of a coverage table: the row labels, the pooling
    diagnostics where centres open at different times, and the scores."""
    label = ("t", "t_plus") if objective == COUNT else ("t", "n_plus")
    diag = ("t_star", "t_star_ratio", "n_star_ratio") if staggered else ()
    scores = ("coverage_unadjusted", "width_unadjusted",
              "coverage_adjusted", "width_adjusted")
    return label + diag + scores


def row_labels(config: SimConfig) -> dict:
    """A table row's labels: the census and the count horizon (t_plus) or
    the target count (n_plus)."""
    return {"t": config.census_time,
            "t_plus" if config.objective == COUNT else "n_plus": config.horizon}


def reproduction_table(table_id: str, replications: int = 2000,
                       base_seed: int = DEFAULT_SEED) -> TableLayout:
    """Configurations for one published coverage table.

    Every row gets its own seed (base + row index) so rows are
    independent while the whole table stays reproducible.
    """
    if table_id not in _TABLES:
        raise ValueError(f"unknown table {table_id!r}; expected one of {', '.join(TABLE_IDS)}")
    design = {**_TABLE_2, **_TABLES[table_id]}
    objective = design["objective"]
    rows = []
    for index, census in enumerate(_CENSUS_GRIDS[objective]):
        horizon = TOTAL_TIME - census if objective == COUNT else float(TIME_TARGET)
        config = SimConfig(**design, census_time=census, horizon=horizon,
                           replications=replications, seed=base_seed + index)
        rows.append((row_labels(config), config))
    staggered = not isinstance(design["schedule"], Simultaneous)
    return TableLayout(table_id=table_id, objective=objective, staggered=staggered,
                       columns=table_columns(objective, staggered), rows=tuple(rows))


@dataclass(frozen=True)
class FigureCurve:
    """Grid, limit density, and (optionally) the config for its empirical twin."""

    figure_id: str
    objective: str
    p: float
    sweep: dict
    grid: np.ndarray
    theoretical: np.ndarray
    law: LimitLaw
    config: SimConfig | None


# figure id -> (objective, p, allowed sweeps, beta follows C, empirical)
_FIGURES: dict[str, tuple[str, float, tuple[str, ...], bool, bool]] = {
    "fig1": (COUNT, 0.50, ("t",), False, False),
    "fig2": (COUNT, 0.50, ("t", "centres"), True, True),
    "fig3": (COUNT, 0.25, ("t", "centres"), True, True),
    "fig4": (TIME, 0.50, ("centres",), True, True),
    "figD1": (TIME, 0.25, ("t",), False, True),
    "figD2": (COUNT, 0.50, ("centres",), False, True),
    "figD3": (TIME, 0.50, ("centres",), False, True),
}
FIGURE_IDS = tuple(_FIGURES)


def check_grid_size(grid_size: int) -> int:
    """``grid_size`` if a figure curve can take that many points, else ValueError."""
    if not 2 <= grid_size <= MAX_GRID_SIZE:
        raise ValueError(f"grid size must lie in [2, {MAX_GRID_SIZE}], got {grid_size}")
    return grid_size


def figure_curve(figure_id: str, *, t: float | None = None,
                 centres: int | None = None, replications: int = 20000,
                 seed: int = DEFAULT_SEED, grid_size: int = 401) -> FigureCurve:
    """One curve of a published figure.

    Census-sweep figures take ``t`` (census 200 by default, horizon
    400 - t for counts); centre-sweep figures take ``centres`` with
    census and horizon both 200 and, where the figure varies beta with
    C, beta = C.  ``t`` must be positive and finite, and below 400 in a
    count figure; ``centres`` must be a positive integer.
    """
    if figure_id not in _FIGURES:
        raise ValueError(f"unknown figure {figure_id!r}; expected one of {', '.join(FIGURE_IDS)}")
    objective, p, sweeps, beta_follows_c, empirical = _FIGURES[figure_id]
    if t is not None and centres is not None:
        raise ValueError("give either t or centres, not both")
    if t is not None and "t" not in sweeps:
        raise ValueError(f"figure {figure_id} does not sweep the census time")
    if centres is not None and "centres" not in sweeps:
        raise ValueError(f"figure {figure_id} does not sweep the centre count")
    if centres is not None and not (isinstance(centres, numbers.Integral) and centres >= 1):
        raise ValueError(f"centres must be a positive integer, got {centres!r}")
    if t is not None and not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be positive and finite, got {t}")
    if t is not None and objective == COUNT and not t < TOTAL_TIME:
        raise ValueError(f"t must lie below {TOTAL_TIME:g} in a count figure, "
                         f"whose horizon is {TOTAL_TIME:g} - t, got {t}")

    sweep_kind = "centres" if (centres is not None or "t" not in sweeps) else "t"
    if sweep_kind == "t":
        census = float(t) if t is not None else 200.0
        num_centres = DEFAULT_CENTRES
        beta = DEFAULT_BETA
        sweep = {"t": census}
    else:
        num_centres = int(centres) if centres is not None else DEFAULT_CENTRES
        census = 200.0
        beta = float(num_centres) if beta_follows_c else DEFAULT_BETA
        sweep = {"centres": num_centres}

    if objective == COUNT:
        horizon = TOTAL_TIME - census if sweep_kind == "t" else 200.0
        law = count_limit_law(p, beta, census, horizon)
    else:
        horizon = float(TIME_TARGET)
        law = time_limit_law(p, DEFAULT_ALPHA, beta, census,
                             TIME_TARGET / num_centres)

    grid = np.linspace(0.0, 1.0, check_grid_size(grid_size) + 2)[1:-1]
    theoretical = limit_prob_density(grid, law)

    config = None
    if empirical:
        config = SimConfig(prior=SingleGamma(DEFAULT_ALPHA, beta),
                           centres=num_centres, census_time=census,
                           schedule=Simultaneous(), objective=objective,
                           horizon=horizon, level=0.9,
                           replications=replications, seed=seed)
    return FigureCurve(figure_id=figure_id, objective=objective, p=p,
                       sweep=sweep, grid=grid, theoretical=theoretical,
                       law=law, config=config)
