"""Paths to the bundled demonstration trial.

A synthetic 41-centre trial: centres open over the first eighth of the
study window and recruit for one time unit.  The events file holds the
full recruit-level log; the summary file is the same trial censused at
time 0.125, right when the last centre opens.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

__all__ = ["DEMO_EVENTS_CENSUS", "DEMO_SUMMARY_CENSUS", "demo_events_path",
           "demo_summary_path"]

DEMO_EVENTS_CENSUS = 1.0
DEMO_SUMMARY_CENSUS = 0.125


def _data_path(name: str) -> Path:
    return Path(resources.files("recruitcast") / "data" / name)


def demo_events_path() -> Path:
    """Recruit-level log (centre_id, open_time, event_time), census 1.0."""
    return _data_path("demo_trial_events.csv")


def demo_summary_path() -> Path:
    """Centre-level snapshot (centre_id, open_time, count), census 0.125."""
    return _data_path("demo_trial_summary.csv")
