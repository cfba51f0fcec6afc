"""Bundled example runs.

The crossed-clusters scenario is the canonical worked example: four people
whose perceived clusters overlap and carry conflicting recommendations, so
both aggregation stages face genuine ties and majorities. At delta=0.5, x
sees {x, y}; y sees {y, u, v}; u sees {u, x, v}; v sees {v, y}. The
recommendations are x=0, y=1, u=0, v=1. The run is stated once, in
``data/crossed_clusters.json``; its expected cluster labels and decisions
are frozen in the test suite.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .runfile import AuditRunFile, load_run


def crossed_clusters_run() -> AuditRunFile:
    """The crossed-clusters scenario, loaded from its bundled file."""
    return load_run(crossed_clusters_path())


def crossed_clusters_path() -> Path:
    """Path of the bundled crossed-clusters run file."""
    return Path(str(resources.files("subjfair.harness").joinpath("data/crossed_clusters.json")))
