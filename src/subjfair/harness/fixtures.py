"""Bundled example runs.

The crossed-clusters scenario is the canonical worked example: four people
whose perceived clusters overlap and carry conflicting recommendations, so
both aggregation stages face genuine ties and majorities. Its expected
cluster labels and decisions are frozen in the test suite.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from ..aggregation import AggregationStrategy
from ..core import AuditParams, PerceptionTable, Population, RecommendationVector
from .runfile import AuditRunFile

#: Cluster memberships at delta=0.5: x sees {x, y}; y sees {y, u, v};
#: u sees {u, x, v}; v sees {v, y}. Recommendations: x=0, y=1, u=0, v=1.
CROSSED_CLUSTERS_ROWS = {
    "x": {"x": 1.0, "y": 0.8, "u": 0.1, "v": 0.1},
    "y": {"x": 0.1, "y": 1.0, "u": 0.8, "v": 0.8},
    "u": {"x": 0.8, "y": 0.1, "u": 1.0, "v": 0.8},
    "v": {"x": 0.1, "y": 0.8, "u": 0.1, "v": 1.0},
}

CROSSED_CLUSTERS_RECS = {"x": 0, "y": 1, "u": 0, "v": 1}


def crossed_clusters_run() -> AuditRunFile:
    """The crossed-clusters scenario as an in-memory run."""
    return AuditRunFile(
        population=Population(("x", "y", "u", "v")),
        perceptions=PerceptionTable(CROSSED_CLUSTERS_ROWS),
        recommendations=RecommendationVector("grant", CROSSED_CLUSTERS_RECS),
        params=AuditParams(delta=0.5, epsilon=0.0, theta=0.5),
        strategy=AggregationStrategy(theta=0.5),
        metadata={"fixture": "crossed_clusters"},
    )


def crossed_clusters_path() -> Path:
    """Path of the bundled crossed-clusters run file."""
    return Path(str(resources.files("subjfair.harness").joinpath("data/crossed_clusters.json")))
