"""Subjective-fairness auditing and decision-aggregation engine.

Given each individual's own perception of who is similar to them and a
decision-support system's recommendations, the engine decides who is
treated subjectively fairly, aggregates recommendations into defensible
decisions, and derives the explanation obligations owed for every conflict.
"""

from .core import (
    BINARY,
    SCORE,
    AuditParams,
    IndividualId,
    InputError,
    PerceptionTable,
    Population,
    Purpose,
    RecommendationVector,
    validate_population,
)
from .clustering import (
    ClusterFamily,
    build_cluster_family,
)
from .aggregation import (
    MAJORITY,
    PESSIMISTIC,
    TRUST_WEIGHTED,
    VETO,
    AggregationStrategy,
    ConfigError,
    VetoRule,
    binarize,
    cluster_tally,
    run_pipeline,
)
from .audit import (
    FAIR,
    UNFAIR,
    ISF_SATISFIED,
    RELAXED_ONLY,
    NEITHER,
    NO_CONFLICT,
    JUSTIFIABLE_BY_GROUP,
    SYSTEM_SUSPECT,
    AuditReport,
    audit_population,
    sf_process,
)
from .explanations import (
    ACCEPTED,
    PENDING,
    REJECTED,
    AcceptanceLedger,
    ExplanationObligation,
    LedgerIntegrityError,
    derive_obligations,
    fairness_through_explanations,
    procedural_check,
)
from .baselines import (
    BaselineInputs,
    ObjectiveDistanceTable,
    dwork_if_check,
    statistical_parity_gap,
    subjective_if_check,
)

__version__ = "0.1.0"
