"""Explanation obligations and acceptance-driven fairness.

Every individual whose audit falls short of full individual fairness is owed
justifications. The engine tracks those obligations and the recorded
acceptance state of each one; it does not generate explanation content.
Acceptance is defeasible: each explanation round is a new, read-only
ledger, in which an obligation rejected before may stand accepted as
arguments land or fail, and the explanation-level verdict is derived from
the ledger a run carries.
What is owed follows from a person's scenario and conflict classes alone,
so ``derive_obligations`` reads it from one table and builds no record.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence

from .audit import (
    FAIR,
    UNFAIR,
    ISF_SATISFIED,
    JUSTIFIABLE_BY_GROUP,
    NEITHER,
    NO_CONFLICT,
    RELAXED_ONLY,
    SYSTEM_SUSPECT,
    AuditReport,
)
from .core import InputError, Value

PENDING = "pending"
ACCEPTED = "accepted"
REJECTED = "rejected"
ACCEPTANCE_STATES = (ACCEPTED, REJECTED, PENDING)

#: Obligation kinds, in report order.
SYSTEM_RECOMMENDATION = "SYSTEM_RECOMMENDATION"
AGGREGATION_METHOD = "AGGREGATION_METHOD"
GROUP_IDENTIFICATION = "GROUP_IDENTIFICATION"
SYSTEM_ERROR_REVIEW = "SYSTEM_ERROR_REVIEW"
OBLIGATION_KINDS = (
    SYSTEM_RECOMMENDATION,
    AGGREGATION_METHOD,
    GROUP_IDENTIFICATION,
    SYSTEM_ERROR_REVIEW,
)

#: Procedural-fairness rule tags.
CONSISTENCY = "consistency"
ACCURACY = "accuracy"
ETHICALITY = "ethicality"

#: Which procedural rules each obligation kind speaks to. Justifying the
#: system's recommendation or reviewing a suspect one is about deciding on
#: the best available information; justifying the aggregation method is
#: about applying one uniform procedure; justifying a group identification
#: against the individual's self-perception is a question of values.
KIND_TAGS: Mapping[str, frozenset[str]] = {
    SYSTEM_RECOMMENDATION: frozenset({ACCURACY}),
    AGGREGATION_METHOD: frozenset({CONSISTENCY}),
    GROUP_IDENTIFICATION: frozenset({ETHICALITY}),
    SYSTEM_ERROR_REVIEW: frozenset({ACCURACY}),
}


#: Violation code of a ledger entry that names no owed obligation.
NO_OBLIGATION = "no_obligation"


class LedgerIntegrityError(InputError):
    """A ledger entry references an obligation that was never issued."""

    def __init__(self, key: tuple[str, str]) -> None:
        self.key = key
        super().__init__(f"ledger entry for ({key[0]}, {key[1]}) matches no obligation")


class ExplanationObligation(Value):
    """One justification the process owes one individual."""

    _fields = ("individual", "kind")
    individual: str
    kind: str

    def __init__(self, individual: str, kind: str) -> None:
        if kind not in OBLIGATION_KINDS:
            raise InputError(f"unknown obligation kind {kind!r}")
        self._set(individual=individual, kind=kind)

    @property
    def key(self) -> tuple[str, str]:
        return (self.individual, self.kind)


_BASE = (SYSTEM_RECOMMENDATION, AGGREGATION_METHOD)

#: The kinds owed, in report order, by (scenario, conflict) class, the only
#: pairs an audit gives. Fully satisfied individuals (ISF holds, no
#: conflict) are owed nothing. Anyone short of that is owed a justification
#: of their own recommendation and of the aggregation method. A conflict
#: that the final decision can justify additionally requires justifying the
#: group identification; a conflict the decision cannot justify requires a
#: review of the system's recommendation instead.
_OWED_KINDS: Mapping[tuple[str, str], tuple[str, ...]] = {
    (ISF_SATISFIED, NO_CONFLICT): (),
    (RELAXED_ONLY, NO_CONFLICT): _BASE,
    (NEITHER, JUSTIFIABLE_BY_GROUP): _BASE + (GROUP_IDENTIFICATION,),
    (NEITHER, SYSTEM_SUSPECT): _BASE + (SYSTEM_ERROR_REVIEW,),
}


def derive_obligations(report: AuditReport) -> dict[str, tuple[str, ...]]:
    """The kinds owed to each individual owed any, ``{id: kinds}`` by id in
    sorted order. Pure in the report: identical reports, identical maps."""
    ids = report.population.individuals
    owed = list(map(_OWED_KINDS.__getitem__, zip(report.scenario, report.conflict)))
    return {ids[k]: owed[k] for k in report.population.order if owed[k]}


class AcceptanceLedger(Mapping[tuple[str, str], str]):
    """Read-only record of each obligation's acceptance state,
    ``{(individual, kind): state}``, iterated in sorted key order.

    The constructor takes a mapping keyed by pairs of strings and checks
    every kind and state once, and nothing changes a ledger afterwards: a
    later explanation round is a new ledger. An obligation with no entry is
    pending (``ledger.get(key, PENDING)``).
    """

    def __init__(self, states: Mapping[tuple[str, str], str] | None = None) -> None:
        states = {} if states is None else states
        if not isinstance(states, Mapping):
            raise InputError("expected a mapping", ("states",), "states")
        for key in states:
            pair = type(key) is tuple and len(key) == 2
            if not (pair and isinstance(key[0], str) and isinstance(key[1], str)):
                raise InputError("expected an (individual, kind) key", ("states", key), "states")
        self._states = dict(sorted(states.items()))
        for (individual, kind), state in self._states.items():
            path = ("states", individual, kind)
            if kind not in OBLIGATION_KINDS:
                raise InputError(f"unknown obligation kind {kind!r}", path)
            if state not in ACCEPTANCE_STATES:
                raise InputError(f"unknown acceptance state {state!r}", path)

    def __getitem__(self, key: tuple[str, str]) -> str:
        return self._states[key]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)

    def as_rows(self) -> dict[str, dict[str, str]]:
        """Nested ``{individual: {kind: state}}`` view."""
        rows: dict[str, dict[str, str]] = {}
        for (individual, kind), state in self._states.items():
            rows.setdefault(individual, {})[kind] = state
        return rows


def unmatched_entries(
    owed: Mapping[str, Sequence[str]],
    ledger: Mapping[tuple[str, str], str],
) -> list[tuple[str, str]]:
    """The keys of ``ledger`` that name no obligation in ``owed``, in the
    ledger's order."""
    return [key for key in ledger if key[1] not in owed.get(key[0], ())]


def fairness_through_explanations(
    owed: Mapping[str, Sequence[str]],
    ledger: Mapping[tuple[str, str], str],
) -> str:
    """Explanation-level verdict from the acceptance states of ``ledger``
    (an ``AcceptanceLedger`` or any mapping like it), for the obligations
    ``owed`` names: ``{individual: kinds}`` with distinct kinds per person,
    as ``derive_obligations`` gives them.

    Fair iff every obligation is accepted (vacuously fair with none --
    individuals owed nothing are presumed accepting). Unfair as soon as any
    obligation stands rejected. Pending otherwise.

    Raises:
        LedgerIntegrityError: if the ledger references an obligation that
            is not in ``owed``.
    """
    unmatched = unmatched_entries(owed, ledger)
    if unmatched:
        raise LedgerIntegrityError(unmatched[0])
    states = list(ledger.values())
    accepted = states.count(ACCEPTED)
    rejected = REJECTED in states
    # Every entry names a distinct obligation, so all are accepted exactly
    # when the accepted entries number as many as the obligations.
    if rejected:
        return UNFAIR
    if accepted == sum(map(len, owed.values())):
        return FAIR
    return PENDING


# --- procedural fairness -----------------------------------------------------

COMPUTED = "computed"
ASSERTED = "asserted"


def procedural_check(ethicality_asserted: bool) -> dict[str, str]:
    """Which procedural rules the run satisfies, ``{tag: provenance}``:
    each satisfied rule's tag, with how it is known, ``COMPUTED`` or
    ``ASSERTED``.

    consistency: one strategy and parameter set applied uniformly to all
    individuals, which holds by construction: a run carries exactly one of
    each. accuracy: the decision rests on inputs that passed validation,
    which holds by construction too, since no run is audited otherwise.
    ethicality: echoed from the operator's assertion, never computed.
    """
    satisfied = {CONSISTENCY: COMPUTED, ACCURACY: COMPUTED}
    if ethicality_asserted:
        satisfied[ETHICALITY] = ASSERTED
    return satisfied
