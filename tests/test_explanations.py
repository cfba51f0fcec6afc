import random

import pytest

from subjfair import (
    ACCEPTED,
    PENDING,
    REJECTED,
    FAIR,
    UNFAIR,
    AcceptanceLedger,
    ExplanationObligation,
    InputError,
    derive_obligations,
    fairness_through_explanations,
    procedural_check,
)
from subjfair.explanations import (
    ACCURACY,
    AGGREGATION_METHOD,
    CONSISTENCY,
    ETHICALITY,
    GROUP_IDENTIFICATION,
    KIND_TAGS,
    SYSTEM_ERROR_REVIEW,
    SYSTEM_RECOMMENDATION,
)
from subjfair.harness.report import audit_run, build_report_doc
from subjfair import run_pipeline, audit_population

from helpers import as_run, make_inputs, obligation_records


def _report(rows, recs):
    inputs = make_inputs(rows, recs)
    set_labels, decisions = run_pipeline(inputs.pop, inputs.family, inputs.tally)
    return audit_population(
        inputs.pop,
        inputs.family,
        inputs.recs,
        inputs.params,
        inputs.tally,
        set_labels,
        decisions,
    )


UNANIMOUS = (
    {"a": {"a": 1.0, "b": 0.8}, "b": {"b": 1.0, "a": 0.8}},
    {"a": 1, "b": 1},
)

# a recommends 1 against a cluster of 0s and is ultimately denied: the
# system's recommendation is the suspect element
SUSPECT = (
    {
        "a": {"a": 1.0, "b": 0.8, "c": 0.8},
        "b": {"b": 1.0},
        "c": {"c": 1.0},
    },
    {"a": 1, "b": 0, "c": 0},
)


def _justifiable_report():
    # a's own cluster is all 0s around a's 1, but a also sits in enough
    # 1-labeled clusters that the final decision sides with a
    rows = {
        "a": {"a": 1.0, "b": 0.8, "c": 0.8},
        "b": {"b": 1.0},
        "c": {"c": 1.0},
        "d": {"d": 1.0, "a": 0.8, "e": 0.8},
        "e": {"e": 1.0, "a": 0.8, "d": 0.8},
    }
    recs = {"a": 1, "b": 0, "c": 0, "d": 1, "e": 1}
    return _report(rows, recs)


class TestDeriveObligations:
    def test_unanimous_audit_owes_nothing(self):
        assert derive_obligations(_report(*UNANIMOUS)) == {}

    def test_suspect_individual_gets_error_review(self):
        report = _report(*SUSPECT)
        kinds_for_a = set(derive_obligations(report)["a"])
        assert kinds_for_a == {
            SYSTEM_RECOMMENDATION,
            AGGREGATION_METHOD,
            SYSTEM_ERROR_REVIEW,
        }

    def test_justifiable_individual_gets_group_identification(self):
        report = _justifiable_report()
        assert report.conflict[0] == "JUSTIFIABLE_BY_GROUP"  # a is at position 0
        assert GROUP_IDENTIFICATION in derive_obligations(report)["a"]

    def test_relaxed_only_gets_base_obligations(self):
        # b disagrees with its cluster-mate a but matches the cluster label
        rows = {
            "a": {"a": 1.0, "b": 0.8, "c": 0.8},
            "b": {"b": 1.0},
            "c": {"c": 1.0},
        }
        recs = {"a": 0, "b": 1, "c": 0}
        report = _report(rows, recs)
        assert report.scenario[0] == "RELAXED_ONLY"  # a is at position 0
        assert derive_obligations(report)["a"] == (SYSTEM_RECOMMENDATION, AGGREGATION_METHOD)

    def test_derivation_is_pure(self):
        report = _report(*SUSPECT)
        assert derive_obligations(report) == derive_obligations(report)

    def test_tags_come_from_fixed_mapping(self):
        report = _report(*SUSPECT)
        for o in obligation_records(derive_obligations(report)):
            if o.kind == SYSTEM_RECOMMENDATION:
                assert KIND_TAGS[o.kind] == {ACCURACY}
            if o.kind == AGGREGATION_METHOD:
                assert KIND_TAGS[o.kind] == {CONSISTENCY}

    def test_constructed_obligation_equals_derived_one(self):
        # the tags follow from the kind (``KIND_TAGS``), so an obligation
        # built by hand is the very obligation the derivation issues for that
        # person and kind
        report = _report(*SUSPECT)
        for o in obligation_records(derive_obligations(report)):
            built = ExplanationObligation(o.individual, o.kind)
            assert built == o
            assert KIND_TAGS[built.kind] != frozenset()


class TestFairnessThroughExplanations:
    OWED = {"a": (SYSTEM_RECOMMENDATION, AGGREGATION_METHOD), "b": (SYSTEM_RECOMMENDATION,)}

    def test_vacuously_fair_with_no_obligations(self):
        assert fairness_through_explanations({}, AcceptanceLedger()) == FAIR

    def test_pending_until_everyone_accepts(self):
        assert fairness_through_explanations(self.OWED, AcceptanceLedger()) == PENDING
        ledger = AcceptanceLedger({("a", SYSTEM_RECOMMENDATION): ACCEPTED})
        assert fairness_through_explanations(self.OWED, ledger) == PENDING

    def test_all_accepted_is_fair(self):
        ledger = AcceptanceLedger({o.key: ACCEPTED for o in obligation_records(self.OWED)})
        assert fairness_through_explanations(self.OWED, ledger) == FAIR

    def test_single_rejection_is_unfair(self):
        states = {o.key: ACCEPTED for o in obligation_records(self.OWED)}
        ledger = AcceptanceLedger({**states, ("b", SYSTEM_RECOMMENDATION): REJECTED})
        assert fairness_through_explanations(self.OWED, ledger) == UNFAIR

    def test_kinds_owed_to_someone_else_do_not_match(self):
        ledger = AcceptanceLedger({("b", AGGREGATION_METHOD): ACCEPTED})
        with pytest.raises(InputError, match="matches no obligation") as err:
            fairness_through_explanations(self.OWED, ledger)
        assert err.value.path == ("ledger", "b", AGGREGATION_METHOD)

    def test_rejection_is_defeasible(self):
        # a later convincing explanation supersedes the rejection: the next
        # round's ledger records it accepted
        obligations = {"a": (SYSTEM_RECOMMENDATION,)}
        ledger = AcceptanceLedger({("a", SYSTEM_RECOMMENDATION): REJECTED})
        assert fairness_through_explanations(obligations, ledger) == UNFAIR
        ledger = AcceptanceLedger({**ledger, ("a", SYSTEM_RECOMMENDATION): ACCEPTED})
        assert fairness_through_explanations(obligations, ledger) == FAIR

    def test_dangling_entry_rejected(self):
        ledger = AcceptanceLedger({("ghost", SYSTEM_RECOMMENDATION): ACCEPTED})
        with pytest.raises(InputError, match=r"\(ghost, SYSTEM_RECOMMENDATION\): matches") as err:
            fairness_through_explanations({}, ledger)
        assert err.value.path == ("ledger", "ghost", SYSTEM_RECOMMENDATION)

    def test_acceptance_monotonicity(self):
        order = {UNFAIR: 0, PENDING: 1, FAIR: 2}
        rng = random.Random(61)
        obligations = obligation_records(self.OWED)
        for _ in range(200):
            ledger = AcceptanceLedger(
                {o.key: rng.choice([ACCEPTED, REJECTED, PENDING]) for o in obligations}
            )
            before = fairness_through_explanations(self.OWED, ledger)
            flipped = rng.choice(obligations)
            ledger = AcceptanceLedger({**ledger, flipped.key: ACCEPTED})
            after = fairness_through_explanations(self.OWED, ledger)
            assert order[after] >= order[before]

    def test_sf_fair_process_is_vacuously_explanation_fair(self):
        inputs = make_inputs(*UNANIMOUS)
        result = audit_run(as_run(inputs))
        assert result.report.sf == FAIR
        assert result.obligations == ()
        assert build_report_doc(result)["explanation_fairness"] == FAIR


class TestLedger:
    def test_round_trip(self):
        ledger = AcceptanceLedger(
            {("b", AGGREGATION_METHOD): REJECTED, ("a", SYSTEM_RECOMMENDATION): ACCEPTED}
        )
        rows = ledger.as_rows()
        assert rows == {"a": {SYSTEM_RECOMMENDATION: ACCEPTED}, "b": {AGGREGATION_METHOD: REJECTED}}
        states = {(i, kind): state for i, row in rows.items() for kind, state in row.items()}
        assert AcceptanceLedger(states) == ledger
        assert list(ledger) == [("a", SYSTEM_RECOMMENDATION), ("b", AGGREGATION_METHOD)]

    def test_unknown_state_rejected(self):
        with pytest.raises(InputError):
            AcceptanceLedger({("a", SYSTEM_RECOMMENDATION): "maybe"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError, match="unknown obligation kind 'BOGUS'"):
            AcceptanceLedger({("a", "BOGUS"): ACCEPTED})

    def test_an_obligation_of_an_unknown_kind_is_refused_at_its_field(self):
        with pytest.raises(InputError, match="^unknown obligation kind 'BOGUS'$") as err:
            ExplanationObligation("a", "BOGUS")
        assert err.value.path == ("kind",)

    def test_unrecorded_defaults_to_pending(self):
        assert AcceptanceLedger().get(("a", SYSTEM_RECOMMENDATION), PENDING) == PENDING

    def test_ledger_cannot_change_after_construction(self):
        states = {("a", SYSTEM_RECOMMENDATION): ACCEPTED}
        ledger = AcceptanceLedger(states)
        states[("a", SYSTEM_RECOMMENDATION)] = REJECTED
        assert ledger[("a", SYSTEM_RECOMMENDATION)] == ACCEPTED
        assert not hasattr(ledger, "record")
        with pytest.raises(TypeError):
            ledger[("a", SYSTEM_RECOMMENDATION)] = REJECTED


class TestProceduralCheck:
    def test_uniform_clean_run(self):
        assert procedural_check(ethicality_asserted=False) == {
            CONSISTENCY: "computed",
            ACCURACY: "computed",
        }

    def test_ethicality_is_echoed_as_asserted(self):
        assert procedural_check(ethicality_asserted=True) == {
            CONSISTENCY: "computed",
            ACCURACY: "computed",
            ETHICALITY: "asserted",
        }
