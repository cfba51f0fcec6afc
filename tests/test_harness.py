import argparse
import collections
import contextlib
import dataclasses
import gc
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from subjfair import (
    AcceptanceLedger,
    AggregationStrategy,
    AuditParams,
    InputError,
    ObjectiveDistanceTable,
    PerceptionTable,
    Population,
    RecommendationVector,
    SCORE,
    VETO,
    VetoRule,
    build_cluster_family,
)
from subjfair.aggregation import STRATEGY_KINDS
from subjfair import baselines, core
from subjfair.explanations import KIND_TAGS, procedural_check
from subjfair.harness import cli, oracle, synth
from subjfair.harness.cli import main
from subjfair.harness.fixtures import crossed_clusters_path, crossed_clusters_run
from subjfair.harness.oracle import brute_force_oracle
from subjfair.harness.report import (
    OTHER_SETTINGS_FLAG,
    SYSTEM_REVIEW_FLAG,
    audit_run,
    build_audit_doc,
    build_report_doc,
    decide_run,
    dumps_doc,
    render_text,
)
from subjfair.harness.runfile import (
    AuditRunFile,
    BaselineInputs,
    RunFileError,
    dumps_run,
    from_dict,
    load_run,
    loads_run,
    save_run,
    to_dict,
)
from subjfair.harness.synth import SynthProfile, generate_population

from helpers import counted_map, honest_rows_by_pair, make_inputs


NAN = float("nan")
SCORES = {"a": 0.0, "b": 1.0}


def _fixture_doc():
    return json.loads(crossed_clusters_path().read_text())


def _minimal_doc(**overrides):
    doc = {
        "schema": "subjfair-run/1",
        "purpose": "t",
        "individuals": ["a", "b"],
        "sim": {"a": {"a": 1.0, "b": 0.8}, "b": {"b": 1.0}},
        "rec": {"kind": "binary", "values": {"a": 1, "b": 0}},
        "params": {"delta": 0.5},
    }
    doc.update(overrides)
    return doc


class TestRunFile:
    def test_bundled_fixture_loads(self):
        run = load_run(crossed_clusters_path())
        assert run.n == 4
        family = build_cluster_family(run.population, run.perceptions, run.params.delta)
        assert len(family.members) == 4

    def test_save_load_is_byte_stable(self, tmp_path):
        # the bundled fixture stays indented, for reading: the saved copy is
        # its compact form, and saving that copy again is a fixed point
        run = load_run(crossed_clusters_path())
        path = save_run(run, tmp_path / "copy.json")
        saved = path.read_text(encoding="utf-8")
        rebuilt = json.dumps(json.loads(saved), indent=2, sort_keys=True) + "\n"
        assert rebuilt == crossed_clusters_path().read_text(encoding="utf-8")
        again = save_run(load_run(path), tmp_path / "again.json")
        assert again.read_text(encoding="utf-8") == saved

    def test_hand_written_file_round_trips_by_content(self, tmp_path):
        # defaults omitted, keys unsorted: canonicalization must preserve
        # the run itself and be idempotent
        raw = json.dumps(_minimal_doc())
        run = loads_run(raw)
        first = dumps_run(run)
        again = dumps_run(loads_run(first))
        assert first == again
        assert loads_run(first) == run

    def test_an_empty_attribute_map_round_trips_as_no_attributes(self):
        # an empty map was kept, saved without its key and reloaded as None
        doc = _minimal_doc(attributes={})
        run = loads_run(json.dumps(doc))
        saved = dumps_run(run)
        assert "attributes" not in json.loads(saved)
        assert loads_run(saved) == run
        assert Population(["a"]) == Population(["a"], {})

    def test_wrong_self_similarity_rejected_at_load(self, tmp_path):
        doc = _minimal_doc(sim={"a": {"a": 0.9, "b": 0.8}, "b": {"b": 1.0}})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RunFileError, match="self-similarity must be 1.0 for a"):
            load_run(path)

    def test_validation_can_be_deferred(self, tmp_path):
        doc = _minimal_doc(sim={"a": {"a": 0.9, "b": 0.8}, "b": {"b": 1.0}})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        run = load_run(path, validate=False)
        assert run.perceptions.similarity("a", "a") == 0.9
        with pytest.raises(InputError, match="self-similarity must be 1.0 for a"):
            audit_run(run)

    def test_a_loaded_run_is_validated_once(self, monkeypatch):
        # work gate by counted calls: validation reads each person's own
        # similarity once; audit_run, and a copy of the run at other
        # settings, reuse the result load_run computed, while a copy with
        # another recommendation vector is validated again
        reads = []
        similarity = PerceptionTable.similarity

        def counted(self, observer, target):
            reads.append(observer)
            return similarity(self, observer, target)

        monkeypatch.setattr(PerceptionTable, "similarity", counted)
        run = load_run(crossed_clusters_path())
        assert len(reads) == run.n
        audit_run(run)
        params = AuditParams(run.params.delta, 0.5, run.params.theta)
        audit_run(dataclasses.replace(run, params=params))
        assert len(reads) == run.n
        recs = run.recommendations
        audit_run(
            dataclasses.replace(
                run, recommendations=RecommendationVector(recs.purpose, recs.values, recs.kind)
            )
        )
        assert len(reads) == 2 * run.n

    def test_malformed_json_reports_position(self):
        with pytest.raises(RunFileError, match="line 1"):
            loads_run("{not json")

    @pytest.mark.parametrize(
        "mutate, location",
        [
            (lambda d: d.pop("individuals"), "individuals"),
            (lambda d: d.pop("sim"), "sim"),
            (lambda d: d.pop("rec"), "rec"),
            (lambda d: d.pop("params"), "params"),
            (lambda d: d["rec"]["values"].update({"a": 2}), "rec.values.a"),
            (lambda d: d["sim"]["a"].update({"b": "high"}), "sim.a.b"),
            (lambda d: d["params"].update({"delta": 2.0}), "params.delta"),
            (lambda d: d.update(schema="other/9"), "schema"),
            (lambda d: d.update(strategy={"kind": "median"}), "strategy.kind"),
            (lambda d: d.update(individuals=["a", "a"]), "individuals"),
            (lambda d: d.update(strategey={"kind": "pessimistic"}), "strategey"),
            (lambda d: d["params"].update(thetaa=0.7), "params.thetaa"),
            (lambda d: d.update(strategy={"vetoo_rules": []}), "strategy.vetoo_rules"),
            (lambda d: d["rec"].update(kindd="score"), "rec.kindd"),
            (lambda d: d.update(baseline={"scores": {}, "distance": []}), "baseline.distance"),
            (
                lambda d: d.update(
                    strategy={
                        "kind": "veto",
                        "veto_rules": [{"attribute": "g", "op": "<", "value": 1, "veto": 1}],
                    }
                ),
                "strategy.veto_rules[0].veto",
            ),
            (
                lambda d: d.update(
                    strategy={
                        "kind": "veto",
                        "veto_rules": [{"attribute": "g", "op": "<", "value": 1, "vetoes": 2}],
                    }
                ),
                "strategy.veto_rules[0].vetoes",
            ),
            (lambda d: d.update(strategy={"veto_rules": 0}), "strategy.veto_rules"),
            (lambda d: d.update(baseline={"scores": {}, "overrides": 0}), "baseline.overrides"),
            (lambda d: d.update(strategy={"theta": 0.2}), "strategy.theta"),
            (lambda d: d.update(metadata=0), "metadata"),
            (lambda d: d.update(metadata=False), "metadata"),
            (lambda d: d.update(ledger={"a": {"BOGUS": "accepted"}}), "ledger.a.BOGUS"),
            (
                lambda d: d.update(ledger={"a": {"SYSTEM_RECOMMENDATION": "maybe"}}),
                "ledger.a.SYSTEM_RECOMMENDATION",
            ),
            (
                lambda d: d.update(baseline={"scores": SCORES, "distances": [["a", "b", NAN]]}),
                "baseline.distances[0]",
            ),
            (
                lambda d: d.update(baseline={"scores": SCORES, "distances": [["a", "b", -1]]}),
                "baseline.distances[0]",
            ),
            (
                lambda d: d.update(
                    baseline={
                        "scores": SCORES,
                        "distances": [["a", "b", 0.1]],
                        "overrides": [["a", "a", "b", NAN]],
                    }
                ),
                "baseline.overrides[0]",
            ),
            (
                lambda d: d.update(
                    baseline={"scores": {"a": NAN, "b": 1.0}, "distances": [["a", "b", 0.1]]}
                ),
                "baseline.scores.a",
            ),
            # Explicit ids keep the generated ids of the cases above unchanged.
            pytest.param(
                lambda d: d.update(
                    baseline={"scores": {"a": 0.0, "zz": 1.0}, "distances": [["a", "zz", 0.1]]}
                ),
                "baseline.scores.zz",
                id="baseline-score-for-unknown-id",
            ),
            pytest.param(
                lambda d: d.update(baseline={"scores": SCORES, "distances": []}),
                "baseline.distances",
                id="baseline-scored-pair-without-distance",
            ),
            pytest.param(
                lambda d: d.update(baseline={"scores": SCORES, "distances": [["a", "b", True]]}),
                "baseline.distances[0]",
                id="baseline-bool-distance",
            ),
            pytest.param(
                lambda d: d.update(baseline={"scores": SCORES, "distances": [["a", "b"]]}),
                "baseline.distances[0]",
                id="baseline-short-distance-row",
            ),
            pytest.param(
                lambda d: d.update(
                    baseline={"scores": SCORES, "distances": [["a", "b", 0.1]], "overrides": [0.1]}
                ),
                "baseline.overrides[0]",
                id="baseline-override-not-a-row",
            ),
            pytest.param(
                lambda d: d.update(baseline={"scores": {"a": 10**400, "b": 1.0}, "distances": []}),
                "baseline.scores.a",
                id="baseline-huge-int-score",
            ),
            pytest.param(
                lambda d: d.update(
                    baseline={"scores": SCORES, "distances": [["a", "b", 0.1], ["a", "zz", 0.2]]}
                ),
                "baseline.distances[1]",
                id="baseline-distance-for-unknown-id",
            ),
            pytest.param(
                lambda d: d.update(baseline={"scores": {}, "distances": [["zz", "yy", 0.2]]}),
                "baseline.distances[0]",
                id="baseline-distance-between-unknown-ids",
            ),
            pytest.param(
                lambda d: d.update(
                    baseline={
                        "scores": SCORES,
                        "distances": [["a", "b", 0.1]],
                        "overrides": [["a", "a", "b", 0.0], ["zz", "a", "b", 0.2]],
                    }
                ),
                "baseline.overrides[1]",
                id="baseline-override-by-unknown-observer",
            ),
            pytest.param(
                lambda d: d.update(
                    baseline={
                        "scores": SCORES,
                        "distances": [["a", "b", 0.1]],
                        "overrides": [["a", "a", "zz", 0.2]],
                    }
                ),
                "baseline.overrides[0]",
                id="baseline-override-for-unknown-pair",
            ),
            pytest.param(
                lambda d: d.update(
                    individuals=["a", "b", "c"],
                    sim={i: {i: 1.0} for i in "abc"},
                    rec={"values": {"a": 1, "b": 0, "c": 1}},
                    baseline={
                        "scores": SCORES,
                        "distances": [["a", "b", 0.1]],
                        "overrides": [["c", "a", "b", 0.0]],
                    },
                ),
                "baseline.overrides[0]",
                id="baseline-override-by-a-non-party",
            ),
            pytest.param(lambda d: d["sim"]["a"].update({"b": True}), "sim.a.b", id="sim-bool"),
            pytest.param(
                lambda d: d["sim"]["a"].update({"b": 10**400}), "sim.a.b", id="sim-huge-int"
            ),
            pytest.param(lambda d: d["sim"].update({"b": [1.0]}), "sim.b", id="sim-row-not-an-object"),
            pytest.param(
                lambda d: d["rec"]["values"].update({"a": True}), "rec.values.a", id="rec-bool"
            ),
            pytest.param(
                lambda d: d["rec"]["values"].update({"a": 10**400}),
                "rec.values.a",
                id="rec-huge-int",
            ),
            pytest.param(
                lambda d: d["rec"]["values"].update({"b": 0.5}),
                "rec.values.b",
                id="rec-binary-half",
            ),
            pytest.param(
                lambda d: d["rec"].update(kind="score", values={"a": 0.5, "b": float("nan")}),
                "rec.values.b",
                id="rec-score-nan",
            ),
            pytest.param(
                lambda d: d["rec"]["values"].update({"a": "1"}), "rec.values.a", id="rec-string"
            ),
            pytest.param(
                lambda d: d.update(
                    individuals=["a", "1"],
                    sim={"a": {"a": 1.0}, "1": {"1": 1.0}},
                    rec={"values": {"a": 1, "1": 0}},
                    baseline={"scores": {"a": 0.0, "1": 1.0}, "distances": [[1, "a", 0.5]]},
                ),
                "baseline.distances[0]",
                id="baseline-distance-with-a-number-id",
            ),
            pytest.param(
                lambda d: d.update(
                    individuals=["a", "1"],
                    sim={"a": {"a": 1.0}, "1": {"1": 1.0}},
                    rec={"values": {"a": 1, "1": 0}},
                    baseline={
                        "scores": {"a": 0.0, "1": 1.0},
                        "distances": [["1", "a", 0.5]],
                        "overrides": [["a", "a", 1, 0.2]],
                    },
                ),
                "baseline.overrides[0]",
                id="baseline-override-with-a-number-id",
            ),
            pytest.param(
                lambda d: d.update(
                    attributes={"a": {"5": 1}, "b": {"5": 20}},
                    strategy={
                        "kind": "veto",
                        "veto_rules": [{"attribute": 5, "op": "<", "value": 10}],
                    },
                ),
                "strategy.veto_rules[0].attribute",
                id="veto-rule-with-a-number-attribute",
            ),
            pytest.param(
                lambda d: d.update(
                    attributes={"a": {"g": 1}, "b": {"g": 20}},
                    strategy={
                        "kind": "veto",
                        "veto_rules": [{"attribute": "g", "op": ["<"], "value": 10}],
                    },
                ),
                "strategy.veto_rules[0].op",
                id="veto-rule-with-a-list-op",
            ),
            (lambda d: d.update(purpose=None), "purpose"),
            (lambda d: d.update(purpose=0), "purpose"),
            (
                lambda d: d.update(attributes={"a": {"group": [1]}, "b": {"group": 2}}),
                "attributes.a.group",
            ),
            (
                lambda d: d.update(attributes={"a": {"group": 1}, "b": {"group": {"k": 1}}}),
                "attributes.b.group",
            ),
            # both were refused at individuals
            pytest.param(
                lambda d: d.update(attributes={"a": {"g": 1}, "b": {"g": 2}, "zz": {"g": 1}}),
                "attributes.zz",
                id="attributes-of-an-unknown-id",
            ),
            pytest.param(
                lambda d: d.update(attributes={"a": {"g": 1}, "b": {"h": 1}}),
                "attributes",
                id="attribute-keys-that-differ",
            ),
            # each settings refusal at its own field, not at its section
            pytest.param(
                lambda d: d["params"].update({"epsilon": 1.0}),
                "params.epsilon",
                id="params-epsilon-out-of-range",
            ),
            pytest.param(
                lambda d: d["params"].update({"theta": 1.0}),
                "params.theta",
                id="params-theta-out-of-range",
            ),
            pytest.param(
                lambda d: d.update(strategy={"theta": 1.5}),
                "strategy.theta",
                id="strategy-theta-out-of-range",
            ),
            pytest.param(
                lambda d: d.update(
                    strategy={
                        "kind": "veto",
                        "veto_rules": [{"attribute": "g", "op": "~", "value": 1}],
                    }
                ),
                "strategy.veto_rules[0].op",
                id="veto-rule-with-an-unknown-op",
            ),
        ],
    )
    def test_schema_violations_carry_field_location(self, mutate, location):
        doc = _minimal_doc()
        mutate(doc)
        with pytest.raises(RunFileError) as err:
            from_dict(doc)
        assert err.value.location == location

    def test_first_scored_pair_without_a_distance_is_named(self):
        scores = {"c": 0.0, "a": 0.5, "b": 1.0}
        doc = _minimal_doc(
            individuals=["a", "b", "c"],
            sim={i: {i: 1.0} for i in "abc"},
            rec={"values": {"a": 1, "b": 0, "c": 1}},
            baseline={"scores": scores, "distances": [["c", "a", 0.2], ["a", "a", 0.0]]},
        )
        with pytest.raises(RunFileError, match=r"scored pair \(a, b\)") as err:
            from_dict(doc)
        assert err.value.location == "baseline.distances"
        doc["baseline"]["distances"] += [["b", "a", 0.3], ["c", "b", 0.4]]
        assert from_dict(doc).baseline.distances.entries[("b", "c")] == 0.4

    def test_integer_values_load_as_floats(self):
        doc = _minimal_doc(
            sim={"a": {"a": 1, "b": 0}, "b": {"b": 1}},
            baseline={"scores": {"a": 0, "b": 1}, "distances": [["a", "b", 1]]},
        )
        run = from_dict(doc)
        assert to_dict(run)["sim"] == {"a": {"a": 1.0, "b": 0.0}, "b": {"b": 1.0}}
        assert type(run.perceptions.similarity("a", "a")) is float
        assert type(run.baseline.distances.entries[("a", "b")]) is float

    def test_strategy_theta_may_be_omitted(self):
        doc = _minimal_doc(params={"delta": 0.5, "theta": 0.3}, strategy={"kind": "pessimistic"})
        run = from_dict(doc)
        assert run.strategy.theta == run.params.theta == 0.3
        assert to_dict(run)["strategy"]["theta"] == 0.3

    def test_veto_rule_with_unknown_attribute_rejected_at_load(self):
        doc = _minimal_doc(
            attributes={"a": {"age": 20}, "b": {"age": 30}},
            strategy={
                "kind": "veto",
                "veto_rules": [{"attribute": "income", "op": "<", "value": 10}],
            },
        )
        with pytest.raises(RunFileError, match="unknown attribute"):
            loads_run(json.dumps(doc))

    def test_ledger_round_trips(self):
        doc = _minimal_doc(ledger={"a": {"SYSTEM_RECOMMENDATION": "accepted"}})
        run = from_dict(doc)
        assert run.ledger is not None
        assert run.ledger[("a", "SYSTEM_RECOMMENDATION")] == "accepted"
        assert to_dict(run)["ledger"] == {"a": {"SYSTEM_RECOMMENDATION": "accepted"}}

    def test_a_run_tests_the_baseline_ids_without_reading_its_pairs(self, monkeypatch, capsys):
        # work gate by counted reads of the distance table: once the
        # baseline has gathered its ids, building a run reads no stored
        # pair, a report at other settings builds no second run, and the
        # report reads each pair once
        run = generate_population(SynthProfile(n=60, seed=9))
        scored = run.population.individuals[:40]
        rng = random.Random(11)
        table = ObjectiveDistanceTable(
            {pair: rng.random() / 2 for pair in itertools.combinations(scored, 2)}
        )
        entries = counted_map(table, "entries")
        baseline = BaselineInputs({i: rng.random() for i in scored}, table)
        entries.reads = 0
        built = []

        def counted(self, check=AuditRunFile.__post_init__):
            check(self)
            built.append(entries.reads)

        monkeypatch.setattr(AuditRunFile, "__post_init__", counted)
        run = dataclasses.replace(run, baseline=baseline)
        monkeypatch.setattr(cli, "load_run", lambda path: run)
        argv = ["report", "--input", "run.json", "--delta", "0.3", "--format", "json"]
        assert main(argv) == 0
        assert "objective_if" in capsys.readouterr().out
        assert built == [0]
        assert entries.reads == len(entries.data)

    def test_a_clean_file_is_checked_in_bulk(self, monkeypatch):
        # work gate by counted calls: on a clean file with a baseline, no
        # sim row is converted one by one and add_distances reads no row one
        # by one; one int similarity and one int distance take both paths
        run = generate_population(SynthProfile(n=30, cluster_density=0.3, seed=4))
        ids = run.population.individuals
        distances = {(x, y): 0.5 for i, x in enumerate(ids) for y in ids[i + 1 :]}
        table = ObjectiveDistanceTable(distances, {(ids[1], ids[1], ids[0]): 0.25})
        baseline = BaselineInputs(dict.fromkeys(ids, 0.5), table)
        doc = json.loads(dumps_run(dataclasses.replace(run, baseline=baseline)))
        walked = []
        as_floats, add_row = core.as_floats, baselines._add_row

        def counted_as_floats(numbers, name, path=()):
            walked.append(path[:1])
            return as_floats(numbers, name, path)

        def counted_add_row(table, row, name):
            walked.append(name)
            add_row(table, row, name)

        monkeypatch.setattr(core, "as_floats", counted_as_floats)
        monkeypatch.setattr(baselines, "_add_row", counted_add_row)
        assert loads_run(json.dumps(doc)).baseline == baseline
        assert walked == []
        doc["sim"][ids[0]][ids[0]] = 1
        doc["baseline"]["distances"][0][2] = 1
        loads_run(json.dumps(doc))
        assert walked.count(("rows",)) == len(ids)
        assert walked.count("entries") == len(distances)

    def test_baseline_section_round_trips(self):
        doc = _minimal_doc(
            baseline={
                "scores": {"a": 0.85, "b": 0.9},
                "distances": [["a", "b", 0.05]],
                "overrides": [["a", "a", "b", 0.04]],
            }
        )
        run = from_dict(doc)
        assert run.baseline.distances.subjective_overrides == {("a", "a", "b"): 0.04}
        assert to_dict(run)["baseline"] == doc["baseline"]

    def test_loading_makes_no_second_pass_over_the_tables(self, monkeypatch):
        # complexity gate by counted calls: the loader keys every row as the
        # tables keep them, so neither constructor's pass over the rows runs;
        # a table built by hand still runs it
        run = generate_population(SynthProfile(n=30, cluster_density=0.3, seed=4))
        ids = run.population.individuals
        distances = {(x, y): 0.5 for i, x in enumerate(ids) for y in ids[i + 1 :]}
        overrides = {(ids[1], ids[1], ids[0]): 0.25}
        table = ObjectiveDistanceTable(distances, overrides)
        baseline = BaselineInputs(dict.fromkeys(ids, 0.5), table)
        text = dumps_run(dataclasses.replace(run, baseline=baseline))
        passes = []
        for table in (PerceptionTable, ObjectiveDistanceTable):
            def counted(self, *args, check=table.__init__):
                passes.append(self)
                check(self, *args)

            monkeypatch.setattr(table, "__init__", counted)
        loaded = loads_run(text)
        assert passes == []
        assert loaded.perceptions == run.perceptions
        assert loaded.baseline == baseline
        assert dumps_run(loaded) == text
        hand_built = [
            PerceptionTable(run.perceptions.rows, "sampled"),
            ObjectiveDistanceTable(distances, overrides),
        ]
        assert passes == hand_built


def _rich_fixture_doc():
    """The bundled fixture with every optional section filled in."""
    doc = _fixture_doc()
    doc["attributes"] = {i: {"age": 15 + 3 * k} for k, i in enumerate(doc["individuals"])}
    doc["strategy"] = {
        "kind": "veto",
        "theta": 0.5,
        "veto_rules": [{"attribute": "age", "op": "<", "value": 18, "vetoes": 1}],
    }
    doc["ledger"] = {"x": {"SYSTEM_RECOMMENDATION": "accepted"}}
    doc["baseline"] = {
        "scores": {"x": 0.2, "y": 0.8},
        "distances": [["x", "y", 0.5]],
        "overrides": [["x", "x", "y", 0.4]],
    }
    return doc


def _field_paths():
    doc = _rich_fixture_doc()
    paths = [(key,) for key in sorted(doc)]
    paths += [(key, sub) for key in sorted(doc) if isinstance(doc[key], dict) for sub in sorted(doc[key])]
    paths += [("strategy", "veto_rules", 0, key) for key in sorted(doc["strategy"]["veto_rules"][0])]
    return paths


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(_field_paths()), value=_JSON_VALUES)
def test_any_json_value_in_any_field_gives_a_run_or_run_file_error(path, value):
    doc = _rich_fixture_doc()
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    try:
        run = loads_run(json.dumps(doc))
    except RunFileError:
        return
    assert isinstance(run, AuditRunFile)


def _set(*path):
    """Put the value at ``path`` of the document."""

    def put(doc, value):
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value

    return put


def _append(*path, row=lambda value: value):
    """Append ``row(value)`` to the list at ``path`` of the document."""

    def put(doc, value):
        section = doc
        for key in path:
            section = section[key]
        section.append(row(value))

    return put


#: Every number field, every kind of id field and an attribute value of
#: ``_rich_fixture_doc``, and the rows that hold them. An id is put in a
#: row of its own, so the run is refused for the id and nothing else.
_VALUE_FIELDS = {
    "sim value": _set("sim", "x", "y"),
    "sim row": _set("sim", "x"),
    "rec value": _set("rec", "values", "x"),
    "purpose": _set("purpose"),
    "delta": _set("params", "delta"),
    "epsilon": _set("params", "epsilon"),
    "params theta": _set("params", "theta"),
    "strategy theta": _set("strategy", "theta"),
    "vetoes": _set("strategy", "veto_rules", 0, "vetoes"),
    "score": _set("baseline", "scores", "x"),
    "distance": _set("baseline", "distances", 0, 2),
    "override": _set("baseline", "overrides", 0, 3),
    "individual": _append("individuals"),
    "distance id": _append("baseline", "distances", row=lambda i: [i, "u", 0.25]),
    "override id": _append("baseline", "overrides", row=lambda i: [i, i, "u", 0.25]),
    "attribute value": _set("attributes", "x", "group"),
    "attribute row": _set("attributes", "x"),
    "rec values": _set("rec", "values"),
    "scores": _set("baseline", "scores"),
    "distance rows": _set("baseline", "distances"),
    "override rows": _set("baseline", "overrides"),
    "ledger": _set("ledger"),
}


@pytest.mark.parametrize(
    "build, path",
    [
        (lambda: RecommendationVector("p", 5), ("values",)),
        (lambda: ObjectiveDistanceTable(5), ("entries",)),
        (lambda: ObjectiveDistanceTable({}, 5), ("subjective_overrides",)),
        (lambda: ObjectiveDistanceTable.from_rows(5), ("entries",)),
        (lambda: ObjectiveDistanceTable.from_rows([], {}), ("subjective_overrides",)),
        (lambda: BaselineInputs(5, ObjectiveDistanceTable({})), ("scores",)),
        (lambda: BaselineInputs({}, {}), ("distances",)),
        (lambda: AcceptanceLedger([1]), ("states",)),
        (lambda: AcceptanceLedger({"x": "accepted"}), ("states", "x")),
    ],
    ids=[
        "rec-values", "entries", "overrides", "entry-rows", "override-rows",
        "scores", "distances", "ledger", "ledger-key",
    ],
)
def test_a_constructor_refuses_a_section_of_the_wrong_type_at_its_path(build, path):
    with pytest.raises(InputError) as refused:
        build()
    assert refused.value.path == path


def _table_in_code(distances, overrides):
    """The distance table of the document's rows, built from maps where a
    map can key every row, else from the rows themselves."""
    if isinstance(distances, list) and isinstance(overrides, list):
        try:
            return ObjectiveDistanceTable(
                *({tuple(row[:-1]): row[-1] for row in rows} for rows in (distances, overrides))
            )
        except (TypeError, IndexError):  # a row that no map can key
            pass
    return ObjectiveDistanceTable.from_rows(distances, overrides)


def _run_in_code(doc):
    """The run of ``doc`` made by the engine's constructors from the
    document's own values, with no loader in between."""
    rec, strategy, baseline, ledger = doc["rec"], doc["strategy"], doc["baseline"], doc["ledger"]
    # a null ledger means no ledger in code, which a file states by leaving it out
    assume(ledger is not None)
    if isinstance(ledger, dict) and all(isinstance(row, dict) for row in ledger.values()):
        ledger = {(i, kind): state for i, row in ledger.items() for kind, state in row.items()}
    rules = tuple(
        VetoRule(r["attribute"], r["op"], r["value"], r["vetoes"]) for r in strategy["veto_rules"]
    )
    return AuditRunFile(
        population=Population(tuple(doc["individuals"]), doc["attributes"]),
        perceptions=PerceptionTable(doc["sim"], doc["provenance"]),
        recommendations=RecommendationVector(doc["purpose"], rec["values"], rec["kind"]),
        params=AuditParams(**doc["params"]),
        strategy=AggregationStrategy(strategy["kind"], strategy["theta"], rules),
        ledger=AcceptanceLedger(ledger),
        baseline=BaselineInputs(
            baseline["scores"], _table_in_code(baseline["distances"], baseline["overrides"])
        ),
        metadata=doc["metadata"],
    )


@settings(max_examples=600, deadline=None)
@given(field=st.sampled_from(sorted(_VALUE_FIELDS)), value=_JSON_VALUES)
@example(field="score", value="0.5")
@example(field="score", value=True)
@example(field="distance", value=True)
@example(field="distance", value="0.5")
@example(field="distance", value=None)
@example(field="sim row", value=[1.0])
@example(field="sim row", value=None)
@example(field="individual", value=1)
@example(field="attribute value", value=[1])
@example(field="rec values", value=5)
@example(field="scores", value=[])
@example(field="distance rows", value={})
@example(field="override rows", value=5)
@example(field="ledger", value=[1])
@example(field="ledger", value={"x": "accepted"})
def test_a_value_built_in_code_and_loaded_from_a_file_are_refused_alike(field, value):
    # the loader only locates what the engine's constructors refuse: a value
    # they took in code, such as a bool score, a None row or a number id,
    # was refused in a file or ended in another exception, and a run they
    # built could fail to be written
    doc = _rich_fixture_doc()
    for k, attributes in enumerate(doc["attributes"].values()):
        attributes["group"] = "ab"[k % 2]  # an attribute no veto rule compares
    _VALUE_FIELDS[field](doc, value)
    try:
        loaded = loads_run(json.dumps(doc), validate=False)
    except RunFileError:
        loaded = None
    try:
        built = _run_in_code(doc)
    except InputError:
        built = None
    assert (built is None) == (loaded is None)
    if built is not None:
        assert dumps_run(built) == dumps_run(loaded)


class TestSynth:
    def test_generation_is_deterministic_in_seed(self):
        profile = SynthProfile(n=8, cluster_density=0.4, base_positive_rate=0.6, seed=42)
        assert dumps_run(generate_population(profile)) == dumps_run(
            generate_population(profile)
        )

    def test_different_seeds_differ(self):
        one = generate_population(SynthProfile(n=8, seed=1))
        two = generate_population(SynthProfile(n=8, seed=2))
        assert dumps_run(one) != dumps_run(two)

    def test_generated_runs_validate(self):
        for seed in range(10):
            run = generate_population(SynthProfile(n=7, cluster_density=0.5, seed=seed))
            save = dumps_run(run)
            assert loads_run(save) == run  # load re-validates

    def test_zero_density_gives_singleton_clusters(self):
        run = generate_population(SynthProfile(n=6, cluster_density=0.0, seed=3))
        family = build_cluster_family(run.population, run.perceptions, run.params.delta)
        assert family.members == [[k] for k in range(run.n)]

    def test_manipulated_agent_absorbs_target_cluster(self):
        ids_run = generate_population(
            SynthProfile(n=6, cluster_density=0.5, seed=9, manipulation=(("i00", "i05"),))
        )
        delta = ids_run.params.delta
        family = build_cluster_family(ids_run.population, ids_run.perceptions, delta)
        agent, target = ids_run.population.positions["i00"], ids_run.population.positions["i05"]
        assert set(family.members[target]) <= set(family.members[agent]) | {agent}

    def test_unknown_manipulation_ids_rejected(self):
        with pytest.raises(Exception):
            generate_population(SynthProfile(n=3, manipulation=(("i00", "zz"),)))

    @pytest.mark.parametrize(
        "given, path, message",
        [
            ({"n": 2.5}, ("n",), "n: expected an int, got 2.5"),
            ({"n": True}, ("n",), "n: expected an int, got True"),
            ({"n": 0}, ("n",), "population size must be >= 1, got 0"),
            (
                {"cluster_density": "0.3"},
                ("cluster_density",),
                "cluster_density: expected a number, got '0.3'",
            ),
            (
                {"base_positive_rate": None},
                ("base_positive_rate",),
                "base_positive_rate: expected a number, got None",
            ),
            (
                {"cluster_density": 2},
                ("cluster_density",),
                "cluster_density must be in [0, 1], got 2.0",
            ),
            ({"manipulation": ((1, 2),)}, ("manipulation", 0), "expected an id string, got 1"),
            (
                {"manipulation": (("i00", "i01"), ("i02",))},
                ("manipulation", 1),
                "expected an (agent, target) pair, got ('i02',)",
            ),
            (
                {"manipulation": 5},
                ("manipulation",),
                "manipulation: expected a list of (agent, target) pairs, got 5",
            ),
            ({"seed": [1]}, ("seed",), "seed: expected an int, got [1]"),
            ({"seed": 1.5}, ("seed",), "seed: expected an int, got 1.5"),
            ({"seed": True}, ("seed",), "seed: expected an int, got True"),
            (
                {"n": 3, "manipulation": (("i00", "i01"), ("i02", "zz"))},
                ("manipulation", 1),
                "manipulation references unknown id 'zz'",
            ),
        ],
    )
    def test_profile_refuses_each_bad_field_at_its_name(self, given, path, message):
        # a profile built in code is refused, not crashed on or coerced:
        # the manipulation pair (1, 2) is not read as the unknown id '1'
        with pytest.raises(InputError) as err:
            SynthProfile(**given)
        assert err.value.path == path
        assert str(err.value) == message

    def test_profile_keeps_numbers_as_floats_and_pairs_as_tuples(self):
        profile = SynthProfile(n=6, cluster_density=1, manipulation=[["i00", "i05"]], seed=9)
        assert profile.cluster_density == 1.0 and type(profile.cluster_density) is float
        assert profile.manipulation == (("i00", "i05"),)
        same = SynthProfile(n=6, cluster_density=1.0, manipulation=(("i00", "i05"),), seed=9)
        assert dumps_run(generate_population(profile)) == dumps_run(generate_population(same))

    @pytest.mark.parametrize(
        "n, density, seed, manipulation",
        [
            (1, 0.3, 0, ()),
            (9, 0.0, 1, ()),
            (9, 1.0, 2, ()),
            (40, 0.3, 3, ()),
            (120, 0.02, 4, ()),
            (12, 0.5, 9, (("i00", "i11"),)),
        ],
    )
    def test_honest_rows_draw_as_the_per_pair_loop(
        self, monkeypatch, n, density, seed, manipulation
    ):
        # the sliced loop asks the generator for the same draws in the same
        # order as a loop over every pair that skips the diagonal
        profile = SynthProfile(n=n, cluster_density=density, seed=seed, manipulation=manipulation)
        sliced = dumps_run(generate_population(profile))
        monkeypatch.setattr(synth, "honest_rows", honest_rows_by_pair)
        assert dumps_run(generate_population(profile)) == sliced


class TestOracle:
    def test_fixture_matches_engine(self):
        run = crossed_clusters_run()
        assert brute_force_oracle(run) == build_audit_doc(audit_run(run))

    def test_random_runs_match_engine(self):
        for seed in range(30):
            rng = random.Random(seed)
            run = generate_population(
                SynthProfile(
                    n=rng.randint(1, 8),
                    cluster_density=rng.random(),
                    base_positive_rate=rng.random(),
                    seed=seed,
                )
            )
            assert brute_force_oracle(run) == build_audit_doc(audit_run(run))

    def test_alternative_strategies_match_engine(self):
        for seed in range(15):
            base = generate_population(SynthProfile(n=6, cluster_density=0.5, seed=seed))
            for kind in ("trust_weighted", "pessimistic"):
                run = dataclasses.replace(
                    base, strategy=AggregationStrategy(kind, theta=base.params.theta)
                )
                assert brute_force_oracle(run) == build_audit_doc(audit_run(run))

    @pytest.mark.parametrize("kind", ["majority", "trust_weighted", "pessimistic", "veto"])
    def test_mid_sized_runs_match_engine(self, kind):
        # past the default bound, where clusters overlap heavily and the
        # trust-weighted stage reads one weight across many clusters. The
        # second round recommends scores at epsilon > 0: only there do raw
        # and binarized comparisons part.
        cases = [(40, 0.3, 0.5), (50, 0.5, 0.4), (60, 0.8, 0.6), (45, 0.0, 0.5)]
        for seed, (n, delta, theta) in enumerate(cases * 2):
            base = generate_population(SynthProfile(n=n, cluster_density=0.4, seed=seed))
            ids = base.population.individuals
            population, recs, epsilon = base.population, base.recommendations, 0.0
            if seed >= len(cases):
                rng = random.Random(seed)
                recs = RecommendationVector(
                    recs.purpose, {i: round(rng.random(), 2) for i in ids}, "score"
                )
                epsilon = (0.1, 0.3, 0.5, 0.8)[seed - len(cases)]
            rules = ()
            if kind == "veto":
                population = Population(ids, {i: {"age": 15 + k % 7} for k, i in enumerate(ids)})
                rules = (VetoRule("age", "<", 18),)
            run = dataclasses.replace(
                base,
                population=population,
                recommendations=recs,
                params=AuditParams(delta=delta, epsilon=epsilon, theta=theta),
                strategy=AggregationStrategy(kind, theta=theta, veto_rules=rules),
            )
            assert brute_force_oracle(run, bound=n) == build_audit_doc(audit_run(run))

    def test_veto_strategy_matches_engine(self):
        base = generate_population(SynthProfile(n=5, cluster_density=0.6, seed=4))
        ids = base.population.individuals
        population = Population(
            ids, {i: {"age": 15 + 3 * k} for k, i in enumerate(ids)}
        )
        strategy = AggregationStrategy(
            "veto", theta=base.params.theta, veto_rules=(VetoRule("age", "<", 18),)
        )
        run = dataclasses.replace(base, population=population, strategy=strategy)
        assert brute_force_oracle(run) == build_audit_doc(audit_run(run))

    def test_veto_rule_passes_over_people_the_attributes_leave_out(self):
        # attributes may cover only some people; a rule matches no one they
        # leave out, so y's positive decision stands while v's is vetoed
        doc = _veto_doc(1)
        doc["attributes"] = {"v": {"age": 10}, "x": {"age": 10}}
        run = from_dict(doc)
        result = audit_run(run)
        decisions = dict(zip(run.population.individuals, result.report.decisions))
        assert decisions == {"x": 0, "y": 1, "u": 0, "v": 0}
        assert brute_force_oracle(run) == build_audit_doc(result)

    @pytest.mark.parametrize(
        "vetoes, decisions",
        [(None, "u=0 v=1 x=0 y=1"), (0, "u=0 v=1 x=0 y=1"), (1, "u=0 v=0 x=0 y=0")],
    )
    def test_only_a_rule_that_vetoes_1_changes_a_decision(
        self, tmp_path, capsys, vetoes, decisions
    ):
        # a matching person's decision is set to 0 only when it equals the
        # vetoed label, so a rule with vetoes 0 decides as no rule does
        path = tmp_path / "veto.json"
        path.write_text(json.dumps(_veto_doc(vetoes)))
        assert main(["decide", "--input", str(path)]) == 0
        assert capsys.readouterr().out.endswith(f"decisions: {decisions}\n")
        run = load_run(path)
        doc = build_audit_doc(audit_run(run))
        assert brute_force_oracle(run) == doc
        if vetoes == 0:
            plain = build_audit_doc(audit_run(from_dict(_veto_doc(None))))
            assert {**doc, "strategy": None} == {**plain, "strategy": None}

    def test_single_individual_run(self):
        run = generate_population(SynthProfile(n=1, seed=0))
        doc = brute_force_oracle(run)
        assert doc["sf"]["verdict"] == "fair"
        assert doc["dec"] == run.recommendations.values
        assert doc == build_audit_doc(audit_run(run))

    def test_refuses_large_populations(self):
        run = generate_population(SynthProfile(n=12, seed=0))
        with pytest.raises(ValueError, match="exceeds oracle bound"):
            brute_force_oracle(run)


def _veto_doc(vetoes):
    """The fixture with age 10 for everyone, under the rule ``age < 18``
    vetoing ``vetoes``, or under no rule for ``None``."""
    doc = _fixture_doc()
    doc["attributes"] = {i: {"age": 10} for i in doc["individuals"]}
    if vetoes is not None:
        rule = {"attribute": "age", "op": "<", "value": 18, "vetoes": vetoes}
        doc["strategy"] = {"kind": "veto", "veto_rules": [rule]}
    return doc


def test_a_sweep_compares_each_veto_rule_with_each_person_once_per_point(
    tmp_path, monkeypatch
):
    # work gate by counted calls: a 3x3 sweep builds its run once and
    # audits 9 points, so each rule meets each covered person 10 times,
    # a rule that vetoes 0 included
    doc = _veto_doc(1)
    doc["attributes"] = {i: {"age": 10 + k} for k, i in enumerate(doc["individuals"])}
    doc["strategy"]["veto_rules"].append({"attribute": "age", "op": ">", "value": 11, "vetoes": 0})
    path = tmp_path / "veto.json"
    path.write_text(json.dumps(doc))
    compared = collections.Counter()
    matches = VetoRule.matches

    def counted_matches(rule, attributes):
        compared[rule.op, attributes["age"]] += 1
        return matches(rule, attributes)

    monkeypatch.setattr(VetoRule, "matches", counted_matches)
    grid = ["--deltas", "0.3,0.5,0.7", "--thetas", "0.2,0.5,0.7"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--input", str(path), "--sweep", *grid]) == 0
    ages = range(10, 10 + len(doc["individuals"]))
    assert compared == {(op, age): 10 for op in ("<", ">") for age in ages}


def _unanimous_run():
    inputs = make_inputs(
        {"a": {"a": 1.0, "b": 0.8}, "b": {"b": 1.0, "a": 0.8}}, {"a": 1, "b": 1}
    )
    return AuditRunFile(
        population=inputs.pop,
        perceptions=inputs.table,
        recommendations=inputs.recs,
        params=inputs.params,
        strategy=AggregationStrategy(theta=inputs.params.theta),
    )


def _suspect_run():
    inputs = make_inputs(
        {"a": {"a": 1.0, "b": 0.8, "c": 0.8}, "b": {"b": 1.0}, "c": {"c": 1.0}},
        {"a": 1, "b": 0, "c": 0},
    )
    return AuditRunFile(
        population=inputs.pop,
        perceptions=inputs.table,
        recommendations=inputs.recs,
        params=inputs.params,
        strategy=AggregationStrategy(theta=inputs.params.theta),
    )


class TestReport:
    def test_decide_run_refuses_a_missing_recommendation_as_audit_run_does(self):
        # a run built in code is not validated at load: both pipeline entries
        # validate it first, and refuse it where load_run would
        run = crossed_clusters_run()
        values = {x: v for x, v in run.recommendations.values.items() if x != "v"}
        broken = dataclasses.replace(
            run, recommendations=RecommendationVector(run.purpose, values)
        )
        for call in (decide_run, audit_run):
            with pytest.raises(RunFileError, match=r"^rec\(v\): no recommendation for v$") as err:
                call(broken)
            assert err.value.location == "rec(v)"

    def test_fixture_decisions_in_text_report(self):
        result = audit_run(crossed_clusters_run())
        text = render_text(build_report_doc(result))
        assert "decisions: u=0 v=1 x=0 y=1" in text
        assert "set recommendations: u=0 v=1 x=0 y=1" in text

    def test_unanimous_run_reports_fair_and_no_obligations(self):
        text = render_text(build_report_doc(audit_run(_unanimous_run())))
        assert "SF: fair" in text
        assert "obligations: 0" in text

    def test_system_suspect_raises_review_flag(self):
        doc = build_report_doc(audit_run(_suspect_run()))
        assert SYSTEM_REVIEW_FLAG in doc["flags"]
        assert SYSTEM_REVIEW_FLAG in render_text(doc)

    def test_report_bytes_are_deterministic(self):
        one = dumps_doc(build_report_doc(audit_run(crossed_clusters_run())))
        two = dumps_doc(build_report_doc(audit_run(crossed_clusters_run())))
        assert one == two

    @pytest.mark.parametrize("name", ["fixture", "generated"])
    def test_report_states_each_fact_once(self, name):
        # no transposed membership, one tag table for every obligation's
        # kind, and the procedural check as it is computed
        if name == "fixture":
            run = crossed_clusters_run()
        else:
            run = generate_population(SynthProfile(n=60, cluster_density=0.3, seed=5))
            run = dataclasses.replace(run, metadata={"ethicality_asserted": True})
        doc = build_report_doc(audit_run(run))
        assert doc["schema"] == "subjfair-report/3"
        assert "membership" not in doc
        assert doc["obligations"]
        assert all(o.keys() == {"individual", "kind"} for o in doc["obligations"])
        assert doc["obligation_tags"] == {k: sorted(v) for k, v in KIND_TAGS.items()}
        asserted = run.metadata.get("ethicality_asserted") is True
        assert doc["procedural"] == procedural_check(asserted)

    def test_parity_included_on_request(self):
        inputs = make_inputs(
            {"a": {"a": 1.0}, "b": {"b": 1.0}},
            {"a": 1, "b": 0},
            attributes={"a": {"group": "A"}, "b": {"group": "B"}},
        )
        run = AuditRunFile(
            population=inputs.pop,
            perceptions=inputs.table,
            recommendations=inputs.recs,
            params=inputs.params,
            strategy=AggregationStrategy(theta=inputs.params.theta),
        )
        doc = build_report_doc(audit_run(run), group_attr="group")
        assert doc["baselines"]["statistical_parity"]["gap"] == 1.0


SUBCOMMANDS = ("validate", "audit", "decide", "baseline", "simulate", "oracle", "report")

#: A value each subcommand's parser refuses, after its name.
BAD_VALUES = {
    "validate": ["--format", "xml"],
    "audit": ["--delta", "abc"],
    "decide": ["--strategy", "bogus"],
    "baseline": ["--theta", "x"],
    "simulate": ["--n", "abc"],
    "oracle": ["--bound", "1.5"],
    "report": ["--format", "yaml"],
}


def _subcommands(parser):
    # the names a parser registers as subcommands, in order
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [[command, "-h"] for command in SUBCOMMANDS]
        + [["-h"], ["--version"], [], ["bogus"], ["audit"], ["--", "audit", "-h"]]
        + [[command, "--help"] for command in SUBCOMMANDS]
        + [[command, "--input", "x.json", "--bogus"] for command in SUBCOMMANDS]
        + [[command, *BAD_VALUES[command]] for command in SUBCOMMANDS]
        + [["--help"], ["-h", "audit"], ["audit", "--input", "x.json", "extra"]],
    )
    def test_parser_text_and_exit_code_match_the_full_parser(self, argv, capsys):
        # ``main`` registers only the subcommand it runs; what it prints and
        # its exit code are the full parser's
        def outcome(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            return exc.value.code, capsys.readouterr()

        full = outcome(cli.build_parser().parse_args)
        assert full[1].out or full[1].err
        assert outcome(main) == full

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_a_command_registers_only_its_own_parser(self, command):
        # work gate: the parser for a command's arguments builds one
        # subcommand parser; any other argument list gets all seven
        assert _subcommands(cli.build_parser([command, "--input", "x.json"])) == [command]
        for argv in (None, [], ["--help"], ["-h", command], ["bogus", command]):
            assert _subcommands(cli.build_parser(argv)) == list(SUBCOMMANDS)

    def test_validate_clean(self, capsys):
        code = main(["validate", "--input", str(crossed_clusters_path())])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_validate_reports_violations(self, tmp_path, capsys):
        doc = _minimal_doc(sim={"a": {"a": 0.9, "b": 0.8}, "b": {"b": 1.0}})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--input", str(path)])
        assert code == 2
        assert "self-similarity" in capsys.readouterr().out

    def test_audit_strict_flags_unfair_process(self, capsys):
        code = main(
            ["audit", "--input", str(crossed_clusters_path()), "--strict"]
        )
        assert code == 1
        assert "SF: unfair" in capsys.readouterr().out

    def test_audit_strict_passes_fair_process(self, tmp_path, capsys):
        path = save_run(_unanimous_run(), tmp_path / "fair.json")
        code = main(["audit", "--input", str(path), "--strict"])
        assert code == 0
        capsys.readouterr()

    def test_audit_json_format(self, capsys):
        code = main(
            ["audit", "--input", str(crossed_clusters_path()), "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dec"] == {"x": 0, "y": 1, "u": 0, "v": 1}

    def test_audit_parameter_overrides(self, capsys):
        code = main(
            [
                "audit",
                "--input",
                str(crossed_clusters_path()),
                "--delta",
                "0",
                "--theta",
                "0.4",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"] == {"delta": 0.0, "epsilon": 0.0, "theta": 0.4}
        # delta 0 puts everyone in every cluster
        assert all(len(m) == 4 for m in doc["clusters"].values())

    def test_decide_outputs_both_stages(self, capsys):
        code = main(["decide", "--input", str(crossed_clusters_path())])
        assert code == 0
        out = capsys.readouterr().out
        assert "set recommendations: u=0 v=1 x=0 y=1" in out
        assert "decisions: u=0 v=1 x=0 y=1" in out

    def test_baseline_subcommand(self, tmp_path, capsys):
        doc = _minimal_doc(
            baseline={
                "scores": {"a": 0.85, "b": 0.9},
                "distances": [["a", "b", 0.05]],
                "overrides": [["a", "a", "b", 0.04]],
            }
        )
        path = tmp_path / "base.json"
        path.write_text(json.dumps(doc))
        code = main(["baseline", "--input", str(path), "--format", "json"])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert got["objective_if"] == []
        assert [v["observer"] for v in got["subjective_if"]] == ["a"]

    def test_baseline_text_lists_only_baseline_violations(self, tmp_path, capsys):
        # The fixture owes obligations, whose lines the text report indents
        # the way it indents violations; the baseline text has none of them.
        doc = _fixture_doc()
        doc["attributes"] = {i: {"group": "g" if i in "xy" else "h"} for i in doc["individuals"]}
        doc["baseline"] = {"scores": {"x": 0.2, "y": 0.9}, "distances": [["x", "y", 0.3]]}
        path = tmp_path / "base.json"
        path.write_text(json.dumps(doc))
        code = main(["baseline", "--input", str(path), "--group-attr", "group"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "statistical parity on 'group': g=0.5000 h=0.5000 (gap 0.0000)",
            "objective IF violations: 1",
            "  - (x, y): gap 0.7000 > distance 0.3000",
            "subjective IF violations: 2",
            "  - observer x on (x, y): gap 0.7000 > perceived 0.3000",
            "  - observer y on (x, y): gap 0.7000 > perceived 0.3000",
        ]

    def test_baseline_requires_inputs(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(_minimal_doc()))
        code = main(["baseline", "--input", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_simulate_writes_runfile(self, tmp_path, capsys):
        out = tmp_path / "synth.json"
        code = main(
            ["simulate", "--n", "6", "--seed", "5", "--output", str(out)]
        )
        assert code == 0
        run = load_run(out)
        assert run.n == 6
        capsys.readouterr()

    def test_simulate_prints_its_report_in_the_format_asked(self, capsys):
        # without --sweep the report goes through the same writer as
        # ``audit``, so --format json prints the audit's JSON document
        path = str(crossed_clusters_path())
        for fmt in ("json", "text"):
            assert main(["audit", "--input", path, "--format", fmt]) == 0
            expected = capsys.readouterr().out
            assert main(["simulate", "--input", path, "--format", fmt]) == 0
            assert capsys.readouterr().out == expected
            assert expected.startswith("{") == (fmt == "json")

    @pytest.mark.parametrize("flag", ["--deltas", "--epsilons", "--thetas"])
    def test_simulate_refuses_a_grid_flag_without_sweep(self, capsys, flag):
        argv = ["simulate", "--input", str(crossed_clusters_path()), flag, "0.9"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} needs --sweep\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("--n", "50"), ("--density", "0.3"), ("--rate", "0.5"), ("--seed", "0"),
         ("--manipulate", "i00:i01")],
    )
    def test_simulate_refuses_a_generator_flag_with_input(self, capsys, flag, value):
        # --input reads the run, so a flag that would shape a generated one
        # is refused, even at its default value
        argv = ["simulate", "--input", str(crossed_clusters_path()), "--sweep", flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} shapes a generated run")

    def test_simulate_leaves_generator_defaults_to_the_profile(self, tmp_path, capsys):
        out = tmp_path / "synth.json"
        assert main(["simulate", "--output", str(out)]) == 0
        capsys.readouterr()
        assert load_run(out) == generate_population(SynthProfile())

    def test_simulate_sweep_emits_flat_table(self, capsys):
        code = main(
            [
                "simulate",
                "--input",
                str(crossed_clusters_path()),
                "--sweep",
                "--deltas",
                "0,0.5",
                "--thetas",
                "0.4,0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.strip().splitlines() if line]
        assert lines[0] == "delta,epsilon,theta,metric,value"
        # 4 combinations x one row per metric
        data_rows = lines[1:]
        assert len(data_rows) % 4 == 0
        assert all(len(row.split(",")) == 5 for row in data_rows)

    def test_sweep_validates_once_and_clusters_once_per_delta(
        self, tmp_path, monkeypatch, capsys
    ):
        # call-count gate: 12 grid points over 3 deltas validate once at
        # load and once for the whole grid, and build one family per delta
        from subjfair.harness import report, runfile

        path = save_run(
            generate_population(SynthProfile(n=60, cluster_density=0.3, seed=4)),
            tmp_path / "run.json",
        )
        calls = {"validate": 0, "cluster": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        validate = counting("validate", runfile.validate_population)
        monkeypatch.setattr(runfile, "validate_population", validate)
        monkeypatch.setattr(report, "validate_population", validate)
        monkeypatch.setattr(
            report, "build_cluster_family", counting("cluster", report.build_cluster_family)
        )
        code = main(
            [
                "simulate", "--input", str(path), "--sweep", "--deltas", "0.3,0.5,0.7",
                "--epsilons", "0.0,0.2", "--thetas", "0.4,0.5", "--format", "json",
            ]
        )
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)) == 12 * 12
        assert calls == {"validate": 2, "cluster": 3}

    def test_sweep_tallies_once_per_delta_and_audits_binary_runs_in_o_n(
        self, tmp_path, monkeypatch, capsys
    ):
        # call-count gate: 12 grid points over 3 deltas compute the stage-1
        # tally once per delta (one ``cluster_tally`` call per family, each
        # binarizing every person once, and nothing else binarizes), and the
        # binary audit makes at most three similarity tests per person, none
        # per cluster member
        from subjfair import aggregation, audit
        from subjfair.harness import report

        run = generate_population(SynthProfile(n=60, cluster_density=0.3, seed=4))
        assert run.recommendations.kind == "binary"
        path = save_run(run, tmp_path / "run.json")
        n = run.n
        deltas = (0.3, 0.5, 0.7)
        for delta in deltas:
            family = build_cluster_family(run.population, run.perceptions, delta)
            assert sum(map(len, family.members)) > 3 * n
        calls = {"binarize": 0, "similar": 0, "tally": 0}
        per_point = []

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        audit_population = report.audit_population

        def auditing(*args, **kwargs):
            before = calls["similar"]
            result = audit_population(*args, **kwargs)
            per_point.append(calls["similar"] - before)
            return result

        monkeypatch.setattr(aggregation, "binarize", counting("binarize", aggregation.binarize))
        monkeypatch.setattr(audit, "_similar", counting("similar", audit._similar))
        monkeypatch.setattr(report, "cluster_tally", counting("tally", report.cluster_tally))
        monkeypatch.setattr(report, "audit_population", auditing)
        code = main(
            [
                "simulate", "--input", str(path), "--sweep",
                "--deltas", ",".join(map(str, deltas)),
                "--epsilons", "0.0,0.2", "--thetas", "0.4,0.5", "--format", "json",
            ]
        )
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)) == 12 * 12
        assert calls["tally"] == len(deltas)
        assert calls["binarize"] == len(deltas) * n
        assert len(per_point) == 12
        assert max(per_point) <= 3 * n

    def test_sweep_points_build_no_per_person_record(self, tmp_path, monkeypatch, capsys):
        # work gate by counted constructions: on a loaded binary run with
        # sum |C| > 3n, no grid point of a sweep builds an obligation
        # record; ``RunResult.obligations`` builds them for callers who ask
        from subjfair import explanations

        run = generate_population(SynthProfile(n=60, cluster_density=0.3, seed=4))
        assert run.recommendations.kind == "binary"
        path = save_run(run, tmp_path / "run.json")
        loaded = load_run(path)
        for delta in (0.3, 0.5, 0.7):
            family = build_cluster_family(loaded.population, loaded.perceptions, delta)
            assert sum(map(len, family.members)) > 3 * run.n
        built = 0
        init = explanations.ExplanationObligation.__init__

        def counting(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(explanations.ExplanationObligation, "__init__", counting)
        code = main(
            [
                "simulate", "--input", str(path), "--sweep", "--deltas", "0.3,0.5,0.7",
                "--epsilons", "0.0,0.2", "--thetas", "0.4,0.5", "--format", "json",
            ]
        )
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)) == 12 * 12
        assert built == 0
        # the view still builds them on request
        obligations = audit_run(run).obligations
        assert built == len(obligations) > 0

    def test_cluster_build_makes_no_per_owner_object(self, tmp_path, monkeypatch):
        # work gate by counted constructions: a family is lists of
        # positions, with no frozenset per owner
        from subjfair import clustering

        run = load_run(
            save_run(
                generate_population(SynthProfile(n=60, cluster_density=0.3, seed=4)),
                tmp_path / "run.json",
            )
        )
        built = 0

        def counting_frozenset(*args):
            nonlocal built
            built += 1
            return frozenset(*args)

        monkeypatch.setattr(clustering, "frozenset", counting_frozenset, raising=False)
        for delta in (0.0, 0.3, 0.5, 0.7):
            family = build_cluster_family(run.population, run.perceptions, delta)
            assert sum(map(len, family.members)) > 3 * run.n
            assert built == 0

    def test_report_builds_as_many_records_at_any_size(self, tmp_path, monkeypatch):
        # work gate by counted constructions: loading a run with a group
        # attribute and baseline violations and building its full report
        # builds the same number of subjfair records (``Value`` subclasses
        # and dataclasses) at n = 120
        # with 30 scored people as at n = 240 with 60, so it builds none per
        # person or per pair
        paths = []
        for n, scored in ((120, 30), (240, 60)):
            run = generate_population(SynthProfile(n=n, cluster_density=0.3, seed=n))
            rng = random.Random(n)
            ids = run.population.individuals
            people = sorted(rng.sample(ids, scored))
            distances = {
                pair: round(0.2 + 0.8 * rng.random(), 3)
                for pair in itertools.combinations(people, 2)
            }
            overrides = {(pair[0], *pair): 0.0 for pair in list(distances)[::7]}
            run = dataclasses.replace(
                run,
                population=Population(ids, {i: {"group": rng.choice("ab")} for i in ids}),
                baseline=BaselineInputs(
                    {i: round(rng.random(), 3) for i in people},
                    ObjectiveDistanceTable(distances, overrides),
                ),
            )
            paths.append(save_run(run, tmp_path / f"n{n}.json"))

        built = 0
        classes = {
            cls
            for name, module in list(sys.modules.items())
            if name == "subjfair" or name.startswith("subjfair.")
            for cls in vars(module).values()
            if isinstance(cls, type)
            and cls.__module__.startswith("subjfair")
            and (dataclasses.is_dataclass(cls) or issubclass(cls, core.Value))
            and cls is not core.Value
        }
        for cls in classes:
            def counting(self, *args, _init=cls.__init__, **kwargs):
                nonlocal built
                built += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        counts = []
        for path in paths:
            built = 0
            run = load_run(path)
            doc = build_report_doc(audit_run(run), group_attr="group", include_baselines=True)
            counts.append(built)
            assert doc["baselines"]["objective_if"] and doc["baselines"]["subjective_if"]
        assert len(classes) > 10
        assert counts[0] == counts[1] > 0

    def test_decide_and_baseline_run_no_audit(self, tmp_path, monkeypatch, capsys):
        # call-count gate: decide prints the pipeline's labels and baseline
        # the parity of the decisions plus the IF checks; neither audits
        from subjfair.harness import report

        doc = _fixture_doc()
        doc["attributes"] = {i: {"g": "a" if i in "xy" else "b"} for i in doc["individuals"]}
        doc["baseline"] = {"scores": {"x": 0.2, "y": 0.9}, "distances": [["x", "y", 0.3]]}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        calls = {"audit": 0, "obligations": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            report, "audit_population", counting("audit", report.audit_population)
        )
        monkeypatch.setattr(
            report, "derive_obligations", counting("obligations", report.derive_obligations)
        )
        for argv in (
            ["decide"],
            ["decide", "--format", "json"],
            ["baseline", "--group-attr", "g"],
            ["baseline", "--format", "json"],
        ):
            assert main(argv + ["--input", str(path)]) == 0
        assert calls == {"audit": 0, "obligations": 0}
        assert main(["report", "--input", str(path)]) == 0
        assert calls == {"audit": 1, "obligations": 1}
        capsys.readouterr()

    def test_sweep_of_a_run_with_a_ledger(self, tmp_path, capsys):
        # the ledger names obligations of the run's own settings; the sweep
        # reports no explanation verdict and audits its points without it
        doc = _fixture_doc()
        doc["ledger"] = {"u": {"AGGREGATION_METHOD": "accepted"}}
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(doc))
        argv = ["simulate", "--input", str(path), "--sweep", "--deltas", "0,0.5,0.9"]
        assert main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        del doc["ledger"]
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(doc))
        assert main(["simulate", "--input", str(plain), "--sweep", "--deltas", "0,0.5,0.9",
                     "--format", "json"]) == 0
        assert rows == json.loads(capsys.readouterr().out)
        assert sorted({row["delta"] for row in rows}) == [0.0, 0.5, 0.9]
        assert {(row["delta"], row["metric"]): row["value"] for row in rows}[(0.5, "sf_fair")] == 0.0

    def test_engine_fault_is_neither_verdict_nor_input_error(self, monkeypatch, capsys):
        def broken(run, settings):
            raise KeyError("x")

        monkeypatch.setattr(cli, "audit_run", broken)
        code = main(["audit", "--input", str(crossed_clusters_path()), "--strict"])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "KeyError" in err

    def test_non_object_metadata_is_input_error(self, tmp_path, capsys):
        doc = _fixture_doc()
        doc["metadata"] = 0
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(doc))
        assert main(["audit", "--input", str(path), "--strict"]) == 2
        err = capsys.readouterr().err
        assert "metadata: expected an object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["no", "false", 1])
    def test_ethicality_asserted_other_than_a_boolean_is_input_error(
        self, tmp_path, capsys, value
    ):
        # read by truth, each of these would assert ethicality
        doc = _fixture_doc()
        doc["metadata"] = {"ethicality_asserted": value}
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "metadata.ethicality_asserted: expected true or false" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value, satisfied", [(True, "accuracy, consistency, ethicality"),
                                                   (False, "accuracy, consistency")])
    def test_ethicality_asserted_by_json_booleans(self, tmp_path, capsys, value, satisfied):
        doc = _fixture_doc()
        doc["metadata"] = {"ethicality_asserted": value}
        path = tmp_path / "meta.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--input", str(path)]) == 0
        assert f"procedural rules satisfied: {satisfied}\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "changes, location",
        [
            ({"metadata": {"ethicality_asserted": "yes"}}, "metadata.ethicality_asserted"),
            ({"metadata": {"ethicality_asserted": None}}, "metadata.ethicality_asserted"),
            ({"strategy": AggregationStrategy(theta=0.4)}, "strategy.theta"),
            pytest.param(
                {"strategy": AggregationStrategy("veto", veto_rules=(VetoRule("age", "<", 18),))},
                "strategy.veto_rules",
                id="veto-rule-on-a-missing-attribute",
            ),
            pytest.param(
                {
                    "baseline": BaselineInputs(
                        {"x": 0.0, "zz": 1.0}, ObjectiveDistanceTable({("x", "zz"): 0.1})
                    )
                },
                "baseline.scores.zz",
                id="score-outside-the-population",
            ),
            # dumps_run wrote these runs and loads_run refused them
            pytest.param(
                {
                    "baseline": BaselineInputs(
                        {"x": 0.0, "y": 1.0},
                        ObjectiveDistanceTable({("x", "y"): 0.5, ("u", "ghost"): 0.1}),
                    )
                },
                "baseline.distances[1]",
                id="distance-for-an-id-outside-the-population",
            ),
            pytest.param(
                {
                    "baseline": BaselineInputs(
                        {"x": 0.0, "y": 1.0},
                        ObjectiveDistanceTable({("x", "y"): 0.5}, {("ghost", "ghost", "x"): 0.1}),
                    )
                },
                "baseline.overrides[0]",
                id="override-for-an-id-outside-the-population",
            ),
        ],
    )
    def test_a_run_the_loader_would_refuse_cannot_be_built(self, changes, location):
        # the run checks itself, so every run that can be saved loads back
        with pytest.raises(RunFileError) as err:
            dataclasses.replace(crossed_clusters_run(), **changes)
        assert err.value.location == location

    @pytest.mark.parametrize("flag", ["--deltas", "--epsilons", "--thetas"])
    @pytest.mark.parametrize("grid", [",", "", " , ,"])
    def test_sweep_grid_listing_no_number_is_input_error(self, capsys, flag, grid):
        argv = ["simulate", "--input", str(crossed_clusters_path()), "--sweep", flag, grid]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} lists no number" in captured.err

    def test_oracle_subcommand_matches(self, capsys):
        code = main(["oracle", "--input", str(crossed_clusters_path())])
        assert code == 0
        assert "match" in capsys.readouterr().out

    def test_oracle_mismatch_names_the_field(self, monkeypatch, capsys):
        def flipped(run, bound):
            doc = brute_force_oracle(run, bound=bound)
            first = min(doc["dec"])
            doc["dec"] = {**doc["dec"], first: 1 - doc["dec"][first]}
            return doc

        monkeypatch.setattr(oracle, "brute_force_oracle", flipped)
        assert main(["oracle", "--input", str(crossed_clusters_path())]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("oracle: MISMATCH\n")
        assert "  field 'dec':\n" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "content, message",
        [
            pytest.param(
                b"\xff\xfe{}", "error: byte 0: not UTF-8 text: invalid start byte\n", id="utf-16"
            ),
            pytest.param(
                b"[" * 100_000 + b"]" * 100_000,
                "error: <document>: unreadable JSON: maximum recursion depth exceeded",
                id="nested-too-deep",
            ),
        ],
    )
    def test_unreadable_bytes_are_input_errors(self, tmp_path, capsys, content, message):
        path = tmp_path / "run.json"
        path.write_bytes(content)
        assert main(["validate", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (
                ["--n", "6", "--manipulate", "foo"],
                2,
                "--manipulate expects AGENT:TARGET, got 'foo'",
            ),
            (["--n", "6", "--manipulate", "i00:i01"], 0, None),
            (
                ["--input", str(crossed_clusters_path()), "--sweep", "--deltas", "a,b"],
                2,
                "--deltas expects a comma-separated list of numbers, got 'a,b'",
            ),
            (["--n", "0"], 2, "population size must be >= 1, got 0"),
            (["--density", "2"], 2, "cluster_density must be in [0, 1], got 2.0"),
            (["--rate", "-1"], 2, "base_positive_rate must be in [0, 1], got -1.0"),
            (["--n", "6", "--manipulate", "i00:i06"], 2, "manipulation references unknown id 'i06'"),
        ],
    )
    def test_simulate_checks_each_flag_value(self, capsys, argv, code, message):
        assert main(["simulate", *argv]) == code
        captured = capsys.readouterr()
        if message is None:
            assert captured.err == ""
            assert captured.out.startswith("subjective-fairness audit:")
        else:
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""

    def test_report_subcommand_json(self, capsys):
        code = main(
            ["report", "--input", str(crossed_clusters_path()), "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sf"]["verdict"] == "unfair"
        assert doc["explanation_fairness"] == "pending"

    def test_unknown_top_level_field_is_input_error(self, tmp_path, capsys):
        doc = _fixture_doc()
        doc["strategey"] = {"kind": "pessimistic"}
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 2
        assert main(["audit", "--input", str(path), "--strict"]) == 2
        assert "strategey: unknown field 'strategey'" in capsys.readouterr().err

    def test_incomparable_veto_rule_is_input_error_not_verdict(self, tmp_path, capsys):
        # exit 1 would read as "SF-unfair" under --strict
        doc = _fixture_doc()
        doc["attributes"] = {i: {"age": "young"} for i in doc["individuals"]}
        doc["strategy"] = {
            "kind": "veto",
            "veto_rules": [{"attribute": "age", "op": "<", "value": 18}],
        }
        path = tmp_path / "veto.json"
        path.write_text(json.dumps(doc))
        assert main(["audit", "--input", str(path), "--strict"]) == 2
        err = capsys.readouterr().err
        assert "strategy.veto_rules" in err
        assert "Traceback" not in err

    def test_veto_rule_on_a_missing_attribute_fails_validate(self, tmp_path, capsys):
        # validate reported the file clean, while audit refused it
        doc = _fixture_doc()
        doc["strategy"] = {
            "kind": "veto",
            "veto_rules": [{"attribute": "age", "op": "<", "value": 18}],
        }
        path = tmp_path / "veto.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "audit"):
            assert main([command, "--input", str(path)]) == 2
            assert capsys.readouterr().err == (
                "error: strategy.veto_rules: veto rule references unknown attribute 'age'\n"
            )

    def test_veto_rules_under_another_strategy_are_refused_at_their_field(
        self, tmp_path, capsys
    ):
        # the field the strategy would ignore is named, not the strategy
        doc = _fixture_doc()
        doc["strategy"]["veto_rules"] = [{"attribute": "age", "op": "<", "value": 18}]
        path = tmp_path / "veto.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: strategy.veto_rules: veto rules are only valid with the veto strategy\n"
        )

    def test_list_attribute_is_input_error(self, tmp_path, capsys):
        # grouping by an unhashable value was a TypeError, exit 3
        doc = _fixture_doc()
        doc["attributes"] = {i: {"group": [1]} for i in doc["individuals"]}
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(doc))
        assert main(["audit", "--input", str(path), "--group-attr", "group"]) == 2
        err = capsys.readouterr().err
        assert f"attributes.{doc['individuals'][0]}.group" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "baseline, location",
        [
            # a score for an id outside the population validated clean, and
            # report listed it as an observer
            (
                {"scores": {"x": 0.0, "zz": 1.0}, "distances": [["x", "zz", 0.1]]},
                "baseline.scores.zz: score for unknown id 'zz'",
            ),
            # a scored pair without a distance failed only inside report,
            # with no location
            (
                {"scores": {"x": 0.0, "y": 1.0}, "distances": []},
                "baseline.distances: no distance recorded for scored pair (x, y)",
            ),
            # with no distance row, the missing pair was named instead of
            # the score behind it
            (
                {"scores": {"x": 0.0, "zz": 1.0}, "distances": []},
                "baseline.scores.zz: score for unknown id 'zz'",
            ),
        ],
    )
    def test_baseline_faults_are_input_errors_at_load(self, tmp_path, capsys, baseline, location):
        doc = _fixture_doc()
        doc["baseline"] = baseline
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "report"):
            assert main([command, "--input", str(path)]) == 2
            err = capsys.readouterr().err
            assert location in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "baseline, location",
        [
            pytest.param(
                {
                    "scores": {"x": 0.0, "y": 1.0},
                    "distances": [["x", "y", 0.5], ["u", "ghost", 0.1]],
                },
                "baseline.distances[1]: unknown id 'ghost'",
                id="distance-for-unknown-id",
            ),
            pytest.param(
                {
                    "scores": {"x": 0.0, "y": 1.0},
                    "distances": [["x", "y", 0.5]],
                    "overrides": [["y", "x", "y", 0.2], ["ghost", "x", "y", 2.0]],
                },
                "baseline.overrides[1]: unknown id 'ghost'",
                id="override-by-unknown-observer",
            ),
            pytest.param(
                {
                    "scores": {"x": 0.0, "y": 1.0},
                    "distances": [["x", "y", 0.5]],
                    "overrides": [["y", "x", "y", 0.2], ["ghost", "ghost", "x", 2.0]],
                },
                "baseline.overrides[1]: unknown id 'ghost'",
                id="override-on-a-pair-with-an-unknown-id",
            ),
            pytest.param(
                {
                    "scores": {"x": 0.0, "y": 1.0},
                    "distances": [["x", "y", 0.5], [1, 2, 0.5]],
                    "overrides": [["x", "x", "y", 0.2], [2, 1, 2, 0.5]],
                },
                "baseline.distances[1]: expected an id string, got 1",
                id="pair-of-numbers",
            ),
            pytest.param(
                {
                    "scores": {"x": 0.0, "y": 1.0},
                    "distances": [["x", "y", 0.5]],
                    "overrides": [["u", "x", "y", 0.0]],
                },
                "baseline.overrides[0]: observer 'u' is not a party to the pair (x, y)",
                id="override-by-a-non-party",
            ),
            pytest.param(
                {
                    "scores": {"x": 0.0, "y": 1.0},
                    "distances": [["x", "y", 0.5], ["y", "x", 2.0]],
                },
                "baseline.distances[1]: second distance for the pair (y, x)",
                id="pair-given-twice",
            ),
            pytest.param(
                {
                    "scores": {"x": 0.0, "y": 1.0},
                    "distances": [["x", "y", 2.0]],
                    "overrides": [["x", "x", "y", 0.5], ["x", "y", "x", 2.0]],
                },
                "baseline.overrides[1]: second override by 'x' for the pair (y, x)",
                id="override-given-twice",
            ),
            # the table refused the override first, though an id outside
            # the population comes earlier in the file
            pytest.param(
                {
                    "scores": {"x": 0.0, "y": 1.0},
                    "distances": [["x", "y", 0.5], ["x", "ghost", 0.1]],
                    "overrides": [["x", "x", "y", -1.0]],
                },
                "baseline.distances[1]: unknown id 'ghost'",
                id="unknown-id-before-a-refused-override",
            ),
            pytest.param(
                {
                    "scores": {"x": 0.0, "y": 1.0},
                    "distances": [["x", "y", 0.5], ["x", "y", 0.1]],
                    "overrides": [["ghost", "x", "y", 1.0]],
                },
                "baseline.distances[1]: second distance for the pair (x, y)",
                id="refused-distance-before-an-unknown-observer",
            ),
        ],
    )
    def test_stray_baseline_rows_are_rejected_by_validate(
        self, tmp_path, capsys, baseline, location
    ):
        # each of these rows loaded clean and the baselines silently ignored it
        doc = _fixture_doc()
        doc["baseline"] = baseline
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert location in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "values",
        [
            {"x": 1, "u": 1, "y": "1", "v": "1"},  # one printed key for two groups
            {"x": True, "u": 1, "y": 0, "v": False},  # true and 1 made one group
        ],
    )
    def test_parity_groups_that_print_alike_are_input_errors(self, tmp_path, capsys, values):
        # the report keys rates by the printed value, so a group was dropped
        # or two merged, and the gap came out wrong
        doc = _fixture_doc()
        doc["attributes"] = {i: {"g": values[i]} for i in doc["individuals"]}
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(doc))
        for command in ("baseline", "audit", "report"):
            assert main([command, "--input", str(path), "--group-attr", "g"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: attribute 'g' has values ")
            assert "Traceback" not in err

    def test_commands_without_a_verdict_ignore_the_ledger(self, tmp_path, capsys):
        # decide, baseline, oracle and a sweep print no explanation verdict,
        # so a ledger entry that matches no obligation is no error of theirs
        doc = _fixture_doc()
        doc["attributes"] = {i: {"g": "a" if i in "xy" else "b"} for i in doc["individuals"]}
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(doc))
        doc["ledger"] = {"x": {"SYSTEM_ERROR_REVIEW": "accepted"}}
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(doc))
        for argv in (
            ["decide"],
            ["baseline", "--group-attr", "g", "--format", "json"],
            ["oracle"],
            ["simulate", "--sweep", "--format", "json"],
        ):
            assert main(argv + ["--input", str(path)]) == 0
            with_ledger = capsys.readouterr().out
            assert main(argv + ["--input", str(plain)]) == 0
            assert with_ledger == capsys.readouterr().out

    def test_an_empty_ledger_survives_a_re_save(self, tmp_path, capsys):
        # the report echoes an empty ledger, so saving the run must keep it:
        # the report on the saved copy is the report on the original
        doc = _fixture_doc()
        doc["ledger"] = {}
        original, saved = tmp_path / "original.json", tmp_path / "saved.json"
        original.write_text(json.dumps(doc))
        assert main(["simulate", "--input", str(original), "--output", str(saved)]) == 0
        capsys.readouterr()
        reports = []
        for path in (original, saved):
            assert main(["report", "--input", str(path), "--format", "json"]) == 0
            reports.append(capsys.readouterr().out)
        assert json.loads(reports[0])["ledger"] == {}
        assert reports[1] == reports[0]

    def test_ledger_entry_matching_no_obligation_is_located(self, tmp_path, capsys):
        doc = _fixture_doc()
        doc["ledger"] = {"x": {"SYSTEM_ERROR_REVIEW": "accepted"}}
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 2
        assert capsys.readouterr().out == (
            "validation: 1 violation(s)\n"
            "  ! ledger.x.SYSTEM_ERROR_REVIEW: matches no obligation\n"
        )
        for command in ("audit", "report"):
            assert main([command, "--input", str(path)]) == 2
            err = capsys.readouterr().err
            assert err == "error: ledger.x.SYSTEM_ERROR_REVIEW: matches no obligation\n"

    def test_missing_file_is_input_error(self, capsys):
        code = main(["audit", "--input", "/nonexistent/run.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    def test_main_pauses_the_collector_and_restores_it(
        self, tmp_path, monkeypatch, capsys, enabled
    ):
        # paused for the whole command, then as the caller had it, on the
        # exit-0, exit-2 and exit-3 paths and when argparse exits
        during = []
        audit = cli.audit_run

        def watched(run, settings):
            during.append(gc.isenabled())
            return audit(run, settings)

        def fault(run, settings):
            during.append(gc.isenabled())
            raise RuntimeError("engine fault")

        fixture = ["audit", "--input", str(crossed_clusters_path())]
        caller = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        after = []
        try:
            monkeypatch.setattr(cli, "audit_run", watched)
            assert main(fixture) == 0
            after.append(gc.isenabled())
            assert main(["audit", "--input", str(tmp_path / "missing.json")]) == 2
            after.append(gc.isenabled())
            monkeypatch.setattr(cli, "audit_run", fault)
            assert main(fixture) == 3
            after.append(gc.isenabled())
            with pytest.raises(SystemExit):
                main(["audit"])
            after.append(gc.isenabled())
        finally:
            (gc.enable if caller else gc.disable)()
        capsys.readouterr()
        assert during == [False, False]
        assert after == [enabled] * 4

    def test_commands_leave_cyclic_garbage_that_does_not_grow_with_the_input(
        self, tmp_path, capsys
    ):
        # the premise of pausing the collector in main: reference counting
        # frees what the engine builds, so what a command leaves for the
        # collector is the same on the 4-person fixture as on 200 people
        paths = []
        for run in (crossed_clusters_run(), generate_population(SynthProfile(n=200, seed=5))):
            ids = run.population.individuals
            scored = ids[:40]
            pairs = list(itertools.combinations(scored, 2))
            run = dataclasses.replace(
                run,
                population=Population(ids, {i: {"group": k % 3} for k, i in enumerate(ids)}),
                baseline=BaselineInputs(
                    {i: k / len(scored) for k, i in enumerate(scored)},
                    ObjectiveDistanceTable(
                        dict.fromkeys(pairs, 0.05), {(x, x, y): 0.01 for x, y in pairs[::7]}
                    ),
                ),
            )
            paths.append(save_run(run, tmp_path / f"run{run.n}.json"))
        commands = [
            ["validate"],
            ["audit", "--group-attr", "group"],
            ["decide"],
            ["report", "--group-attr", "group"],
            ["baseline", "--group-attr", "group"],
            ["oracle", "--bound", "200"],
            ["simulate", "--sweep", "--deltas", "0.3,0.6", "--thetas", "0.4,0.6"],
        ]
        caller = gc.isenabled()
        gc.disable()
        found = {}
        try:
            for command in commands:
                for path in paths:
                    gc.collect()
                    assert main([command[0], "--input", str(path), *command[1:]]) == 0
                    found[command[0], path.name] = gc.collect()
                    capsys.readouterr()
        finally:
            if caller:
                gc.enable()
        for command in commands:
            small, large = (found[command[0], path.name] for path in paths)
            assert small == large, (command, small, large)

    def test_report_and_baseline_walk_the_stored_pairs_once(self, monkeypatch, capsys):
        # work gate by counted reads of the distance table: both IF checks
        # share one walk of its pairs
        run = generate_population(SynthProfile(n=60, seed=9))
        ids = run.population.individuals
        scored = ids[:40]
        rng = random.Random(9)
        table = ObjectiveDistanceTable(
            {pair: rng.random() / 2 for pair in itertools.combinations(scored, 2)},
            {(scored[0], *sorted(scored[:2])): 0.0},
        )
        entries = counted_map(table, "entries")
        run = dataclasses.replace(
            run,
            population=Population(ids, {i: {"group": k % 2} for k, i in enumerate(ids)}),
            baseline=BaselineInputs({i: rng.random() for i in scored}, table),
        )
        monkeypatch.setattr(cli, "load_run", lambda path: run)
        for command in ("report", "baseline"):
            entries.reads = 0
            assert main([command, "--input", "run.json", "--group-attr", "group"]) == 0
            assert entries.reads == len(entries.data)
            out = capsys.readouterr().out
            assert "objective IF violations" in out and "subjective IF violations" in out

    @pytest.mark.parametrize("command", [["decide"], ["baseline", "--group-attr", "group"]])
    def test_epsilon_is_no_flag_of_the_commands_that_run_no_audit(self, command, capsys):
        # only the audit reads epsilon, so decide and baseline do not take it
        with pytest.raises(SystemExit) as exc:
            main(command + ["--input", str(crossed_clusters_path()), "--epsilon", "0.7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --epsilon 0.7" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--delta", "0.9"], ["--theta", "0.1"], ["--strategy", "pessimistic"]]
    )
    def test_baseline_refuses_settings_without_group_attr(self, tmp_path, capsys, flag):
        # without --group-attr the baseline runs no pipeline, so a settings
        # flag would change nothing it prints
        doc = _fixture_doc()
        doc["baseline"] = {"scores": {"x": 0.2, "y": 0.9}, "distances": [["x", "y", 0.3]]}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert main(["baseline", "--input", str(path), *flag]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag[0]} needs --group-attr: without it no setting is read\n"
        doc["attributes"] = {i: {"g": "a" if i in "xy" else "b"} for i in doc["individuals"]}
        path.write_text(json.dumps(doc))
        assert main(["baseline", "--input", str(path), "--group-attr", "g", *flag]) == 0
        assert "statistical parity on 'g'" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["report"], 1),
            (["audit"], 1),
            (["decide"], 1),
            (["report", "--delta", "0.5", "--theta", "0.5", "--strategy", "majority"], 1),
            (["audit", "--epsilon", "0.0"], 1),
            (["decide", "--theta", "0.5"], 1),
            (["report", "--delta", "0.3"], 1),
            (["simulate", "--sweep", "--deltas", "0.3,0.5,0.7", "--thetas", "0.4,0.5,0.6"], 1),
        ],
    )
    def test_each_audit_point_builds_one_run(self, monkeypatch, capsys, argv, built):
        # call-count gate: a command passes its settings to the audit as a
        # (params, strategy) point, and every point is audited on the loaded
        # run, so loading builds the only run
        count = 0
        check = AuditRunFile.__post_init__

        def counted(self):
            nonlocal count
            count += 1
            check(self)

        monkeypatch.setattr(AuditRunFile, "__post_init__", counted)
        assert main(argv + ["--input", str(crossed_clusters_path())]) == 0
        capsys.readouterr()
        assert count == built


def _ledgered_fixture(tmp_path, ledger):
    doc = _fixture_doc()
    doc["ledger"] = ledger
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(doc))
    return path


class TestValidateLedger:
    """``validate`` refuses the ledger entries that ``report`` refuses: on a
    run with clean inputs, every entry that names no obligation owed at the
    file's own settings, in ledger order."""

    def _validate(self, capsys, path, fmt):
        code = main(["validate", "--input", str(path), "--format", fmt])
        return code, capsys.readouterr().out

    def test_every_unmatched_entry_is_listed(self, tmp_path, capsys):
        # at the fixture's settings x is owed SYSTEM_RECOMMENDATION and
        # AGGREGATION_METHOD, and u no GROUP_IDENTIFICATION
        ledger = {
            "x": {"SYSTEM_ERROR_REVIEW": "accepted", "SYSTEM_RECOMMENDATION": "accepted"},
            "u": {"GROUP_IDENTIFICATION": "rejected"},
        }
        path = _ledgered_fixture(tmp_path, ledger)
        where = ["ledger.u.GROUP_IDENTIFICATION", "ledger.x.SYSTEM_ERROR_REVIEW"]
        code, out = self._validate(capsys, path, "json")
        assert code == 2
        assert json.loads(out) == {
            "ok": False,
            "violations": [
                {"code": "no_obligation", "where": w, "message": "matches no obligation"}
                for w in where
            ],
        }
        code, out = self._validate(capsys, path, "text")
        assert code == 2
        assert out == "validation: 2 violation(s)\n" + "".join(
            f"  ! {w}: matches no obligation\n" for w in where
        )
        assert main(["report", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {where[0]}: matches no obligation\n"

    @pytest.mark.parametrize("ledger", [{}, {"u": {"AGGREGATION_METHOD": "rejected"}}])
    def test_a_ledger_of_owed_obligations_is_clean(self, tmp_path, capsys, ledger):
        path = _ledgered_fixture(tmp_path, ledger)
        assert self._validate(capsys, path, "text") == (0, "validation: clean\n")
        assert self._validate(capsys, path, "json") == (0, '{"ok":true,"violations":[]}\n')

    def test_inputs_that_fail_are_not_audited(self, tmp_path, capsys, monkeypatch):
        # only clean inputs can be audited: the ledger is not checked then
        doc = _fixture_doc()
        doc["sim"]["x"]["x"] = 0.9
        doc["ledger"] = {"x": {"SYSTEM_ERROR_REVIEW": "accepted"}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "audit_run", None)
        code, out = self._validate(capsys, path, "json")
        assert code == 2
        assert [v["code"] for v in json.loads(out)["violations"]] == ["self_similarity"]


class TestLedgerSettings:
    """A ledger answers the obligations of its file's own settings: under a
    flag that sets another, it is neither read nor echoed, and the report
    gives no explanation verdict."""

    LEDGER = {"u": {"AGGREGATION_METHOD": "accepted"}}

    def _report(self, capsys, path, *flags):
        code = main(["report", "--input", str(path), "--format", "json", *flags])
        out, err = capsys.readouterr()
        return code, (json.loads(out) if code == 0 else err)

    def test_at_the_files_own_settings_the_ledger_is_read(self, tmp_path, capsys):
        path = _ledgered_fixture(tmp_path, self.LEDGER)
        code, doc = self._report(capsys, path)
        assert code == 0
        assert doc["ledger"] == self.LEDGER
        assert doc["explanation_fairness"] == "pending"
        assert OTHER_SETTINGS_FLAG not in doc["flags"]

    def test_a_flag_that_repeats_the_files_value_is_no_override(self, tmp_path, capsys):
        path = _ledgered_fixture(tmp_path, self.LEDGER)
        own = self._report(capsys, path)
        assert self._report(capsys, path, "--theta", "0.5") == own
        assert self._report(capsys, path, "--delta", "0.5", "--strategy", "majority") == own

    def test_another_delta_does_not_read_the_ledger(self, tmp_path, capsys):
        # at delta 0.9 u is owed no AGGREGATION_METHOD, so reading the ledger
        # there refused the file
        path = _ledgered_fixture(tmp_path, self.LEDGER)
        code, doc = self._report(capsys, path, "--delta", "0.9")
        assert code == 0
        assert doc["params"]["delta"] == 0.9
        assert "ledger" not in doc and "explanation_fairness" not in doc
        assert doc["flags"] == [OTHER_SETTINGS_FLAG]

    def test_another_theta_counts_no_acceptance_given_at_the_files(self, tmp_path, capsys):
        path = _ledgered_fixture(tmp_path, self.LEDGER)
        code, doc = self._report(capsys, path, "--theta", "0.3")
        assert code == 0
        assert "ledger" not in doc and "explanation_fairness" not in doc
        assert doc["flags"] == [SYSTEM_REVIEW_FLAG, OTHER_SETTINGS_FLAG]
        assert main(["report", "--input", str(path), "--theta", "0.3"]) == 0
        text = capsys.readouterr().out
        assert "explanation fairness" not in text
        assert f"flag: {OTHER_SETTINGS_FLAG}\n" in text

    def test_a_run_with_no_ledger_gets_its_verdict_at_any_settings(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(_fixture_doc()))
        for flags in ((), ("--delta", "0.9"), ("--theta", "0.3")):
            code, doc = self._report(capsys, path, *flags)
            assert code == 0
            assert doc["explanation_fairness"] in ("fair", "pending")
            assert "ledger" not in doc and OTHER_SETTINGS_FLAG not in doc["flags"]

    def test_a_ledger_that_matches_no_obligation_still_fails_at_its_own_settings(
        self, tmp_path, capsys
    ):
        path = _ledgered_fixture(tmp_path, {"x": {"SYSTEM_ERROR_REVIEW": "accepted"}})
        assert self._report(capsys, path, "--theta", "0.5") == (
            2, "error: ledger.x.SYSTEM_ERROR_REVIEW: matches no obligation\n"
        )
        assert self._report(capsys, path, "--delta", "0.9")[0] == 0


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 30),
    seed=st.integers(0, 1000),
    score=st.booleans(),
    delta=st.sampled_from([0.3, 0.5, 0.7]),
    epsilon=st.sampled_from([0.3, 0.5, 0.7]),
    theta=st.sampled_from([0.3, 0.5, 0.7]),
    kind=st.sampled_from(STRATEGY_KINDS),
)
def test_a_point_audited_on_the_loaded_run_is_a_run_built_at_it(
    n, seed, score, delta, epsilon, theta, kind
):
    # the audit reads a point's settings off the result, never off the run:
    # its document is the one of a run copied at that point, which is how
    # reference documents for a sweep are built
    base = generate_population(SynthProfile(n=n, seed=seed))
    rng = random.Random(seed)
    ids = base.population.individuals
    changes = {"population": Population(ids, {i: {"age": rng.randint(10, 60)} for i in ids})}
    if score:
        changes["recommendations"] = RecommendationVector(
            base.purpose, {i: round(rng.random(), 3) for i in ids}, SCORE
        )
    run = loads_run(dumps_run(dataclasses.replace(base, **changes)))
    rules = (VetoRule("age", "<", 18, vetoed_label=1),) if kind == VETO else ()
    params = AuditParams(delta=delta, epsilon=epsilon, theta=theta)
    strategy = AggregationStrategy(kind=kind, theta=theta, veto_rules=rules)
    copy = dataclasses.replace(run, params=params, strategy=strategy)
    assert build_audit_doc(audit_run(run, (params, strategy))) == build_audit_doc(audit_run(copy))


_LEDGERS = st.dictionaries(
    st.sampled_from(["x", "y", "u", "v"]),
    st.dictionaries(
        st.sampled_from(list(KIND_TAGS)), st.sampled_from(["accepted", "rejected", "pending"])
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    first=_LEDGERS,
    second=_LEDGERS,
    delta=st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]),
    epsilon=st.sampled_from([0.0, 0.5]),
    theta=st.sampled_from([0.0, 0.3, 0.5, 0.7]),
    kind=st.sampled_from(["majority", "trust_weighted", "pessimistic", "veto"]),
    command=st.sampled_from([["report"], ["audit", "--strict"]]),
    fmt=st.sampled_from(["text", "json"]),
)
def test_under_a_real_override_the_output_does_not_depend_on_the_ledger(
    first, second, delta, epsilon, theta, kind, command, fmt
):
    assume((delta, epsilon, theta, kind) != (0.5, 0.0, 0.5, "majority"))
    flags = [
        "--delta", str(delta), "--epsilon", str(epsilon), "--theta", str(theta),
        "--strategy", kind, "--format", fmt,
    ]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for ledger in (first, second):
            path = _ledgered_fixture(Path(tmp), ledger)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(command + ["--input", str(path), *flags])
            results.append((code, out.getvalue()))
    assert results[0] == results[1]
    assert results[0][0] in (0, 1)
