import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from subjfair import (
    AggregationStrategy,
    AuditParams,
    ObjectiveDistanceTable,
    Outcome,
    PerceptionTable,
    Population,
    RecommendationVector,
    VetoRule,
    build_cluster_family,
)
from subjfair.harness import cli
from subjfair.harness.cli import main
from subjfair.harness.fixtures import crossed_clusters_path, crossed_clusters_run
from subjfair.harness.oracle import brute_force_oracle
from subjfair.harness.report import (
    SYSTEM_REVIEW_FLAG,
    audit_run,
    build_audit_doc,
    build_report_doc,
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

from helpers import make_inputs


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
        assert len(family.clusters) == 4

    def test_bundled_fixture_matches_programmatic_run(self):
        assert dumps_run(crossed_clusters_run()) == crossed_clusters_path().read_text()

    def test_save_load_is_byte_stable(self, tmp_path):
        run = load_run(crossed_clusters_path())
        path = save_run(run, tmp_path / "copy.json")
        assert path.read_text() == crossed_clusters_path().read_text()

    def test_hand_written_file_round_trips_by_content(self, tmp_path):
        # defaults omitted, keys unsorted: canonicalization must preserve
        # the run itself and be idempotent
        raw = json.dumps(_minimal_doc())
        run = loads_run(raw)
        first = dumps_run(run)
        again = dumps_run(loads_run(first))
        assert first == again
        assert loads_run(first) == run

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
            (lambda d: d["params"].update({"delta": 2.0}), "params"),
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
        assert run.ledger.state("a", "SYSTEM_RECOMMENDATION") == "accepted"
        assert to_dict(run)["ledger"] == {"a": {"SYSTEM_RECOMMENDATION": "accepted"}}

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
            def counted(self, check=table.__post_init__):
                passes.append(self)
                check(self)

            monkeypatch.setattr(table, "__post_init__", counted)
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
        for i in run.population.individuals:
            assert family.cluster_of(i).members == {i}

    def test_manipulated_agent_absorbs_target_cluster(self):
        ids_run = generate_population(
            SynthProfile(n=6, cluster_density=0.5, seed=9, manipulation=(("i00", "i05"),))
        )
        delta = ids_run.params.delta
        family = build_cluster_family(ids_run.population, ids_run.perceptions, delta)
        target_members = family.cluster_of("i05").members
        assert target_members <= family.cluster_of("i00").members | {"i00"}

    def test_unknown_manipulation_ids_rejected(self):
        with pytest.raises(Exception):
            generate_population(SynthProfile(n=3, manipulation=(("i00", "zz"),)))


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
                    recs.purpose, {i: Outcome.score(round(rng.random(), 2)) for i in ids}
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

    def test_single_individual_run(self):
        run = generate_population(SynthProfile(n=1, seed=0))
        doc = brute_force_oracle(run)
        assert doc["sf"]["verdict"] == "fair"
        assert doc["dec"] == {
            i: int(run.recommendations[i].value) for i in run.population.individuals
        }
        assert doc == build_audit_doc(audit_run(run))

    def test_refuses_large_populations(self):
        run = generate_population(SynthProfile(n=12, seed=0))
        with pytest.raises(ValueError, match="exceeds oracle bound"):
            brute_force_oracle(run)


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


class TestCli:
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
        # tally once per delta (each tally binarizes every person once, and
        # nothing else binarizes), and the binary audit makes at most three
        # similarity tests per person, none per cluster member
        from subjfair import aggregation, audit
        from subjfair.harness import report

        run = generate_population(SynthProfile(n=60, cluster_density=0.3, seed=4))
        assert run.recommendations.kind == "binary"
        path = save_run(run, tmp_path / "run.json")
        n = run.n
        deltas = (0.3, 0.5, 0.7)
        for delta in deltas:
            family = build_cluster_family(run.population, run.perceptions, delta)
            assert sum(len(c) for c in family.clusters.values()) > 3 * n
        calls = {"binarize": 0, "similar": 0}
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
        assert calls["binarize"] == len(deltas) * n
        assert len(per_point) == 12
        assert max(per_point) <= 3 * n

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
        def broken(run):
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

    def test_oracle_subcommand_matches(self, capsys):
        code = main(["oracle", "--input", str(crossed_clusters_path())])
        assert code == 0
        assert "match" in capsys.readouterr().out

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
        # decide and baseline print no explanation verdict, so a ledger entry
        # that matches no obligation is no error of theirs
        doc = _fixture_doc()
        doc["attributes"] = {i: {"g": "a" if i in "xy" else "b"} for i in doc["individuals"]}
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(doc))
        doc["ledger"] = {"x": {"SYSTEM_ERROR_REVIEW": "accepted"}}
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(doc))
        for argv in (["decide"], ["baseline", "--group-attr", "g", "--format", "json"]):
            assert main(argv + ["--input", str(path)]) == 0
            with_ledger = capsys.readouterr().out
            assert main(argv + ["--input", str(plain)]) == 0
            assert with_ledger == capsys.readouterr().out

    def test_ledger_entry_matching_no_obligation_is_located(self, tmp_path, capsys):
        doc = _fixture_doc()
        doc["ledger"] = {"x": {"SYSTEM_ERROR_REVIEW": "accepted"}}
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 0
        capsys.readouterr()
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
