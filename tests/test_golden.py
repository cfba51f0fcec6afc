"""Golden SHA-256 hashes of what the CLI prints.

Each case writes one run file, runs one ``subjfair`` command on it through
``main`` and hashes the exit code with the printed bytes. The hashes were
computed before the perception table was stored as per-observer rows and
must not move under any change that keeps the engine's outputs: a rewrite
of loading, validation or clustering is byte-identical or it is wrong.

The synthetic runs cover all four strategies, binary and score
recommendations, densities 0.003 and 0.3 and n up to 800; the broken
tables pin which violations ``validate`` reports and in what order. The
sweeps under every strategy and the ``decide`` outputs were pinned before
both pipeline stages ran on flat 0/1 labels and the sweep began to reuse
validation and clusters across its grid points. The text outputs of
``report`` and ``decide`` were pinned before the Outcome-level copies of the
aggregation and similarity rules and the validation plumbing of the
procedural check were removed. The ``baseline`` outputs were pinned before
the two individual-fairness checks began to share one walk over the scored
pairs. The bytes ``save_run`` writes were pinned before run files were
written by the shared canonical JSON writer. The sweeps over the boundary
deltas 0 and 1 and the report at delta 0 on a sparse run, where every
unstated pair qualifies, were pinned before clusters, labels, verdicts and
obligations were indexed by person position. The report of a run whose
metadata asserts ethicality and the text form of ``validate`` on the broken
tables were pinned before the per-person and per-pair records beside those
columns were deleted. The runs whose binary labels are written as floats, or
whose scores include the ints 0 and 1, were pinned before a recommendation
became one number with one kind per vector.

Every hash was pinned when JSON documents were written indented, before
they became compact, so ``_as_pinned`` checks that a JSON text is exactly
the compact form and hashes its indented rebuild: that pins the compact
bytes as exactly as the old ones.

The report and audit hashes were pinned in ``subjfair-report/1``, before
the report stated each fact once (``subjfair-report/2``), so ``_as_pinned``
first turns a ``/2`` document back into its ``/1`` value with
``_as_report_1``: it puts back the ``membership`` list that transposes
``clusters``, each obligation's own ``procedural_tags`` from the
``obligation_tags`` table, and ``procedural``'s sorted ``satisfied`` list
beside its provenance. A ``/2`` document rebuilt so hashes as its ``/1``
document did, and the converter only adds what ``/2`` states elsewhere.
Since ``subjfair-report/3`` wrote the verdicts, scenarios and conflicts
as lists that follow one sorted ``individuals`` list, ``_as_report_2``
first keys those lists by id again and drops ``individuals``, checking
that it is sorted, has no repeats and is as long as every column.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from subjfair import (
    MAJORITY,
    PESSIMISTIC,
    TRUST_WEIGHTED,
    VETO,
    AggregationStrategy,
    SCORE,
    AuditParams,
    Population,
    RecommendationVector,
    VetoRule,
)
from subjfair.baselines import ObjectiveDistanceTable
from subjfair.explanations import ACCEPTED, REJECTED, AcceptanceLedger
from subjfair.harness.cli import main
from subjfair.harness.fixtures import crossed_clusters_path
from subjfair.harness.report import audit_run, build_report_doc
from subjfair.harness.runfile import (
    BaselineInputs,
    dumps_run,
    load_run,
    loads_run,
    save_run,
    to_dict,
)
from subjfair.harness.synth import SynthProfile, generate_population


def _as_report_2(doc: dict) -> dict:
    """The ``subjfair-report/2`` value of a ``subjfair-report/3`` document."""
    doc = dict(doc, schema="subjfair-report/2")
    ids = doc.pop("individuals")
    n = doc["n"]
    assert ids == sorted(ids) and len(set(ids)) == len(ids) == n
    verdicts = doc["verdicts"]
    columns = [*verdicts.values(), doc["scenarios"], doc["conflicts"]]
    assert all(len(column) == n for column in columns)
    doc["verdicts"] = {x: dict(zip(verdicts, row)) for x, *row in zip(ids, *verdicts.values())}
    doc["scenarios"] = dict(zip(ids, doc["scenarios"]))
    doc["conflicts"] = dict(zip(ids, doc["conflicts"]))
    return doc


def _as_report_1(doc: dict) -> dict:
    """The ``subjfair-report/1`` value of a ``subjfair-report/2`` document."""
    doc = dict(doc, schema="subjfair-report/1")
    membership = {x: [] for x in doc["clusters"]}
    for owner in sorted(doc["clusters"]):
        for x in doc["clusters"][owner]:
            membership[x].append(owner)
    doc["membership"] = membership
    tags = doc.pop("obligation_tags")
    doc["obligations"] = [{**o, "procedural_tags": tags[o["kind"]]} for o in doc["obligations"]]
    if "procedural" in doc:
        provenance = doc["procedural"]
        doc["procedural"] = {"satisfied": sorted(provenance), "provenance": provenance}
    return doc


def _as_pinned(text: str) -> str:
    """The SHA-256 of ``text`` in its pinned form: a JSON text, which must be
    exactly the compact sorted form, as its two-space-indented rebuild, a
    ``subjfair-report/3`` document as its ``/2`` value (``_as_report_2``)
    and a ``/2`` document as its ``/1`` value (``_as_report_1``); any other
    text as it is."""
    if text.startswith(("{", "[")):
        value = json.loads(text)
        # a bool, so that a failure does not diff megabytes of text
        compact = text == json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"
        assert compact, "not the compact sorted JSON form"
        if isinstance(value, dict) and value.get("schema") == "subjfair-report/3":
            value = _as_report_2(value)
        if isinstance(value, dict) and value.get("schema") == "subjfair-report/2":
            value = _as_report_1(value)
        text = json.dumps(value, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of one command."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _printed(argv: list[str]) -> str:
    """``"<exit code>:<pinned hash of stdout>"`` of one command."""
    code, out = _run(argv)
    return f"{code}:{_as_pinned(out)}"


# --- the bundled fixture -----------------------------------------------------

FIXTURE = {
    "report": "0:40df60f26ab6738c70941d6f982efbb5d5c408f48ede51f4142141bf88feaad8",
    "audit": "0:40df60f26ab6738c70941d6f982efbb5d5c408f48ede51f4142141bf88feaad8",
    "validate": "0:7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c",
}


@pytest.mark.parametrize("command", sorted(FIXTURE))
def test_fixture_output_is_pinned(command):
    argv = [command, "--input", str(crossed_clusters_path()), "--format", "json"]
    assert _printed(argv) == FIXTURE[command]


#: The SHA-256 of the ``subjfair-report/3`` bytes ``audit --format json``
#: prints for the fixture, as printed, with no conversion.
FIXTURE_REPORT_3 = "0:8c47ab06c5342602d7102e4e151f7763012d965f3e87a88f5552c6ba25d8d561"


def test_fixture_report_3_bytes_are_pinned():
    code, out = _run(["audit", "--input", str(crossed_clusters_path()), "--format", "json"])
    assert json.loads(out)["schema"] == "subjfair-report/3"
    assert f"{code}:{hashlib.sha256(out.encode('utf-8')).hexdigest()}" == FIXTURE_REPORT_3


# --- synthetic runs ------------------------------------------------------------

#: (n, density, strategy, recommendation kind, extras, seed). ``extras``
#: adds a group attribute (reported with --group-attr), baseline inputs or
#: a ledger to the generated run.
SYNTHETIC = [
    (40, 0.3, MAJORITY, "binary", (), 1),
    (40, 0.3, TRUST_WEIGHTED, "score", (), 2),
    (40, 0.003, PESSIMISTIC, "binary", (), 3),
    (40, 0.3, VETO, "score", ("group",), 4),
    (120, 0.3, MAJORITY, "score", ("baseline",), 5),
    (120, 0.003, TRUST_WEIGHTED, "binary", (), 6),
    (120, 0.3, PESSIMISTIC, "score", ("ledger",), 7),
    (120, 0.3, VETO, "binary", ("baseline", "ledger"), 8),
    (200, 0.003, MAJORITY, "binary", ("group",), 9),
    (200, 0.3, TRUST_WEIGHTED, "binary", ("group", "baseline"), 10),
    (200, 0.3, PESSIMISTIC, "binary", (), 11),
    (200, 0.003, VETO, "score", (), 12),
    (400, 0.3, MAJORITY, "binary", ("ledger",), 13),
    (400, 0.003, TRUST_WEIGHTED, "score", (), 14),
    (400, 0.003, PESSIMISTIC, "score", ("group",), 15),
    (400, 0.3, VETO, "binary", (), 16),
    (800, 0.003, MAJORITY, "score", ("baseline",), 17),
    (800, 0.003, TRUST_WEIGHTED, "binary", ("ledger",), 18),
    (800, 0.003, VETO, "binary", ("group",), 19),
    (800, 0.3, MAJORITY, "binary", (), 20),
]


def _synthetic_run(n, density, strategy, kind, extras, seed):
    run = generate_population(SynthProfile(n=n, cluster_density=density, seed=seed))
    rng = random.Random(f"golden/{seed}")
    ids = run.population.individuals
    epsilon = 0.2 if kind == "score" else 0.0
    params = AuditParams(delta=0.5, epsilon=epsilon, theta=0.5)
    changes = {"params": params}
    if kind == "score":
        changes["recommendations"] = RecommendationVector(
            run.purpose, {i: round(rng.random(), 3) for i in ids}, SCORE
        )
    attributes = {i: {"age": rng.randint(10, 60), "group": rng.choice("abc")} for i in ids}
    changes["population"] = Population(ids, attributes)
    rules = (VetoRule("age", "<", 18),) if strategy == VETO else ()
    changes["strategy"] = AggregationStrategy(kind=strategy, theta=0.5, veto_rules=rules)
    if "baseline" in extras:
        people = sorted(rng.sample(ids, 30))
        scores = {i: round(rng.random(), 3) for i in people}
        distances, overrides = {}, {}
        for pair in itertools.combinations(people, 2):
            distances[pair] = round(0.2 + 0.8 * rng.random(), 3)
            if rng.random() < 0.1:
                overrides[(rng.choice(pair),) + pair] = round(rng.random(), 3)
        changes["baseline"] = BaselineInputs(scores, ObjectiveDistanceTable(distances, overrides))
    run = replace(run, **changes)
    if "ledger" in extras:
        obligations = audit_run(run).obligations
        chosen = rng.sample(obligations, len(obligations) // 2)
        states = {o.key: ACCEPTED if rng.random() < 0.9 else REJECTED for o in chosen}
        run = replace(run, ledger=AcceptanceLedger(states))
    return run


SYNTHETIC_HASHES = [
    "0:2b7429da70a90f85456b13ca0d495ce4cef5508f3735434ff4924a2c11d2c48d",
    "0:0361be87403f333d13f593b41ce86970a590d17840520ca2222cb6761d319e8b",
    "0:3990b76c079ca104f0f7d43e4b2a6cfd89c24cf06040cee39905dd8836c2454f",
    "0:e76e0ebf6e1390f830c5a262b696270fb9b0d5b4e7fb2ad031586c63a0a6b526",
    "0:fc79e9efeedf807b62085c632724f124ea7c59bd02cb9b2808bb2a0976766e33",
    "0:3ec6b1c14eb4594016710ec5405b292674ba8a25c4be33ecb4334a4130b627b2",
    "0:767d4267950ec7071848bc2d2262b2f2bc7721cfd0634650f0e1177548662adb",
    "0:4318a7269dec50900b95af5bbd6a17b289241bf9ab5997341bdba8488e725173",
    "0:d011e1f27b81237c63f26c08932bec9f7d458e7a3ac3cb29a5c45ef3a5992ab6",
    "0:cb1bcac0895492b126f6f4cab2370c5a7ba3dbe28540efc829f46cd929b044b2",
    "0:b1a42959afd5d3c31a608d455fa66e7ce46cbfc7f350a1e1990e85d5c07104fa",
    "0:175ac6e30f51cc1852235d2d9f779879abd57baa2745f65ee7295d9de787443c",
    "0:fb971653f08a3b5901b24427e3ddbc5b8911ffd346bb6352469e65f15d528162",
    "0:afb7dc75208596d7ba90cb64771599b34b05dad228b7f8d0ae610979740f0171",
    "0:0a57096dc78fd7fe07aa1ec1bd6b0f88519531e5b565cfb5c8bbad3f1369faa2",
    "0:f02c38df862877d9265d1aab09ab6c8e3273d5b9b39e6268701ef835315a4ce5",
    "0:09e317abac2845360c81c7895139a3c686d7b3c8fa5b5a38b0553b0c165eb851",
    "0:7d0e1f233ca2fc29bcb0dc074ae391405674dc7719e570d1a5c6997d2319e89f",
    "0:32e08625aaf557bd6c2bb8f94bdbecd810d1271427533f059684afe680ab6d50",
    "0:d3e2a57ff840b7043b5a7d6e5b6439259bb39ce1c6212a952dd88aa5a957436c",
]


@pytest.mark.parametrize(
    "case, expected",
    list(zip(SYNTHETIC, SYNTHETIC_HASHES)),
    ids=[f"n{c[0]}-d{c[1]}-{c[2]}-{c[3]}-s{c[5]}" for c in SYNTHETIC],
)
def test_synthetic_report_is_pinned(tmp_path, case, expected):
    path = save_run(_synthetic_run(*case), tmp_path / "run.json")
    argv = ["report", "--input", str(path), "--format", "json"]
    if "group" in case[4]:
        argv += ["--group-attr", "group"]
    assert _printed(argv) == expected


#: ``audit --format json`` on a run whose ``individuals`` are listed out of
#: id order, pinned in ``subjfair-report/2``, before the per-person
#: sections became columns.
OUT_OF_ORDER = "0:6a51fef7e74074c273e1c7e8b61e778e3a8353378a542e59c97f99080d1c7b20"


def test_a_population_out_of_id_order(tmp_path):
    """Generated runs list their ids sorted and the fixture has four people;
    this run lists forty out of id order: the columns follow the sorted
    ``individuals``, the document is the oracle's, and its ``/2`` rebuild
    hashes as the ``/2`` output did."""
    doc = to_dict(_synthetic_run(40, 0.3, TRUST_WEIGHTED, "score", ("group",), 39))
    doc["individuals"] = random.Random(39).sample(doc["individuals"], len(doc["individuals"]))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = _run(["audit", "--input", str(path), "--format", "json"])
    printed = json.loads(out)
    assert code == 0 and printed["individuals"] == sorted(doc["individuals"])
    assert printed["individuals"] != doc["individuals"]
    # each column's k-th entry is the k-th sorted id's, found by file position
    result = audit_run(load_run(path))
    report, at = result.report, result.run.population.positions
    for k, x in enumerate(printed["individuals"]):
        verdicts = {key: column[k] for key, column in printed["verdicts"].items()}
        assert verdicts == {
            "isf": report.isf[at[x]],
            "relaxed_isf": report.relaxed_isf[at[x]],
            "satisfaction_ratio": report.satisfaction_ratio[at[x]],
        }
        assert printed["scenarios"][k] == report.scenario[at[x]]
        assert printed["conflicts"][k] == report.conflict[at[x]]
    assert _run(["oracle", "--input", str(path), "--bound", "40"]) == (0, "oracle: match\n")
    assert f"{code}:{_as_pinned(out)}" == OUT_OF_ORDER


SWEEP = "0:1db0eaabd7d158b08ef2e65fe2759be6073dfc741fcda4d10795e992cc5a127d"


def test_sweep_table_is_pinned(tmp_path):
    path = save_run(_synthetic_run(100, 0.3, TRUST_WEIGHTED, "binary", (), 21), tmp_path / "run.json")
    argv = [
        "simulate", "--input", str(path), "--sweep",
        "--deltas", "0.3,0.5,0.7", "--epsilons", "0.0,0.2", "--thetas", "0.4,0.5",
        "--format", "json",
    ]
    assert _printed(argv) == SWEEP


#: (strategy, recommendation kind, seed, --deltas, --epsilons) of further
#: pinned sweeps, each over thetas 0.4 and 0.5: every strategy on binary and
#: score recommendations, one grid that is unsorted and repeats a delta, and
#: two over the boundary deltas 0 and 1.
SWEEPS = [
    (MAJORITY, "binary", 22, "0.3,0.5,0.7", "0.0,0.2"),
    (PESSIMISTIC, "binary", 23, "0.3,0.5,0.7", "0.0,0.2"),
    (VETO, "binary", 24, "0.3,0.5,0.7", "0.0,0.2"),
    (MAJORITY, "score", 25, "0.3,0.5,0.7", "0,0.3"),
    (TRUST_WEIGHTED, "score", 26, "0.3,0.5,0.7", "0,0.3"),
    (PESSIMISTIC, "score", 27, "0.3,0.5,0.7", "0,0.3"),
    (VETO, "score", 28, "0.3,0.5,0.7", "0,0.3"),
    (TRUST_WEIGHTED, "binary", 29, "0.7,0.3,0.7", "0.0,0.2"),
    (VETO, "score", 35, "0,1,0.5", "0,0.3"),
    (TRUST_WEIGHTED, "binary", 36, "0,1,0.5", "0.0,0.2"),
]

SWEEP_HASHES = [
    "0:82991eec834c3911344e5f7252670978949e402a05af778acb2b5a853bde7994",
    "0:8441912aee1f75fea21fc8777ecd459279f67a87fd1a2313b47b9e5c8cc6e21c",
    "0:e7de000bc0328116114ad521d045b9a7cfe5270edf40d0e3ec2dc9ecaad6105a",
    "0:c3c41316d8d7de1017e68dd250279c316637f626f315ae25bf18c607a1b30c16",
    "0:535661cac900f7570c7836642b6c24b9fafee6f88514d3a041267accd3f3ee5b",
    "0:42de5b696fcd0d7898ad98f61efd4af1abfb6b6f73c01456ea468ca6a52d499f",
    "0:1fe183d0b61aba7124a3106ceb4a834533a874cae0e8a547111ce027a03a5e84",
    "0:5493784d370ed7903926512178039c73e43a2124315ad3fe18ef6cae36aad1ef",
    "0:b6618b8e122f83b86e9cf03039740c477ee9ee24e8172d208a91fe5616896054",
    "0:53f537fe9496859522a79be8d6139a6752e72afc001049557a762653672748fd",
]


@pytest.mark.parametrize(
    "case, expected",
    list(zip(SWEEPS, SWEEP_HASHES)),
    ids=[f"{c[0]}-{c[1]}-s{c[2]}-d{c[3]}" for c in SWEEPS],
)
def test_sweep_under_each_strategy_is_pinned(tmp_path, case, expected):
    strategy, kind, seed, deltas, epsilons = case
    run = _synthetic_run(100, 0.3, strategy, kind, (), seed)
    path = save_run(run, tmp_path / "run.json")
    argv = [
        "simulate", "--input", str(path), "--sweep",
        "--deltas", deltas, "--epsilons", epsilons, "--thetas", "0.4,0.5",
        "--format", "json",
    ]
    assert _printed(argv) == expected


DELTA_ZERO = "0:f48df164bd4e20f9150caac0de83776bae6280b3df98d497e0acb10fe4048242"


def test_report_at_delta_zero_on_a_sparse_run_is_pinned(tmp_path):
    """At delta 0 every pair a sparse table leaves unstated qualifies, so
    each cluster is the population less the entries below delta."""
    run = _synthetic_run(150, 0.003, TRUST_WEIGHTED, "binary", ("group", "baseline"), 37)
    path = save_run(run, tmp_path / "run.json")
    argv = [
        "report", "--input", str(path), "--delta", "0", "--group-attr", "group",
        "--format", "json",
    ]
    assert _printed(argv) == DELTA_ZERO


DECIDE = {
    "fixture": "0:d0b5a225a41d55375a7d67c2fe0e2e4e4b5838d6606d960a18be4f6fed3ad364",
    "n300": "0:257637656549f1e6e6e8b255489b859d10bcb74cbee32fab2e4fa039687baff9",
}


def test_decide_is_pinned(tmp_path):
    run = _synthetic_run(300, 0.3, TRUST_WEIGHTED, "score", (), 31)
    paths = {
        "fixture": crossed_clusters_path(),
        "n300": save_run(run, tmp_path / "run.json"),
    }
    printed = {
        name: _printed(["decide", "--input", str(path), "--format", "json"])
        for name, path in paths.items()
    }
    assert printed == DECIDE


TEXT = {
    "report-fixture": "0:feec8dcbec80f09ab693b6217868e3974a045610d394101f5fe5b421d29e2e25",
    "report-n120": "0:c3fbc9a9158058ce5bd27e7bae8c69a66c492a2d09744c2522f23982beca0f61",
    "decide-fixture": "0:284571012def3c5b283202501f4a38c9c4f966d9a197641e9ec373e4a942acf0",
}


def test_text_output_is_pinned(tmp_path):
    """The text form of ``report`` on the fixture and on a run with a group
    attribute, baseline inputs and a ledger, and of ``decide`` on the fixture."""
    run = _synthetic_run(120, 0.3, VETO, "score", ("group", "baseline", "ledger"), 32)
    fixture = str(crossed_clusters_path())
    path = str(save_run(run, tmp_path / "run.json"))
    printed = {
        "report-fixture": _printed(["report", "--input", fixture]),
        "report-n120": _printed(["report", "--input", path, "--group-attr", "group"]),
        "decide-fixture": _printed(["decide", "--input", fixture]),
    }
    assert printed == TEXT


BASELINE = {
    "n120-json": "0:4f49fb7289387746b0c3a837176fb52246ed3953086e7dd0aecddae03addad1b",
    "n120-text": "0:125459b3d5fff3edbfa0ffe30edefaa4296979b718f6573a753f189a414460ab",
    "reversed-json": "0:2d5ba6f7f8f3f27939e9f19dde9c1551d0da5efd5ff93be023841ad2fd1a1d20",
}

#: Each pair of the fixture's people as a distance row, and four overrides,
#: every row naming its pair in reverse sorted order.
REVERSED_BASELINE = {
    "scores": {"x": 0.1, "y": 0.9, "u": 0.5, "v": 0.45},
    "distances": [
        ["v", "u", 0.01], ["x", "u", 0.5], ["y", "u", 0.3],
        ["x", "v", 0.2], ["y", "v", 0.5], ["y", "x", 0.6],
    ],
    "overrides": [
        ["v", "v", "u", 0.2], ["u", "x", "u", 0.1], ["y", "y", "x", 2.0], ["x", "y", "x", 0.7],
    ],
}


def test_baseline_is_pinned(tmp_path):
    """``baseline`` on a run with a group attribute and baseline inputs, in
    both forms, and on the fixture with baseline rows given in reverse order."""
    run = _synthetic_run(120, 0.3, VETO, "score", ("group", "baseline"), 33)
    path = str(save_run(run, tmp_path / "run.json"))
    doc = json.loads(crossed_clusters_path().read_text(encoding="utf-8"))
    doc["baseline"] = REVERSED_BASELINE
    reversed_path = tmp_path / "reversed.json"
    reversed_path.write_text(json.dumps(doc), encoding="utf-8")
    group = ["--group-attr", "group"]
    printed = {
        "n120-json": _printed(["baseline", "--input", path, *group, "--format", "json"]),
        "n120-text": _printed(["baseline", "--input", path, *group, "--format", "text"]),
        "reversed-json": _printed(
            ["baseline", "--input", str(reversed_path), "--format", "json"]
        ),
    }
    assert printed == BASELINE


ASSERTED = {
    "json": "0:4f785e76ef96ec02d31d2e5047549104e93b64ff4bfddfbece5692c876521ef1",
    "text": "0:6adc3acd8e75f3956dc003ba6030b2e01999b0aeec63501f1e4959523445e93a",
}


def test_report_with_ethicality_asserted_is_pinned(tmp_path):
    """``report`` in both forms on a run whose metadata asserts ethicality,
    with a group attribute and baseline inputs."""
    run = _synthetic_run(120, 0.3, MAJORITY, "binary", ("group", "baseline"), 38)
    run = replace(run, metadata={**run.metadata, "ethicality_asserted": True})
    path = str(save_run(run, tmp_path / "run.json"))
    printed = {
        fmt: _printed(["report", "--input", path, "--group-attr", "group", "--format", fmt])
        for fmt in ASSERTED
    }
    assert printed == ASSERTED


# --- run files ------------------------------------------------------------------

#: A synthetic run carrying every optional section: attributes, a ledger,
#: baseline scores with distances and overrides, metadata and veto rules.
FULL_RUN = (120, 0.3, VETO, "score", ("group", "baseline", "ledger"), 34)

SAVED = {
    "fixture": "07a1a69643cc7c38302ad7e09edc4d2f3cbe4d694935c20e9d30c7cff6367ab2",
    "full": "68735416a0cb72363951c5fe4d5d23aa5a2c6317b2880e60026686996e6be722",
    "n40-s1": "35c720b5a88e421c17b2130fa6d1aaa7595528ef8988700ca814b9736e8bf4f8",
    "n800-s17": "fb1d14e4a4aea4126ace674884545ad2a1f7a826a7bc96e3d5c6e52b06f6e45f",
}


def _full_run():
    """``FULL_RUN`` with a metadata note that needs escaping."""
    full = _synthetic_run(*FULL_RUN)
    return replace(full, metadata={**full.metadata, "note": "Zürich \"q\" \\ \u0007"})


def test_saved_run_bytes_are_pinned(tmp_path):
    """The SHA-256 of what ``save_run`` writes for the fixture as loaded, for
    a run with every optional section and for two of ``SYNTHETIC``."""
    runs = {
        "fixture": load_run(crossed_clusters_path()),
        "full": _full_run(),
        "n40-s1": _synthetic_run(*SYNTHETIC[0]),
        "n800-s17": _synthetic_run(*SYNTHETIC[16]),
    }
    saved = {
        name: _as_pinned(save_run(run, tmp_path / f"{name}.json").read_text(encoding="utf-8"))
        for name, run in runs.items()
    }
    assert saved == SAVED


def _keys(value):
    """Every dict key in ``value``, at any depth."""
    if isinstance(value, dict):
        yield from value
        values = value.values()
    elif isinstance(value, (list, tuple)):
        values = value
    else:
        return
    for child in values:
        yield from _keys(child)


def test_indented_and_compact_run_files_load_alike():
    """A run file loads the same whether it is indented, as files written
    before run files became compact are, or compact; and every key the
    engine writes into a run file or a report is a string, since sorted
    keys of mixed types cannot be written and an int key would sort apart
    from its string form after a rebuild."""
    runs = {
        "fixture": (load_run(crossed_clusters_path()), None),
        "full": (_full_run(), "group"),
        "n120-s8": (_synthetic_run(*SYNTHETIC[7]), None),
    }
    for name, (run, group_attr) in runs.items():
        doc = to_dict(run)
        compact = dumps_run(run)
        indented = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert compact != indented, name
        assert loads_run(indented) == loads_run(compact) == run, name
        report = build_report_doc(audit_run(run), group_attr, include_baselines=True)
        assert {type(key) for key in _keys([doc, report])} == {str}, name


# --- broken tables ---------------------------------------------------------------


def _unknown_ids(doc, rng):
    ids = doc["individuals"]
    for k in range(12):
        doc["sim"][rng.choice(ids)][f"ghost{k}"] = round(rng.random(), 3)
        doc["sim"][f"stray{k}"] = {rng.choice(ids): 0.5, f"stray{k}": 1.0}
    for k in range(4):
        doc["rec"]["values"][f"zz{k}"] = 1
        del doc["rec"]["values"][rng.choice(sorted(doc["rec"]["values"]))]


def _out_of_range(doc, rng):
    ids = doc["individuals"]
    for _ in range(25):
        doc["sim"][rng.choice(ids)][rng.choice(ids)] = rng.choice(
            [-0.25, 1.5, 2.0, float("nan"), -1e-9, 1.0000001]
        )


def _missing_diagonals(doc, rng):
    for x in rng.sample(doc["individuals"], 15):
        if rng.random() < 0.3:
            del doc["sim"][x]
        else:
            del doc["sim"][x][x]


BROKEN = {
    "unknown_ids": (
        _unknown_ids,
        "2:2ffa64f546cb4c235fed53ba2a7cd84793b9bfd350d6372c1704eb14cea18979",
    ),
    "out_of_range": (
        _out_of_range,
        "2:0bf763e1b9ada43f9c98593d2a52293ad46f50994e5a6404cf95bc11e90f2f57",
    ),
    "missing_diagonals": (
        _missing_diagonals,
        "2:a09deefd8af1dcba8774a0237b5b2ac78dbda22f0edf4980d554bf8289c41d4c",
    ),
}


#: The text form of ``validate`` on each broken table of ``BROKEN``.
BROKEN_TEXT = {
    "unknown_ids": "2:35c0c66a00f5a39b8a7c8f67b314770aa137273caf9d9c471afc9a8a67e206e2",
    "out_of_range": "2:82532696c5dc0f4584ae1c7a15f2bac2ea05d5f79708634e15a7979a45462226",
    "missing_diagonals": "2:b87582fc44aa455b8f0bfd019c75ebaa69720745aa1174c8ec7fe2682167ee3c",
}


def _broken_table(tmp_path, name):
    doc = to_dict(generate_population(SynthProfile(n=60, cluster_density=0.3, seed=30)))
    BROKEN[name][0](doc, random.Random(name))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_validation_of_broken_table_is_pinned(tmp_path, name):
    path = _broken_table(tmp_path, name)
    assert _printed(["validate", "--input", path, "--format", "json"]) == BROKEN[name][1]


@pytest.mark.parametrize("name", sorted(BROKEN_TEXT))
def test_text_validation_of_broken_table_is_pinned(tmp_path, name):
    path = _broken_table(tmp_path, name)
    assert _printed(["validate", "--input", path, "--format", "text"]) == BROKEN_TEXT[name]


# --- recommendation values written as the other number type ----------------------


def _retyped_recs_doc(kind):
    """A generated run's document whose binary labels are written as the
    floats 1.0 and 0.0, or whose scores include the ints 0 and 1."""
    doc = to_dict(generate_population(SynthProfile(n=60, cluster_density=0.3, seed=39)))
    values = doc["rec"]["values"]
    if kind == "binary":
        doc["rec"] = {"kind": "binary", "values": {i: float(v) for i, v in values.items()}}
    else:
        rng = random.Random("retyped")
        scores = {i: rng.choice([0, 1, round(rng.random(), 3)]) for i in sorted(values)}
        doc["rec"] = {"kind": "score", "values": scores}
    return doc


RETYPED = {
    "binary-saved": "af9091f1677679799db2697462297c45afcf65282e1fd0ec1520c1068617bbce",
    "binary-report": "0:b8a5f45ed28010120140ee7a7bad226698793931086f27a15c223929f91c8713",
    "score-saved": "efbf026a6301990e6ace5ae51d284f51b501839049f404ad8a804b4ce471e00d",
    "score-report": "0:73b0eb67c51c44fb83003e890f0fd1fe5164811dd37645f5f58951535872d7af",
}


def test_retyped_recommendation_values_are_pinned(tmp_path):
    """A binary ``1.0`` is saved as ``1`` and a score ``1`` as ``1.0``: the
    SHA-256 of what ``save_run`` writes after ``load_run``, and the report."""
    printed = {}
    for kind in ("binary", "score"):
        doc = _retyped_recs_doc(kind)
        assert {type(v) for v in doc["rec"]["values"].values()} >= (
            {float} if kind == "binary" else {int, float}
        )
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        saved = save_run(load_run(path), tmp_path / f"{kind}-saved.json")
        printed[f"{kind}-saved"] = _as_pinned(saved.read_text(encoding="utf-8"))
        printed[f"{kind}-report"] = _printed(
            ["report", "--input", str(path), "--format", "json"]
        )
    assert printed == RETYPED
