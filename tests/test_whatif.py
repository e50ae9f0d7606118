"""Tests for the counterfactual what-if engine (repro.obs.whatif).

The engine's contract is self-auditing: the identity scenario predicts
the journal's own makespan *exactly* (all 8 workloads x 2 engines),
bucket-speed scenarios are bit-exact against the executable
``seed_bucket_slowdown`` dilation transform, and structural scenarios
(nodes, fabric) stay within the documented prediction-error tolerances
when validated against real re-runs.
"""

import json

import pytest

from repro.evaluation.__main__ import main
from repro.evaluation.runner import run_workload
from repro.evaluation.workloads import workload_by_name
from repro.obs.journal import dilate_bucket_charges, encode_record, seed_bucket_slowdown
from repro.obs.whatif import (
    WHATIF_SCHEMA,
    Scenario,
    ScenarioError,
    WhatIfModel,
    parse_scenario,
    parse_sweep,
    scenario_journal,
    validate,
    validation_matrix,
    whatif_dict,
)

#: documented tolerances (README "what-if / capacity planning"): bucket
#: scenarios are exact, fabric swaps within 5%, node rescales within 60%
FABRIC_TOLERANCE = 0.05
NODES_TOLERANCE = 0.60


@pytest.fixture(scope="module")
def journals(tiny_fleet):
    """(workload, engine) -> journal records, tiny fidelity, all of Table 2."""
    out = {}
    for name, row in tiny_fleet.items():
        out[(name, "hamr")] = row.hamr_journal.records
        out[(name, "hadoop")] = row.hadoop_journal.records
    return out


@pytest.fixture(scope="module")
def models(journals):
    """(workload, engine) -> the what-if model of that journal."""
    return {key: WhatIfModel(records) for key, records in journals.items()}


@pytest.fixture(scope="module")
def wc_model(models):
    return models[("wordcount", "hamr")]


# -- scenario parsing ---------------------------------------------------------------


class TestScenarioParsing:
    def test_identity_forms(self):
        for text in (None, "", "identity", "none"):
            sc = parse_scenario(text)
            assert sc.is_identity and sc.describe() == "identity"

    def test_aliases_and_canonical_order(self):
        sc = parse_scenario("net=2.0,io=0.5,cpu=4")
        assert sc.speeds == {"network": 2.0, "disk": 0.5, "compute": 4.0}
        assert sc.describe() == "compute=4,disk=0.5,network=2"

    def test_parse_describe_fixpoint(self):
        text = "compute=0.5,network=2,nodes=9,fabric=rdma,racks=4"
        assert parse_scenario(text).describe() == text
        assert parse_scenario(parse_scenario(text).describe()).describe() == text

    def test_speeds_invert_to_time_factors(self):
        sc = parse_scenario("disk=0.5")
        assert sc.time_factors == {"disk": 2.0}

    @pytest.mark.parametrize(
        "bad",
        ["gpu=2", "disk", "disk=", "disk=zero", "disk=0", "disk=-1",
         "nodes=1", "nodes=x", "racks=0", "fabric=warp"],
    )
    def test_rejects_malformed_terms(self, bad):
        with pytest.raises(ScenarioError):
            parse_scenario(bad)

    def test_sweep_doubling(self):
        assert parse_sweep("nodes=4..32") == ("nodes", [4, 8, 16, 32])

    def test_sweep_linear_step(self):
        assert parse_sweep("nodes=4..16:4") == ("nodes", [4, 8, 12, 16])

    def test_sweep_explicit_list_and_alias(self):
        assert parse_sweep("io=0.25,0.5,2") == ("disk", [0.25, 0.5, 2.0])

    @pytest.mark.parametrize(
        "bad", ["fabric=a..b", "nodes=", "nodes=8..4", "nodes=4..6", "nodes=4..16:0"]
    )
    def test_sweep_rejects_malformed(self, bad):
        with pytest.raises(ScenarioError):
            parse_sweep(bad)

    @pytest.mark.parametrize("bad,floor", [
        ("nodes=0..8", "nodes must be >= 2"),  # doubling from 0 never ended
        ("nodes=-2..4", "nodes must be >= 2"),
        ("nodes=1..8:1", "nodes must be >= 2"),
        ("nodes=0..8:2", "nodes must be >= 2"),
        ("nodes=1,4", "nodes must be >= 2"),
        ("racks=0..4", "racks must be >= 1"),
        ("racks=0..4:2", "racks must be >= 1"),
    ])
    def test_sweep_has_the_scenario_floors(self, bad, floor):
        with pytest.raises(ScenarioError, match=floor):
            parse_sweep(bad)

    def test_sweep_step_is_not_floored(self):
        assert parse_sweep("nodes=2..5:1") == ("nodes", [2, 3, 4, 5])
        assert parse_sweep("racks=1..4") == ("racks", [1, 2, 4])


# -- the identity invariant ---------------------------------------------------------


class TestIdentityExactness:
    def test_identity_predicts_own_makespan_exactly_for_all_table2(self, journals, models):
        """8 workloads x 2 engines: empty scenario == recorded makespan."""
        for (name, engine), records in journals.items():
            model = models[(name, engine)]
            p = model.predict(Scenario())
            assert p.exact and p.method == "identity", (name, engine)
            assert p.predicted == model.makespan, (name, engine)
            assert p.optimistic == model.makespan, (name, engine)
            assert p.pessimistic == model.makespan, (name, engine)
            assert p.predicted == records[-1]["makespan"], (name, engine)

    def test_payload_is_deterministic(self, journals):
        records = journals[("wordcount", "hamr")]
        scenarios = [parse_scenario(s) for s in ("identity", "disk=0.5", "nodes=9")]
        dumps = []
        for _ in range(2):
            model = WhatIfModel(records)
            payload = whatif_dict(model, [model.predict(s) for s in scenarios])
            dumps.append(json.dumps(payload, sort_keys=True))
        assert dumps[0] == dumps[1]
        assert json.loads(dumps[0])["schema"] == WHATIF_SCHEMA


# -- bucket scenarios: exact vs the executable transform ---------------------------


class TestBucketScenarios:
    @pytest.mark.parametrize("engine", ["hamr", "hadoop"])
    def test_prediction_is_bit_exact_vs_seeded_slowdown(self, journals, engine):
        records = journals[("wordcount", engine)]
        model = WhatIfModel(records)
        p = model.predict(parse_scenario("disk=0.5"))
        seeded = seed_bucket_slowdown(records, "disk", 2.0)
        assert p.exact and p.method == "dilation"
        assert p.predicted == seeded[-1]["makespan"]
        assert p.optimistic == p.predicted == p.pessimistic

    def test_scenario_journal_matches_seeding_byte_for_byte(self, journals):
        records = journals[("wordcount", "hamr")]
        ours = scenario_journal(records, parse_scenario("network=0.25"))
        seeded = seed_bucket_slowdown(records, "network", 4.0)
        assert [encode_record(r) for r in ours] == [
            encode_record(r) for r in seeded
        ]

    def test_scenario_journal_rejects_structural_scenarios(self, journals):
        with pytest.raises(ScenarioError):
            scenario_journal(journals[("wordcount", "hamr")], parse_scenario("nodes=9"))

    def test_slowdown_is_monotone_in_the_factor(self, wc_model):
        """Scaling a bucket down in speed never decreases the prediction."""
        speeds = [4.0, 2.0, 1.0, 0.5, 0.25]
        preds = [
            wc_model.predict(parse_scenario(f"disk={s}")).predicted for s in speeds
        ]
        for faster, slower in zip(preds, preds[1:]):
            assert faster <= slower + 1e-9
        assert preds[2] == wc_model.makespan  # speed 1.0 is the identity

    def test_composed_equals_sequential_dilation(self, journals):
        """One composed scenario == the two dilations applied in sequence."""
        records = journals[("wordcount", "hamr")]
        model = WhatIfModel(records)
        composed = model.predict(parse_scenario("disk=0.5,network=0.5")).predicted
        once = seed_bucket_slowdown(records, "disk", 2.0)
        twice = seed_bucket_slowdown(once, "network", 2.0)
        assert composed == pytest.approx(twice[-1]["makespan"], rel=1e-9)

    def test_structural_noop_matches_pure_dilation(self, wc_model):
        """nodes= the journal's own cluster adds nothing to a dilation."""
        pure = wc_model.predict(parse_scenario("disk=0.5")).predicted
        noop = wc_model.predict(
            parse_scenario(f"disk=0.5,nodes={wc_model.num_workers + 1}")
        )
        assert noop.method == "model"
        assert noop.predicted == pytest.approx(pure, rel=1e-9)


class TestBucketPlanExactness:
    """A bucket-only prediction is planned from the dilation's own fold and
    equals the dilated journal's footer ``makespan`` bit for bit."""

    #: one bucket slowed, one sped up, two buckets, three buckets
    SCENARIOS = (
        "disk=0.5", "network=2", "compute=0.5,stall=2", "network=0.5,disk=2,atomic=0.25",
    )

    @staticmethod
    def _assert_exact(model, records, texts, where):
        for text in texts:
            scenario = parse_scenario(text)
            p = model.predict(scenario)
            dilated = dilate_bucket_charges(records, scenario.time_factors)
            assert p.exact and p.method == "dilation", (where, text)
            assert p.predicted == dilated[-1]["makespan"], (where, text)

    def test_every_tiny_fleet_journal(self, journals, models):
        for key, records in journals.items():
            self._assert_exact(models[key], records, self.SCENARIOS, key)

    @pytest.mark.parametrize("engine", ["hamr", "hadoop"])
    def test_a_journal_dilated_once(self, journals, engine):
        dilated = seed_bucket_slowdown(journals[("wordcount", engine)], "disk", 2.0)
        texts = self.SCENARIOS + ("disk=2",)
        self._assert_exact(WhatIfModel(dilated), dilated, texts, engine)

    def test_spans_closing_together_are_summed_in_first_charge_order(self):
        """Three charged spans close at one virtual time. They open as A, B,
        C but are first charged to the factored bucket as B, C, A (A's
        first charge is to an unfactored bucket). The inserted time is
        ``((0 + B) + C) + A``, and its bits differ from the open order's."""
        end = makespan = 0.25
        seconds = {2: 0.1, 3: 0.2, 4: 0.3}  # A, B, C

        def charge(span, bucket, value):
            return {"t": "b", "j": "syn", "bk": bucket, "v": value, "sp": span, "nd": 1}

        records = [
            {"t": "header", "schema": "repro.obs.journal/v3", "workload": "syn",
             "engine": "hamr", "label": "Synthetic", "data_size": "1KB"},
            {"t": "so", "id": 1, "n": "job:syn", "c": "job", "j": "syn", "st": 0.0},
            *({"t": "so", "id": span, "n": f"task{span}", "c": "task", "j": "syn",
               "nd": 1, "st": 0.0} for span in seconds),
            charge(2, "compute", 0.05),
            charge(3, "disk", seconds[3]),
            charge(4, "disk", seconds[4]),
            charge(2, "disk", seconds[2]),
            *({"t": "sc", "id": span, "end": end} for span in seconds),
            {"t": "sc", "id": 1, "end": end},
            {"t": "footer", "makespan": makespan, "virtual_end": makespan},
        ]
        expected = makespan + (((0.0 + seconds[3]) + seconds[4]) + seconds[2])
        open_order = makespan + (((0.0 + seconds[2]) + seconds[3]) + seconds[4])
        assert expected != open_order
        scenario = parse_scenario("disk=0.5")
        assert dilate_bucket_charges(records, {"disk": 2.0})[-1]["makespan"] == expected
        assert WhatIfModel(iter(records)).predict(scenario).predicted == expected


# -- structural scenarios: nodes and fabric ----------------------------------------


class TestNodeScaling:
    def test_scale_down_never_speeds_up(self, wc_model):
        base = wc_model.makespan
        for nodes in (5, 9, 13):
            p = wc_model.predict(parse_scenario(f"nodes={nodes}"))
            assert p.predicted >= base - 1e-9, nodes
            assert p.pessimistic >= p.predicted >= p.optimistic

    def test_scale_up_never_slows_down(self, wc_model):
        base = wc_model.makespan
        for nodes in (24, 32):
            p = wc_model.predict(parse_scenario(f"nodes={nodes}"))
            assert p.predicted <= base + 1e-9, nodes

    def test_prediction_error_within_tolerance_vs_real_rerun(self):
        """nodes=9 on wordcount:hamr — predicted vs an actual re-run."""
        row = run_workload(workload_by_name("wordcount", "tiny"),
                           engines="hamr", journal=True)
        model = WhatIfModel(row.hamr_journal.records)
        p = model.predict(parse_scenario("nodes=9"))
        rerun = workload_by_name("wordcount", "tiny")
        rerun.num_workers = 8
        actual = run_workload(rerun, engines="hamr").hamr_seconds
        error = abs(p.predicted - actual) / actual
        assert error <= NODES_TOLERANCE
        slack = 1e-3 * model.makespan
        assert p.optimistic - slack <= actual <= p.pessimistic + slack


class TestFabricScenarios:
    def test_rdma_rebates_serde_on_hamr_only(self, journals):
        hamr = WhatIfModel(journals[("wordcount", "hamr")])
        hadoop = WhatIfModel(journals[("wordcount", "hadoop")])
        p_hamr = hamr.predict(parse_scenario("fabric=rdma"))
        p_hadoop = hadoop.predict(parse_scenario("fabric=rdma"))
        assert p_hamr.predicted < hamr.makespan
        assert p_hadoop.predicted == pytest.approx(hadoop.makespan)

    def test_fabric_error_within_tolerance_vs_real_rerun(self, wc_model):
        p = wc_model.predict(parse_scenario("fabric=rdma"))
        rerun = run_workload(
            workload_by_name("wordcount", "tiny"), engines="hamr", fabric="rdma"
        )
        actual = rerun.hamr_seconds
        assert abs(p.predicted - actual) / actual <= FABRIC_TOLERANCE

    def test_same_fabric_is_a_noop(self, wc_model):
        p = wc_model.predict(parse_scenario("fabric=direct,serde=1"))
        assert p.predicted == pytest.approx(wc_model.makespan)


# -- sweeps -------------------------------------------------------------------------


class TestSweep:
    def test_node_sweep_orders_capacity_curve(self, wc_model):
        key, values = parse_sweep("nodes=4..32")
        points = wc_model.sweep(key, values, Scenario())
        assert [p.scenario.nodes for p in points] == [4, 8, 16, 32]
        preds = [p.predicted for p in points]
        assert preds == sorted(preds, reverse=True)  # more nodes, never slower

    def test_sweep_composes_with_a_base_scenario(self, wc_model):
        key, values = parse_sweep("nodes=8,16")
        points = wc_model.sweep(key, values, parse_scenario("disk=0.5"))
        assert all(p.scenario.speeds == {"disk": 0.5} for p in points)
        assert [p.scenario.nodes for p in points] == [8, 16]


# -- the validation harness ---------------------------------------------------------


class TestValidationHarness:
    def test_matrix_covers_all_scenario_families(self, wc_model):
        matrix = validation_matrix(wc_model)
        texts = [s.describe() for s in matrix]
        assert texts[0] == "identity"
        assert any(s.bucket_only for s in matrix)
        assert any(s.nodes is not None for s in matrix)
        assert any(s.fabric is not None for s in matrix)

    def test_identity_row_is_exact_without_an_executor(self, wc_model):
        rows = validate(wc_model, executor=None)
        first = rows[0]
        assert first.method == "identity"
        assert first.error == 0.0 and first.within_bounds
        assert all(r.method == "skipped" and r.actual is None for r in rows[1:])

    def test_executor_results_feed_error_and_bounds(self, wc_model):
        def executor(sc):
            return wc_model.predict(sc).predicted * 1.10

        rows = validate(
            wc_model, executor, scenarios=[parse_scenario("nodes=9")]
        )
        (row,) = rows
        assert row.method == "run"
        assert row.error == pytest.approx(-0.10 / 1.10)

    def test_dilation_rows_validate_exactly(self, journals, wc_model):
        def executor(sc):
            return scenario_journal(journals[("wordcount", "hamr")], sc)[-1]["makespan"]

        rows = validate(
            wc_model, executor, scenarios=[parse_scenario("compute=0.5")]
        )
        assert rows[0].method == "dilation" and rows[0].error == 0.0


# -- CLI ----------------------------------------------------------------------------


class TestWhatifCLI:
    @pytest.fixture(scope="class")
    def journal_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("whatif") / "wc.journal.jsonl"
        assert main([
            "journal", "--workload", "wordcount", "--engine", "hamr",
            "--fidelity", "tiny", "--out", str(path),
        ]) == 0
        return str(path)

    def test_scenario_table_and_json(self, journal_path, tmp_path, capsys):
        out = tmp_path / "wi.json"
        assert main([
            "whatif", journal_path,
            "--scenario", "net=2.0,disk=0.5", "--json", str(out),
        ]) == 0
        assert "What-if" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["schema"] == WHATIF_SCHEMA
        assert payload["scenarios"][0]["scenario"] == "disk=0.5,network=2"
        assert payload["scenarios"][0]["exact"] is True

    @pytest.mark.parametrize("engine", ["hamr", "hadoop"])
    def test_node_sweep_bounds_bracket_the_prediction(self, engine, tmp_path, capsys):
        """A live ``workload:engine`` node sweep: four or more points, each
        with ``optimistic <= predicted <= pessimistic``."""
        out = tmp_path / "sweep.json"
        assert main([
            "whatif", f"wordcount:{engine}", "--fidelity", "tiny",
            "--sweep", "nodes=4..32", "--json", str(out),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.obs.whatif/v1", doc["schema"]
        points = doc["sweep"]["points"]
        assert len(points) >= 4, f"{engine}: expected a 4+-point sweep"
        for point in points:
            assert point["optimistic"] <= point["predicted"] <= point["pessimistic"]

    def test_sweep_renders_capacity_curve(self, journal_path, capsys):
        assert main([
            "whatif", journal_path, "--sweep", "nodes=4..16:4",
        ]) == 0
        assert "Capacity curve" in capsys.readouterr().out

    def test_identity_emit_journal_is_byte_identical(self, journal_path,
                                                     tmp_path, capsys):
        from unittest import mock

        import repro.obs.journal as journal

        out = tmp_path / "id.jsonl"
        with mock.patch.object(journal, "iter_journal", wraps=journal.iter_journal) as decode:
            assert main(["whatif", journal_path, "--emit-journal", str(out)]) == 0
        assert out.read_bytes() == open(journal_path, "rb").read()
        # the model and the written journal share one decoded list
        assert decode.call_count == 1

    def test_emit_journal_rejects_structural_scenarios(self, journal_path,
                                                       tmp_path, capsys):
        assert main([
            "whatif", journal_path, "--scenario", "nodes=9",
            "--emit-journal", str(tmp_path / "x.jsonl"),
        ]) == 2
        assert "bucket-only" in capsys.readouterr().err

    def test_bad_scenario_exits_2(self, journal_path, capsys):
        assert main(["whatif", journal_path, "--scenario", "gpu=2"]) == 2
        assert "unknown scenario key" in capsys.readouterr().err

    def test_missing_journal_exits_2(self, capsys):
        assert main(["whatif", "no_such.journal.jsonl"]) == 2

    def test_bad_spec_exits_2(self, capsys):
        assert main(["whatif", "wordcount:spark"]) == 2
        assert "neither a journal file" in capsys.readouterr().err

    def test_execute_dilation_passes_a_tight_gate(self, journal_path, capsys):
        argv = [
            "whatif", journal_path, "--scenario", "disk=0.5",
            "--execute", "--max-error", "1e-9",
        ]
        assert main(argv) == 0
        assert "Validation" in capsys.readouterr().out
        assert main(argv + ["--json", "-"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["validation"]
        assert row["method"] == "dilation"
        assert row["within_bounds"] is True
        assert abs(row["error"]) <= 1e-9

    def test_execute_skips_an_unexecutable_scenario_without_announcing_it(
        self, journal_path, capsys
    ):
        assert main([
            "whatif", journal_path, "--scenario", "nodes=8,disk=0.5",
            "--execute", "--json", "-",
        ]) == 0
        captured = capsys.readouterr()
        assert "executing" not in captured.err
        (row,) = json.loads(captured.out)["validation"]
        assert row["method"] == "skipped"

    def test_max_error_gate_fails_loudly(self, journal_path, capsys,
                                         monkeypatch):
        real_validate = validate

        def bad_executor_validate(model, executor=None, scenarios=None):
            rows = real_validate(model, None, scenarios=scenarios)
            for row in rows:
                row.actual = row.prediction.predicted * 2.0
                row.method = "run"
            return rows

        monkeypatch.setattr(
            "repro.obs.whatif.validate", bad_executor_validate
        )
        assert main([
            "whatif", journal_path, "--scenario", "disk=0.5",
            "--execute", "--max-error", "0.25",
        ]) == 1
        assert "exceeds" in capsys.readouterr().err
