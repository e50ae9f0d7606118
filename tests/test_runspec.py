"""RunSpec: a run's identity and its text form, decided in one place.

Canonical text and the spec are a fixpoint over every workload × engine ×
fabric × partitioner; records written before fabrics existed resolve to
the defaults; only off-default fields are ever stamped. The selectors that
must fail are in ``test_doctor.py::test_bad_series_specs_raise`` (doctor
is the command that reads them).
"""

import pytest

from repro.cluster.spec import paper_cluster_spec, small_cluster_spec
from repro.core.engine import PARTITIONERS
from repro.dataplane.fabrics import FABRICS
from repro.evaluation.workloads import TABLE2_ORDER
from repro.obs.runspec import ENGINES, RunSpec

#: canonical text -> the spec it names
CANONICAL = [
    ("wordcount:hamr", RunSpec("wordcount", "hamr")),
    ("terasort:hadoop@twolevel", RunSpec("terasort", "hadoop", fabric="twolevel")),
    ("terasort:hadoop@twolevel+shard", RunSpec("terasort", "hadoop", "twolevel", "shard")),
    ("wordcount:hamr+shard", RunSpec("wordcount", "hamr", partitioner="shard")),
    ("pagerank:hadoop@rdma", RunSpec("pagerank", "hadoop", fabric="rdma")),
]


def test_canonical_text_table():
    for text, spec in CANONICAL:
        assert RunSpec.parse(text) == spec
        assert str(spec) == text
    # an explicit default is accepted and prints canonically
    for text in ("wordcount:hamr@direct", "wordcount:hamr+hash", "wordcount:hamr@direct+hash"):
        assert RunSpec.parse(text) == RunSpec("wordcount", "hamr", "direct", "hash")
        assert str(RunSpec.parse(text)) == "wordcount:hamr"


def test_parse_and_str_are_a_fixpoint_over_every_run():
    for workload in TABLE2_ORDER:
        for engine in ENGINES:
            for fabric in FABRICS:
                for partitioner in PARTITIONERS:
                    spec = RunSpec(workload, engine, fabric, partitioner)
                    text = str(spec)
                    assert RunSpec.parse(text) == spec
                    assert str(RunSpec.parse(text)) == text


def test_rejection_names_the_order_and_the_valid_values():
    with pytest.raises(ValueError) as rejected:
        RunSpec.parse("wordcount:hamr+shard@twolevel")
    message = str(rejected.value)
    assert "workload:engine[@fabric][+partitioner], in that order" in message
    assert ", ".join(FABRICS) in message and ", ".join(PARTITIONERS) in message


def test_tiny_fleet_headers_name_their_runs(tiny_fleet):
    specs = [
        RunSpec.from_header(getattr(row, f"{engine}_journal").records[0])
        for row in tiny_fleet.values()
        for engine in ENGINES
    ]
    assert specs == [
        RunSpec(name, engine) for name in tiny_fleet for engine in ENGINES
    ]
    assert len(specs) == 16


def test_records_written_before_fabrics_are_default_runs():
    v1_header = {"t": "header", "schema": "repro.obs.journal/v1",
                 "workload": "wordcount", "engine": "hamr"}
    legacy_entry = {"virtual_seconds": 41.2, "stall_share": 0.63}
    default = RunSpec("wordcount", "hamr", "direct", "hash")
    assert RunSpec.from_header(v1_header) == default
    assert RunSpec.from_entry("wordcount", "hamr", legacy_entry) == default


def test_only_off_default_fields_are_stamped():
    assert RunSpec("wordcount", "hamr").stamp({"schema": "x"}) == {"schema": "x"}
    assert RunSpec("wordcount", "hamr", "tree").stamp({}) == {"fabric": "tree"}
    assert RunSpec("wordcount", "hamr", partitioner="shard").stamp({}) == {
        "partitioner": "shard"
    }
    assert RunSpec("wordcount", "hamr").engine_label == "hamr"
    assert RunSpec("wordcount", "hamr", "twolevel", "shard").engine_label == (
        "hamr@twolevel+shard"
    )


def test_rack_size_for_a_fabric():
    paper = paper_cluster_spec()  # 15 workers
    assert paper.rack_size_for("direct") == 0
    assert paper.rack_size_for("twolevel") == 3  # four racks by default
    assert paper.rack_size_for("direct", racks=5) == 3
    assert paper.rack_size_for("twolevel", racks=2) == 7
    assert paper.with_racks(5).rack_size_for("twolevel") == 5  # its own racks
    assert small_cluster_spec(num_workers=3).rack_size_for("twolevel") == 1
