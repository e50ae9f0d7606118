"""Tests for durable run journals and byte-identical replay.

Mirrors the hostprof non-perturbation suite: journaling must be provably
one-way (virtual outputs byte-identical with the journal on or off), the
journal itself must be byte-deterministic across identical runs, and
replaying a journal must reproduce every derived view — report,
timeline, chrome trace, critical path — byte for byte, with no
re-execution.
"""

import contextlib
import gc
import gzip
import io
import json
import math
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import wordcount
from repro.apps.base import AppEnv
from repro.cluster.spec import small_cluster_spec
from repro.evaluation.cli.views import heading
from repro.evaluation.obsreport import report_json
from repro.evaluation.runner import run_workload
from repro.evaluation.telemetryreport import telemetry_json
from repro.evaluation.workloads import workload_by_name
from repro.obs import journal
from repro.obs.blame import BUCKETS
from repro.obs.journal import (
    _BLOCK_LINES,
    _CHUNK_BYTES,
    JOURNAL_SCHEMA,
    RECORD_TYPES,
    JournalError,
    JournalWriter,
    decode_record,
    dilate_bucket_charges,
    encode_record,
    iter_journal,
    journal_open,
    load_journal,
    read_journal,
    seed_bucket_slowdown,
)
from repro.obs.corpus import encode_row, ingest, load_corpus, render_corpus, render_row
from repro.obs.replay import replay_file, replay_lines
from tests.conftest import journaled_run


# -- encoding -------------------------------------------------------------------


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

_records = st.fixed_dictionaries(
    {"t": st.sampled_from(RECORD_TYPES)},
    optional={
        "n": st.text(max_size=20),
        "v": _scalars,
        "l": st.lists(
            st.tuples(st.text(max_size=8), _scalars).map(list), max_size=3
        ),
        "a": st.dictionaries(st.text(max_size=8), _scalars, max_size=3),
    },
)


#: what ``json.dumps`` accepts beyond the round-trip strategy: non-finite
#: floats, -0.0, integers past 64 bits, any unicode, nested label lists
_wide_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 2**63, 2**64 + 1]),
    st.floats(),
    st.text(max_size=20),
)

_dumps_records = st.fixed_dictionaries(
    {"t": st.sampled_from(RECORD_TYPES)},
    optional={
        "n": st.text(max_size=20),
        "v": _wide_scalars,
        "l": st.lists(
            st.tuples(st.text(max_size=8), _wide_scalars).map(list), max_size=3
        ),
        "nested": st.recursive(
            _wide_scalars,
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=8), inner, max_size=3),
            max_leaves=8,
        ),
    },
)


class TestEncoding:
    @given(_records)
    @settings(max_examples=200)
    def test_encode_decode_reencode_is_byte_identical(self, record):
        line = encode_record(record)
        assert "\n" not in line
        decoded = decode_record(line)
        assert decoded == record
        assert encode_record(decoded) == line

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_round_trip_exactly(self, value):
        record = {"t": "c", "v": value}
        assert decode_record(encode_record(record))["v"] == value

    @given(_dumps_records)
    @settings(max_examples=300)
    def test_prebuilt_encoder_matches_json_dumps(self, record):
        assert encode_record(record) == json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )

    def test_self_containing_record_raises(self):
        record = {"t": "c", "l": []}
        record["l"].append(record)
        with pytest.raises(ValueError, match="Circular"):
            encode_record(record)

    def test_failed_encode_leaves_the_next_one_alone(self):
        # the encoder is built once: a record it failed on must not stay
        # marked as in progress, or encoding that dict again reads as a cycle
        record = {"t": "c", "l": {"v": object()}}
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode_record(record)
        record["l"] = {"v": 1}
        assert encode_record(record) == json.dumps(
            record, sort_keys=True, separators=(",", ":")
        )

    def test_int_float_distinction_survives(self):
        as_int = decode_record(encode_record({"t": "c", "v": 3}))["v"]
        as_float = decode_record(encode_record({"t": "c", "v": 3.0}))["v"]
        assert isinstance(as_int, int) and isinstance(as_float, float)

    @pytest.mark.parametrize(
        "line",
        ["not json", "[1, 2]", '"just a string"', '{"no": "type"}',
         '{"t": "nope"}'],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(JournalError):
            decode_record(line)

    def test_read_journal_validates_structure(self):
        header = encode_record({"t": "header", "schema": JOURNAL_SCHEMA})
        footer = encode_record({"t": "footer", "events": 0})
        with pytest.raises(JournalError, match="empty"):
            read_journal([])
        with pytest.raises(JournalError, match="header"):
            read_journal([footer])
        with pytest.raises(JournalError, match="schema"):
            read_journal([encode_record({"t": "header", "schema": "x/v9"}), footer])
        with pytest.raises(JournalError, match="footer"):
            read_journal([header, encode_record({"t": "c", "n": "x", "l": [], "v": 1})])
        assert len(read_journal([header, footer])) == 2

    def test_reader_accepts_one_older_schema(self):
        _env, result, writer = journaled_run()
        lines = list(writer.lines)
        header = decode_record(lines[0])
        v2 = encode_record({**header, "schema": "repro.obs.journal/v2"})
        assert replay_lines([v2, *lines[1:]]).makespan == result.makespan
        v1 = encode_record({**header, "schema": "repro.obs.journal/v1"})
        with pytest.raises(
            JournalError, match="unsupported journal schema 'repro.obs.journal/v1'"
        ):
            replay_lines([v1, *lines[1:]])


class TestWriter:
    def test_header_footer_lifecycle(self):
        writer = JournalWriter()
        writer.write_header(workload="w")
        writer.emit({"t": "e", "s": 1, "d": 2, "k": "produce"})
        writer.write_footer(makespan=1.5)
        records = read_journal(writer.lines)
        assert records[0]["schema"] == JOURNAL_SCHEMA
        assert records[0]["workload"] == "w"
        # the footer's event count excludes the footer itself
        assert records[-1]["events"] == 2
        assert records[-1]["makespan"] == 1.5
        with pytest.raises(JournalError, match="sealed"):
            writer.emit({"t": "e", "s": 2, "d": 3, "k": "produce"})

    def test_double_header_and_missing_header_raise(self):
        writer = JournalWriter()
        writer.write_header()
        with pytest.raises(JournalError, match="already"):
            writer.write_header()
        fresh = JournalWriter()
        with pytest.raises(JournalError, match="before header"):
            fresh.write_footer()

    def test_span_counts(self):
        writer = JournalWriter()
        writer.write_header()
        writer.emit({"t": "so", "id": 1, "n": "a", "c": "task", "st": 0.0})
        writer.emit({"t": "so", "id": 2, "n": "b", "c": "task", "st": 1.0})
        writer.emit({"t": "sc", "id": 1, "end": 2.0})
        writer.write_footer()
        footer = writer.records[-1]
        assert footer["spans_opened"] == 2
        assert footer["spans_closed"] == 1

    def test_sink_streams_identical_bytes(self):
        sink = io.StringIO()
        _env, _result, writer = journaled_run(sink=sink)
        assert sink.getvalue() == _joined(writer.lines)

    def test_save_load_round_trip(self, tmp_path):
        _env, _result, writer = journaled_run()
        path = tmp_path / "run.journal.jsonl"
        writer.save(str(path))
        assert replay_file(str(path)).tracer.to_json() == replay_lines(
            writer.lines
        ).tracer.to_json()


# -- non-perturbation and determinism --------------------------------------------


class TestNonPerturbation:
    def test_journaling_does_not_perturb_virtual_outputs(self):
        """Journal on vs off: every virtual artifact stays byte-identical."""
        params = wordcount.WordCountParams(target_bytes=50_000, seed=0)
        records = wordcount.generate_input(params)
        env_off = AppEnv(small_cluster_spec(num_workers=3), obs=True)
        res_off = wordcount.run_hamr(env_off, params, records)
        env_on, res_on, _writer = journaled_run()
        assert res_off.makespan == res_on.makespan
        assert env_off.obs.to_json() == env_on.obs.to_json()
        assert report_json(env_off.obs, "wordcount", "hamr") == report_json(
            env_on.obs, "wordcount", "hamr"
        )
        assert json.dumps(env_off.obs.to_chrome_trace(), sort_keys=True) == (
            json.dumps(env_on.obs.to_chrome_trace(), sort_keys=True)
        )

    def test_journal_requires_enabled_tracer(self):
        from repro.obs.spans import Tracer
        from repro.sim import Simulator

        with pytest.raises(ValueError, match="enabled"):
            Tracer(Simulator(), enabled=False, journal=JournalWriter())


class TestDeterminism:
    def test_identical_runs_journal_byte_identically(self):
        _e1, _r1, w1 = journaled_run()
        _e2, _r2, w2 = journaled_run()
        assert w1.lines == w2.lines

    def test_cross_engine_determinism_at_fixed_seed(self):
        from repro.evaluation.workloads import workload_by_name

        rows = [
            run_workload(
                workload_by_name("wordcount", "tiny", seed=0), engines="both", journal=True
            )
            for _ in range(2)
        ]
        assert rows[0].hamr_journal.lines == rows[1].hamr_journal.lines
        assert rows[0].hadoop_journal.lines == rows[1].hadoop_journal.lines
        # the two engines produce *different* journals for the same input
        assert rows[0].hamr_journal.lines != rows[0].hadoop_journal.lines


# -- replay ----------------------------------------------------------------------


class TestReplay:
    def test_replay_metadata(self):
        _env, result, writer = journaled_run()
        run = replay_lines(writer.lines)
        assert run.workload == "wordcount"
        assert run.engine == "hamr"
        assert run.label == "WordCount"
        assert run.makespan == result.makespan
        assert "trace_dropped" not in run.footer
        assert heading(run) == (
            f"== WordCount ({run.data_size}) on hamr — makespan {result.makespan:.3f}s =="
        )

    def test_replay_reconstructs_wordcount_byte_identically(self):
        env, _result, writer = journaled_run()
        run = replay_lines(writer.lines)
        assert run.tracer.to_json() == env.obs.to_json()
        assert report_json(run.tracer, "wordcount", "hamr") == report_json(
            env.obs, "wordcount", "hamr"
        )
        assert telemetry_json(run.tracer, "wordcount", "hamr") == telemetry_json(
            env.obs, "wordcount", "hamr"
        )
        assert json.dumps(run.tracer.to_chrome_trace(), sort_keys=True) == (
            json.dumps(env.obs.to_chrome_trace(), sort_keys=True)
        )

    def test_replay_equals_live_for_all_table2_workloads(self, tiny_fleet):
        """The acceptance bar: every Table 2 workload x both engines
        replays to a byte-identical report from the journal alone."""
        for name, row in tiny_fleet.items():
            for engine, writer, tracer in (
                ("hamr", row.hamr_journal, row.hamr_obs),
                ("hadoop", row.hadoop_journal, row.hadoop_obs),
            ):
                run = replay_lines(writer.lines)
                assert report_json(run.tracer, name, engine) == report_json(
                    tracer, name, engine
                ), f"{name}/{engine} replay diverged from the live report"
                assert telemetry_json(run.tracer, name, engine) == (
                    telemetry_json(tracer, name, engine)
                ), f"{name}/{engine} replay diverged from the live timeline"

    def test_replay_rejects_unknown_mid_journal_record(self):
        writer = JournalWriter()
        writer.write_header()
        writer.emit({"t": "header", "schema": JOURNAL_SCHEMA})  # header mid-stream
        writer.write_footer()
        with pytest.raises(JournalError, match="mid-journal"):
            replay_lines(writer.lines)


# -- the retired sim-trace drop counter ----------------------------------------------

#: the footer keys journals written before the drop counter was retired carry
LEGACY_FOOTER = {"trace_records": 5, "trace_dropped": 7, "trace_max_records": 5}

#: every command that once accepted --trace-max-records, with its positionals
TRACE_BOUND_COMMANDS = (
    ["report"], ["timeline"], ["journal"], ["watch"], ["slo"],
    ["explain", "a.jsonl", "b.jsonl"], ["whatif", "run.jsonl"],
)


def _cli(argv, cwd, monkeypatch):
    """``main(argv)`` in ``cwd``: (exit code, stdout, stderr)."""
    from repro.evaluation.__main__ import main

    monkeypatch.chdir(cwd)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def legacy_dirs(tmp_path_factory):
    """The same baseline + disk-seeded journal pair twice: ``current`` as the
    writer emits it, ``legacy`` with the three retired keys in each footer.
    Same file names in both directories, so outputs that echo a path match."""
    _env, _result, writer = journaled_run()
    seeded = seed_bucket_slowdown(writer.records, "disk", 2.0)
    root = tmp_path_factory.mktemp("legacy_footer")
    dirs = {}
    for name, extra in (("current", {}), ("legacy", LEGACY_FOOTER)):
        path = root / name
        path.mkdir()
        for file, records in (("a.jsonl", writer.records), ("b.jsonl", seeded)):
            records = records[:-1] + [{**records[-1], **extra}]
            (path / file).write_text("".join(encode_record(r) + "\n" for r in records))
        dirs[name] = path
    return dirs


class TestTraceDropped:
    """No run records a sim-trace drop count any more, the flag that bounded
    the trace is gone, and journals and corpus rows that still carry the
    retired keys read exactly like the same artifacts without them."""

    def test_footer_carries_no_trace_keys(self):
        _env, _result, writer = journaled_run()
        partial = list(iter_journal(writer.lines[:-1], allow_partial=True))[-1]
        for footer in (writer.records[-1], partial):
            assert not set(LEGACY_FOOTER) & set(footer)

    def test_non_positive_trace_bound_exits_2(self, capsys):
        from repro.evaluation.__main__ import main

        for argv in TRACE_BOUND_COMMANDS:
            for bad in ("0", "-3", "5"):
                with pytest.raises(SystemExit) as exc:
                    main([*argv, "--trace-max-records", bad])
                assert exc.value.code == 2
                assert "unrecognized arguments: --trace-max-records" in (
                    capsys.readouterr().err
                )

    @pytest.mark.parametrize("view", ["report", "timeline", "critpath"])
    def test_legacy_footer_replays_identically(self, legacy_dirs, view, monkeypatch):
        outputs = {
            name: [
                _cli(["replay", "a.jsonl", "--view", view, *flags], path, monkeypatch)
                for flags in ([], ["--json", "-"])
            ]
            for name, path in legacy_dirs.items()
        }
        assert outputs["legacy"] == outputs["current"]
        assert outputs["current"][0][0] == 0 and outputs["current"][0][2] == ""

    def test_legacy_footer_ingests_identically(self, legacy_dirs):
        rows = {}
        for name, path in legacy_dirs.items():
            found, stats = ingest([str(path)])
            assert stats["added"] == 2
            rows[name] = sorted(found, key=lambda row: row["path"])
        for current, legacy in zip(rows["current"], rows["legacy"], strict=True):
            # the fingerprint hashes the journal's bytes, which differ by the keys
            assert current.pop("fingerprint") != legacy.pop("fingerprint")
            legacy_path, current_path = legacy.pop("path"), current.pop("path")
            assert os.path.basename(legacy_path) == os.path.basename(current_path)
            assert legacy == current

    def test_legacy_footer_diagnoses_identically(self, legacy_dirs, monkeypatch):
        argv = ["doctor", "a.jsonl", "b.jsonl", "--json", "-"]
        current = _cli(argv, legacy_dirs["current"], monkeypatch)
        assert current[0] == 0 and "sim-trace" not in current[1]
        assert _cli(argv, legacy_dirs["legacy"], monkeypatch) == current
        assert json.loads(current[1])["a"]["audit"]["verdict"] == "OK"

    def test_legacy_corpus_row_loads(self, legacy_dirs, tmp_path):
        rows, _stats = ingest([str(legacy_dirs["current"])])
        legacy = [{**row, "trace_dropped": 7} for row in rows]
        index = tmp_path / "corpus.jsonl"
        index.write_text("".join(encode_row(row) + "\n" for row in legacy))
        loaded = load_corpus(str(index))
        assert loaded == legacy
        assert render_corpus(loaded) == render_corpus(rows)
        assert [render_row(row) for row in loaded] == [render_row(row) for row in rows]


# -- seeded synthetic regression --------------------------------------------------


class TestSeededSlowdown:
    def test_rejects_bad_arguments(self):
        _env, _result, writer = journaled_run()
        with pytest.raises(ValueError, match="bucket"):
            seed_bucket_slowdown(writer.records, "nope", 2.0)
        with pytest.raises(ValueError, match="positive"):
            seed_bucket_slowdown(writer.records, "disk", 0.0)

    def test_dilation_grows_makespan_and_scales_charges(self):
        _env, _result, writer = journaled_run()
        records = writer.records
        factor = 2.0
        disk_total = sum(
            r["v"] for r in records if r["t"] == "b" and r["bk"] == "disk"
            and r.get("sp") is not None
        )
        assert disk_total > 0
        seeded = seed_bucket_slowdown(records, "disk", factor)
        base_footer, new_footer = records[-1], seeded[-1]
        grown = new_footer["makespan"] - base_footer["makespan"]
        assert grown == pytest.approx((factor - 1.0) * disk_total)
        assert new_footer["seeded_slowdown"] == {"bucket": "disk", "factor": factor}
        # every span's dilated interval is covered by its (scaled +
        # compensating) charges, so the critical path sees no phantom time
        assert sum(
            r["v"] for r in seeded if r["t"] == "b" and r["bk"] == "disk"
        ) >= factor * disk_total - 1e-9

    def test_dilation_preserves_event_order_and_replays(self):
        _env, _result, writer = journaled_run()
        seeded = seed_bucket_slowdown(writer.records, "disk", 2.0)
        # monotone remap: span opens never move before their original order
        opens = [r["st"] for r in seeded if r["t"] == "so"]
        base_opens = [r["st"] for r in writer.records if r["t"] == "so"]
        for base, new in zip(base_opens, opens):
            assert new >= base - 1e-12
        lines = [encode_record(r) for r in seeded]
        run = replay_lines(lines)
        assert run.makespan == seeded[-1]["makespan"]
        # the dilated journal still renders every derived view
        assert report_json(run.tracer, "wordcount", "hamr")

    def test_identity_factor_changes_only_the_footer(self):
        _env, _result, writer = journaled_run()
        seeded = seed_bucket_slowdown(writer.records, "disk", 1.0)
        assert len(seeded) == len(writer.records)
        assert seeded[:-1] == writer.records[:-1]

    def test_explain_ranks_seeded_bucket_first(self):
        """The CI self-test, in-process: a seeded disk slowdown must come
        back as the #1 makespan-delta contributor."""
        from repro.obs.explain import explain, side_from_tracer

        _env, _result, writer = journaled_run()
        assert "disk" in BUCKETS
        seeded = seed_bucket_slowdown(writer.records, "disk", 2.0)
        base = replay_lines(writer.lines)
        inflated = replay_lines([encode_record(r) for r in seeded])
        result = explain(
            side_from_tracer(base.tracer, "baseline"),
            side_from_tracer(inflated.tracer, "inflated"),
        )
        assert result.makespan_delta > 0
        assert result.top["buckets"] == "disk"
        top_row = result.rows["buckets"][0]
        assert top_row[0] == "disk"
        # the ranked contribution explains (at least) the makespan growth
        assert top_row[3] == pytest.approx(result.makespan_delta, rel=0.05)


# -- gzip transport ---------------------------------------------------------------


class TestGzipJournals:
    def test_gz_round_trip_is_byte_identical(self, tmp_path):
        """Same canonical encoding under gzip: decompressed bytes match the
        plain file, and replay reconstructs the identical tracer."""
        import gzip

        _env, _result, writer = journaled_run()
        plain = tmp_path / "run.journal.jsonl"
        packed = tmp_path / "run.journal.jsonl.gz"
        writer.save(str(plain))
        writer.save(str(packed))
        assert gzip.open(str(packed), "rb").read() == plain.read_bytes()
        assert replay_file(str(packed)).tracer.to_json() == replay_file(
            str(plain)
        ).tracer.to_json()

    def test_gz_files_are_deterministic(self, tmp_path):
        """No mtime/filename leaks into the gzip container."""
        _env, _result, writer = journaled_run()
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        writer.save(str(a))
        writer.save(str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_journal_open_modes(self, tmp_path):
        path = tmp_path / "x.jsonl.gz"
        with journal_open(str(path), "w") as fh:
            fh.write("hello\n")
        with journal_open(str(path)) as fh:
            assert fh.read() == "hello\n"
        with pytest.raises(ValueError):
            journal_open(str(path), "a")


# -- save(): the spooled body -------------------------------------------------------


def _joined(lines):
    """The body as one string: every line newline-terminated."""
    return "\n".join(lines) + "\n" if lines else ""


def _synthetic_writer(total_lines):
    """A writer holding ``total_lines`` lines (header first, no footer), and
    the lines each record encodes to, computed without the writer."""
    writer = JournalWriter()
    expected = []
    if total_lines:
        writer.write_header(workload="w")
        expected.append(encode_record({"t": "header", "schema": JOURNAL_SCHEMA, "workload": "w"}))
    for i in range(total_lines - 1):
        record = {"t": "c", "n": "x", "l": [["k", str(i)]], "v": i}
        writer.emit(record)
        expected.append(encode_record(record))
    return writer, expected


@pytest.fixture(scope="module")
def tiny_wordcount():
    """The tiny ``wordcount:hamr`` run's writer and everything its sink saw."""
    sink = io.StringIO()
    row = run_workload(
        workload_by_name("wordcount", "tiny"), engines="hamr",
        journal=lambda _engine: JournalWriter(sink=sink, meta={"fidelity": "tiny"}),
    )
    return row.hamr_journal, sink.getvalue()


class TestSave:
    @pytest.mark.parametrize(
        "total_lines",
        [0, 1, _BLOCK_LINES - 1, _BLOCK_LINES, _BLOCK_LINES + 1],
        ids=["empty", "header-only", "block-1", "block", "block+1"],
    )
    def test_synthetic_bodies_save_byte_identically(self, tmp_path, total_lines):
        writer, expected = _synthetic_writer(total_lines)
        assert writer.lines == expected
        assert [encode_record(r) for r in writer.records] == expected
        self._assert_saves(tmp_path, writer, _joined(expected))

    def test_tiny_wordcount_saves_what_the_sink_streamed(self, tmp_path, tiny_wordcount):
        writer, streamed = tiny_wordcount
        assert len(writer.lines) > 4 * _BLOCK_LINES
        assert _joined(writer.lines) == streamed
        self._assert_saves(tmp_path, writer, streamed)

    @staticmethod
    def _assert_saves(tmp_path, writer, body):
        plain, packed, again = (
            tmp_path / name for name in ("run.jsonl", "run.jsonl.gz", "again.jsonl.gz")
        )
        for path in (plain, packed, again):
            writer.save(str(path))
        assert plain.read_bytes() == body.encode("utf-8")
        assert gzip.decompress(packed.read_bytes()) == body.encode("utf-8")
        assert packed.read_bytes() == again.read_bytes()

    def test_finished_writer_retains_at_most_one_block(self, tiny_wordcount):
        """A memory proxy without an RSS read: a writer that has emitted the
        tiny ``wordcount:hamr`` run's records retains at most a quarter of
        their encoded body, which spans more than four blocks. Keeping the
        sealed blocks as strings retains more than the whole body."""
        source, streamed = tiny_wordcount
        body = len(streamed)
        assert len(source.lines) > 4 * _BLOCK_LINES
        records = source.records
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            writer = JournalWriter()
            for record in records:
                writer.emit(record)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert _joined(writer.lines) == streamed
        assert retained <= body // 4, (retained, body)

    def test_iteration_sees_the_lines_emitted_before_the_call(self):
        """Emits while a consumer iterates, across a block seal, neither
        leak into the iteration nor drop the lines it was promised."""
        writer, expected = _synthetic_writer(_BLOCK_LINES + _BLOCK_LINES - 3)
        late = []

        def emit_one():
            record = {"t": "c", "n": "late", "l": [], "v": len(late)}
            writer.emit(record)
            late.append(encode_record(record))

        lines = writer.iter_lines()
        emit_one()  # before the first line is read
        seen = []
        for line in lines:
            seen.append(line)
            emit_one()  # the third of these seals the pending block
        assert seen == expected
        assert writer.lines == expected + late

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_dropped_writers_close_their_spools(self, tmp_path, monkeypatch):
        """Each writer holds one descriptor on a nameless file; collecting
        the writer closes it, without a ResourceWarning."""
        fds = "/proc/self/fd"
        if not os.path.isdir(fds):
            pytest.skip("no /proc to count descriptors")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        block = 16
        monkeypatch.setattr(journal, "_BLOCK_LINES", block)  # a few blocks each, quickly
        gc.collect()
        start = len(os.listdir(fds))
        writers = []
        for _ in range(200):
            writer, expected = _synthetic_writer(3 * block + 5)
            assert writer.lines == expected
            writers.append(writer)
        assert len(os.listdir(fds)) == start + 200
        assert os.listdir(tmp_path) == []
        del writers, writer
        gc.collect()
        assert len(os.listdir(fds)) == start
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "overshoot", [-1, 0, 1, 100], ids=["under", "at", "over", "mid-line"]
    )
    def test_chunk_boundaries_keep_every_byte(self, tmp_path, overshoot):
        """Sealed blocks of ``_CHUNK_BYTES + overshoot`` bytes, non-ASCII
        text in every record, and a last sealed line long enough that the
        read-chunk boundary falls inside it (``mid-line``) or on its
        newline (``over``)."""
        sealed = 2 * _BLOCK_LINES
        # 127 bytes a line with its newline; the last sealed line takes the rest
        lengths = [126] * (sealed - 1)
        lengths.append(_CHUNK_BYTES + overshoot - 127 * (sealed - 1) - 1)
        lengths += [60, 70]  # still pending
        records = [_record_of_length(i, n) for i, n in enumerate(lengths)]
        expected = [encode_record(r) for r in records]
        assert list(map(len, expected)) == lengths
        assert sum(n + 1 for n in lengths[:sealed]) == _CHUNK_BYTES + overshoot
        writer = JournalWriter()
        for record in records:
            writer.emit(record)
        assert writer.lines == expected
        assert list(writer.iter_lines()) == expected
        self._assert_saves(tmp_path, writer, "".join(line + "\n" for line in expected))


def _record_of_length(i, length):
    """A counter record carrying non-ASCII text whose line is ``length``
    characters long."""
    record = {"t": "c", "n": "naïve·ü", "l": [], "v": i}
    record["n"] += "x" * (length - len(encode_record(record)))
    return record


# -- truncated journals -----------------------------------------------------------


class TestPartialJournals:
    def test_footerless_journal_raises_by_default(self):
        _env, _result, writer = journaled_run()
        truncated = writer.lines[:-1]
        with pytest.raises(JournalError, match="allow-partial"):
            read_journal(truncated)

    def test_allow_partial_reconstructs_the_makespan(self):
        _env, result, writer = journaled_run()
        truncated = writer.lines[:-1]
        records = read_journal(truncated, allow_partial=True)
        footer = records[-1]
        assert footer["partial"] is True
        assert footer["makespan"] == result.makespan
        run = replay_lines(truncated, allow_partial=True)
        assert run.partial and run.makespan == result.makespan

    def test_partial_flag_defaults_false_on_complete_journals(self):
        _env, _result, writer = journaled_run()
        assert replay_lines(writer.lines).partial is False

    def test_midfile_truncation_keeps_the_complete_prefix(self):
        _env, _result, writer = journaled_run()
        cut = len(writer.lines) // 2
        truncated = writer.lines[:cut] + [writer.lines[cut][: 10]]
        with pytest.raises(JournalError):
            read_journal(truncated)
        records = read_journal(truncated, allow_partial=True)
        assert records[-1]["partial"] is True
        assert len(records) == cut + 1  # complete prefix + synthesized footer

    def test_replay_cli_exits_2_without_allow_partial(self, tmp_path, capsys):
        from repro.evaluation.__main__ import main

        _env, _result, writer = journaled_run()
        path = tmp_path / "trunc.jsonl"
        path.write_text("\n".join(writer.lines[:-1]) + "\n")
        assert main(["replay", str(path)]) == 2
        assert "allow-partial" in capsys.readouterr().err
        assert main(["replay", str(path), "--allow-partial"]) == 0
        assert "partial" in capsys.readouterr().err

    def test_load_journal_reads_partial_gz(self, tmp_path):
        _env, _result, writer = journaled_run()
        path = tmp_path / "trunc.jsonl.gz"
        with journal_open(str(path), "w") as fh:
            fh.write("\n".join(writer.lines[:-1]) + "\n")
        records = load_journal(str(path), allow_partial=True)
        assert records[-1]["partial"] is True


# -- multi-bucket dilation --------------------------------------------------------


class TestMultiBucketDilation:
    def test_single_bucket_wrapper_is_byte_identical(self):
        _env, _result, writer = journaled_run()
        via_wrapper = seed_bucket_slowdown(writer.records, "disk", 2.0)
        via_dict = dilate_bucket_charges(writer.records, {"disk": 2.0})
        assert [encode_record(r) for r in via_wrapper] == [
            encode_record(r) for r in via_dict
        ]

    def test_composed_factors_grow_by_both_buckets(self):
        _env, _result, writer = journaled_run()
        records = writer.records
        totals = {}
        for r in records:
            if r["t"] == "b" and r.get("sp") is not None:
                totals[r["bk"]] = totals.get(r["bk"], 0.0) + r["v"]
        out = dilate_bucket_charges(records, {"disk": 2.0, "network": 3.0})
        grown = out[-1]["makespan"] - records[-1]["makespan"]
        expected = totals.get("disk", 0.0) + 2.0 * totals.get("network", 0.0)
        assert grown == pytest.approx(expected)
        assert out[-1]["seeded_slowdown"] == {
            "buckets": {"disk": 2.0, "network": 3.0}
        }

    def test_composed_dilation_still_replays(self):
        _env, _result, writer = journaled_run()
        out = dilate_bucket_charges(writer.records, {"disk": 1.5, "compute": 2.0})
        run = replay_lines([encode_record(r) for r in out])
        assert run.makespan == out[-1]["makespan"]

    @pytest.mark.parametrize(
        "factors",
        [{"network": 1.5}, {"disk": 0.5, "compute": 2.0}, {"atomic": 3.0, "network": 0.25}],
    )
    def test_remap_equals_the_linear_scan_it_replaced(self, monkeypatch, factors):
        """The prefix-sum + bisect remap is the old per-timestamp scan over
        the insertion points, record for record and bit for bit."""
        from repro.evaluation.workloads import workload_by_name
        from repro.obs import journal as journal_mod

        def linear_scan_remap(inserted):
            points = sorted(inserted.items())

            def remap(t):
                shift = 0.0
                for end, extra in points:
                    if end <= t:
                        shift += extra
                    else:
                        break
                return t + shift

            return remap

        row = run_workload(
            workload_by_name("naive_bayes", "tiny"), engines="hamr", journal=True
        )
        records = row.hamr_journal.records
        fast = dilate_bucket_charges(records, factors)
        monkeypatch.setattr(journal_mod, "_timeline_remap", linear_scan_remap)
        reference = dilate_bucket_charges(records, factors)
        assert fast[-1]["makespan"] != records[-1]["makespan"]
        assert len(fast) == len(reference)
        for got, want in zip(fast, reference):
            assert encode_record(got) == encode_record(want)

    def test_rejects_bad_factor_dicts(self):
        _env, _result, writer = journaled_run()
        with pytest.raises(ValueError, match="bucket"):
            dilate_bucket_charges(writer.records, {"nope": 2.0})
        with pytest.raises(ValueError, match="positive"):
            dilate_bucket_charges(writer.records, {"disk": -1.0})


# -- reader resilience -------------------------------------------------------------


class TestReaderResilience:
    """A fleet warehouse ingests journals it did not write: corrupted
    lines, replayed duplicates and records from future schema versions
    must fail with a clean JournalError (or degrade explicitly under
    allow_partial), never with a KeyError deep in replay."""

    @pytest.fixture(scope="class")
    def lines(self):
        _env, _result, writer = journaled_run()
        return list(writer.lines)

    def test_garbage_interleaved_line_raises_cleanly(self, lines):
        torn = lines[: len(lines) // 2] + ["{'single': 'quotes"] + (
            lines[len(lines) // 2:]
        )
        with pytest.raises(JournalError, match="malformed journal line"):
            read_journal(torn)

    def test_allow_partial_keeps_the_prefix_before_the_tear(self, lines):
        cut = len(lines) // 2
        torn = lines[:cut] + ["\x00\x00garbage"] + lines[cut:]
        records = read_journal(torn, allow_partial=True)
        # everything before the tear survives; the tail is discarded and
        # a synthesized footer closes the stream
        assert len(records) == cut + 1
        assert records[-1]["t"] == "footer"
        assert records[-1]["partial"] is True
        run = replay_lines(torn, allow_partial=True)
        assert run.partial

    def test_duplicate_span_close_raises(self, lines):
        records = [decode_record(line) for line in lines]
        close = next(r for r in records if r["t"] == "sc")
        i = records.index(close)
        dup = records[: i + 1] + [dict(close)] + records[i + 1:]
        with pytest.raises(JournalError, match="duplicate close for span id"):
            replay_lines([encode_record(r) for r in dup])

    def test_close_for_unknown_span_raises(self, lines):
        records = [decode_record(line) for line in lines]
        close = dict(next(r for r in records if r["t"] == "sc"))
        close["id"] = 10**9
        dup = records[:-1] + [close] + records[-1:]
        with pytest.raises(JournalError, match="unknown span id"):
            replay_lines([encode_record(r) for r in dup])

    def test_unknown_future_record_type_raises(self, lines):
        future = lines[:-1] + ['{"t":"zz9","v":1}'] + lines[-1:]
        with pytest.raises(JournalError, match="unknown journal record type"):
            read_journal(future)

    def test_allow_partial_stops_at_a_future_record_type(self, lines):
        cut = len(lines) - 5
        future = lines[:cut] + ['{"t":"zz9","v":1}'] + lines[cut:]
        records = read_journal(future, allow_partial=True)
        assert len(records) == cut + 1
        assert records[-1]["partial"] is True

    def test_known_type_in_the_wrong_position_raises(self, lines):
        records = [decode_record(line) for line in lines]
        stray = records[:-1] + [dict(records[0])] + records[-1:]
        with pytest.raises(JournalError, match="mid-journal"):
            replay_lines([encode_record(r) for r in stray])

    def test_headerless_stream_raises(self, lines):
        with pytest.raises(JournalError, match="does not start with a header"):
            read_journal(lines[1:])
