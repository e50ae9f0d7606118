"""Tests for the journal corpus warehouse.

The index must behave like the journals it summarizes: canonical
encoding round-trips byte-identically, ingest is idempotent and
byte-deterministic across reruns (and across gzip/renames of the same
journal), and the filter/lookup views resolve runs unambiguously.
"""

import gzip
import json
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.__main__ import main
from repro.obs.corpus import (
    CORPUS_SCHEMA,
    decode_row,
    encode_row,
    filter_rows,
    find_by_fingerprint,
    ingest,
    journal_fingerprint,
    load_corpus,
    merge_rows,
    parse_where,
    render_corpus,
    render_row,
    row_sort_key,
    save_corpus,
    scan_journals,
    summarize_records,
)
from repro.obs.journal import JournalError, encode_record, load_journal, seed_bucket_slowdown
from tests.conftest import journaled_run


@pytest.fixture(scope="module")
def journal_dir(tmp_path_factory):
    """A directory of journals: two distinct runs plus a seeded regression."""
    root = tmp_path_factory.mktemp("journals")
    _, _, base = journaled_run(seed=0, commit="abc1234")
    base.save(str(root / "base.journal.jsonl"))
    _, _, other = journaled_run(seed=1, commit="abc1234")
    other.save(str(root / "other.journal.jsonl"))
    seeded = seed_bucket_slowdown(base.records, "disk", 2.0)
    with open(root / "seeded.journal.jsonl", "w") as fh:
        for record in seeded:
            fh.write(encode_record(record) + "\n")
    return root


def _summarize(path) -> dict:
    """One journal file's corpus row, the way ``corpus ingest`` builds it."""
    return summarize_records(load_journal(str(path)), str(path))


# -- canonical encoding -------------------------------------------------------------


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

_rows = st.fixed_dictionaries(
    {
        "schema": st.just(CORPUS_SCHEMA),
        "fingerprint": st.text(alphabet="0123456789abcdef", min_size=8, max_size=64),
    },
    optional={
        "workload": st.text(max_size=16),
        "engine": st.sampled_from(["hamr", "hadoop"]),
        "fabric": st.sampled_from(["direct", "tree", "twolevel", "rdma"]),
        "partitioner": st.sampled_from(["hash", "shard"]),
        "makespan": st.floats(allow_nan=False, allow_infinity=False),
        "blame": st.dictionaries(st.text(max_size=8), _scalars, max_size=3),
        "stragglers": st.lists(st.integers(0, 64), max_size=4),
    },
)


class TestRowEncoding:
    @given(_rows)
    @settings(max_examples=200)
    def test_encode_decode_reencode_is_byte_identical(self, row):
        line = encode_row(row)
        assert "\n" not in line
        decoded = decode_row(line)
        assert decoded == row
        assert encode_row(decoded) == line

    @pytest.mark.parametrize(
        "line",
        ["not json", "[1]", '{"schema": "other/v1"}', '{"no": "schema"}'],
    )
    def test_non_corpus_lines_raise(self, line):
        with pytest.raises(JournalError):
            decode_row(line)


class TestMergeInvariants:
    @given(
        st.lists(_rows, max_size=8),
        st.lists(_rows, max_size=8),
    )
    @settings(max_examples=100)
    def test_merge_dedupes_and_sorts_canonically(self, existing, new):
        merged = merge_rows(existing, new)
        fingerprints = [row["fingerprint"] for row in merged]
        assert len(fingerprints) == len(set(fingerprints))
        assert [row_sort_key(r) for r in merged] == sorted(
            row_sort_key(r) for r in merged
        )
        # merging again changes nothing: re-ingest idempotence in the small
        assert merge_rows(merged, new) == merged
        assert merge_rows(merged, []) == merged

    def test_existing_rows_win_over_new(self):
        old = {"schema": CORPUS_SCHEMA, "fingerprint": "aa", "makespan": 1.0}
        new = {"schema": CORPUS_SCHEMA, "fingerprint": "aa", "makespan": 2.0}
        assert merge_rows([old], [new]) == [old]


# -- fingerprints -------------------------------------------------------------------


class TestFingerprint:
    def test_identical_records_fingerprint_identically(self):
        _, _, writer = journaled_run(seed=0, commit="abc1234")
        _, _, again = journaled_run(seed=0, commit="abc1234")
        assert journal_fingerprint(writer.records) == journal_fingerprint(
            again.records
        )

    def test_different_runs_fingerprint_differently(self):
        _, _, a = journaled_run(seed=0, commit="abc1234")
        _, _, b = journaled_run(seed=1, commit="abc1234")
        assert journal_fingerprint(a.records) != journal_fingerprint(b.records)

    def test_fingerprint_survives_gzip_and_rename(self, journal_dir, tmp_path):
        src = journal_dir / "base.journal.jsonl"
        renamed = tmp_path / "elsewhere.jsonl"
        shutil.copy(src, renamed)
        gzipped = tmp_path / "compressed.jsonl.gz"
        with open(src, "rb") as fh, gzip.open(gzipped, "wb") as gz:
            gz.write(fh.read())
        rows = [
            _summarize(p) for p in (src, renamed, gzipped)
        ]
        assert len({row["fingerprint"] for row in rows}) == 1


# -- summary rows -------------------------------------------------------------------


class TestSummarize:
    def test_row_carries_run_identity_and_headline_numbers(self, journal_dir):
        row = _summarize(journal_dir / "base.journal.jsonl")
        assert row["schema"] == CORPUS_SCHEMA
        assert row["workload"] == "wordcount"
        assert row["engine"] == "hamr"
        assert row["fabric"] == "direct"
        assert row["partitioner"] == "hash"
        assert row["commit"] == "abc1234"
        assert row["makespan"] > 0
        assert row["blame_total"] > 0
        assert set(row["blame"]) == {
            "atomic", "compute", "disk", "network", "stall", "startup"
        }
        assert row["traffic"]["total_bytes"] > 0
        assert row["critpath"]
        assert row["straggler_cv"] >= 0.0
        assert row["seeded_slowdown"] is None
        assert not row["partial"]

    def test_seeded_marker_lands_in_the_row(self, journal_dir):
        row = _summarize(journal_dir / "seeded.journal.jsonl")
        assert row["seeded_slowdown"] == {"bucket": "disk", "factor": 2.0}

    def test_row_is_json_canonical(self, journal_dir):
        row = _summarize(journal_dir / "base.journal.jsonl")
        assert decode_row(encode_row(row)) == row


# -- ingest -------------------------------------------------------------------------


class TestIngest:
    def test_ingest_indexes_every_journal(self, journal_dir):
        rows, stats = ingest([str(journal_dir)])
        assert stats == {"scanned": 3, "added": 3, "duplicates": 0, "skipped": 0}
        assert len(rows) == 3

    def test_reingest_is_idempotent(self, journal_dir):
        rows, _ = ingest([str(journal_dir)])
        again, stats = ingest([str(journal_dir)], rows)
        assert again == rows
        assert stats["added"] == 0
        assert stats["duplicates"] == 3

    def test_index_file_is_byte_identical_across_reruns(
        self, journal_dir, tmp_path
    ):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            rows, _ = ingest([str(journal_dir)])
            save_corpus(rows, str(path))
        assert a.read_bytes() == b.read_bytes()
        assert load_corpus(str(a)) == load_corpus(str(b))

    def test_same_journal_under_two_names_dedupes(self, journal_dir, tmp_path):
        extra = tmp_path / "copy.jsonl"
        shutil.copy(journal_dir / "base.journal.jsonl", extra)
        rows, _ = ingest([str(journal_dir)])
        merged, stats = ingest([str(extra)], rows)
        assert stats["duplicates"] == 1
        assert merged == rows

    def test_garbage_file_raises_unless_allow_partial(self, tmp_path):
        (tmp_path / "junk.jsonl").write_text("this is not a journal\n")
        with pytest.raises(JournalError):
            ingest([str(tmp_path)])
        rows, stats = ingest([str(tmp_path)], allow_partial=True)
        assert rows == []
        assert stats["skipped"] == 1

    def test_exclude_skips_the_index_itself(self, journal_dir, tmp_path):
        index = journal_dir / "corpus.jsonl"
        rows, _ = ingest([str(journal_dir)], exclude=[str(index)])
        save_corpus(rows, str(index))
        try:
            again, stats = ingest([str(journal_dir)], rows, exclude=[str(index)])
            assert again == rows
            assert stats["scanned"] == 3
        finally:
            os.unlink(index)

    def test_scan_is_sorted_and_recursive(self, journal_dir, tmp_path):
        nested = tmp_path / "deep" / "er"
        nested.mkdir(parents=True)
        shutil.copy(journal_dir / "base.journal.jsonl", nested / "z.jsonl")
        shutil.copy(journal_dir / "other.journal.jsonl", tmp_path / "a.jsonl")
        (tmp_path / "ignored.txt").write_text("nope")
        found = scan_journals(str(tmp_path))
        assert found == sorted(found)
        assert [os.path.basename(p) for p in found] == ["a.jsonl", "z.jsonl"]


# -- index queries ------------------------------------------------------------------


class TestQueries:
    def test_filter_rows_matches_all_constraints(self, journal_dir):
        rows, _ = ingest([str(journal_dir)])
        assert len(filter_rows(rows, {"engine": "hamr"})) == 3
        assert filter_rows(rows, {"engine": "hadoop"}) == []
        seeded = filter_rows(
            rows, {"seeded_slowdown": {"bucket": "disk", "factor": 2.0}}
        )
        assert len(seeded) == 1

    def test_find_by_fingerprint_prefix(self, journal_dir):
        rows, _ = ingest([str(journal_dir)])
        full = rows[0]["fingerprint"]
        assert find_by_fingerprint(rows, full[:12]) == [rows[0]]

    def test_parse_where(self):
        assert parse_where("workload=wordcount,engine=hamr") == {
            "workload": "wordcount", "engine": "hamr"
        }
        assert parse_where("partial=false,nodes=16") == {
            "partial": False, "nodes": 16
        }
        assert parse_where("commit=") == {"commit": None}
        with pytest.raises(ValueError):
            parse_where("noequals")


# -- CLI ----------------------------------------------------------------------------


class TestCorpusCLI:
    def test_ingest_ls_show_round_trip(self, journal_dir, tmp_path, capsys):
        index = tmp_path / "corpus.jsonl"
        assert main(
            ["corpus", "ingest", str(journal_dir), "--index", str(index)]
        ) == 0
        assert "3 added" in capsys.readouterr().err
        assert main(["corpus", "ls", "--index", str(index)]) == 0
        out = capsys.readouterr().out
        assert "3 run(s) indexed" in out
        assert "seeded" in out
        rows = load_corpus(str(index))
        assert main(
            ["corpus", "show", rows[0]["fingerprint"][:12], "--index", str(index)]
        ) == 0
        assert "blame" in capsys.readouterr().out

    def test_ls_where_filter_and_json(self, journal_dir, tmp_path, capsys):
        index = tmp_path / "corpus.jsonl"
        assert main(
            ["corpus", "ingest", str(journal_dir), "--index", str(index)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["corpus", "ls", "--index", str(index),
             "--where", "engine=hamr", "--json", "-"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == CORPUS_SCHEMA
        assert len(payload["rows"]) == 3

    def test_missing_index_exits_2(self, tmp_path, capsys):
        assert main(
            ["corpus", "ls", "--index", str(tmp_path / "nope.jsonl")]
        ) == 2
        assert "corpus ingest" in capsys.readouterr().err

    def test_bad_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["corpus", "frobnicate"])
        assert exc.value.code == 2

    def test_renderers_are_deterministic(self, journal_dir):
        rows, _ = ingest([str(journal_dir)])
        assert render_corpus(rows) == render_corpus(list(rows))
        assert render_row(rows[0]) == render_row(dict(rows[0]))
