"""The journal read side as a stream.

``decode_record`` accepts and rejects exactly the lines ``json.loads``
does; ``load_run`` (the replay folded as the file is decoded) fails with
the same message as replaying a fully decoded list, and gives the same
report when it succeeds; and the streamed load holds a small fraction of
what the decoded list does.
"""

from __future__ import annotations

import gc
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.cli import CLIError
from repro.evaluation.cli.runs import journal_errors, load_run
from repro.evaluation.obsreport import report_json
from repro.obs.journal import (
    RECORD_TYPES,
    JournalError,
    decode_record,
    dilate_bucket_charges,
    encode_record,
    iter_journal,
    iter_journal_file,
    load_journal,
)
from repro.obs.replay import replay_records
from repro.obs.whatif import WhatIfModel, parse_scenario, whatif_dict
from tests.conftest import journaled_run

# -- decode parity with json.loads --------------------------------------------------


def _loads_reference(line: str) -> dict:
    """``decode_record`` as written on ``json.loads``: the behaviour the
    prebuilt decoder must keep, message for message."""
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise JournalError(f"malformed journal line: {line[:80]!r}") from exc
    if not isinstance(record, dict) or "t" not in record:
        raise JournalError(f"journal line is not a typed record: {line[:80]!r}")
    if record["t"] not in RECORD_TYPES:
        raise JournalError(f"unknown journal record type {record['t']!r}")
    return record


def _outcome(decode, line: str):
    """What ``decode`` makes of ``line``: the record in a NaN-safe, type-exact
    spelling, or the error message."""
    try:
        return "ok", json.dumps(decode(line), sort_keys=True)
    except JournalError as exc:
        return "error", str(exc)


_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.floats(),  # NaN and +-Infinity included
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
        st.text(max_size=12),  # any unicode, surrogates excepted
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

#: a typed record, a record whose ``t`` is missing or not a record type,
#: and JSON that is not an object
_documents = st.one_of(
    st.fixed_dictionaries(
        {"t": st.sampled_from(RECORD_TYPES)},
        optional={"v": _values, "n": st.text(max_size=12), "a": _values},
    ),
    st.dictionaries(st.text(max_size=4), _values, max_size=3),
    st.fixed_dictionaries({"t": _values}),
    _values,
)

#: JSON whitespace and the whitespace JSON does not allow
_padding = st.text(alphabet=" \t\n\r\x0b\x0c\u00a0\u2028\ufeff", max_size=4)


@st.composite
def _lines(draw):
    document = draw(_documents)
    line = json.dumps(document, ensure_ascii=draw(st.booleans()), sort_keys=draw(st.booleans()))
    mutation = draw(
        st.sampled_from(["none", "garbage", "bom", "pad", "cut", "insert", "text"])
    )
    if mutation == "garbage":
        line += draw(st.text(min_size=1, max_size=6))
    elif mutation == "bom":
        line = "\ufeff" + line
    elif mutation == "pad":
        line = draw(_padding) + line + draw(_padding)
    elif mutation == "cut":
        line = line[: draw(st.integers(min_value=0, max_value=len(line)))]
    elif mutation == "insert":
        at = draw(st.integers(min_value=0, max_value=len(line)))
        line = line[:at] + draw(st.text(min_size=1, max_size=2)) + line[at:]
    elif mutation == "text":
        line = draw(st.text(max_size=30))
    return line


class TestDecodeParity:
    @given(_lines())
    @settings(max_examples=600)
    def test_decode_record_is_json_loads(self, line):
        assert _outcome(decode_record, line) == _outcome(_loads_reference, line)

    @pytest.mark.parametrize(
        "line",
        [
            '{"t":"c","v":1}',
            '{"t":"c"} x',  # trailing garbage
            '{"t":"c"}{}',
            '\ufeff{"t":"c"}',  # a BOM
            ' \t{"t":"c"}\r\n',  # JSON whitespace padding
            '\x0b{"t":"c"}',  # whitespace JSON does not allow
            '{"t":"c"}\u00a0',  # no-break space: not JSON whitespace
            "[1, 2]",  # not an object
            '"s"',
            "1",
            "null",
            "",
            "{}",  # no type
            '{"t":"zz9"}',  # unknown types
            '{"t":1}',
            '{"t":null}',
            '{"t":["c"]}',
            '{"t":{"c":1}}',
            '{"t":"c","v":NaN}',  # non-finite numbers
            '{"t":"c","v":Infinity}',
            '{"t":"c","v":-Infinity}',
            '{"t":"c","n":"ü中\U0001f600"}',  # non-ASCII text
            '{"t":"c","n":"\\u00fc\\ud83d\\ude00"}',
        ],
    )
    def test_named_lines(self, line):
        assert _outcome(decode_record, line) == _outcome(_loads_reference, line)


# -- stream vs list: errors and partial replays ----------------------------------------


@pytest.fixture(scope="module")
def lines():
    _env, _result, writer = journaled_run()
    return writer.lines


def _malformed(lines: list[str]) -> dict[str, list[str]]:
    header, body, footer = lines[0], lines[1:-1], lines[-1]
    mid = len(body) // 2
    first = decode_record(header)
    close = next(decode_record(line) for line in body if '"t":"sc"' in line)
    unknown_close = encode_record({**close, "id": 10**9})
    return {
        "empty": [],
        "blank_only": ["", "   ", "\t"],
        "no_header": lines[1:],
        "bad_schema": [encode_record({**first, "schema": "repro.obs.journal/v9"})] + lines[1:],
        "torn_trailing_line": lines[:-1] + [footer[:12]],
        "no_footer": lines[:-1],
        "footer_mid_journal": [header, *body[:mid], footer, *body[mid:], footer],
        "unknown_record_type": [header, *body[:mid], '{"t":"zz9","v":1}', *body[mid:], footer],
        "unknown_span_close": [header, *body[:mid], unknown_close, *body[mid:], footer],
        # the close fails the fold first, the torn line is the reader's: the
        # reader's error wins, as it does when the list is decoded up front
        "torn_line_and_unknown_close": [header, *body[:mid], unknown_close, *body[mid:], footer[:12]],
    }


#: case -> (strict outcome, allow_partial outcome): an error fragment, or
#: None for a replay
EXPECTED = {
    "empty": ("empty journal", "empty journal"),
    "blank_only": ("empty journal", "empty journal"),
    "no_header": ("does not start with a header", "does not start with a header"),
    "bad_schema": ("unsupported journal schema", "unsupported journal schema"),
    "torn_trailing_line": ("malformed journal line", None),
    "no_footer": ("no footer record", None),
    "footer_mid_journal": ("'footer' mid-journal", "'footer' mid-journal"),
    "unknown_record_type": ("unknown journal record type", None),
    "unknown_span_close": ("unknown span id", "unknown span id"),
    "torn_line_and_unknown_close": ("malformed journal line", "unknown span id"),
}


def _streamed(path: str, allow_partial: bool):
    return load_run(path, allow_partial)


def _listed(path: str, allow_partial: bool):
    with journal_errors(path):
        return replay_records(load_journal(path, allow_partial=allow_partial))


def _result(load, path: str, allow_partial: bool):
    """``("error", message)`` or ``("run", partial, report JSON)``."""
    try:
        run = load(path, allow_partial)
    except CLIError as exc:
        return "error", str(exc)
    return "run", run.partial, report_json(run.tracer, run.workload, run.engine)


class TestStreamListParity:
    @pytest.mark.parametrize("allow_partial", [False, True])
    @pytest.mark.parametrize("case", sorted(EXPECTED))
    def test_load_run_matches_the_decoded_list(self, lines, tmp_path, case, allow_partial):
        body = _malformed(lines)[case]
        path = tmp_path / f"{case}.jsonl"
        path.write_text("".join(line + "\n" for line in body))
        streamed = _result(_streamed, str(path), allow_partial)
        listed = _result(_listed, str(path), allow_partial)
        assert streamed == listed
        expected = EXPECTED[case][allow_partial]
        if expected is None:
            assert streamed[:2] == ("run", True)
        else:
            assert streamed[0] == "error" and expected in streamed[1], streamed[1]

    def test_one_shot_generator_replays_like_the_list(self, lines):
        records = [decode_record(line) for line in lines]
        from_list = replay_records(records)
        from_stream = replay_records(decode_record(line) for line in lines)
        assert report_json(from_stream.tracer, "w", "hamr") == report_json(
            from_list.tracer, "w", "hamr"
        )
        assert from_stream.footer == from_list.footer
        assert from_stream.tracer.sim.now == records[-1]["virtual_end"]

    def test_records_after_the_footer_raise(self, lines):
        stray = lines + [lines[1]]
        with pytest.raises(JournalError, match="'footer' mid-journal"):
            replay_records(decode_record(line) for line in stray)


# -- the what-if model on a stream ----------------------------------------------------


class TestWhatIfStream:
    def test_stream_model_predicts_like_the_list_model(self, lines):
        from_list = WhatIfModel([decode_record(line) for line in lines])
        from_stream = WhatIfModel(iter_journal(lines))
        scenarios = [parse_scenario(text) for text in ("", "nodes=3", "fabric=rdma", "nodes=2,network=0.5")]
        payloads = [
            whatif_dict(model, [model.predict(sc) for sc in scenarios])
            for model in (from_list, from_stream)
        ]
        assert json.dumps(payloads[0], sort_keys=True) == json.dumps(payloads[1], sort_keys=True)

    def test_stream_model_predicts_bucket_scenarios_exactly(self, lines):
        """A model that never saw the list predicts the dilated journal's
        makespan bit for bit."""
        records = [decode_record(line) for line in lines]
        model = WhatIfModel(iter_journal(lines))
        for text in ("disk=0.5", "network=2", "compute=0.5,stall=0.25"):
            scenario = parse_scenario(text)
            dilated = dilate_bucket_charges(records, scenario.time_factors)
            prediction = model.predict(scenario)
            assert prediction.method == "dilation", text
            assert prediction.predicted == dilated[-1]["makespan"], text


# -- memory: the streamed load never holds the decoded list ---------------------------


def _peak_and_list_size(path, read):
    """``(traced peak of read(path), bytes load_journal's list holds,
    read's result)``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = load_journal(path)
        decoded = tracemalloc.get_traced_memory()[0] - before
        assert len(records) > 10_000
        del records
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = read(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, decoded, result


def test_streamed_load_peaks_below_half_the_decoded_list(tiny_wordcount_journal):
    """``load_run`` at its peak holds less than half of what
    ``load_journal``'s list holds once it returns: the replay folds records
    as they are decoded. A ``list(...)`` on the load path fails this."""
    peak, decoded, run = _peak_and_list_size(
        tiny_wordcount_journal, lambda path: load_run(path, False)
    )
    assert run.tracer.spans
    assert peak < decoded / 2, (peak, decoded)


def test_streamed_model_peaks_below_half_the_decoded_list(tiny_wordcount_journal):
    """A what-if model built from the file's stream and asked a bucket-only
    question holds, at its peak, less than half of what ``load_journal``'s
    list holds: the prediction is planned from the dilation fold, not from
    a kept copy of the records."""
    peak, decoded, prediction = _peak_and_list_size(
        tiny_wordcount_journal,
        lambda path: WhatIfModel(iter_journal_file(path)).predict(parse_scenario("disk=0.5")),
    )
    assert prediction.method == "dilation"
    assert peak < decoded / 2, (peak, decoded)


@pytest.fixture(scope="module")
def tiny_wordcount_journal(tmp_path_factory):
    """The tiny ``wordcount:hamr`` run's journal file."""
    from repro.evaluation.runner import run_workload
    from repro.evaluation.workloads import workload_by_name
    from repro.obs.journal import JournalWriter

    row = run_workload(
        workload_by_name("wordcount", "tiny"), engines="hamr",
        journal=lambda _engine: JournalWriter(meta={"fidelity": "tiny"}),
    )
    path = str(tmp_path_factory.mktemp("stream") / "run.wordcount.hamr.journal.jsonl")
    row.hamr_journal.save(path)
    return path
