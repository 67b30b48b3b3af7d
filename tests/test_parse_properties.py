"""Property tests for raw-line parsing: it never raises, every non-blank
line comes back as exactly one reading or one issue, and only lines in the
wire format are read."""

import math

from hypothesis import given
from hypothesis import strategies as st

from gridwatch.ingest import parse_raw

JUNK = st.one_of(st.text(max_size=6),
                 st.sampled_from(["", "x", "1_0", "-0", "0x10", "+0501", "1_00501",
                                  "\u0661\u0669\u0665\u0663\u0665"]))
METER = st.one_of(st.integers(-2, 10 ** 6).map(str), JUNK)
# day*100 + slot, with days past the calendar's end and slots outside 1..48
DAY = st.one_of(st.integers(0, 999), st.integers(0, 10 ** 18),
                st.sampled_from([3_652_059, 3_652_060, 10 ** 9]))
CODE = st.one_of(st.builds(lambda day, slot: f"{day * 100 + slot:05d}", DAY,
                           st.one_of(st.integers(1, 48), st.integers(0, 60))),
                 JUNK)
KWH = st.one_of(st.floats(min_value=0.0).map(repr), st.floats().map(repr),
                st.sampled_from(["nan", "inf", "-inf", "1e400"]), JUNK)
# readings in the wire format (space or comma separated) mixed with arbitrary text
READING = st.tuples(METER, CODE, KWH, st.sampled_from([" ", ",", " , "])).map(
    lambda t: t[3].join(t[:3]))
LINES = st.lists(st.one_of(READING, st.text()), max_size=25)


@given(LINES)
def test_parse_raw_never_raises(lines):
    parse_raw(lines)


@given(LINES)
def test_parse_raw_accounts_for_every_non_blank_line(lines):
    result = parse_raw(lines)
    assert len(result.readings) + len(result.issues) == sum(1 for line in lines if line.strip())
    assert all(math.isfinite(r.kwh) for r in result.readings)


@given(LINES)
def test_parse_raw_reads_only_the_wire_format(lines):
    result = parse_raw(lines)
    rejected = {issue.line_no for issue in result.issues}
    accepted = [line for no, line in enumerate(lines, start=1)
                if line.strip() and no not in rejected]
    assert len(accepted) == len(result.readings)
    for line, reading in zip(accepted, result.readings):
        meter, code, _kwh = line.replace(",", " ").split()
        assert meter.isascii() and meter.isdigit()
        assert len(code) == 5 and code.isascii() and code.isdigit()
        assert (reading.meter_id, reading.day_code * 100 + reading.slot) == (int(meter), int(code))
