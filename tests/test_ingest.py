import csv
import gc
import hashlib
import io
import json
import tracemalloc
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import checkin_records
import ingest_oracle
from checkin_records import Gender, to_records, to_table
from venuepref import models
from venuepref.models import (
    CSV_FIELDS,
    NO_TIME,
    CheckinTable,
    DataError,
    ingest_checkins,
    ingest_index_table,
    load_bundled_index,
    write_checkins,
)
from venuepref.synth import SubcategorySpec, SynthSpec, generate

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
HEADER = "user_id,gender,venue_id,category,subcategory,latitude,longitude,country,city,timestamp\n"


def csv_stream(*lines):
    return io.BytesIO((HEADER + "".join(line + "\n" for line in lines)).encode())


def test_gender_filter_keeps_only_male_female():
    stream = csv_stream(
        "u1,male,v1,Food,Café,1.0,2.0,BR,,",
        "u2,female,v1,Food,Café,1.0,2.0,BR,,",
        "u3,other,v1,Food,Café,1.0,2.0,BR,,",
    )
    records, report = ingest_checkins(stream, "csv")
    assert len(records) == 2
    assert report.rejected_gender == 1
    assert {r.gender for r in to_records(records)} == {Gender.MALE, Gender.FEMALE}


def test_gender_matching_is_case_insensitive():
    stream = csv_stream("u1,MALE,v1,Food,Café,1.0,2.0,BR,,",
                        "u2,Female,v1,Food,Café,1.0,2.0,BR,,")
    records, report = ingest_checkins(stream, "csv")
    assert len(records) == 2
    assert report.rejected == 0


def test_empty_stream():
    records, report = ingest_checkins(csv_stream(), "csv")
    assert to_records(records) == []
    assert report.total_lines == 0
    assert report.accepted == 0


def test_bad_coordinates_rejected():
    stream = csv_stream("u1,male,v1,Food,Café,91.0,2.0,BR,,",
                        "u2,male,v2,Food,Café,1.0,-181.0,BR,,",
                        "u3,male,v3,Food,Café,1.0,2.0,BR,,",
                        "u4,male,v4,Food,Café,1.0,2.0,BR,,")
    records, report = ingest_checkins(stream, "csv")
    assert len(records) == 2
    assert report.bad_coordinates == 2


def test_missing_field_rejected():
    stream = csv_stream("u1,male,,Food,Café,1.0,2.0,BR,,",
                        "u2,male,v2,Food,Café,1.0,2.0,BR,,")
    records, report = ingest_checkins(stream, "csv")
    assert len(records) == 1
    assert report.missing_field == 1


def test_venue_subcategory_conflict_rejected_first_wins():
    stream = csv_stream("u1,male,v1,Food,Café,1.0,2.0,BR,,",
                        "u2,male,v1,Food,Bakery,1.0,2.0,BR,,")
    records, report = ingest_checkins(stream, "csv")
    assert len(records) == 1
    assert to_records(records)[0].subcategory == "Café"
    assert report.venue_conflict == 1


# a UTC offset whose minutes or seconds pass 59, which Python 3.11's
# fromisoformat carries over ("+00:99" reads as +01:39)
BAD_OFFSETS = ["2014-04-25T12:00:00+00:99", "2014-04-25T12:00:00-00:60",
               "2014-04-25T12:00:00+0099", "2014-04-25T12:00:00+00:59:99"]
# a UTC offset with a fraction of a second, which ISO 8601 does not have;
# Python 3.11's fromisoformat drops it from a zero offset, reading the
# first as UTC
FRACTION_OFFSETS = ["2014-04-25T12:00:00+00:00:00.123456",
                    "2014-04-25T12:00:00+00:00:01.5",
                    "2014-04-25T12:00:00+05:30:00.250000"]


# each timestamp with the one outcome it has on every supported Python:
# the UTC time it reads as, or None for a missing field
ONE_OUTCOME = {
    "2014-04-25T12:00:00Z": "2014-04-25T12:00:00",  # 3.10 read no Z
    "2014-04-25T12:00Z": "2014-04-25T12:00:00",
    "2014-04-25 14:00:00+02:00": "2014-04-25T12:00:00",
    "2014-04-25t14:00:00+02:00": "2014-04-25T12:00:00",
    "2014-04-25": "2014-04-25T00:00:00",
    # fromisoformat takes the + for the date-time separator, 11 hours off
    "2014-04-25+05:30": None,
    "2014-04-25Z": None,
    "2014-04-25x12:00:00": None,  # 3.10 took any separator
    "2014-W17-5T12:00": None,  # a week date, which 3.11 reads
    # offsets 3.11 reads and 3.10 does not
    "2014-04-25T12:00:00+0200": None, "2014-04-25T12:00:00+02": None,
    "2014-04-25T12:00:00+05:30:00": None,
    # 3.11 reads a fraction of an hour, here as +05:00:00.5
    "2014-04-25T12:00:00+05.50": None, "2014-04-25T12:00:00+05,50": None,
    **dict.fromkeys([*BAD_OFFSETS, *FRACTION_OFFSETS]),
}


@pytest.mark.parametrize("stamp, utc", ONE_OUTCOME.items())
def test_timestamp_has_one_outcome_on_every_python(stamp, utc):
    """Read alone, next to a value of the array path's form (which a
    25-character stamp then meets too) and by the oracle; a Z form reads
    as its +00:00 twin."""
    expected = None if utc is None else int(
        (datetime.fromisoformat(utc).replace(tzinfo=timezone.utc) - EPOCH)
        // timedelta(microseconds=1))
    micros = NO_TIME if utc is None else expected
    for values in ([stamp], [stamp, "2014-04-25T12:00:00+00:00"]):
        assert [a[0] for a in models._timestamps(values)] == [micros, utc is None]
    assert timestamps_one_by_one([stamp]) == ([micros], [utc is None])
    twin = models._timestamps([stamp.replace("Z", "+00:00")])
    assert [a.tolist() for a in twin] == [a.tolist() for a in models._timestamps([stamp])]


@pytest.mark.parametrize("ts", FRACTION_OFFSETS)
def test_utc_offset_with_a_fraction_is_a_missing_field(ts):
    with pytest.raises(ValueError, match="UTC offset"):
        ingest_oracle.parse_timestamp(ts)
    stream = csv_stream(f"u1,male,v1,Food,Café,1.0,2.0,BR,,{ts}",
                        *[f"u{i},male,v1,Food,Café,1.0,2.0,BR,,2014-04-25T12:00:00"
                          for i in range(2, 5)])
    records, report = ingest_checkins(stream, "csv")
    assert to_records(records)[0].user_id == "u2"
    assert report.missing_field == 1


def test_rejected_row_does_not_claim_venue_subcategory():
    # the first rows are dropped for their timestamps, so the venue is still
    # unclaimed when the valid rows arrive
    stream = csv_stream(*[f"u1,male,v1,Food,Bakery,1.0,2.0,BR,,{ts}"
                          for ts in ["not-a-time", *BAD_OFFSETS]],
                        *[f"u{i},male,v1,Food,Café,1.0,2.0,BR,," for i in range(2, 7)])
    records, report = ingest_checkins(stream, "csv")
    assert [r.subcategory for r in to_records(records)] == ["Café"] * 5
    assert report.missing_field == 5
    assert report.venue_conflict == 0


def test_majority_rejected_aborts():
    stream = csv_stream("u1,other,v1,Food,Café,1.0,2.0,BR,,",
                        "u2,other,v1,Food,Café,1.0,2.0,BR,,",
                        "u3,male,v1,Food,Café,1.0,2.0,BR,,")
    with pytest.raises(DataError, match="50%"):
        ingest_checkins(stream, "csv")


def test_unknown_format_rejected():
    with pytest.raises(DataError, match="unknown format"):
        ingest_checkins(io.BytesIO(b""), "xml")


def test_jsonl_ingest():
    lines = (
        '{"user_id":"u1","gender":"male","venue_id":"v1","category":"Food",'
        '"subcategory":"Caf\\u00e9","latitude":1.0,"longitude":2.0,"country":"BR"}\n'
        'not json\n'
    )
    records, report = ingest_checkins(io.BytesIO(lines.encode()), "jsonl")
    assert len(records) == 1
    assert report.unparseable == 1
    assert to_records(records)[0].subcategory == "Café"


def test_jsonl_timestamp_that_is_not_a_string_is_rejected():
    row = {"user_id": "u1", "gender": "male", "venue_id": "v1", "category": "Food",
           "subcategory": "Café", "latitude": 1.0, "longitude": 2.0, "country": "BR"}
    lines = (json.dumps({**row, "timestamp": 1398427200}) + "\n"
             + json.dumps({**row, "timestamp": "2014-04-25T12:00:00"}) + "\n")
    records, report = ingest_checkins(io.BytesIO(lines.encode()), "jsonl")
    assert len(records) == 1
    assert report.missing_field == 1


@pytest.mark.parametrize("timestamp", [0, 0.0, [], {}], ids=["0", "0.0", "list", "object"])
def test_a_falsy_jsonl_timestamp_is_a_missing_field(timestamp):
    """Only an absent key, null or "" is no timestamp; any other value that
    is not a time is a missing field, as 12, [1] and false are."""
    row = {"user_id": "u1", "gender": "male", "venue_id": "v1", "category": "Food",
           "subcategory": "Café", "latitude": 1.0, "longitude": 2.0, "country": "BR"}
    data = "".join(json.dumps(line) + "\n" for line in [
        {**row, "timestamp": timestamp}, row, {**row, "user_id": "u2", "timestamp": None},
        {**row, "user_id": "u3", "timestamp": ""}])
    table, report = ingest_checkins(io.BytesIO(data.encode()), "jsonl")
    assert (report.accepted, report.missing_field) == (3, 1)
    assert table.ts.tolist() == [NO_TIME] * 3
    assert_same_ingest(data, "jsonl")


def test_jsonl_boolean_is_no_coordinate_or_timestamp():
    row = {"user_id": "u1", "gender": "male", "venue_id": "v1", "category": "Food",
           "subcategory": "Café", "latitude": 1.0, "longitude": 2.0, "country": "BR"}
    lines = "".join(json.dumps(line) + "\n" for line in [
        {**row, "latitude": True}, {**row, "longitude": False},
        {**row, "timestamp": False}, {**row, "timestamp": True},
        row, row, row, row, row])
    records, report = ingest_checkins(io.BytesIO(lines.encode()), "jsonl")
    assert len(records) == 5
    assert (report.bad_coordinates, report.missing_field) == (2, 2)


def test_timestamp_without_offset_is_read_as_utc():
    records, _ = ingest_checkins(
        csv_stream("u1,male,v1,Food,Café,1.0,2.0,BR,,2014-04-25T12:00:00",
                   "u2,male,v1,Food,Café,1.0,2.0,BR,,2014-04-25T14:00:00+02:00"),
        "csv")
    first, second = to_records(records)
    assert first.timestamp == second.timestamp


def test_accepted_plus_rejected_equals_total():
    stream = csv_stream("u1,male,v1,Food,Café,1.0,2.0,BR,,",
                        "u2,other,v1,Food,Café,1.0,2.0,BR,,",
                        "u3,male,v2,Food,Café,99.0,2.0,BR,,",
                        "u4,female,v3,Food,Café,1.0,2.0,BR,,")
    records, report = ingest_checkins(stream, "csv")
    assert report.accepted + report.rejected == report.total_lines == 4


def test_ingest_is_deterministic():
    raw = (HEADER + "u1,male,v1,Food,Café,1.0,2.0,BR,Rio,2014-04-25T12:00:00\n"
                    "u2,female,v2,Arts,Museum,-1.5,3.0,BR,,\n").encode()
    first, rep1 = ingest_checkins(io.BytesIO(raw), "csv")
    second, rep2 = ingest_checkins(io.BytesIO(raw), "csv")
    assert to_records(first) == to_records(second)
    assert rep1.as_dict() == rep2.as_dict()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_round_trip(fmt):
    stream = csv_stream("u1,male,v1,Food,Café,1.25,2.5,BR,Rio,2014-04-25T12:00:00",
                        "u2,female,v2,Arts,Museum,-1.5,3.0,BR,,",
                        # written back in UTC, to the microsecond
                        "u3,male,v3,Food,Bar,0.1,-0.2,BR,Rio,2014-04-25T17:30:00.000001+05:30",
                        "u4,female,v3,Food,Bar,0.1,-0.2,BR,,0999-12-31T23:59:59+00:00")
    records, _ = ingest_checkins(stream, "csv")
    coordinates = [(1.25, 2.5), (-1.5, 3.0), (0.1, -0.2), (0.1, -0.2)]
    buf = io.StringIO()
    write_checkins(records, tuple(np.array(c) for c in zip(*coordinates)), buf, fmt=fmt)
    again, report = ingest_checkins(io.BytesIO(buf.getvalue().encode()), fmt)
    assert to_records(again) == to_records(records)
    assert again.ts.tolist() == records.ts.tolist()
    assert report.rejected == 0
    text = buf.getvalue()
    rows = (csv.DictReader(io.StringIO(text)) if fmt == "csv"
            else map(json.loads, text.splitlines()))
    assert [(float(row["latitude"]), float(row["longitude"])) for row in rows] == coordinates


def test_write_checkins_needs_one_coordinate_pair_per_row():
    table, _ = ingest_checkins(csv_stream("u1,male,v1,Food,Café,1.25,2.5,BR,,"), "csv")
    for coordinates in ((np.zeros(2), np.zeros(2)), (np.zeros(1),)):
        with pytest.raises(ValueError, match="one latitude and one longitude per row"):
            write_checkins(table, coordinates, io.StringIO())


def test_index_table_parses():
    table = ingest_index_table(io.BytesIO(b"country,value\nBrazil,0.457\n"),
                               index_name="GII")
    assert table.entries == {"Brazil": 0.457}


def test_index_value_out_of_range():
    with pytest.raises(DataError, match="out of"):
        ingest_index_table(io.BytesIO(b"country,value\nBrazil,1.5\n"))


def test_index_duplicate_country():
    data = b"country,value\nBrazil,0.457\nBrazil,0.4\n"
    with pytest.raises(DataError, match="duplicate"):
        ingest_index_table(io.BytesIO(data))


def test_bundled_tables():
    gii = load_bundled_index("GII")
    hdi = load_bundled_index("HDI")
    assert gii.entries["Brazil"] == 0.457
    assert hdi.entries["Germany"] == 0.916
    assert len(gii.entries) == len(hdi.entries) == 15
    assert all(0.0 <= v <= 1.0 for v in gii.entries.values())


@pytest.mark.parametrize("read, data", [
    (lambda s: ingest_checkins(s, "csv"), HEADER + "u1,male,v1,Food,Café,1,2,BR,,\n"),
    (lambda s: ingest_checkins(s, "jsonl"), '{"user_id": "u1"}\n'),
    (lambda s: ingest_checkins(s, "csv"), "user_id,gender\nu1,male\n"),
    (lambda s: ingest_checkins(s, "csv"), "\udcff"),
    (ingest_index_table, "country,value\nBrazil,0.457\n"),
    (ingest_index_table, "country,value\nBrazil,1.5\n"),
    (ingest_index_table, ""),
], ids=["csv", "jsonl-rejected", "csv-bad-header", "not-utf8",
        "index", "index-out-of-range", "index-empty"])
def test_ingest_leaves_the_callers_stream_open(read, data):
    stream = io.BytesIO(data.encode("utf-8", "surrogateescape"))
    try:
        read(stream)
    except DataError:
        pass
    gc.collect()  # a text wrapper left on the stream would close it here
    assert not stream.closed


# Differential tests: the columnar ingest against the per-row oracle in
# ingest_oracle.py, on small byte blocks and row chunks so that interned
# values and venue claims cross their boundaries.

# per field: valid values first (VALID of them), then values a row may break on
VALID = 3
# values the csv writer quotes: a comma, a quote (doubled) and a line break
QUOTED = ["Rio, RJ", 'Rio "RJ"', "Rio\nRJ"]
# venue ids as real exports write them: 24 hex digits, three 8-byte words;
# the first two share their last two words, the first and third their first
HEX_IDS = ["4b058f29f964a520b1981fe3", "4b058f2af964a520b1981fe3",
           "4b058f29f964a520b1981fe4"]
CELLS = {
    "user_id": ["u1", "u2", "Ünïcødé user 東京 😀", "", " ", " u1", "u1 ", "\t",
                "user-with-a-name-past-16-bytes",
                # past the bytes that are read as words: hashed by hash
                "u" * models._WORD_BYTES + "-past-the-words",
                "u" * models._WORD_BYTES + "-past-the-wordz", *QUOTED],
    "gender": ["male", "female", "MALE", " Female ", "mAlE", "other", ""],
    "venue_id": ["v1", HEX_IDS[0], HEX_IDS[1], "", HEX_IDS[2], "v1 "],
    "category": ["Food", "Arts & Entertainment", " Food", "", " ", "Café"],
    "subcategory": ["A", "A", "B", " A", "", "Bäckerei"],
    "latitude": ["1.5", "-90", "1_0", "90.000001", "-0", "nan", "inf", "1e1",
                 " 2 ", "0x1", "abc", ""],
    "longitude": ["2.5", "-180", " 1e2", "180.5", "-inf", "1e500", ""],
    "country": ["BR", "US", "BR ", "", "Brasil do Norte e do Sul"],
    # a city past _WORD_BYTES has its line's venue span past them too
    "city": ["", "Rio", " Rio ", " ", "São Paulo", "東京",
             "Rio" * (models._WORD_BYTES // 3 + 1), *QUOTED],
    "timestamp": ["", "2014-04-25T12:00:00", "2014-04-25T14:00:00+02:00",
                  "2014-04-25T08:29:59.999999-03:30",
                  "9999-12-31T23:59:59.999999+00:00",
                  "0001-01-01T00:00:00+01:00", "not-a-time", "2014-13-01",
                  "2014-04-25 12:00",
                  # as wide as the form read as an array, but out of range
                  # or in another form
                  "2015-02-29T12:00:00+02:00", "2014-04-25T24:00:00+00:00",
                  *ONE_OUTCOME],
}
# JSON values that are not strings, for the jsonl rows
JSON_CELLS = {
    "user_id": [1, 1.0, True, None, ["u"]],
    "gender": [1, True, None, {"k": 1}],
    "venue_id": [1, "1", None, 2.5],
    "category": [None, 0],
    "subcategory": [1, "1", None],
    "latitude": [1.5, -90, 90.5, True, None, 10 ** 400, [1], float("nan")],
    "longitude": [2.5, 180, -180.5, False, None, {"k": 1}, float("inf")],
    "country": [None, 7],
    "city": [0, False, [], {}, None, 5, True, [1]],
    "timestamp": [0, False, [], {}, None, 12, True, 1.5, ["x"],
                  list("2014-04-25T14:00:00+02:00")],  # 25 one-character strings
}
NOT_OBJECTS = ["[1, 2]", "3", '"s"', "null", "not json", "{", "", "   "]


def draw_row(draw, cells, changed=(0, 1, 1, 2)):
    """A mostly valid row, a dict by field name: every field valid, and each
    venue in one subcategory, but now and then the other one (a venue
    conflict if an earlier row claimed the venue), and as many fields as
    drawn from ``changed`` hold a value drawn from all of ``cells``."""
    row = {name: draw(st.sampled_from(values[:VALID]))
           for name, values in CELLS.items()}
    row["subcategory"] = dict(zip(CELLS["venue_id"], "AAB"))[row["venue_id"]]
    if draw(st.integers(0, 3)) == 0:
        row["subcategory"] = "AB".replace(row["subcategory"], "")
    for _ in range(draw(st.sampled_from(changed))):
        name = draw(st.sampled_from(CSV_FIELDS))
        row[name] = draw(st.sampled_from(cells[name]))
    return row


# bytes a file may hold on one line, after the header or on it, that stop a
# block from being cut at commas: invalid UTF-8 (a stray byte and a cut
# sequence), a quote, a NUL and a lone carriage return
ODD_BYTES = [b"\xff", b"\xc3", b'"', b"\0", b"\r"]


@st.composite
def csv_files(draw, headers=None):
    """CSV bytes with a shuffled header that may repeat, add or miss
    columns, or one drawn from ``headers``; rows that may be short, long,
    empty or quoted; empty lines; LF, CRLF or CR line ends, and a last line
    that may have none. At most one line may hold one of ODD_BYTES; a file
    with invalid UTF-8 has every header column, as the first of two faults
    is the one reported."""
    odd = draw(st.sampled_from([None] * 10 + ODD_BYTES))
    if headers is not None:
        header = list(draw(headers))
    else:
        header = list(draw(st.permutations(CSV_FIELDS)))
        if odd not in (b"\xff", b"\xc3") and draw(st.integers(0, 15)) == 0:
            header.remove(draw(st.sampled_from(CSV_FIELDS)))
        for name in draw(st.lists(st.sampled_from([*CSV_FIELDS, "extra"]), max_size=3)):
            header.insert(draw(st.integers(0, len(header))), name)
    last = {name: i for i, name in enumerate(header)}
    end = draw(st.sampled_from(["\n"] * 4 + ["\r\n"] * 2 + ["\r"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=end)
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 12))):
        values = draw_row(draw, CELLS)
        # a repeated column is read at its last position; the others differ
        row = [values[name] if last[name] == i and name in values
               else draw(st.sampled_from(CELLS.get(name, ["x", ""])))
               for i, name in enumerate(header)]
        cut = draw(st.sampled_from([0] * 16 + [-1, -3, 2, -len(row)]))
        if draw(st.integers(0, 7)) == 0:
            buf.write(end)
        writer.writerow(row[:len(row) + cut] if cut <= 0 else row + ["x"] * cut)
    text = buf.getvalue()
    data = (text[:-len(end)] if draw(st.booleans()) else text).encode()
    return data if odd is None else insert_odd_byte(draw, data, odd)


def insert_odd_byte(draw, data, odd):
    """``data`` with the byte ``odd`` drawn into one of its lines."""
    lines = data.split(b"\n")
    line = draw(st.sampled_from(range(len(lines))))
    at = draw(st.integers(0, len(lines[line])))
    lines[line] = lines[line][:at] + odd + lines[line][at:]
    return b"\n".join(lines)


@st.composite
def jsonl_files(draw):
    """JSON lines: objects with values of every JSON type and fields that
    may be absent, and lines that are blank, malformed or not objects. At
    most one line may hold one of ODD_BYTES. Each fault is rare enough per
    line that most files keep more than half of their lines."""
    odd = draw(st.sampled_from([None] * 10 + ODD_BYTES))
    cells = {name: CELLS[name] + JSON_CELLS[name] for name in CSV_FIELDS}
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 15)) == 0:
            lines.append(draw(st.sampled_from(NOT_OBJECTS)))
            continue
        row = draw_row(draw, cells, (0, 0, 1))
        if draw(st.integers(0, 7)) == 0:  # float(True) is 1.0, yet no coordinate
            row[draw(st.sampled_from(["latitude", "longitude", "timestamp"]))] = \
                draw(st.booleans())
        if draw(st.integers(0, 15)) == 0:
            del row[draw(st.sampled_from(CSV_FIELDS))]
        lines.append(json.dumps(row))
    data = "".join(line + "\n" for line in lines).encode()
    return data if odd is None else insert_odd_byte(draw, data, odd)


def ingest_outcome(ingest, data, fmt):
    """(table, report), or the DataError's message, of str or bytes data."""
    try:
        return ingest(io.BytesIO(data if isinstance(data, bytes) else data.encode()), fmt)
    except DataError as exc:
        return str(exc)


def assert_same_ingest(data, fmt):
    expected = ingest_outcome(ingest_oracle.ingest, data, fmt)
    outcome = ingest_outcome(ingest_checkins, data, fmt)
    if isinstance(expected, str):
        assert outcome == expected
        return
    (table, report), (records, oracle_report) = outcome, expected
    assert report.as_dict() == oracle_report.as_dict()
    assert len(table) == len(records)
    for i, rec in enumerate(records):
        city = table.city[i]
        assert table.users[table.user[i]] == rec.user_id
        assert table.gender[i] == (rec.gender is Gender.MALE)
        assert table.venues[table.venue[i]] == rec.venue_id
        assert table.categories[table.category[i]] == rec.category
        assert table.subcategories[table.venue_subcategory[table.venue[i]]] == rec.subcategory
        assert table.countries[table.country[i]] == rec.country
        assert (table.cities[city] if city >= 0 else None) == rec.city
        assert table.ts[i] == (NO_TIME if rec.timestamp is None
                               else (rec.timestamp - EPOCH) // timedelta(microseconds=1))
    for names in (table.users, table.venues, table.categories,
                  table.subcategories, table.countries, table.cities):
        assert names == sorted(set(names))
    # one subcategory per venue of an accepted row, each used by a venue
    assert table.venues == sorted({rec.venue_id for rec in records})
    assert table.subcategories == sorted({rec.subcategory for rec in records})
    assert len(table.venue_subcategory) == len(table.venues)


# a line of 27 bytes, and one with 2-byte UTF-8 sequences at its bytes 14 and 27
SHORT = "u1,male,v1,Food,A,1,2,BR,,\n"
ACCENTED = "u2,male,v1,Café,A,1,2,BR,São Paulo,\n"


@settings(max_examples=300)
@given(csv_files(), st.integers(1, 5), st.sampled_from([None, None, 72]),
       st.integers(16, 320))
@example(HEADER + "u1,male,v1,Food,Bakery,1.0,2.0,BR,,not-a-time\n"
                  "u2,male,v1,Food,Café,1.0,2.0,BR,,\n"
                  "u3,female,v1,Food,Café,1.0,2.0,BR,,\n", 1, None, 48)
@example(HEADER + "u1,male,v1,Food,A,1,2,BR,,\nu2,male,v1,Food,B,1,2,BR,,\n"
                  "u3,female,v1,Food,A,1,2,BR,,\n", 2, None, 60)
# the first quote after the first block: csv.reader reads on from its block
@example(HEADER + "u1,male,v1,Food,A,1,2,BR,Rio,\n"
                  'u2,female,v1,Food,A,1,2,BR,"Rio, RJ",\n'
                  "u3,female,v2,Food,A,1,2,BR,,\n", 1, None, 40)
@example((HEADER + "u1,male,v1,Food,A,1,2,BR,Rio,\n\n"
                   "u2,female,v1,Food,A,1,2,BR,,\n"
                   'u3,female,v2,Food,B,1,2,BR,"Rio ""RJ""\nnorte",\n'
                   "u4,male,v2,Food,B,1,2,BR,,").replace("\n", "\r\n"), 2, None, 70)
# quote-free blocks of short, long or mixed rows: csv.reader reads short ones
@example(HEADER + "u1,male,v1,Food,A,1,2,BR\nu2,male,v1,Food,A,1,2,BR,Rio,,x\n"
                  "u3,female,v1,Food,A,1,2\nu4,female,v1,Food,A,1,2,BR,,\n", 1, None, 30)
@example(HEADER + "u1,male,v1,Food,A,1,2,BR\nu2,male,v1,Food,A,1,2,BR,Rio,,x\n"
                  "u3,female,v1,Food,A,1,2\nu4,female,v1,Food,A,1,2,BR,,\n", 2, None, 70)
# a NUL ends ingest at its line, whether the block is split or read by csv.reader
@example(HEADER + "u1,male,v1,Food,A,1,2,BR,,\nu\0,male,v1,Food,A,1,2,BR,,\n", 1, None, 30)
@example(HEADER + 'u1,male,v1,Food,A,1,2,BR,"Rio\nRJ",\nu2,male,v1,Food,A,1,2,BR,,\n'
                  "u3,male,v1,Food,A,1,2,BR,\0,\n", 1, None, 40)
# CRLF and LF line ends, mixed, are cut at commas; a lone CR is not
@example((HEADER + "u1,male,v1,Food,A,1,2,BR,Rio,\nu2,female,v1,Food,A,1,2,BR,,\n").replace(
    "\n", "\r\n") + "u3,male,v1,Food,A,1,2,BR,Rio,\nu4,male,v1,Food,A,1,2,BR,,\r\n"
    "u5,male,v1,Food,A,1,2,BR,Rio,\ru6,male,v1,Food,A,1,2,BR,,\r\n", 2, None, 70)
# faults first met after a block cut at commas: csv.reader reads on from
# their block, naming lines (and the offset of a byte that is not UTF-8) as
# the oracle does
@example(HEADER + "u1,male,v1,Food,A,1,2,BR,,\nu2,male,v1,Food,A,1,2,BR,,\r"
                  "u3,male,v1,Food,A,1,2,BR,,\n", 1, None, 30)
@example((HEADER + "u1,male,v1,Food,A,1,2,BR,,\nu2,female,v1,Food,A,1,2,BR,,\n").encode()
         + b"u3,male,v1,Food,A,1,2,BR,\xffRio,\nu4,male,v1,Food,A,1,2,BR,,\n", 1, None, 30)
@example((HEADER + "u1,male,v1,Food,A,1,2,BR,,\nu2,female,v1,Food,A,1,2,BR,,\r").encode()
         + b"u3,male,v1,Food,A,1,2,BR,\xffRio,\nu4,male,v1,Food,A,1,2,BR,,\n", 1, None, 30)
@example(HEADER + "u1,male,v1,Food,A,1,2,BR,,\nu2,female,v1,Food,A,1,2,BR,,\n"
                  + "u" * 30 + ",male,v1,Food,A,1,2,BR,,\n", 1, 28, 60)
# venue ids that share their first or their last two 8-byte words
@example(HEADER + "".join(f"u{i},male,{HEX_IDS[i % 3]},Food,{'AAB'[i % 3]},1,2,BR,,\n"
                          for i in range(7)), 5, None, 200)
# a read that ends inside a UTF-8 sequence, or between the CR and LF of a
# line end: the block is cut at its last newline, and the rest of the line
# is read with the next
@example(HEADER + SHORT + ACCENTED * 3, 1, None, len(SHORT) + 15)
@example(HEADER + SHORT + ACCENTED * 3, 1, None, len(SHORT) + 28)
@example((HEADER + SHORT * 4).replace("\n", "\r\n"), 1, None, 2 * len(SHORT) + 1)
# a line longer than a block: csv.reader reads from it on
@example(HEADER + SHORT + ACCENTED + SHORT, 1, None, len(SHORT) + 8)
# a last line with no line end, a byte shorter than the block or as long
@example(HEADER + SHORT + SHORT[:-1], 1, None, len(SHORT))
@example(HEADER + SHORT[:-1], 1, None, len(SHORT) - 1)
def test_csv_ingest_equals_oracle(data, chunk_rows, field_limit, block_bytes):
    """csv.reader reads ``chunk_rows`` rows at a time, and the byte path
    blocks of ``block_bytes``. ``field_limit``, if given, is the csv
    module's field size limit: a block with a longer line goes to
    csv.reader, which refuses a longer field."""
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(field_limit or limit)
        with mock.patch.object(models, "_CHUNK_ROWS", chunk_rows), \
                mock.patch.object(models, "_BLOCK_BYTES", block_bytes):
            assert_same_ingest(data, "csv")
    finally:
        csv.field_size_limit(limit)


# The venue fields, venue_id to city, side by side in schema order, are read
# as one span per line; any other header reads them one column at a time.
RUN = CSV_FIELDS[2:9]
OTHERS = ["user_id", "gender", "timestamp"]
SPAN_HEADERS = [
    CSV_FIELDS,
    ["extra", *CSV_FIELDS, "extra"],
    [*RUN, *OTHERS],  # the span starts its line
    [*OTHERS, *RUN],  # and ends it, before any CR
    ["city", "category", *CSV_FIELDS],  # a repeated name reads its last column
]
SPLIT_HEADERS = [
    [*CSV_FIELDS[:8], "timestamp", "city"],  # a moved city
    [*CSV_FIELDS[:5], "extra", *CSV_FIELDS[5:]],  # a column inside the run
    [*CSV_FIELDS, "country"],  # a repeated name read after the run
    [*RUN[::-1], *OTHERS],  # the run reversed
]


@settings(max_examples=300)
@given(csv_files(st.sampled_from(SPAN_HEADERS + SPLIT_HEADERS)), st.integers(1, 5),
       st.integers(16, 320))
def test_csv_ingest_of_a_venue_run_equals_oracle(data, chunk_rows, block_bytes):
    with mock.patch.object(models, "_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(models, "_BLOCK_BYTES", block_bytes):
        assert_same_ingest(data, "csv")


def count_groupings(header, monkeypatch, span_bytes=None):
    """The ``_groups`` calls of ingesting one block of 300 synthetic rows
    with ``header``, after checking the table against the oracle; with
    ``span_bytes``, the city of one row makes its venue span that long."""
    spec = SynthSpec(n_users=40, female_fraction=0.5, n_checkins=300,
                     region_name="Land0", rng_seed=5, city="Rio",
                     subcategories=[SubcategorySpec(f"S{i}", "Food", 3, 1.0)
                                    for i in range(3)])
    buf = io.StringIO()
    write_checkins(*generate(spec), buf)
    stamp = "2014-04-25T12:00:00+00:00"
    rows = [{**row, "extra": "x", "timestamp": stamp}
            for row in csv.DictReader(io.StringIO(buf.getvalue()))]
    if span_bytes is not None:
        row = rows[150]
        row["city"] = "R" * (span_bytes - len(",".join(row[name] for name in RUN[:-1])) - 1)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [header, *([row[name] for name in header] for row in rows)])
    calls = []
    groups = models._groups
    monkeypatch.setattr(models, "_groups", lambda *args: calls.append(1) or groups(*args))
    monkeypatch.setattr(models, "_BLOCK_BYTES", 1 << 20)  # one block
    table, report = ingest_checkins(io.BytesIO(out.getvalue().encode()), "csv")
    assert report.accepted == len(table) == 300
    count = len(calls)
    assert_same_ingest(out.getvalue(), "csv")
    return count


@pytest.mark.parametrize("header, groupings", [
    *((header, 3) for header in SPAN_HEADERS),  # user_id, gender and the span
    *((header, 9) for header in SPLIT_HEADERS),
])
def test_a_venue_run_is_grouped_once_per_block(header, groupings, monkeypatch):
    """Each block groups its rows once per column, or once for the whole
    venue run where its fields are side by side; ISO timestamps of one
    width are read as bytes, not grouped."""
    assert count_groupings(header, monkeypatch) == groupings


def test_a_venue_span_past_the_words_is_grouped_per_column(monkeypatch):
    """One line whose venue span is longer than _WORD_BYTES has its whole
    block group the venue fields one column at a time: a span's bytes past
    them would be hashed and compared per row. A span of exactly
    _WORD_BYTES is still grouped once."""
    assert count_groupings(CSV_FIELDS, monkeypatch, models._WORD_BYTES + 1) == 9
    assert count_groupings(CSV_FIELDS, monkeypatch, models._WORD_BYTES) == 3


def test_a_span_of_hex_venue_ids_is_read_as_words():
    """A synthetic venue span as CI's land0-hex.csv holds it (24-hex venue
    ids, repr'd coordinates, a city past ASCII) fits in _WORD_BYTES: no
    part of it is hashed by ``hash``."""
    spec = SynthSpec(n_users=300, female_fraction=0.5, n_checkins=2000,
                     region_name="Land0", rng_seed=11,
                     subcategories=[SubcategorySpec(f"S{j}", "Food", 4, 1.0)
                                    for j in range(4)])
    buf = io.StringIO()
    write_checkins(*generate(spec), buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    for row in rows:
        row["venue_id"] = hashlib.sha256(row["venue_id"].encode()).hexdigest()[:24]
        row["city"] = "São Paulo"
    spans = [",".join(row[name] for name in RUN).encode() for row in rows]
    assert max(map(len, spans)) <= models._WORD_BYTES
    out = io.StringIO()
    writer = csv.DictWriter(out, CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    with mock.patch.object(models, "hash", side_effect=AssertionError, create=True):
        table, report = ingest_checkins(io.BytesIO(out.getvalue().encode()), "csv")
    assert report.accepted == len(table) == 2000
    assert table.cities == ["São Paulo"] and len(table.venues) == 16


@pytest.mark.parametrize("factor", [0, 1])
def test_fields_whose_hashes_collide_keep_their_values(factor, monkeypatch):
    """A factor of 0 hashes a field to its last 8-byte word, and 1 to the
    sum of its words, and the bytes of a field past its first _WORD_BYTES
    are hashed here by their count: the ids below then share hashes, and
    so do the spans of venue fields (in schema order, one span from
    venue_id to city) that hold them, and all are still read apart. The
    first 30 rows' long cities have their blocks read per column; the last
    30 rows' blocks are read as spans."""
    users = ["abcdefgh12345678", "12345678abcdefgh",  # one sum of words
             "L" * models._WORD_BYTES + "a",  # one first _WORD_BYTES and length
             "L" * models._WORD_BYTES + "b"]
    venues = [*HEX_IDS, *users[:2]]
    rows = [f"{users[i % 4]},male,{venues[i % 5]},Food,{'AABAA'[i % 5]},1,2,BR,"
            f"{users[i // 2 % (4 if i < 30 else 2)]}," for i in range(60)]
    blocks = []  # the distinct spans of each block read as spans
    cut = models._cut_columns

    def cut_columns(spans, *args):
        blocks.append(spans := list(spans))
        return cut(spans, *args)

    monkeypatch.setattr(models, "_cut_columns", cut_columns)
    monkeypatch.setattr(models, "_HASH_FACTOR", np.uint64(factor))
    monkeypatch.setattr(models, "hash", len, raising=False)
    monkeypatch.setattr(models, "_BLOCK_BYTES", 1024)  # 3 to 8 rows
    assert_same_ingest(csv_stream(*rows).getvalue(), "csv")
    assert any({f"{venue},Food,A,1,2,BR,{city}" for venue in users[:2]} <= set(spans)
               for spans in blocks for city in users[:2])
    table, _ = ingest_checkins(csv_stream(*rows), "csv")
    assert (table.users, table.venues, table.cities) == (
        sorted(users), sorted(venues), sorted(users))


def test_quote_free_rows_skip_the_csv_reader(monkeypatch):
    spec = SynthSpec(n_users=40, female_fraction=0.5, n_checkins=300,
                     region_name="Land0", rng_seed=5, city="Rio",
                     subcategories=[SubcategorySpec(f"S{i}", "Food", 3, 1.0)
                                    for i in range(3)])
    buf = io.StringIO()
    write_checkins(*generate(spec), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    assert '"' not in buf.getvalue()
    quoted = lines[:200] + [lines[200].replace(",Rio,", ',"Rio",')] + lines[201:]
    calls = []
    reader = csv.reader

    def counted_reader(*args, **kwargs):
        calls.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(models, "_BLOCK_BYTES", 4096)  # about 50 rows
    monkeypatch.setattr(models.csv, "reader", counted_reader)
    table, report = ingest_checkins(io.BytesIO("".join(lines).encode()), "csv")
    assert calls == []  # the header is cut at commas too
    assert report.accepted == len(table) == 300
    # a quote on line 201 hands the rest of the file to one reader
    again, _ = ingest_checkins(io.BytesIO("".join(quoted).encode()), "csv")
    assert len(calls) == 1
    assert to_records(again) == to_records(table)
    # and so does a line longer than a block
    long = lines[:200] + [lines[200].replace(",Rio,", f",{'R' * 4096},")] + lines[201:]
    again, _ = ingest_checkins(io.BytesIO("".join(long).encode()), "csv")
    assert len(calls) == 2
    assert again.cities == ["R" * 4096, "Rio"]
    assert (again.city == 0).sum() == 1


@pytest.mark.parametrize("size", [16, 17])
def test_split_lines_keep_the_csv_field_size_limit(size):
    row = ",male,v1,Food,A,1,2,BR,,\n"
    data = HEADER + "u" * size + row + "u1" + row + "u2" + row
    limit = csv.field_size_limit(16)
    try:  # a block of the line alone
        with mock.patch.object(models, "_BLOCK_BYTES", size + len(row)):
            outcome = ingest_outcome(ingest_checkins, data, "csv")
    finally:
        csv.field_size_limit(limit)
    if size == 16:
        assert outcome[1].accepted == 3
    else:
        assert outcome == "csv line 2: field larger than field limit (16)"


def test_a_byte_that_is_not_utf8_is_named_by_line_and_file_offset():
    """On either path: cut at commas, or read by csv.reader from a quote on."""
    for second in (SHORT, SHORT.replace(",BR,", ',"BR",')):
        data = (HEADER + SHORT + second + "u3,male,v1,Food,A,1,2,BR,").encode()
        message = (f"csv line 4: input is not valid UTF-8: byte 0xff at offset {len(data)} "
                   "of the file (invalid start byte)")
        data += b"\xff,\n"
        for block in (30, 1 << 12):
            with mock.patch.object(models, "_BLOCK_BYTES", block):
                assert ingest_outcome(ingest_checkins, data, "csv") == message
        assert ingest_outcome(ingest_oracle.ingest, data, "csv") == message


def test_ingest_memory_is_bounded_by_the_block_not_the_file(monkeypatch):
    """A file of 16 blocks is read with a traced peak (numpy's arrays
    included) below its size, and below four blocks over the bytes of the
    table it returns."""
    block = 1 << 17
    spec = SynthSpec(n_users=400, female_fraction=0.5, n_checkins=26_000,
                     region_name="Land0", rng_seed=5, city="Rio",
                     subcategories=[SubcategorySpec(f"S{i}", "Food", 20, 1.0)
                                    for i in range(10)])
    buf = io.StringIO()
    write_checkins(*generate(spec), buf)
    data = buf.getvalue().encode()
    assert len(data) >= 16 * block
    monkeypatch.setattr(models, "_BLOCK_BYTES", block)
    tracemalloc.start()
    try:
        table, _ = ingest_checkins(io.BytesIO(data), "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(getattr(table, column).nbytes for column in models._COLUMNS)
    assert peak < len(data)
    assert peak - kept < 4 * block


def test_table_keeps_no_coordinates_and_29_bytes_per_row():
    """Five int32 codes, int8 gender and int64 microseconds per row, NO_TIME
    for no timestamp, and an int32 subcategory code per venue, which a
    subset shares; ingest checks coordinates and keeps none."""
    assert [f.name for f in fields(CheckinTable)] == [
        "user", "venue", "category", "venue_subcategory", "country", "city", "gender",
        "ts", "users", "venues", "categories", "subcategories", "countries", "cities"]
    spec = SynthSpec(n_users=40, female_fraction=0.5, n_checkins=500,
                     region_name="Land0", rng_seed=5, city="Rio",
                     subcategories=[SubcategorySpec(f"S{i}", "Food", 3, 1.0)
                                    for i in range(3)])
    synthetic, coordinates = generate(spec)
    assert (synthetic.ts == NO_TIME).all()
    buf = io.StringIO()
    write_checkins(synthetic, coordinates, buf)  # with no timestamps
    table, _ = ingest_checkins(io.BytesIO(buf.getvalue().encode()), "csv")
    assert len(table) == 500
    assert sum(getattr(table, c).nbytes for c in models._COLUMNS) / len(table) == 29
    assert (table.ts == NO_TIME).all()
    assert table.venue_subcategory.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    subset = table.take([0])
    assert subset.venue_subcategory is table.venue_subcategory
    assert subset.ts.tolist() == [NO_TIME]


# a venue claimed by its first accepted line, not by a rejected one before
# it, and lines of another subcategory after the claim, in chunks of 1 or 2
CLAIMS = "".join(json.dumps({"user_id": user, "gender": gender, "venue_id": venue,
                             "category": "Food", "subcategory": subcategory,
                             "latitude": 1.0, "longitude": 2.0, "country": "BR"}) + "\n"
                 for user, gender, venue, subcategory in [
                     ("u1", "other", "v1", "B"), ("u2", "male", "v1", "A"),
                     ("u3", "female", "v1", "B"), ("u4", "female", "v2", "B"),
                     ("u5", "male", "v2", "A"), ("u6", "male", "v1", "A"),
                     ("u7", "female", "v2", "B")])


@settings(max_examples=200)
@given(jsonl_files(), st.integers(1, 5))
@example(CLAIMS, 1)
@example(CLAIMS, 2)
def test_jsonl_ingest_equals_oracle(data, chunk_rows):
    with mock.patch.object(models, "_CHUNK_ROWS", chunk_rows):
        assert_same_ingest(data, "jsonl")


def test_huge_jsonl_coordinate_is_a_bad_coordinate():
    row = {"user_id": "u1", "gender": "male", "venue_id": "v1", "category": "Food",
           "subcategory": "Café", "latitude": 1.0, "longitude": 2.0, "country": "BR"}
    lines = (json.dumps({**row, "latitude": 10 ** 400}) + "\n"
             + json.dumps(row) + "\n" + json.dumps({**row, "user_id": "u2"}) + "\n")
    table, report = ingest_checkins(io.BytesIO(lines.encode()), "jsonl")
    assert len(table) == 2
    assert report.bad_coordinates == 1


def test_records_round_trip_through_the_table():
    table, _ = ingest_checkins(csv_stream(
        "u1,male,v1,Food,Café,1.25,2.5,BR,Rio,2014-04-25T12:00:00",
        "u2,female,v2,Arts,Museum,-1.5,3.0,BR,,"), "csv")
    again = to_table(to_records(table))
    for column in fields(CheckinTable):
        assert np.array_equal(getattr(again, column.name), getattr(table, column.name))


# Fixed-width timestamps: the byte-matrix path of _timestamps against the
# ingest oracle, value by value.

def two_digits(low, high):
    return st.integers(low, high).map("{:02d}".format)


@st.composite
def fixed_width_stamps(draw):
    """Strings as wide as YYYY-MM-DDTHH:MM:SS+HH:MM, every field drawn from
    its range and just past it, with other separators and digits."""
    year = draw(st.sampled_from([0, 1, 4, 1900, 1969, 1970, 2000, 2015, 2016, 9999])
                | st.integers(0, 9999))
    stamp = (f"{year:04d}-{draw(two_digits(0, 13))}-{draw(two_digits(0, 32))}"
             f"{draw(st.sampled_from('TTTT t'))}{draw(two_digits(0, 24))}:"
             f"{draw(two_digits(0, 60))}:{draw(two_digits(0, 60))}"
             f"{draw(st.sampled_from('+-'))}{draw(two_digits(0, 24))}:"
             f"{draw(two_digits(0, 60))}")
    if draw(st.integers(0, 9)) == 0:  # a full-width digit, which is not ASCII
        i = draw(st.sampled_from([i for i, c in enumerate(stamp) if c.isdigit()]))
        stamp = stamp[:i] + chr(ord(stamp[i]) - ord("0") + ord("０")) + stamp[i + 1:]
    return stamp


def timestamps_one_by_one(values):
    """The _timestamps integers and mask of values that do not parse, each
    value parsed alone by the ingest oracle."""
    micros, bad = [], []
    for value in values:
        try:
            stamp = ingest_oracle.parse_timestamp(value)
        except ValueError:
            stamp = None
            bad.append(True)
        else:
            bad.append(False)
        micros.append(NO_TIME if stamp is None else checkin_records._micros(stamp))
    return micros, bad


@settings(max_examples=300)
@given(st.lists(fixed_width_stamps(), min_size=1, max_size=12),
       st.sampled_from([None, None, None, "", "2014-04-25T12:00:00"]))
@example(["1900-02-29T00:00:00+00:00", "2000-02-29T00:00:00+00:00",
          "2015-02-29T00:00:00+00:00", "2016-02-29T23:59:59-23:59"], None)
@example(["2014-04-31T12:00:00+02:00", "2014-04-00T12:00:00+02:00",
          "2014-00-25T12:00:00+02:00", "2014-13-25T12:00:00+02:00",
          "0000-01-01T00:00:00+00:00", "0001-01-01T00:00:00+01:00"], None)
@example(["2014-04-25T24:00:00+00:00", "2014-04-25T23:60:00+00:00",
          "2014-04-25T23:59:60+00:00", "9999-12-31T23:59:59-01:00"], None)
@example(["2014-04-25T12:00:00+24:00", "2014-04-25T12:00:00-00:60",
          "2014-04-25T12:00:00-00:00", "2014-04-25T12:00:00+23:59",
          "2014-04-25T12:00:00+23:60"], None)
@example(["2014-04-25 12:00:00+02:00", "2014-04-25t12:00:00+02:00",
          "２014-04-25T12:00:00+02:00", "2014-04-25T12:00:00+02:0５",
          "2014-04-25T12:00:00+02:00"], None)
def test_fixed_width_timestamps_equal_fromisoformat(stamps, other):
    """``other``, when given, is a value of another width, so the chunk
    is parsed whole by fromisoformat; else rows that fit are read as an
    array and the rest one by one."""
    values = stamps if other is None else [*stamps, other]
    micros, bad = models._timestamps(values)
    assert (micros.tolist(), bad.tolist()) == timestamps_one_by_one(values)


def test_fixed_width_timestamps_parse_only_the_rows_that_do_not_fit(monkeypatch):
    parsed = []
    parse = models._parsed_timestamps

    def counted_parse(values):
        parsed.append(list(values))
        return parse(values)

    monkeypatch.setattr(models, "_parsed_timestamps", counted_parse)
    fits = ["2014-04-25T12:00:00+02:00", "2016-02-29T23:59:59-23:59",
            "2000-02-29T00:00:00+00:00", "0001-01-01T00:00:00+00:00",
            "9999-12-31T23:59:59-00:00", "1970-01-31T00:00:00+00:00"]
    models._timestamps(fits)
    assert parsed == []
    models._timestamps([fits[0], "2015-02-29T00:00:00+00:00", fits[1],
                        "2014-04-25 12:00:00+02:00"])
    assert parsed == [["2015-02-29T00:00:00+00:00", "2014-04-25 12:00:00+02:00"]]
    models._timestamps([*fits, ""])  # another width: the chunk is parsed whole
    assert parsed[-1] == [*fits, ""]
