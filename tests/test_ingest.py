import gc
import io
import json

import pytest

from venuepref.models import (
    DataError,
    Gender,
    ingest_checkins,
    ingest_index_table,
    load_bundled_index,
    write_checkins,
)

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
    assert {r.gender for r in records} == {Gender.MALE, Gender.FEMALE}


def test_gender_matching_is_case_insensitive():
    stream = csv_stream("u1,MALE,v1,Food,Café,1.0,2.0,BR,,",
                        "u2,Female,v1,Food,Café,1.0,2.0,BR,,")
    records, report = ingest_checkins(stream, "csv")
    assert len(records) == 2
    assert report.rejected == 0


def test_empty_stream():
    records, report = ingest_checkins(csv_stream(), "csv")
    assert records == []
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
    assert records[0].subcategory == "Café"
    assert report.venue_conflict == 1


def test_rejected_row_does_not_claim_venue_subcategory():
    # the first row is dropped for its timestamp, so the venue is still
    # unclaimed when the valid row arrives
    stream = csv_stream("u1,male,v1,Food,Bakery,1.0,2.0,BR,,not-a-time",
                        "u2,male,v1,Food,Café,1.0,2.0,BR,,",
                        "u3,female,v1,Food,Café,1.0,2.0,BR,,")
    records, report = ingest_checkins(stream, "csv")
    assert [r.subcategory for r in records] == ["Café", "Café"]
    assert report.missing_field == 1
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
    assert records[0].subcategory == "Café"


def test_jsonl_timestamp_that_is_not_a_string_is_rejected():
    row = {"user_id": "u1", "gender": "male", "venue_id": "v1", "category": "Food",
           "subcategory": "Café", "latitude": 1.0, "longitude": 2.0, "country": "BR"}
    lines = (json.dumps({**row, "timestamp": 1398427200}) + "\n"
             + json.dumps({**row, "timestamp": "2014-04-25T12:00:00"}) + "\n")
    records, report = ingest_checkins(io.BytesIO(lines.encode()), "jsonl")
    assert len(records) == 1
    assert report.missing_field == 1


def test_timestamp_without_offset_is_read_as_utc():
    records, _ = ingest_checkins(
        csv_stream("u1,male,v1,Food,Café,1.0,2.0,BR,,2014-04-25T12:00:00",
                   "u2,male,v1,Food,Café,1.0,2.0,BR,,2014-04-25T14:00:00+02:00"),
        "csv")
    assert records[0].timestamp == records[1].timestamp


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
    assert first == second
    assert rep1.as_dict() == rep2.as_dict()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_round_trip(fmt):
    stream = csv_stream("u1,male,v1,Food,Café,1.25,2.5,BR,Rio,2014-04-25T12:00:00",
                        "u2,female,v2,Arts,Museum,-1.5,3.0,BR,,")
    records, _ = ingest_checkins(stream, "csv")
    buf = io.StringIO()
    write_checkins(records, buf, fmt=fmt)
    again, report = ingest_checkins(io.BytesIO(buf.getvalue().encode()), fmt)
    assert again == records
    assert report.rejected == 0


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
