"""Tests for the on-disk formats: streams, galleries, tracks, truth,
results, and the CSV report writers."""

import csv
import gc
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from prototrack import stream_io
from prototrack.errors import (
    DimensionMismatch,
    EmptyGallery,
    OutOfOrderFrame,
    ParseError,
    UnsupportedVersion,
)
from prototrack.evaluate import AccuracyReport, SweepPoint
from prototrack.floattext import float_text
from prototrack.gallery import Gallery, TrainingTrack
from prototrack.stream_io import (
    STREAM_VERSION,
    StreamHeader,
    canonical_float,
    float_arrays,
    iter_stream,
    read_gallery,
    read_results,
    read_stream,
    read_tracks,
    read_truth,
    write_gallery,
    write_results,
    write_score_csv,
    write_score_json,
    write_stream,
    write_summary_csv,
    write_sweep_csv,
    write_tracks,
    write_truth,
)
from prototrack.synth import GroundTruthStream
from prototrack.types import (
    SOURCE_CLASSIFIED,
    SOURCE_OCCLUDED,
    SOURCE_REUSED,
    UNKNOWN,
    BoundingBox,
    Detection,
    FrameEntry,
    FrameResult,
    l2_normalize,
)

DIM = 8
HEADER = StreamHeader(fps=30.0, frame_width=1920, frame_height=1080,
                      embedding_dim=DIM)
BOX = BoundingBox(100.0, 100.0, 96.0, 96.0)
# eyes, nose tip and mouth corners, as fractions of a box's width and height
KEYPOINT_FRACTIONS = ((0.30, 0.40), (0.70, 0.40), (0.50, 0.60), (0.35, 0.80), (0.65, 0.80))


def keypoints(box):
    """The five landmark points write_stream spells for `box`."""
    return [[box.x + fx * box.w, box.y + fy * box.h] for fx, fy in KEYPOINT_FRACTIONS]


def unit(i):
    v = np.zeros(DIM)
    v[i] = 1.0
    return v


def rand_unit(rng):
    v = rng.normal(size=DIM)
    return v / np.linalg.norm(v)


# ------------------------------------------------------- canonical floats


def test_canonical_float_round_trips_float32_values():
    # 9 significant digits are enough to reproduce any binary32 value
    rng = np.random.default_rng(0)
    for scale in (1e-8, 1e-3, 1.0, 1e4, 1e12):
        for x in rng.normal(scale=scale, size=200):
            v32 = np.float32(x)
            assert np.float32(canonical_float(v32)) == v32


def test_canonical_float_idempotent():
    rng = np.random.default_rng(1)
    for x in rng.normal(size=500):
        once = canonical_float(x)
        assert canonical_float(once) == once


def ulps_around(x, n):
    """The 2n + 1 float32 values nearest to float32(x), x included."""
    bits = np.array([x], dtype=np.float32).view(np.int32)[0]
    return (bits + np.arange(-n, n + 1, dtype=np.int32)).view(np.float32)


def test_vector_writer_matches_canonical_float_json():
    # the writers format vectors in bulk with float_arrays; every number must
    # still be spelled exactly as json.dumps spells canonical_float of its
    # float32 value. The rows hold NaN, infinities and zero rows, which the
    # gallery and tracks writers refuse, so float_arrays spells them here.
    rng = np.random.default_rng(11)
    f32 = np.finfo(np.float32)
    edges = np.concatenate([ulps_around(x, 2000)
                            for x in (1e-5, 1e-4, 1e9, 1e16, 2.0 ** 24)])
    sign = lambda n: rng.choice([-1.0, 1.0], n)
    parts = [
        rng.integers(0, 2 ** 32, 400_000, dtype=np.uint64)
        .astype(np.uint32).view(np.float32),                 # any bit pattern
        rng.normal(scale=512 ** -0.5, size=300_000),          # embeddings
        rng.integers(0, 4097, 100_000),                       # box pixels
        sign(80_000) * 10.0 ** rng.uniform(9, 16, 80_000),    # 1e9..1e16
        sign(60_000) * 10.0 ** rng.uniform(-6, -3, 60_000),   # 1e-6..1e-3
        rng.integers(1, 2 ** 23, 40_000, dtype=np.uint32)
        .view(np.float32),                                    # subnormals
        edges, -edges,
        [0.0, -0.0, f32.max, -f32.max, f32.tiny, np.inf, -np.inf, np.nan],
    ]
    values = np.concatenate([np.asarray(p, dtype=np.float32) for p in parts])
    rows = np.resize(values, (len(values) // 1000 + 1, 1000))
    expected = json.dumps([[canonical_float(v) for v in row] for row in rows],
                          separators=(",", ":"))
    got = "[" + ",".join(float_arrays(rows)) + "]"
    if got != expected:
        got_tokens, want_tokens = got.split(","), expected.split(",")
        i = next(i for i, (a, b) in enumerate(zip(got_tokens, want_tokens))
                 if a != b)
        pytest.fail(f"token {i}: wrote {got_tokens[i]!r}, "
                    f"canonical is {want_tokens[i]!r}")


def assert_written_canonically(tmp_path, rows):
    """write_tracks spells every number of `rows` (float32 vectors of one
    width) as json.dumps spells canonical_float of it."""
    rows = np.asarray(rows, dtype=np.float32)
    path = tmp_path / "t.json"
    write_tracks([TrainingTrack("p", list(enumerate(rows)), 30.0)], path)
    text = path.read_text()
    assert text.endswith("]]}]}\n")
    embeddings = text[text.index('"embeddings":[[') + 15:-6]
    tokens = embeddings.replace("],[", ",").split(",")
    for value, token in zip(rows.ravel(), tokens, strict=True):
        assert token == json.dumps(canonical_float(value)), f"{value!r} written as {token}"


def exact_ties():
    """Every float32 x with 1e-4 <= x < 1 that lies exactly halfway between
    two 9-significant-digit decimals.

    x = m 2^-s is exactly m 5^s 10^-s, so x is a tie when m 5^s has 10
    significant digits, the last a 5. Twice x 10^(8 - E) is then an
    integer, so m is a multiple of 2^(s - 9 + E) >= 2^10.
    """
    ties = []
    for s in range(24, 38):  # 2^-14 <= x < 1
        for m in range(2 ** 23, 2 ** 24, 2 ** 10):
            digits = str(m * 5 ** s)
            significant = digits.rstrip("0")
            if (-4 <= len(digits) - 1 - s <= -1 and len(significant) == 10
                    and significant[-1] == "5"):
                ties.append(m / 2 ** s)
    return ties


def test_writer_rounds_exact_ties_half_to_even(tmp_path):
    ties = exact_ties()
    assert len(ties) == 575
    assert 0.000366210938 in [canonical_float(x) for x in ties]  # ...37.5 rounds up
    assert "%.9g" % 0.5009765625 == "0.500976562"  # ...62.5 rounds down
    values = np.array(ties + [-x for x in ties], dtype=np.float32)
    assert_written_canonically(tmp_path, np.resize(values, (23, 50)))


def test_writer_spells_every_value_near_a_decade_edge(tmp_path):
    # the decimal exponent changes at each power of ten, and the exponent
    # field, which sets the kernel's shift, at each power of two
    edges = np.concatenate([ulps_around(x, 2000)
                            for x in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0,
                                      *(2.0 ** -p for p in range(1, 15)))])
    values = np.concatenate([edges, -edges])
    assert_written_canonically(tmp_path, values.reshape(-1, 4001))


def test_no_float32_below_one_rounds_up_to_a_decade():
    # so the 9 rounded digits of an x in [1e-4, 1) never carry into a 10th
    for decade in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0):
        below = np.float32(decade)  # the float32 nearest, on either side
        if float(below) >= decade:
            below = np.nextafter(below, np.float32(0))
        assert float(below) < decade <= float(np.nextafter(below, np.float32(1)))
        assert canonical_float(below) < decade


def test_writer_mixes_decimal_digits_with_every_other_spelling(tmp_path):
    mixed = [0.25, 0.0, -0.123, -0.0, 3.0, -7.0, 1e-5, 0.5, 1e10, -1e20,
             float("nan"), 0.000123, float("inf"), float("-inf"), 123.456,
             -2.5e-7, 0.999999]
    assert float_arrays([mixed]) == [
        '[0.25,0.0,-0.123000003,-0.0,3.0,-7.0,9.99999975e-06,0.5,'
        '10000000000.0,-1.00000002e+20,NaN,0.000123000005,Infinity,-Infinity,'
        '123.456001,-2.49999999e-07,0.999998987]']
    # the tracks reader refuses a non-finite vector, so its writer does too
    with pytest.raises(ValueError, match="track 'p': frame 0: cannot normalize"):
        write_tracks([TrainingTrack("p", [(0, np.array(mixed))], 30.0)], tmp_path / "m.json")
    finite = [x for x in mixed if math.isfinite(x)]
    assert_written_canonically(tmp_path, [finite])


def test_writer_fills_each_row_with_its_own_fallbacks(tmp_path):
    # row i has i numbers that take another spelling, at other positions
    # each time, so each row's placeholders must take that row's values
    rng = np.random.default_rng(3)
    others = np.array([7.0, 1e-6, 1e12, 250.5, -0.0, 0.0, 1e20, -3.0])
    rows = rng.normal(scale=0.05, size=(9, 8))
    for i in range(9):
        at = rng.choice(8, size=i, replace=False)
        rows[i, at] = others[(np.arange(i) + i) % 8]
    assert_written_canonically(tmp_path, rows)
    assert_written_canonically(tmp_path, rows[::-1])


def test_float_arrays_over_many_values_spell_each_row_alone():
    # a call past 2**15 values is formatted in passes of whole rows; each
    # row keeps its own text and its own fallbacks
    rng = np.random.default_rng(5)
    others = np.array([7.0, 1e-6, 1e12, -0.0, np.nan, np.inf])
    for n, width in ((65, 512), (20_000, 2), (3, 40_000)):
        rows = rng.normal(scale=0.05, size=(n, width))
        rows.flat[rng.choice(rows.size, size=n, replace=False)] = others[rng.integers(6, size=n)]
        assert float_arrays(rows) == [text for row in rows for text in float_arrays([row])]


def canonical_list(values):
    return [canonical_float(v) for v in np.asarray(values, dtype=np.float32)]


def test_record_writers_match_canonical_json(tmp_path):
    # nested arrays (landmarks), integral and signed-zero coordinates, labels
    # and scalars, each against json.dumps of the canonical values
    odd = np.array([-0.0, 96.0, 1e10, 0.1, -3.5e-7, 1e20, 2.5, 7.0])
    box = BoundingBox(-0.0, 1e10, 96.0, 0.1)
    dets = [Detection(3, box, odd, gt_label="zoë"), Detection(3, BOX, unit(2))]
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, [(3, dets)])
    records = [{"box": canonical_list([box.x, box.y, box.w, box.h]),
                "landmarks": [canonical_list(p) for p in keypoints(box)],
                "embedding": canonical_list(odd), "gt_label": "zoë"},
               {"box": canonical_list([100, 100, 96, 96]),
                "landmarks": [canonical_list(p) for p in keypoints(BOX)],
                "embedding": canonical_list(unit(2))}]
    line = json.dumps({"frame": 3, "detections": records}, separators=(",", ":"))
    assert path.read_text().splitlines()[1] == line

    # labels that JSON escapes (a quote, a backslash, a control character,
    # non-ASCII text), each spelled once per call and then repeated
    path = tmp_path / "r.jsonl"
    labels = ["zoë", 'say "hi"', "back\\slash", "tab\tbed", "zoë", UNKNOWN, 'say "hi"']
    sources = [SOURCE_REUSED, SOURCE_CLASSIFIED, SOURCE_OCCLUDED] * 3
    entries = tuple(FrameEntry(label, box, 1 / 3, source)
                    for label, source in zip(labels, sources))
    write_results([FrameResult(9, entries), FrameResult(10, entries[::-1])], path)
    lines = [json.dumps({"frame": frame, "entries": [{
        "label": e.label, "box": canonical_list([box.x, box.y, box.w, box.h]),
        "distance": canonical_float(1 / 3), "source": e.source} for e in frame_entries]},
        separators=(",", ":")) for frame, frame_entries in ((9, entries), (10, entries[::-1]))]
    assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)


def test_write_results_spells_each_distance_as_float_text(tmp_path):
    # 0.0 and -0.0 are one dict key but spell differently; repeats of a
    # distance, in either order around a zero and under any source, spell
    # as their first time
    distances = [0.0, -0.0, 0.0, 1 / 3, -0.0, 1 / 3, 0.1 + 0.2, 1e-12, np.float64(1 / 3),
                 0.30000000000000004, 2.0, -0.0, 2.0, 1e-12, 0.0, 1 / 3]
    sources = [SOURCE_REUSED, SOURCE_OCCLUDED] * 7 + [SOURCE_CLASSIFIED] * 2
    entries = [FrameEntry("p01", BOX, d, source) for d, source in zip(distances, sources)]
    path = tmp_path / "r.jsonl"
    write_results([FrameResult(0, tuple(entries[:7])), FrameResult(1, tuple(entries[7:]))], path)
    spelled = [re.search(r'"distance":([^,]*),', e).group(1)
               for line in path.read_text().splitlines()
               for e in line.split('{"label"')[1:]]
    assert spelled == [float_text(d) for d in distances]
    assert spelled[:3] == ["0.0", "-0.0", "0.0"]


# ------------------------------------------------------- detection streams


def sample_frames(rng):
    return [
        (0, [Detection(0, BOX, unit(0), gt_label="alice"),
             Detection(0, BoundingBox(400.0, 100.0, 80.0, 90.0), unit(1))]),
        (1, []),  # a frame with no detections is a real record
        (2, [Detection(2, BOX, rand_unit(rng), gt_label="bob")]),
    ]


def test_stream_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    frames = sample_frames(rng)
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, frames)
    header, got = read_stream(path)
    assert header == HEADER
    assert [f for f, _ in got] == [0, 1, 2]
    d0, d1 = got[0][1]
    assert (d0.box, d0.gt_label) == (BOX, "alice")
    assert d1.gt_label is None
    assert got[1][1] == []
    for (_, orig), (_, back) in zip(frames, got):
        for a, b in zip(orig, back):
            assert np.linalg.norm(a.embedding - b.embedding) < 1e-6
            assert abs(np.linalg.norm(b.embedding) - 1.0) < 1e-9


def test_stream_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    frames = sample_frames(rng)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_stream(p1, HEADER, frames)
    write_stream(p2, HEADER, frames)
    assert p1.read_bytes() == p2.read_bytes()


def assert_refused_in_the_readers_words(tmp_path, bad_box, words, edit):
    """write_stream refuses a stream holding `bad_box` at frame 66, in its
    second 64-frame chunk, with `words`, naming the frame; it leaves no new
    file and keeps an existing one. The reader refuses the stream the writer
    would have spelled, made here by `edit` on a written one, in the same
    words."""
    frames = [(f, [Detection(f, BOX, unit(0))]) for f in range(70)]
    frames[66][1].append(Detection(66, bad_box, unit(1)))
    kept = tmp_path / "kept.jsonl"
    kept.write_text("an earlier file\n")
    for path in (tmp_path / "new.jsonl", kept):
        with pytest.raises(ValueError) as exc:
            write_stream(path, HEADER, frames)
        assert str(exc.value) == f"frame 66: {words}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl"]
    assert kept.read_text() == "an earlier file\n"

    path = stream_with_line_3(tmp_path, edit)
    with pytest.raises(ParseError, match=f"^line 3: bad detection record: {re.escape(words)}$"):
        read_stream(path)


def test_write_stream_refuses_a_nan_box_coordinate(tmp_path):
    words = "box must be finite: non-finite value in [nan, 100.0, 96.0, 96.0]"
    assert_refused_in_the_readers_words(
        tmp_path, BoundingBox(math.nan, 100.0, 96.0, 96.0), words,
        lambda det: det["box"].__setitem__(0, math.nan))


def test_write_stream_refuses_a_box_past_the_float32_range(tmp_path):
    # finite in float64, Infinity in the float32 that the file stores
    words = "box must be finite: non-finite value in [inf, 100.0, 96.0, 96.0]"
    assert_refused_in_the_readers_words(
        tmp_path, BoundingBox(1e39, 100.0, 96.0, 96.0), words,
        lambda det: det["box"].__setitem__(0, math.inf))


def test_write_stream_refuses_keypoints_past_the_float32_range(tmp_path):
    # x and w are finite float32 values, x + 0.30 * w is not
    box = BoundingBox(3e38, 100.0, 3e38, 96.0)
    assert canonical_list([box.x, box.w]) == [3.00000001e38] * 2
    words = "landmark point must be finite: non-finite value in [inf, 138.399994]"
    assert_refused_in_the_readers_words(
        tmp_path, box, words,
        lambda det: det["landmarks"].__setitem__(0, [math.inf, 138.399994]))


def test_write_stream_refuses_a_width_that_narrows_to_zero(tmp_path):
    # positive in float64, 0.0 in the float32 that the file stores
    words = "box width/height must be positive: 0.0x96.0"
    assert_refused_in_the_readers_words(
        tmp_path, BoundingBox(100.0, 100.0, 1e-50, 96.0), words,
        lambda det: det["box"].__setitem__(2, 0.0))


def assert_detection_refused_in_the_readers_words(tmp_path, bad, words, edit):
    """write_stream refuses a stream holding the detection `bad` at frame
    66, with the reader's `words` naming the frame, and leaves no new file
    and keeps an existing one; the reader refuses the stream that `edit`
    makes of a written one with the same words, at its line."""
    frames = [(f, [Detection(f, BOX, unit(0), "alice")]) for f in range(70)]
    frames[66][1].append(bad)
    kept = tmp_path / "kept.jsonl"
    kept.write_text("an earlier file\n")
    for path in (tmp_path / "new.jsonl", kept):
        with pytest.raises(ValueError) as exc:
            write_stream(path, HEADER, frames)
        assert str(exc.value) == f"frame 66: {words}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl"]
    assert kept.read_text() == "an earlier file\n"

    path = stream_with_line_3(tmp_path, edit)
    with pytest.raises(ParseError) as exc:
        read_stream(path)
    assert str(exc.value) == f"line 3: {words}"


@pytest.mark.parametrize("value, spelled", [
    (math.nan, math.nan),
    (1e39, math.inf),       # finite in float64, Infinity in float32
    (-1e39, -math.inf),
])
def test_write_stream_refuses_a_non_finite_embedding(tmp_path, value, spelled):
    embedding = unit(1)
    embedding[3] = value
    assert_detection_refused_in_the_readers_words(
        tmp_path, Detection(66, BOX, embedding), "non-finite embedding",
        lambda det: det["embedding"].__setitem__(3, spelled))


@pytest.mark.parametrize("embedding", [np.zeros(DIM), np.full(DIM, 1e-50)])
def test_write_stream_refuses_a_zero_embedding(tmp_path, embedding):
    # 1e-50 is not zero in float64, but 0.0 in the float32 the file stores
    assert_detection_refused_in_the_readers_words(
        tmp_path, Detection(66, BOX, embedding), "zero embedding",
        lambda det: det.__setitem__("embedding", [0.0] * DIM))


@pytest.mark.parametrize("others, width, frame", [
    (DIM, DIM - 1, 66),  # one row of another width: a ragged chunk
    (DIM, DIM + 1, 66),
    (3, 3, 0),           # every row of a width the header does not declare
])
def test_write_stream_refuses_an_embedding_of_another_width(tmp_path, others, width, frame):
    frames = [(f, [Detection(f, BOX, np.ones(others) / others ** 0.5)]) for f in range(70)]
    frames[66][1].append(Detection(66, BOX, np.ones(width) / width ** 0.5))
    with pytest.raises(ValueError) as exc:
        write_stream(tmp_path / "s.jsonl", HEADER, frames)
    assert str(exc.value) == f"frame {frame}: embedding has dim ({width},), header says {DIM}"
    assert not (tmp_path / "s.jsonl").exists()
    path = stream_with_line_3(tmp_path, lambda det: det.__setitem__(
        "embedding", [0.5] * width))
    with pytest.raises(ParseError, match=re.escape(
            f"line 3: embedding has dim ({width},), header says {DIM}")):
        read_stream(path)


@pytest.mark.parametrize("gt_label", [5, True, ["alice"]])
def test_write_stream_refuses_a_gt_label_that_is_not_a_string(tmp_path, gt_label):
    assert_detection_refused_in_the_readers_words(
        tmp_path, Detection(66, BOX, unit(1), gt_label),
        f"bad detection record: gt_label must be a JSON string: {gt_label!r}",
        lambda det: det.__setitem__("gt_label", gt_label))


def test_write_stream_screen_passes_what_the_reader_reads(tmp_path):
    # a subnormal float32 row is not zero, and a string subclass label is a
    # JSON string: both are written and read back
    tiny = np.zeros(DIM)
    tiny[2] = 1e-45
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, [(0, [Detection(0, BOX, tiny, np.str_("bob"))]), (1, [])])
    with pytest.warns(UserWarning, match="re-normalizing"):
        _, [(_, [d]), (_, [])] = read_stream(path)
    assert d.gt_label == "bob" and d.embedding[2] == 1.0


def test_stream_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ParseError, match="empty stream"):
        read_stream(path)


def test_stream_bad_json_mid_file_reports_line(tmp_path):
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, [(0, [Detection(0, BOX, unit(0))])])
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(1, "this is not json\n")
    path.write_text("".join(lines))
    with pytest.raises(ParseError, match="line 2") as exc:
        read_stream(path)
    assert exc.value.line_number == 2


def test_stream_unsupported_version(tmp_path):
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, [])
    doc = json.loads(path.read_text().splitlines()[0])
    assert doc["version"] == STREAM_VERSION
    with pytest.raises(TypeError):  # so the writer writes no version its reader refuses
        StreamHeader(30.0, 1920, 1080, DIM, version=2)
    doc["version"] = 99
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(UnsupportedVersion):
        read_stream(path)


def test_stream_missing_header_field(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"version":1,"fps":30.0}\n')
    with pytest.raises(ParseError, match="line 1"):
        read_stream(path)


def test_stream_header_must_be_first(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"frame":0,"detections":[]}\n')
    with pytest.raises(ParseError, match="header"):
        read_stream(path)


def test_stream_dim_mismatch_reports_line(tmp_path):
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, [(0, [Detection(0, BOX, unit(0))])])
    bad = {"frame": 1, "detections": [
        {"box": [0.0, 0.0, 10.0, 10.0], "embedding": [1.0, 0.0]}]}
    with open(path, "a") as fh:
        fh.write(json.dumps(bad) + "\n")
    with pytest.raises(ParseError, match="line 3"):
        read_stream(path)


def test_stream_zero_embedding_rejected(tmp_path):
    path = tmp_path / "s.jsonl"
    rec = {"frame": 0, "detections": [
        {"box": [0.0, 0.0, 10.0, 10.0], "embedding": [0.0] * DIM}]}
    header = {"version": 1, "fps": 30.0, "frame_width": 1920,
              "frame_height": 1080, "embedding_dim": DIM}
    path.write_text(json.dumps(header) + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(ParseError, match="zero embedding"):
        read_stream(path)


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), -float("inf"), 0.0, -30.0])
def test_stream_header_fps_must_be_positive(tmp_path, fps):
    path = tmp_path / "s.jsonl"
    header = {"version": 1, "fps": fps, "frame_width": 1920,
              "frame_height": 1080, "embedding_dim": DIM}
    path.write_text(json.dumps(header) + "\n")
    rule = "positive" if math.isfinite(fps) else "finite"
    with pytest.raises(ParseError, match=f"line 1: .*fps must be {rule}") as exc:
        read_stream(path)
    assert exc.value.line_number == 1


BAD_SIZES = [0, -1080, 1.5, 1920.0, True, "1920", None]


@pytest.mark.parametrize("key", ["frame_width", "frame_height", "embedding_dim"])
@pytest.mark.parametrize("bad", BAD_SIZES)
def test_stream_header_sizes_must_be_positive_integers(tmp_path, key, bad):
    path = tmp_path / "s.jsonl"
    header = {"version": 1, "fps": 30.0, "frame_width": 1920,
              "frame_height": 1080, "embedding_dim": DIM}
    header[key] = bad
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ParseError, match=f"line 1: .*{key} must be an integer >= 1") as exc:
        read_stream(path)
    assert exc.value.line_number == 1
    del header["version"]  # a file's key, not a StreamHeader field
    with pytest.raises(ValueError, match=key):
        StreamHeader(**header)


def test_stream_header_size_of_one_accepted(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"version":1,"fps":30.0,"frame_width":1,"frame_height":1,'
                    '"embedding_dim":1}\n{"frame":0,"detections":[]}\n')
    header, frames = read_stream(path)
    assert (header.frame_width, header.frame_height, header.embedding_dim) == (1, 1, 1)
    assert frames == [(0, [])]


def stream_with_line_3(tmp_path, edit):
    """A three-frame stream whose third line's detection `edit` changed."""
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, [(f, [Detection(f, BOX, unit(0))]) for f in range(3)])
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[2])
    edit(rec["detections"][0])
    lines[2] = json.dumps(rec) + "\n"
    path.write_text("".join(lines))
    return path


@pytest.mark.parametrize("field, index", [
    ("embedding", 3), ("box", 0), ("box", 2), ("landmarks", 4)])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_stream_non_finite_value_rejected_with_line(tmp_path, field, index, bad):
    def edit(det):
        if field == "landmarks":
            det["landmarks"][index // 2][index % 2] = bad
        else:
            det[field][index] = bad
    path = stream_with_line_3(tmp_path, edit)
    with pytest.raises(ParseError, match="line 3: .*non-finite") as exc:
        read_stream(path)
    assert exc.value.line_number == 3


@pytest.mark.parametrize("field, value", [
    ("box", ["1", "2", "3", "4"]),
    ("box", [True, 2, 3, 4]),
    ("box", [1.0, 2.0, None, 4.0]),
    ("box", [1.0, 2.0, 3.0]),
    ("box", [1.0, 2.0, 3.0, 4.0, 5.0]),
    ("box", "1234"),
    ("box", {"x": 1.0, "y": 2.0, "w": 3.0, "h": 4.0}),
    ("box", [1.0, 2.0, 3.0, 10 ** 400]),
    ("landmarks", [[1.0, 2.0, 3.0]] * 5),
    ("landmarks", [[1.0]] * 5),
    ("landmarks", [["1", 2.0]] * 5),
    ("landmarks", [[1.0, False]] * 5),
    ("landmarks", ["12"] * 5),
    ("landmarks", [[1.0, 2.0]] * 4),
])
def test_stream_box_and_landmarks_must_be_json_numbers(tmp_path, field, value):
    path = stream_with_line_3(tmp_path, lambda det: det.update({field: value}))
    with pytest.raises(ParseError, match=f"^line 3: bad detection record: .*{field[:8]}") \
            as exc:
        read_stream(path)
    assert exc.value.line_number == 3


def test_stream_integer_box_and_landmarks_load_as_floats(tmp_path):
    path = stream_with_line_3(tmp_path, lambda det: det.update(
        box=[100, 100, 96, 96], landmarks=[[2 * i + 1, 2 * i + 2] for i in range(5)]))
    box = read_stream(path)[1][1][1][0].box  # line 3 is frame 1
    assert box == BOX
    assert {type(v) for v in (box.x, box.y, box.w, box.h)} == {float}


def test_write_stream_spells_box_keypoints_and_the_reader_drops_landmarks(tmp_path):
    """write_stream spells each box's five keypoints as its landmarks. The
    reader checks landmarks and drops them: a stream reads as the same
    detections with them absent, as written, or as other valid points."""
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, sample_frames(np.random.default_rng(29)))
    header, *lines = path.read_text().splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    dets = [det for rec in records for det in rec["detections"]]
    assert [det["landmarks"] for det in dets] == [
        [canonical_list(p) for p in keypoints(BoundingBox(*det["box"]))] for det in dets]

    def read_with(edit):
        for det in dets:
            edit(det)
        path.write_text(header + "".join(json.dumps(rec) + "\n" for rec in records))
        return [(d.frame, d.box, d.embedding.tolist(), d.gt_label)
                for _, frame in read_stream(path)[1] for d in frame]

    as_written = read_with(lambda det: None)
    assert len(as_written) == 3
    other = [[-1e6, 0], [2.5, 7], [0, -0.0], [3, -4], [1e30, 1e-30]]
    assert read_with(lambda det: det.update(landmarks=other)) == as_written
    assert read_with(lambda det: det.pop("landmarks")) == as_written
    for count in (4, 6):
        records[0]["detections"][0]["landmarks"] = [[1.0, 2.0]] * count
        with pytest.raises(ParseError, match="^line 2: bad detection record: "
                           f"expected 5 landmark points, got {count}$"):
            read_with(lambda det: None)


def test_stream_integer_past_float_range_in_embedding_rejected(tmp_path):
    path = stream_with_line_3(
        tmp_path, lambda det: det["embedding"].__setitem__(0, 10 ** 400))
    with pytest.raises(ParseError, match="^line 3: bad detection record") as exc:
        read_stream(path)
    assert exc.value.line_number == 3


# vectors numpy would read as text, null or bools; each replaces a unit(0)
NON_NUMBER_VECTORS = [
    pytest.param(["1.0"] + ["0.0"] * (DIM - 1), id="strings"),
    pytest.param(["1.0"] + [0.0] * (DIM - 1), id="one-string"),
    pytest.param([1.0, None] + [0.0] * (DIM - 2), id="null"),
    pytest.param([True] + [False] * (DIM - 1), id="bools"),
    pytest.param([True] + [0.0] * (DIM - 1), id="bool-among-floats"),
    pytest.param([2, True] + [0] * (DIM - 2), id="bool-among-ints"),
    pytest.param([10 ** 30, None] + [0.0] * (DIM - 2), id="big-int-and-null"),
    pytest.param([{"v": 1.0}] + [0.0] * (DIM - 1), id="object"),
]


@pytest.mark.parametrize("vector", NON_NUMBER_VECTORS)
def test_stream_embedding_values_must_be_json_numbers(tmp_path, vector):
    path = stream_with_line_3(tmp_path, lambda det: det.update(embedding=vector))
    with pytest.raises(ParseError, match="^line 3: bad detection record: embedding "
                                         "must hold only JSON numbers$") as exc:
        read_stream(path)
    assert exc.value.line_number == 3


def test_stream_nested_embedding_rejected(tmp_path):
    path = stream_with_line_3(tmp_path, lambda det: det.update(
        embedding=[[v] for v in det["embedding"]]))
    with pytest.raises(ParseError, match=r"^line 3: embedding has dim \(8, 1\)"):
        read_stream(path)


@pytest.mark.parametrize("vector, want", [
    ([0, 3, 0, 4, 0, 0, 0, 0], [0.0, 0.6, 0.0, 0.8, 0.0, 0.0, 0.0, 0.0]),
    ([2 ** 63, 0, 0, 0, 0, 0, 0, 0], unit(0)),  # past int64
    ([10 ** 30, 0, 0, 0, 0, 0, 0, 0], unit(0)),  # past uint64: numpy gives kind O
])
def test_stream_integer_embedding_values_load_as_floats(tmp_path, vector, want):
    path = stream_with_line_3(tmp_path, lambda det: det.update(embedding=vector))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the norm drifted far from 1
        det = read_stream(path)[1][1][1][0]  # line 3 is frame 1
    assert det.embedding.dtype == np.float64
    assert np.array_equal(det.embedding, want)


@pytest.mark.parametrize("fps", ["30", True, None, [30.0],
                                 pytest.param(10 ** 400, id="int-past-float-range")])
def test_stream_header_fps_must_be_a_json_number(tmp_path, fps):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps({"version": 1, "fps": fps, "frame_width": 1920,
                                "frame_height": 1080, "embedding_dim": DIM}) + "\n")
    with pytest.raises(ParseError, match="^line 1: bad stream header: fps must be") as exc:
        read_stream(path)
    assert exc.value.line_number == 1


def test_stream_header_integer_fps_loads_as_float(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"version":1,"fps":30,"frame_width":1920,"frame_height":1080,'
                    '"embedding_dim":8}\n')
    header, _ = read_stream(path)
    assert header.fps == 30.0 and type(header.fps) is float


def test_stream_truncated_final_line_dropped(tmp_path):
    # a writer killed mid-append leaves a partial last line; reading stops
    # cleanly at the last complete record
    path = tmp_path / "s.jsonl"
    frames = [(f, [Detection(f, BOX, unit(0))]) for f in range(3)]
    write_stream(path, HEADER, frames)
    with open(path, "a") as fh:
        fh.write('{"frame":3,"detections":[{"box":[1.0,')
    _, got = read_stream(path)
    assert [f for f, _ in got] == [0, 1, 2]


def test_stream_complete_final_line_without_newline_kept(tmp_path):
    # only unparseable tails are dropped; a complete record missing its
    # trailing newline still counts
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, [(0, [Detection(0, BOX, unit(0))])])
    text = path.read_text()
    rec = {"frame": 1, "detections": []}
    path.write_text(text + json.dumps(rec))  # no trailing \n
    _, got = read_stream(path)
    assert [f for f, _ in got] == [0, 1]


def test_stream_truncated_header_rejected(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"version":1,"fps"')  # no newline, bad JSON
    with pytest.raises(ParseError, match="truncated"):
        read_stream(path)


# frame indices that int() reads as 1: each used to load silently as frame 1
BAD_FRAMES = [True, 1.0, 1.5, "1", None]


def test_stream_out_of_order_frames_rejected(tmp_path):
    # write_stream refuses the second frame, so its line is written by hand
    path = tmp_path / "s.jsonl"
    for bad_second in (5, 3):
        write_stream(path, HEADER, [(5, [])])
        with open(path, "a") as fh:
            fh.write(json.dumps({"frame": bad_second, "detections": []}) + "\n")
        with pytest.raises(OutOfOrderFrame, match=f"frame {bad_second} after 5"):
            read_stream(path)


def test_stream_frame_gap_rejected_with_line(tmp_path):
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, [(0, [])])
    with open(path, "a") as fh:
        fh.write(json.dumps({"frame": 2, "detections": []}) + "\n")
    with pytest.raises(OutOfOrderFrame, match="^line 3: frame 2 after 0$"):
        read_stream(path)


@pytest.mark.parametrize("second, words", [
    (5, "frame 5 after 5"), (3, "frame 3 after 5"), (7, "frame 7 after 5"),
    *[(bad, f"frame must be a JSON integer: {bad!r}") for bad in BAD_FRAMES],
])
@pytest.mark.parametrize("writer", ["stream", "results"])
def test_writers_refuse_frames_their_reader_refuses(tmp_path, second, words, writer):
    path = tmp_path / "out.jsonl"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=f"^{re.escape(words)}$"):
        if writer == "stream":
            write_stream(path, HEADER, [(5, []), (second, [])])
        else:
            write_results([FrameResult(5, ()), FrameResult(second, ())], path)
    assert path.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


@pytest.mark.parametrize("bad", BAD_FRAMES)
def test_stream_frame_must_be_json_integer(tmp_path, bad):
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, [(0, [])])
    with open(path, "a") as fh:
        fh.write(json.dumps({"frame": bad, "detections": []}) + "\n")
    with pytest.raises(ParseError, match="^line 3: frame must be a JSON integer"):
        read_stream(path)


@pytest.mark.parametrize("bad", [5, [1, 2], None, {"name": "bob"}])
def test_stream_gt_label_must_be_json_string(tmp_path, bad):
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, [(0, [Detection(0, BOX, unit(0), gt_label="alice")])])
    rec = {"frame": 1, "detections": [
        {"box": [0.0, 0.0, 10.0, 10.0], "embedding": unit(1).tolist(), "gt_label": bad}]}
    with open(path, "a") as fh:
        fh.write(json.dumps(rec) + "\n")
    with pytest.raises(ParseError, match="^line 3: .*gt_label must be a JSON string"):
        read_stream(path)


def test_iter_stream_yields_what_read_stream_returns(tmp_path):
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, sample_frames(np.random.default_rng(5)))
    header, frames = iter_stream(path)
    listed_header, listed = read_stream(path)
    streamed = list(frames)
    assert header == listed_header
    assert [f for f, _ in streamed] == [f for f, _ in listed] == [0, 1, 2]
    for (_, a), (_, b) in zip(streamed, listed):
        assert [(d.box, d.gt_label) for d in a] == [(d.box, d.gt_label) for d in b]
        for da, db in zip(a, b):
            assert np.array_equal(da.embedding, db.embedding)


def test_iter_stream_checks_the_header_now_and_each_line_when_drawn(tmp_path):
    path = tmp_path / "s.jsonl"
    write_stream(path, HEADER, [(0, [Detection(0, BOX, unit(0))])])
    with open(path, "a") as fh:
        fh.write("this is not json\n")
    header, frames = iter_stream(path)  # the bad line is not read yet
    assert header == HEADER
    assert next(frames)[0] == 0
    with pytest.raises(ParseError, match="^line 3: bad JSON"):
        next(frames)

    path.write_text('{"frame":0,"detections":[]}\n')
    with pytest.raises(ParseError, match="^line 1: first line must be the stream header"):
        iter_stream(path)


def test_stream_norm_drift_warns_and_renormalizes(tmp_path):
    path = tmp_path / "s.jsonl"
    header = {"version": 1, "fps": 30.0, "frame_width": 1920,
              "frame_height": 1080, "embedding_dim": DIM}
    drifted = [2.0] + [0.0] * (DIM - 1)  # norm 2.0, way past tolerance
    rec = {"frame": 0, "detections": [
        {"box": [0.0, 0.0, 10.0, 10.0], "embedding": drifted}]}
    path.write_text(json.dumps(header) + "\n" + json.dumps(rec) + "\n")
    with pytest.warns(UserWarning, match="re-normalizing"):
        _, got = read_stream(path)
    emb = got[0][1][0].embedding
    assert abs(np.linalg.norm(emb) - 1.0) < 1e-12
    assert emb[0] == 1.0


def test_stream_small_drift_silently_normalized(tmp_path):
    # float32 narrowing drift (~1e-7) stays under the warning threshold
    rng = np.random.default_rng(4)
    path = tmp_path / "s.jsonl"
    frames = [(0, [Detection(0, BOX, rand_unit(rng)) for _ in range(5)])]
    write_stream(path, HEADER, frames)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, got = read_stream(path)
    assert len(got[0][1]) == 5


# ------------------------------------------------------- galleries


def small_gallery():
    return Gallery({"bob": np.array([unit(1), unit(2)]), "alice": np.array([unit(0)])},
                   {"bob": [30, 60], "alice": [0]}, method="kmeans", k=2, seed=7)


def test_gallery_round_trip(tmp_path):
    path = tmp_path / "g.json"
    g = small_gallery()
    write_gallery(g, path)
    back = read_gallery(path)
    assert back.labels == ("alice", "bob")
    assert back.method == "kmeans" and back.k == 2 and back.seed == 7
    assert {rows.shape[1] for rows in back.entries.values()} == {DIM}
    for label in g.labels:
        assert back.source_frames[label] == g.source_frames[label]
        assert np.linalg.norm(back.entries[label] - g.entries[label], axis=1).max() < 1e-6


def test_gallery_write_is_deterministic_and_label_sorted(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_gallery(small_gallery(), p1)
    write_gallery(small_gallery(), p2)
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert [e["label"] for e in doc["entries"]] == ["alice", "bob"]


def test_gallery_empty_write_refused(tmp_path):
    # no Gallery is empty, so there is none to write
    with pytest.raises(EmptyGallery, match="no prototypes"):
        write_gallery(Gallery({}, {}), tmp_path / "g.json")
    assert not (tmp_path / "g.json").exists()


def test_gallery_with_no_entries_is_refused_on_read(tmp_path):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    doc["entries"] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(EmptyGallery, match="no prototypes"):
        read_gallery(path)


@pytest.mark.parametrize("key, bad", [
    ("method", 5), ("method", "medoids"), ("method", None),
    ("k", "x"), ("k", True), ("k", 2.0), ("seed", [1]), ("seed", False), ("seed", 0.5)])
def test_gallery_metadata_is_checked_on_read(tmp_path, key, bad):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    doc[key] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=f"^bad gallery document: gallery {key} must be"):
        read_gallery(path)


def test_gallery_metadata_of_the_sampling_method_reads_back(tmp_path):
    path = tmp_path / "g.json"
    g = small_gallery()
    write_gallery(Gallery(g.entries, g.source_frames, method="sampling"), path)
    back = read_gallery(path)
    assert (back.method, back.k, back.seed) == ("sampling", None, None)
    assert json.loads(path.read_text())["k"] is None


def test_gallery_unsupported_version(tmp_path):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    doc["version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedVersion):
        read_gallery(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_gallery_non_finite_prototype_rejected(tmp_path, bad):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    doc["entries"][1]["prototypes"][0][2] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="non-finite"):
        read_gallery(path)


def test_gallery_frames_and_prototypes_must_pair_up(tmp_path):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    doc["entries"][1]["frames"].pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="bad gallery document"):
        read_gallery(path)


def test_gallery_errors_name_the_entry(tmp_path):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    doc["entries"][1]["frames"].pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="entry 'bob': 1 frames but 2 prototypes"):
        read_gallery(path)
    doc = json.loads(path.read_text())
    doc["entries"][1]["frames"].append(60)
    doc["entries"][1]["prototypes"][1] = [0.0] * DIM
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="entry 'bob': frame 60: .*zero or non-finite"):
        read_gallery(path)


def test_gallery_labels_must_be_unique(tmp_path):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    doc["entries"][1]["label"] = "alice"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="^bad gallery document: entry 'alice': duplicate label$"):
        read_gallery(path)


def test_gallery_ragged_entry_rejected(tmp_path):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    doc["entries"][1]["prototypes"][1].append(0.0)
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"entry 'bob': prototypes have mixed lengths \[8, 9\]"):
        read_gallery(path)


def test_gallery_mixed_widths_rejected(tmp_path):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    for vec in doc["entries"][1]["prototypes"]:
        del vec[6:]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="entry 'bob': prototypes have length 6, not 8"):
        read_gallery(path)


@pytest.mark.parametrize("bad", BAD_FRAMES)
def test_gallery_frames_must_be_json_integers(tmp_path, bad):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    doc["entries"][0]["frames"][0] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="entry 'alice': frames must be JSON integers"):
        read_gallery(path)


def test_gallery_prototypes_must_have_the_declared_width(tmp_path):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    doc["embedding_dim"] = 256
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="entry 'alice': prototypes have length 8, not 256"):
        read_gallery(path)


@pytest.mark.parametrize("bad", BAD_SIZES)
def test_gallery_embedding_dim_must_be_positive_integer(tmp_path, bad):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    doc["embedding_dim"] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="embedding_dim must be an integer >= 1"):
        read_gallery(path)


def test_gallery_bad_json(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_gallery(path)


# ------------------------------------------------------- tracks


def test_tracks_round_trip_sorted_by_label(tmp_path):
    rng = np.random.default_rng(5)
    tracks = [
        TrainingTrack("zoe", [(i, rand_unit(rng)) for i in range(4)], 30.0),
        TrainingTrack("amy", [(i * 2, rand_unit(rng)) for i in range(3)], 30.0),
    ]
    path = tmp_path / "t.json"
    write_tracks(tracks, path)
    back = read_tracks(path)
    assert [t.label for t in back] == ["amy", "zoe"]
    amy, zoe = back
    assert [f for f, _ in amy.samples] == [0, 2, 4]
    assert amy.fps == 30.0
    for (_, a), (_, b) in zip(tracks[0].samples, zoe.samples):
        assert np.linalg.norm(a - b) < 1e-6


def tracks_doc(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "t.json"
    write_tracks([TrainingTrack("amy", [(i, rand_unit(rng)) for i in range(8)],
                                30.0)], path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_tracks_fps_must_be_positive(tmp_path, fps):
    path, doc = tracks_doc(tmp_path)
    doc["tracks"][0]["fps"] = fps
    path.write_text(json.dumps(doc))
    rule = "positive" if math.isfinite(fps) else "finite"
    with pytest.raises(ParseError, match=f"^bad tracks document: track 'amy': fps must be {rule}"):
        read_tracks(path)


@pytest.mark.parametrize("fps", ["30", False, None, [30.0]])
def test_tracks_fps_must_be_a_json_number(tmp_path, fps):
    path, doc = tracks_doc(tmp_path)
    doc["tracks"][0]["fps"] = fps
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="^bad tracks document: track 'amy': fps must be "
                                         "a JSON number"):
        read_tracks(path)


def test_tracks_integer_fps_loads_as_float(tmp_path):
    path, doc = tracks_doc(tmp_path)
    doc["tracks"][0]["fps"] = 30
    path.write_text(json.dumps(doc))
    [track] = read_tracks(path)
    assert track.fps == 30.0 and type(track.fps) is float


def test_tracks_integer_past_float_range_in_embedding_rejected(tmp_path):
    path, doc = tracks_doc(tmp_path)
    doc["tracks"][0]["embeddings"][5][0] = 10 ** 400
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="^bad tracks document: track 'amy': "):
        read_tracks(path)


@pytest.mark.parametrize("vector", NON_NUMBER_VECTORS)
def test_tracks_embedding_values_must_be_json_numbers(tmp_path, vector):
    path, doc = tracks_doc(tmp_path)
    doc["tracks"][0]["embeddings"][5] = vector
    if all(type(v) is bool for v in vector):
        doc["tracks"][0]["embeddings"] = [vector] * 8  # a mix reads as floats
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="^bad tracks document: track 'amy': "
                                         "embeddings must hold only JSON numbers$"):
        read_tracks(path)


def test_tracks_integer_embedding_values_load_as_floats(tmp_path):
    path, doc = tracks_doc(tmp_path)
    doc["tracks"][0]["embeddings"] = [[0] * i + [3, 4] + [0] * (DIM - 2 - i)
                                      for i in range(7)] + [[10 ** 30] + [0] * (DIM - 1)]
    doc["tracks"][0]["frames"] = list(range(8))
    path.write_text(json.dumps(doc))
    [track] = read_tracks(path)
    got = np.array([vec for _, vec in track.samples])
    assert got.dtype == np.float64
    assert np.array_equal(got[:7], [[0.0] * i + [0.6, 0.8] + [0.0] * (DIM - 2 - i)
                                    for i in range(7)])
    assert np.array_equal(got[7], unit(0))


@pytest.mark.parametrize("vector", NON_NUMBER_VECTORS)
def test_gallery_prototype_values_must_be_json_numbers(tmp_path, vector):
    path = tmp_path / "g.json"
    write_gallery(small_gallery(), path)
    doc = json.loads(path.read_text())
    doc["entries"][1]["prototypes"][1] = vector
    if all(type(v) is bool for v in vector):
        doc["entries"][1]["prototypes"][0] = vector  # a mix reads as floats
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="^bad gallery document: entry 'bob': "
                                         "prototypes must hold only JSON numbers$"):
        read_gallery(path)


def test_tracks_non_finite_embedding_rejected(tmp_path):
    path, doc = tracks_doc(tmp_path)
    doc["tracks"][0]["embeddings"][5][0] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="non-finite"):
        read_tracks(path)


def test_tracks_frames_and_embeddings_must_pair_up(tmp_path):
    path, doc = tracks_doc(tmp_path)
    del doc["tracks"][0]["frames"][:5]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="bad tracks document"):
        read_tracks(path)


def test_tracks_errors_name_the_track(tmp_path):
    path, doc = tracks_doc(tmp_path)
    del doc["tracks"][0]["frames"][:5]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="track 'amy': 3 frames but 8 embeddings"):
        read_tracks(path)
    path, doc = tracks_doc(tmp_path)
    doc["tracks"][0]["embeddings"][5][0] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="track 'amy': frame 5: .*non-finite"):
        read_tracks(path)


def test_tracks_labels_must_be_unique(tmp_path):
    path, doc = tracks_doc(tmp_path)
    doc["tracks"].append(dict(doc["tracks"][0]))
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="^bad tracks document: track 'amy': duplicate label$"):
        read_tracks(path)


def test_write_tracks_refuses_a_repeated_label(tmp_path):
    rng = np.random.default_rng(9)
    tracks = [TrainingTrack("amy", [(i, rand_unit(rng)) for i in range(3)], 30.0)
              for _ in range(2)]
    with pytest.raises(ValueError, match="^track 'amy': duplicate label$"):
        write_tracks(tracks, tmp_path / "t.json")
    assert not (tmp_path / "t.json").exists()


def test_tracks_ragged_track_rejected(tmp_path):
    path, doc = tracks_doc(tmp_path)
    doc["tracks"][0]["embeddings"][3].pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=r"track 'amy': embeddings have mixed lengths \[7, 8\]"):
        read_tracks(path)


def test_tracks_mixed_widths_rejected(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "t.json"
    tracks = [
        TrainingTrack("amy", [(i, rand_unit(rng)) for i in range(3)], 30.0),
        TrainingTrack("bob", [(i, l2_normalize(rng.normal(size=2 * DIM)))
                              for i in range(3)], 30.0),
    ]
    message = "track 'bob': embeddings have length 16, not 8"
    with pytest.raises(ValueError, match=message):
        write_tracks(tracks, path)
    path.write_text(json.dumps({"version": 1, "tracks": [
        {"label": t.label, "fps": t.fps, "frames": [f for f, _ in t.samples],
         "embeddings": [e.tolist() for _, e in t.samples]} for t in tracks]}))
    with pytest.raises(ParseError, match=message):
        read_tracks(path)


@pytest.mark.parametrize("bad", BAD_FRAMES)
def test_tracks_frames_must_be_json_integers(tmp_path, bad):
    path, doc = tracks_doc(tmp_path)
    doc["tracks"][0]["frames"][1] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="track 'amy': frames must be JSON integers"):
        read_tracks(path)


def test_tracks_non_vector_embeddings_rejected(tmp_path):
    path, doc = tracks_doc(tmp_path)
    doc["tracks"][0]["embeddings"] = [[[1.0, 0.0]]] * 8
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="track 'amy': embeddings must be vectors"):
        read_tracks(path)


def test_tracks_read_as_written_bit_for_bit(tmp_path):
    """One matrix per track, normalized row by row, gives the bits of one
    l2_normalize per vector."""
    rng = np.random.default_rng(8)
    path = tmp_path / "t.json"
    tracks = [TrainingTrack(f"p{i}", [(f, rand_unit(rng)) for f in range(40)], 30.0)
              for i in range(3)]
    write_tracks(tracks, path)
    doc = json.loads(path.read_text())
    back = read_tracks(path)
    for rec, track in zip(doc["tracks"], back):
        for vec, (_, got) in zip(rec["embeddings"], track.samples):
            want = l2_normalize(np.asarray(vec, dtype=np.float64))
            assert np.array_equal(want.view(np.uint64), got.view(np.uint64))


def test_long_tracks_read_bit_for_bit_and_bad_rows_named_past_64(tmp_path):
    """A track is normalized 64 rows at a time: past the first 64 rows the
    bits still equal one l2_normalize per vector, and a bad row is named by
    its own frame."""
    rng = np.random.default_rng(19)
    path = tmp_path / "t.json"
    write_tracks([TrainingTrack("amy", [(3 * f, rand_unit(rng)) for f in range(200)], 30.0)],
                 path)
    doc = json.loads(path.read_text())
    [back] = read_tracks(path)
    for vec, (_, got) in zip(doc["tracks"][0]["embeddings"], back.samples):
        want = l2_normalize(np.asarray(vec, dtype=np.float64))
        assert np.array_equal(want.view(np.uint64), got.view(np.uint64))
    doc["tracks"][0]["embeddings"][150] = [0.0] * DIM
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="^bad tracks document: track 'amy': frame 450: "):
        read_tracks(path)


def test_write_tracks_holds_one_track_matrix_at_a_time(tmp_path):
    """write_tracks checks each track's float32 matrix and lets it go before
    it stacks the next: writing four equal tracks peaks less than one
    float32 track above writing one of them."""
    rng = np.random.default_rng(23)
    n, dim = 1000, 128
    vectors = rng.normal(size=(n, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    tracks = [TrainingTrack(f"p{i}", list(enumerate(vectors)), 30.0) for i in range(4)]

    def peak(written):
        write_tracks(written, tmp_path / "warm.json")  # one-time allocations first
        gc.collect()
        tracemalloc.start()
        try:
            write_tracks(written, tmp_path / "t.json")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(tracks) - peak(tracks[:1]) < n * dim * 4


def test_tracks_unsupported_version(tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"version":9,"tracks":[]}')
    with pytest.raises(UnsupportedVersion):
        read_tracks(path)


# ------------------------------------------------------- writers over readers

# labels and frame converters, each with whether a reader takes what it gives
ROUND_TRIP_LABELS = [("p01", True), ("Zo\u00eb", True), ('say "hi"\\n', True),
                     (np.str_("p02"), True), (5, False), (None, False),
                     (True, False), (1.5, False), (("p01",), False),
                     (b"p01", False), ("", False), (UNKNOWN, False)]
ROUND_TRIP_FRAMES = [(int, True), (np.int64, True), (np.int32, True),
                     (lambda f: f + 0.5, False), (float, False),
                     (np.float64, False), (str, False), (lambda f: [f], False)]


def build(label, frames):
    """A gallery and a track of unit vectors at label and frames: the
    constructors either accept both or raise ValueError."""
    rng = np.random.default_rng(len(frames))
    samples = [(f, rand_unit(rng)) for f in frames]
    return (Gallery({label: np.array([v for _, v in samples])}, {label: frames}),
            TrainingTrack(label, samples, 30.0))


def assert_read_back(tmp_path, gallery, track):
    """Both written and read back with the same label, frames and vectors."""
    write_gallery(gallery, tmp_path / "g.json")
    write_tracks([track], tmp_path / "t.json")
    gallery = read_gallery(tmp_path / "g.json")
    [label] = gallery.labels
    [back] = read_tracks(tmp_path / "t.json")
    for got_label, got in ((label, list(zip(gallery.source_frames[label], gallery.entries[label]))),
                           (back.label, back.samples)):
        assert got_label == track.label and type(got_label) is str
        assert [f for f, _ in got] == [f for f, _ in track.samples]
        assert {type(f) for f, _ in got} == {int}
        assert np.allclose([v for _, v in got], [v for _, v in track.samples], atol=1e-6)


def test_writers_write_only_what_their_readers_read_back(tmp_path):
    """Whatever Gallery and TrainingTrack accept, write_gallery and
    write_tracks write, and the readers read back equal. Any other label or
    frame is a ValueError when the object is built."""
    for label, frames in ((5, [0]), ("p01", [0.5, 1.5])):
        with pytest.raises(ValueError):
            build(label, frames)
    rng = np.random.default_rng(1616)
    outcomes = set()
    for _ in range(300):
        label, label_ok = ROUND_TRIP_LABELS[rng.integers(len(ROUND_TRIP_LABELS))]
        frames = sorted(rng.choice(1000, size=int(rng.integers(1, 5)), replace=False))
        convert, frames_ok = ROUND_TRIP_FRAMES[rng.integers(len(ROUND_TRIP_FRAMES))]
        frames = [convert(int(f)) for f in frames]
        if label_ok and frames_ok:
            assert_read_back(tmp_path, *build(label, frames))
        else:
            with pytest.raises(ValueError):
                build(label, frames)
        outcomes.add((label_ok, frames_ok))
    assert len(outcomes) == 4



# vectors each reader refuses, with the words it refuses them in
REFUSED_VECTORS = [
    ({"p": [[math.nan, 1.0]]}, "'p': frame 0: cannot normalize a zero or non-finite vector"),
    ({"p": [[1.0, 0.0], [0.0, 0.0]]}, "'p': frame 1: cannot normalize a zero"),
    ({"p": [[math.inf, 0.0]]}, "'p': frame 0: cannot normalize"),
    ({"p": [[1e-50, 0.0]]}, "'p': frame 0: cannot normalize"),  # 0.0 as float32
    ({"p": [[1e39, 1.0]]}, "'p': frame 0: cannot normalize"),   # Infinity as float32
    ({"a": [[1.0, 0.0]], "b": [[1.0, 0.0, 0.0]]}, "'b': {vectors} have length 3, not 2"),
    ({"a": [[1.0, 0.0], [1.0, 0.0, 0.0]]}, "'a': {vectors} have mixed lengths \\[2, 3\\]"),
    ({"a": [[[1.0, 0.0]]]}, "'a': {vectors} must be vectors of numbers"),
]


def written_objects(vectors):
    """A gallery and tracks holding `vectors` ({label: [vector]}), each
    vector's frame its index. The gallery is None where its constructor
    refuses the vectors' shapes: one width per gallery, one matrix per
    label."""
    samples = {label: [(f, np.asarray(v, dtype=np.float64)) for f, v in enumerate(vs)]
               for label, vs in vectors.items()}
    try:
        gallery = Gallery({label: np.array([v for _, v in ss]) for label, ss in samples.items()},
                          {label: [f for f, _ in ss] for label, ss in samples.items()})
    except (ValueError, DimensionMismatch):
        gallery = None
    return gallery, [TrainingTrack(label, ss, 30.0) for label, ss in samples.items()]


@pytest.mark.parametrize("vectors, message", REFUSED_VECTORS, ids=[
    "nan", "zero", "inf", "float32-zero", "float32-inf", "widths-across-labels",
    "widths-within-a-label", "not-1-d"])
def test_writers_refuse_vectors_before_opening_the_file(tmp_path, vectors, message):
    gallery, tracks = written_objects(vectors)
    writers = [(write_tracks, tracks, ("track", "embeddings"))]
    # widths and shapes that no Gallery holds reach only write_tracks
    assert (gallery is None) == ("{vectors}" in message)
    if gallery is not None:
        writers.insert(0, (write_gallery, gallery, ("entry", "prototypes")))
    for write, obj, words in writers:
        kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
        kept.write_text("an earlier file")
        match = f"^{words[0]} " + message.format(vectors=words[1])
        with pytest.raises(ValueError, match=match):
            write(obj, kept)
        with pytest.raises(ValueError, match=match):
            write(obj, absent)
        assert kept.read_text() == "an earlier file"
        assert not absent.exists()


@pytest.mark.parametrize("kind", ["gallery", "tracks"])
def test_writer_failing_mid_file_keeps_the_earlier_file(tmp_path, monkeypatch, kind):
    """A write that fails after its first 64 vectors are spelled leaves the
    file that was at the path, byte for byte, and no temporary file."""
    rows = [unit(i % DIM) for i in range(65)]
    gallery, tracks = written_objects({"alice": rows})
    write, obj = {"gallery": (write_gallery, gallery), "tracks": (write_tracks, tracks)}[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text("an earlier file")
    calls = []

    def failing(vectors):
        calls.append(len(vectors))
        if len(calls) == 2:
            raise OSError("disk full")
        return float_arrays(vectors)

    monkeypatch.setattr(stream_io, "float_arrays", failing)
    with pytest.raises(OSError, match="disk full"):
        write(obj, path)
    assert calls == [64, 1]
    assert path.read_text() == "an earlier file"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_writers_write_through_a_symbolic_link_and_keep_the_mode(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("an earlier file")
    target.chmod(0o600)
    link.symlink_to(target.name)
    write_score_csv(AccuracyReport({"bob": 1.0}, 1.0, 0.0, 0.0), link)
    assert link.is_symlink()
    assert target.read_text() == "label,present_frames_accuracy\nbob,1\nAverage,1\n"
    assert target.stat().st_mode & 0o777 == 0o600


def test_writers_write_only_vectors_their_readers_read_back(tmp_path):
    """A seeded sweep of widths and values: write_gallery and write_tracks
    either write a file that their readers read back, or refuse, with the
    reader's words, exactly what the reader refuses in a document of the
    same float32 values."""
    rng = np.random.default_rng(1717)
    values = [0.0, math.nan, math.inf, -math.inf, 1e-50, 1e39]
    written, reasons = 0, set()
    for _ in range(200):
        vectors = {}
        for label in ("a", "b", "c")[:int(rng.integers(1, 4))]:
            width = 3 if rng.random() < 0.9 else 2
            rows = rng.normal(size=(int(rng.integers(1, 4)), width))
            for _ in range(int(rng.integers(0, 3))):
                rows[rng.integers(len(rows)), rng.integers(width)] = values[rng.integers(6)]
            if rng.random() < 0.2:
                rows[rng.integers(len(rows))] = 0.0
            vectors[label] = list(rows)
        gallery, tracks = written_objects(vectors)
        with np.errstate(over="ignore"):  # past the float32 range is Infinity
            narrowed = {label: [[canonical_float(x) for x in np.float32(v).tolist()]
                                for v in vs] for label, vs in vectors.items()}
        frames = {label: list(range(len(vs))) for label, vs in vectors.items()}
        for kind, write, read, obj, doc in (
                ("gallery", write_gallery, read_gallery, gallery, {
                    "version": 1, "method": "kmeans", "k": None, "seed": None,
                    "embedding_dim": len(next(iter(vectors.values()))[0]),
                    "entries": [{"label": label, "frames": frames[label], "prototypes": vs}
                                for label, vs in narrowed.items()]}),
                ("tracks", write_tracks, read_tracks, tracks, {
                    "version": 1,
                    "tracks": [{"label": label, "fps": 30.0, "frames": frames[label],
                                "embeddings": vs} for label, vs in narrowed.items()]})):
            path, by_hand = tmp_path / f"{kind}.json", tmp_path / f"{kind}.by_hand.json"
            path.unlink(missing_ok=True)
            by_hand.write_text(json.dumps(doc))
            if obj is None:  # mixed widths: no Gallery holds them, nor reads them
                with pytest.raises(ParseError) as refusal:
                    read(by_hand)
                reasons.add(str(refusal.value).split(": ", 2)[2].split(" ")[0])
                continue
            try:
                write(obj, path)
            except ValueError as exc:
                assert not path.exists()
                with pytest.raises(ParseError) as refusal:
                    read(by_hand)
                assert str(refusal.value) == f"bad {kind} document: {exc}"
                reasons.add(str(exc).split(": ", 1)[1].split(" ")[0])
            else:
                read(path)
                read(by_hand)
                written += 1
    # refused both for a bad value (named by frame) and for a width
    assert written > 50 and reasons == {"frame", "embeddings", "prototypes"}

# ------------------------------------------------------- truth


def test_truth_round_trip(tmp_path):
    stream = GroundTruthStream(
        fps=29.97, frame_width=1280, frame_height=720, embedding_dim=DIM,
        frames=[(0, []), (1, [])],
        presence={1: ("bob",), 0: ("alice", "bob")},
        missing_in_training=("carol",))
    path = tmp_path / "gt.json"
    write_truth(stream, path)
    back = read_truth(path)
    assert back.fps == pytest.approx(29.97)
    assert (back.frame_width, back.frame_height) == (1280, 720)
    assert back.embedding_dim == DIM
    assert back.presence == {0: ("alice", "bob"), 1: ("bob",)}
    assert back.missing_in_training == ("carol",)
    assert back.frames == []  # detections are not stored in truth files
    assert back.frame_area == 1280 * 720


def test_truth_fps_must_be_positive(tmp_path):
    stream = GroundTruthStream(
        fps=30.0, frame_width=1280, frame_height=720, embedding_dim=DIM,
        frames=[], presence={0: ("alice",)})
    path = tmp_path / "gt.json"
    write_truth(stream, path)
    doc = json.loads(path.read_text())
    doc["fps"] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="fps must be finite"):
        read_truth(path)


@pytest.mark.parametrize("fps", ["30", True, None, {"fps": 30.0}])
def test_truth_fps_must_be_a_json_number(tmp_path, fps):
    stream = GroundTruthStream(
        fps=30.0, frame_width=1280, frame_height=720, embedding_dim=DIM,
        frames=[], presence={0: ("alice",)})
    path = tmp_path / "gt.json"
    write_truth(stream, path)
    doc = json.loads(path.read_text())
    doc["fps"] = fps
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="^bad truth document: fps must be a JSON number"):
        read_truth(path)


@pytest.mark.parametrize("key", ["frame_width", "frame_height", "embedding_dim"])
@pytest.mark.parametrize("bad", BAD_SIZES)
def test_truth_sizes_must_be_positive_integers(tmp_path, key, bad):
    stream = GroundTruthStream(
        fps=30.0, frame_width=1280, frame_height=720, embedding_dim=DIM,
        frames=[], presence={0: ("alice",)})
    path = tmp_path / "gt.json"
    write_truth(stream, path)
    doc = json.loads(path.read_text())
    doc[key] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=f"{key} must be an integer >= 1"):
        read_truth(path)


@pytest.mark.parametrize("key", [" 7", "7 ", "+7", "07", "-0", "7.0", "1_0", "\u0667", "x"])
def test_truth_presence_keys_must_be_decimal_integers(tmp_path, key):
    stream = GroundTruthStream(
        fps=30.0, frame_width=1280, frame_height=720, embedding_dim=DIM,
        frames=[], presence={7: ("alice",)})
    path = tmp_path / "gt.json"
    write_truth(stream, path)
    doc = json.loads(path.read_text())
    doc["presence"] = {key: ["alice"]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="bad truth document"):
        read_truth(path)


# label lists that used to load as tuples of characters, or not as lists
@pytest.mark.parametrize("key, bad, message", [
    ("presence", {"0": "alice"}, r"presence\[0\] must be a JSON array"),
    ("presence", {"0": None}, r"presence\[0\] must be a JSON array"),
    ("presence", {"0": ["alice", 5]}, r"presence\[0\] item must be a JSON string"),
    ("missing_in_training", "carol", "missing_in_training must be a JSON array"),
    ("missing_in_training", {"carol": 1}, "missing_in_training must be a JSON array"),
    ("missing_in_training", ["carol", ["dave"]],
     "missing_in_training item must be a JSON string"),
])
def test_truth_label_lists_must_be_arrays_of_strings(tmp_path, key, bad, message):
    stream = GroundTruthStream(
        fps=30.0, frame_width=1280, frame_height=720, embedding_dim=DIM,
        frames=[], presence={0: ("alice",)}, missing_in_training=("carol",))
    path = tmp_path / "gt.json"
    write_truth(stream, path)
    doc = json.loads(path.read_text())
    doc[key] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="^bad truth document: " + message):
        read_truth(path)


@pytest.mark.parametrize("fields, words", [
    ({"fps": math.nan}, "fps must be finite: non-finite value in [nan]"),
    ({"fps": 1e309}, "fps must be finite: non-finite value in [inf]"),
    ({"frame_width": 100.0}, "frame_width must be an integer >= 1: 100.0"),
    ({"embedding_dim": 0}, "embedding_dim must be an integer >= 1: 0"),
    ({"presence": {0: (5,)}}, "presence[0] item must be a JSON string: 5"),
    ({"presence": {"x": ("alice",)}},
     "invalid literal for int() with base 10: 'x'"),
    ({"presence": {" 7": ("alice",)}}, "presence key ' 7' is not a decimal integer"),
    ({"missing_in_training": (3,)}, "missing_in_training item must be a JSON string: 3"),
])
def test_write_truth_refuses_what_read_truth_refuses(tmp_path, fields, words):
    stream = GroundTruthStream(**{
        "fps": 30.0, "frame_width": 1280, "frame_height": 720, "embedding_dim": DIM,
        "frames": [], "presence": {0: ("alice",)}, **fields})
    kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
    kept.write_text("an earlier file")
    for path in (kept, absent):
        with pytest.raises(ValueError) as exc:
            write_truth(stream, path)
        assert str(exc.value) == f"bad truth document: {words}"
    assert kept.read_text() == "an earlier file"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]
    # the reader refuses the document the writer would have written, in the same words
    doc = {"version": 1, "fps": canonical_float(stream.fps), "frame_width": stream.frame_width,
           "frame_height": stream.frame_height, "embedding_dim": stream.embedding_dim,
           "missing_in_training": list(stream.missing_in_training),
           "presence": {str(f): list(labels) for f, labels in stream.presence.items()}}
    absent.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as exc:
        read_truth(absent)
    assert str(exc.value) == f"bad truth document: {words}"


@pytest.mark.parametrize("reader", [read_gallery, read_tracks, read_truth])
@pytest.mark.parametrize("text", ["[1, 2]", "null", "7", '"version"'])
def test_documents_must_be_json_objects(tmp_path, reader, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="document: not a JSON object"):
        reader(path)


def test_truth_unsupported_version(tmp_path):
    path = tmp_path / "gt.json"
    path.write_text('{"version":0}')
    with pytest.raises(UnsupportedVersion):
        read_truth(path)


# ------------------------------------------------------- results


def sample_results():
    return [
        FrameResult(0, (
            FrameEntry("alice", BOX, 0.125, SOURCE_CLASSIFIED),
            FrameEntry(UNKNOWN, BoundingBox(5.0, 6.0, 7.0, 8.0), 0.875,
                       SOURCE_CLASSIFIED),
        )),
        FrameResult(1, (FrameEntry("alice", BOX, 0.125, SOURCE_REUSED),)),
        FrameResult(2, (FrameEntry("alice", BOX, 0.125, SOURCE_OCCLUDED),)),
    ]


def test_results_round_trip(tmp_path):
    path = tmp_path / "r.jsonl"
    write_results(sample_results(), path)
    back = read_results(path)
    assert [r.frame for r in back] == [0, 1, 2]
    assert [len(r.entries) for r in back] == [2, 1, 1]
    e = back[0].entries[0]
    assert (e.label, e.box, e.distance, e.source) == (
        "alice", BOX, 0.125, SOURCE_CLASSIFIED)
    assert back[0].entries[1].label == UNKNOWN
    assert back[2].entries[0].source == SOURCE_OCCLUDED


def test_results_write_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_results(sample_results(), p1)
    write_results(sample_results(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_results_unknown_source_rejected(tmp_path):
    path = tmp_path / "r.jsonl"
    rec = {"frame": 0, "entries": [
        {"label": "alice", "box": [1.0, 2.0, 3.0, 4.0], "distance": 0.5,
         "source": "guessed"}]}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ParseError, match="source"):
        read_results(path)


@pytest.mark.parametrize("key, index, bad", [
    pytest.param("box", 1, float("nan"), id="box-1"),
    pytest.param("box", 2, float("inf"), id="box-2-inf"),
    pytest.param("box", 3, -float("inf"), id="box-3--inf"),
    pytest.param("distance", None, float("inf"), id="distance-None"),
    pytest.param("distance", None, float("nan"), id="distance-nan"),
    pytest.param("distance", None, -float("inf"), id="distance--inf"),
])
def test_results_non_finite_rejected_with_line(tmp_path, key, index, bad):
    path = tmp_path / "r.jsonl"
    write_results(sample_results(), path)
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[1])
    if index is None:
        rec["entries"][0][key] = bad
    else:
        rec["entries"][0][key][index] = bad
    lines[1] = json.dumps(rec) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ParseError, match="line 2: .*non-finite"):
        read_results(path)


@pytest.mark.parametrize("key, value", [
    ("box", ["1", "2", "3", "4"]),
    ("box", [1.0, 2.0, True, 4.0]),
    ("box", [1.0, 2.0, 3.0]),
    ("box", [1.0, 2.0, 3.0, 4.0, 5.0]),
    ("box", "1234"),
    ("distance", "0.5"),
    ("distance", True),
    ("distance", None),
    ("distance", [0.5]),
    pytest.param("distance", 10 ** 400, id="distance-int-past-float-range"),
])
def test_results_box_and_distance_must_be_json_numbers(tmp_path, key, value):
    path = tmp_path / "r.jsonl"
    write_results(sample_results(), path)
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[1])
    rec["entries"][0][key] = value
    lines[1] = json.dumps(rec) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ParseError, match=f"^line 2: bad result record: {key} must be") as exc:
        read_results(path)
    assert exc.value.line_number == 2


def assert_results_refused_in_the_readers_words(tmp_path, bad_entry, words, edit):
    """write_results refuses results holding `bad_entry` at frame 66, in
    its second 64-frame chunk, with `words`, naming the frame; it leaves no
    new file and keeps an existing one. read_results refuses the file the
    writer would have spelled, made here by `edit` on the entry's record in
    a written one, in the same words."""
    results = [FrameResult(f, (FrameEntry("alice", BOX, 0.125, SOURCE_REUSED),))
               for f in range(70)]
    results[66] = FrameResult(66, (*results[66].entries, bad_entry))
    kept = tmp_path / "kept.jsonl"
    kept.write_text("an earlier file\n")
    for path in (tmp_path / "new.jsonl", kept):
        with pytest.raises(ValueError) as exc:
            write_results(results, path)
        assert str(exc.value) == f"frame 66: {words}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl"]
    assert kept.read_text() == "an earlier file\n"

    path = tmp_path / "edited.jsonl"
    write_results(results[:66] + [FrameResult(66, (*results[66].entries[:1],) * 2)], path)
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[66])
    edit(rec["entries"][1])
    lines[66] = json.dumps(rec) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ParseError, match=f"^line 67: bad result record: {re.escape(words)}$"):
        read_results(path)


@pytest.mark.parametrize("field, value, words", [
    ("box", BoundingBox(math.nan, 100.0, 96.0, 96.0),
     "box must be finite: non-finite value in [nan, 100.0, 96.0, 96.0]"),
    # finite in float64, Infinity or 0.0 in the float32 that the file stores
    ("box", BoundingBox(1e39, 100.0, 96.0, 96.0),
     "box must be finite: non-finite value in [inf, 100.0, 96.0, 96.0]"),
    ("box", BoundingBox(100.0, 100.0, 1e-50, 96.0), "box width/height must be positive: 0.0x96.0"),
    # FrameEntry refuses the rest, so these entries skip it as the tracker's do
    ("distance", math.inf, "distance must be finite: non-finite value in [inf]"),
    ("distance", math.nan, "distance must be finite: non-finite value in [nan]"),
    ("distance", -0.5, "distance must be non-negative: -0.5"),
    ("label", 5, "label must be a JSON string: 5"),
    ("source", "guessed", "unknown entry source: 'guessed'"),
])
def test_write_results_refuses_what_read_results_refuses(tmp_path, field, value, words):
    fields = {"label": "bob", "box": BOX, "distance": 0.25, "source": SOURCE_CLASSIFIED}
    entry = tuple.__new__(FrameEntry, tuple({**fields, field: value}.values()))
    if field == "box":  # as the float32 values the file would hold
        with np.errstate(over="ignore"):
            value = np.array([value.x, value.y, value.w, value.h], dtype=np.float32).tolist()
    assert_results_refused_in_the_readers_words(
        tmp_path, entry, words, lambda e: e.__setitem__(field, value))


def test_write_results_refuses_exactly_the_entries_read_results_refuses(tmp_path):
    # write_results screens a chunk before it runs read_results' checks: each
    # entry below, alone in a file, is refused by the writer exactly when the
    # reader refuses the line the writer would have spelled for it
    boxes = [BOX, BoundingBox(math.nan, 100.0, 96.0, 96.0), BoundingBox(1e39, 100.0, 96.0, 96.0),
             BoundingBox(100.0, 100.0, 1e-50, 96.0), BoundingBox(100.0, 100.0, 96.0, 1e39)]
    path = tmp_path / "r.jsonl"
    refused = 0
    for label in ("bob", 5, None):
        for box in boxes:
            for distance in (0.0, -0.0, 0.25, 2.0, 1e300, -1e-300, -0.5, math.inf, math.nan):
                for source in (SOURCE_OCCLUDED, "guessed"):
                    entry = tuple.__new__(FrameEntry, (label, box, distance, source))
                    with np.errstate(over="ignore"):
                        corners = np.array([box.x, box.y, box.w, box.h], dtype=np.float32)
                    line = json.dumps({"frame": 0, "entries": [{
                        "label": label, "box": canonical_list(corners.tolist()),
                        "distance": canonical_float(distance), "source": source}]})
                    path.write_text(line + "\n")
                    try:
                        read_results(path)
                    except ParseError:
                        reader_refuses = True
                    else:
                        reader_refuses = False
                    path.unlink()
                    try:
                        write_results([FrameResult(0, (entry,))], path)
                    except ValueError:
                        assert reader_refuses and not path.exists()
                        refused += 1
                    else:
                        assert not reader_refuses
                        assert read_results(path) == [FrameResult(0, (entry,))]
    assert 0 < refused < 270


def test_results_out_of_order_rejected(tmp_path):
    path = tmp_path / "r.jsonl"
    lines = [json.dumps({"frame": f, "entries": []}) for f in (2, 1)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(OutOfOrderFrame):
        read_results(path)


def test_results_frame_gap_rejected_with_line(tmp_path):
    path = tmp_path / "r.jsonl"
    lines = [json.dumps({"frame": f, "entries": []}) for f in (0, 2)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(OutOfOrderFrame, match="^line 2: frame 2 after 0$"):
        read_results(path)


@pytest.mark.parametrize("bad", BAD_FRAMES)
def test_results_frame_must_be_json_integer(tmp_path, bad):
    path = tmp_path / "r.jsonl"
    lines = [json.dumps({"frame": f, "entries": []}) for f in (0, bad)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="^line 2: frame must be a JSON integer"):
        read_results(path)


@pytest.mark.parametrize("bad", [5, None, ["alice"], True])
def test_results_label_must_be_json_string(tmp_path, bad):
    path = tmp_path / "r.jsonl"
    write_results(sample_results(), path)
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[1])
    rec["entries"][0]["label"] = bad
    lines[1] = json.dumps(rec) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ParseError, match="^line 2: .*label must be a JSON string") as exc:
        read_results(path)
    assert exc.value.line_number == 2


def test_results_truncated_tail_dropped(tmp_path):
    path = tmp_path / "r.jsonl"
    write_results(sample_results(), path)
    with open(path, "a") as fh:
        fh.write('{"frame":3,"entr')
    back = read_results(path)
    assert [r.frame for r in back] == [0, 1, 2]


# ------------------------------------------------------- CSV reports


def test_score_csv_exact_bytes(tmp_path):
    report = AccuracyReport(
        per_person={"alice": 1.0, "bob": 0.875},
        average=0.9375, unknown_rate=0.25, false_label_rate=0.0)
    path = tmp_path / "score.csv"
    write_score_csv(report, path)
    assert path.read_text() == (
        "label,present_frames_accuracy\n"
        "alice,1\n"
        "bob,0.875\n"
        "Average,0.9375\n")


def test_score_csv_refuses_a_participant_named_average(tmp_path):
    # the participant's row and the average row would both read Average,
    # so the report is refused before a byte is written
    report = AccuracyReport({"Average": 0.5, "bob": 1.0}, 0.75, 0.0, 0.0)
    path = tmp_path / "score.csv"
    with pytest.raises(ValueError, match="'Average'"):
        write_score_csv(report, path)
    assert list(tmp_path.iterdir()) == []
    path.write_text("kept\n")
    with pytest.raises(ValueError, match="'Average'"):
        write_score_csv(report, path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "kept\n"


# a comma, a quote, a line feed and a lone carriage return, then a plain label
AWKWARD_LABELS = ("smith, j", 'a"b\nc', "c\rd", "plain")


@pytest.mark.parametrize("kind", ["score", "summary"])
def test_csv_reports_read_back_labels_with_commas_quotes_and_line_ends(tmp_path, kind):
    path = tmp_path / f"{kind}.csv"
    if kind == "score":
        write_score_csv(AccuracyReport(
            per_person={label: 0.5 for label in AWKWARD_LABELS}, average=0.5,
            unknown_rate=0.0, false_label_rate=0.0), path)
        want = [["label", "present_frames_accuracy"]]
        want += [[label, "0.5"] for label in AWKWARD_LABELS] + [["Average", "0.5"]]
    else:
        write_summary_csv([FrameResult(0, tuple(
            FrameEntry(label, BOX, 0.125, SOURCE_CLASSIFIED) for label in AWKWARD_LABELS))],
            path)
        want = [["label", "frames", "classified", "reused", "occluded"]]
        want += [[label, "1", "1", "0", "0"] for label in sorted(AWKWARD_LABELS)]
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == want
    assert b"\nplain," in path.read_bytes()  # a plain label is not quoted


def test_score_json_fields(tmp_path):
    report = AccuracyReport(
        per_person={"alice": 0.5}, average=0.5,
        unknown_rate=0.125, false_label_rate=0.0625)
    path = tmp_path / "score.json"
    write_score_json(report, path)
    doc = json.loads(path.read_text())
    assert doc == {
        "per_person": {"alice": 0.5}, "average": 0.5,
        "unknown_rate": 0.125, "false_label_rate": 0.0625}


def test_summary_csv_counts_by_source(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(sample_results(), path)
    assert path.read_text() == (
        "label,frames,classified,reused,occluded\n"
        "Unknown,1,1,0,0\n"
        "alice,3,1,1,1\n")


def test_sweep_csv_shape(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(
        [SweepPoint(1, 0.5, 210), SweepPoint(16, 0.96875, 3360)], path)
    assert path.read_text() == (
        "k,accuracy,dot_products\n"
        "1,0.5,210\n"
        "16,0.96875,3360\n")
