"""Core vector/geometry operations and value-type invariants."""

import copy
import gc
import pickle
import tracemalloc

import numpy as np
import pytest

from prototrack import synth
from prototrack.errors import DimensionMismatch, InvalidEmbedding
from prototrack.types import (
    SOURCE_CLASSIFIED,
    SOURCE_OCCLUDED,
    SOURCE_REUSED,
    UNKNOWN,
    BoundingBox,
    Detection,
    FrameEntry,
    FrameResult,
    cosine_distance,
    duplicate_named_labels,
    iou,
    l2_normalize,
    l2_normalize_rows,
)


def test_l2_normalize_three_four_five():
    out = l2_normalize([3.0, 4.0])
    assert np.allclose(out, [0.6, 0.8])
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_l2_normalize_unit_vector_unchanged():
    out = l2_normalize([1.0, 0.0, 0.0])
    assert np.array_equal(out, [1.0, 0.0, 0.0])


def test_l2_normalize_rejects_zero_vector():
    with pytest.raises(InvalidEmbedding):
        l2_normalize([0.0, 0.0])


def test_l2_normalize_rejects_non_finite():
    with pytest.raises(InvalidEmbedding):
        l2_normalize([np.inf, 1.0])
    with pytest.raises(InvalidEmbedding):
        l2_normalize([np.nan, 1.0])


def test_l2_normalize_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.normal(size=rng.integers(2, 20))
        once = l2_normalize(v)
        twice = l2_normalize(once)
        assert np.max(np.abs(once - twice)) < 1e-6


def row_normalizer_cases():
    """About 300 seeded (rows, dim) matrices: dims from 1 to 1030, odd and
    power-of-two sizes, magnitudes over twelve decades, and row counts on
    both sides of the 512-row blocks synth.generate normalizes."""
    rng = np.random.default_rng(2024)
    dims = [1, 2, 3, 7, 8, 31, 32, 33, 127, 128, 130, 255, 511, 512, 513, 1029, 1030]
    cases = []
    for i in range(300):
        dim = dims[i] if i < len(dims) else int(rng.integers(1, 1031))
        rows = (511, 512, 513, 1025)[i % 4] if i % 25 == 0 else int(rng.integers(1, 40))
        scale = 10.0 ** rng.uniform(-6, 6, size=(rows, 1))
        cases.append(rng.normal(size=(rows, dim)) * scale)
    return cases


def test_l2_normalize_rows_matches_l2_normalize_bit_for_bit():
    for m in row_normalizer_cases():
        want = np.array([l2_normalize(row) for row in m])
        got = l2_normalize_rows(m)
        assert got.shape == m.shape
        assert np.array_equal(want.view(np.uint64), got.view(np.uint64)), m.shape
        # in place, one 512-row block at a time, as synth.generate does it
        blocks = m.copy()
        for lo in range(0, len(blocks), 512):
            block = blocks[lo:lo + 512]
            assert l2_normalize_rows(block, out=block) is block
        assert np.array_equal(want.view(np.uint64), blocks.view(np.uint64)), m.shape


def test_l2_normalize_rows_reads_non_contiguous_input():
    m = np.random.default_rng(3).normal(size=(6, 10))[:, ::2]
    want = np.array([l2_normalize(row) for row in m])
    assert np.array_equal(want.view(np.uint64), l2_normalize_rows(m).view(np.uint64))


@pytest.mark.parametrize("bad", [0.0, np.inf, -np.inf, np.nan])
def test_l2_normalize_rows_rejects_zero_and_non_finite_rows(bad):
    m = np.random.default_rng(4).normal(size=(5, 6))
    m[3] = 0.0 if bad == 0.0 else m[3]
    m[3, 2] = bad
    m[4] = 0.0
    with pytest.raises(InvalidEmbedding, match="zero or non-finite") as exc:
        l2_normalize_rows(m)
    assert exc.value.row == 3


def test_l2_normalize_rows_rejects_overflowing_norm():
    m = np.full((2, 4), 1e200)
    with np.errstate(over="ignore"), pytest.raises(InvalidEmbedding) as exc:
        l2_normalize_rows(m)
    assert exc.value.row == 0
    with np.errstate(over="ignore"), pytest.raises(InvalidEmbedding):
        l2_normalize(m[0])


def test_cosine_distance_identity():
    a = l2_normalize([0.2, -0.3, 0.9])
    assert cosine_distance(a, a) < 1e-12


def test_cosine_distance_orthogonal():
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0


def test_cosine_distance_antipodal():
    assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == 2.0


def test_cosine_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_distance_symmetric_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = l2_normalize(rng.normal(size=8))
        b = l2_normalize(rng.normal(size=8))
        d_ab = cosine_distance(a, b)
        d_ba = cosine_distance(b, a)
        assert d_ab == d_ba
        assert 0.0 <= d_ab <= 2.0


def test_bounding_box_requires_positive_size():
    with pytest.raises(ValueError):
        BoundingBox(0, 0, 0, 5)
    with pytest.raises(ValueError):
        BoundingBox(0, 0, 5, -1)


def test_bounding_box_area():
    assert BoundingBox(10, 20, 4, 5).area == 20


def test_iou_identical_boxes():
    box = BoundingBox(5, 5, 10, 20)
    assert iou(box, box) == 1.0


def test_iou_disjoint_boxes():
    assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(100, 100, 10, 10)) == 0.0


def test_iou_half_overlap_hand_computed():
    # intersection 1x2 = 2, union 4 + 4 - 2 = 6
    a = BoundingBox(0, 0, 2, 2)
    b = BoundingBox(1, 0, 2, 2)
    assert abs(iou(a, b) - 2.0 / 6.0) < 1e-12


def test_iou_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = BoundingBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2))
        b = BoundingBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2))
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def test_iou_one_only_for_identical():
    a = BoundingBox(0, 0, 10, 10)
    b = BoundingBox(0, 0, 10, 10.001)
    assert iou(a, b) < 1.0


def test_frame_entry_validates_source_and_distance():
    box = BoundingBox(0, 0, 10, 10)
    with pytest.raises(ValueError):
        FrameEntry("alice", box, 0.1, "guessed")
    with pytest.raises(ValueError):
        FrameEntry("alice", box, -0.1, SOURCE_CLASSIFIED)
    with pytest.raises(ValueError):
        FrameEntry("alice", box, float("nan"), SOURCE_CLASSIFIED)


def test_frame_result_labels_and_duplicates():
    box = BoundingBox(0, 0, 10, 10)
    result = FrameResult(7, (
        FrameEntry("alice", box, 0.1, SOURCE_CLASSIFIED),
        FrameEntry(UNKNOWN, box, 0.9, SOURCE_CLASSIFIED),
        FrameEntry(UNKNOWN, box, 0.8, SOURCE_CLASSIFIED),
        FrameEntry("alice", box, 0.3, SOURCE_OCCLUDED),
    ))
    assert result.labels() == ("alice", UNKNOWN, UNKNOWN, "alice")
    # Unknown may repeat freely; named labels may not
    assert duplicate_named_labels(result) == {"alice"}
    clean = FrameResult(8, result.entries[:3])
    assert duplicate_named_labels(clean) == set()


# ---------------------------------------------------------------------------
# the per-frame records: immutable named tuples


def sample_entry(**changes):
    fields = dict(label="alice", box=BoundingBox(1.0, 2.0, 3.0, 4.0),
                  distance=0.1, source=SOURCE_CLASSIFIED)
    return FrameEntry(**dict(fields, **changes))


def test_frame_entry_fields_in_order():
    entry = FrameEntry("alice", BoundingBox(1.0, 2.0, 3.0, 4.0), 0.1, SOURCE_REUSED)
    assert FrameEntry._fields == ("label", "box", "distance", "source")
    assert tuple(entry) == ("alice", BoundingBox(1.0, 2.0, 3.0, 4.0), 0.1, SOURCE_REUSED)
    assert (entry.label, entry.box, entry.distance, entry.source) == tuple(entry)
    assert sample_entry() == FrameEntry("alice", BoundingBox(1.0, 2.0, 3.0, 4.0),
                                        0.1, SOURCE_CLASSIFIED)


def test_frame_result_fields_in_order():
    entries = (sample_entry(), sample_entry(label=UNKNOWN))
    assert FrameResult._fields == ("frame", "entries")
    assert tuple(FrameResult(3, entries)) == (3, entries)
    assert FrameResult(frame=3, entries=entries).entries is entries
    assert FrameResult(4).entries == ()


@pytest.mark.parametrize("record", [sample_entry(), FrameResult(3, (sample_entry(),))])
def test_frame_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1  # no per-instance __dict__ to put it in
    assert not hasattr(record, "__dict__")


def test_frame_records_compare_and_hash_by_value():
    a, b = sample_entry(), sample_entry()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != sample_entry(distance=0.2)
    ra, rb = FrameResult(3, (a,)), FrameResult(3, (b,))
    assert ra is not rb and ra == rb and hash(ra) == hash(rb)
    assert ra != FrameResult(4, (a,))
    assert ra != FrameResult(3, (a, b))


@pytest.mark.parametrize("changes, message", [
    ({"source": "guessed"}, "unknown entry source: 'guessed'"),
    ({"distance": -0.1}, "distance must be non-negative: -0.1"),
    ({"distance": float("nan")}, "distance must be non-negative: nan"),
])
def test_frame_entry_validation_errors(changes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_entry(**changes)
    # _replace and _make build through the same checks
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_entry()._replace(**changes)
    with pytest.raises(ValueError, match=f"^{message}$"):
        FrameEntry._make(dict(sample_entry()._asdict(), **changes).values())


def test_frame_records_pickle_round_trip():
    result = FrameResult(9, (sample_entry(), sample_entry(source=SOURCE_OCCLUDED)))
    back = pickle.loads(pickle.dumps(result))
    assert back == result
    assert type(back) is FrameResult
    assert [type(e) for e in back.entries] == [FrameEntry, FrameEntry]


def test_frame_records_repr():
    entry = sample_entry()
    assert repr(entry) == ("FrameEntry(label='alice', box=BoundingBox(x=1.0, y=2.0, "
                           "w=3.0, h=4.0), distance=0.1, source='classified')")
    assert repr(FrameResult(3, (entry,))) == f"FrameResult(frame=3, entries=({entry!r},))"


# ---------------------------------------------------------------------------
# the input records: slotted dataclasses


def sample_records():
    """A BoundingBox and a Detection holding it."""
    box = BoundingBox(1.0, 2.0, 3.0, 4.0)
    return box, Detection(5, box, np.array([0.6, 0.8]), "alice")


@pytest.mark.parametrize("index, name", [(0, "x"), (1, "frame")], ids=["box", "detection"])
def test_input_records_have_no_dict_and_are_immutable(index, name):
    record = sample_records()[index]
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_bounding_box_validation_and_value_semantics():
    with pytest.raises(ValueError, match="^box width/height must be positive: 0.0x4.0$"):
        BoundingBox(1.0, 2.0, 0.0, 4.0)
    a, b = BoundingBox(1.0, 2.0, 3.0, 4.0), BoundingBox(1.0, 2.0, 3.0, 4.0)
    assert a is not b and a == b and hash(a) == hash(b) and a.area == 12.0
    assert a != BoundingBox(1.0, 2.0, 3.0, 5.0)


def test_detection_compares_by_identity():
    _, det = sample_records()
    twin = Detection(det.frame, det.box, det.embedding, det.gt_label)
    assert det == det and det != twin
    assert len({det, twin}) == 2
    assert Detection(0, det.box, det.embedding).gt_label is None


@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy,
                                   copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_input_records_pickle_and_copy_round_trip(clone):
    box, det = sample_records()
    assert clone(box) == box and type(clone(box)) is BoundingBox
    back = clone(det)
    assert type(back) is Detection and back is not det
    assert (back.frame, back.box, back.gt_label) == (det.frame, det.box, det.gt_label)
    assert np.array_equal(back.embedding, det.embedding)


def test_input_records_repr():
    box, det = sample_records()
    assert repr(box) == "BoundingBox(x=1.0, y=2.0, w=3.0, h=4.0)"
    assert repr(det) == (f"Detection(frame=5, box={box!r}, embedding=array([0.6, 0.8]), "
                         "gt_label='alice')")


def test_generated_detections_bytes_beyond_their_embeddings():
    """Python objects a generated stream holds per detection, beyond its
    embedding's float64 data, on a 16-d scenario: 354 bytes with compact
    records and no landmarks kept, 515 with packed landmarks, and 1 122 with
    dict-backed dataclasses and tuple landmarks."""
    def scenario(seconds):
        return synth.ScenarioSpec(participants=4, duration_seconds=seconds, fps=10,
                                  embedding_dim=16, seed=3, events=(
                                      synth.Event("background_face", "walker", 5, 200),))

    synth.generate(scenario(2))  # one-time allocations (caches) before counting
    gc.collect()
    tracemalloc.start()
    try:
        stream = synth.generate(scenario(60))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = sum(len(dets) for _, dets in stream.frames)
    assert n == 2600
    assert (held - n * 16 * 8) / n < 400
