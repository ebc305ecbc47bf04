"""Core vector/geometry operations and value-type invariants."""

import numpy as np
import pytest

from prototrack.errors import DimensionMismatch, InvalidEmbedding
from prototrack.types import (
    SOURCE_CLASSIFIED,
    SOURCE_OCCLUDED,
    UNKNOWN,
    BoundingBox,
    FrameEntry,
    FrameResult,
    Landmarks,
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


def test_landmarks_require_five_points():
    points4 = tuple((float(i), float(i)) for i in range(4))
    with pytest.raises(ValueError):
        Landmarks(points4)
    Landmarks(points4 + ((4.0, 4.0),))  # five is fine


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
