"""Tracker state machine: window bootstrap, reuse, occlusion, consistency.

Scripted streams use 8-dimensional one-hot embeddings so every distance is
exactly 0, 0.5, or 1 and the expected behavior can be stated by hand.
"""

import dataclasses
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from prototrack import tracker
from prototrack.errors import EmptyStream, OutOfOrderFrame
from prototrack.gallery import Gallery, Prototype
from prototrack.recognizer import GalleryIndex, RecognizerConfig
from prototrack.stream_io import read_gallery, read_stream, write_results
from prototrack.tracker import (
    NEW_FACE_ACTIVE,
    TrackedFace,
    TrackerConfig,
    TrackerState,
    _advance,
    _classify_batch,
    _kept,
    _miss,
    _observe,
    _overlap_candidates,
    _promote,
    run,
    run_initial_window,
    step,
)
from prototrack.types import (
    ENTRY_SOURCES,
    SOURCE_CLASSIFIED,
    SOURCE_OCCLUDED,
    SOURCE_REUSED,
    UNKNOWN,
    BoundingBox,
    Detection,
    FrameEntry,
    FrameResult,
)

DIM = 8


def one_hot(i):
    v = np.zeros(DIM)
    v[i] = 1.0
    return v


def half_mix(i):
    """Unit vector with dot(one_hot(i)) = 0.5 exactly."""
    v = np.zeros(DIM)
    v[[i, 5, 6, 7]] = 0.5
    return v


ALICE, BOB, CAROL = one_hot(0), one_hot(1), one_hot(2)
BOX_A = BoundingBox(100, 100, 96, 96)
BOX_B = BoundingBox(400, 100, 96, 96)
BOX_C = BoundingBox(700, 100, 96, 96)
BOX_FAR = BoundingBox(1200, 600, 96, 96)


def gallery():
    return GalleryIndex(Gallery(entries={
        "alice": [Prototype(ALICE, 0)],
        "bob": [Prototype(BOB, 0)],
        "carol": [Prototype(CAROL, 0)],
    }))


def det(frame, box, emb):
    return Detection(frame=frame, box=box, embedding=emb)


def cfg(**overrides):
    return TrackerConfig(fps=30.0, **overrides)


def steady_frames(n, people, start=0):
    """n frames of the given (box, embedding) pairs, every frame."""
    return [
        (start + f, [det(start + f, box, emb) for box, emb in people])
        for f in range(n)
    ]


def bootstrapped(people, config=None):
    """State after a full 60-frame initial window of steady detections."""
    config = config or cfg()
    frames = steady_frames(config.window_frames(), people)
    return run_initial_window(frames, gallery(), config), config


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(fps=0.0)
    with pytest.raises(ValueError):
        TrackerConfig(fps=float("nan"))
    with pytest.raises(ValueError):
        cfg(init_window_seconds=float("nan"))
    with pytest.raises(ValueError):
        cfg(min_appearances=0)
    with pytest.raises(ValueError):
        cfg(min_appearances=11)  # above the cap of 10
    with pytest.raises(ValueError):
        cfg(promote_ratio=0.0)
    with pytest.raises(ValueError):
        cfg(reuse_iou=1.5)
    with pytest.raises(ValueError):
        cfg(new_face_policy="maybe")


def test_config_rejects_a_window_past_sys_maxsize_frames():
    for seconds, fps in ((1e308, 30.0), (1e300, 30.0), (2.0, 1e308),
                         (float(sys.maxsize), 2.0)):
        with pytest.raises(ValueError, match=r"init_window_seconds \* fps"):
            TrackerConfig(fps=fps, init_window_seconds=seconds)
    # the largest float at or below sys.maxsize still fits islice's stop
    edge = TrackerConfig(fps=1.0, init_window_seconds=float(2 ** 63 - 1024))
    assert edge.window_frames() == 2 ** 63 - 1024 <= sys.maxsize


def test_window_frame_count_rounds_up():
    assert cfg().window_frames() == 60
    assert TrackerConfig(fps=29.97).window_frames() == 60  # ceil(59.94)
    assert TrackerConfig(fps=10.0, init_window_seconds=0.25).window_frames() == 3


# ---------------------------------------------------------------------------
# initial window


def test_window_full_presence_promotes():
    state, _ = bootstrapped([(BOX_A, ALICE)])
    assert set(state.active) == {"alice"}
    assert not state.inactive
    face = state.active["alice"]
    assert face.total_appearances == 60
    assert face.total_frames_processed == 60
    assert face.continuous_appearances == 10
    assert face.last_distance == 0.0
    assert len(state.results) == 60


def test_window_sparse_presence_stays_inactive():
    frames = []
    for f in range(60):
        dets = [det(f, BOX_A, ALICE)] if f % 3 == 0 else []  # 20 of 60
        frames.append((f, dets))
    state = run_initial_window(frames, gallery(), cfg())
    assert set(state.inactive) == {"alice"}
    assert not state.active
    assert state.inactive["alice"].total_appearances == 20


def test_window_exactly_half_presence_promotes():
    frames = []
    for f in range(60):
        dets = [det(f, BOX_A, ALICE)] if f % 2 == 0 else []  # 30 of 60
        frames.append((f, dets))
    state = run_initial_window(frames, gallery(), cfg())
    assert set(state.active) == {"alice"}


def test_window_ratio_counts_from_first_appearance():
    # absent for the first half, then present in every remaining frame:
    # 30 appearances over 30 processed frames is ratio 1.0
    frames = []
    for f in range(60):
        dets = [det(f, BOX_A, ALICE)] if f >= 30 else []
        frames.append((f, dets))
    state = run_initial_window(frames, gallery(), cfg())
    assert set(state.active) == {"alice"}
    assert state.active["alice"].total_frames_processed == 30


def test_window_rejects_empty_and_gaps():
    with pytest.raises(EmptyStream):
        run_initial_window([], gallery(), cfg())
    frames = [(0, []), (2, [])]
    with pytest.raises(OutOfOrderFrame):
        run_initial_window(frames, gallery(), cfg())


def test_window_resolves_duplicate_labels_per_frame():
    frames = [(0, [det(0, BOX_A, ALICE), det(0, BOX_FAR, half_mix(0))])]
    state = run_initial_window(frames, gallery(),
                               cfg(init_window_seconds=1 / 30))
    (result,) = state.results
    assert result.labels() == ("alice", UNKNOWN)
    assert result.entries[1].distance == 0.5


# ---------------------------------------------------------------------------
# step: reuse, occlusion, duplicates


def test_step_reuses_overlapping_box_without_classifying():
    state, config = bootstrapped([(BOX_A, ALICE)])
    calls_before = state.classify_calls
    step(state, 60, [det(60, BOX_A, ALICE)], gallery(), config)
    (entry,) = state.results[-1].entries
    assert entry.label == "alice"
    assert entry.source == SOURCE_REUSED
    assert state.classify_calls == calls_before
    assert state.active["alice"].total_appearances == 61


def test_step_occlusion_budget_then_demotion():
    state, config = bootstrapped([(BOX_A, ALICE)])
    index = gallery()
    # five missed frames ride the counter down 9, 8, 7, 6, 5 -- all emitted
    for i, frame in enumerate(range(60, 65)):
        step(state, frame, [], index, config)
        (entry,) = state.results[-1].entries
        assert entry.label == "alice"
        assert entry.source == SOURCE_OCCLUDED
        assert entry.box == BOX_A
        assert entry.distance == 0.0
        assert state.active["alice"].continuous_appearances == 9 - i
    # the sixth miss crosses below min_appearances: demoted, no entry
    step(state, 65, [], index, config)
    assert state.results[-1].entries == ()
    assert "alice" not in state.active
    assert state.inactive["alice"].continuous_appearances == 4


def test_step_occluded_face_redetected_resumes_reuse():
    state, config = bootstrapped([(BOX_A, ALICE)])
    for frame in range(60, 64):  # four-frame occlusion, counter to 6
        step(state, frame, [], gallery(), config)
    step(state, 64, [det(64, BOX_A, ALICE)], gallery(), config)
    (entry,) = state.results[-1].entries
    assert entry.source == SOURCE_REUSED
    assert state.active["alice"].continuous_appearances == 7


def test_step_demoted_face_reclassifies_then_promotes():
    state, config = bootstrapped([(BOX_A, ALICE)])
    for frame in range(60, 66):  # six misses: demoted on the last
        step(state, frame, [], gallery(), config)
    assert "alice" in state.inactive
    # back at the same box, but inactive identities are never matched by
    # overlap: the detection is classified, and the lifetime ratio
    # (61 appearances / 67 processed) promotes alice immediately
    step(state, 66, [det(66, BOX_A, ALICE)], gallery(), config)
    (entry,) = state.results[-1].entries
    assert entry.source == SOURCE_CLASSIFIED
    assert "alice" in state.active
    assert state.active["alice"].continuous_appearances == 10
    # once active again, the next frame is a plain reuse
    step(state, 67, [det(67, BOX_A, ALICE)], gallery(), config)
    assert state.results[-1].entries[0].source == SOURCE_REUSED


def test_step_duplicate_claims_keep_smaller_distance():
    state, config = bootstrapped([(BOX_A, ALICE), (BOX_B, BOB)])
    # bob's detection vanishes; an impostor near alice's identity appears
    step(state, 60, [
        det(60, BOX_A, ALICE),
        det(60, BOX_FAR, half_mix(0)),  # classifies alice at distance 0.5
    ], gallery(), config)
    entries = state.results[-1].entries
    labels = [e.label for e in entries]
    # reused alice (distance 0.0) beats the impostor, which turns Unknown,
    # and bob is bridged as occluded
    assert labels == ["alice", UNKNOWN, "bob"]
    assert entries[1].distance == 0.5
    assert entries[1].source == SOURCE_CLASSIFIED
    assert entries[2].source == SOURCE_OCCLUDED


def test_step_detected_label_drops_occlusion_placeholder():
    state, config = bootstrapped([(BOX_A, ALICE)])
    # alice's real box vanishes but a detection elsewhere claims her label:
    # the detected entry wins and no occluded placeholder is emitted
    step(state, 60, [det(60, BOX_FAR, ALICE)], gallery(), config)
    (entry,) = state.results[-1].entries
    assert entry.label == "alice"
    assert entry.source == SOURCE_CLASSIFIED
    assert entry.box == BOX_FAR
    # the tracked box is unchanged -- identity claims don't move the track
    face = state.active["alice"]
    assert face.last_box == BOX_A
    assert face.continuous_appearances == 9
    # so a detection back at the original box is reused next frame
    step(state, 61, [det(61, BOX_A, ALICE)], gallery(), config)
    assert state.results[-1].entries[0].source == SOURCE_REUSED


def test_step_two_new_detections_same_label_counted_once():
    state, config = bootstrapped([(BOX_A, ALICE)])
    step(state, 60, [
        det(60, BOX_B, half_mix(1)),   # bob at 0.5
        det(60, BOX_FAR, BOB),         # bob at 0.0 -- this one speaks
    ], gallery(), config)
    entries = state.results[-1].entries
    assert [e.label for e in entries] == [UNKNOWN, "bob", "alice"]
    face = state.inactive["bob"]
    assert face.total_appearances == 1
    assert face.last_box == BOX_FAR


def test_step_new_face_policy():
    state, config = bootstrapped([(BOX_A, ALICE)])
    step(state, 60, [det(60, BOX_A, ALICE), det(60, BOX_B, BOB)],
         gallery(), config)
    assert "bob" in state.inactive  # default: new faces start inactive
    face = state.inactive["bob"]
    assert (face.total_appearances, face.continuous_appearances) == (1, 1)

    state2, config2 = bootstrapped([(BOX_A, ALICE)],
                                   cfg(new_face_policy=NEW_FACE_ACTIVE))
    step(state2, 60, [det(60, BOX_A, ALICE), det(60, BOX_B, BOB)],
         gallery(), config2)
    assert "bob" in state2.active
    assert state2.active["bob"].continuous_appearances == 10


def test_step_rejects_out_of_order_frame():
    state, config = bootstrapped([(BOX_A, ALICE)])
    with pytest.raises(OutOfOrderFrame):
        step(state, 62, [], gallery(), config)
    with pytest.raises(OutOfOrderFrame):
        step(state, 59, [], gallery(), config)


def test_step_area_filter_skips_small_detections():
    config = cfg(recognizer=RecognizerConfig(min_area=400.0))
    frames = steady_frames(60, [(BOX_A, ALICE)])
    state = run_initial_window(frames, gallery(), config)
    calls = state.classify_calls
    tiny = Detection(frame=60, box=BoundingBox(50, 900, 16, 16),
                     embedding=one_hot(3))
    step(state, 60, [det(60, BOX_A, ALICE), tiny], gallery(), config)
    assert [e.label for e in state.results[-1].entries] == ["alice"]
    assert state.classify_calls == calls


# ---------------------------------------------------------------------------
# run


def test_run_empty_stream_raises():
    for frames in ([], iter([])):
        with pytest.raises(EmptyStream):
            run(frames, gallery(), cfg())


def test_run_empty_gallery_everything_unknown():
    frames = steady_frames(90, [(BOX_A, ALICE)])
    state = run(frames, Gallery(entries={}), cfg())
    assert state.classify_calls == 0
    assert not state.active and not state.inactive
    for result in state.results:
        (entry,) = result.entries
        assert entry.label == UNKNOWN
        assert entry.distance == 2.0


def test_run_clean_stream_labels_every_frame():
    frames = steady_frames(150, [(BOX_A, ALICE)])
    state = run(frames, gallery(), cfg())
    assert len(state.results) == 150
    assert all(r.labels() == ("alice",) for r in state.results)
    # classification happens only inside the 60-frame window; after
    # promotion every frame is matched by box overlap alone
    assert state.classify_calls == 60


def test_run_stream_shorter_than_window():
    frames = steady_frames(10, [(BOX_A, ALICE)])
    state = run(frames, gallery(), cfg())
    assert len(state.results) == 10
    assert set(state.active) == {"alice"}


def test_run_draws_the_window_then_one_frame_per_step(monkeypatch):
    config = cfg()
    window = config.window_frames()
    frames = steady_frames(window + 5, [(BOX_A, ALICE), (BOX_B, BOB)])
    drawn = []

    def source():
        for frame in frames:
            drawn.append(frame[0])
            yield frame

    seen = []  # (call, frame index, frames drawn when called)
    real_window, real_step = tracker.run_initial_window, tracker.step

    def counting_window(window_frames, *args, **kwargs):
        seen.append(("window", window_frames[-1][0], len(drawn)))
        return real_window(window_frames, *args, **kwargs)

    def counting_step(state, frame_index, *args, **kwargs):
        seen.append(("step", frame_index, len(drawn)))
        return real_step(state, frame_index, *args, **kwargs)

    monkeypatch.setattr(tracker, "run_initial_window", counting_window)
    monkeypatch.setattr(tracker, "step", counting_step)
    state = run(source(), gallery(), config)
    assert seen == [("window", window - 1, window)] + [
        ("step", f, f + 1) for f in range(window, window + 5)]
    assert len(state.results) == window + 5


def test_run_never_repeats_a_named_label():
    rng = np.random.default_rng(211)
    people = [("alice", BOX_A, 0), ("bob", BOX_B, 1), ("carol", BOX_C, 2)]
    frames = []
    for f in range(240):
        dets = []
        for _, box, idx in people:
            if rng.random() < 0.8:
                emb = one_hot(idx) if rng.random() < 0.8 else half_mix(idx)
                dets.append(det(f, box, emb))
        if rng.random() < 0.3:
            dets.append(det(f, BOX_FAR, half_mix(int(rng.integers(0, 3)))))
        frames.append((f, dets))
    state = run(frames, gallery(), cfg())
    for result in state.results:
        named = [l for l in result.labels() if l != UNKNOWN]
        assert len(named) == len(set(named))


# ---------------------------------------------------------------------------
# counter law and reuse equivalence


def snapshot(state):
    pools = {}
    for label, face in state.active.items():
        pools[label] = ("active", face.continuous_appearances)
    for label, face in state.inactive.items():
        pools[label] = ("inactive", face.continuous_appearances)
    return pools


def test_counter_law_on_randomized_presence():
    """continuousAppearances moves by exactly +-1 (capped, floored), except
    promotions which reset it to the cap; occluded entries appear exactly
    when an active identity misses with a post-decrement counter still at
    or above min_appearances."""
    rng = np.random.default_rng(307)
    config = cfg()
    frames = steady_frames(60, [(BOX_A, ALICE)])
    state = run_initial_window(frames, gallery(), config)
    for frame in range(60, 360):
        detected = bool(rng.random() < 0.7)
        before = snapshot(state)
        dets = [det(frame, BOX_A, ALICE)] if detected else []
        step(state, frame, dets, gallery(), config)
        after = snapshot(state)
        occluded_emitted = any(
            e.label == "alice" and e.source == SOURCE_OCCLUDED
            for e in state.results[-1].entries)
        if "alice" not in before:
            continue
        pool_before, c_before = before["alice"]
        pool_after, c_after = after["alice"]
        if detected:
            promoted = pool_before == "inactive" and pool_after == "active"
            if promoted:
                assert c_after == config.cap
            else:
                assert c_after == min(config.cap, c_before + 1)
            assert not occluded_emitted
        else:
            assert c_after == max(0, c_before - 1)
            expected = pool_before == "active" and c_after >= config.min_appearances
            assert occluded_emitted == expected
            if pool_before == "active" and c_after < config.min_appearances:
                assert pool_after == "inactive"
        assert 0 <= c_after <= config.cap


def test_reuse_equivalence_and_saved_work():
    """With embeddings that always classify correctly, turning box-overlap
    reuse off changes no (label, box) assertion -- it only costs more
    classification calls."""
    rng = np.random.default_rng(311)
    frames = []
    pos = {"alice": np.array([300.0, 300.0]), "bob": np.array([900.0, 500.0])}
    emb = {"alice": ALICE, "bob": BOB}
    for f in range(200):
        dets = []
        for name in ("alice", "bob"):
            pos[name] += rng.normal(0, 1.5, 2)  # jitter keeps IoU below 1
            x, y = pos[name]
            dets.append(det(f, BoundingBox(x, y, 96, 96), emb[name]))
        frames.append((f, dets))
    with_reuse = run(frames, gallery(), cfg(reuse_iou=0.5))
    no_reuse = run(frames, gallery(), cfg(reuse_iou=1.0))
    for a, b in zip(with_reuse.results, no_reuse.results):
        assert [(e.label, e.box) for e in a.entries] == \
            [(e.label, e.box) for e in b.entries]
    assert with_reuse.classify_calls < no_reuse.classify_calls


# ---------------------------------------------------------------------------
# overlap association against the per-pair iou reference


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint, 1 when identical."""
    ix = max(a.x, b.x)
    iy = max(a.y, b.y)
    ix2 = min(a.x + a.w, b.x + b.w)
    iy2 = min(a.y + a.h, b.y + b.h)
    iw = ix2 - ix
    ih = iy2 - iy
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


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


def random_boxes(rng, n, pool=()):
    """Boxes on a coarse grid (touching edges are common), with identical
    and nested copies of earlier boxes mixed in, plus a few off-grid ones,
    copies moved to touch an earlier box's right or bottom edge, and boxes
    near 1e17, where x + w rounds back to x for w = 1 (the float spacing
    there is 16)."""
    boxes = []
    for _ in range(n):
        earlier = list(pool) + boxes
        kind = rng.integers(0, 7)
        if kind == 0 and earlier:
            boxes.append(earlier[rng.integers(0, len(earlier))])  # identical
        elif kind == 1 and earlier:
            b = earlier[rng.integers(0, len(earlier))]  # nested inside b
            fx, fy = rng.uniform(0.0, 0.5, 2)
            boxes.append(BoundingBox(b.x + fx * b.w, b.y + fy * b.h,
                                     b.w * (1 - fx) * rng.uniform(0.2, 1.0),
                                     b.h * (1 - fy) * rng.uniform(0.2, 1.0)))
        elif kind == 2:
            boxes.append(BoundingBox(*rng.uniform(0, 60, 2), *rng.uniform(1, 40, 2)))
        elif kind == 3 and earlier:
            b = earlier[rng.integers(0, len(earlier))]  # touching b's edge
            right = rng.random() < 0.5
            boxes.append(BoundingBox(b.x + b.w if right else b.x,
                                     b.y if right else b.y + b.h, b.w, b.h))
        elif kind == 4:
            boxes.append(BoundingBox(*(1e17 + 16 * rng.integers(0, 3, 2)),
                                     *rng.choice([1.0, 16.0, 64.0], 2)))
        else:
            boxes.append(BoundingBox(*(10 * rng.integers(0, 6, 2)),
                                     *(10 * rng.integers(1, 4, 2))))
    return boxes


def reference_association(det_boxes, active, reuse_iou):
    """Candidates and greedy matches built with one iou call a pair."""
    candidates = []
    for di, box in enumerate(det_boxes):
        for label, face in active.items():
            overlap = iou(box, face.last_box)
            if overlap >= reuse_iou:
                candidates.append((-overlap, di, label))
    reused = {}
    for _, di, label in sorted(candidates):
        if di not in reused and label not in reused.values():
            reused[di] = label
    return candidates, reused


def active_faces(boxes):
    return {f"p{i}": TrackedFace(f"p{i}", box, 10, 10, 10, 0.25)
            for i, box in enumerate(boxes)}


@pytest.mark.parametrize("reuse_iou", [0.0, 0.01, 0.5, 1.0])
def test_overlap_association_matches_per_pair_iou(reuse_iou):
    rng = np.random.default_rng(401)
    config = cfg(reuse_iou=reuse_iou)
    for _ in range(600):
        face_boxes = random_boxes(rng, int(rng.integers(0, 6)))
        det_boxes = random_boxes(rng, int(rng.integers(0, 7)), face_boxes)
        active = active_faces(face_boxes)
        want, want_reused = reference_association(det_boxes, active, reuse_iou)
        dets = [det(1, box, one_hot(7)) for box in det_boxes]
        # exact equality: same pairs, same order, same float bits
        assert _overlap_candidates(dets, active, reuse_iou) == want
        if reuse_iou == 0:  # every pair is a candidate, disjoint ones at 0.0
            assert len(want) == len(dets) * len(active)

        state = TrackerState(active=active, frame_cursor=0)
        step(state, 1, dets, gallery(), config)
        got_reused = {di: e.label
                      for di, e in enumerate(state.results[-1].entries[:len(dets)])
                      if e.source == SOURCE_REUSED}
        assert got_reused == want_reused


# The overlap pass as tracker.py held it before its one-loop form, kept
# verbatim: the former step at the end of this file calls it too.
def _edges(boxes):
    """(x, y, x + w, y + h, w * h) per box, in iou's arithmetic."""
    return [(b.x, b.y, b.x + b.w, b.y + b.h, b.w * b.h) for b in boxes]


def reference_overlap_candidates(kept, active, reuse_iou):
    """Every (-IoU, detection index, label) pair with IoU >= reuse_iou.

    Equals the list that iou(detection box, last box) builds pair by
    pair, disjoint pairs included as 0.0 when reuse_iou is 0, but with each
    box's edges and area computed once per frame. When reuse_iou is above 0,
    a pair whose edges show it disjoint is skipped before any arithmetic:
    each such test implies iw <= 0 or ih <= 0 below.
    """
    if not active:  # as in every initial-window frame: no edges to compute
        return []
    tracks = [(label, *e) for label, e in zip(
        active, _edges([face.last_box for face in active.values()]))]
    candidates = []
    prune = reuse_iou > 0
    for di, (ax, ay, ax2, ay2, aa) in enumerate(_edges([d.box for d in kept])):
        for label, bx, by, bx2, by2, ba in tracks:
            if prune and (bx >= ax2 or ax >= bx2 or by >= ay2 or ay >= by2):
                continue
            # max(a, b) and min(a, b), operand order kept
            iw = (bx2 if bx2 < ax2 else ax2) - (bx if bx > ax else ax)
            ih = (by2 if by2 < ay2 else ay2) - (by if by > ay else ay)
            if iw <= 0 or ih <= 0:
                overlap = 0.0
            else:
                inter = iw * ih
                overlap = inter / (aa + ba - inter)
            if overlap >= reuse_iou:
                candidates.append((-overlap, di, label))
    return candidates


def zero_width_boxes(rng, pool):
    """Boxes that meet one of `pool` along an edge or at a corner, so the
    overlap has zero width or zero height (or both)."""
    boxes = []
    for b in pool:
        dx = rng.choice([-1.0, 0.0, 1.0])
        dy = rng.choice([-1.0, 0.0, 1.0]) if dx else rng.choice([-1.0, 1.0])
        w, h = rng.choice([b.w, 0.5 * b.w, 2.0 * b.w]), rng.choice([b.h, 0.5 * b.h, 2.0 * b.h])
        x = b.x + b.w if dx > 0 else b.x - w if dx < 0 else b.x
        y = b.y + b.h if dy > 0 else b.y - h if dy < 0 else b.y
        boxes.append(BoundingBox(x, y, w, h))
    return boxes


@pytest.mark.parametrize("reuse_iou", [0.0, 0.5, 1.0])
def test_overlap_candidates_match_the_former_pass_bit_for_bit(reuse_iou):
    rng = np.random.default_rng(2201)
    seen = dict.fromkeys(("identical", "touching", "candidates"), 0)
    for _ in range(600):
        face_boxes = random_boxes(rng, int(rng.integers(0, 6)))
        det_boxes = random_boxes(rng, int(rng.integers(0, 5)), face_boxes)
        det_boxes += zero_width_boxes(rng, face_boxes[:2])
        det_boxes += face_boxes[2:3]  # an identical box: IoU exactly 1
        rng.shuffle(det_boxes)
        active = active_faces(face_boxes)
        dets = [det(1, box, one_hot(7)) for box in det_boxes]
        want = reference_overlap_candidates(dets, active, reuse_iou)
        # same pairs, same order, every float the same bits
        assert exact(_overlap_candidates(dets, active, reuse_iou)) == exact(want)
        seen["identical"] += any(-c[0] == 1.0 for c in want)
        seen["touching"] += any(
            iou(d, f) == 0.0 and (d.x + d.w == f.x or f.x + f.w == d.x
                                  or d.y + d.h == f.y or f.y + f.h == d.y)
            for d in det_boxes for f in face_boxes)
        seen["candidates"] += len(want)
    assert all(seen.values()), seen


def test_reuse_ties_go_to_lower_detection_then_smaller_label():
    face_box = BoundingBox(100, 100, 100, 100)
    left, right = BoundingBox(50, 100, 100, 100), BoundingBox(150, 100, 100, 100)
    assert iou(left, face_box) == iou(right, face_box)
    config = cfg(reuse_iou=0.3)
    # two detections overlap one identity equally: the lower index wins
    for first, second in ((left, right), (right, left)):
        state = TrackerState(active=active_faces([face_box]), frame_cursor=0)
        step(state, 1, [det(1, first, one_hot(7)), det(1, second, one_hot(7))],
             gallery(), config)
        entries = state.results[-1].entries
        assert (entries[0].label, entries[0].source, entries[0].box) == \
            ("p0", SOURCE_REUSED, first)
        assert entries[1].source == SOURCE_CLASSIFIED
    # one detection overlaps two identities equally: the smaller label wins,
    # whatever the pool's insertion order
    state = TrackerState(active={
        "bob": TrackedFace("bob", left, 10, 10, 10, 0.25),
        "alice": TrackedFace("alice", right, 10, 10, 10, 0.25),
    }, frame_cursor=0)
    step(state, 1, [det(1, face_box, one_hot(7))], gallery(), config)
    entries = state.results[-1].entries
    assert (entries[0].label, entries[0].source) == ("alice", SOURCE_REUSED)
    assert (entries[1].label, entries[1].source) == ("bob", SOURCE_OCCLUDED)


def test_state_defaults():
    state = TrackerState()
    assert state.frame_cursor == -1
    assert state.classify_calls == 0
    assert state.results == []


# ---------------------------------------------------------------------------
# the initial window against its former, separate bookkeeping


# The duplicate rule as tracker.py held it before one winners table per frame
# took its place, kept verbatim: the former window below and the former step
# at the end of this file both call it.
def _resolve_frame(detected, placeholders):
    """Apply the duplicate-identity rules and return the final entry tuple.

    detected: list of FrameEntry from detections, in detection order.
    placeholders: occlusion placeholders, appended after detections.
    Among detected entries sharing a named label the smallest distance
    (then earliest detection) keeps it; a placeholder whose label was
    detected is dropped entirely.
    """
    winners = {}
    for i, e in enumerate(detected):
        if e.label == UNKNOWN:
            continue
        best = winners.get(e.label)
        if best is None or (e.distance, i) < (detected[best].distance, best):
            winners[e.label] = i
    out = []
    for i, e in enumerate(detected):
        if e.label != UNKNOWN and winners[e.label] != i:
            e = FrameEntry(UNKNOWN, e.box, e.distance, e.source)
        out.append(e)
    for p in placeholders:
        if p.label not in winners:
            out.append(p)
    return tuple(out)


def reference_run_initial_window(frames, gallery, cfg: TrackerConfig, frame_area=None) -> TrackerState:
    """run_initial_window as it was before it became a run of window steps:
    its own classify / resolve / observe / miss loop over a private faces
    dict, kept verbatim as the reference for the differential test."""
    frames = list(frames)
    if not frames:
        raise EmptyStream("no frames in the initial window")
    state = TrackerState(frame_cursor=frames[0][0] - 1)
    faces = {}  # label -> TrackedFace, in first-seen order
    for i, (frame_index, detections) in enumerate(frames):
        _advance(state, frame_index)
        kept = _kept(detections, frame_area, cfg.recognizer)
        labels, distances = _classify_batch(state, gallery, kept, cfg) if kept else ([], [])
        entries = _resolve_frame([
            FrameEntry(label, d.box, distance, SOURCE_CLASSIFIED)
            for d, label, distance in zip(kept, labels, distances)
        ], [])
        present = set()
        for e in entries:
            if e.label == UNKNOWN:
                continue
            present.add(e.label)
            face = faces.get(e.label)
            if face is None:
                # processed frames run from first sight to the window's end
                face = faces[e.label] = TrackedFace(
                    e.label, e.box, 0, len(frames) - i, 0, e.distance)
            _observe(face, e.box, e.distance, cfg)
        for label, face in faces.items():
            if label not in present:
                _miss(face)
        state.results.append(FrameResult(frame_index, entries))
    for label, face in faces.items():
        if face.appearance_ratio >= cfg.promote_ratio:
            face.continuous_appearances = cfg.cap
            state.active[label] = face
        else:
            state.inactive[label] = face
    return state


def unit(v):
    return v / np.linalg.norm(v)


def random_case(rng, policy):
    """(frames, window length, GalleryIndex or None, config, frame area).

    Up to five people, each present in a random share of frames with a
    jittered box and a noisy embedding, sometimes twice in one frame, plus
    strangers. The last person may be missing from the gallery, and one
    case in eight has no gallery at all. The area filter is off, absolute
    or fractional, and the stream may start past frame 0.
    """
    people = int(rng.integers(1, 6))
    centres = [unit(rng.normal(size=DIM)) for _ in range(people)]
    enrolled = people if rng.random() < 0.7 else people - 1
    index = None
    if enrolled and rng.random() >= 0.125:
        index = GalleryIndex(Gallery(entries={
            f"p{i}": [Prototype(unit(centres[i] + 0.2 * rng.normal(size=DIM)), 0)
                      for _ in range(int(rng.integers(1, 4)))]
            for i in range(enrolled)}))
    presence = rng.uniform(0.05, 1.0, people)
    places = [(rng.uniform(0, 1700), rng.uniform(0, 900), rng.uniform(40, 120))
              for _ in range(people)]
    sigma = rng.uniform(0.1, 0.6)
    start = int(rng.integers(0, 1000)) if rng.random() < 0.5 else 0
    window = int(rng.integers(1, 61))
    frames = []
    for f in range(start, start + window + int(rng.integers(0, 41))):
        dets = []
        for i in range(people):
            for _ in range(1 + (rng.random() < 0.1)):
                if rng.random() < presence[i]:
                    x, y, side = places[i]
                    side *= rng.uniform(0.9, 1.1)
                    box = BoundingBox(x + 5 * rng.normal(), y + 5 * rng.normal(), side, side)
                    dets.append(det(f, box, unit(centres[i] + sigma * rng.normal(size=DIM))))
        if rng.random() < 0.2:
            dets.append(det(f, BoundingBox(*rng.uniform(0, 1700, 2), 80, 80),
                            unit(rng.normal(size=DIM))))
        frames.append((f, dets))
    area = int(rng.integers(0, 3))
    recognizer = RecognizerConfig(
        unknown_threshold=float(rng.choice([0.3, 0.6, 1.0])),
        min_area=4000.0 if area == 1 else 0.0,
        min_area_fraction=0.002 if area == 2 else 0.0)
    cap = int(rng.integers(1, 11))
    config = cfg(new_face_policy=policy, cap=cap,
                 min_appearances=int(rng.integers(1, cap + 1)),
                 promote_ratio=float(rng.choice([0.2, 0.5, 0.8, 1.0])),
                 reuse_iou=float(rng.choice([0.3, 0.5])), recognizer=recognizer)
    frame_area = 1920 * 1080 if area == 2 or rng.random() < 0.5 else None
    return frames, window, index, config, frame_area


def assert_same_state(got, want):
    assert got.results == want.results
    assert got.classify_calls == want.classify_calls
    assert got.frame_cursor == want.frame_cursor
    # Pools compare as dicts, which ignore insertion order. The orders can
    # differ: the reference inserts a label at its winning detection,
    # step() at the label's first claim. No reader depends on it: step()
    # walks sorted(state.active) and fully sorted overlap candidates.
    assert got.active == want.active
    assert got.inactive == want.inactive


@pytest.mark.parametrize("policy", [tracker.NEW_FACE_INACTIVE, NEW_FACE_ACTIVE])
def test_window_steps_match_the_former_window(policy):
    rng = np.random.default_rng(1103 if policy == NEW_FACE_ACTIVE else 1109)
    seen = {"active": 0, "inactive": 0, "unknown": 0, "no gallery": 0, "tail": 0}
    for _ in range(200):
        frames, window, index, config, frame_area = random_case(rng, policy)
        want = reference_run_initial_window(frames[:window], index, config, frame_area)
        got = run_initial_window(frames[:window], index, config, frame_area)
        assert_same_state(got, want)
        for frame_index, detections in frames[window:]:
            step(want, frame_index, detections, index, config, frame_area)
            step(got, frame_index, detections, index, config, frame_area)
        assert_same_state(got, want)
        seen["active"] += bool(got.active)
        seen["inactive"] += bool(got.inactive)
        seen["unknown"] += any(UNKNOWN in r.labels() for r in got.results)
        seen["no gallery"] += index is None
        seen["tail"] += len(frames) > window
    assert all(seen.values()), seen


def test_window_holds_the_active_policy_until_its_end():
    # seen only in window frame 0 of 60: a step() would admit alice straight
    # to the active pool under this policy, but the window leaves her
    # inactive at a ratio of 1/60
    config = cfg(new_face_policy=NEW_FACE_ACTIVE)
    frames = [(0, [det(0, BOX_A, ALICE)])] + [(f, []) for f in range(1, 60)]
    for window in (run_initial_window, reference_run_initial_window):
        state = window(frames, gallery(), config)
        assert not state.active and set(state.inactive) == {"alice"}
        face = state.inactive["alice"]
        assert (face.total_appearances, face.total_frames_processed,
                face.continuous_appearances) == (1, 60, 0)


# ---------------------------------------------------------------------------
# step() against the former step, which ranked each frame's labels twice


# kept verbatim: a claims dict over the classified rows for the state
# updates, then _resolve_frame over all rows for duplicates and placeholders
def reference_step(state, frame_index, detections, gallery, cfg, frame_area, window):
    """step()'s body. With window set, a match never promotes and a new
    label always starts inactive: run_initial_window promotes at its end."""
    _advance(state, frame_index)
    kept = _kept(detections, frame_area, cfg.recognizer)

    # 1. every identity tracked at frame start ages one processed frame
    for face in [*state.active.values(), *state.inactive.values()]:
        face.total_frames_processed += 1

    # 2. box-overlap reuse against active identities, greedy highest first
    entry_slots = [None] * len(kept)
    matched_labels = set()
    for _, di, label in sorted(reference_overlap_candidates(kept, state.active, cfg.reuse_iou)):
        if entry_slots[di] is None and label not in matched_labels:
            matched_labels.add(label)
            face = state.active[label]
            _observe(face, kept[di].box, face.last_distance, cfg)
            entry_slots[di] = FrameEntry(
                label, face.last_box, face.last_distance, SOURCE_REUSED)

    # 3. classify everything the reuse pass did not claim; the closest
    # detection speaks for its label when it comes to state updates
    rest = [di for di, slot in enumerate(entry_slots) if slot is None]
    labels, distances = (_classify_batch(state, gallery, [kept[di] for di in rest], cfg)
                          if rest else ([], []))
    claims = {}  # label -> (distance, detection idx) of its closest claim
    for di, label, distance in zip(rest, labels, distances):
        entry_slots[di] = FrameEntry(label, kept[di].box, distance, SOURCE_CLASSIFIED)
        if label != UNKNOWN and (distance, di) < claims.get(label, (math.inf, di)):
            claims[label] = (distance, di)
    promoted = set()
    for label, (distance, di) in claims.items():
        box = kept[di].box
        if label in state.active:
            # matched by identity but not by position: emit only, and let
            # the missing branch handle the tracked box
            continue
        if label in state.inactive:
            face = state.inactive[label]
            _observe(face, box, distance, cfg)
            if not window and face.appearance_ratio >= cfg.promote_ratio:
                _promote(state, face, cfg)
                promoted.add(label)
        else:
            face = state.inactive[label] = TrackedFace(label, box, 1, 1, 1, distance)
            if not window and cfg.new_face_policy == NEW_FACE_ACTIVE:
                _promote(state, face, cfg)
                promoted.add(label)

    # 4a. active identities with no overlap match lose confidence and are
    # bridged as occluded while the counter holds, demoted otherwise
    placeholders = []
    demoted = set()
    for label in sorted(state.active):
        if label in matched_labels or label in promoted:
            continue
        face = state.active[label]
        _miss(face)
        if face.continuous_appearances >= cfg.min_appearances:
            placeholders.append(FrameEntry(
                label, face.last_box, face.last_distance, SOURCE_OCCLUDED))
        else:
            del state.active[label]
            state.inactive[label] = face
            demoted.add(label)

    # 4b. unmatched inactive identities decay their confidence counter too
    for label, face in state.inactive.items():
        if label not in claims and label not in demoted:
            _miss(face)

    entries = _resolve_frame(entry_slots, placeholders)
    state.results.append(FrameResult(frame_index, entries))
    return state


def reference_run(frames, gallery, cfg, frame_area, seen):
    """tracker.run shaped over reference_step: window steps, the promotion
    pass, then one step per frame, counting the steps' promotions and
    demotions in seen."""
    window = frames[:cfg.window_frames()]
    state = TrackerState(frame_cursor=window[0][0] - 1)
    for frame_index, detections in window:
        reference_step(state, frame_index, detections, gallery, cfg, frame_area, window=True)
    for face in [f for f in state.inactive.values()
                 if f.appearance_ratio >= cfg.promote_ratio]:
        _promote(state, face, cfg)
    for frame_index, detections in frames[len(window):]:
        active = set(state.active)
        inactive = bool(state.inactive)
        reference_step(state, frame_index, detections, gallery, cfg, frame_area, window=False)
        seen["promoted"] += len(state.active.keys() - active)
        seen["demoted"] += len(state.inactive.keys() & active)
        # a frame with detections, every one claimed by overlap: step()
        # builds no winners table for it
        entries = state.results[-1].entries
        reused = {e.label for e in entries if e.source == SOURCE_REUSED}
        if reused and all(e.source != SOURCE_CLASSIFIED for e in entries):
            seen["reuse only, inactive tracked"] += inactive
            seen["reuse only, active missing"] += bool(active - reused)
    return state


def exact(value):
    """value with every float spelled as its bits and every record as its
    type name and fields, so == compares bit for bit and type for type."""
    if isinstance(value, float):
        return type(value).__name__, struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(map(exact, value))
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            exact(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


@pytest.mark.parametrize("policy", [tracker.NEW_FACE_INACTIVE, NEW_FACE_ACTIVE])
def test_run_matches_the_former_step(policy, monkeypatch):
    rng = np.random.default_rng(1601 if policy == NEW_FACE_ACTIVE else 1607)
    seen = dict.fromkeys(("promoted", "demoted", "occluded", "placeholder dropped",
                          "relabeled", "reused relabeled", "no gallery",
                          "reuse only, inactive tracked", "reuse only, active missing"), 0)

    def counting_resolve(detected, placeholders, resolve=_resolve_frame):
        entries = resolve(detected, placeholders)
        relabeled = [e for e, out in zip(detected, entries) if e.label != out.label]
        seen["relabeled"] += len(relabeled)
        seen["reused relabeled"] += sum(e.source == SOURCE_REUSED for e in relabeled)
        seen["occluded"] += len(entries) - len(detected)
        seen["placeholder dropped"] += len(detected) + len(placeholders) - len(entries)
        return entries

    monkeypatch.setitem(globals(), "_resolve_frame", counting_resolve)
    for _ in range(400):
        frames, window, index, config, frame_area = random_case(rng, policy)
        # the case's own window length: ceil((window - 0.5) / fps * fps)
        config = dataclasses.replace(config, init_window_seconds=(window - 0.5) / config.fps)
        assert config.window_frames() == window
        want = reference_run(frames, index, config, frame_area, seen)
        got = run(frames, index, config, frame_area)
        assert exact(got.results) == exact(want.results)
        assert got.classify_calls == want.classify_calls
        assert got.frame_cursor == want.frame_cursor
        for pool in ("active", "inactive"):  # keys in insertion order
            assert exact(list(getattr(got, pool).items())) == \
                exact(list(getattr(want, pool).items()))
        seen["no gallery"] += index is None
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# the tracker builds its records without FrameEntry's checks


def assert_entries_pass_the_constructor(results):
    """Every record the tracker built unchecked is one that the public
    constructors build, equal bit for bit and type for type."""
    for r in results:
        assert exact(FrameResult(*r)) == exact(r)
        for e in r.entries:
            assert exact(FrameEntry(*e)) == exact(e)


@pytest.mark.parametrize("policy", [tracker.NEW_FACE_INACTIVE, NEW_FACE_ACTIVE])
def test_unchecked_entries_rebuild_through_the_public_constructor(policy):
    # the seeded streams of test_run_matches_the_former_step, then the fixture
    rng = np.random.default_rng(1601 if policy == NEW_FACE_ACTIVE else 1607)
    sources = set()
    for _ in range(400):
        frames, window, index, config, frame_area = random_case(rng, policy)
        config = dataclasses.replace(config, init_window_seconds=(window - 0.5) / config.fps)
        results = run(frames, index, config, frame_area).results
        assert_entries_pass_the_constructor(results)
        sources.update(e.source for r in results for e in r.entries)
    assert sources == set(ENTRY_SOURCES)
    data = Path(__file__).parent / "data"
    header, frames = read_stream(data / "tracker_fixture_stream.jsonl")
    state = run(frames, read_gallery(data / "tracker_fixture_gallery.json"),
                TrackerConfig(fps=header.fps, new_face_policy=policy), header.frame_area)
    assert_entries_pass_the_constructor(state.results)


@pytest.mark.parametrize("distance, words", [
    (-1.0, "distance must be non-negative: -1.0"),
    (math.nan, "distance must be finite: non-finite value in [nan]"),
    (math.inf, "distance must be finite: non-finite value in [inf]"),
])
def test_a_callers_bad_last_distance_is_refused_by_write_results(tmp_path, distance, words):
    # step takes a caller-built face's last_distance into its reused and
    # occluded entries unchecked; write_results refuses to write either
    box = BoundingBox(40.0, 40.0, 30.0, 30.0)
    for detections in ([det(1, box, one_hot(7))], []):
        face = TrackedFace("p0", box, 10, 10, 10, distance)
        state = step(TrackerState(active={"p0": face}, frame_cursor=0),
                     1, detections, gallery(), cfg())
        (entry,) = [e for e in state.results[-1].entries if e.label == "p0"]
        assert entry.source == (SOURCE_REUSED if detections else SOURCE_OCCLUDED)
        path = tmp_path / "results.jsonl"
        with pytest.raises(ValueError) as exc:
            write_results(state.results, path)
        assert str(exc.value) == f"frame 1: {words}"
        assert not path.exists()
