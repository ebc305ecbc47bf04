"""Tracker state machine: window bootstrap, reuse, occlusion, consistency.

Scripted streams use 8-dimensional one-hot embeddings so every distance is
exactly 0, 0.5, or 1 and the expected behavior can be stated by hand.
"""

import numpy as np
import pytest

from prototrack.errors import EmptyStream, OutOfOrderFrame
from prototrack.gallery import Gallery, Prototype
from prototrack.recognizer import RecognizerConfig
from prototrack.tracker import (
    NEW_FACE_ACTIVE,
    TrackedFace,
    TrackerConfig,
    TrackerState,
    _overlap_candidates,
    run,
    run_initial_window,
    step,
)
from prototrack.types import (
    SOURCE_CLASSIFIED,
    SOURCE_OCCLUDED,
    SOURCE_REUSED,
    UNKNOWN,
    BoundingBox,
    Detection,
    iou,
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
    return Gallery(entries={
        "alice": [Prototype(ALICE, 0)],
        "bob": [Prototype(BOB, 0)],
        "carol": [Prototype(CAROL, 0)],
    })


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
    with pytest.raises(EmptyStream):
        run([], gallery(), cfg())


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
# overlap association against the per-pair types.iou reference


def random_boxes(rng, n, pool=()):
    """Boxes on a coarse grid (touching edges are common), with identical
    and nested copies of earlier boxes mixed in, plus a few off-grid ones."""
    boxes = []
    for _ in range(n):
        earlier = list(pool) + boxes
        kind = rng.integers(0, 5)
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
        else:
            boxes.append(BoundingBox(*(10 * rng.integers(0, 6, 2)),
                                     *(10 * rng.integers(1, 4, 2))))
    return boxes


def reference_association(det_boxes, active, reuse_iou):
    """Candidates and greedy matches built with one types.iou call a pair."""
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


@pytest.mark.parametrize("reuse_iou", [0.0, 0.5, 1.0])
def test_overlap_association_matches_per_pair_iou(reuse_iou):
    rng = np.random.default_rng(401)
    config = cfg(reuse_iou=reuse_iou)
    for _ in range(300):
        face_boxes = random_boxes(rng, int(rng.integers(0, 6)))
        det_boxes = random_boxes(rng, int(rng.integers(0, 7)), face_boxes)
        active = active_faces(face_boxes)
        want, want_reused = reference_association(det_boxes, active, reuse_iou)
        dets = [det(1, box, one_hot(7)) for box in det_boxes]
        # exact equality: same pairs, same order, same float bits
        assert _overlap_candidates(dets, active, reuse_iou) == want

        state = TrackerState(active=active, frame_cursor=0)
        step(state, 1, dets, gallery(), config)
        got_reused = {di: e.label
                      for di, e in enumerate(state.results[-1].entries[:len(dets)])
                      if e.source == SOURCE_REUSED}
        assert got_reused == want_reused


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
