"""Synthetic benchmark generator: determinism, events, separability, splits."""

import dataclasses
import importlib
import importlib.util
import json
import math
import struct
import typing
from pathlib import Path

import numpy as np
import pytest

from prototrack.errors import InfeasibleSpec, InvalidSplit, ParseError
from prototrack.synth import (
    _EMBED_BLOCK,
    BACKGROUND_FACE_SIZE,
    BACKGROUND_SEPARATION,
    EVENT_BACKGROUND,
    FACE_SIZE,
    MAX_DRAWS,
    MIN_SEPARATION,
    Event,
    GroundTruthStream,
    ScenarioSpec,
    _draw_separated,
    _presence_masks,
    default_train_seconds,
    generate,
    load_scenario,
    parse_scenario,
    split_train_test,
)
from prototrack.types import BoundingBox, Detection, l2_normalize_rows

DATA = Path(__file__).parent / "data"


def small_spec(**overrides):
    base = dict(participants=2, duration_seconds=4.0, seed=5,
                embedding_dim=16, fps=30.0)
    base.update(overrides)
    return ScenarioSpec(**base)


def detections_by_label(stream):
    out = {}
    for frame_index, dets in stream.frames:
        for d in dets:
            out.setdefault(d.gt_label, []).append((frame_index, d))
    return out


# ---------------------------------------------------------------------------
# spec and event validation


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(participants=0)
    with pytest.raises(ValueError):
        small_spec(duration_seconds=0)
    with pytest.raises(ValueError):
        small_spec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        small_spec(fps=float("nan"))
    with pytest.raises(ValueError):
        small_spec(motion_sigma=float("nan"))
    with pytest.raises(ValueError):
        small_spec(embedding_dim=1)
    with pytest.raises(ValueError):
        small_spec(frame_width=0)
    with pytest.raises(ValueError):
        small_spec(frame_height=-1080)
    with pytest.raises(ValueError, match=r"duration_seconds \* fps must be finite"):
        small_spec(duration_seconds=1e200, fps=1e200)
    with pytest.raises(ValueError, match=r"duration_seconds \* fps must be .*sys.maxsize"):
        small_spec(duration_seconds=1e300, fps=1.0)
    with pytest.raises(ValueError):
        Event("teleport", "p01", 0)
    with pytest.raises(ValueError):
        Event("exit", "p01", -1)


def test_spec_labels_and_frame_count():
    spec = small_spec(participants=3)
    assert spec.labels == ("p01", "p02", "p03")
    assert spec.n_frames == 120


def test_event_with_unknown_subject_rejected():
    spec = small_spec(events=(Event("occlusion", "p09", 10, 4),))
    with pytest.raises(ValueError):
        generate(spec)


# ---------------------------------------------------------------------------
# generation basics


def test_generate_is_deterministic():
    spec = small_spec(events=(Event("occlusion", "p01", 20, 5),))
    a = generate(spec)
    b = generate(spec)
    assert a.presence == b.presence
    assert len(a.frames) == len(b.frames)
    for (fa, da), (fb, db) in zip(a.frames, b.frames):
        assert fa == fb
        assert len(da) == len(db)
        for x, y in zip(da, db):
            assert x.box == y.box
            assert x.gt_label == y.gt_label
            assert np.array_equal(x.embedding, y.embedding)


def test_generate_zero_noise_reuses_pose_centers_exactly():
    spec = small_spec(noise_sigma=0.0, pose_clusters_per_participant=1)
    stream = generate(spec)
    per_label = detections_by_label(stream)
    for label in spec.labels:
        embs = [d.embedding for _, d in per_label[label]]
        assert len(embs) == spec.n_frames
        for e in embs[1:]:
            assert np.array_equal(e, embs[0])


def test_generate_embeddings_are_unit_norm_with_dims():
    stream = generate(small_spec(noise_sigma=0.2))
    for _, dets in stream.frames:
        for d in dets:
            assert d.embedding.shape == (16,)
            assert abs(np.linalg.norm(d.embedding) - 1.0) < 1e-9


def test_occlusion_suppresses_detection_but_keeps_presence():
    spec = small_spec(events=(Event("occlusion", "p01", 100, 4),))
    stream = generate(spec)
    for f, dets in stream.frames:
        labels = {d.gt_label for d in dets}
        if 100 <= f < 104:
            assert "p01" not in labels
        else:
            assert "p01" in labels
        assert "p01" in stream.presence[f]  # occluded is still present


def test_exit_and_reenter_gate_presence():
    spec = small_spec(events=(
        Event("exit", "p02", 40),          # open-ended exit
        Event("reenter", "p02", 70),
    ))
    stream = generate(spec)
    for f in range(spec.n_frames):
        present = "p02" in stream.presence[f]
        detected = any(d.gt_label == "p02" for d in dict(stream.frames)[f])
        assert present == (f < 40 or f >= 70)
        assert detected == present


def test_exit_with_length_reenters_automatically():
    spec = small_spec(events=(Event("exit", "p01", 30, 25),))
    stream = generate(spec)
    gone = [f for f in range(spec.n_frames)
            if "p01" not in stream.presence[f]]
    assert gone == list(range(30, 55))


def test_background_faces_are_small_unlabeled_and_far():
    spec = small_spec(
        noise_sigma=0.0,
        events=(Event("background_face", "bg1", 10, 20),))
    stream = generate(spec)
    per_label = detections_by_label(stream)
    bg = per_label.pop(None)
    assert [f for f, _ in bg] == list(range(10, 30))
    participant_embs = [d.embedding for dets in per_label.values()
                        for _, d in dets]
    for _, d in bg:
        assert d.box.w == 16.0 and d.box.h == 16.0
        for e in participant_embs:
            assert 1.0 - d.embedding @ e >= BACKGROUND_SEPARATION


def test_events_do_not_perturb_other_draws():
    """Occluding one participant must not change anyone else's stream."""
    plain = generate(small_spec())
    eventful = generate(small_spec(events=(Event("occlusion", "p01", 10, 30),)))
    for (_, da), (_, db) in zip(plain.frames, eventful.frames):
        a = {d.gt_label: d for d in da}
        b = {d.gt_label: d for d in db}
        assert np.array_equal(a["p02"].embedding, b["p02"].embedding)
        assert a["p02"].box == b["p02"].box


def test_boxes_stay_inside_the_frame():
    spec = small_spec(duration_seconds=10.0, motion_sigma=40.0,
                      frame_width=640, frame_height=360)
    stream = generate(spec)
    for _, dets in stream.frames:
        for d in dets:
            assert d.box.x >= 0 and d.box.y >= 0
            assert type(d.box.x) is float and type(d.box.y) is float
            assert d.box.x + d.box.w <= 640
            assert d.box.y + d.box.h <= 360


def test_separability_oracle_nearest_training_sample():
    """At the default noise level every test embedding is closer to its own
    participant's training samples than to anyone else's."""
    spec = small_spec(participants=3, duration_seconds=8.0, seed=9,
                      embedding_dim=32, noise_sigma=0.05)
    tracks, test = split_train_test(generate(spec), 6.0)
    mats = {t.label: t.matrix() for t in tracks}
    checked = 0
    for _, dets in test.frames:
        for d in dets:
            best = min(mats, key=lambda l: float(
                np.min(1.0 - mats[l] @ d.embedding)))
            assert best == d.gt_label
            checked += 1
    assert checked == 3 * 60


def test_infeasible_separation_raises():
    # 2 dimensions cannot hold 40 participants x 4 poses at separation 0.3
    spec = small_spec(participants=40, embedding_dim=2, duration_seconds=1.0)
    with pytest.raises(InfeasibleSpec):
        generate(spec)


def digests_module():
    spec = importlib.util.spec_from_file_location(
        "make_synth_digests", DATA / "make_synth_digests.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_generated_files_match_pinned_digests():
    """stream, tracks and truth files are byte-identical to the recorded ones
    (zero noise, clamped still faces, a background face past the end, an
    occlusion, exits and a reenter)."""
    mod = digests_module()
    pinned = json.loads((DATA / mod.DIGESTS_NAME).read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(mod.SCENARIOS)
    assert mod.digests() == pinned


def test_classroom_scenario_is_what_its_script_writes(tmp_path):
    """classroom_scenario.cfg, acceptance criterion 11's input, is the
    script's output, and its occlusions follow the script's placement rule."""
    spec = importlib.util.spec_from_file_location(
        "make_classroom_scenario", DATA / "make_classroom_scenario.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.main(tmp_path / "classroom.cfg")
    committed = DATA / "classroom_scenario.cfg"
    assert (tmp_path / "classroom.cfg").read_bytes() == committed.read_bytes()
    spec = load_scenario(committed)
    for label in spec.labels:
        starts = [e.start for e in spec.events if e.subject == label]
        assert 1200 <= starts[0] < 1260 and starts[-1] < 1800 - 14
        assert all(50 <= b - a <= 70 for a, b in zip(starts, starts[1:]))
    assert all(e.kind == "occlusion" and 3 <= e.length <= 14 for e in spec.events)


def test_reuse_scenario_is_files_512d_at_inputs_seed_7(monkeypatch):
    """reuse_scenario.cfg, the reuse-path input of tools/step_profile.py,
    is perfbench's files_512d scenario at inputs seed 7."""
    monkeypatch.syspath_prepend(str(DATA.parents[1] / "perfbench"))
    workload = importlib.import_module("workload")
    wanted = workload.scenario(workload.WORKLOADS["files_512d"], "full", 7)
    assert load_scenario(DATA / "reuse_scenario.cfg") == wanted


def test_churn_scenario_is_churn_classify_at_inputs_seed_7(monkeypatch):
    """churn_scenario.cfg, the generation and classify-path input of
    tools/step_profile.py, is perfbench's churn_classify scenario at inputs
    seed 7."""
    monkeypatch.syspath_prepend(str(DATA.parents[1] / "perfbench"))
    workload = importlib.import_module("workload")
    wanted = workload.scenario(workload.WORKLOADS["churn_classify"], "full", 7)
    assert load_scenario(DATA / "churn_scenario.cfg") == wanted


# ---------------------------------------------------------------------------
# generate against its three-call form


# kept verbatim: the draw loop as it was when each face took three Generator
# calls per frame (a pose, a normal(0, noise_sigma, dim) noise vector and a
# normal(0, motion_sigma, 2) jitter), the noise copied into its row
def reference_generate(spec: ScenarioSpec) -> GroundTruthStream:
    """Produce the full stream for a scenario. Deterministic in the spec.

    The draws follow the order in the module docstring. Every embedding is
    a row of one (detections, dim) matrix: the draw loop writes each row's
    noise and builds the detections around the rows, and a second pass then
    adds each row's pose center and unit-normalizes the rows a block at a
    time, bit for bit as one l2_normalize per row would. With noise_sigma 0
    the rows are plain copies of their centers.
    """
    rng = np.random.default_rng(spec.seed)
    dim = spec.embedding_dim
    labels = spec.labels
    poses = spec.pose_clusters_per_participant

    # pose centers: free within a participant, separated across participants
    budget = MAX_DRAWS
    centers = []
    for _ in labels:
        own = []
        for _ in range(poses):
            v, used = _draw_separated(rng, dim, centers, MIN_SEPARATION, budget)
            budget -= used
            own.append(v)
        centers += own

    background_events = [e for e in spec.events if e.kind == EVENT_BACKGROUND]
    background_dirs = []
    for _ in background_events:
        v, used = _draw_separated(rng, dim, centers, BACKGROUND_SEPARATION, budget)
        budget -= used
        background_dirs.append(v)
    # participant i's pose p is row i * poses + p, background event j's
    # direction row len(labels) * poses + j
    centers = np.array(centers + background_dirs)

    in_scene, occluded = _presence_masks(spec)
    n = spec.n_frames
    windows = [(ev.start, min(ev.start + ev.length, n)) for ev in background_events]
    total = (sum(int(np.count_nonzero(in_scene[l] & ~occluded[l])) for l in labels)
             + sum(max(0, stop - start) for start, stop in windows))
    emb = np.empty((total, dim))
    sources = []

    width, height = spec.frame_width, spec.frame_height
    noise_sigma, motion_sigma = spec.noise_sigma, spec.motion_sigma
    # participants start on a grid, background faces along the top edge
    cols = math.ceil(math.sqrt(len(labels)))
    rows = math.ceil(len(labels) / cols)
    xs = [width * (i % cols + 0.5) / cols for i in range(len(labels))]
    ys = [height * (i // cols + 0.5) / rows for i in range(len(labels))]
    n_bg = len(background_events)
    bg_xs = [width * (j + 1) / (n_bg + 1) for j in range(n_bg)]
    bg_ys = [40.0] * n_bg
    scene = [in_scene[l].tolist() for l in labels]
    hidden = [occluded[l].tolist() for l in labels]

    half = FACE_SIZE / 2
    x_hi, y_hi = width - half, height - half
    box_x_hi, box_y_hi = width - FACE_SIZE, height - FACE_SIZE
    bg_half = BACKGROUND_FACE_SIZE / 2
    bg_x_hi, bg_y_hi = width - BACKGROUND_FACE_SIZE, height - BACKGROUND_FACE_SIZE

    frames = []
    presence = {}
    row = 0
    for f in range(n):
        detections = []
        present_now = []
        for i, label in enumerate(labels):
            pose = int(rng.integers(poses))
            noise = rng.normal(0.0, noise_sigma, dim) if noise_sigma > 0 else None
            jx, jy = (rng.normal(0.0, motion_sigma, 2).tolist()
                      if motion_sigma > 0 else (0.0, 0.0))
            # min(max(v, lo), hi) as conditionals: max keeps v unless lo > v,
            # min keeps m unless hi < m
            x, y = xs[i] + jx, ys[i] + jy
            x, y = half if half > x else x, half if half > y else y
            xs[i] = x = x_hi if x_hi < x else x
            ys[i] = y = y_hi if y_hi < y else y
            if not scene[i][f]:
                continue
            present_now.append(label)
            if hidden[i][f]:
                continue
            if noise is not None:
                emb[row] = noise
            sources.append(i * poses + pose)
            x, y = x - half, y - half
            x, y = 0.0 if 0.0 > x else x, 0.0 if 0.0 > y else y
            x = box_x_hi if box_x_hi < x else x
            y = box_y_hi if box_y_hi < y else y
            detections.append(Detection(
                f, BoundingBox(x, y, FACE_SIZE, FACE_SIZE), emb[row], label))
            row += 1
        for j, (start, stop) in enumerate(windows):
            if not start <= f < stop:
                continue
            noise = rng.normal(0.0, noise_sigma, dim) if noise_sigma > 0 else None
            jx, jy = (rng.normal(0.0, motion_sigma, 2).tolist()
                      if motion_sigma > 0 else (0.0, 0.0))
            bg_xs[j] += jx
            bg_ys[j] += jy
            if noise is not None:
                emb[row] = noise
            sources.append(len(labels) * poses + j)
            x = min(max(bg_xs[j] - bg_half, 0.0), bg_x_hi)
            y = min(max(bg_ys[j] - bg_half, 0.0), bg_y_hi)
            detections.append(Detection(
                f, BoundingBox(x, y, BACKGROUND_FACE_SIZE, BACKGROUND_FACE_SIZE), emb[row]))
            row += 1
        frames.append((f, detections))
        presence[f] = tuple(present_now)

    # block-wise, so the gathered centers never take a second full matrix
    sources = np.array(sources, dtype=np.intp)
    for lo in range(0, total, _EMBED_BLOCK):
        block = emb[lo:lo + _EMBED_BLOCK]
        picked = centers[sources[lo:lo + _EMBED_BLOCK]]
        if noise_sigma > 0:
            block += picked
            l2_normalize_rows(block, out=block)
        else:
            block[...] = picked

    return GroundTruthStream(
        fps=spec.fps,
        frame_width=width,
        frame_height=height,
        embedding_dim=dim,
        frames=frames,
        presence=presence,
    )



def differential_specs():
    """48 small specs over the four (noise, motion) zero/non-zero pairs.

    Each has an occlusion of p01, an exit of p02 with no length and a later
    reenter (from the first frame in every fifth spec, so p02 is missing
    from training), and one background face. Its tail is one of three: the last
    participant exits for good and the background face is gone before the
    end, so the last draws of the stream are absent faces' and land past
    the last row; the background face runs past the end; or the last
    participant's exit is timed. Every other spec has a frame so small that
    the boxes clamp at its edges.
    """
    for case in range(48):
        r = np.random.default_rng([25, case])
        noise_sigma, motion_sigma = ((0.0, 0.0), (0.0, 6.0), (0.05, 0.0), (0.05, 6.0))[case % 4]
        tail = case // 4 % 3
        participants = 3 + case % 2
        last = f"p0{participants}"
        n = int(r.integers(24, 40))
        occluded = int(r.integers(0, n - 6))
        # p02 leaves at the start of every fifth spec: missing from training
        gone = int(r.integers(0, n // 3)) if case % 5 else 0
        back = int(r.integers(n // 2, n - 2))
        events = [Event("occlusion", "p01", occluded, int(r.integers(1, 6))),
                  Event("exit", "p02", gone, 0),
                  Event("reenter", "p02", back)]
        bg_start = int(r.integers(0, n // 2))
        if tail == 0:
            leaves = int(r.integers(n - 6, n - 1))
            events += [Event("exit", last, leaves, 0),
                       Event("background_face", "bg", bg_start, leaves - 1 - bg_start)]
        elif tail == 1:
            events.append(Event("background_face", "bg", bg_start, n))
        else:
            events += [Event("exit", last, int(r.integers(0, n - 8)), int(r.integers(1, 8))),
                       Event("background_face", "bg", bg_start, int(r.integers(1, n // 2)))]
        small = case // 2 % 2 == 0
        yield ScenarioSpec(
            participants=participants, duration_seconds=n / 10, seed=case,
            pose_clusters_per_participant=int(r.integers(1, 4)),
            embedding_dim=int(r.integers(8, 17)), noise_sigma=noise_sigma, fps=10.0,
            motion_sigma=motion_sigma, events=tuple(r.permutation(events)),
            frame_width=130 if small else 640, frame_height=110 if small else 480,
            train_seconds=n / 30)


def box_bits(box):
    return [(type(v), struct.pack("<d", v)) for v in (box.x, box.y, box.w, box.h)]


def test_generate_draws_the_numbers_of_its_three_call_form():
    """One standard-normal draw per face and frame gives every embedding bit,
    box, frame, label and presence of the former three Generator calls, in
    records equal to those the dataclass constructors build."""
    ends = set()
    clamped = missing = 0
    for spec in differential_specs():
        got, want = generate(spec), reference_generate(spec)
        assert got.presence == want.presence
        assert [f for f, _ in got.frames] == [f for f, _ in want.frames]
        for (_, dets), (_, ref) in zip(got.frames, want.frames):
            assert [(type(d), d.frame, d.gt_label) for d in dets] == \
                [(type(d), d.frame, d.gt_label) for d in ref]
            assert [box_bits(d.box) for d in dets] == [box_bits(d.box) for d in ref]
            assert [d.box for d in dets] == [d.box for d in ref]
            assert all(np.array_equal(d.embedding.view(np.uint64), e.embedding.view(np.uint64))
                       for d, e in zip(dets, ref))
            clamped += any(d.box.x == 0.0 or d.box.x + d.box.w == spec.frame_width
                           for d in dets)
        train_seconds = default_train_seconds(spec)
        got_tracks, got_test = split_train_test(got, train_seconds)
        want_tracks, want_test = split_train_test(want, train_seconds)
        assert got_test.missing_in_training == want_test.missing_in_training
        assert [t.label for t in got_tracks] == [t.label for t in want_tracks]
        missing += bool(got_test.missing_in_training)
        # the face drawn last in the stream: a background face past the end,
        # or the last participant gone, whose draw lands past the last row
        last = got.frames[-1][1]
        sigmas = (spec.noise_sigma > 0, spec.motion_sigma > 0)
        if last[-1].gt_label is None:
            ends.add(("background",) + sigmas)
        elif spec.labels[-1] not in got.presence[spec.n_frames - 1]:
            ends.add(("absent",) + sigmas)
    assert ends == {(end, noise, motion) for end in ("background", "absent")
                    for noise in (False, True) for motion in (False, True)}
    assert clamped > 0 and missing > 0


# ---------------------------------------------------------------------------
# split_train_test


def test_split_sizes_and_frame_indices():
    spec = small_spec(duration_seconds=10.0)
    stream = generate(spec)
    tracks, test = split_train_test(stream, 8.0)
    assert {t.label for t in tracks} == {"p01", "p02"}
    for t in tracks:
        assert len(t.samples) == 240
        assert t.samples[0][0] == 0
        assert t.samples[-1][0] == 239
    # the test stream keeps original frame indices
    assert test.frames[0][0] == 240
    assert test.frames[-1][0] == 299
    assert sorted(test.presence) == list(range(240, 300))
    assert test.missing_in_training == ()


def test_split_single_test_frame_boundary():
    spec = small_spec(duration_seconds=2.0)
    stream = generate(spec)
    tracks, test = split_train_test(stream, 2.0 - 1.0 / 30.0)
    assert len(test.frames) == 1
    assert len(tracks[0].samples) == 59


def test_split_rejects_degenerate_cuts():
    stream = generate(small_spec())
    with pytest.raises(InvalidSplit):
        split_train_test(stream, 0.0)
    with pytest.raises(InvalidSplit):
        split_train_test(stream, 99.0)
    for train_seconds in (float("nan"), float("inf"), 1e308):
        with pytest.raises(InvalidSplit, match=r"train_seconds \* fps must be finite"):
            split_train_test(stream, train_seconds)


def test_split_reports_participant_missing_from_training():
    spec = small_spec(events=(Event("exit", "p01", 0, 60),))
    stream = generate(spec)
    tracks, test = split_train_test(stream, 2.0)  # p01 absent in frames 0-59
    assert {t.label for t in tracks} == {"p02"}
    assert test.missing_in_training == ("p01",)


def test_default_train_seconds():
    assert default_train_seconds(small_spec()) == pytest.approx(3.2)
    assert default_train_seconds(small_spec(train_seconds=1.5)) == 1.5


# ---------------------------------------------------------------------------
# scenario config parsing


GOOD_CONFIG = """
# comment line
participants = 2
duration_seconds = 4
seed = 5
embedding_dim = 16
event = occlusion p01 20 5
event = background_face bg 10 30
"""


def test_parse_scenario_round_trip():
    spec = parse_scenario(GOOD_CONFIG)
    assert spec.participants == 2
    assert spec.embedding_dim == 16
    assert spec.events == (
        Event("occlusion", "p01", 20, 5),
        Event("background_face", "bg", 10, 30),
    )


def test_parse_scenario_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_scenario("participants = 2\nbogus line\n")
    assert err.value.line_number == 2
    with pytest.raises(ParseError) as err:
        parse_scenario("participants = two\n")
    assert err.value.line_number == 1
    with pytest.raises(ParseError) as err:
        parse_scenario("unknown_key = 3\n")
    assert err.value.line_number == 1


def test_parse_scenario_requires_core_keys():
    with pytest.raises(ParseError):
        parse_scenario("participants = 2\nduration_seconds = 4\n")


def test_every_spec_field_is_a_scenario_key_read_with_its_type():
    base = "participants = 2\nduration_seconds = 4\nseed = 5\n"
    hints = typing.get_type_hints(ScenarioSpec)
    for f in dataclasses.fields(ScenarioSpec):
        if f.name == "events":
            continue
        value = getattr(parse_scenario(base + f"{f.name} = 3\n"), f.name)
        assert value == 3
        assert type(value) is (int if hints[f.name] is int else float), f.name
        if hints[f.name] is int:
            with pytest.raises(ParseError, match=f"bad value for {f.name}"):
                parse_scenario(base + f"{f.name} = 3.5\n")
        else:
            assert getattr(parse_scenario(base + f"{f.name} = 3.5\n"), f.name) == 3.5
        if f.default is dataclasses.MISSING:
            with pytest.raises(ParseError, match=f"missing required scenario key: '{f.name}'"):
                parse_scenario(base.replace(f"{f.name} = ", "# "))
