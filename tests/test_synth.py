"""Synthetic benchmark generator: determinism, events, separability, splits."""

import dataclasses
import importlib.util
import json
import typing
from pathlib import Path

import numpy as np
import pytest

from prototrack.errors import InfeasibleSpec, InvalidSplit, ParseError
from prototrack.synth import (
    BACKGROUND_SEPARATION,
    Event,
    ScenarioSpec,
    default_train_seconds,
    generate,
    load_scenario,
    parse_scenario,
    split_train_test,
)
from prototrack.types import cosine_distance

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
            assert cosine_distance(d.embedding, e) >= BACKGROUND_SEPARATION


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
