"""The committed 200-frame hand-simulated scenario.

The generator script derives the input stream, the gallery, and the
expected output from an explicit event schedule without ever importing
the tracker. These tests pin the committed files to that script and the
tracker's behavior to the committed files, byte for byte.
"""

import importlib.util
from pathlib import Path

from prototrack.stream_io import iter_stream, read_gallery, read_stream, write_results
from prototrack.tracker import TrackerConfig, run

DATA = Path(__file__).parent / "data"


def fixture_module():
    spec = importlib.util.spec_from_file_location(
        "make_tracker_fixture", DATA / "make_tracker_fixture.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_committed_files_match_their_generator(tmp_path):
    mod = fixture_module()
    mod.main(tmp_path)
    for name in mod.FIXTURE_NAMES:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), \
            f"{name} drifted from its generator script"


def test_tracker_reproduces_expected_output_byte_for_byte(tmp_path):
    header, frames = read_stream(DATA / "tracker_fixture_stream.jsonl")
    gallery = read_gallery(DATA / "tracker_fixture_gallery.json")
    state = run(frames, gallery, TrackerConfig(fps=header.fps),
                header.frame_area)
    out = tmp_path / "results.jsonl"
    write_results(state.results, out)
    expected = (DATA / "tracker_fixture_expected.jsonl").read_bytes()
    assert out.read_bytes() == expected


def test_tracker_classification_budget_on_fixture():
    # overlap reuse and occlusion bridging must shoulder everything except
    # the window, the background face, and the impostor
    mod = fixture_module()
    header, frames = read_stream(DATA / "tracker_fixture_stream.jsonl")
    gallery = read_gallery(DATA / "tracker_fixture_gallery.json")
    state = run(frames, gallery, TrackerConfig(fps=header.fps),
                header.frame_area)
    assert state.classify_calls == mod.expected_classify_calls() == 201


def test_run_on_a_generator_matches_run_on_the_list():
    header, frames = read_stream(DATA / "tracker_fixture_stream.jsonl")
    gallery = read_gallery(DATA / "tracker_fixture_gallery.json")
    cfg = TrackerConfig(fps=header.fps)
    listed = run(frames, gallery, cfg, header.frame_area)
    _, from_file = iter_stream(DATA / "tracker_fixture_stream.jsonl")
    for source in ((f for f in frames), from_file):
        streamed = run(source, gallery, cfg, header.frame_area)
        assert [(r.frame, r.entries) for r in streamed.results] == \
            [(r.frame, r.entries) for r in listed.results]
        assert streamed.classify_calls == listed.classify_calls
