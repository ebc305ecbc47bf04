"""End-to-end tests of the command-line interface: exit codes, the full
generate/gallery/track/score pipeline against committed expected output,
sweeps, and byte-level determinism of every written file."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prototrack import cli, stream_io, tracker
from prototrack.cli import build_parser, main
from prototrack.recognizer import RecognizerConfig
from prototrack.stream_io import iter_stream, read_gallery, read_results, read_stream

DATA = Path(__file__).parent / "data"
SCENARIO = DATA / "demo_scenario.cfg"


def run_cli(*argv):
    return main([str(a) for a in argv])


def gen_demo(out_dir):
    code = run_cli(
        "gen", "--scenario", SCENARIO,
        "--out-stream", out_dir / "stream.jsonl",
        "--out-tracks", out_dir / "tracks.json",
        "--out-truth", out_dir / "truth.json")
    assert code == 0
    return out_dir


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The committed demo scenario, run through the whole pipeline once."""
    d = gen_demo(tmp_path_factory.mktemp("demo"))
    assert run_cli("gallery", "--tracks", d / "tracks.json",
                   "--out", d / "gallery.json", "--k", "2", "--seed", "5") == 0
    assert run_cli("track", "--stream", d / "stream.jsonl",
                   "--gallery", d / "gallery.json",
                   "--out", d / "results.jsonl",
                   "--summary", d / "summary.csv") == 0
    assert run_cli("score", "--results", d / "results.jsonl",
                   "--truth", d / "truth.json",
                   "--out", d / "score.csv",
                   "--json", d / "score.json") == 0
    return d


# ------------------------------------------------------------- exit codes


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        run_cli("gen")  # missing required arguments
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")  # no such subcommand
    assert exc.value.code == 1


def test_missing_input_file_exits_2(tmp_path, capsys):
    code = run_cli("track", "--stream", tmp_path / "absent.jsonl",
                   "--gallery", tmp_path / "absent.json",
                   "--out", tmp_path / "out.jsonl")
    assert code == 2
    err = capsys.readouterr().err
    assert "prototrack track:" in err and "absent.jsonl" in err


def test_bad_option_value_exits_1(demo, tmp_path, capsys):
    code = run_cli("gallery", "--tracks", demo / "tracks.json",
                   "--out", tmp_path / "g.json", "--k", "0")
    assert code == 1
    err = capsys.readouterr().err
    assert "prototrack gallery:" in err and "k must be positive" in err
    assert "Traceback" not in err

    code = run_cli("track", "--stream", demo / "stream.jsonl",
                   "--gallery", demo / "gallery.json",
                   "--out", tmp_path / "out.jsonl",
                   "--cap", "10", "--min-appearances", "12")
    assert code == 1
    assert "prototrack track:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--min-area", "nan"),
    ("--min-area", "inf"),
    ("--min-area", "nan", "--min-area-fraction", "0.01"),
    ("--min-area-fraction", "nan"),
    ("--min-area-fraction", "2"),
])
def test_bad_area_threshold_exits_1(demo, tmp_path, capsys, flags):
    code = run_cli("track", "--stream", demo / "stream.jsonl",
                   "--gallery", demo / "gallery.json",
                   "--out", tmp_path / "out.jsonl", *flags)
    assert code == 1
    err = capsys.readouterr().err
    assert "prototrack track:" in err and "min_area" in err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("init_window, fps", [
    ("1e308", None),  # the window's frame count overflows to inf
    ("1e300", None),  # finite, but past sys.maxsize frames
    (None, 1e308),  # the stream header's fps times the default 2 s
])
def test_oversized_window_exits_1_without_traceback(demo, tmp_path, capsys,
                                                    init_window, fps):
    """An oversized window from the --init-window flag is a usage error
    (exit 1); from the stream header's fps, a bad input file (exit 2 and
    line 1), like every other bad header value."""
    stream = demo / "stream.jsonl"
    if fps is not None:
        stream = tmp_path / "fast.jsonl"
        for head in edited_copy(demo / "stream.jsonl", stream, 1):
            head["fps"] = fps
    flags = ("--init-window", init_window) if init_window else ()
    code = run_cli("track", "--stream", stream, "--gallery", demo / "gallery.json",
                   "--out", tmp_path / "out.jsonl", *flags)
    assert code == (1 if fps is None else 2)
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    where = "" if fps is None else "line 1: bad stream header: "
    assert err.startswith(f"prototrack track: {where}init_window_seconds * fps must be at most")
    assert not (tmp_path / "out.jsonl").exists()


def test_malformed_input_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("definitely not json\n")
    code = run_cli("track", "--stream", bad,
                   "--gallery", tmp_path / "g.json",
                   "--out", tmp_path / "out.jsonl")
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def edited_copy(src, dst, lineno):
    """Copy a JSONL/JSON file; yield one line's decoded value for editing."""
    lines = src.read_text().splitlines(keepends=True)
    doc = json.loads(lines[lineno - 1])
    yield doc
    lines[lineno - 1] = json.dumps(doc) + "\n"
    dst.write_text("".join(lines))


def test_non_finite_embedding_exits_2(demo, tmp_path, capsys):
    stream = tmp_path / "nan.jsonl"
    for rec in edited_copy(demo / "stream.jsonl", stream, 5):
        rec["detections"][0]["embedding"][7] = float("nan")
    code = run_cli("track", "--stream", stream, "--gallery", demo / "gallery.json",
                   "--out", tmp_path / "out.jsonl")
    assert code == 2
    err = capsys.readouterr().err
    assert "line 5" in err and "non-finite embedding" in err
    assert not (tmp_path / "out.jsonl").exists()


def test_nan_stream_fps_exits_2(demo, tmp_path, capsys):
    stream = tmp_path / "nan.jsonl"
    for head in edited_copy(demo / "stream.jsonl", stream, 1):
        head["fps"] = float("nan")
    code = run_cli("track", "--stream", stream, "--gallery", demo / "gallery.json",
                   "--out", tmp_path / "out.jsonl")
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "fps must be finite" in err


def test_stream_frame_gap_exits_2(demo, tmp_path, capsys):
    stream = tmp_path / "gap.jsonl"
    lines = (demo / "stream.jsonl").read_text().splitlines(keepends=True)
    stream.write_text("".join(lines[:3] + lines[4:]))  # drops the third frame
    first = json.loads(lines[1])["frame"]
    code = run_cli("track", "--stream", stream, "--gallery", demo / "gallery.json",
                   "--out", tmp_path / "out.jsonl")
    assert code == 2
    assert f"line 4: frame {first + 3} after {first + 1}" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_results_frame_gap_exits_2(demo, tmp_path, capsys):
    results = tmp_path / "gap.jsonl"
    lines = (demo / "results.jsonl").read_text().splitlines(keepends=True)
    results.write_text("".join(lines[:1] + lines[2:]))  # drops the second frame
    first = json.loads(lines[0])["frame"]
    code = run_cli("score", "--results", results, "--truth", demo / "truth.json",
                   "--out", tmp_path / "score.csv")
    assert code == 2
    assert f"line 2: frame {first + 2} after {first}" in capsys.readouterr().err
    assert not (tmp_path / "score.csv").exists()


def test_tracks_with_missing_frame_indices_exit_2(demo, tmp_path, capsys):
    tracks = tmp_path / "cut.json"
    for doc in edited_copy(demo / "tracks.json", tracks, 1):
        del doc["tracks"][0]["frames"][:5]
    code = run_cli("gallery", "--tracks", tracks, "--out", tmp_path / "g.json")
    assert code == 2
    assert "bad tracks document" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_ragged_tracks_exit_2(demo, tmp_path, capsys):
    tracks = tmp_path / "ragged.json"
    for doc in edited_copy(demo / "tracks.json", tracks, 1):
        doc["tracks"][0]["embeddings"][2].pop()
        label = doc["tracks"][0]["label"]
    code = run_cli("gallery", "--tracks", tracks, "--out", tmp_path / "g.json")
    assert code == 2
    assert f"track '{label}': embeddings have mixed lengths" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_mixed_width_tracks_exit_2(demo, tmp_path, capsys):
    tracks = tmp_path / "mixed.json"
    for doc in edited_copy(demo / "tracks.json", tracks, 1):
        last = doc["tracks"][-1]
        last["embeddings"] = [vec[:-4] for vec in last["embeddings"]]
        label, width = last["label"], len(last["embeddings"][0])
    code = run_cli("gallery", "--tracks", tracks, "--out", tmp_path / "g.json")
    assert code == 2
    assert f"track '{label}': embeddings have length {width}, not {width + 4}" \
        in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("command, inputs", [
    ("baseline", lambda d: ["--stream", d / "stream.jsonl"]),
    ("gallery", lambda d: []),
    ("sweep", lambda d: ["--stream", d / "stream.jsonl", "--truth", d / "truth.json", "--k", 1]),
], ids=["baseline", "gallery", "sweep"])
def test_tracks_with_a_repeated_label_exit_2(demo, tmp_path, capsys, command, inputs):
    """Every subcommand that reads a tracks file refuses a label that two
    tracks share, naming it, and writes nothing."""
    tracks = tmp_path / "twice.json"
    for doc in edited_copy(demo / "tracks.json", tracks, 1):
        doc["tracks"][1]["label"] = label = doc["tracks"][0]["label"]
    out = tmp_path / "out"
    code = run_cli(command, *inputs(demo), "--tracks", tracks, "--out", out)
    assert code == 2
    assert f"bad tracks document: track '{label}': duplicate label" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda protos: protos[0].pop(), "prototypes have mixed lengths"),
    (lambda protos: [vec.pop() for vec in protos], "prototypes have length"),
])
def test_ragged_or_mixed_width_gallery_exits_2(demo, tmp_path, capsys, edit, message):
    gallery = tmp_path / "bad.json"
    for doc in edited_copy(demo / "gallery.json", gallery, 1):
        entry = doc["entries"][-1]
        assert len(entry["prototypes"]) == 2  # k = 2, so one can be ragged
        edit(entry["prototypes"])
        label = entry["label"]
    code = run_cli("track", "--stream", demo / "stream.jsonl", "--gallery", gallery,
                   "--out", tmp_path / "out.jsonl")
    assert code == 2
    assert f"entry '{label}': {message}" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("key, bad", [
    ("frame_width", 0), ("frame_height", -1080), ("frame_width", 1.5),
    ("embedding_dim", 0)])
def test_bad_stream_header_size_exits_2(demo, tmp_path, capsys, key, bad):
    stream = tmp_path / "bad.jsonl"
    for head in edited_copy(demo / "stream.jsonl", stream, 1):
        head[key] = bad
    code = run_cli("track", "--stream", stream, "--gallery", demo / "gallery.json",
                   "--out", tmp_path / "out.jsonl", "--min-area-fraction", "0.001")
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and f"{key} must be an integer >= 1" in err
    assert not (tmp_path / "out.jsonl").exists()


def test_bad_truth_size_exits_2(demo, tmp_path, capsys):
    truth = tmp_path / "bad.json"
    for doc in edited_copy(demo / "truth.json", truth, 1):
        doc["frame_width"] = 1.5
    code = run_cli("score", "--results", demo / "results.jsonl", "--truth", truth,
                   "--out", tmp_path / "score.csv")
    assert code == 2
    assert "frame_width must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "score.csv").exists()


def rewritten(name, lineno, edit):
    """Writes the demo's file `name` with one line's decoded value edited."""
    def write(demo, bad):
        for doc in edited_copy(demo / name, bad, lineno):
            edit(doc)
    return write


def holding(text):
    """Writes `text` as the bad file."""
    return lambda demo, bad: bad.write_text(text)


def float_frame(rec):
    rec["frame"] = float(rec["frame"])  # 61.0 used to load as frame 61


def fractional_track_frame(doc):
    doc["tracks"][0]["frames"][1] += 0.5


def spaced_presence_key(doc):
    key = next(iter(doc["presence"]))
    doc["presence"][" " + key] = doc["presence"].pop(key)


# (subcommand, option naming the bad file, how the bad file is written)
BAD_INPUT_FILES = [
    pytest.param("gallery", "--tracks", holding("[1, 2]"), id="tracks-array"),
    pytest.param("track", "--gallery", holding("[1, 2]"), id="gallery-array"),
    pytest.param("score", "--truth", holding("null"), id="truth-null"),
    pytest.param("score", "--truth", rewritten(
        "truth.json", 1, lambda doc: doc.update(presence=[])), id="presence-array"),
    pytest.param("score", "--truth", rewritten(
        "truth.json", 1, spaced_presence_key), id="presence-key-spaced"),
    pytest.param("score", "--truth", rewritten(
        "truth.json", 1, lambda doc: doc["presence"].update({"60": "p01"})),
        id="presence-labels-string"),
    pytest.param("score", "--truth", rewritten(
        "truth.json", 1, lambda doc: doc.update(missing_in_training="carol")),
        id="missing-in-training-string"),
    pytest.param("score", "--results", rewritten(
        "results.jsonl", 2, lambda rec: rec["entries"][0].update(label=5)),
        id="results-label-number"),
    pytest.param("track", "--stream", rewritten(
        "stream.jsonl", 3, lambda rec: rec["detections"][0].update(gt_label=[1, 2])),
        id="stream-gt-label-array"),
    pytest.param("track", "--gallery", rewritten(
        "gallery.json", 1, lambda doc: doc.update(embedding_dim=256)),
        id="gallery-width-declared-256"),
    pytest.param("gallery", "--tracks", rewritten(
        "tracks.json", 1, fractional_track_frame), id="tracks-frame-fraction"),
    pytest.param("track", "--stream", rewritten(
        "stream.jsonl", 3, float_frame), id="stream-frame-float"),
    pytest.param("score", "--results", rewritten(
        "results.jsonl", 2, float_frame), id="results-frame-float"),
    pytest.param("track", "--stream", rewritten(
        "stream.jsonl", 3, lambda rec: rec["detections"][0].update(box=["1", "2", "3", "4"])),
        id="stream-box-strings"),
    pytest.param("track", "--stream", rewritten(
        "stream.jsonl", 3, lambda rec: rec["detections"][0]["box"].append(5.0)),
        id="stream-box-five-numbers"),
    pytest.param("track", "--stream", rewritten(
        "stream.jsonl", 3, lambda rec: rec["detections"][0]["landmarks"][2].append(1.0)),
        id="stream-landmark-three-coordinates"),
    pytest.param("track", "--stream", rewritten(
        "stream.jsonl", 3, lambda rec: rec["detections"][0]["embedding"].__setitem__(
            0, 10 ** 400)), id="stream-embedding-integer-past-float-range"),
    pytest.param("track", "--stream", rewritten(
        "stream.jsonl", 1, lambda doc: doc.update(fps="30")), id="stream-fps-string"),
    pytest.param("score", "--results", rewritten(
        "results.jsonl", 2, lambda rec: rec["entries"][0].update(distance="0.5")),
        id="results-distance-string"),
    pytest.param("score", "--results", rewritten(
        "results.jsonl", 2, lambda rec: rec["entries"][0].update(box=[True, 2, 3, 4])),
        id="results-box-bool"),
    pytest.param("score", "--truth", rewritten(
        "truth.json", 1, lambda doc: doc.update(fps="30")), id="truth-fps-string"),
    pytest.param("gallery", "--tracks", rewritten(
        "tracks.json", 1, lambda doc: doc["tracks"][0].update(fps="30")),
        id="tracks-fps-string"),
    pytest.param("gallery", "--tracks", rewritten(
        "tracks.json", 1, lambda doc: doc["tracks"][0]["embeddings"][0].__setitem__(
            0, 10 ** 400)), id="tracks-embedding-integer-past-float-range"),
    pytest.param("track", "--stream", rewritten(
        "stream.jsonl", 3, lambda rec: rec["detections"][0].update(
            embedding=[str(v) for v in rec["detections"][0]["embedding"]])),
        id="stream-embedding-strings"),
    pytest.param("track", "--stream", rewritten(
        "stream.jsonl", 3, lambda rec: rec["detections"][0]["embedding"].__setitem__(
            0, None)), id="stream-embedding-null"),
    pytest.param("track", "--stream", rewritten(
        "stream.jsonl", 3, lambda rec: rec["detections"][0].update(
            embedding=[v > 0 for v in rec["detections"][0]["embedding"]])),
        id="stream-embedding-bools"),
    pytest.param("gallery", "--tracks", rewritten(
        "tracks.json", 1, lambda doc: doc["tracks"][0]["embeddings"][0].__setitem__(
            0, "0.5")), id="tracks-embedding-string"),
    pytest.param("gallery", "--tracks", rewritten(
        "tracks.json", 1, lambda doc: doc["tracks"][0]["embeddings"][1].__setitem__(
            2, None)), id="tracks-embedding-null"),
    pytest.param("track", "--gallery", rewritten(
        "gallery.json", 1, lambda doc: doc["entries"][0]["prototypes"][0].__setitem__(
            0, "0.5")), id="gallery-prototype-string"),
    pytest.param("track", "--gallery", rewritten(
        "gallery.json", 1, lambda doc: doc["entries"][0].update(prototypes=[
            [v > 0 for v in vec] for vec in doc["entries"][0]["prototypes"]])),
        id="gallery-prototype-bools"),
    pytest.param("track", "--gallery", rewritten(
        "gallery.json", 1, lambda doc: doc["entries"][1].update(label="p01")),
        id="gallery-label-duplicate"),
    pytest.param("track", "--gallery", rewritten(
        "gallery.json", 1, lambda doc: doc["entries"][1].update(label=5)),
        id="gallery-label-number"),
    pytest.param("track", "--gallery", rewritten(
        "gallery.json", 1, lambda doc: doc["entries"][1].update(label=None)),
        id="gallery-label-null"),
    pytest.param("track", "--gallery", rewritten(
        "gallery.json", 1, lambda doc: doc["entries"][1].update(label="")),
        id="gallery-label-empty"),
    pytest.param("gallery", "--tracks", rewritten(
        "tracks.json", 1, lambda doc: doc["tracks"][1].update(label=5)),
        id="tracks-label-number"),
    pytest.param("gallery", "--tracks", rewritten(
        "tracks.json", 1, lambda doc: doc["tracks"][1].update(label=["x"])),
        id="tracks-label-array"),
]

# (subcommand, option, file, line, place, how the bad value goes in): each
# place holds one number that the readers check for finiteness on its own
NON_FINITE_PLACES = [
    ("track", "--stream", "stream.jsonl", 3, "stream-box",
     lambda rec, v: rec["detections"][0]["box"].__setitem__(2, v)),
    ("track", "--stream", "stream.jsonl", 3, "stream-landmark-point",
     lambda rec, v: rec["detections"][0]["landmarks"][1].__setitem__(0, v)),
    ("track", "--stream", "stream.jsonl", 1, "stream-fps",
     lambda doc, v: doc.update(fps=v)),
    ("score", "--results", "results.jsonl", 2, "results-distance",
     lambda rec, v: rec["entries"][0].update(distance=v)),
    ("gallery", "--tracks", "tracks.json", 1, "tracks-fps",
     lambda doc, v: doc["tracks"][0].update(fps=v)),
]
BAD_INPUT_FILES += [
    pytest.param(command, option,
                 rewritten(name, lineno, lambda doc, edit=edit, v=v: edit(doc, v)),
                 id=f"{place}-{spelling}")
    for command, option, name, lineno, place, edit in NON_FINITE_PLACES
    for spelling, v in [("NaN", float("nan")), ("Infinity", float("inf")),
                        ("-Infinity", -float("inf"))]
]


@pytest.mark.parametrize("command, option, write_bad", BAD_INPUT_FILES)
def test_bad_input_file_exits_2_without_traceback(demo, tmp_path, command, option,
                                                  write_bad):
    bad = tmp_path / "bad"
    write_bad(demo, bad)
    files = {"--tracks": demo / "tracks.json", "--gallery": demo / "gallery.json",
             "--stream": demo / "stream.jsonl", "--results": demo / "results.jsonl",
             "--truth": demo / "truth.json", option: bad}
    inputs = {"gallery": ["--tracks"], "track": ["--stream", "--gallery"],
              "score": ["--results", "--truth"]}[command]
    argv = [command, *[str(v) for key in inputs for v in (key, files[key])],
            "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "prototrack", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"prototrack {command}: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", [
    "fps = nan", "noise_sigma = inf", "duration_seconds = nan", "train_seconds = nan"])
def test_non_finite_scenario_value_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(SCENARIO.read_text() + line + "\n")
    code = run_cli("gen", "--scenario", cfg,
                   "--out-stream", tmp_path / "s.jsonl",
                   "--out-tracks", tmp_path / "t.json",
                   "--out-truth", tmp_path / "gt.json")
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("lines, flags", [
    ("duration_seconds = 1e200\nfps = 1e200\n", ()),  # the spec's frame count
    ("", ("--train-seconds", "1e308")),  # the split's training frame count
    ("train_seconds = 1e308\n", ()),
    ("duration_seconds = 1e300\nfps = 1\n", ()),  # finite, but past sys.maxsize frames
])
def test_overflowing_frame_count_exits_2(tmp_path, capsys, lines, flags):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(SCENARIO.read_text() + lines)
    code = run_cli("gen", "--scenario", cfg,
                   "--out-stream", tmp_path / "s.jsonl",
                   "--out-tracks", tmp_path / "t.json",
                   "--out-truth", tmp_path / "gt.json", *flags)
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "* fps must be finite" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.cfg"]


def test_scenario_frame_size_below_one_exits_2(tmp_path, capsys):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(SCENARIO.read_text() + "frame_width = 0\n")
    code = run_cli("gen", "--scenario", cfg,
                   "--out-stream", tmp_path / "s.jsonl",
                   "--out-tracks", tmp_path / "t.json",
                   "--out-truth", tmp_path / "gt.json")
    assert code == 2
    assert "frame_width and frame_height must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "s.jsonl").exists()


def test_infeasible_scenario_exits_2(tmp_path, capsys):
    cfg = tmp_path / "impossible.cfg"
    cfg.write_text(
        "participants = 40\nduration_seconds = 1\nfps = 2\n"
        "embedding_dim = 2\nseed = 1\n")
    code = run_cli("gen", "--scenario", cfg,
                   "--out-stream", tmp_path / "s.jsonl",
                   "--out-tracks", tmp_path / "t.json",
                   "--out-truth", tmp_path / "gt.json")
    assert code == 2
    assert "separation" in capsys.readouterr().err


# ------------------------------------------------------------- pipeline


def test_demo_pipeline_matches_committed_score(demo):
    assert (demo / "score.csv").read_bytes() == \
        (DATA / "demo_score_expected.csv").read_bytes()
    assert (demo / "score.json").read_bytes() == \
        (DATA / "demo_score_expected.json").read_bytes()


def test_demo_tracker_bridged_the_occlusion(demo):
    # the scenario occludes p01 for 5 frames; the results must carry
    # placeholder entries for exactly those frames
    results = read_results(demo / "results.jsonl")
    occluded = [r.frame for r in results
                for e in r.entries
                if e.label == "p01" and e.source == "occluded"]
    assert occluded == [85, 86, 87, 88, 89]


def test_demo_summary_lists_all_labels(demo):
    lines = (demo / "summary.csv").read_text().splitlines()
    assert lines[0] == "label,frames,classified,reused,occluded"
    labels = [ln.split(",")[0] for ln in lines[1:]]
    assert labels == ["Unknown", "p01", "p02", "p03"]


def test_gallery_sampling_method(demo, tmp_path):
    out = tmp_path / "sampled.json"
    assert run_cli("gallery", "--tracks", demo / "tracks.json",
                   "--out", out, "--method", "sampling") == 0
    g = read_gallery(out)
    assert g.method == "sampling"
    # one prototype per elapsed second of the 6 s training prefix
    assert all(len(g.entries[l]) == 6 for l in g.labels)


def test_gallery_sampling_tiny_fps_exits_0_quickly(demo, tmp_path):
    # at 1e-9 fps every frame is a one-second boundary: the gallery keeps
    # every sample, and the work is bounded by the samples, not the boundaries
    tracks = tmp_path / "slow.json"
    for doc in edited_copy(demo / "tracks.json", tracks, 1):
        for track in doc["tracks"]:
            track["fps"] = 1e-9
    out = tmp_path / "sampled.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "prototrack", "gallery", "--tracks", str(tracks),
         "--out", str(out), "--method", "sampling"],
        capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    g = read_gallery(out)
    assert {l: len(g.entries[l]) for l in g.labels} == \
        {t.label: len(t.samples) for t in stream_io.read_tracks(tracks)}


def test_baseline_command(demo, tmp_path, capsys):
    out = tmp_path / "baseline.jsonl"
    assert run_cli("baseline", "--stream", demo / "stream.jsonl",
                   "--tracks", demo / "tracks.json", "--out", out) == 0
    results = read_results(out)
    assert len(results) == 40
    assert all(e.source == "classified" for r in results for e in r.entries)
    detections = sum(len(r.entries) for r in results)
    samples = sum(len(t.samples) for t in stream_io.read_tracks(demo / "tracks.json"))
    assert capsys.readouterr().out.startswith(
        f"baseline over 40 frames: {detections * samples} dot products, ")


def test_sweep_command_rows_and_pareto(demo, tmp_path, capsys):
    sweep_csv = tmp_path / "sweep.csv"
    front_csv = tmp_path / "front.csv"
    assert run_cli("sweep", "--stream", demo / "stream.jsonl",
                   "--tracks", demo / "tracks.json",
                   "--truth", demo / "truth.json",
                   "--k", "1,2,4", "--seed", "3",
                   "--out", sweep_csv, "--pareto", front_csv) == 0
    out = capsys.readouterr().out.splitlines()
    rows = sweep_csv.read_text().splitlines()
    assert rows[0] == "k,accuracy,dot_products"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "4"]
    assert [line.split("dot_products=")[1] for line in out] == \
        [r.split(",")[2] for r in rows[1:]]
    front_rows = front_csv.read_text().splitlines()
    assert front_rows[0] == rows[0]
    assert front_rows[1:]  # never empty
    assert all(r in rows[1:] for r in front_rows[1:])


def test_track_streams_the_file_through_the_tracker(demo, tmp_path, monkeypatch):
    # frames are parsed as the tracker draws them: when a frame is stepped,
    # no frame past it has been parsed yet
    parsed = set()
    real_parse, real_step = stream_io._parse_detection, tracker.step

    def counting_parse(rec, frame_index, *args):
        parsed.add(frame_index)
        return real_parse(rec, frame_index, *args)

    stepped = []

    def counting_step(state, frame_index, *args, **kwargs):
        stepped.append(frame_index)
        assert max(parsed) <= frame_index  # frames parsed <= frames stepped + 1
        return real_step(state, frame_index, *args, **kwargs)

    monkeypatch.setattr(stream_io, "_parse_detection", counting_parse)
    monkeypatch.setattr(tracker, "step", counting_step)
    out = tmp_path / "results.jsonl"
    assert run_cli("track", "--stream", demo / "stream.jsonl",
                   "--gallery", demo / "gallery.json", "--out", out) == 0
    assert len(stepped) == 20  # the demo's 40 test frames less its 2 s window
    assert out.read_bytes() == (demo / "results.jsonl").read_bytes()


def test_track_on_a_generator_matches_track_on_the_list(demo):
    header, frames = read_stream(demo / "stream.jsonl")
    gallery = read_gallery(demo / "gallery.json")
    cfg = tracker.TrackerConfig(fps=header.fps)
    listed = tracker.run(frames, gallery, cfg, header.frame_area)
    _, from_file = iter_stream(demo / "stream.jsonl")
    for source in ((f for f in frames), from_file):
        streamed = tracker.run(source, gallery, cfg, header.frame_area)
        assert [(r.frame, r.entries) for r in streamed.results] == \
            [(r.frame, r.entries) for r in listed.results]
        assert streamed.classify_calls == listed.classify_calls


def test_track_corrupt_line_after_window_exits_2(demo, tmp_path, capsys):
    stream = tmp_path / "corrupt.jsonl"
    lines = (demo / "stream.jsonl").read_text().splitlines(keepends=True)
    lines[34] = "{not json\n"  # line 35, a frame past the 20-frame window
    stream.write_text("".join(lines))
    code = run_cli("track", "--stream", stream, "--gallery", demo / "gallery.json",
                   "--out", tmp_path / "out.jsonl")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("prototrack track: line 35: bad JSON")
    assert "Traceback" not in err
    assert not (tmp_path / "out.jsonl").exists()


# ------------------------------------------------------------- determinism


def test_identical_runs_write_identical_bytes(tmp_path):
    outputs = ("stream.jsonl", "tracks.json", "truth.json", "gallery.json",
               "results.jsonl", "summary.csv", "score.csv")
    for d in (tmp_path / "run1", tmp_path / "run2"):
        d.mkdir()
        gen_demo(d)
        assert run_cli("gallery", "--tracks", d / "tracks.json",
                       "--out", d / "gallery.json",
                       "--k", "2", "--seed", "5") == 0
        assert run_cli("track", "--stream", d / "stream.jsonl",
                       "--gallery", d / "gallery.json",
                       "--out", d / "results.jsonl",
                       "--summary", d / "summary.csv") == 0
        assert run_cli("score", "--results", d / "results.jsonl",
                       "--truth", d / "truth.json",
                       "--out", d / "score.csv") == 0
    for name in outputs:
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_sweep_rerun_byte_identical(tmp_path):
    # every column is counted, none timed
    d = gen_demo(tmp_path)
    for name in ("s1", "s2"):
        assert run_cli("sweep", "--stream", d / "stream.jsonl",
                       "--tracks", d / "tracks.json",
                       "--truth", d / "truth.json",
                       "--k", "1,4", "--seed", "3",
                       "--out", d / f"{name}.csv", "--pareto", d / f"{name}_front.csv") == 0
    assert (d / "s1.csv").read_bytes() == (d / "s2.csv").read_bytes()
    assert (d / "s1_front.csv").read_bytes() == (d / "s2_front.csv").read_bytes()


def test_score_refuses_a_participant_named_average(demo, tmp_path, capsys):
    # score.csv's average row is labelled Average, so a participant of that
    # name is a usage error and neither report is written
    doc = json.loads((demo / "truth.json").read_text())
    doc["presence"] = {f: ["Average" if l == "p01" else l for l in labels]
                       for f, labels in doc["presence"].items()}
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(doc))
    code = run_cli("score", "--results", demo / "results.jsonl", "--truth", truth,
                   "--out", tmp_path / "score.csv", "--json", tmp_path / "score.json")
    assert code == 1
    assert "prototrack score:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["truth.json"]


def test_score_json_agrees_with_csv(demo):
    doc = json.loads((demo / "score.json").read_text())
    csv_rows = (demo / "score.csv").read_text().splitlines()[1:]
    average_row = [r for r in csv_rows if r.startswith("Average,")][0]
    assert float(average_row.split(",")[1]) == doc["average"]


# ------------------------------------------------------------- settings
# Each tracker and recognizer setting is named, typed and defaulted only in
# its config class; the flags carry no default of their own.


TRACK_REQUIRED = ("track", "--stream", "s.jsonl", "--gallery", "g.json", "--out", "o.jsonl")
SETTINGS = {f.name: f.default for cls in (tracker.TrackerConfig, RecognizerConfig)
            for f in dataclasses.fields(cls) if f.name not in ("fps", "recognizer")}


def test_every_setting_has_a_track_flag_without_a_default():
    args = vars(build_parser().parse_args(TRACK_REQUIRED))
    assert {name: args.get(name, "no flag") for name in SETTINGS} == \
        dict.fromkeys(SETTINGS)


def test_readme_knobs_table_states_the_class_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("## Tracker knobs", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for row in (line for line in table.splitlines() if line.startswith("| `")):
        flag_cell, default_cell = row.split("|")[1:3]
        for flag in flag_cell.replace("`", "").split(","):
            # the flag's own parser turns the README's default into its setting
            args = vars(build_parser().parse_args(
                (*TRACK_REQUIRED, flag.strip(), default_cell.split()[0])))
            documented.update((name, args[name]) for name in SETTINGS
                              if args[name] is not None)
    assert documented == SETTINGS


def configs_passed(monkeypatch, name, *argv):
    """Run a CLI command; return the configs it handed to cli.<name>."""
    seen = []
    real = getattr(cli, name)

    def spy(*args, **kwargs):
        seen.extend(a for a in (*args, *kwargs.values())
                    if isinstance(a, (tracker.TrackerConfig, RecognizerConfig)))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    assert run_cli(*argv) == 0
    return seen


def test_flags_left_out_take_the_class_defaults(demo, tmp_path, monkeypatch):
    fps = read_stream(demo / "stream.jsonl")[0].fps
    stream, tracks = demo / "stream.jsonl", demo / "tracks.json"
    assert configs_passed(
        monkeypatch, "run_tracker", "track", "--stream", stream,
        "--gallery", demo / "gallery.json", "--out", tmp_path / "t.jsonl") == \
        [tracker.TrackerConfig(fps=fps)]
    assert configs_passed(
        monkeypatch, "run_baseline", "baseline", "--stream", stream,
        "--tracks", tracks, "--out", tmp_path / "b.jsonl") == [RecognizerConfig()]
    assert configs_passed(
        monkeypatch, "sweep", "sweep", "--stream", stream, "--tracks", tracks,
        "--truth", demo / "truth.json", "--k", "1", "--out", tmp_path / "s.csv") == \
        [tracker.TrackerConfig(fps=fps)]


@pytest.mark.parametrize("area_flag, area", [
    ("--min-area", {"min_area": 50.0}),
    ("--min-area-fraction", {"min_area_fraction": 0.001}),
])
def test_track_flags_reach_their_settings(demo, tmp_path, monkeypatch, area_flag, area):
    fps = read_stream(demo / "stream.jsonl")[0].fps
    cfgs = configs_passed(
        monkeypatch, "run_tracker", "track", "--stream", demo / "stream.jsonl",
        "--gallery", demo / "gallery.json", "--out", tmp_path / "t.jsonl",
        "--unknown-threshold", "0.7", area_flag, *area.values(),
        "--init-window", "1.5", "--cap", "8", "--min-appearances", "3",
        "--promote-ratio", "0.6", "--reuse-iou", "0.4", "--new-face-policy", "active")
    assert cfgs == [tracker.TrackerConfig(
        fps=fps, init_window_seconds=1.5, cap=8, min_appearances=3,
        promote_ratio=0.6, reuse_iou=0.4, new_face_policy="active",
        recognizer=RecognizerConfig(unknown_threshold=0.7, **area))]
