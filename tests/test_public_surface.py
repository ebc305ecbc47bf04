"""The package's public names: prototrack.__all__ is the whole contract."""

import dataclasses

import pytest

import prototrack
from prototrack import evaluate, gallery, recognizer, types

PUBLIC = [
    "AccuracyReport", "BoundingBox", "Detection", "DimensionMismatch",
    "DuplicateLabel", "EmptyGallery", "EmptyInput", "EmptyStream", "Event",
    "FrameEntry", "FrameResult", "Gallery", "GalleryIndex", "GroundTruthStream",
    "InfeasibleSpec", "InvalidEmbedding", "InvalidSplit", "METHOD_KMEANS",
    "METHOD_SAMPLING", "MisalignedStreams", "OutOfOrderFrame", "ParseError",
    "PipelineError", "Prototype", "RecognizerConfig", "SOURCE_CLASSIFIED",
    "SOURCE_OCCLUDED", "SOURCE_REUSED", "ScenarioSpec", "StreamHeader",
    "SweepPoint", "TimingReport", "TrackerConfig", "TrackerState",
    "TrainingTrack", "UNKNOWN", "UnsupportedVersion", "area_filter",
    "build_gallery_kmeans", "build_gallery_sampling", "generate", "iter_stream",
    "kmeans", "l2_normalize", "load_scenario", "pareto_front",
    "read_gallery", "read_results", "read_stream", "read_tracks", "read_truth",
    "run", "run_baseline", "score", "snap_to_medoids", "split_train_test",
    "step", "sweep", "write_gallery", "write_results", "write_stream",
    "write_tracks", "write_truth",
]

# no longer exported: each was a second, one-at-a-time path, is used only
# inside its own module, or timed what is now counted
REMOVED = ["Classification", "TrackedFace", "classify", "cosine_distance", "iou",
           "measure_tracker", "parse_scenario", "with_speedup"]


def test_all_is_sorted_and_unique():
    assert prototrack.__all__ == sorted(set(prototrack.__all__))


def test_all_is_the_public_names():
    assert len(PUBLIC) == 63
    assert prototrack.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in prototrack.__all__:
        assert getattr(prototrack, name) is not None, name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_exported(name):
    assert not hasattr(prototrack, name)


def test_removed_one_vector_helpers_are_gone_from_their_modules():
    for module, name in ((types, "cosine_distance"), (types, "iou"),
                         (recognizer, "classify"), (recognizer, "Classification"),
                         (evaluate, "with_speedup"), (evaluate, "measure_tracker")):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert [f.name for f in dataclasses.fields(evaluate.TimingReport)] == [
        "seconds_per_frame", "frames"]
    assert not hasattr(gallery.Gallery, "dim")
