"""Prototype-gallery face recognition and tracking over detection streams.

The pipeline sits downstream of any face detector/embedder: build a compact
per-person prototype gallery from training tracks, classify detections by
minimum cosine distance with Unknown rejection, and smooth per-frame labels
through a temporal tracker that bridges occlusions and suppresses duplicate
identities. A seeded synthetic benchmark and an accuracy/cost evaluation
harness (including exhaustive-baseline comparison, gallery-size sweeps, and
Pareto-front extraction) round out the toolkit.
"""

from .errors import (
    DimensionMismatch,
    DuplicateLabel,
    EmptyGallery,
    EmptyInput,
    EmptyStream,
    InfeasibleSpec,
    InvalidEmbedding,
    InvalidSplit,
    MisalignedStreams,
    OutOfOrderFrame,
    ParseError,
    PipelineError,
    UnsupportedVersion,
)
from .evaluate import (
    AccuracyReport,
    SweepPoint,
    TimingReport,
    pareto_front,
    run_baseline,
    score,
    sweep,
)
from .gallery import (
    METHOD_KMEANS,
    METHOD_SAMPLING,
    Gallery,
    Prototype,
    TrainingTrack,
    build_gallery_kmeans,
    build_gallery_sampling,
    kmeans,
    snap_to_medoids,
)
from .recognizer import (
    GalleryIndex,
    RecognizerConfig,
    area_filter,
)
from .stream_io import (
    StreamHeader,
    iter_stream,
    read_gallery,
    read_results,
    read_stream,
    read_tracks,
    read_truth,
    write_gallery,
    write_results,
    write_stream,
    write_tracks,
    write_truth,
)
from .synth import (
    Event,
    GroundTruthStream,
    ScenarioSpec,
    generate,
    load_scenario,
    split_train_test,
)
from .tracker import (
    TrackerConfig,
    TrackerState,
    run,
    step,
)
from .types import (
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

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "BoundingBox",
    "Detection",
    "DimensionMismatch",
    "DuplicateLabel",
    "EmptyGallery",
    "EmptyInput",
    "EmptyStream",
    "Event",
    "FrameEntry",
    "FrameResult",
    "Gallery",
    "GalleryIndex",
    "GroundTruthStream",
    "InfeasibleSpec",
    "InvalidEmbedding",
    "InvalidSplit",
    "METHOD_KMEANS",
    "METHOD_SAMPLING",
    "MisalignedStreams",
    "OutOfOrderFrame",
    "ParseError",
    "PipelineError",
    "Prototype",
    "RecognizerConfig",
    "SOURCE_CLASSIFIED",
    "SOURCE_OCCLUDED",
    "SOURCE_REUSED",
    "ScenarioSpec",
    "StreamHeader",
    "SweepPoint",
    "TimingReport",
    "TrackerConfig",
    "TrackerState",
    "TrainingTrack",
    "UNKNOWN",
    "UnsupportedVersion",
    "area_filter",
    "build_gallery_kmeans",
    "build_gallery_sampling",
    "generate",
    "iter_stream",
    "kmeans",
    "l2_normalize",
    "load_scenario",
    "pareto_front",
    "read_gallery",
    "read_results",
    "read_stream",
    "read_tracks",
    "read_truth",
    "run",
    "run_baseline",
    "score",
    "snap_to_medoids",
    "split_train_test",
    "step",
    "sweep",
    "write_gallery",
    "write_results",
    "write_stream",
    "write_tracks",
    "write_truth",
]
