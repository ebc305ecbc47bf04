"""File formats: detection streams, galleries, tracks, truth, results.

Detection streams are JSONL: one header object on the first line, then one
record per frame. Galleries, training tracks, and ground truth are single
JSON documents. All writers are deterministic byte streams for fixed
inputs: keys are emitted in a fixed order and every real number is
canonicalized to 9 significant digits, which round-trips the 32-bit values
the files store. In-memory arithmetic stays 64-bit; vectors are narrowed to
32-bit on write and re-normalized on read.

Numbers are written in the canonical text that floattext defines
(``96.0``, ``-0.0``, ``0.100000001``, ``1e-05``, ``1234567940.0``). Its
non-finite spellings ``NaN``, ``Infinity`` and ``-Infinity`` are rejected by
the readers: every number in an input file must be finite. Boxes, landmark
points, distances and fps must be JSON numbers (ints or floats), not
strings or bools. The values of embedding and prototype vectors must be
JSON numbers too; a string, a null or a bool, alone or among numbers, is
rejected.

A detection record may hold "landmarks", five facial keypoints (eyes, nose
tip, mouth corners) as [x, y] pairs. Nothing downstream reads them: the
reader checks them and drops them, and write_stream spells for every
detection the five keypoints at fixed fractions of its box (_KEYPOINTS).

The writers spell vectors, and each landmark point as a pair (a vector of
two), with floattext.float_arrays, 64 rows (or the rows of 64 frames) per
call. Its exact integer kernel spells each number x with 1e-4 <= |x| < 1
at 9 significant digits (nearly all of an embedding's), and a per-number
%-format spells the others. Gallery and tracks files have one record
reader and one writer, which streams the document to the file once the
readers' own rule has passed what it will write. write_stream and
write_results check each chunk's frame order and float32 boxes (and
keypoints, or the entries' labels, distances and sources) by their
reader's rules before they spell them. Every writer writes under a
temporary name and moves the whole file into place, so a write that fails
leaves no file and keeps any file already at the path. The CSV reports
quote a label that holds a comma, a quote or a line end."""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import warnings
from dataclasses import dataclass
from functools import cache, reduce
from itertools import islice
from numbers import Integral
from operator import getitem

import numpy as np

from .errors import (
    EmptyGallery,
    InvalidEmbedding,
    OutOfOrderFrame,
    ParseError,
    UnsupportedVersion,
)
from .floattext import canonical_float, float_arrays, float_text
from .gallery import Gallery, Prototype, TrainingTrack
from .synth import GroundTruthStream
from .tracker import TrackerConfig
from .types import (
    ENTRY_SOURCES,
    BoundingBox,
    Detection,
    FrameEntry,
    FrameResult,
    SOURCE_CLASSIFIED,
    _entry_fault,
    l2_normalize_rows,
)

STREAM_VERSION = 1
GALLERY_VERSION = 1
TRACKS_VERSION = 1
TRUTH_VERSION = 1

# norm drift beyond this on load earns a warning before re-normalization
DRIFT_TOL = 1e-3


def _int_array(values) -> str:
    return "[" + ",".join(["%d" % v for v in values]) + "]"


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _write_lines(path, lines) -> None:
    """Write each of `lines` followed by a newline, as UTF-8 with Unix line ends."""
    with _replacing(path) as fh:
        fh.write("\n".join(lines) + "\n")


@contextlib.contextmanager
def _replacing(path):
    """A text file open under a temporary name in `path`'s directory, moved
    to `path` when the block ends and deleted if it raises: a refused write
    leaves no file and keeps any file at `path`. A symbolic link at `path`
    is written through, and a file at `path` keeps its permission bits, as
    opening it would."""
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _in_order(frames):
    """Each (frame index, item) pair of `frames`, refused with ValueError in
    the readers' words unless its index is an integer (not a bool) one more
    than the index before it."""
    last = None
    for frame, item in frames:
        if isinstance(frame, bool) or not isinstance(frame, Integral):
            raise ValueError(f"frame must be a JSON integer: {frame!r}")
        if last is not None and frame != last + 1:
            raise ValueError(f"frame {frame} after {last}")
        last = frame
        yield frame, item


def _read_document(path, kind, version) -> dict:
    """The JSON object in `path`, checked to be a `kind` document of `version`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad {kind} JSON: {exc.msg}", exc.lineno)
    if not isinstance(doc, dict):
        raise ParseError(f"bad {kind} document: not a JSON object")
    if doc.get("version") != version:
        raise UnsupportedVersion(f"{kind} version {doc.get('version')}")
    return doc


def _size(key, value) -> int:
    """A frame side or embedding width: an integer (not a bool or a float
    with no fraction) of at least 1."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{key} must be an integer >= 1: {value!r}")
    return value


# the types json gives a JSON number; a bool is neither
_NUMBER_TYPES = {int, float}


def _numbers(key, value, n) -> list:
    """A JSON array of exactly n finite JSON numbers (ints or floats, not
    bools or strings), as floats. An integer past the float range is not
    finite."""
    if type(value) is not list or len(value) != n or not {*map(type, value)} <= _NUMBER_TYPES:
        raise ValueError(f"{key} must be an array of {n} JSON numbers: {value!r}")
    try:
        floats = list(map(float, value))
        if all(map(math.isfinite, floats)):
            return floats
    except OverflowError:
        pass
    raise ValueError(f"{key} must be finite: non-finite value in {value!r}")


def _number(key, value) -> float:
    """One JSON number, as a float, under _numbers' rules."""
    if type(value) not in _NUMBER_TYPES:
        raise ValueError(f"{key} must be a JSON number: {value!r}")
    return _numbers(key, [value], 1)[0]


def _float_array(key, value) -> np.ndarray:
    """A JSON array of JSON numbers, or of such arrays, as float64.

    numpy reads it first without a dtype: a string gives kind U, all bools
    kind b, and both are rejected. A bool among numbers reads as 1 or 0, so
    wherever the numbers read are 0 or 1 the JSON values there must not be
    bools. null, or an integer past the int64 range, gives kind O: then
    every value must be a JSON number, and the values are converted with
    dtype float64, so an integer past the float range raises OverflowError.
    """
    arr = np.asarray(value)
    kind = arr.dtype.kind
    if kind in "fiu":
        zero_or_one = (arr == 0) | (arr == 1)
        if zero_or_one.any() and any(type(reduce(getitem, index, value)) is bool
                                     for index in np.argwhere(zero_or_one)):
            raise ValueError(f"{key} must hold only JSON numbers")
        return arr if kind == "f" else arr.astype(np.float64)
    if kind == "O" and {*map(type, arr.ravel())} <= _NUMBER_TYPES:
        return np.asarray(value, dtype=np.float64)
    raise ValueError(f"{key} must hold only JSON numbers")


def _text(key, value) -> str:
    """A label: a JSON string."""
    if type(value) is not str:
        raise ValueError(f"{key} must be a JSON string: {value!r}")
    return value


def _labels(key, value) -> tuple:
    """A label list: a JSON array of JSON strings."""
    if type(value) is not list:
        raise ValueError(f"{key} must be a JSON array of JSON strings: {value!r}")
    return tuple(_text(f"{key} item", v) for v in value)


@dataclass(frozen=True)
class StreamHeader:
    fps: float
    frame_width: int
    frame_height: int
    embedding_dim: int

    def __post_init__(self):
        # an fps the tracker can run at with its default initial window
        TrackerConfig(fps=self.fps)
        for key in ("frame_width", "frame_height", "embedding_dim"):
            _size(key, getattr(self, key))

    @property
    def frame_area(self) -> float:
        return float(self.frame_width * self.frame_height)


def _header(doc) -> StreamHeader:
    """The StreamHeader that a stream header or a truth document declares."""
    return StreamHeader(_number("fps", doc["fps"]), doc["frame_width"],
                        doc["frame_height"], doc["embedding_dim"])


def _header_fields(h) -> dict:
    """What _header reads, as the stream and truth writers write it."""
    return {"fps": canonical_float(h.fps), "frame_width": h.frame_width,
            "frame_height": h.frame_height, "embedding_dim": h.embedding_dim}


def _box_matrix(boxes) -> np.ndarray:
    """The (x, y, w, h) of each of `boxes`, one float64 row per box."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64).reshape(-1, 4)


def _boxes_ok(corners) -> np.ndarray:
    """Which rows of a float32 box matrix the readers accept: every value
    finite, the width and height above 0."""
    return np.isfinite(corners).all(axis=1) & (corners[:, 2] > 0) & (corners[:, 3] > 0)


def _spelled(values) -> list:
    """float32 values as a reader reads back the text the writers spell."""
    return [canonical_float(v) for v in values.tolist()]


def _refused(frames, i, exc):
    """ValueError in the words of a reader's exc, naming the frame of the
    i-th item (detection or entry) of `frames`."""
    frame = [f for f, items in frames for _ in items][i]
    return ValueError(f"frame {frame}: {exc}")


# the keypoints write_stream spells for a box (eyes, nose tip, mouth corners),
# as fractions of its width and height from its top-left corner
_KEYPOINTS = np.array([(0.30, 0.40), (0.70, 0.40), (0.50, 0.60), (0.35, 0.80), (0.65, 0.80)])


def write_stream(path, header: StreamHeader, frames) -> None:
    """Write a detection stream as JSONL (header line, then frame records);
    each detection's landmarks are its box's _KEYPOINTS.

    What read_stream would refuse raises ValueError in its words, naming
    the frame: a frame index that is not an integer one more than the one
    before, a box or keypoint that is not finite in float32, or a box width
    or height that is not above 0 in float32. The stream is written under a
    temporary name in the output's directory and moved into place at the
    end, so a refused stream leaves no file and keeps any file at `path`."""
    frames = _in_order(frames)
    with _replacing(path) as fh:
        fh.write(_dump({"version": STREAM_VERSION, **_header_fields(header)}) + "\n")
        # numbers are formatted 64 frames at a time, as in write_results
        while chunk := list(islice(frames, 64)):
            dets = [d for _, detections in chunk for d in detections]
            corners = _box_matrix([d.box for d in dets])
            # (x + fx * w, y + fy * h) in float64, five rows per box
            marks = (corners[:, None, :2] + _KEYPOINTS * corners[:, None, 2:]).reshape(-1, 2)
            with np.errstate(over="ignore"):  # past the float32 range: refused below
                corners, marks = corners.astype(np.float32), marks.astype(np.float32)
            points = marks.reshape(-1, 5, 2)
            for di in np.flatnonzero(~(_boxes_ok(corners) & np.isfinite(points).all(axis=(1, 2)))):
                try:  # the reader's own checks, on the numbers the file would hold
                    BoundingBox(*_numbers("box", _spelled(corners[di]), 4))
                    for point in points[di]:
                        _numbers("landmark point", _spelled(point), 2)
                except ValueError as exc:
                    raise _refused(chunk, di, exc) from None
            boxes, points = iter(float_arrays(corners)), iter(float_arrays(marks))
            embeddings = iter(float_arrays([d.embedding for d in dets]))
            for frame_index, detections in chunk:
                records = []
                for d in detections:
                    rec = ('{"box":' + next(boxes) + ',"landmarks":['
                           + ",".join(islice(points, 5)) + '],"embedding":' + next(embeddings))
                    if d.gt_label is not None:
                        rec += ',"gt_label":' + json.dumps(d.gt_label)
                    records.append(rec + "}")
                fh.write('{"frame":%d,"detections":[%s]}\n' % (
                    frame_index, ",".join(records)))


def _parse_detection(rec, frame_index, dim, lineno) -> Detection:
    try:
        box = BoundingBox(*_numbers("box", rec["box"], 4))
        if "landmarks" in rec:  # checked, then dropped
            points = [_numbers("landmark point", p, 2) for p in rec["landmarks"]]
            if len(points) != 5:
                raise ValueError(f"expected 5 landmark points, got {len(points)}")
        emb = _float_array("embedding", rec["embedding"])
        gt = _text("gt_label", rec["gt_label"]) if "gt_label" in rec else None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad detection record: {exc}", lineno)
    if emb.ndim != 1 or emb.shape[0] != dim:
        raise ParseError(
            f"embedding has dim {emb.shape}, header says {dim}", lineno)
    norm = float(np.linalg.norm(emb))
    if not math.isfinite(norm):
        raise ParseError("non-finite embedding", lineno)
    if norm == 0.0:
        raise ParseError("zero embedding", lineno)
    if abs(norm - 1.0) > DRIFT_TOL:
        warnings.warn(
            f"line {lineno}: embedding norm drifted to {norm:.6f}; re-normalizing",
            stacklevel=3)
    return Detection(frame=frame_index, box=box, embedding=emb / norm, gt_label=gt)


def _json_line(raw, lineno):
    """Decode one JSONL line; None for a truncated final line, i.e. one
    that fails to parse and has no trailing newline (only the last line of
    a file can lack one)."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        if not raw.endswith("\n"):
            return None
        raise ParseError(f"bad JSON: {exc.msg}", lineno)


def _frame_records(lines, start):
    """(line number, frame index, record) for each JSONL frame record of
    `lines`, numbered from `start`.

    A record must be an object whose "frame" is a JSON integer (not a bool
    or a float) one more than the frame before it; a bad line raises
    ParseError with its line number, and a frame out of order, repeated or
    skipped raises OutOfOrderFrame. A truncated final line ends the records.
    """
    last = None
    for lineno, raw in enumerate(lines, start):
        rec = _json_line(raw, lineno)
        if rec is None:
            return  # truncated tail
        frame = rec.get("frame") if isinstance(rec, dict) else None
        if type(frame) is not int:
            raise ParseError(f"frame must be a JSON integer: {frame!r}", lineno)
        if last is not None and frame != last + 1:
            raise OutOfOrderFrame(f"line {lineno}: frame {frame} after {last}")
        last = frame
        yield lineno, frame, rec


def iter_stream(path):
    """Open a JSONL detection stream for one pass.

    Returns (StreamHeader, frames). The header line is checked now; frames
    is an iterator that owns the open file and parses one line per frame
    as it is drawn, yielding (frame index, [Detection...]). Frame records
    follow _frame_records' rules for bad lines, frame order and a truncated
    final line (e.g. a writer caught mid-append), which is silently
    dropped; a bad line raises when the iterator reaches it.
    """
    records = _stream_records(path)
    return next(records), records


def read_stream(path):
    """Read a whole JSONL detection stream: iter_stream's header, and its
    frames as a list of (frame index, [Detection...])."""
    header, frames = iter_stream(path)
    return header, list(frames)


def _stream_records(path):
    """The StreamHeader of the stream in `path`, then each of its frames."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ParseError("empty stream file", 1)
        head = _json_line(first, 1)
        if head is None:
            raise ParseError("header line is truncated", 1)
        if not isinstance(head, dict) or "version" not in head:
            raise ParseError("first line must be the stream header", 1)
        if head["version"] != STREAM_VERSION:
            raise UnsupportedVersion(f"stream version {head['version']}")
        try:
            header = _header(head)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad stream header: {exc}", 1)
        yield header
        for lineno, frame_index, rec in _frame_records(fh, 2):
            try:
                raw_dets = list(rec["detections"])
            except (KeyError, TypeError) as exc:
                raise ParseError(f"bad frame record: {exc}", lineno)
            yield frame_index, [
                _parse_detection(r, frame_index, header.embedding_dim, lineno)
                for r in raw_dets]


def _unit_rows(key, frames, vectors, dim) -> np.ndarray:
    """The vectors of one gallery entry or track, normalized row by row:
    one length, `dim` unless it is None, only JSON numbers, a 2-D matrix,
    and every row finite and not zero. A bad row is named by its frame."""
    lengths = sorted({len(vec) for vec in vectors})
    if len(lengths) > 1:
        raise ValueError(f"{key} have mixed lengths {lengths}")
    if dim is not None and lengths[0] != dim:
        raise ValueError(f"{key} have length {lengths[0]}, not {dim}")
    mat = _float_array(key, vectors)
    if mat.ndim != 2:
        raise ValueError(f"{key} must be vectors of numbers")
    try:  # in blocks, so that a writer's float32 rows are widened to float64 64 at a time
        for start in range(0, len(mat), 64):
            l2_normalize_rows(mat[start:start + 64], out=mat[start:start + 64])
        return mat
    except InvalidEmbedding as exc:
        raise ValueError(f"frame {frames[start + exc.row]}: {exc}") from None


def _records(kind, records, vectors_key, dim=None):
    """(record, label, frames, unit rows) of each gallery entry or track
    record: a JSON string label that no earlier record holds, one JSON
    integer frame per vector, and vectors under _unit_rows' rule, of width
    `dim` or else the first record's. Errors name the label. A record with
    no vectors has no rows, and its constructor refuses it."""
    seen = set()
    for rec in records:
        label = _text(f"{kind} label", rec["label"])
        try:
            if label in seen:
                raise ValueError("duplicate label")
            seen.add(label)
            frames, vectors = rec["frames"], rec[vectors_key]
            if len(frames) != len(vectors):
                raise ValueError(f"{len(frames)} frames but {len(vectors)} {vectors_key}")
            for frame in frames:
                if type(frame) is not int:
                    raise ValueError(f"frames must be JSON integers: {frame!r}")
            rows = _unit_rows(vectors_key, frames, vectors, dim) if len(vectors) else []
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{kind} {label!r}: {exc}") from None
        if dim is None and len(vectors):
            dim = rows.shape[1]
        yield rec, label, frames, rows
        del rec, vectors, rows  # before the next record is built


def _float32_rows(vectors):
    """A record's vectors as one float32 matrix, stacked once; vectors of
    more than one shape as a list of float32 arrays, which _records refuses
    in the readers' words."""
    try:
        return np.array(vectors, dtype=np.float32)
    except ValueError:
        return [np.asarray(v, dtype=np.float32) for v in vectors]


def _write_records(path, head, kind, vectors_key, records) -> None:
    """Write head(width of the records, or None), then one object per
    (label, fields, frames, vectors) of `records`; fields is the text of
    the keys between the label and the frames. _records first reads every
    record's float32 values as they will be written, so a ValueError in
    the readers' words leaves no file and no change behind. The text of 64
    vectors is formatted at a time."""
    records = [(str(label), fields, [int(f) for f in frames], vectors)
               for label, fields, frames, vectors in records]
    with np.errstate(over="ignore"):  # past the float32 range is written as Infinity
        # map keeps no record, so one float32 matrix is held at a time
        dims = list(map(lambda checked: checked[3].shape[1], _records(kind, (
            {"label": label, "frames": frames, vectors_key: _float32_rows(vectors)}
            for label, _, frames, vectors in records), vectors_key)))
    with _replacing(path) as fh:
        fh.write(head(dims[0] if dims else None))
        for i, (label, fields, frames, vectors) in enumerate(records):
            fh.write('%s{"label":%s%s,"frames":%s,"%s":[' % (
                "," if i else "", json.dumps(label), fields, _int_array(frames), vectors_key))
            for start in range(0, len(vectors), 64):
                fh.write(("," if start else "") + ",".join(float_arrays(vectors[start:start + 64])))
            fh.write("]}")
        fh.write("]}\n")


def write_gallery(gallery: Gallery, path) -> None:
    """Write a gallery as a single JSON document (labels sorted); what
    read_gallery would refuse raises ValueError and writes nothing."""
    if not gallery.entries:
        raise EmptyGallery("refusing to write a gallery with no prototypes")
    _write_records(
        path, lambda dim: '{"version":%d,"method":%s,"k":%s,"seed":%s,"embedding_dim":%d,'
        '"entries":[' % (GALLERY_VERSION, json.dumps(gallery.method), json.dumps(gallery.k),
                         json.dumps(gallery.seed), dim),
        "entry", "prototypes",
        [(label, "", [p.source_frame for p in protos], [p.vector for p in protos])
         for label, protos in sorted(gallery.entries.items())])


def read_gallery(path) -> Gallery:
    """Read a gallery; every prototype must have the declared embedding_dim,
    and every entry a label of its own."""
    doc = _read_document(path, "gallery", GALLERY_VERSION)
    try:
        dim = _size("embedding_dim", doc["embedding_dim"])
        entries = {label: [Prototype(vec, f) for f, vec in zip(frames, rows)]
                   for _, label, frames, rows in _records(
                       "entry", doc["entries"], "prototypes", dim)}
        return Gallery(entries=entries, method=doc["method"],
                       k=doc.get("k"), seed=doc.get("seed"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad gallery document: {exc}")


def write_tracks(tracks, path) -> None:
    """Write training tracks as a single JSON document (labels sorted);
    what read_tracks would refuse raises ValueError and writes nothing."""
    _write_records(
        path, lambda dim: '{"version":%d,"tracks":[' % TRACKS_VERSION, "track", "embeddings",
        [(t.label, ',"fps":' + float_text(t.fps), [f for f, _ in t.samples],
          [e for _, e in t.samples]) for t in sorted(tracks, key=lambda t: t.label)])


def read_tracks(path):
    """Read training tracks: every embedding of the first track's width,
    every track a label of its own."""
    doc = _read_document(path, "tracks", TRACKS_VERSION)
    try:
        return [TrainingTrack(label, list(zip(frames, rows)),
                              _number(f"track {label!r}: fps", rec["fps"]))
                for rec, label, frames, rows in _records("track", doc["tracks"], "embeddings")]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad tracks document: {exc}")


def write_truth(stream, path) -> None:
    """Write ground-truth presence (plus stream metadata) as JSON."""
    doc = {
        "version": TRUTH_VERSION,
        **_header_fields(stream),
        "missing_in_training": list(stream.missing_in_training),
        "presence": {str(f): list(stream.presence[f])
                     for f in sorted(stream.presence)},
    }
    _write_lines(path, [_dump(doc)])


def read_truth(path):
    """Read a truth file back into a detection-free GroundTruthStream."""
    doc = _read_document(path, "truth", TRUTH_VERSION)
    try:
        presence = doc["presence"]
        if not isinstance(presence, dict):
            raise TypeError("presence must be a JSON object")
        for key in presence:  # frame indices, spelled as write_truth spells them
            if str(int(key)) != key:
                raise ValueError(f"presence key {key!r} is not a decimal integer")
        header = _header(doc)
        return GroundTruthStream(
            header.fps, header.frame_width, header.frame_height, header.embedding_dim,
            frames=[],
            presence={int(f): _labels(f"presence[{f}]", labels)
                      for f, labels in presence.items()},
            missing_in_training=_labels("missing_in_training",
                                        doc.get("missing_in_training", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad truth document: {exc}")


# each entry source as write_results spells it in JSON
_SOURCE_TEXT = {source: json.dumps(source) for source in ENTRY_SOURCES}


class _FloatTexts(dict):
    """float_text of each number looked up, spelled on its first lookup. A
    zero is spelled each time and never kept: 0.0 == -0.0, one key, but they
    spell differently."""

    def __missing__(self, x):
        text = float_text(x)
        if x:
            self[x] = text
        return text


def write_results(results, path) -> None:
    """Write FrameResults as JSONL, one frame per line.

    What read_results would refuse raises ValueError in its words, naming
    the frame: a frame index that is not an integer one more than the one
    before, or an entry whose label is not a string, whose box is not
    finite in float32 or has a width or height not above 0 there, whose
    distance is not finite and at least 0, or whose source is unknown. The
    file is written under a temporary name and moved into place as
    write_stream's is."""
    results = _in_order(results)
    label_text = cache(json.dumps)  # a file holds few distinct labels
    with _replacing(path) as fh:
        # boxes are formatted a few frames at a time: one bulk call per frame
        # costs more than the boxes, one per file raises the peak memory
        while chunk := list(islice(results, 64)):
            # a reused or occluded entry repeats its identity's last distance
            # from frame to frame; classified distances seldom repeat
            repeated_text = _FloatTexts()
            entries = [e for _, frame_entries in chunk for e in frame_entries]
            with np.errstate(over="ignore"):  # past the float32 range: refused below
                corners = _box_matrix([e.box for e in entries]).astype(np.float32)
            if not (_boxes_ok(corners).all() and all(
                    [type(e.label) is str and _entry_fault(e.distance, e.source) is None
                     for e in entries])):
                for i, e in enumerate(entries):
                    try:  # read_results' own checks, on the values the file would hold
                        FrameEntry(_text("label", e.label),
                                   BoundingBox(*_numbers("box", _spelled(corners[i]), 4)),
                                   _number("distance", canonical_float(e.distance)), e.source)
                    except ValueError as exc:
                        raise _refused(chunk, i, exc) from None
            boxes = iter(float_arrays(corners))
            for frame, frame_entries in chunk:
                text = ",".join([
                    '{"label":%s,"box":%s,"distance":%s,"source":%s}' % (
                        label_text(e.label), next(boxes),
                        float_text(e.distance) if e.source == SOURCE_CLASSIFIED
                        else repeated_text[e.distance],
                        _SOURCE_TEXT[e.source])
                    for e in frame_entries
                ])
                fh.write('{"frame":%d,"entries":[%s]}\n' % (frame, text))


def read_results(path):
    """Read a JSONL results file as FrameResults, with _frame_records' rules
    for bad lines, frame order and a truncated final line."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, frame_index, rec in _frame_records(fh, 1):
            try:
                entries = tuple(
                    FrameEntry(
                        label=_text("label", e["label"]),
                        box=BoundingBox(*_numbers("box", e["box"], 4)),
                        distance=_number("distance", e["distance"]),
                        source=e["source"],
                    )
                    for e in rec["entries"]
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad result record: {exc}", lineno)
            out.append(FrameResult(frame_index, entries))
    return out


# ---------------------------------------------------------------------------
# CSV report writers (deterministic: fixed headers, 9-significant-digit reals)


def _fmt(x) -> str:
    return format(float(x), ".9g")


def _csv_field(text) -> str:
    """A label as one CSV field that csv.reader reads back as itself: quoted,
    each quote doubled, when it holds a comma, a quote or a line end, and
    as given otherwise. csv.writer with "\\n" line ends leaves a lone
    carriage return unquoted (Python 3.11), and a reader splits the row
    there."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_score_csv(report, path) -> None:
    """Per-person accuracy rows plus an unweighted Average row. A participant
    labelled Average would give two rows a reader cannot tell apart, so such
    a report is refused with ValueError before any byte is written."""
    if "Average" in report.per_person:
        raise ValueError("participant label 'Average' is the name of "
                         "score.csv's average row")
    lines = ["label,present_frames_accuracy"]
    for label, acc in report.per_person.items():
        lines.append(f"{_csv_field(label)},{_fmt(acc)}")
    lines.append(f"Average,{_fmt(report.average)}")
    _write_lines(path, lines)


def write_score_json(report, path) -> None:
    doc = {
        "per_person": {l: canonical_float(a)
                       for l, a in report.per_person.items()},
        "average": canonical_float(report.average),
        "unknown_rate": canonical_float(report.unknown_rate),
        "false_label_rate": canonical_float(report.false_label_rate),
    }
    _write_lines(path, [_dump(doc)])


def write_summary_csv(results, path) -> None:
    """Per-label emission counts for a tracker run."""
    stats = {}
    for r in results:
        for e in r.entries:
            st = stats.setdefault(e.label, {s: 0 for s in ENTRY_SOURCES})
            st[e.source] += 1
    lines = ["label,frames,classified,reused,occluded"]
    for label in sorted(stats):
        st = stats[label]
        total = sum(st.values())
        lines.append(
            f"{_csv_field(label)},{total},{st['classified']},{st['reused']},{st['occluded']}")
    _write_lines(path, lines)


def write_sweep_csv(points, path) -> None:
    lines = ["k,accuracy,dot_products"]
    for p in points:
        lines.append(f"{p.k},{_fmt(p.accuracy)},{p.dot_products:d}")
    _write_lines(path, lines)
