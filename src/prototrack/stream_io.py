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
JSON numbers too; a string, a null or an all-bool vector is rejected, but
a bool among numbers still reads as 1.0 or 0.0.

The writers spell vectors with floattext.float_arrays, 64 rows (or the
rows of 64 frames) per call. Its exact integer kernel spells each number x
with 1e-4 <= |x| < 1 at 9 significant digits (nearly all of an
embedding's), and a per-number %-format spells the others. write_tracks
and write_gallery stream their document to the file as they go."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import islice

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
from .types import (
    ENTRY_SOURCES,
    BoundingBox,
    Detection,
    FrameEntry,
    FrameResult,
    Landmarks,
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    """A JSON array of exactly n JSON numbers (ints or floats, not bools or
    strings), as floats. An integer past the float range is not finite."""
    if type(value) is not list or len(value) != n or not {*map(type, value)} <= _NUMBER_TYPES:
        raise ValueError(f"{key} must be an array of {n} JSON numbers: {value!r}")
    try:
        return list(map(float, value))
    except OverflowError:
        raise ValueError(f"{key} must be finite: {value!r}") from None


def _number(key, value) -> float:
    """One JSON number, as a float, under _numbers' rules."""
    if type(value) not in _NUMBER_TYPES:
        raise ValueError(f"{key} must be a JSON number: {value!r}")
    return _numbers(key, [value], 1)[0]


def _float_array(key, value) -> np.ndarray:
    """A JSON array of JSON numbers, or of such arrays, as float64.

    numpy reads it first without a dtype: a string gives kind U, all bools
    kind b, and both are rejected. null, or an integer past the int64
    range, gives kind O: then every value must be a JSON number, and the
    values are converted with dtype float64, so an integer past the float
    range raises OverflowError. A mix of bools and numbers reads as floats.
    """
    arr = np.asarray(value)
    kind = arr.dtype.kind
    if kind == "f":
        return arr
    if kind in "iu":
        return arr.astype(np.float64)
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
    version: int = STREAM_VERSION

    def __post_init__(self):
        if not 0 < self.fps < math.inf:
            raise ValueError(f"fps must be positive and finite: {self.fps}")
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


def _box_rows(boxes) -> list:
    return float_arrays([(b.x, b.y, b.w, b.h) for b in boxes])


def write_stream(path, header: StreamHeader, frames) -> None:
    """Write a detection stream as JSONL (header line, then frame records)."""
    frames = iter(frames)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump({"version": header.version, **_header_fields(header)}) + "\n")
        # numbers are formatted 64 frames at a time, as in write_results
        while chunk := list(islice(frames, 64)):
            dets = [d for _, detections in chunk for d in detections]
            boxes = iter(_box_rows([d.box for d in dets]))
            marks = iter(float_arrays([d.landmarks.points for d in dets
                                        if d.landmarks is not None]))
            embeddings = iter(float_arrays([d.embedding for d in dets]))
            for frame_index, detections in chunk:
                records = []
                for d in detections:
                    rec = '{"box":' + next(boxes)
                    if d.landmarks is not None:
                        rec += ',"landmarks":' + next(marks)
                    rec += ',"embedding":' + next(embeddings)
                    if d.gt_label is not None:
                        rec += ',"gt_label":' + json.dumps(d.gt_label)
                    records.append(rec + "}")
                fh.write('{"frame":%d,"detections":[%s]}\n' % (
                    frame_index, ",".join(records)))


def _parse_detection(rec, frame_index, dim, lineno) -> Detection:
    try:
        coords = _numbers("box", rec["box"], 4)
        points = None
        if "landmarks" in rec:
            points = tuple(tuple(_numbers("landmark point", p, 2))
                           for p in rec["landmarks"])
            coords += [v for p in points for v in p]
        if not all(map(math.isfinite, coords)):
            raise ValueError("non-finite box or landmark coordinate")
        box = BoundingBox(*coords[:4])
        landmarks = None if points is None else Landmarks(points)
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
    return Detection(frame=frame_index, box=box, embedding=emb / norm,
                     landmarks=landmarks, gt_label=gt)


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


def _unit_samples(kind, record, frames_key, vectors_key, dim=None):
    """[(frame, unit vector)] from one gallery entry or track record.

    Frames must be JSON integers (not bools or floats). The vectors are
    read as one matrix and normalized row by row. They must share one
    length, and that length must be `dim` unless it is None. Errors name
    the record's label; a count mismatch gives both counts, mixed lengths
    give the lengths, and a zero or non-finite vector the frame of its
    sample.
    """
    label = record["label"]
    try:
        frames, vectors = record[frames_key], record[vectors_key]
        if len(frames) != len(vectors):
            raise ValueError(
                f"{len(frames)} {frames_key} but {len(vectors)} {vectors_key}")
        for frame in frames:
            if type(frame) is not int:
                raise ValueError(f"{frames_key} must be JSON integers: {frame!r}")
        if not vectors:
            return []
        lengths = sorted({len(vec) for vec in vectors})
        if len(lengths) > 1:
            raise ValueError(f"{vectors_key} have mixed lengths {lengths}")
        if dim is not None and lengths[0] != dim:
            raise ValueError(f"{vectors_key} have length {lengths[0]}, not {dim}")
        mat = _float_array(vectors_key, vectors)
        if mat.ndim != 2:
            raise ValueError(f"{vectors_key} must be vectors of numbers")
        try:
            l2_normalize_rows(mat, out=mat)
        except InvalidEmbedding as exc:
            raise ValueError(f"frame {frames[exc.row]}: {exc}") from None
        return list(zip(frames, mat))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{kind} {label!r}: {exc}") from None


def _write_float_rows(fh, rows) -> None:
    """Write the JSON text of each of `rows` to `fh`, comma-separated,
    formatting 64 rows at a time."""
    for start in range(0, len(rows), 64):
        fh.write(("," if start else "") + ",".join(float_arrays(rows[start:start + 64])))


def write_gallery(gallery: Gallery, path) -> None:
    """Write a gallery as a single JSON document (labels sorted)."""
    if not gallery.entries:
        raise EmptyGallery("refusing to write a gallery with no prototypes")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{"version":%d,"method":%s,"k":%s,"seed":%s,"embedding_dim":%s,'
                 '"entries":[' % (GALLERY_VERSION, json.dumps(gallery.method),
                                  json.dumps(gallery.k), json.dumps(gallery.seed),
                                  json.dumps(gallery.dim)))
        for i, label in enumerate(gallery.labels):
            protos = gallery.entries[label]
            fh.write('%s{"label":%s,"frames":%s,"prototypes":[' % (
                "," if i else "", json.dumps(label),
                _int_array([p.source_frame for p in protos])))
            _write_float_rows(fh, [p.vector for p in protos])
            fh.write("]}")
        fh.write("]}\n")


def read_gallery(path) -> Gallery:
    """Read a gallery; every prototype must have the declared embedding_dim."""
    doc = _read_document(path, "gallery", GALLERY_VERSION)
    entries = {}
    try:
        dim = _size("embedding_dim", doc["embedding_dim"])
        for ent in doc["entries"]:
            samples = _unit_samples("entry", ent, "frames", "prototypes", dim)
            entries[ent["label"]] = [Prototype(vec, f) for f, vec in samples]
        return Gallery(entries=entries, method=doc["method"],
                       k=doc.get("k"), seed=doc.get("seed"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad gallery document: {exc}")


def write_tracks(tracks, path) -> None:
    """Write training tracks as a single JSON document (labels sorted),
    track by track, so that the text of only 64 embeddings is held at once."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{"version":%d,"tracks":[' % TRACKS_VERSION)
        for i, t in enumerate(sorted(tracks, key=lambda t: t.label)):
            fh.write('%s{"label":%s,"fps":%s,"frames":%s,"embeddings":[' % (
                "," if i else "", json.dumps(t.label), float_text(t.fps),
                _int_array([f for f, _ in t.samples])))
            _write_float_rows(fh, [e for _, e in t.samples])
            fh.write("]}")
        fh.write("]}\n")


def read_tracks(path):
    """Read training tracks; every embedding must have the first track's width."""
    doc = _read_document(path, "tracks", TRACKS_VERSION)
    out = []
    dim = None
    try:
        for t in doc["tracks"]:
            samples = _unit_samples("track", t, "frames", "embeddings", dim)
            fps = _number(f"track {t['label']!r}: fps", t["fps"])
            out.append(TrainingTrack(t["label"], samples, fps))
            dim = len(samples[0][1])  # TrainingTrack rejects an empty track
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad tracks document: {exc}")
    return out


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
    from .synth import GroundTruthStream

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


def write_results(results, path) -> None:
    """Write FrameResults as JSONL, one frame per line."""
    results = list(results)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # boxes are formatted a few frames at a time: one bulk call per frame
        # costs more than the boxes, one per file raises the peak memory
        for start in range(0, len(results), 64):
            chunk = results[start:start + 64]
            boxes = iter(_box_rows([e.box for r in chunk for e in r.entries]))
            for r in chunk:
                entries = ",".join([
                    '{"label":%s,"box":%s,"distance":%s,"source":%s}' % (
                        json.dumps(e.label), next(boxes), float_text(e.distance),
                        json.dumps(e.source))
                    for e in r.entries
                ])
                fh.write('{"frame":%d,"entries":[%s]}\n' % (r.frame, entries))


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
                if not all(map(math.isfinite, [v for e in entries for v in (
                        e.box.x, e.box.y, e.box.w, e.box.h, e.distance)])):
                    raise ValueError("non-finite box or distance")
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad result record: {exc}", lineno)
            out.append(FrameResult(frame_index, entries))
    return out


# ---------------------------------------------------------------------------
# CSV report writers (deterministic: fixed headers, 9-significant-digit reals)


def _fmt(x) -> str:
    return format(float(x), ".9g")


def write_score_csv(report, path) -> None:
    """Per-person accuracy rows plus an unweighted Average row."""
    lines = ["label,present_frames_accuracy"]
    for label, acc in report.per_person.items():
        lines.append(f"{label},{_fmt(acc)}")
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
            f"{label},{total},{st['classified']},{st['reused']},{st['occluded']}")
    _write_lines(path, lines)


def write_sweep_csv(points, path) -> None:
    lines = ["k,accuracy,seconds_per_frame"]
    for p in points:
        lines.append(f"{p.k},{_fmt(p.accuracy)},{_fmt(p.seconds_per_frame)}")
    _write_lines(path, lines)
