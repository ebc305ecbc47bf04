"""File formats: detection streams, galleries, tracks, truth, results.

Detection streams are JSONL: one header object on the first line, then one
record per frame. Galleries, training tracks, and ground truth are single
JSON documents. All writers are deterministic byte streams for fixed
inputs: keys are emitted in a fixed order and every real number is
canonicalized to 9 significant digits, which round-trips the 32-bit values
the files store. In-memory arithmetic stays 64-bit; vectors are narrowed to
32-bit on write and re-normalized on read.

The canonical text of a real x is repr(canonical_float(x)), the repr of its
9-significant-digit value: ``96.0``, ``-0.0``, ``0.100000001``, ``1e-05``,
``1234567940.0``. Non-finite values would be spelled ``NaN``, ``Infinity``
and ``-Infinity`` as json.dumps spells them, but the readers reject them:
every number in an input file must be finite.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    EmptyGallery,
    InvalidEmbedding,
    OutOfOrderFrame,
    ParseError,
    UnsupportedVersion,
)
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


def canonical_float(x) -> float:
    """Round to 9 significant digits — the canonical on-disk precision."""
    return float(format(float(x), ".9g"))


def _float_text(x) -> str:
    """canonical_float(x) as JSON text, spelled as json.dumps spells it."""
    x = canonical_float(x)
    return repr(x) if math.isfinite(x) else json.dumps(x)


@lru_cache(maxsize=64)
def _array_format(shape, spec) -> str:
    """A %-format for a nested JSON array of `shape` with `spec` per number."""
    if not shape:
        return spec
    inner = _array_format(shape[1:], spec)
    return "[" + ",".join([inner] * shape[0]) + "]"


def _float_arrays(values) -> list:
    """JSON text of each item of `values` (equal-shape vectors or matrices)
    narrowed to float32, every number spelled as _float_text spells it.

    One %.9g pass formats every number. A decimal of at most 9 significant
    digits already has the digits of the repr of the double nearest to it,
    because doubles lie far closer together than such decimals, so only
    tokens that %g and repr lay out differently are rewritten: integral
    values below 1e9 (repr adds ".0"), values from 1e9 to 1e16 (repr stays
    positional) and non-finite ones.
    """
    with np.errstate(invalid="ignore"):  # a signalling NaN is still a NaN
        a = np.asarray(values, dtype=np.float32).astype(np.float64)
    shape = a.shape[1:]
    flat = a.reshape(len(a), math.prod(shape))
    rows = flat.tolist()
    texts = [_array_format(shape, "%.9g") % tuple(row) for row in rows]
    mag = np.abs(flat)
    # 0: %.9g is canonical, 1: "%.1f" is, 2: neither is
    kind = (((flat == np.floor(flat)) & (mag < 1e9))
            + 2 * (~np.isfinite(flat) | (mag >= 1e9) & (mag < 1e16)))
    for i in np.flatnonzero(kind.any(axis=1)).tolist():
        tokens = [_float_text(x) if k == 2 else ("%.9g", "%.1f")[k] % x
                  for x, k in zip(rows[i], kind[i].tolist())]
        texts[i] = _array_format(shape, "%s") % tuple(tokens)
    return texts


def _int_array(values) -> str:
    return "[" + ",".join(["%d" % v for v in values]) + "]"


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _size(key, value) -> int:
    """A frame side or embedding width: an integer (not a bool or a float
    with no fraction) of at least 1."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{key} must be an integer >= 1: {value!r}")
    return value


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


def _box_rows(boxes) -> list:
    return _float_arrays([(b.x, b.y, b.w, b.h) for b in boxes])


def _frame_record(frame_index, detections) -> str:
    boxes = _box_rows([d.box for d in detections])
    marks = iter(_float_arrays([d.landmarks.points for d in detections
                                if d.landmarks is not None]))
    embeddings = _float_arrays([d.embedding for d in detections])
    records = []
    for d, box, embedding in zip(detections, boxes, embeddings):
        rec = '{"box":' + box
        if d.landmarks is not None:
            rec += ',"landmarks":' + next(marks)
        rec += ',"embedding":' + embedding
        if d.gt_label is not None:
            rec += ',"gt_label":' + json.dumps(d.gt_label)
        records.append(rec + "}")
    return '{"frame":%d,"detections":[%s]}\n' % (frame_index, ",".join(records))


def write_stream(path, header: StreamHeader, frames) -> None:
    """Write a detection stream as JSONL (header line, then frame records)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump({
            "version": header.version,
            "fps": canonical_float(header.fps),
            "frame_width": header.frame_width,
            "frame_height": header.frame_height,
            "embedding_dim": header.embedding_dim,
        }) + "\n")
        for frame_index, detections in frames:
            fh.write(_frame_record(frame_index, detections))


def _parse_detection(rec, frame_index, dim, lineno) -> Detection:
    try:
        bx = rec["box"]
        coords = [float(bx[0]), float(bx[1]), float(bx[2]), float(bx[3])]
        points = None
        if "landmarks" in rec:
            points = tuple((float(p[0]), float(p[1])) for p in rec["landmarks"])
            coords += [v for p in points for v in p]
        if not all(map(math.isfinite, coords)):
            raise ValueError("non-finite box or landmark coordinate")
        box = BoundingBox(*coords[:4])
        landmarks = None if points is None else Landmarks(points)
        emb = np.asarray(rec["embedding"], dtype=np.float64)
        gt = rec.get("gt_label")
    except (KeyError, TypeError, IndexError, ValueError) as exc:
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


def read_stream(path):
    """Read a JSONL detection stream.

    Returns (StreamHeader, frames) where frames is a list of
    (frame index, [Detection...]). Malformed lines raise ParseError with
    their line number; a frame index other than the previous one plus one
    (out of order, repeated or skipped) raises OutOfOrderFrame — except
    that a truncated final line (no trailing newline, e.g. a writer caught
    mid-append) is silently dropped. Lines are parsed as they are read.
    """
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
            header = StreamHeader(
                fps=float(head["fps"]),
                frame_width=head["frame_width"],
                frame_height=head["frame_height"],
                embedding_dim=head["embedding_dim"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad stream header: {exc}", 1)

        frames = []
        last = None
        for lineno, raw in enumerate(fh, 2):
            rec = _json_line(raw, lineno)
            if rec is None:
                break  # truncated tail
            try:
                frame_index = int(rec["frame"])
                raw_dets = rec["detections"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad frame record: {exc}", lineno)
            if last is not None and frame_index != last + 1:
                raise OutOfOrderFrame(
                    f"line {lineno}: frame {frame_index} after {last}")
            last = frame_index
            detections = [
                _parse_detection(r, frame_index, header.embedding_dim, lineno)
                for r in raw_dets
            ]
            frames.append((frame_index, detections))
    return header, frames


def _unit_samples(kind, record, frames_key, vectors_key, dim=None):
    """[(frame, unit vector)] from one gallery entry or track record.

    The vectors are read as one matrix and normalized row by row. They
    must share one length, and that length must be `dim` unless it is
    None. Errors name the record's label; a count mismatch gives both
    counts, mixed lengths give the lengths, and a zero or non-finite
    vector the frame of its sample.
    """
    label = record["label"]
    try:
        frames, vectors = record[frames_key], record[vectors_key]
        if len(frames) != len(vectors):
            raise ValueError(
                f"{len(frames)} {frames_key} but {len(vectors)} {vectors_key}")
        if not vectors:
            return []
        lengths = sorted({len(vec) for vec in vectors})
        if len(lengths) > 1:
            raise ValueError(f"{vectors_key} have mixed lengths {lengths}")
        if dim is not None and lengths[0] != dim:
            raise ValueError(f"{vectors_key} have length {lengths[0]}, "
                             f"not {dim} as in the records before")
        mat = np.array(vectors, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError(f"{vectors_key} must be vectors of numbers")
        try:
            l2_normalize_rows(mat, out=mat)
        except InvalidEmbedding as exc:
            raise ValueError(f"frame {frames[exc.row]}: {exc}") from None
        return list(zip(map(int, frames), mat))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{kind} {label!r}: {exc}") from None


def write_gallery(gallery: Gallery, path) -> None:
    """Write a gallery as a single JSON document (labels sorted)."""
    if not gallery.entries:
        raise EmptyGallery("refusing to write a gallery with no prototypes")
    entries = []
    for label in gallery.labels:
        protos = gallery.entries[label]
        entries.append('{"label":%s,"frames":%s,"prototypes":[%s]}' % (
            json.dumps(label), _int_array([p.source_frame for p in protos]),
            ",".join(_float_arrays([p.vector for p in protos]))))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{"version":%d,"method":%s,"k":%s,"seed":%s,"embedding_dim":%s,'
                 '"entries":[%s]}\n' % (
                     GALLERY_VERSION, json.dumps(gallery.method), json.dumps(gallery.k),
                     json.dumps(gallery.seed), json.dumps(gallery.dim), ",".join(entries)))


def read_gallery(path) -> Gallery:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad gallery JSON: {exc.msg}", exc.lineno)
    if doc.get("version") != GALLERY_VERSION:
        raise UnsupportedVersion(f"gallery version {doc.get('version')}")
    entries = {}
    dim = None
    try:
        for ent in doc["entries"]:
            samples = _unit_samples("entry", ent, "frames", "prototypes", dim)
            entries[ent["label"]] = [Prototype(vec, f) for f, vec in samples]
            if samples:
                dim = len(samples[0][1])
        return Gallery(entries=entries, method=doc["method"],
                       k=doc.get("k"), seed=doc.get("seed"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad gallery document: {exc}")


def write_tracks(tracks, path) -> None:
    """Write training tracks as a single JSON document (labels sorted)."""
    records = [
        '{"label":%s,"fps":%s,"frames":%s,"embeddings":[%s]}' % (
            json.dumps(t.label), _float_text(t.fps),
            _int_array([f for f, _ in t.samples]),
            ",".join(_float_arrays([e for _, e in t.samples])))
        for t in sorted(tracks, key=lambda t: t.label)
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{"version":%d,"tracks":[%s]}\n' % (TRACKS_VERSION, ",".join(records)))


def read_tracks(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad tracks JSON: {exc.msg}", exc.lineno)
    if doc.get("version") != TRACKS_VERSION:
        raise UnsupportedVersion(f"tracks version {doc.get('version')}")
    out = []
    dim = None
    try:
        for t in doc["tracks"]:
            samples = _unit_samples("track", t, "frames", "embeddings", dim)
            out.append(TrainingTrack(t["label"], samples, float(t["fps"])))
            dim = len(samples[0][1])  # TrainingTrack rejects an empty track
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad tracks document: {exc}")
    return out


def write_truth(stream, path) -> None:
    """Write ground-truth presence (plus stream metadata) as JSON."""
    doc = {
        "version": TRUTH_VERSION,
        "fps": canonical_float(stream.fps),
        "frame_width": stream.frame_width,
        "frame_height": stream.frame_height,
        "embedding_dim": stream.embedding_dim,
        "missing_in_training": list(stream.missing_in_training),
        "presence": {str(f): list(stream.presence[f])
                     for f in sorted(stream.presence)},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump(doc) + "\n")


def read_truth(path):
    """Read a truth file back into a detection-free GroundTruthStream."""
    from .synth import GroundTruthStream

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad truth JSON: {exc.msg}", exc.lineno)
    if doc.get("version") != TRUTH_VERSION:
        raise UnsupportedVersion(f"truth version {doc.get('version')}")
    try:
        presence = {int(f): tuple(labels)
                    for f, labels in doc["presence"].items()}
        fps = float(doc["fps"])
        if not 0 < fps < math.inf:
            raise ValueError(f"fps must be positive and finite: {fps}")
        return GroundTruthStream(
            fps=fps,
            frame_width=_size("frame_width", doc["frame_width"]),
            frame_height=_size("frame_height", doc["frame_height"]),
            embedding_dim=_size("embedding_dim", doc["embedding_dim"]),
            frames=[],
            presence=presence,
            missing_in_training=tuple(doc.get("missing_in_training", ())),
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
                        json.dumps(e.label), next(boxes), _float_text(e.distance),
                        json.dumps(e.source))
                    for e in r.entries
                ])
                fh.write('{"frame":%d,"entries":[%s]}\n' % (r.frame, entries))


def read_results(path):
    """Read a JSONL results file as FrameResults, with read_stream's rules
    for bad lines, frame gaps and a truncated final line."""
    out = []
    last = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            rec = _json_line(raw, lineno)
            if rec is None:
                break  # truncated tail
            try:
                entries = tuple(
                    FrameEntry(
                        label=e["label"],
                        box=BoundingBox(*[float(v) for v in e["box"]]),
                        distance=float(e["distance"]),
                        source=e["source"],
                    )
                    for e in rec["entries"]
                )
                if not all(map(math.isfinite, [v for e in entries for v in (
                        e.box.x, e.box.y, e.box.w, e.box.h, e.distance)])):
                    raise ValueError("non-finite box or distance")
                frame_index = int(rec["frame"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad result record: {exc}", lineno)
            if any(e.source not in ENTRY_SOURCES for e in entries):
                raise ParseError("unknown entry source", lineno)
            if last is not None and frame_index != last + 1:
                raise OutOfOrderFrame(f"line {lineno}: frame {frame_index} after {last}")
            last = frame_index
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_score_json(report, path) -> None:
    doc = {
        "per_person": {l: canonical_float(a)
                       for l, a in report.per_person.items()},
        "average": canonical_float(report.average),
        "unknown_rate": canonical_float(report.unknown_rate),
        "false_label_rate": canonical_float(report.false_label_rate),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump(doc) + "\n")


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_timing_csv(rows, path) -> None:
    """Table of timing comparisons.

    rows: iterables of (name, duration_seconds, faces, baseline_spf,
    ours_spf, speedup_factor).
    """
    lines = ["video,duration_seconds,faces,baseline_seconds_per_frame,"
             "ours_seconds_per_frame,speedup_factor"]
    for name, duration, faces, base_spf, ours_spf, speedup in rows:
        lines.append(f"{name},{_fmt(duration)},{faces},{_fmt(base_spf)},"
                     f"{_fmt(ours_spf)},{_fmt(speedup)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_csv(points, path) -> None:
    lines = ["k,accuracy,seconds_per_frame"]
    for p in points:
        lines.append(f"{p.k},{_fmt(p.accuracy)},{_fmt(p.seconds_per_frame)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
