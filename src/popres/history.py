"""The append-only history of monitoring reports and its sidecar index.

A history is a JSON-lines file of reports, appended to under an exclusive lock; a
duplicate submission (same label and content) is acknowledged as a no-op.  Each append
overwrites the sidecar ``<history>.idx`` in place: a line of the SHA-256 hex of the
history's first ``length`` bytes followed by the body, a space and ``length``; then the
body, a one-line JSON header of the layout's ``schema`` and the ``labels`` in the order
they first occur, and one packed int64 (offset, position of the label in ``labels``,
fingerprint) triple per report line in file order, in this machine's byte order.  A line's
ordinal is its triple's position + 1.  The fingerprint is ``hash`` of a ``prs_value`` that
is a number, which equal numbers share, and -1 for anything else.

The next append validates only what follows the recorded bytes and, of the lines before,
parses only the report's label's lines whose fingerprint could equal the report's.
Deleting the sidecar is safe and costs one full scan.  So does a stale one: a torn or
partial write, an edit not sealed again, one of another layout, packing, byte order or hash
function, and an edited history.  The digest is a checksum, not a signature: a sidecar
edited and sealed again is trusted, and only its triples that could equal the report are
checked against the history.  An append skips both SHA-256 passes when the sidecar is byte
for byte the one this process last sealed and the history still starts with the bytes it
sealed; for that the process holds one copy of that history.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import sys
from array import array
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .errors import ValidationError
from .reporting import MonitoringReport

_REPORT_FIELDS = frozenset(f.name for f in fields(MonitoringReport))
_REQUIRED_FIELDS = frozenset(f.name for f in fields(MonitoringReport) if f.default is MISSING)


@dataclass(frozen=True)
class HistoryAck:
    """``line_count`` is the ordinal among non-blank lines of the appended line or,
    for a duplicate, of the stored line that equals the report."""

    line_count: int
    duplicate: bool = False


def _entry(text: bytes) -> Optional[dict]:
    """The fields of one history line, or ``None`` if it is blank; ``ValueError`` or
    ``TypeError`` if it is not a report."""
    text = text.decode()
    if not text.strip():
        return None
    entry = json.loads(text)
    if not isinstance(entry, dict):
        raise TypeError(f"expected a JSON object, got {type(entry).__name__}")
    keys = entry.keys()
    if not _REQUIRED_FIELDS <= keys <= _REPORT_FIELDS:
        raise TypeError(
            f"unknown fields {sorted(keys - _REPORT_FIELDS)}, "
            f"missing fields {sorted(_REQUIRED_FIELDS - keys)}"
        )
    return entry


def _history(path: Path, data: bytes, start: int = 0) -> Iterator[tuple]:
    """(byte offset, fields or None if blank) of each line from byte ``start``; a line
    that is not a report is corrupt, and numbered from the bytes before it.  Bytes split
    lines only at ``\\r\\n``, ``\\r`` and ``\\n``, as universal newlines do."""
    offset = start
    for text in data[start:].splitlines(keepends=True):
        try:
            entry = _entry(text)
        except (ValueError, TypeError) as exc:
            number = len(data[:offset].splitlines()) + 1
            raise ValidationError(f"{path}:{number}: corrupt history line ({exc})") from exc
        yield offset, entry
        offset += len(text)


_ANY = -1  # the fingerprint that may equal anything; CPython's hash never returns -1
_INDEX_SCHEMA = (f"offset,label,fingerprint;raw array-q {sys.byteorder}-endian;"
                 f"any={_ANY};hash-modulus={sys.hash_info.modulus}")
_TRIPLE = 3 * array("q").itemsize
# The last sidecar this process wrote: its bytes, the history bytes the append read, the
# bytes it appended and the SHA-256 state of those two.  One slot, so one history is held.
_last_seal = None


def _fingerprint(value) -> int:
    """An integer equal ``prs_value``s share, or ``_ANY``: the hash of other types, such
    as ``str``, may differ from one process to the next.  So may a NaN's, but a NaN
    ``prs_value`` equals nothing."""
    return hash(value) if type(value) in (int, float) else _ANY


def _read_index(path: Path, data: bytes, label: str, key: int) -> tuple:
    """The sidecar's ``(length, labels, payload)``, with ``labels`` mapping each label to
    its position, the SHA-256 of the first ``length`` bytes and ``(ordinal, fields)`` of
    their lines of ``label`` whose fingerprint may equal ``key``.  Nothing is parsed before
    the digest holds.  A missing or stale sidecar, or one wrong about such a line, vouches
    for no bytes."""
    try:
        raw = Path(f"{path}.idx").read_bytes()
        seal, _, body = raw.partition(b"\n")
        written, old, new, state = _last_seal or (None, b"", b"", None)
        if raw == written and data.startswith(old) and data.startswith(new, len(old)):
            # the very bytes this process hashed when it wrote the sidecar: the digest holds
            length, digest = len(old) + len(new), state.copy()
        else:
            hexdigest, length = seal.split(b" ")
            length = int(length)
            if not 0 <= length <= len(data):
                raise ValueError("the history changed since the sidecar was written")
            digest = hashlib.sha256(memoryview(data)[:length])
            sealed = digest.copy()
            sealed.update(body)
            if sealed.hexdigest().encode() != hexdigest:
                raise ValueError("the history or the sidecar changed since it was written")
        head, _, payload = body.partition(b"\n")
        index = json.loads(head)
        labels = {name: at for at, name in enumerate(index["labels"])}
        if index["schema"] != _INDEX_SCHEMA or list(labels) != index["labels"]:
            raise ValueError("a sidecar of another format")
        triples = np.frombuffer(payload, np.int64).reshape(-1, 3)
        fps, same = triples[:, 2], []
        may_equal = (fps == key) | (fps == _ANY) | (key == _ANY)
        for i in np.flatnonzero((triples[:, 1] == labels.get(label, -1)) & may_equal).tolist():
            offset = int(triples[i, 0])
            starts = 0 <= offset < length and (not offset or data[offset - 1] in b"\r\n")
            # the line at offset, ended where _history ends it
            text = data[offset:data.find(b"\n", offset) + 1 or len(data)].splitlines(True)[0]
            entry = _entry(text) if starts else None
            if entry is None or str(entry["label"]) != label:
                raise ValueError(f"offset {offset} does not start a line of {label!r}")
            same.append((i + 1, entry))
        return (length, labels, payload), digest, same
    except (OSError, ValueError, TypeError, KeyError):
        return (0, {}, b""), hashlib.sha256(), []


def append_history(report: MonitoringReport, history_path: str | Path) -> HistoryAck:
    """Append one JSON line; a report equal to one already stored is a no-op.

    Every line is validated first, but of the lines the sidecar vouches for
    only those of the report's label whose ``prs_value`` fingerprint matches
    the report's are parsed again."""
    global _last_seal
    path = Path(history_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    label, key = str(report.label), _fingerprint(report.prs_value)
    with open(path, "ab+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            fh.seek(0)
            data = fh.read()
            (start, labels, payload), digest, same = _read_index(path, data, label, key)
            count, added = len(payload) // _TRIPLE, array("q")  # the triples after ``start``
            for offset, entry in _history(path, data, start):
                if entry is not None:
                    count += 1
                    name, fp = str(entry["label"]), _fingerprint(entry["prs_value"])
                    added.extend((offset, labels.setdefault(name, len(labels)), fp))
                    if name == label and (fp == key or _ANY in (fp, key)):
                        same.append((count, entry))
            # prs_value first: it is cheap, and a NaN equals nothing, not even the one NaN
            # object that json parses every NaN to
            ordinal = next((o for o, entry in same if entry["prs_value"] == report.prs_value
                            and MonitoringReport(**entry) == report), None)
            new = b""
            if ordinal is None:
                # a last line without its newline would run into the new one
                new = b"" if data[-1:] in (b"", b"\n") else b"\n"
                count += 1
                added.extend((len(data) + len(new), labels.setdefault(label, len(labels)), key))
                new += json.dumps(vars(report), sort_keys=True).encode() + b"\n"
                fh.write(new)
                fh.flush()
            # a sidecar ends where a line ends: another writer may continue an unended last line
            if start < len(data) + len(new) and (new or data.endswith((b"\r", b"\n"))):
                index = {"schema": _INDEX_SCHEMA, "labels": list(labels)}
                head = json.dumps(index, separators=(",", ":")).encode()  # json escapes "\n"
                body = b"".join([head, b"\n", payload, added.tobytes()])
                digest.update(data[start:] + new)
                state = digest.copy()
                digest.update(body)
                sealed = b"%s %d\n%s" % (digest.hexdigest().encode(), len(data) + len(new), body)
                # written in place: a torn or untruncated write fails the digest, and costs
                # the next append one full scan
                with contextlib.suppress(OSError):  # the next append then scans further back
                    fd = os.open(f"{path}.idx", os.O_WRONLY | os.O_CREAT, 0o666)
                    try:
                        os.pwrite(fd, sealed, 0)
                        os.ftruncate(fd, len(sealed))
                    finally:
                        os.close(fd)
                    _last_seal = sealed, data, new, state
            return HistoryAck(count) if ordinal is None else HistoryAck(ordinal, duplicate=True)
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def read_history(history_path: str | Path) -> list[MonitoringReport]:
    path = Path(history_path)
    entries = _history(path, path.read_bytes())
    return [MonitoringReport(**entry) for _, entry in entries if entry is not None]
