"""JSON interchange formats and the deterministic report emitter.

Complex numbers are two-element ``[re, im]`` arrays; matrices are flat
row-major lists of those pairs with the shape implied by ``dim``. Every entry
must be a finite JSON number (integers included); a non-finite or
out-of-range entry is a ``ParseError`` with the entry's path.

A list of wire matrices is checked and converted as one array: the checks are
C-level passes over the whole list, and only when one fails is the list
walked entry by entry to name the first offending entry in document order.
Reports are written by ``json.dumps``: fields keep their insertion order and
every float prints in the shortest form that reads back as the same double
(``-0.0`` keeps its sign, whole numbers print as ``1.0``), so identical inputs
produce byte-identical output and every value round-trips exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from itertools import chain

import numpy as np

from .channel import KrausChannel
from .errors import ParseError
from .linalg import DEFAULT_TOL, Tolerances
from .measurement import Povm, ProjectiveMeasurement

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# wire form of matrices
# ---------------------------------------------------------------------------


def matrix_to_wire(m: np.ndarray) -> list:
    a = np.ascontiguousarray(m, dtype=complex)  # row-major
    return a.view(float).reshape(-1, 2).tolist()


def _all_of(kind, items) -> bool:
    """Whether every item is an instance of ``kind``, tested once per type."""
    return all(issubclass(t, kind) for t in set(map(type, items)))


def _all_numbers(items) -> bool:
    """Whether every item is an int or a float; JSON ``true``/``false`` are not."""
    types = set(map(type, items))
    return bool not in types and all(issubclass(t, (int, float)) for t in types)


def _entry_error(data, n: int, path: str) -> ParseError | None:
    """The error for the first bad entry of one wire matrix, in document order."""
    if not isinstance(data, list):
        return ParseError("matrix must be a list of [re, im] pairs", path)
    if len(data) != n:
        return ParseError(f"expected {n} entries, got {len(data)}", path)
    for k, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2 and _all_numbers(pair)):
            return ParseError("entry must be a [re, im] pair of numbers", f"{path}[{k}]")
        try:
            finite = math.isfinite(pair[0]) and math.isfinite(pair[1])
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            return ParseError("entry must be a [re, im] pair of finite numbers", f"{path}[{k}]")
    return None


def _wire_stack(mats: list, n: int, paths) -> np.ndarray:
    """Convert wire matrices of ``n`` entries each into one ``(len(mats), n)``
    complex array; ``paths`` names each matrix for the error of a bad one."""
    pairs = chain.from_iterable
    flat = None
    if (
        _all_of(list, mats)
        and set(map(len, mats)) == {n}
        and _all_of(list, pairs(mats))
        and set(map(len, pairs(mats))) == {2}
        and _all_numbers(pairs(pairs(mats)))
    ):
        try:
            flat = np.fromiter(pairs(pairs(mats)), float, 2 * n * len(mats))
        except OverflowError:
            pass
    if flat is not None and np.isfinite(flat).all():
        return flat.view(complex).reshape(len(mats), n)
    for data, path in zip(mats, paths):
        if (error := _entry_error(data, n, path)) is not None:
            raise error
    raise AssertionError("a wire check failed but no entry is bad")


def wire_to_matrix(data, rows: int, cols: int, path: str) -> np.ndarray:
    return _wire_stack([data], rows * cols, [path]).reshape(rows, cols)


def _require(obj: dict, key: str, kind):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", "$")
    value = obj[key]
    if kind is int and isinstance(value, bool):
        raise ParseError(f"field {key!r} must be an integer", f"$.{key}")
    if not isinstance(value, kind):
        raise ParseError(f"field {key!r} has the wrong type", f"$.{key}")
    return value


def _header(data) -> tuple[dict, int]:
    """The document (text, UTF-8 bytes or a decoded object) as a dict, and its
    ``dim``: the checks every document shares, a JSON object with a string
    ``schema_version`` and an integer ``dim >= 1``."""
    try:
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
        if isinstance(data, str):
            data = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8; nested too deeply
        raise ParseError(f"cannot decode the document: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("document must be a JSON object")
    _require(data, "schema_version", str)
    dim = _require(data, "dim", int)
    if dim < 1:
        raise ParseError("dim must be >= 1", "$.dim")
    return data, dim


def _matrix_list(obj: dict, key: str, dim: int) -> np.ndarray:
    """The nonempty list field ``key`` of ``dim x dim`` wire matrices as one
    read-only ``(k, dim, dim)`` stack."""
    mats = _require(obj, key, list)
    if not mats:
        raise ParseError(f"{key} list must be nonempty", f"$.{key}")
    paths = (f"$.{key}[{k}]" for k in range(len(mats)))
    stack = _wire_stack(mats, dim * dim, paths).reshape(-1, dim, dim)
    stack.setflags(write=False)
    return stack


# ---------------------------------------------------------------------------
# channel documents
# ---------------------------------------------------------------------------


def _document(dim: int, **fields) -> dict:
    """A document: the ``schema_version`` and ``dim`` header, then ``fields``."""
    return {"schema_version": SCHEMA_VERSION, "dim": dim, **fields}


def channel_to_document(ch: KrausChannel, metadata: dict | None = None) -> dict:
    doc = _document(ch.dim, kraus=[matrix_to_wire(a) for a in ch.kraus])
    if metadata:
        doc["metadata"] = metadata
    return doc


def parse_channel_ops(data) -> tuple[int, np.ndarray]:
    """Parse the structure of a channel document without validating the map.

    Returns ``dim`` and the Kraus operators as one read-only ``(k, dim, dim)`` stack.
    """
    obj, dim = _header(data)
    return dim, _matrix_list(obj, "kraus", dim)


def parse_channel(data, tol: Tolerances = DEFAULT_TOL) -> KrausChannel:
    """Parse and validate a channel document.

    Raises ParseError with a field path on malformed input and
    ValidationError (carrying the residual report) on non-unital input.
    """
    _, ops = parse_channel_ops(data)
    return KrausChannel.from_kraus(ops, tol)


# ---------------------------------------------------------------------------
# measurement and operator documents
# ---------------------------------------------------------------------------


def measurement_to_document(m: Povm | ProjectiveMeasurement) -> dict:
    projective = isinstance(m, ProjectiveMeasurement)
    elements = m.projectors if projective else m.elements
    return _document(m.dim, type="projective" if projective else "povm",
                     elements=[matrix_to_wire(e) for e in elements])


def parse_measurement(data, tol: Tolerances = DEFAULT_TOL) -> Povm | ProjectiveMeasurement:
    """Parse a measurement document, checking its operators under ``tol``."""
    obj, dim = _header(data)
    kind = _require(obj, "type", str)
    if kind not in ("povm", "projective"):
        raise ParseError("type must be 'povm' or 'projective'", "$.type")
    mats = tuple(_matrix_list(obj, "elements", dim))
    if kind == "projective":
        return ProjectiveMeasurement(dim, mats, tol)
    return Povm(dim, mats, tol)


def operator_to_document(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    return _document(int(a.shape[0]), matrix=matrix_to_wire(a))


def parse_operator(data) -> np.ndarray:
    """Parse a single-operator document (states, POVM elements, unitaries)."""
    obj, dim = _header(data)
    return wire_to_matrix(_require(obj, "matrix", list), dim, dim, "$.matrix")


# ---------------------------------------------------------------------------
# deterministic report emission
# ---------------------------------------------------------------------------


def _plain(value):
    """A numpy scalar as its Python value; anything else has no JSON form."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def dumps_report(obj: dict) -> str:
    """Serialize a report compactly, fields in insertion order and each float
    in the shortest form that reads back as the same double."""
    return json.dumps(obj, separators=(",", ":"), default=_plain)


def tolerances_to_document(tol: Tolerances) -> dict:
    return asdict(tol)
