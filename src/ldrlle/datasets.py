"""Synthetic manifold samples, and the package's CSV and JSON file formats.

Every generator returns the embedded sample together with its ground-truth
low-dimensional parameters (the preimage), so an embedding can later be
scored against a known answer.  Every draw comes from one
np.random.default_rng(seed) call, numpy's PCG64 bit generator; uniform
variates are PCG64's native 53-bit-mantissa doubles, so a given (n, seed)
pair reproduces bit-identically across runs.
"""

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, LdrLleError

__all__ = [
    "GENERATORS",
    "GeneratedSample",
    "gen_open_ring",
    "gen_scurve",
    "gen_swissroll",
    "generate",
    "load_csv",
    "preimage_path",
    "save_csv",
    "save_sample",
    "scurve_map",
    "swissroll_map",
    "validate_cloud",
]

# The open ring spans 270 degrees.  The 90-degree gap is larger than four
# point spacings at n = 16, so Euclidean neighborhoods (K <= 4) never jump
# the opening and arc length stays recoverable from the graph.
RING_ARC = 1.5 * np.pi

# Rows write_rows converts to Python scalars at a time, so no CSV writer holds
# its table as Python lists, and points weight assembly solves at a time, so
# no stack of the whole cloud's neighborhoods is held.
BLOCK = 4096


def validate_cloud(data) -> np.ndarray:
    """Check point-cloud invariants and return the data as a float64 array.

    A point cloud is an N x D matrix, one point per row, every entry finite,
    with N >= 1 and D >= 1.  Raises ValueError otherwise.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"point cloud must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"point cloud must be at least 1 x 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point cloud contains non-finite entries")
    return arr


def as_columns(a) -> np.ndarray:
    """a as a float array of coordinate columns, one row per point.

    A 1-D array is one column and a 2-D array is left as it is; any other
    number of dimensions raises ValueError.  The quality statistics read
    their inputs through it.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError(f"need a 1-D array or a 2-D array of columns, got shape {arr.shape}")
    return arr[:, None] if arr.ndim == 1 else arr


def as_count(value, name: str, below=None) -> int:
    """value as a Python int of at least 1, through operator.index, so numpy
    integers pass; anything else, such as 2.0, raises TypeError and a count
    below 1 ValueError, each naming the argument.  below, a (limit, label)
    pair, is the exclusive upper bound: a count >= limit raises ValueError
    "<name> must be < <label> = <limit>, got <count>".  Every count's range
    in the package is checked here, each caller filling below from its own
    inputs: K < N for knn, d < K for the rank-d weights, d < N - 1 for embed."""
    try:
        count = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    if below is not None and count >= below[0]:
        raise ValueError(f"{name} must be < {below[1]} = {below[0]}, got {count}")
    return count


@dataclass
class GeneratedSample:
    """A generated point cloud with its row-aligned ground-truth parameters."""

    points: np.ndarray    # (N, D)
    preimage: np.ndarray  # (N, d)


def gen_open_ring(n: int) -> GeneratedSample:
    """Points on the unit circle with a 90-degree gap, parameterized by angle.

    The n angles are uniformly spaced over [0, 3*pi/2]; the preimage is the
    angle itself, which is arc length on the unit circle.  Deterministic.
    n is a count (see as_count): 3.0 raises TypeError and n < 1 ValueError;
    1 and 2 raise ValueError "open ring needs n >= 3, got 2".
    """
    if as_count(n, "n") < 3:
        raise ValueError(f"open ring needs n >= 3, got {n}")
    theta = np.linspace(0.0, RING_ARC, n)
    points = np.column_stack([np.cos(theta), np.sin(theta)])
    return GeneratedSample(points, theta[:, None].copy())


def scurve_map(t, h) -> np.ndarray:
    """The S-shaped sheet: (t, h) -> (sin t, h, sign(t) * (cos t - 1))."""
    t = np.asarray(t, dtype=float)
    h = np.asarray(h, dtype=float)
    return np.column_stack([np.sin(t), h, np.sign(t) * (np.cos(t) - 1.0)])


def swissroll_map(t, h) -> np.ndarray:
    """The rolled sheet: (t, h) -> (t cos t, h, t sin t)."""
    t = np.asarray(t, dtype=float)
    h = np.asarray(h, dtype=float)
    return np.column_stack([t * np.cos(t), h, t * np.sin(t)])


def _sheet(n: int, seed: int, t_of_u, height: float, sheet_map) -> GeneratedSample:
    """n points of a sheet drawn uniformly in parameter space.

    One (n, 2) uniform draw gives (u, v) on the unit square, t = t_of_u(u) and
    the height h = height * v; the points are sheet_map(t, h) and the preimage
    is (t, h).  n is a count (see as_count): 2.0 raises TypeError and n < 1
    ValueError, before anything is drawn.
    """
    uv = np.random.default_rng(seed).random((as_count(n, "n"), 2))
    t = t_of_u(uv[:, 0])
    h = height * uv[:, 1]
    return GeneratedSample(sheet_map(t, h), np.column_stack([t, h]))


def gen_scurve(n: int, seed: int = 0) -> GeneratedSample:
    """n points drawn uniformly on the S-shaped sheet.

    t = 3*pi*(u - 1/2) and the height is 2*v for (u, v) uniform on the unit
    square; the preimage is (t, 2*v), an isometric parameterization.  A
    non-integer n raises TypeError and n < 1 ValueError, "n must be >= 1,
    got 0".
    """
    return _sheet(n, seed, lambda u: 3.0 * np.pi * (u - 0.5), 2.0, scurve_map)


def gen_swissroll(n: int, seed: int = 0) -> GeneratedSample:
    """n points drawn uniformly in parameter space on the rolled sheet.

    t = (3*pi/2)*(1 + 2u) and the height is 21*v for (u, v) uniform on the
    unit square; the preimage is (t, 21*v).  A non-integer n raises
    TypeError and n < 1 ValueError, "n must be >= 1, got 0".
    """
    return _sheet(n, seed, lambda u: 1.5 * np.pi * (1.0 + 2.0 * u), 21.0, swissroll_map)


GENERATORS = {
    "ring": lambda n, seed: gen_open_ring(n),
    "scurve": gen_scurve,
    "swissroll": gen_swissroll,
}


def generate(name: str, n: int, seed: int = 0) -> GeneratedSample:
    """Dispatch to a named generator.  The ring is deterministic (seed unused)."""
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}; choose from {sorted(GENERATORS)}")
    return GENERATORS[name](n, seed)


def write_rows(columns, path, header=()) -> None:
    """One comma-joined line per row: the writer of every CSV file in the package.

    columns is a sequence of 1-D arrays of one length; row i holds their
    i-th entries, after one header line when header is given.  No columns
    means no rows, as zip(*rows) of no rows gives no columns.  Each
    column is converted to Python scalars (.tolist()) BLOCK rows at a time,
    so no writer holds its table as Python lists; "%s" gives a numpy scalar
    the same text, but formats it 1.4-1.8x slower.  One "%s,...,%s" format,
    which applies str to each cell, writes every row; a float's str is its
    shortest round-trip repr.  Each line is written as it is formatted, so
    the writer never holds the file's text."""
    line = ",".join(["%s"] * len(columns)) + "\n"
    with open(path, "w") as f:
        if header:
            f.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]) if len(columns) else 0, BLOCK):
            # One expression, so a block's lists are freed before the next block's are made.
            f.writelines(line % row
                         for row in zip(*[c[start:start + BLOCK].tolist() for c in columns]))


def write_json(payload, path) -> None:
    """Write payload as strict JSON: indent 2, sorted keys, so identical runs give
    identical bytes.  A non-finite value raises LdrLleError naming the file,
    before anything is written."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise LdrLleError(f"{path} not written: {exc}") from exc
    Path(path).write_text(text)


def save_csv(cloud, path) -> None:
    """Write a point cloud as headerless CSV.

    Cells use repr of the float, the shortest string that round-trips, so a
    save/load cycle reproduces the array exactly.
    """
    write_rows(validate_cloud(cloud).T, path)


def load_csv(path) -> np.ndarray:
    """Read a headerless numeric CSV into a point cloud.

    Raises CsvFormatError naming the offending line for ragged rows and the
    line/column for unparseable cells; non-finite values are rejected by the
    cloud validation.
    """
    lines = Path(path).read_text().splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CsvFormatError(f"{path}: empty file")
    rows = []
    width = lines[0].count(",") + 1
    for lineno, line in enumerate(lines, start=1):
        cells = line.split(",")
        if len(cells) != width:
            raise CsvFormatError(
                f"{path}: ragged row at line {lineno} "
                f"({len(cells)} fields, expected {width})",
                row=lineno,
            )
        for colno, cell in enumerate(cells, start=1):
            try:
                cells[colno - 1] = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: cannot parse {cell.strip()!r} at line {lineno}, column {colno}",
                    row=lineno,
                    column=colno,
                ) from None
        rows.append(cells)
    return validate_cloud(np.array(rows, dtype=float))


def preimage_path(path) -> Path:
    """Sibling file that carries a sample's ground-truth parameters."""
    p = Path(path)
    if p.suffix == ".csv":
        return p.with_suffix(".preimage.csv")
    return Path(str(p) + ".preimage.csv")


def save_sample(sample: GeneratedSample, path) -> None:
    """Write a sample's points to `path` and its preimage to the sibling file."""
    save_csv(sample.points, path)
    save_csv(sample.preimage, preimage_path(path))
