"""Plain-text persistence for models, datasets and configuration.

Model files are versioned and human-readable: a ``redar-model 1`` header,
a ``type`` line, then ``matrix NAME ROWS COLS`` blocks with one
whitespace-separated row per line.  Floats are written with ``repr`` so a
save/load/save cycle is byte-identical.  Closed loops nest their plant
and controller in ``begin``/``end`` sections.

Datasets travel as CSV with channel headers u1..u_{n_u}, y1..y_{n_y},
one sample per row; their floats are also written with ``repr``.
Configuration files are flat ``key = value`` lines with ``#`` comments.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, SchemaError
from .realization import IdentifiedModel
from .systems import ClosedLoop, Controller, InnovationModel
from .varx import Dataset

__all__ = [
    "FORMAT_VERSION",
    "save_model",
    "load_model",
    "dumps_model",
    "loads_model",
    "save_dataset_csv",
    "load_dataset_csv",
    "parse_config",
    "load_config",
]

FORMAT_VERSION = 1

# type tag -> class, whose _MATRICES gives its matrix names in file
# order; closed loops nest two of these in sections instead of holding
# matrices
_MATRIX_MODELS = {
    "innovation": InnovationModel,
    "controller": Controller,
    "identified": IdentifiedModel,
}


def _format_matrix(name: str, m) -> list[str]:
    m = np.asarray(m, dtype=float)
    lines = [f"matrix {name} {m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(repr(float(v)) for v in row))
    return lines


def _model_body(model) -> list[str]:
    for kind, cls in _MATRIX_MODELS.items():
        if isinstance(model, cls):
            lines = [f"type {kind}"]
            for name, *_ in cls._MATRICES:
                lines += _format_matrix(name, getattr(model, name))
            return lines
    if isinstance(model, ClosedLoop):
        lines = ["type closed-loop", "begin plant"]
        lines += _model_body(model.plant)
        lines += ["end", "begin controller"]
        lines += _model_body(model.controller)
        return lines + ["end"]
    raise TypeError(f"cannot serialize {type(model).__name__}")


def dumps_model(model) -> str:
    return "\n".join([f"redar-model {FORMAT_VERSION}"] + _model_body(model)) + "\n"


def save_model(path, model) -> None:
    Path(path).write_text(dumps_model(model))


class _Parser:
    """Line cursor with schema errors carrying 1-based line numbers."""

    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.pos = 0

    def fail(self, message: str):
        # pos already sits one past the consumed line, so it is its 1-based number
        raise SchemaError(message, line=self.pos)

    def next_line(self, skip_blank: bool = True) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if skip_blank and not line.strip():
                continue
            return line
        self.pos = len(self.lines)
        self.fail("unexpected end of file")

    def peek(self) -> str | None:
        pos = self.pos
        while pos < len(self.lines):
            if self.lines[pos].strip():
                return self.lines[pos]
            pos += 1
        return None


def _parse_matrix(parser: _Parser, header: str):
    parts = header.split()
    if len(parts) != 4:
        parser.fail(f"malformed matrix header: {header!r}")
    _, name, rows_s, cols_s = parts
    try:
        rows, cols = int(rows_s), int(cols_s)
    except ValueError:
        parser.fail(f"matrix dimensions must be integers: {header!r}")
    if rows < 0 or cols < 0:
        parser.fail(f"matrix dimensions must be nonnegative: {header!r}")
    data = np.zeros((rows, cols))
    for i in range(rows):
        line = parser.next_line(skip_blank=cols > 0)
        tokens = line.split()
        if len(tokens) != cols:
            parser.fail(f"matrix {name} row {i + 1}: expected {cols} values, got {len(tokens)}")
        try:
            data[i] = [float(t) for t in tokens]
        except ValueError:
            parser.fail(f"matrix {name} row {i + 1}: non-numeric value")
    return name, data


def _parse_body(parser: _Parser):
    """Read one typed block: a type line, then matrices and nested sections."""
    type_line = parser.next_line().strip()
    start = parser.pos
    if not type_line.startswith("type "):
        parser.fail(f"expected a type line, got {type_line!r}")
    kind = type_line[5:].strip()
    matrices: dict[str, np.ndarray] = {}
    sections: dict[str, object] = {}
    while True:
        nxt = parser.peek()
        if nxt is None:
            break
        stripped = nxt.strip()
        if stripped.startswith("matrix "):
            parser.next_line()
            name, data = _parse_matrix(parser, stripped)
            if name in matrices:
                parser.fail(f"duplicate matrix {name!r}")
            matrices[name] = data
        elif stripped.startswith("begin "):
            parser.next_line()
            section = stripped[6:].strip()
            sections[section] = _build(parser)
            end = parser.next_line().strip()
            if end != "end":
                parser.fail(f"expected 'end', got {end!r}")
        else:
            break
    return kind, matrices, sections, start


def _build(parser: _Parser):
    """The model of one typed block.  A shape or value check of the model
    that fails is a schema error at the block's type line; an unstable loop
    or degenerate noise keeps its own error."""
    block_kind, matrices, sections, start = _parse_body(parser)
    try:
        return _model(parser, block_kind, matrices, sections)
    except (ValueError, DimensionMismatch) as exc:
        raise SchemaError(f"{block_kind} model: {exc}", line=start) from None


def _model(parser: _Parser, block_kind, matrices, sections):
    if block_kind in _MATRIX_MODELS:
        cls = _MATRIX_MODELS[block_kind]
        names = tuple(name for name, *_ in cls._MATRICES)
        missing = [f for f in names if f not in matrices]
        extra = [f for f in matrices if f not in names]
        if missing or extra:
            parser.fail(
                f"{block_kind} model needs matrices {names}, missing {missing}, extra {extra}"
            )
        return cls(**matrices)
    if block_kind == "closed-loop":
        if matrices or set(sections) != {"plant", "controller"}:
            parser.fail("closed-loop model needs exactly the plant and controller sections")
        plant, controller = sections["plant"], sections["controller"]
        if not isinstance(plant, InnovationModel) or not isinstance(controller, Controller):
            parser.fail("closed-loop sections have the wrong types")
        return ClosedLoop(plant, controller)
    parser.fail(f"unknown model type {block_kind!r}")


def loads_model(text: str):
    parser = _Parser(text)
    header = parser.next_line().strip()
    parts = header.split()
    if len(parts) != 2 or parts[0] != "redar-model":
        parser.fail(f"expected 'redar-model {FORMAT_VERSION}' header, got {header!r}")
    if parts[1] != str(FORMAT_VERSION):
        parser.fail(f"unsupported format version {parts[1]!r}")
    model = _build(parser)
    trailing = parser.peek()
    if trailing is not None:
        parser.next_line()
        parser.fail(f"trailing content: {trailing.strip()!r}")
    return model


def load_model(path):
    return loads_model(Path(path).read_text())


def _csv_text(header, rows) -> str:
    """CSV text of already rendered cells: the header and then each row,
    comma-separated, one line each, with a closing newline."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


_CSV_ROWS = 1024  # dataset rows rendered per write


def save_dataset_csv(path, ds: Dataset) -> None:
    """Write the joint signal as CSV with u/y channel headers.

    Each cell is ``repr`` of its float.  Rows are rendered and written
    ``_CSV_ROWS`` at a time, from one ``tolist()`` of the block.
    """
    header = [f"u{i + 1}" for i in range(ds.n_u)] + [f"y{i + 1}" for i in range(ds.n_y)]
    with Path(path).open("w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, ds.z.shape[0], _CSV_ROWS):
            columns = ds.z[start : start + _CSV_ROWS].T.tolist()
            rows = zip(*[map(repr, column) for column in columns])
            f.write("\n".join(map(",".join, rows)) + "\n")


def load_dataset_csv(path, p: int) -> Dataset:
    """Read a channel CSV back into a Dataset with lag order p.

    Blank lines are skipped; schema errors name the line of the file.  A
    cell holds one finite decimal number in ASCII, with optional
    whitespace (``str.isspace``) around it.  Underscores and non-ASCII
    digits, which ``float()`` would take, make a non-numeric value.
    """
    lines = Path(path).read_text().split("\n")
    nonblank = [i for i, ln in enumerate(lines, start=1) if ln.strip()]  # line numbers
    if not nonblank:
        raise SchemaError("empty dataset file", line=1)
    header = [h.strip() for h in lines[nonblank[0] - 1].split(",")]
    n_u = 0
    while n_u < len(header) and header[n_u] == f"u{n_u + 1}":
        n_u += 1
    n_y = 0
    while n_u + n_y < len(header) and header[n_u + n_y] == f"y{n_y + 1}":
        n_y += 1
    if n_u == 0 or n_y == 0 or n_u + n_y != len(header):
        raise SchemaError(f"header must be u1..u_nu,y1..y_ny, got {header}", line=nonblank[0])
    rows = nonblank[1:]
    if rows:
        z = _parse_cells([lines[i - 1] for i in rows], rows, n_u + n_y)
    else:
        z = np.zeros((0, n_u + n_y))  # Dataset names the missing samples
    finite = np.isfinite(z).all(axis=1)
    if not finite.all():
        raise SchemaError("non-finite value", line=rows[int(np.argmin(finite))])
    return Dataset(z=z, p=p, n_u=n_u, n_y=n_y)


def _parse_cells(body: list[str], numbers: list[int], n: int) -> np.ndarray:
    """The ``(len(body), n)`` floats of the CSV lines ``body``, which are
    lines ``numbers`` of the file.

    A cell is numeric when ``np.loadtxt`` reads it.  One ``loadtxt``
    call parses every line at C speed.  Only when that fails does a pass
    over the lines run, to name the first that is ragged or holds a cell
    that is not numeric.
    """
    try:
        z = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if z.shape[1] == n:
            return z
    except ValueError:
        pass
    for i, line in zip(numbers, body):
        cells = line.count(",") + 1
        if cells != n:
            raise SchemaError(f"expected {n} columns, got {cells}", line=i)
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            raise SchemaError("non-numeric value", line=i) from None
    raise AssertionError("the lines parse one by one but not together")


def parse_config(text: str) -> dict[str, str]:
    """Flat ``key = value`` pairs; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"expected 'key = value', got {raw.strip()!r}", line=lineno)
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise SchemaError("empty key", line=lineno)
        if key in out:
            raise SchemaError(f"duplicate key {key!r}", line=lineno)
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    return parse_config(Path(path).read_text())
