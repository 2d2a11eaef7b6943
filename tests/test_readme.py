"""The python code blocks of README.md run, in order, in one namespace,
and its file-format paragraph lists each model's matrices in file order."""

import contextlib
import io
import math
import re
from pathlib import Path

from redar.serialize import _MATRIX_MODELS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    printed = []
    for i, block in enumerate(blocks):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, f"README.md python block {i}", "exec"), namespace)
        printed.append(out.getvalue())
    # the bounds quick start prints a valid cell's finite bound and k
    (bounds,) = [out for block, out in zip(blocks, printed) if "bound_cells(" in block]
    valid, expected, k = bounds.split()
    assert valid == "True" and math.isfinite(float(expected)) and math.isfinite(float(k))


def test_file_format_lists_each_models_matrices_in_file_order():
    listed = re.findall(r"`(\w+)`\s+holds\s+`([\w ]+)`", README.read_text())
    assert {kind: tuple(names.split()) for kind, names in listed} == {
        kind: tuple(name for name, *_ in cls._MATRICES) for kind, cls in _MATRIX_MODELS.items()
    }
