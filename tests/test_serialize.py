import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from redar import (
    ClosedLoop,
    Controller,
    Dataset,
    IdentifiedModel,
    InnovationModel,
    InsufficientData,
    SchemaError,
    load_config,
    load_dataset_csv,
    load_model,
    parse_config,
    save_dataset_csv,
    save_model,
)
from redar.serialize import dumps_model, loads_model

from . import oracles

AWKWARD = (0.1, -0.0, 1e-308, 9.87e307, -3.141592653589793, 1.0000000000000002)


def identified_example() -> IdentifiedModel:
    return IdentifiedModel(
        a=[[0.5, 0.1], [0.0, 0.3]],
        b=[[1.0, 0.1], [0.0, 0.2]],
        c=[[1.0, 0.0]],
        k=[[0.2], [0.1]],
        d=[[0.0, 0.0]],
    )


class TestModelRoundTrip:
    def test_innovation(self, dynamic_loop):
        plant = dynamic_loop.plant
        text = dumps_model(plant)
        back = loads_model(text)
        assert isinstance(back, InnovationModel)
        for name in ("a", "b", "c", "k", "psi"):
            assert np.array_equal(getattr(back, name), getattr(plant, name))
        assert dumps_model(back) == text

    def test_controller(self, dynamic_loop):
        ctrl = dynamic_loop.controller
        back = loads_model(dumps_model(ctrl))
        assert isinstance(back, Controller)
        for name in ("af", "b1f", "b2f", "cf", "d1f", "d2f"):
            assert np.array_equal(getattr(back, name), getattr(ctrl, name))
        assert dumps_model(back) == dumps_model(ctrl)

    def test_identified(self):
        model = identified_example()
        back = loads_model(dumps_model(model))
        assert isinstance(back, IdentifiedModel)
        for name in ("a", "b", "c", "k", "d"):
            assert np.array_equal(getattr(back, name), getattr(model, name))
        assert dumps_model(back) == dumps_model(model)

    def test_closed_loop_reassembles(self, dynamic_loop):
        text = dumps_model(dynamic_loop)
        back = loads_model(text)
        assert isinstance(back, ClosedLoop)
        for name in ("a", "b_e", "b_v", "c_z", "d_e", "d_v"):
            assert np.array_equal(getattr(back, name), getattr(dynamic_loop, name))
        assert back.xi == dynamic_loop.xi
        assert dumps_model(back) == text

    def test_awkward_floats_survive(self):
        plant = InnovationModel(
            a=[[0.3]],
            b=[list(AWKWARD[:2])],
            c=[[AWKWARD[2]], [AWKWARD[3]]],
            k=[[AWKWARD[4], AWKWARD[5]]],
            psi=np.eye(2),
        )
        back = loads_model(dumps_model(plant))
        for name in ("a", "b", "c", "k", "psi"):
            got, want = getattr(back, name), np.asarray(getattr(plant, name), dtype=float)
            assert got.tobytes() == want.tobytes()

    def test_order_zero_identified(self):
        model = IdentifiedModel(
            a=np.zeros((0, 0)),
            b=np.zeros((0, 3)),
            c=np.zeros((1, 0)),
            k=np.zeros((0, 1)),
            d=np.zeros((1, 3)),
        )
        text = dumps_model(model)
        back = loads_model(text)
        assert back.a.shape == (0, 0)
        assert back.b.shape == (0, 3)
        assert back.c.shape == (1, 0)
        assert dumps_model(back) == text

    def test_file_round_trip(self, tmp_path, dynamic_loop):
        path = tmp_path / "loop.txt"
        save_model(path, dynamic_loop)
        first = path.read_text()
        save_model(path, load_model(path))
        assert path.read_text() == first

    def test_unserializable_type(self):
        with pytest.raises(TypeError):
            dumps_model(object())


class TestModelSchemaErrors:
    def fail_line(self, text: str) -> tuple[int, str]:
        with pytest.raises(SchemaError) as exc:
            loads_model(text)
        return exc.value.line, str(exc.value)

    def test_bad_header(self):
        line, msg = self.fail_line("bogus 1\ntype innovation\n")
        assert line == 1 and "header" in msg

    def test_unsupported_version(self):
        line, msg = self.fail_line("redar-model 99\ntype innovation\n")
        assert line == 1 and "version" in msg

    def test_missing_type_line(self):
        line, msg = self.fail_line("redar-model 1\nmatrix a 1 1\n0.5\n")
        assert line == 2 and "type" in msg

    def test_unknown_type(self):
        line, msg = self.fail_line("redar-model 1\ntype banana\n")
        assert "banana" in msg

    def test_malformed_matrix_header(self, dynamic_loop):
        text = dumps_model(dynamic_loop.plant).replace("matrix b", "matrix b 9", 1)
        with pytest.raises(SchemaError) as exc:
            loads_model(text)
        assert "matrix" in str(exc.value)

    def test_wrong_token_count_reports_row_line(self):
        text = "redar-model 1\ntype innovation\nmatrix a 1 1\n0.5 0.5\n"
        line, msg = self.fail_line(text)
        assert line == 4 and "expected 1 values" in msg

    def test_non_numeric_value(self):
        text = "redar-model 1\ntype innovation\nmatrix a 1 1\nhello\n"
        line, msg = self.fail_line(text)
        assert line == 4 and "non-numeric" in msg

    def test_failed_model_check_reports_type_line(self, dynamic_loop):
        # B with one row too few: the plant's own shape check, at its type line
        lines = dumps_model(dynamic_loop).split("\n")
        assert lines[3] == "type innovation" and lines[8] == "matrix b 3 2"
        lines[8] = "matrix b 2 2"
        del lines[11]
        line, msg = self.fail_line("\n".join(lines))
        assert line == 4 and "B has 2 rows, expected 3" in msg

    def test_truncated_matrix(self):
        text = "redar-model 1\ntype innovation\nmatrix a 2 1\n0.5\n"
        line, msg = self.fail_line(text)
        assert "end of file" in msg

    def test_missing_matrix(self):
        text = "redar-model 1\ntype innovation\nmatrix a 1 1\n0.5\n"
        _, msg = self.fail_line(text)
        assert "missing" in msg and "'b'" in msg

    def test_duplicate_matrix(self):
        text = (
            "redar-model 1\ntype innovation\n"
            "matrix a 1 1\n0.5\nmatrix a 1 1\n0.6\n"
        )
        _, msg = self.fail_line(text)
        assert "duplicate" in msg

    def test_trailing_content(self, dynamic_loop):
        text = dumps_model(dynamic_loop.plant) + "\nleftover\n"
        line, msg = self.fail_line(text)
        assert "trailing" in msg
        assert text.split("\n")[line - 1] == "leftover"

    def test_closed_loop_needs_both_sections(self):
        text = (
            "redar-model 1\ntype closed-loop\nbegin plant\n"
            "type innovation\n"
            "matrix a 1 1\n0.5\nmatrix b 1 1\n1.0\nmatrix c 1 1\n1.0\n"
            "matrix k 1 1\n0.1\nmatrix psi 1 1\n1.0\nend\n"
        )
        _, msg = self.fail_line(text)
        assert "plant and controller" in msg


class TestDatasetCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset.from_signals(rng.normal(size=(40, 2)), rng.normal(size=(40, 3)), p=4)
        path = tmp_path / "data.csv"
        save_dataset_csv(path, ds)
        back = load_dataset_csv(path, p=4)
        assert back.n_u == 2 and back.n_y == 3 and back.p == 4
        assert back.z.tobytes() == ds.z.tobytes()
        save_dataset_csv(path, back)
        first = path.read_text()
        save_dataset_csv(path, load_dataset_csv(path, p=4))
        assert path.read_text() == first

    def test_header_layout(self, tmp_path):
        ds = Dataset.from_signals(np.zeros((10, 2)), np.ones((10, 1)), p=2)
        path = tmp_path / "data.csv"
        save_dataset_csv(path, ds)
        assert path.read_text().split("\n")[0] == "u1,u2,y1"

    def test_rejects_bad_headers(self, tmp_path):
        path = tmp_path / "data.csv"
        for header in ("a,b", "u1,u2", "y1,u1", "u1,y2"):
            path.write_text(header + "\n0.0,0.0\n")
            with pytest.raises(SchemaError) as exc:
                load_dataset_csv(path, p=1)
            assert exc.value.line == 1

    def test_rejects_ragged_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("u1,y1\n0.0,0.0\n0.0\n")
        with pytest.raises(SchemaError) as exc:
            load_dataset_csv(path, p=1)
        assert exc.value.line == 3 and "columns" in str(exc.value)

    def test_rejects_rows_wider_than_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("u1,y1\n0.0,0.0,0.0\n0.0,0.0,0.0\n")
        with pytest.raises(SchemaError) as exc:
            load_dataset_csv(path, p=1)
        assert exc.value.line == 2 and "expected 2 columns, got 3" in str(exc.value)

    def test_rejects_non_numeric_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("u1,y1\n0.0,oops\n")
        with pytest.raises(SchemaError) as exc:
            load_dataset_csv(path, p=1)
        assert exc.value.line == 2

    def test_error_line_counts_blank_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("u1,y1\n0.0,0.0\n\n\n0.0,oops\n")
        with pytest.raises(SchemaError) as exc:
            load_dataset_csv(path, p=1)
        assert exc.value.line == 5

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n\n")
        with pytest.raises(SchemaError):
            load_dataset_csv(path, p=1)


# floats whose repr takes every form: signed zeros, subnormals, the
# extremes, and exponents on both sides
CSV_VALUES = (
    0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-05, 1.5e-07, 0.1,
    -3.141592653589793, 1e16, 1.2345678901234568e20, 1e300, -1e300, 1.7976931348623157e308,
)
# other spellings of finite floats that both readers take
CSV_SPELLINGS = (
    "1E5", "+.5", "5.", "-0", "1e-400", "00012.5000", "-1.7976931348623157e308",
    "4.9406564584124654e-324", "0." + "0" * 300 + "1", "1234567890123456789012345",
)
CSV_PADS = ("", " ", "\t", "  \t ")
# at, before and after the writer's block of 1,024 rows, and into a third block
CSV_ROWS = (0, 1, 1023, 1024, 1025, 2049)


@st.composite
def csv_signals(draw, rows):
    """A stand-in dataset (``z``, ``n_u``, ``n_y``) of ``rows`` samples,
    its cells drawn from a small pool of finite floats."""
    n_u, n_y = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    pool = draw(
        st.lists(
            st.sampled_from(CSV_VALUES) | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=12,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SimpleNamespace(z=rng.choice(np.array(pool), size=(rows, n_u + n_y)), n_u=n_u, n_y=n_y)


@st.composite
def messy_csv_lines(draw, rows):
    """Lines of a valid dataset file: cells in assorted spellings with
    whitespace around them, and blank lines anywhere after the header."""
    sig = draw(csv_signals(draw(rows)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sig.n_u + sig.n_y
    header = [f"u{i + 1}" for i in range(sig.n_u)] + [f"y{i + 1}" for i in range(sig.n_y)]
    lines = [",".join(header)]
    for row in sig.z.tolist():
        cells = [
            CSV_SPELLINGS[rng.integers(len(CSV_SPELLINGS))] if rng.random() < 0.1 else repr(v)
            for v in row
        ]
        pads = rng.choice(CSV_PADS, size=(n, 2))
        lines.append(",".join(a + c + b for c, (a, b) in zip(cells, pads)))
        if rng.random() < 0.05:
            lines.append(str(rng.choice(CSV_PADS)))
    return lines


def write_lines(path, lines, newline):
    Path(path).write_bytes((newline.join(lines) + newline).encode())


def load_both(path, p=1):
    """What each reader makes of the file, the package's first and then
    the per-line oracle's: a dataset, or a schema error as (message, line)."""
    out = []
    for load in (load_dataset_csv, oracles.load_dataset_csv_per_line):
        try:
            out.append(load(path, p))
        except SchemaError as exc:
            out.append((str(exc), exc.line))
    return out


class TestDatasetCsvAgainstOracles:
    @pytest.mark.parametrize("rows", CSV_ROWS)
    @given(data=st.data())
    def test_writer_bytes_match_per_row_writer(self, rows, data):
        sig = data.draw(csv_signals(rows))
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
            save_dataset_csv(new, sig)
            oracles.save_dataset_csv_per_row(old, sig)
            assert new.read_bytes() == old.read_bytes()

    @given(messy_csv_lines(st.sampled_from((2, 3, 1025))), st.sampled_from(("\n", "\r\n")))
    def test_reader_values_match_per_line_reader(self, lines, newline):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "data.csv")
            write_lines(path, lines, newline)
            new, old = load_both(path)
        assert (new.n_u, new.n_y) == (old.n_u, old.n_y)
        assert new.z.tobytes() == old.z.tobytes()

    @given(
        messy_csv_lines(st.sampled_from((2, 40))),
        st.lists(
            st.tuples(
                st.integers(1, 10**6),
                st.sampled_from(("drop", "extra", "oops", "", "1..2", "0x10", "1e", "--1",
                                 "1 2", "inf", "-Infinity", "nan", "1e400")),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_malformed_file_fails_like_per_line_reader(self, lines, faults):
        body = [i for i, ln in enumerate(lines) if ln.strip() and i > 0]
        for where, fault in faults:
            i = body[where % len(body)]
            cells = lines[i].split(",")
            if fault == "drop":
                cells.pop()
            elif fault == "extra":
                cells.append("0.5")
            else:
                cells[where % len(cells)] = fault
            lines[i] = ",".join(cells)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "data.csv")
            write_lines(path, lines, "\n")
            new, old = load_both(path)
        assert isinstance(old, tuple), "the faults leave a malformed file"
        assert new == old

    @pytest.mark.parametrize("text", ["u1,y1\n", "u1,u2,y1\n\n  \n"])
    def test_header_only_file(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(InsufficientData) as old:
            oracles.load_dataset_csv_per_line(path, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientData) as new:
                load_dataset_csv(path, 1)
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("token", ["1_0", "1_000.5", "\u0661", "\u0661.5"])
    def test_digit_forms_only_python_reads_are_non_numeric(self, tmp_path, token):
        # float() takes underscores and non-ASCII digits; a cell does not
        float(token)
        path = tmp_path / "data.csv"
        path.write_text(f"u1,y1\n0.5,0.5\n\n0.5,{token}\n")
        with pytest.raises(SchemaError) as exc:
            load_dataset_csv(path, p=1)
        assert exc.value.line == 4 and "non-numeric value" in str(exc.value)

    @pytest.mark.parametrize("pad", ["\x1c", "\x1f", "\x85", "\u2003"])
    def test_whitespace_around_a_cell_is_what_isspace_counts(self, tmp_path, pad):
        # the header's cells are stripped by the same rule
        assert pad.isspace()
        path = tmp_path / "data.csv"
        path.write_text(f"u1,{pad}y1\n{pad}0.5{pad},1.5\n0.25,1.5\n")
        assert load_dataset_csv(path, p=1).z.tolist() == [[0.5, 1.5], [0.25, 1.5]]


class TestConfigParsing:
    def test_basic_pairs(self):
        text = "# run setup\np = 4\nalpha = 1.5  # ridge\n\nseeds = 0,1,2\n"
        assert parse_config(text) == {"p": "4", "alpha": "1.5", "seeds": "0,1,2"}

    def test_value_may_contain_equals(self):
        assert parse_config("note = a=b\n") == {"note": "a=b"}

    def test_missing_separator(self):
        with pytest.raises(SchemaError) as exc:
            parse_config("p 4\n")
        assert exc.value.line == 1

    def test_duplicate_key(self):
        with pytest.raises(SchemaError) as exc:
            parse_config("p = 4\np = 8\n")
        assert exc.value.line == 2

    def test_empty_key(self):
        with pytest.raises(SchemaError) as exc:
            parse_config("= 4\n")
        assert exc.value.line == 1

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("t_sweep = 256,512\nphi = 0.05\n")
        assert load_config(path) == {"t_sweep": "256,512", "phi": "0.05"}
