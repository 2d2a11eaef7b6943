import numpy as np
import pytest

from redar import (
    ClosedLoop,
    Controller,
    Dataset,
    IdentifiedModel,
    InnovationModel,
    SchemaError,
    load_config,
    load_dataset_csv,
    load_model,
    parse_config,
    save_dataset_csv,
    save_model,
)
from redar.serialize import dumps_model, loads_model

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
