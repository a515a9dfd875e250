"""The artifact format: CSV cells and line ends, JSON key order and the
closing newline."""

import csv
import json

import numpy as np

from seiard.artifacts import write_csv, write_json

# floats whose repr has 17 significant digits, an exponent, a signed zero or
# no digits at all
AWKWARD = [0.1 + 0.2, 1e-300, 2.0 ** 0.5, -0.0, 1e22, float("inf")]


class TestWriteCsv:
    def test_lines_end_in_crlf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        assert path.read_bytes() == b"a,b\r\n1.0,2.0\r\n3.0,4.0\r\n"

    def test_float_cells_round_trip_through_repr(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[v, np.float64(v)] for v in AWKWARD]
        write_csv(path, ["py", "np"], rows)
        with open(path, newline="") as fh:
            cells = list(csv.reader(fh))[1:]
        for (py, npf), v in zip(cells, AWKWARD):
            assert py == npf == repr(v)
            assert float(py) == v
        assert cells[3] == ["-0.0", "-0.0"]

    def test_int_and_str_cells_pass_through(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["eval", "name", "loss"],
                  [[0, "beta", 0.5], [np.int64(12), "p,fatal", 2.0]])
        assert path.read_text().splitlines() == [
            "eval,name,loss", "0,beta,0.5", '12,"p,fatal",2.0']


class TestWriteJson:
    def test_sorted_keys_indent_and_newline(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": 1, "a": {"d": [1.5, None], "c": True}})
        text = path.read_text()
        assert text == ('{\n  "a": {\n    "c": true,\n    "d": [\n      1.5,\n'
                        '      null\n    ]\n  },\n  "b": 1\n}\n')
        assert json.loads(text) == {"a": {"c": True, "d": [1.5, None]}, "b": 1}
