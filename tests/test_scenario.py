import csv
import io
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebgp import scenario
from ebgp.cli import INTERVAL_HEADER, main
from ebgp.ebm import TimeGrid
from ebgp.errors import GridError, GridMismatch, ParseError, SchemaError, UnknownScenario
from ebgp.model_io import load_model
from ebgp.scenario import (
    AgentSpec,
    Scenario,
    SpatialGrid,
    Standardization,
    assemble_training_set,
    load_scenario,
    read_spatial,
    read_table,
    save_scenario,
    save_spatial,
    write_csv,
)

AGENTS = [AgentSpec("co2", "cumulative_emission", "GtC"), AgentSpec("so2", "emission", "Mt")]
DATA = Path(__file__).resolve().parents[1] / "data" / "synthetic"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_minimal_file(self, tmp_path):
        path = write(
            tmp_path / "s.csv",
            "year,emission:co2,emission:so2\n"
            "2000,1.0,0.5\n2001,2.0,0.5\n2002,3.0,0.5\n",
        )
        scen = load_scenario(path, AGENTS)
        assert scen.grid.n_steps == 3
        assert scen.grid.start_year == 2000
        # cumulative mode accumulates the raw flux column
        np.testing.assert_allclose(scen.emissions["co2"], [1.0, 3.0, 6.0])
        np.testing.assert_allclose(scen.emissions["so2"], 0.5)

    def test_cumulative_column_used_as_is(self, tmp_path):
        path = write(
            tmp_path / "s.csv",
            "year,cumulative_emission:co2,emission:so2\n2000,5.0,1.0\n2001,6.0,1.0\n",
        )
        scen = load_scenario(path, AGENTS)
        np.testing.assert_allclose(scen.emissions["co2"], [5.0, 6.0])

    def test_gap_year_names_gap(self, tmp_path):
        path = write(
            tmp_path / "s.csv",
            "year,emission:co2,emission:so2\n2000,1,1\n2001,1,1\n2003,1,1\n",
        )
        with pytest.raises(GridError, match="2001 and 2003"):
            load_scenario(path, AGENTS)

    @pytest.mark.parametrize("rows, line", [
        ("2000,1,1\n\n2001,1,1\n2003,1,1\n", 5),  # a gap, after a blank line
        ("2000,1,1\n2001,1,1\n2001,1,1\n2002,1,1\n", 4),  # a repeated year
        ("2002,1,1\n2001,1,1\n2000,1,1\n", 3),  # descending years
        ("2000,1,1\n2002,1,1\n2003,1,1\n2004,1,1\n", 3),  # the first step is the odd one
    ])
    def test_broken_year_grid_names_line(self, tmp_path, rows, line):
        """A scenario or truth file whose years are not a uniform grid is
        reported at the line of the row whose year breaks it."""
        path = write(tmp_path / "s.csv", "year,emission:co2,emission:so2\n" + rows)
        with pytest.raises(GridError, match=f"at line {line}\\)"):
            load_scenario(path, AGENTS)
        truth = write(tmp_path / "t.csv", "year,tas_global,other\n" + rows)
        with pytest.raises(GridError, match=f"at line {line}\\)"):
            scenario.read_truth(truth, spatial=False)

    def test_missing_agent_column(self, tmp_path):
        path = write(tmp_path / "s.csv", "year,emission:co2\n2000,1.0\n")
        with pytest.raises(SchemaError, match="so2"):
            load_scenario(path, AGENTS)

    def test_flux_and_cumulative_columns_of_one_agent_rejected(self, tmp_path):
        path = write(
            tmp_path / "s.csv",
            "year,cumulative_emission:co2,emission:co2,emission:so2\n2000,5,1,1\n",
        )
        with pytest.raises(SchemaError, match="'emission:co2' and 'cumulative_emission:co2'"):
            load_scenario(path, AGENTS)

    def test_unknown_column_rejected(self, tmp_path):
        path = write(
            tmp_path / "s.csv",
            "year,emission:co2,emission:so2,emission:xyz\n2000,1,1,1\n",
        )
        with pytest.raises(SchemaError, match="xyz"):
            load_scenario(path, AGENTS)

    def test_parse_error_carries_position(self, tmp_path):
        path = write(
            tmp_path / "s.csv",
            "year,emission:co2,emission:so2\n2000,1.0,0.5\n2001,oops,0.5\n",
        )
        with pytest.raises(ParseError, match="line 3.*emission:co2"):
            load_scenario(path, AGENTS)

    def test_concentrations_and_temperature(self, tmp_path):
        path = write(
            tmp_path / "s.csv",
            "year,emission:co2,emission:so2,concentration:co2,tas_global\n"
            "2000,1,1,280.0,0.1\n2001,1,1,281.0,0.2\n",
        )
        scen = load_scenario(path, AGENTS)
        np.testing.assert_allclose(scen.concentrations["co2"], [280.0, 281.0])
        np.testing.assert_allclose(scen.global_temperature, [0.1, 0.2])


class TestRoundTrip:
    def test_global_round_trip_bit_exact(self, tmp_path):
        grid = TimeGrid(1995, 4)
        awkward = np.array([0.1, np.pi, 1e-300, np.nextafter(1.0, 2.0)])
        scen = Scenario(
            name="round",
            grid=grid,
            emissions={"co2": np.cumsum(awkward), "so2": awkward[::-1].copy()},
            concentrations={"co2": 278.0 + awkward},
            global_temperature=awkward * 3.0,
        )
        path = tmp_path / "round.csv"
        save_scenario(scen, path, AGENTS)
        back = load_scenario(path, AGENTS)
        assert back.name == "round"
        np.testing.assert_array_equal(back.emissions["co2"], scen.emissions["co2"])
        np.testing.assert_array_equal(back.emissions["so2"], scen.emissions["so2"])
        np.testing.assert_array_equal(back.concentrations["co2"], scen.concentrations["co2"])
        np.testing.assert_array_equal(back.global_temperature, scen.global_temperature)
        assert back.grid == scen.grid

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=3,
            max_size=3,
        )
    )
    def test_round_trip_any_finite_reals(self, tmp_path_factory, values):
        grid = TimeGrid(2000, 3)
        scen = Scenario(
            name="any",
            grid=grid,
            emissions={"co2": np.array(values), "so2": np.ones(3)},
            global_temperature=np.array(values[::-1]),
        )
        path = tmp_path_factory.mktemp("rt") / "any.csv"
        save_scenario(scen, path, AGENTS)
        back = load_scenario(path, AGENTS)
        np.testing.assert_array_equal(back.emissions["co2"], scen.emissions["co2"])
        np.testing.assert_array_equal(back.global_temperature, scen.global_temperature)

    def test_missing_explicit_spatial_path(self, tmp_path):
        """Reading the companion of a scenario that has none names the file."""
        path = write(
            tmp_path / "s.csv",
            "year,emission:co2,emission:so2\n2000,1.0,0.5\n2001,2.0,0.5\n",
        )
        grid = load_scenario(path, AGENTS).grid
        with pytest.raises(SchemaError, match="s_spatial.csv: spatial file not found"):
            read_spatial(path, grid)

    def test_spatial_round_trip(self, tmp_path):
        grid = TimeGrid(2000, 3)
        sgrid = SpatialGrid([-30.0, 30.0], [0.0, 180.0])
        rng = np.random.default_rng(0)
        cube = rng.normal(size=(3, 2, 2))
        scen = Scenario(
            name="sp",
            grid=grid,
            emissions={"co2": np.ones(3), "so2": np.ones(3)},
            global_temperature=np.zeros(3),
        )
        path = tmp_path / "sp.csv"
        save_scenario(scen, path, AGENTS)
        save_spatial(path, grid, sgrid, cube)
        back_grid, back_cube = read_spatial(path, grid)
        np.testing.assert_array_equal(back_cube, cube)
        np.testing.assert_array_equal(back_grid.latitudes, sgrid.latitudes)
        np.testing.assert_array_equal(back_grid.longitudes, sgrid.longitudes)

    @pytest.mark.parametrize("name", ["historical", "ssp_low"])
    def test_bundled_files_are_rewritten_byte_for_byte(self, tmp_path, name):
        """Both writers reproduce the bundled main file and its companion."""
        agents = load_model(DATA / "model_config.txt").agents
        scen = load_scenario(DATA / f"{name}.csv", agents)
        save_scenario(scen, tmp_path / f"{name}.csv", agents)
        spatial = read_spatial(DATA / f"{name}.csv", scen.grid)
        save_spatial(tmp_path / f"{name}.csv", scen.grid, *spatial)
        for stem in (name, f"{name}_spatial"):
            assert (tmp_path / f"{stem}.csv").read_bytes() == (DATA / f"{stem}.csv").read_bytes()

    def test_spatial_cube_of_the_wrong_shape_rejected(self, tmp_path):
        grid = TimeGrid(2000, 3)
        sgrid = SpatialGrid([-30.0, 30.0], [0.0, 180.0])
        with pytest.raises(GridMismatch, match=r"shape \(2, 2, 2\), expected \(3, 2, 2\)"):
            save_spatial(tmp_path / "sp.csv", grid, sgrid, np.zeros((2, 2, 2)))
        assert not (tmp_path / "sp_spatial.csv").exists()


def csv_writer_bytes(header, rows):
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_:.-]*", fullmatch=True)
FIELDS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e22, float("inf"), float("-inf")]),
    st.integers(),
    NAMES,
    st.just(""),
)
# A string csv.writer quotes: one holding a separator or a quote.
QUOTED = st.tuples(st.text(max_size=3), st.sampled_from(',"\r\n'), st.text(max_size=3)).map("".join)


class TestWriteCsv:
    @settings(max_examples=100, deadline=None)
    @given(header=st.lists(NAMES, min_size=2, max_size=6),
           rows=st.lists(st.lists(FIELDS, min_size=2, max_size=8), max_size=12),
           strings=st.booleans())
    def test_same_bytes_as_csv_writer(self, tmp_path_factory, header, rows, strings):
        """Python floats (``repr``), ints, identifiers and empty strings are
        written byte for byte as ``csv.writer`` writes them, whether a row
        holds numbers or only strings."""
        if strings:
            rows = [[f if isinstance(f, str) else repr(f) for f in row] for row in rows]
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == csv_writer_bytes(header, rows)

    def test_rows_past_one_batch(self, tmp_path):
        rows = [[i, float(i) / 7, f"r{i}"] for i in range(1500)]
        write_csv(tmp_path / "out.csv", ["n", "x", "name"], rows)
        assert (tmp_path / "out.csv").read_bytes() == csv_writer_bytes(["n", "x", "name"], rows)

    @settings(max_examples=100, deadline=None)
    @given(field=QUOTED, before=st.integers(0, 2), rows_before=st.integers(0, 600))
    def test_field_csv_would_quote_is_rejected(self, tmp_path_factory, field, before,
                                               rows_before):
        row = [1.5] * before + [field, "x"]
        assert '"' in csv_writer_bytes(["a"], [row]).decode("utf-8")
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        with pytest.raises(ValueError, match="a row holds a field CSV would quote"):
            write_csv(path, ["a", "b"], [["1", 2.0]] * rows_before + [row])

    @pytest.mark.parametrize("row", [[""], [], ["a,b"], ['"'], ["a\rb", 1.0], [1.0, "\n"]])
    def test_lines_csv_writer_would_write_otherwise_are_rejected(self, tmp_path, row):
        """A lone empty field, which csv.writer writes as "", and an empty row
        are rejected with the separators and quotes."""
        with pytest.raises(ValueError):
            write_csv(tmp_path / "out.csv", ["a", "b"], [row])


class TestAssemble:
    def test_counts_and_order(self, scenario_factory):
        scens = [
            scenario_factory("a", 10, temperature=np.zeros(10)),
            scenario_factory("b", 15, temperature=np.zeros(15), seed=1),
            scenario_factory("c", 20, temperature=np.zeros(20), seed=2),
        ]
        train, held = assemble_training_set(scens, holdout=("b",))
        assert train.n == 30
        assert [h.name for h in held] == ["b"]
        assert [name for name, _ in train.index] == ["a"] * 10 + ["c"] * 20
        assert train.index[0] == ("a", 1900)
        assert train.index[-1] == ("c", 1919)

    def test_hold_out_nothing(self, scenario_factory):
        scens = [scenario_factory("a", 10, temperature=np.zeros(10))]
        train, held = assemble_training_set(scens)
        assert train.n == 10 and held == []

    def test_hold_out_everything_is_valid(self, scenario_factory):
        scens = [scenario_factory("a", 10), scenario_factory("b", 10, seed=1)]
        train, held = assemble_training_set(scens, holdout=("a", "b"))
        assert train.n == 0
        assert len(held) == 2
        assert train.standardization is None

    def test_unknown_scenario(self, scenario_factory):
        with pytest.raises(UnknownScenario):
            assemble_training_set([scenario_factory("a", 5)], holdout=("zz",))

    def test_missing_temperature_rejected(self, scenario_factory):
        with pytest.raises(SchemaError, match="tas_global"):
            assemble_training_set([scenario_factory("a", 5)])

    def test_standardization_constants(self, scenario_factory):
        scens = [
            scenario_factory("a", 30, temperature=np.zeros(30)),
            scenario_factory("b", 25, temperature=np.zeros(25), seed=3),
        ]
        train, _ = assemble_training_set(scens)
        rows = np.vstack([s.emission_matrix() for s in scens])
        standardized = train.standardization.apply(rows)
        np.testing.assert_allclose(standardized.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(standardized.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_keeps_unit_scale(self):
        st_ = Standardization.from_rows(np.array([[1.0, 5.0], [1.0, 7.0]]))
        assert st_.std[0] == 1.0

    def test_deterministic(self, scenario_factory):
        scens = [
            scenario_factory("a", 10, temperature=np.zeros(10)),
            scenario_factory("b", 10, temperature=np.zeros(10), seed=1),
        ]
        t1, _ = assemble_training_set(scens)
        t2, _ = assemble_training_set(scens)
        np.testing.assert_array_equal(t1.temperatures, t2.temperatures)
        np.testing.assert_array_equal(t1.standardization.mean, t2.standardization.mean)
        np.testing.assert_array_equal(t1.standardization.std, t2.standardization.std)
        assert t1.index == t2.index


# Files whose data rows both ``read_table`` passes must treat alike: header
# year,a,b with year and a requested, b not.
HEADER = "year,a,b\n"
CORPUS = {
    "extreme values": HEADER + "2019,-0.0,5e-324\n2020,1.7976931348623157e308,-0.0\n",
    "overflow": HEADER + "2019,1e400,1\n",
    "nan requested": HEADER + "2019,1,1\n2020,nan,1\n",
    "inf requested": HEADER + "2019,-inf,1\n",
    "nan unrequested": HEADER + "2019,1,nan\n",
    "inf unrequested": HEADER + "2019,1,inf\n",
    "underscore": HEADER + "2019,1_000,1\n",
    "quoted": HEADER + '2019,"1.5",1\n',
    "padded value": HEADER + "2019, 1.5 ,1\n",
    "signed year": HEADER + "+2019,1,1\n",
    "padded year": HEADER + " 2019 ,1,1\n",
    "float year": HEADER + "2019.0,1,1\n",
    "fractional year": HEADER + "2019.5,1,1\n",
    "exponent year": HEADER + "1e3,1,1\n",
    "comment character": HEADER + "2019,1.5#3,1\n",
    "comment in last column": "year,b,a\n2019,1,1.5#3\n",
    "blank row": HEADER + "2019,1,1\n\n2020,2,2\n",
    "whitespace row": HEADER + "2019,1,1\n  \t\n2020,2,2\n",
    "trailing blank row": HEADER + "2019,1,1\n\n",
    "short row": HEADER + "2019,1,1\n2020,2\n",
    "long row": HEADER + "2019,1,1\n2020,2,2,2\n",
    "missing cell": HEADER + "2019,,1\n",
    "crlf": "year,a,b\r\n2019,1,1\r\n2020,2,2\r\n",
    "bare cr": "year,a,b\r2019,1,1\r2020,2,2\r",
    "mixed endings": HEADER + "2019,1,1\r\n\r2020,2,2\n",
    "no trailing newline": HEADER + "2019,1,1\n2020,2,2",
    "header only": HEADER,
    "text column": "year,a,name\n2019,1,x\n",
    "year too large for a float": HEADER + "9" * 400 + ",1,1\n",
    "year outside int64": HEADER + "2019,1,1\n10000000000000000000,2,2\n",
    "year beyond a float's integers": HEADER + "2019,1,1\n9007199254740993,2,2\n",
    "largest year": HEADER + "-9007199254740991,1,1\n9007199254740991,2,2\n",
    "multi-line field": HEADER + '2000,"1.5\n",1\n2001,2,2\n2002,x,3\n',
}


# Data rows for the property test: years and values in forms one pass or both
# may reject, blank and whitespace-only rows, and short and long rows.
YEARS = st.sampled_from(["2019", "+2019", " 2019 ", "2_019", "2019.0", "1e3", "9" * 400,
                         "10000000000000000000", "-9223372036854775808", "9007199254740991",
                         "9007199254740992", "-9007199254740993"])
VALUES = st.sampled_from(["1.5", "-0.0", "5e-324", "1e400", "nan", "inf", "-inf", "1_000",
                          '"1.5"', " 1.5 ", "", "x"])
ROWS = st.one_of(st.tuples(YEARS, VALUES, VALUES).map(",".join),
                 st.sampled_from(["", "  ", "2019,1", "2019,1,1,1"]))


def outcome(path):
    """``read_table``'s column bytes, or its error."""
    try:
        table = read_table(path, lambda header: ["year", "a"])
    except (ParseError, SchemaError) as exc:
        return type(exc), str(exc)
    return {name: (c.dtype.str, c.tobytes()) for name, c in table.items()}


class TestReadTable:
    """``read_table`` parses a clean file in one ``np.loadtxt`` pass; the
    row-by-row pass decides every file that pass declines."""

    @pytest.mark.parametrize("text", CORPUS.values(), ids=CORPUS.keys())
    def test_fast_parse_agrees_with_row_pass(self, tmp_path, monkeypatch, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        either = outcome(path)

        def declined(*args, **kwargs):
            raise ValueError("declined")

        monkeypatch.setattr(scenario.np, "loadtxt", declined)
        assert outcome(path) == either

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(ROWS, max_size=6), ending=st.sampled_from(["\n", "\r\n"]),
           final=st.booleans())
    def test_passes_agree_on_generated_files(self, tmp_path_factory, rows, ending, final):
        """Any file of the ``ROWS`` grammar reads alike with and without the C pass."""
        path = tmp_path_factory.mktemp("agree") / "t.csv"
        path.write_bytes((ending.join([HEADER.strip(), *rows]) + ending * final).encode())
        either = outcome(path)
        with mock.patch.object(scenario.np, "loadtxt", side_effect=ValueError("declined")):
            assert outcome(path) == either

    def test_line_numbers_count_file_lines(self, tmp_path):
        """A quoted field may span lines: a row is numbered by the file line
        its record ends on, not by its count of records."""
        path = write(tmp_path / "t.csv", CORPUS["multi-line field"])
        with pytest.raises(ParseError, match="line 5, column 'a': cannot parse 'x'"):
            read_table(path, lambda header: ["year", "a"])

    @pytest.mark.parametrize("later", ["2021,2", "2021,2,2,2"], ids=["short row", "long row"])
    @pytest.mark.parametrize("faulty, message", [
        ("2020,x,1", "line 3, column 'a': cannot parse 'x' as a number"),
        ("2020,nan,1", "line 3, column 'a': value 'nan' is not finite"),
        ("2020.5,1,1", "line 3, column 'year': cannot parse '2020.5' as an integer"),
    ], ids=["bad value", "non-finite value", "bad year"])
    def test_first_faulty_row_in_file_order(self, tmp_path, faulty, message, later):
        """A bad value is reported on its own line, not on a later row whose
        field count is wrong."""
        path = write(tmp_path / "t.csv", HEADER + f"2019,1,1\n{faulty}\n{later}\n")
        with pytest.raises(ParseError, match=re.escape(message)):
            read_table(path, lambda header: ["year", "a"])

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_plain_file_with_a_compression_suffix(self, tmp_path, suffix):
        """numpy opens such a path through a decompressor; it is read as text."""
        text = HEADER + "2019,1,1\n2020,2,2\n"
        plain = outcome(write(tmp_path / "t.csv", text))
        assert outcome(write(tmp_path / f"t.csv{suffix}", text)) == plain

    def test_warning_parse_is_declined(self, tmp_path, monkeypatch):
        """numpy 1.23-1.26 warn on a float-formatted integer, then truncate
        it: the warning declines the parse even where warnings are ignored."""
        path = write(tmp_path / "t.csv", HEADER + "2019.5,1,1\n")

        def truncating(*args, dtype, **kwargs):
            warnings.warn("parsing an integer via a float is deprecated", DeprecationWarning)
            return np.array([(2019, 1.0, 1.0)], dtype=dtype)

        monkeypatch.setattr(scenario.np, "loadtxt", truncating)
        with warnings.catch_warnings(), pytest.raises(
            ParseError, match="line 2, column 'year': cannot parse '2019.5'"
        ):
            warnings.simplefilter("ignore")
            read_table(path, lambda header: ["year", "a"])

    def test_clean_files_take_the_fast_parse(self, tmp_path, monkeypatch):
        """No data row of a bundled scenario, its spatial companion, an
        ``emulate``, ``forcing`` or ``spatial-emulate`` output, or a file that
        ``save_scenario`` or ``save_spatial`` wrote goes through the row pass."""
        paths = [str(DATA / f"{name}.csv") for name in ("historical", "ssp_low", "ssp_mid")]
        out = tmp_path / "spatial.csv"
        opened = []

        def header_only(handle, _reader=csv.reader):
            opened.append(Path(handle.name).name)
            rows = _reader(handle)
            yield next(rows)
            raise AssertionError(f"{handle.name}: data rows went through the row pass")

        monkeypatch.setattr(scenario.csv, "reader", header_only)
        assert main(["spatial-emulate", "--model", str(DATA / "model_config.txt"),
                     "--scenario", *paths, "--holdout", "ssp_mid", "--out", str(out)]) == 0
        assert main(["evaluate", "--predictions", str(out), "--scenario", paths[-1],
                     "--out", str(tmp_path / "scores.csv")]) == 0
        for command in ("emulate", "forcing"):
            query = tmp_path / f"{command}.csv"
            assert main([command, "--model", str(DATA / "model_config.txt"), "--scenario", *paths,
                         "--holdout", "ssp_mid", "--out", str(query)]) == 0
            assert main(["evaluate", "--predictions", str(query), "--scenario", paths[-1],
                         "--out", str(tmp_path / "scores.csv")]) == 0
        agents = load_model(DATA / "model_config.txt").agents
        saved = tmp_path / "saved.csv"
        scen = load_scenario(paths[0], agents)
        save_scenario(scen, saved, agents)
        save_spatial(saved, scen.grid, *read_spatial(paths[0], scen.grid))
        read_spatial(saved, load_scenario(saved, agents).grid)
        assert {"historical_spatial.csv", "ssp_mid.csv", "spatial.csv", "emulate.csv",
                "forcing.csv", "saved.csv", "saved_spatial.csv"} <= set(opened)

    @pytest.mark.parametrize("text", [
        HEADER + "2019,1,1\n\n2020,2,2\n",
        HEADER + "2019,1,1\n2020,2,2\n\n\n",
        "year,a,b\r2019,1,1\r2020,2,2\r",
        HEADER + "2019,1,1\r\n\r2020,2,2\n",
    ], ids=["empty row", "trailing empty rows", "CR endings", "mixed endings"])
    def test_empty_rows_and_any_line_ending_take_the_fast_parse(self, tmp_path, monkeypatch,
                                                                text):
        """``np.loadtxt`` skips empty lines and reads universal newlines, so
        these files need no row pass."""
        path = write(tmp_path / "t.csv", text)

        def header_only(handle, _reader=csv.reader):
            rows = _reader(handle)
            yield next(rows)
            raise AssertionError("data rows went through the row pass")

        monkeypatch.setattr(scenario.csv, "reader", header_only)
        table = read_table(path, lambda header: ["year", "a"])
        assert table["year"].tolist() == [2019, 2020] and table["a"].tolist() == [1.0, 2.0]


def lay_out(header, rows, form):
    """CSV text of ``header`` and data ``rows`` (lists of fields) in a form
    that puts data row k on another line than k + 2: a blank line before each
    row, CR endings with one blank line after the header, or a first row whose
    second field is quoted over two lines."""
    lines = [",".join(row) for row in rows]
    if form == "blank rows":  # row k on line 2k + 3
        return "\n\n".join([header, *lines]) + "\n"
    if form == "CR endings":  # row k on line k + 3
        return "\r".join([header, "", *lines]) + "\r"
    first, second, *rest = rows[0]  # row k ends on line k + 3
    return "\n".join([header, ",".join([first, f'"\n{second}"', *rest]), *lines[1:]]) + "\n"


FORMS = ["blank rows", "CR endings", "quoted field"]


class TestErrorsNameTheLine:
    """An error about a parsed data row names the line that row ends on,
    whichever pass read the file."""

    @pytest.mark.parametrize("form, line", zip(FORMS, [9, 6, 6]))
    def test_broken_year_grid(self, tmp_path, form, line):
        rows = [[str(year), "1", "1"] for year in (2000, 2001, 2002, 2004)]
        path = write(tmp_path / "s.csv", lay_out("year,emission:co2,emission:so2", rows, form))
        with pytest.raises(GridError, match=f"2002 and 2004 at line {line}\\)"):
            load_scenario(path, AGENTS)

    @pytest.mark.parametrize("form, line", zip(FORMS, [9, 6, 6]))
    def test_off_grid_companion_year(self, tmp_path, form, line):
        path = write(tmp_path / "s.csv", "year,tas_global\n2000,0\n2001,0\n2002,0\n")
        rows = [["0", "0", str(year), "0.5"] for year in (2000, 2001, 2002, 2005)]
        write(tmp_path / "s_spatial.csv", lay_out("lat,lon,year,tas", rows, form))
        with pytest.raises(SchemaError, match=f"line {line}: year 2005 is not on"):
            scenario.read_truth(path, spatial=True)

    @pytest.mark.parametrize("form, line", zip(FORMS, [7, 5, 5]))
    def test_duplicate_companion_row(self, tmp_path, form, line):
        path = write(tmp_path / "s.csv", "year,tas_global\n2000,0\n2001,0\n2002,0\n")
        rows = [["0", "0", str(year), "0.5"] for year in (2000, 2001, 2001, 2002)]
        write(tmp_path / "s_spatial.csv", lay_out("lat,lon,year,tas", rows, form))
        with pytest.raises(SchemaError, match=re.escape(f"line {line}: duplicate row for "
                                                        "(0.0, 0.0, 2001)")):
            scenario.read_truth(path, spatial=True)

    def evaluate(self, tmp_path, capsys, years, stds, form, period=None):
        """``evaluate``'s exit code and error on a global prediction file."""
        truth = write(tmp_path / "truth.csv", "year,tas_global\n" + "".join(
            f"{year},0.5\n" for year in range(1990, 2002)))
        rows = [[str(year), "0", "0", std, "0", "0"] for year, std in zip(years, stds)]
        predictions = write(tmp_path / "p.csv", lay_out(",".join(INTERVAL_HEADER), rows, form))
        rc = main(["evaluate", "--predictions", str(predictions), "--scenario", str(truth),
                   "--out", str(tmp_path / "scores.csv"),
                   *(["--period", period] if period else [])])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("form, line", zip(FORMS, [11, 7, 7]))
    def test_duplicate_prediction_row_after_rows_outside_the_period(self, tmp_path, capsys,
                                                                     form, line):
        years = [1990, 1991, 2000, 2001, 2001]
        rc, err = self.evaluate(tmp_path, capsys, years, ["0.1"] * 5, form, "2000:2001")
        assert rc == 2 and f"p.csv: line {line}: duplicate row for (2001,)" in err

    @pytest.mark.parametrize("form, line", zip(FORMS, [7, 5, 5]))
    def test_negative_posterior_std(self, tmp_path, capsys, form, line):
        rc, err = self.evaluate(tmp_path, capsys, [1990, 1991, 1992], ["0.1", "0.1", "-0.5"],
                                form)
        assert rc == 2 and (f"p.csv: line {line}, column 'posterior_std': value -0.5 is "
                            "negative") in err
