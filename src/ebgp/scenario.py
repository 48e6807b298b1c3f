"""Scenario data model, CSV ingestion and validation, and training-set
assembly.

File format (UTF-8 CSV with a header row):

    year,
    emission:<agent> | cumulative_emission:<agent>   (one per agent),
    concentration:<agent>                            (optional per agent),
    tas_global                                       (optional)

``emission:`` columns hold annual fluxes; agents whose input mode is
cumulative are accumulated at ingestion.  ``cumulative_emission:`` columns
are stored as-is, and are what ``save_scenario`` writes for cumulative
agents so that a save/load round trip is exact.  Spatial temperature cubes
live in a companion long-format CSV ``<stem>_spatial.csv`` with columns
lat, lon, year, tas, which ``save_spatial`` writes; ``load_scenario`` reads
the main file only, and ``read_spatial`` reads a companion for the commands
that use one.  Every CSV the package writes goes through ``write_csv``,
which writes each float with ``repr``, so every value round-trips exactly.

``read_table`` parses a clean file's data rows in one C-level ``np.loadtxt``
pass, and reads a file that pass declines in one loop over its rows, which
reports a bad file's first faulty row in file order by line (and column).
Both skip blank rows and take ``year`` as an integer a float holds exactly
(magnitude below 2**53).  ``line_of`` finds a data row's line for later errors.
"""

from __future__ import annotations

import csv
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, product, repeat
from math import isfinite
from pathlib import Path

import numpy as np

from .ebm import TimeGrid
from .errors import CompatibilityError, GridMismatch, ParseError, SchemaError

EMISSION_MODES = ("emission", "cumulative_emission")


@dataclass
class AgentSpec:
    """Name, input mode and unit label of one atmospheric agent."""

    name: str
    input_mode: str = "emission"
    unit: str = ""

    def __post_init__(self):
        if self.input_mode not in EMISSION_MODES:
            raise ValueError(f"unknown input mode '{self.input_mode}'")


@dataclass
class SpatialGrid:
    """Ordered latitude/longitude axes in degrees."""

    latitudes: np.ndarray
    longitudes: np.ndarray

    def __post_init__(self):
        self.latitudes = np.atleast_1d(np.asarray(self.latitudes, dtype=float))
        self.longitudes = np.atleast_1d(np.asarray(self.longitudes, dtype=float))
        if self.latitudes.size == 0 or self.longitudes.size == 0:
            raise ValueError("spatial grid axes must be nonempty")
        if np.any(self.latitudes < -90) or np.any(self.latitudes > 90):
            raise ValueError("latitudes must lie in [-90, 90]")
        if np.any(self.longitudes < 0) or np.any(self.longitudes >= 360):
            raise ValueError("longitudes must lie in [0, 360)")
        for axis in (self.latitudes, self.longitudes):
            if axis.size > 1 and not (
                np.all(np.diff(axis) > 0) or np.all(np.diff(axis) < 0)
            ):
                raise ValueError("grid axes must be strictly monotone")

    @property
    def shape(self) -> tuple[int, int]:
        return self.latitudes.size, self.longitudes.size


@dataclass
class Scenario:
    """One named emission/temperature record on an annual grid.

    ``emissions`` holds model-ready series: agents with cumulative input mode
    store accumulated emissions.  Temperatures are anomalies in kelvin.  The
    spatial cube is in the companion file (``read_spatial``, ``save_spatial``).
    """

    name: str
    grid: TimeGrid
    emissions: dict[str, np.ndarray]
    concentrations: dict[str, np.ndarray] | None = None
    global_temperature: np.ndarray | None = None
    # Not a field, and always None: ``perfbench/spans.py``'s load counter reads it.
    spatial_temperature = None

    def __post_init__(self):
        n = self.grid.n_steps
        for name, series in self.emissions.items():
            if np.asarray(series).size != n:
                raise GridMismatch(f"emission series '{name}' does not match the grid")
        if self.concentrations:
            for name, series in self.concentrations.items():
                if np.asarray(series).size != n:
                    raise GridMismatch(
                        f"concentration series '{name}' does not match the grid"
                    )
        if self.global_temperature is not None and np.asarray(self.global_temperature).size != n:
            raise GridMismatch("global temperature series does not match the grid")

    @property
    def agent_names(self) -> list[str]:
        return list(self.emissions.keys())

    def emission_matrix(self, agents: list[str] | None = None) -> np.ndarray:
        """Stacked (n_steps, n_agents) emission inputs in the given agent order."""
        names = agents if agents is not None else self.agent_names
        return np.column_stack([np.asarray(self.emissions[a], dtype=float) for a in names])


@dataclass
class Standardization:
    """Per-agent affine map applied to emission inputs before kernel evaluation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.std = np.atleast_1d(np.asarray(self.std, dtype=float))
        if self.mean.size != self.std.size:
            raise ValueError("mean and std must have equal length")
        if np.any(self.std <= 0):
            raise ValueError("std entries must be positive")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    @classmethod
    def from_rows(cls, x: np.ndarray) -> "Standardization":
        """Fit over stacked training rows; constant columns keep unit scale."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std > 0, std, 1.0)
        return cls(mean=mean, std=std)


@dataclass
class TrainingSet:
    """Stacked multi-scenario training data for Gaussian-process inference.

    ``index`` locates each row as a (scenario name, year) pair.
    """

    temperatures: np.ndarray
    index: list[tuple[str, int]]
    standardization: Standardization | None = None

    @property
    def n(self) -> int:
        return self.temperatures.size


def _data_rows(reader):
    """The rows ``reader`` yields that are not blank (every field whitespace)."""
    return (row for row in reader if "".join(row).strip())


def line_of(path, row: int) -> int:
    """The file line on which data row ``row`` (from 0, as ``read_table`` counts
    them) of the CSV file at ``path`` ends; its header, never blank, is row -1."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(islice(_data_rows(reader), row + 1, None))
        return reader.line_num


def _year(text: str) -> int:
    """``text`` as Python's ``int`` reads it, if a float holds it exactly."""
    year = int(text)
    if abs(year) >= 2**53:
        raise ValueError(text)
    return year


def _parse_data_rows(path, header, names) -> dict[str, np.ndarray] | None:
    """``read_table``'s result from one ``np.loadtxt`` pass over all header
    columns, or None where the row pass must decide: the parse raised or warned
    (numpy 1.23-1.26 warn on a ``year`` such as 2019.0, then truncate it), or met
    a non-finite requested value or a ``year`` of magnitude 2**53 or more.  Like
    the row pass, it skips empty lines and reads any line ending."""
    fields = [(f"f{i}", np.int64 if h == "year" else np.float64) for i, h in enumerate(header)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(path, dtype=fields, delimiter=",", comments=None, skiprows=1,
                              encoding="utf-8", ndmin=1)
    except Exception:  # a warning too, or numpy's decompressor for a path ending in .gz or .xz
        return None
    table = {name: data[f"f{header.index(name)}"].astype(float) for name in names}
    huge_year = np.any(np.abs(table.get("year", 0.0)) >= 2**53)
    return None if huge_year or not all(np.isfinite(c).all() for c in table.values()) else table


def read_table(path, columns) -> dict[str, np.ndarray]:
    """Named float columns of a CSV file's data rows.

    ``columns`` maps the stripped header (a repeated name is a SchemaError)
    to the names of the columns to parse, raising SchemaError when the
    header is not acceptable.  Blank rows are skipped (``_data_rows``).  Values
    parse as Python's ``float`` does (``year`` as ``_year``) and must be finite.
    The first faulty row in file order is a ParseError naming its line (where
    its record ends): its field count if that differs from the header's, else
    its first bad value in ``columns`` order, with the column.

    ``_parse_data_rows`` parses a clean file in C, to the same values.  The row
    loop below decides every file it declines: whitespace-only rows, forms only
    Python accepts (``1_000``, a quoted ``"1.5"``) and every bad file, row by row.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: file is empty")
        header = [h.strip() for h in header]
        repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
        if repeated is not None:
            raise SchemaError(f"{path}: column '{repeated}' appears more than once")
        names = columns(header)
        parsed = _parse_data_rows(path, header, names)
        if parsed is not None:
            return parsed
        kinds = {"year": (_year, "an integer below 2**53 in magnitude")}
        parsers = [(name, header.index(name), *kinds.get(name, (float, "a number")))
                   for name in names]
        table = {name: [] for name in names}
        for row in _data_rows(reader):
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise ParseError(f"{where}: expected {len(header)} fields, found {len(row)}")
            for name, column, parse, kind in parsers:
                text = row[column]
                try:
                    value = parse(text)
                except ValueError:
                    raise ParseError(f"{where}, column '{name}': "
                                     f"cannot parse '{text}' as {kind}") from None
                if not isfinite(value):
                    raise ParseError(f"{where}, column '{name}': value '{text}' is not finite")
                table[name].append(value)
    return {name: np.array(v, dtype=float) for name, v in table.items()}


def _locate(values: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each value in the sorted ``axis``, and whether it is there."""
    index = np.clip(np.searchsorted(axis, values), 0, axis.size - 1)
    return index, axis[index] == values


def cube_order(path, coords, year, years, rows=None) -> tuple[list[np.ndarray], np.ndarray]:
    """Axes of the dense cube the data rows fill, and the permutation that
    puts the rows in the cube's C order.

    The axes are the sorted unique values of each coordinate column in
    ``coords`` (none for a single series), then ``years`` (sorted) last.  A year
    not in ``years`` and a repeated row are SchemaErrors naming the first
    offending row's line (``rows``: their data-row numbers, by default their
    positions); a cell no row fills is one naming the first such cell.
    """
    axes, index = [], []
    for column in coords:
        axis, inverse = np.unique(column, return_inverse=True)
        axes.append(axis)
        index.append(inverse)
    position, on_grid = _locate(year, years)
    shape = (*(axis.size for axis in axes), years.size)
    flat = np.ravel_multi_index((*index, position), shape)
    order = np.argsort(flat, kind="stable")
    repeated = np.zeros(flat.size, dtype=bool)
    repeated[order[1:][flat[order[1:]] == flat[order[:-1]]]] = True
    bad = ~on_grid | repeated
    if np.any(bad):
        k = int(np.argmax(bad))
        where = f"{path}: line {line_of(path, k if rows is None else int(rows[k]))}"
        if not on_grid[k]:
            raise SchemaError(f"{where}: year {int(year[k])} is not on the scenario's grid "
                              f"{int(years[0])}-{int(years[-1])}")
        key = (*(float(column[k]) for column in coords), int(year[k]))
        raise SchemaError(f"{where}: duplicate row for {key}")
    if flat.size < np.prod(shape):
        filled = np.zeros(shape, dtype=bool)
        filled.flat[flat] = True
        *cell, a = np.argwhere(~filled)[0]
        key = (*(float(axis[i]) for axis, i in zip(axes, cell)), int(years[a]))
        raise SchemaError(f"{path}: missing cell {key}")
    return [*axes, years], order


def _grid_from_years(years: list[int], path) -> TimeGrid:
    """The uniform grid of a file's years, one per data row; a year that
    breaks it is a SchemaError naming the year's line.  The
    grid's step is the positive step most rows agree on, the earlier one on
    a tie; with no positive step the first step breaks the grid."""
    if not years:
        raise SchemaError(f"{path}: file contains no data rows")
    steps = np.diff(years)
    agreed = Counter(steps[steps > 0].tolist()).most_common(1)
    broken = (steps <= 0) | (steps != (agreed[0][0] if agreed else 0))
    if np.any(broken):
        bad = int(np.argmax(broken))
        raise SchemaError(
            f"{path}: years are not uniformly spaced "
            f"(gap between {years[bad]} and {years[bad + 1]} at line {line_of(path, bad + 1)})"
        )
    step = float(steps[0]) if steps.size else 1.0
    return TimeGrid(start_year=years[0], n_steps=len(years), step=step)


def spatial_companion_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + "_spatial" + path.suffix)


def load_scenario(path, agents: list[AgentSpec]) -> Scenario:
    """Load and validate one scenario CSV, named after its stem.  The spatial
    companion is not read (see ``read_spatial``)."""
    path = Path(path)

    def columns(header):
        fields = (h.partition(":") for h in header)
        declared = {agent for kind, sep, agent in fields if sep and kind in EMISSION_MODES}
        expected = {spec.name for spec in agents}
        # declared agents that disagree are a compatibility problem (exit 4)
        if declared and declared != expected:
            raise CompatibilityError(
                f"{path}: scenario agents {sorted(declared)} do not match model agents "
                f"{sorted(expected)}"
            )
        if "year" not in header:
            raise SchemaError(f"{path}: missing required column 'year'")
        known = {"year", "tas_global"}
        for spec in agents:
            raw = f"emission:{spec.name}"
            cum = f"cumulative_emission:{spec.name}"
            if (raw in header) == (cum in header):
                raise SchemaError(
                    f"{path}: agent '{spec.name}' needs exactly one of '{raw}' and '{cum}'"
                )
            known.update({raw, cum, f"concentration:{spec.name}"})
        unknown = [h for h in header if h not in known]
        if unknown:
            raise SchemaError(f"{path}: unknown columns {unknown}")
        return ["year", *(h for h in header if h != "year")]

    data = read_table(path, columns)
    grid = _grid_from_years(data["year"].astype(int).tolist(), path)

    emissions: dict[str, np.ndarray] = {}
    for spec in agents:
        series = data.get(f"cumulative_emission:{spec.name}")
        if series is None:
            series = data[f"emission:{spec.name}"]
            if spec.input_mode == "cumulative_emission":
                series = np.cumsum(series) * grid.step
        emissions[spec.name] = series

    concentrations = {
        spec.name: data[f"concentration:{spec.name}"]
        for spec in agents
        if f"concentration:{spec.name}" in data
    }

    return Scenario(
        name=path.stem,
        grid=grid,
        emissions=emissions,
        concentrations=concentrations or None,
        global_temperature=data.get("tas_global"),
    )


def read_spatial(path, grid: TimeGrid) -> tuple[SpatialGrid, np.ndarray]:
    """The spatial grid and (year, lat, lon) temperature cube of the scenario
    at ``path``, read from its ``<stem>_spatial.csv`` companion on ``grid``."""
    companion = spatial_companion_path(path)
    if not companion.exists():
        raise SchemaError(f"{companion}: spatial file not found")

    def columns(header):
        if header != ["lat", "lon", "year", "tas"]:
            raise SchemaError(f"{companion}: expected columns lat, lon, year, tas")
        return header

    data = read_table(companion, columns)
    years = grid.years().astype(int)
    coords = (data["lat"], data["lon"])
    (lats, lons, _), order = cube_order(companion, coords, data["year"], years)
    cube = data["tas"][order].reshape(lats.size, lons.size, years.size)
    return SpatialGrid(lats, lons), np.ascontiguousarray(np.moveaxis(cube, -1, 0))


def read_truth(path, spatial: bool) -> tuple[list[np.ndarray], np.ndarray]:
    """Axes and values of a truth scenario, years the last axis: the
    ``tas_global`` series, or the ``_spatial.csv`` companion on the main
    file's grid as a (lat, lon, year) cube.  Every axis is sorted."""
    needed = ["year"] if spatial else ["year", "tas_global"]

    def columns(header):
        if any(name not in header for name in needed):
            raise SchemaError(f"{path}: truth scenario needs columns {', '.join(needed)}")
        return needed

    data = read_table(path, columns)
    grid = _grid_from_years(data["year"].astype(int).tolist(), path)
    if not spatial:
        return [data["year"]], data["tas_global"]
    sgrid, cube = read_spatial(path, grid)
    return [sgrid.latitudes, sgrid.longitudes, data["year"]], np.moveaxis(cube, 0, -1)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as ``csv.writer``'s excel dialect does for str, int and
    float fields (``str(float) == repr(float)``): ``",".join(map(str, row))`` plus CRLF per
    row.  A str field it would quote (holding , " CR or LF, or empty and alone) is a ValueError."""
    rows = chain([header], rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        while batch := list(islice(rows, 128)):
            try:  # rows of strings join as they are
                lines = [",".join(row) for row in batch]
            except TypeError:
                lines = [",".join(map(str, row)) for row in batch]
            text = "\r\n".join(lines) + "\r\n"
            # Each row adds len(row) - 1 commas and one CRLF: any more are a field's.
            seps = text.count(",") + text.count("\r") + text.count("\n")
            if seps != sum(map(len, batch)) + len(batch) or '"' in text or "" in lines:
                raise ValueError(f"{path}: a row holds a field CSV would quote")
            handle.write(text)


def spatial_rows(sgrid: SpatialGrid, years, cells):
    """Rows of strings, made cell by cell as consumed and each column formatted once: lat, lon,
    year, then ``cells``' values (per cell, in (lat, lon) order, its series over ``years``)."""
    years = [str(year) for year in years]
    coords = product(map(repr, sgrid.latitudes.tolist()), map(repr, sgrid.longitudes.tolist()))
    return chain.from_iterable(
        zip(repeat(lat), repeat(lon), years, *(map(repr, s.tolist()) for s in series))
        for (lat, lon), series in zip(coords, cells))


def save_scenario(scenario: Scenario, path, agents: list[AgentSpec]) -> None:
    """Write a scenario to CSV; exact inverse of load_scenario."""
    # Each agent's input mode names its emission column (EMISSION_MODES).
    columns = {f"{spec.input_mode}:{spec.name}": scenario.emissions[spec.name] for spec in agents}
    for name, series in (scenario.concentrations or {}).items():
        columns[f"concentration:{name}"] = series
    if scenario.global_temperature is not None:
        columns["tas_global"] = scenario.global_temperature

    values = (np.asarray(c, dtype=float).tolist() for c in columns.values())
    write_csv(path, ["year", *columns], zip(scenario.grid.years().astype(int).tolist(), *values))


def save_spatial(path, grid: TimeGrid, sgrid: SpatialGrid, cube: np.ndarray) -> None:
    """Write the (year, lat, lon) cube on ``grid`` and ``sgrid`` to the
    ``<stem>_spatial.csv`` companion of the scenario at ``path``; exact
    inverse of read_spatial."""
    expected = (grid.n_steps, *sgrid.shape)
    if cube.shape != expected:
        raise GridMismatch(f"spatial cube has shape {cube.shape}, expected {expected}")
    cells = ([tas] for tas in np.moveaxis(cube, 0, -1).reshape(-1, grid.n_steps))
    rows = spatial_rows(sgrid, grid.years().astype(int).tolist(), cells)
    write_csv(spatial_companion_path(path), ["lat", "lon", "year", "tas"], rows)


def assemble_training_set(
    scenarios: list[Scenario],
    holdout: tuple[str, ...] = (),
    agents: list[str] | None = None,
) -> tuple[TrainingSet, list[Scenario]]:
    """Stack training scenarios in declared order, excluding holdouts.

    Standardization constants are fit on the stacked training rows only.
    Returns the training set and the held-out scenarios.  Each scenario name
    may appear once.
    """
    names = [s.name for s in scenarios]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise SchemaError(f"scenario '{name}' is given more than once")
    for h in holdout:
        if h not in names:
            raise SchemaError(f"holdout '{h}' is not among scenarios {names}")
    held = [s for s in scenarios if s.name in holdout]
    kept = [s for s in scenarios if s.name not in holdout]

    if agents is None:
        agents = scenarios[0].agent_names if scenarios else []
    steps = {s.grid.step for s in scenarios}
    if len(steps) > 1:
        raise GridMismatch(f"scenarios have inconsistent steps: {sorted(steps)}")
    for s in scenarios:
        if set(s.agent_names) != set(agents):
            raise SchemaError(
                f"scenario '{s.name}' has agents {s.agent_names}, expected {agents}"
            )

    temps: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    index: list[tuple[str, int]] = []
    for s in kept:
        if s.global_temperature is None:
            raise SchemaError(f"training scenario '{s.name}' has no tas_global series")
        temps.append(np.asarray(s.global_temperature, dtype=float))
        rows.append(s.emission_matrix(agents))
        index.extend((s.name, int(y)) for y in s.grid.years().astype(int))

    train = TrainingSet(
        temperatures=np.concatenate(temps) if kept else np.empty(0),
        index=index,
        standardization=Standardization.from_rows(np.vstack(rows)) if kept else None,
    )
    return train, held
