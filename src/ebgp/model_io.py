"""Versioned human-readable model serialization.

Models and fit configurations share one INI-style grammar of ``key = value``
sections.  ``LAYOUT`` is the layout of every dataclass-backed section: its keys
in file order, named like the dataclass fields, each with the kind that parses
and formats it (floats by ``repr``, so they round-trip bit-exactly; lists
comma-separated).  Only ``[meta]`` and ``[agents]`` are spelled out by hand.
Undeclared sections and keys, repeated names and non-finite numbers are rejected.
"""

from __future__ import annotations

import configparser
import re
from math import isfinite
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .ebm import AgentForcing, ImpulseParams
from .errors import ParseError, SchemaError
from .inference import PARAMETER_NAMES, EmulatorModel, FitSettings
from .kernels import KernelConfig
from .scenario import AgentSpec, Standardization

FORMAT_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


def _items(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _number(text: str, at: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{at}: cannot parse '{text}' as a number") from None
    if not isfinite(value):
        raise ParseError(f"{at}: value '{text}' is not finite")
    return value


def _names(text: str, at: str, known=None) -> tuple[str, ...]:
    names = tuple(_items(text))
    for name in names:
        if names.count(name) > 1:
            raise SchemaError(f"{at}: '{name}' is named twice")
        if known is not None and name not in known:
            raise SchemaError(f"{at}: unknown parameter '{name}' (choose from {', '.join(known)})")
    return names


def _count(text: str, at: str) -> int:
    text = text.strip()
    if not text.isdecimal():
        raise SchemaError(f"{at}: '{text}' is not a non-negative integer")
    return int(text)


def _flag(text: str, at: str) -> bool:
    lowered = text.strip().lower()
    if lowered not in ("true", "yes", "1", "false", "no", "0"):
        raise ParseError(f"{at}: cannot parse '{text}' as a boolean")
    return lowered in ("true", "yes", "1")


class Kind(NamedTuple):
    parse: Callable[[str, str], object]  # (text, location) -> value
    format: Callable[[object], str]


NUMBER = Kind(_number, lambda v: repr(float(v)))
NUMBERS = Kind(lambda text, at: np.array([_number(t, at) for t in _items(text)]),
               lambda v: ", ".join(map(NUMBER.format, np.atleast_1d(v))))
TEXT = Kind(lambda text, at: text.strip(), str)
FLAG = Kind(_flag, lambda v: "true" if v else "false")
COUNT = Kind(_count, str)
PARAMETERS = Kind(lambda text, at: _names(text, at, PARAMETER_NAMES), ", ".join)


class Key(NamedTuple):
    name: str  # the dataclass field, spelled as in the file
    kind: Kind
    required: bool = True
    per_agent: bool = False  # one entry per agent, in [agents] order


class Section(NamedTuple):
    header: str  # "{agent}" repeats the section once per agent
    field: str  # the EmulatorModel field it fills
    build: type
    required: bool
    keys: tuple[Key, ...]


LAYOUT = (
    Section("response", "impulse", ImpulseParams, True, (
        Key("timescales", NUMBERS),
        Key("equilibrium_responses", NUMBERS),
        Key("variability_amplitude", NUMBER))),
    Section("forcing.{agent}", "forcing", AgentForcing, True, (
        Key("alpha_log", NUMBER),
        Key("alpha_lin", NUMBER),
        Key("alpha_sqrt", NUMBER),
        Key("c0", NUMBER),
        Key("concentration_per_emission", NUMBER, required=False))),
    Section("kernel", "kernel", KernelConfig, True, (
        Key("family", TEXT),
        Key("lengthscales", NUMBERS, per_agent=True),
        Key("variance", NUMBER),
        Key("standardize_inputs", FLAG))),
    Section("standardization", "standardization", Standardization, False, (
        Key("mean", NUMBERS, per_agent=True),
        Key("std", NUMBERS, per_agent=True))),
    Section("fit", "fit", FitSettings, False, (
        Key("free", PARAMETERS, required=False),
        Key("restarts", COUNT, required=False),
        Key("max_iterations", COUNT, required=False))),
)


def _sections(agents):
    """(header, section, agent or None) for every ``LAYOUT`` section, in file order."""
    for section in LAYOUT:
        for agent in agents if "{agent}" in section.header else [None]:
            yield section.header.format(agent=agent), section, agent


def serialize_model(model: EmulatorModel) -> str:
    for spec in model.agents:
        if not _NAME_RE.match(spec.name):
            raise SchemaError(
                f"agent name '{spec.name}' is not serializable (use letters, digits, underscore)"
            )
    lines = ["[meta]", f"format_version = {FORMAT_VERSION}", "", "[agents]",
             "order = " + ", ".join(model.agent_names)]
    for spec in model.agents:
        lines += [f"{spec.name}.mode = {spec.input_mode}", f"{spec.name}.unit = {spec.unit}"]
    for header, section, agent in _sections(model.agent_names):
        value = getattr(model, section.field)
        value = value if agent is None else value[agent]
        if value is None:
            continue
        items = [(key, getattr(value, key.name)) for key in section.keys]
        lines += ["", f"[{header}]"] + [
            f"{key.name} = {key.kind.format(item)}" for key, item in items if item is not None]
    return "\n".join(lines) + "\n"


def save_model(model: EmulatorModel, path) -> None:
    Path(path).write_text(serialize_model(model), encoding="utf-8")


def parse_model(text: str, where: str = "<model>") -> EmulatorModel:
    # A header is never empty, so no [DEFAULT] section applies to the others.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # keys are case sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:  # one line naming the file, not configparser's text
        line = getattr(exc, "lineno", None) or exc.errors[0][0]
        why = ("a key before any section header" if isinstance(exc, configparser.MissingSectionHeaderError)
               else str(exc).partition("]: ")[2] if hasattr(exc, "section") else "expected 'key = value'")
        raise ParseError(f"{where}: line {line}: {why}") from None

    def need(section: str, key: str) -> str:
        if not parser.has_section(section):
            raise SchemaError(f"{where}: missing section [{section}]")
        if not parser.has_option(section, key):
            raise SchemaError(f"{where}: missing key '{key}' in [{section}]")
        return parser.get(section, key)

    version = need("meta", "format_version").strip()
    if version != str(FORMAT_VERSION):
        raise ParseError(f"{where}: unsupported format_version '{version}'")

    order = _names(need("agents", "order"), f"{where}: [agents] order")
    if not order:
        raise SchemaError(f"{where}: [agents] order is empty")
    agents = []
    for name in order:
        mode = need("agents", f"{name}.mode").strip()
        unit = parser.get("agents", f"{name}.unit", fallback="").strip()
        try:
            agents.append(AgentSpec(name=name, input_mode=mode, unit=unit))
        except ValueError as exc:
            raise SchemaError(f"{where}: agent '{name}': {exc}") from None
    declared = {"meta": {"format_version"}, "agents": {"order"}}
    declared["agents"].update(f"{name}.{k}" for name in order for k in ("mode", "unit"))

    fields = {"agents": agents, "forcing": {}}
    for header, section, agent in _sections(order):
        declared[header] = {key.name for key in section.keys}
        if not section.required and not parser.has_section(header):
            continue
        values = {}
        for key in section.keys:
            if key.required or parser.has_option(header, key.name):
                at = f"{where}: [{header}] {key.name}"
                values[key.name] = key.kind.parse(need(header, key.name), at)
        try:
            value = section.build(**values)
        except ValueError as exc:
            raise SchemaError(f"{where}: [{header}]: {exc}") from None
        for key in section.keys:
            if key.per_agent and np.size(getattr(value, key.name)) != len(order):
                raise SchemaError(
                    f"{where}: [{header}] {key.name}: needs {len(order)} values, one per agent")
        if agent is None:
            fields[section.field] = value
        else:
            fields[section.field][agent] = value

    # sigma, the only log-scale row whose section allows 0, cannot be fit from 0.
    if (parser.has_option("fit", "free") and "sigma" in fields["fit"].free
            and fields["impulse"].variability_amplitude <= 0):
        raise SchemaError(f"{where}: [fit] free: sigma needs [response] variability_amplitude > 0")
    # Unknown names come last, so a missing section or bad value is named first.
    for header in parser.sections():
        if header not in declared:
            raise SchemaError(f"{where}: unknown section [{header}]")
        for key in parser.options(header):
            if key not in declared[header]:
                raise SchemaError(f"{where}: unknown key '{key}' in [{header}]")
    return EmulatorModel(**fields)


def load_model(path) -> EmulatorModel:
    path = Path(path)
    return parse_model(path.read_text(encoding="utf-8"), where=str(path))
