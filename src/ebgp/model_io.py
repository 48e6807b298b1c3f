"""Versioned human-readable model serialization.

Models and fit configurations share one grammar: an INI-style text file with
``key = value`` sections.  Floats are written with ``repr`` so every real
round-trips bit-exactly; lists are comma-separated.  Section layout:

    [meta]            format_version
    [agents]          order plus <name>.mode and <name>.unit per agent
    [response]        timescales, equilibrium_responses, variability_amplitude
    [forcing.<name>]  alpha_log, alpha_lin, alpha_sqrt, c0,
                      optional concentration_per_emission
    [kernel]          family, lengthscales, variance, standardize_inputs
    [standardization] optional: mean, std (per agent, in order)
    [fit]             optional: free, restarts, max_iterations
"""

from __future__ import annotations

import configparser
import re
from pathlib import Path

import numpy as np

from .ebm import AgentForcing, ImpulseParams
from .errors import ParseError, SchemaError
from .inference import PARAMETER_NAMES, EmulatorModel, FitSettings
from .kernels import KernelConfig
from .scenario import AgentSpec, Standardization

FORMAT_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _fmt_list(values) -> str:
    return ", ".join(_fmt_float(v) for v in np.atleast_1d(values))


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{where}: cannot parse '{text}' as a number") from None


def _parse_list(text: str, where: str) -> np.ndarray:
    items = [t.strip() for t in text.split(",") if t.strip()]
    return np.array([_parse_float(t, where) for t in items])


def _parse_count(text: str, where: str) -> int:
    text = text.strip()
    if not text.isdecimal():
        raise SchemaError(f"{where}: '{text}' is not a non-negative integer")
    return int(text)


def _parse_bool(text: str, where: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ParseError(f"{where}: cannot parse '{text}' as a boolean")


def serialize_model(model: EmulatorModel) -> str:
    for spec in model.agents:
        if not _NAME_RE.match(spec.name):
            raise SchemaError(
                f"agent name '{spec.name}' is not serializable (use letters, digits, underscore)"
            )
    lines: list[str] = []
    lines.append("[meta]")
    lines.append(f"format_version = {FORMAT_VERSION}")
    lines.append("")
    lines.append("[agents]")
    lines.append("order = " + ", ".join(spec.name for spec in model.agents))
    for spec in model.agents:
        lines.append(f"{spec.name}.mode = {spec.input_mode}")
        lines.append(f"{spec.name}.unit = {spec.unit}")
    lines.append("")
    lines.append("[response]")
    lines.append("timescales = " + _fmt_list(model.impulse.timescales))
    lines.append("equilibrium_responses = " + _fmt_list(model.impulse.equilibrium_responses))
    lines.append(
        "variability_amplitude = " + _fmt_float(model.impulse.variability_amplitude)
    )
    for spec in model.agents:
        params = model.forcing[spec.name]
        lines.append("")
        lines.append(f"[forcing.{spec.name}]")
        lines.append("alpha_log = " + _fmt_float(params.alpha_log))
        lines.append("alpha_lin = " + _fmt_float(params.alpha_lin))
        lines.append("alpha_sqrt = " + _fmt_float(params.alpha_sqrt))
        lines.append("c0 = " + _fmt_float(params.c0))
        if params.concentration_per_emission is not None:
            lines.append(
                "concentration_per_emission = "
                + _fmt_float(params.concentration_per_emission)
            )
    lines.append("")
    lines.append("[kernel]")
    lines.append(f"family = {model.kernel.family}")
    lines.append("lengthscales = " + _fmt_list(model.kernel.lengthscales))
    lines.append("variance = " + _fmt_float(model.kernel.variance))
    lines.append(
        "standardize_inputs = " + ("true" if model.kernel.standardize_inputs else "false")
    )
    if model.standardization is not None:
        lines.append("")
        lines.append("[standardization]")
        lines.append("mean = " + _fmt_list(model.standardization.mean))
        lines.append("std = " + _fmt_list(model.standardization.std))
    lines.append("")
    lines.append("[fit]")
    lines.append("free = " + ", ".join(model.fit.free))
    lines.append(f"restarts = {model.fit.restarts}")
    lines.append(f"max_iterations = {model.fit.max_iterations}")
    lines.append("")
    return "\n".join(lines)


def save_model(model: EmulatorModel, path) -> None:
    Path(path).write_text(serialize_model(model), encoding="utf-8")


def parse_model(text: str, where: str = "<model>") -> EmulatorModel:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"{where}: {exc}") from None

    def need(section: str, key: str) -> str:
        if not parser.has_section(section):
            raise SchemaError(f"{where}: missing section [{section}]")
        if not parser.has_option(section, key):
            raise SchemaError(f"{where}: missing key '{key}' in [{section}]")
        return parser.get(section, key)

    version = need("meta", "format_version").strip()
    if version != str(FORMAT_VERSION):
        raise ParseError(f"{where}: unsupported format_version '{version}'")

    order = [t.strip() for t in need("agents", "order").split(",") if t.strip()]
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

    try:
        impulse = ImpulseParams(
            timescales=_parse_list(need("response", "timescales"), where),
            equilibrium_responses=_parse_list(
                need("response", "equilibrium_responses"), where
            ),
            variability_amplitude=_parse_float(
                need("response", "variability_amplitude"), where
            ),
        )
    except ValueError as exc:
        raise SchemaError(f"{where}: [response]: {exc}") from None

    forcing = {}
    for name in order:
        section = f"forcing.{name}"
        coef = parser.get(section, "concentration_per_emission", fallback=None) if parser.has_section(section) else None
        try:
            forcing[name] = AgentForcing(
                alpha_log=_parse_float(need(section, "alpha_log"), where),
                alpha_lin=_parse_float(need(section, "alpha_lin"), where),
                alpha_sqrt=_parse_float(need(section, "alpha_sqrt"), where),
                c0=_parse_float(need(section, "c0"), where),
                concentration_per_emission=(
                    _parse_float(coef, where) if coef is not None else None
                ),
            )
        except ValueError as exc:
            raise SchemaError(f"{where}: [{section}]: {exc}") from None

    try:
        kernel = KernelConfig(
            family=need("kernel", "family").strip(),
            lengthscales=_parse_list(need("kernel", "lengthscales"), where),
            variance=_parse_float(need("kernel", "variance"), where),
            standardize_inputs=_parse_bool(need("kernel", "standardize_inputs"), where),
        )
    except ValueError as exc:
        raise SchemaError(f"{where}: [kernel]: {exc}") from None
    if kernel.n_dims != len(order):
        raise SchemaError(
            f"{where}: kernel has {kernel.n_dims} lengthscales for {len(order)} agents"
        )

    standardization = None
    if parser.has_section("standardization"):
        try:
            standardization = Standardization(
                mean=_parse_list(need("standardization", "mean"), where),
                std=_parse_list(need("standardization", "std"), where),
            )
        except ValueError as exc:
            raise SchemaError(f"{where}: [standardization]: {exc}") from None
        if standardization.mean.size != len(order):
            raise SchemaError(
                f"{where}: standardization covers {standardization.mean.size} agents, expected {len(order)}"
            )

    fit = FitSettings()
    if parser.has_section("fit"):
        free_text = parser.get("fit", "free", fallback=None)
        if free_text is not None:
            fit.free = tuple(t.strip() for t in free_text.split(",") if t.strip())
        for name in fit.free:
            if name not in PARAMETER_NAMES:
                raise SchemaError(
                    f"{where}: [fit] free: unknown parameter '{name}' "
                    f"(choose from {', '.join(PARAMETER_NAMES)})"
                )
        for key in ("restarts", "max_iterations"):
            if parser.has_option("fit", key):
                setattr(fit, key, _parse_count(parser.get("fit", key), f"{where}: [fit] {key}"))

    return EmulatorModel(
        agents=agents,
        impulse=impulse,
        forcing=forcing,
        kernel=kernel,
        standardization=standardization,
        fit=fit,
    )


def load_model(path) -> EmulatorModel:
    path = Path(path)
    return parse_model(path.read_text(encoding="utf-8"), where=str(path))
