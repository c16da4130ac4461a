"""Run configuration: file schema, documented defaults, canonical hash.

The config file is flat key = value text under three section headers:
[geometry], [materials], [sweep].  Keys match the field names of
MotorGeometry and MaterialSet; the sweep section takes currents
(comma-separated A), current_points, and angle_step_deg.
Unknown sections or keys are rejected by name; a key the file omits
falls back to its documented default with a logged notice, and an
absent file section means all defaults.  The no-file configuration is
exactly the catalog machine.
"""

from __future__ import annotations

import configparser
import hashlib
import logging
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .motor import MaterialSet, MotorGeometry
from .saturation import BhCurve
from .torque import DEFAULT_ANGLE_STEP_DEG, DEFAULT_CURRENT_POINTS, linkage_bound, sweep_angles

logger = logging.getLogger("srmec.config")

DEFAULT_SWEEP_CURRENTS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)

_INT_KEYS = frozenset(
    {"turns_per_pole", "stator_teeth_count", "rotor_poles_count", "current_points"}
)
_SECTION_KEYS = {
    "geometry": tuple(f.name for f in fields(MotorGeometry)),
    "materials": tuple(f.name for f in fields(MaterialSet)),
    "sweep": ("currents", "current_points", "angle_step_deg"),
}


class ConfigError(ValueError):
    """Configuration file is unreadable or violates the schema."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings.

    sweep_currents are phase currents (A) for the sweep command;
    current_points and angle_step_deg (deg) shape the coenergy grid.
    """

    geometry: MotorGeometry
    materials: MaterialSet
    sweep_currents: tuple[float, ...] = DEFAULT_SWEEP_CURRENTS
    current_points: int = DEFAULT_CURRENT_POINTS
    angle_step_deg: float = DEFAULT_ANGLE_STEP_DEG

    def __post_init__(self) -> None:
        if not self.sweep_currents:
            raise ConfigError("[sweep] currents must list at least one current")
        for value in self.sweep_currents:
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"[sweep] currents must be nonnegative numbers, got {value!r}")
        if len(set(self.sweep_currents)) != len(self.sweep_currents):
            raise ConfigError("[sweep] currents must not repeat")
        try:
            sweep_angles(self.geometry, self.current_points, self.angle_step_deg)
        except ValueError as error:
            raise ConfigError(f"[sweep] {error}") from None
        # The sweep's linkage grows as turns squared times current and
        # would overflow only after the manifest is written.  Every
        # command solves on the default curve; the factor 2 leaves
        # headroom for the rounding of the solve itself.
        top = max(self.sweep_currents)
        bound = linkage_bound(self.geometry, self.materials, BhCurve.default(), top)
        if not bound <= sys.float_info.max / 2.0:
            raise ConfigError(
                f"[geometry] turns_per_pole = {float(self.geometry.turns_per_pole):.6g} with "
                f"[sweep] currents up to {top:g} A could overflow the flux linkage"
            )


def default_config() -> RunConfig:
    """All-defaults configuration: the catalog machine."""
    return RunConfig(geometry=MotorGeometry(), materials=MaterialSet())


def _parse_number(section: str, key: str, text: str, want_int: bool) -> float | int:
    kind = "an integer" if want_int else "a number"
    try:
        return int(text) if want_int else float(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected {kind}, got {text!r}") from None


def _parse_currents(text: str) -> tuple[float, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ConfigError("[sweep] currents: empty list")
    return tuple(float(_parse_number("sweep", "currents", part, want_int=False)) for part in parts)


def _section_values(parser: configparser.ConfigParser, origin: str, section: str) -> dict[str, str]:
    if not parser.has_section(section):
        logger.info("%s: no [%s] section; using defaults throughout", origin, section)
        return {}
    raw = dict(parser.items(section))
    for key in raw:
        if key not in _SECTION_KEYS[section]:
            raise ConfigError(f"{origin}: [{section}] unknown key {key!r}")
    for key in _SECTION_KEYS[section]:
        if key not in raw:
            logger.info("%s: [%s] %s not set; using default", origin, section, key)
    return raw


def _build_section(origin: str, section: str, raw: dict[str, str], factory):
    kwargs = {
        key: _parse_number(section, key, text, want_int=key in _INT_KEYS)
        for key, text in raw.items()
    }
    try:
        return factory(**kwargs)
    except ValueError as error:
        raise ConfigError(f"{origin}: [{section}] {error}") from None


def load_config(path: str | Path | None = None) -> RunConfig:
    """Resolve a config file against the documented defaults.

    None skips the file and returns default_config().  Raises
    ConfigError for unreadable files, unknown sections or keys, and
    values the domain types reject.
    """
    if path is None:
        return default_config()
    origin = str(path)
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise ConfigError(f"cannot read config file: {error}") from None
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        parser.read_string(text)
    except configparser.Error as error:
        raise ConfigError(f"{origin}: {error}") from None
    if parser.defaults():
        stray = sorted(parser.defaults())[0]
        raise ConfigError(f"{origin}: key {stray!r} appears before any section header")
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"{origin}: unknown section [{section}]")

    geometry, materials = (
        _build_section(origin, section, _section_values(parser, origin, section), factory)
        for section, factory in (("geometry", MotorGeometry), ("materials", MaterialSet))
    )
    # The sweep keys left unset take RunConfig's defaults.
    sweep_raw = _section_values(parser, origin, "sweep")
    sweep = {}
    if "currents" in sweep_raw:
        sweep["sweep_currents"] = _parse_currents(sweep_raw.pop("currents"))
    for key, text in sweep_raw.items():
        sweep[key] = _parse_number("sweep", key, text, want_int=key in _INT_KEYS)
    return RunConfig(geometry=geometry, materials=materials, **sweep)


def config_hash(config: RunConfig) -> str:
    """SHA-256 hex digest of the resolved values in fixed key order.

    Hashes the resolved configuration, not the file text, so formatting
    and comment differences do not change the hash.
    """
    parts = []
    for section, obj in (("geometry", config.geometry), ("materials", config.materials)):
        for field in fields(obj):
            parts.append(f"{section}.{field.name}={getattr(obj, field.name)!r}")
    parts.append(f"sweep.currents={config.sweep_currents!r}")
    parts.append(f"sweep.current_points={config.current_points!r}")
    parts.append(f"sweep.angle_step_deg={config.angle_step_deg!r}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
