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
import functools
import hashlib
import logging
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .motor import (
    ELEMENT_ORDER,
    MU0,
    MaterialSet,
    MotorGeometry,
    dominance_ratios,
    reluctance_range,
    sources_for,
)
from .saturation import BhCurve
from .torque import DEFAULT_ANGLE_STEP_DEG, DEFAULT_CURRENT_POINTS, check_linkage, sweep_angles

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

# A mesh matrix entry sums at most every element's reluctance, and the
# grid's condition bound doubles a diagonal: past this, a lumped
# reluctance leaves a mesh system no float headroom.
RELUCTANCE_CEILING = sys.float_info.max / (2 * len(ELEMENT_ORDER))
# Below the least normal float a reluctance has lost bits, or vanished.
RELUCTANCE_FLOOR = sys.float_info.min
# The derived values RunConfig bounds, by ReluctanceSet and SourceSet
# field name: what each is, and the keys it is computed from, which a
# refusal names (iron_relative_permeability only where it sets the iron).
_BORE_KEYS = ("stator_outer_diameter", "stator_yoke_thickness", "stator_pole_height")
_IRON = ("stack_length", "iron_relative_permeability")
_DERIVED = {
    "f_pm": ("magnet MMF", ("pm_length", "pm_remanence", "pm_relative_permeability")),
    "r_sy": ("stator yoke reluctance", _BORE_KEYS[:2] + ("stator_teeth_count",) + _IRON),
    "r_sp": ("stator pole reluctance", _BORE_KEYS + ("stator_tooth_arc",) + _IRON),
    "r_ry": (
        "rotor yoke reluctance",
        _BORE_KEYS + ("airgap_length", "rotor_pole_height", "rotor_poles_count") + _IRON,
    ),
    "r_g": (
        "air-gap reluctance",
        _BORE_KEYS + ("airgap_length", "stator_tooth_arc", "rotor_pole_arc", "stack_length"),
    ),
    "r_pm": (
        "magnet reluctance", ("pm_length", "pm_width", "stack_length", "pm_relative_permeability")
    ),
}
# A regime ratio of the solve record divides the magnet reluctance by a
# sum of others, and so comes from the keys of all of them.
for _ratio, _terms in (
    ("pm_over_two_poles", ("r_sp", "r_pm")),
    ("pm_over_pole_plus_yoke", ("r_sp", "r_sy", "r_pm")),
    ("three_pm_over_excited_loop", ("r_sy", "r_g", "r_ry", "r_pm")),
    ("pm_over_yoke", ("r_sy", "r_pm")),
):
    _keys = dict.fromkeys(key for term in _terms for key in _DERIVED[term][1])
    _DERIVED[_ratio] = (f"regime ratio {_ratio}", tuple(_keys))


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
        # Values derived from several keys would otherwise overflow or
        # vanish only after the manifest is written.
        self._refuse_derived(linear=False)
        # The sweep's linkage grows as turns squared times current, and
        # bounds the coil MMF 2*N*i too.
        top = max(self.sweep_currents)
        try:
            check_linkage(self.geometry, self.materials, BhCurve.default(), top)
        except ValueError:
            raise ConfigError(
                f"[geometry] turns_per_pole = {float(self.geometry.turns_per_pole):.6g} with "
                f"[sweep] currents up to {top:g} A could overflow the flux linkage"
            ) from None

    def check_solve_record(self) -> None:
        """Refuse by key what only `srmec solve`'s record reads: the
        linear model's iron and its regime ratios.  A sweep reads neither."""
        if self._solve_record_refusal:
            raise ConfigError(self._solve_record_refusal)

    @functools.cached_property
    def _solve_record_refusal(self) -> str:
        """check_solve_record's message, or "" if it passes: computed on
        the first check and kept (frozen fields never change it)."""
        try:
            self._refuse_derived(linear=True)
        except ConfigError as error:
            return str(error)
        return ""

    def _refuse_derived(self, linear: bool) -> None:
        """Raise ConfigError naming the keys of the first derived value
        past what a solve can take, each reluctance at its extremes over
        angle.  Every command's values: the magnet MMF, and the iron as
        every saturating solve starts it, at the curve's initial
        permeability (the states a solve reaches from there are the
        solve's to refuse, by point).  The linear model's (linear=True):
        its iron at mu0 * iron_relative_permeability and its regime
        ratios at their largest."""
        limits = {}
        if linear:
            iron = MU0 * self.materials.iron_relative_permeability
        else:
            iron = BhCurve.default().initial_permeability
            try:
                f_pm = sources_for(self.geometry, self.materials, 0.0).f_pm
            except ValueError:  # a magnet MMF past the float range
                f_pm = math.inf
            limits["f_pm"] = (f_pm, f_pm, " At", 0.0, sys.float_info.max)
        ranges = reluctance_range(self.geometry, self.materials, (iron, iron)).items()
        for field, (low, high) in ranges:
            limits[field] = (low, high, " A/Wb", RELUCTANCE_FLOOR, RELUCTANCE_CEILING)
        if linear:
            # Least divisors, floored (the floor is checked first): ratios at their largest.
            ratios = dominance_ratios(**{f: max(low, RELUCTANCE_FLOOR) for f, (low, _) in ranges})
            limits.update((name, (r, r, "", 0.0, sys.float_info.max)) for name, r in ratios.items())
        for field, (what, keys) in _DERIVED.items():
            if field not in limits:
                continue
            low, high, unit, floor, ceiling = limits[field]
            if not (high <= ceiling and low >= floor):
                value, side, limit = (low, "below", floor) if high <= ceiling else (high, "past", ceiling)
                if not linear:
                    keys = tuple(key for key in keys if key != "iron_relative_permeability")
                raise ConfigError(
                    f"{self._named(keys)} make the {what} {value:.6g}{unit}, "
                    f"{side} the {limit:.6g}{unit} a solve can take"
                )

    def _named(self, keys: tuple[str, ...]) -> str:
        """'[section] key = value, ...' for geometry and materials keys."""
        parts = []
        for section, values in (("geometry", self.geometry), ("materials", self.materials)):
            named = [
                f"{key} = {float(getattr(values, key)):.6g}"
                for key in keys
                if key in _SECTION_KEYS[section]
            ]
            if named:
                parts.append(f"[{section}] " + ", ".join(named))
        return " with ".join(parts)


@functools.cache
def default_config() -> RunConfig:
    """All-defaults configuration: the catalog machine, built on the
    first call and shared by every later one (it is frozen throughout)."""
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
