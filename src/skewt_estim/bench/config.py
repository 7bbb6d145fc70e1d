"""Flat key-value scenario configuration files.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored.  Keys mirror the ScenarioConfig fields; the
``estimators`` value is a comma-separated name list.  Unknown keys are
rejected.
"""

from dataclasses import MISSING, fields

from ..exceptions import ConfigError
from .gnss import ScenarioConfig

__all__ = ["parse_config", "load_config"]


def _comma_list(value: str) -> tuple:
    return tuple(s.strip() for s in value.split(",") if s.strip())


# Each field's type parses its value; the tuple-typed estimators field is
# a comma-separated list.  A field without a default is required.
_FIELD_PARSERS = {
    f.name: _comma_list if f.type is tuple else f.type for f in fields(ScenarioConfig)
}
_REQUIRED = tuple(f.name for f in fields(ScenarioConfig) if f.default is MISSING)


def parse_config(text: str) -> ScenarioConfig:
    """Parse configuration text into a ScenarioConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except ValueError as err:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {err}") from err
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {missing}")
    try:
        return ScenarioConfig(**values)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def load_config(path) -> ScenarioConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config(text)
