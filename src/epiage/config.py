"""Run-configuration text: sectioned key-value format.

Sections: [parameters], [grid], [initial], [output], and optionally
[sweep].  Rate values are a plain number (constant profile), inline
knots ``age:value, age:value, ...``, or ``@path.csv`` pointing at a
two-column age,value file.  Example::

    [parameters]
    mu = 0.0125
    beta = 60
    phi = 60
    gamma = 13
    rho = 76.65
    contact = 1
    birth_rate = 1.0

    [grid]
    age_max = 200
    time_max = 10
    age_steps = 4000
    time_steps = auto

    [initial]
    kind = bump
    amplitude = 0.9
    center = 50
    width = 50

    [output]
    stride = auto
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ModelError, ParameterError
from .grids import GridSpec
from .parameters import RATE_NAMES, ConstantRates, ParameterSet
from .profiles import AgeProfile
from .transport import auto_time_steps, check_initial

_KNOWN_KEYS = {
    "parameters": set(RATE_NAMES) | {"birth_rate"},
    "grid": {"age_max", "time_max", "age_steps", "time_steps"},
    "initial": {"kind", "amplitude", "center", "width", "i0", "r0"},
    "output": {"stride", "directory"},
    "sweep": {"param", "values", "probe"},
}


@dataclass(frozen=True)
class InitialSpec:
    """Initial infected/recovered fractions; susceptible takes the rest."""

    kind: str  # "zero" | "bump" | "table"
    amplitude: float = 0.0
    center: float = 0.0
    width: float = 0.0
    i0: AgeProfile | None = None
    r0: AgeProfile | None = None

    def rows(self, ages: np.ndarray):
        if self.kind == "zero":
            i0 = np.zeros_like(ages)
            r0 = np.zeros_like(ages)
        elif self.kind == "bump":
            i0 = cosine_bump(ages, self.amplitude, self.center, self.width)
            r0 = np.zeros_like(ages)
        else:
            i0 = np.asarray(self.i0(ages), dtype=float)
            r0 = (
                np.asarray(self.r0(ages), dtype=float)
                if self.r0 is not None
                else np.zeros_like(ages)
            )
        return 1.0 - i0 - r0, i0, r0


def cosine_bump(ages, amplitude, center, width):
    """Compactly supported cos^2 bump on [center - width, center + width].

    Vanishes identically outside the support, so i0(0) is exactly zero
    whenever center >= width.
    """
    ages = np.asarray(ages, dtype=float)
    out = np.zeros_like(ages)
    inside = np.abs(ages - center) < width
    # a power-of-two scale leaves the phase's bits as they are, and keeps
    # pi (a - center) and 2 width finite for widths near the largest double
    scale = 0.25 if width > 2.0**1000 else 1.0
    phase = np.pi * ((ages[inside] - center) * scale) / (2.0 * (width * scale))
    out[inside] = amplitude * np.cos(phase) ** 2
    return out


@dataclass(frozen=True)
class RunConfig:
    params: ParameterSet
    grid: GridSpec
    initial: InitialSpec
    stride: str | int = "auto"
    directory: str | None = None
    sweep_param: str | None = None
    sweep_values: tuple = ()
    sweep_probe: bool = False

    @property
    def rates(self) -> ConstantRates | None:
        """The closed-form rates, set when every rate is constant."""
        return self.params.constant_rates()


def _parse_float(text, line):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"not a number: {text!r}", line) from None


def _parse_extent(text, line):
    value = _parse_float(text, line)
    if not 0.0 < value < math.inf:
        raise ConfigError("grid extents must be positive and finite", line)
    return value


def _parse_count(text, line, message, least):
    """``int(text)``; a ConfigError with ``message`` on ``line`` unless it
    is an integer of at least ``least``."""
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(message, line) from None
    if value < least:
        raise ConfigError(message, line)
    return value


def _parse_profile(value, line, base_dir):
    value = value.strip()
    if value.startswith("@"):
        path = Path(base_dir or ".") / value[1:]
        if not path.exists():
            raise ConfigError(f"profile file not found: {path}", line)
        pairs = []
        with open(path, newline="") as handle:
            for row in csv.reader(handle):
                if not row or row[0].strip().startswith("#"):
                    continue
                try:
                    pairs.append((float(row[0]), float(row[1])))
                except (ValueError, IndexError):
                    if not pairs:  # tolerate one header row
                        continue
                    raise ConfigError(f"bad row in {path}: {row!r}", line) from None
        try:
            return AgeProfile.from_table(pairs)
        except ModelError as exc:
            raise ConfigError(f"{path}: {exc}", line) from None
    if ":" in value:
        pairs = []
        for item in value.split(","):
            age_text, _, value_text = item.partition(":")
            pairs.append((_parse_float(age_text, line), _parse_float(value_text, line)))
        try:
            return AgeProfile.from_table(pairs)
        except ModelError as exc:
            raise ConfigError(str(exc), line) from None
    return AgeProfile.constant(_parse_float(value, line))


def _split_sections(text):
    sections = {}
    current = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _KNOWN_KEYS:
                raise ConfigError(f"unknown section [{current}]", number)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", number)
        if current is None:
            raise ConfigError("key outside any [section]", number)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _KNOWN_KEYS[current]:
            raise ConfigError(f"unknown key {key!r} in [{current}]", number)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", number)
        sections[current][key] = (value.strip(), number)
    return sections


def parse_config(text: str, base_dir=None) -> RunConfig:
    """Parse and validate; raises ConfigError with the offending line."""
    sections = _split_sections(text)
    for required in ("parameters", "grid"):
        if required not in sections:
            raise ConfigError(f"missing [{required}] section")

    pars = sections["parameters"]
    profiles = {}
    for key in RATE_NAMES:
        if key not in pars:
            raise ConfigError(f"[parameters] missing {key!r}")
        profiles[key] = _parse_profile(*pars[key], base_dir=base_dir)
    birth_text, birth_line = pars.get("birth_rate", ("1.0", None))
    try:
        params = ParameterSet(birth_rate=_parse_float(birth_text, birth_line), **profiles)
    except ModelError as exc:  # the rates are checked above: this is the birth rate
        raise ConfigError(str(exc), birth_line) from None

    gsec = sections["grid"]
    for key in ("age_max", "time_max", "age_steps"):
        if key not in gsec:
            raise ConfigError(f"[grid] missing {key!r}")
    age_max = _parse_extent(*gsec["age_max"])
    time_max = _parse_extent(*gsec["time_max"])
    n_age = _parse_count(*gsec["age_steps"], "age_steps must be an integer >= 2", 2)
    steps_text, steps_line = gsec.get("time_steps", ("auto", 0))
    if steps_text == "auto":
        n_time = auto_time_steps(params, age_max, time_max, n_age)
    else:
        n_time = _parse_count(
            steps_text, steps_line, "time_steps must be an integer >= 2 or auto", 2
        )
    grid = GridSpec(age_max, time_max, n_age, n_time)

    initial = _parse_initial(sections.get("initial", {}), base_dir)
    stride, directory = "auto", None
    if "output" in sections:
        osec = sections["output"]
        if "stride" in osec:
            stride_text, stride_line = osec["stride"]
            if stride_text != "auto":
                stride = _parse_count(
                    stride_text, stride_line, "stride must be an integer >= 1 or auto", 1
                )
        if "directory" in osec:
            directory = osec["directory"][0]

    sweep_param, sweep_values, sweep_probe = None, (), False
    if "sweep" in sections:
        ssec = sections["sweep"]
        if "param" not in ssec or "values" not in ssec:
            raise ConfigError("[sweep] needs both param and values")
        sweep_param, param_line = ssec["param"]
        if sweep_param not in RATE_NAMES[:5]:
            raise ConfigError(f"cannot sweep {sweep_param!r}", param_line)
        values_text, values_line = ssec["values"]
        sweep_values = tuple(
            _parse_float(item, values_line) for item in values_text.split(",")
        )
        if "probe" in ssec:
            probe_text, probe_line = ssec["probe"]
            if probe_text.lower() not in ("true", "false"):
                raise ConfigError("probe must be true or false", probe_line)
            sweep_probe = probe_text.lower() == "true"

    config = RunConfig(
        params=params,
        grid=grid,
        initial=initial,
        stride=stride,
        directory=directory,
        sweep_param=sweep_param,
        sweep_values=sweep_values,
        sweep_probe=sweep_probe,
    )
    _validate_initial(config)
    return config


def _parse_initial(section, base_dir):
    if not section:
        return InitialSpec(kind="zero")
    kind = section.get("kind", ("zero", 0))[0]
    if kind == "zero":
        return InitialSpec(kind="zero")
    if kind == "bump":
        values = {}
        for key in ("amplitude", "center", "width"):
            if key not in section:
                raise ConfigError(f"[initial] bump needs {key!r}")
            values[key] = _parse_float(*section[key])
            if not math.isfinite(values[key]):
                raise ConfigError(f"bump {key} must be finite", section[key][1])
        if not values["width"] > 0:
            raise ConfigError("bump width must be positive", section["width"][1])
        if not values["center"] >= values["width"]:
            raise ConfigError(
                "bump must vanish at age 0: require center >= width",
                section["center"][1],
            )
        return InitialSpec(kind="bump", **values)
    if kind == "table":
        if "i0" not in section:
            raise ConfigError("[initial] table needs i0")
        i0 = _parse_profile(*section["i0"], base_dir=base_dir)
        r0 = (
            _parse_profile(*section["r0"], base_dir=base_dir)
            if "r0" in section
            else None
        )
        return InitialSpec(kind="table", i0=i0, r0=r0)
    raise ConfigError(
        f"initial kind must be zero, bump, or table, got {kind!r}",
        section.get("kind", (None, 0))[1],
    )


def _validate_initial(config: RunConfig):
    try:
        check_initial(*config.initial.rows(config.grid.age_nodes()))
    except ParameterError as exc:
        raise ConfigError(f"[initial] {exc}") from None


def _format_profile(profile: AgeProfile) -> str:
    # a lone knot away from age 0 keeps its age, as the table it came from
    if profile.values.size == 1 and profile.ages[0] == 0.0:
        return f"{profile.values[0]:.17g}"
    return ", ".join(
        f"{a:.17g}:{v:.17g}" for a, v in zip(profile.ages, profile.values)
    )


def render_config(config: RunConfig) -> str:
    """Text that parses back to an equivalent RunConfig (lossless floats)."""
    lines = ["[parameters]"]
    for key in RATE_NAMES:
        lines.append(f"{key} = {_format_profile(getattr(config.params, key))}")
    lines.append(f"birth_rate = {config.params.birth_rate:.17g}")
    lines += [
        "",
        "[grid]",
        f"age_max = {config.grid.age_max:.17g}",
        f"time_max = {config.grid.time_max:.17g}",
        f"age_steps = {config.grid.n_age}",
        f"time_steps = {config.grid.n_time}",
        "",
        "[initial]",
        f"kind = {config.initial.kind}",
    ]
    if config.initial.kind == "bump":
        lines += [
            f"amplitude = {config.initial.amplitude:.17g}",
            f"center = {config.initial.center:.17g}",
            f"width = {config.initial.width:.17g}",
        ]
    elif config.initial.kind == "table":
        lines.append(f"i0 = {_format_profile(config.initial.i0)}")
        if config.initial.r0 is not None:
            lines.append(f"r0 = {_format_profile(config.initial.r0)}")
    lines += ["", "[output]", f"stride = {config.stride}"]
    if config.directory:
        lines.append(f"directory = {config.directory}")
    if config.sweep_param:
        lines += [
            "",
            "[sweep]",
            f"param = {config.sweep_param}",
            "values = " + ", ".join(f"{v:.17g}" for v in config.sweep_values),
            f"probe = {'true' if config.sweep_probe else 'false'}",
        ]
    return "\n".join(lines) + "\n"
