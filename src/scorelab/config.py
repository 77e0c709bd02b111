"""Flat `key = value` experiment configs with section headers.

One experiment per file.  The [experiment] section names the command, the
seed and the output directory; [params] holds command-specific settings;
ksd-run reads one mixture record per key from [models].  Mixtures are flat
text records as produced by `mixture.to_record`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .mixture import GaussianMixture1D, from_record

COMMANDS = (
    "score-plot",
    "fisher-sweep",
    "stein-sweep",
    "ksd-run",
    "svgd-run",
    "langevin-run",
    "remedies-run",
)
# commands that consume random streams and therefore require a seed
RANDOMIZED = ("ksd-run", "svgd-run", "langevin-run", "remedies-run")


# characters that would break an unquoted CSV cell
_CSV_UNSAFE = (",", '"', "\r", "\n")


class ConfigError(Exception):
    """Invalid experiment config; the message names the offending field."""


def check_label(key: str, label: str) -> str:
    """`label`, if it can be written as one unquoted CSV cell; else a
    ConfigError naming `key`."""
    bad = [c for c in _CSV_UNSAFE if c in label]
    if bad:
        raise ConfigError(f"{key}: a label must not contain {' or '.join(map(repr, bad))}, got {label!r}")
    return label


@dataclass
class ExperimentConfig:
    """Parsed experiment description."""

    command: str
    seed: int
    out_dir: Path | None
    threads: int = 1
    params: dict[str, str] = field(default_factory=dict)
    models: dict[str, str] = field(default_factory=dict)

    # typed accessors; every failure names the [params] key
    def _raw(self, key: str, default=None):
        if key in self.params:
            return self.params[key]
        if default is None:
            raise ConfigError(f"missing required [params] field {key!r}")
        return default

    def get_str(self, key: str, default: str | None = None) -> str:
        return str(self._raw(key, default)).strip()

    def get_int(self, key: str, default: int | None = None) -> int:
        raw = self._raw(key, default)
        try:
            return int(str(raw).strip())
        except ValueError:
            raise ConfigError(f"[params] {key} must be an integer, got {raw!r}") from None

    def get_float(self, key: str, default: float | None = None) -> float:
        raw = self._raw(key, default)
        try:
            return float(str(raw).strip())
        except ValueError:
            raise ConfigError(f"[params] {key} must be a number, got {raw!r}") from None

    def get_floats(self, key: str, default: str | None = None) -> list[float]:
        raw = str(self._raw(key, default))
        try:
            return [float(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"[params] {key} must be comma-separated numbers, got {raw!r}") from None

    def get_pairs(self, key: str, default: str | None = None) -> list[tuple[float, float]]:
        """Parse `a:b, c:d` pair lists."""
        raw = str(self._raw(key, default))
        pairs = []
        for token in raw.split(","):
            token = token.strip()
            if not token:
                continue
            left, sep, right = token.partition(":")
            if not sep:
                raise ConfigError(f"[params] {key} entries must look like a:b, got {token!r}")
            try:
                pairs.append((float(left), float(right)))
            except ValueError:
                raise ConfigError(f"[params] {key} has non-numeric pair {token!r}") from None
        if not pairs:
            raise ConfigError(f"[params] {key} must list at least one pair")
        return pairs

    def get_mixture(self, key: str, default: str | None = None) -> GaussianMixture1D:
        raw = self.get_str(key, default)
        try:
            return from_record(raw)
        except ValueError as exc:
            raise ConfigError(f"[params] {key}: {exc}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    path = Path(path)
    # '#' only: ';' separates mixture-record fields and must stay literal
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error in {path}: {exc}") from None

    if not parser.has_section("experiment"):
        raise ConfigError("config must have an [experiment] section")
    exp = parser["experiment"]

    command = exp.get("command", "").strip()
    if command not in COMMANDS:
        raise ConfigError(
            f"[experiment] command must be one of {', '.join(COMMANDS)}; got {command!r}"
        )

    seed_raw = exp.get("seed", "").strip()
    if not seed_raw:
        if command in RANDOMIZED:
            raise ConfigError(f"[experiment] seed is required for {command}")
        seed = 0
    else:
        try:
            seed = int(seed_raw)
        except ValueError:
            raise ConfigError(f"[experiment] seed must be an integer, got {seed_raw!r}") from None

    threads_raw = exp.get("threads", "1").strip()
    try:
        threads = int(threads_raw)
    except ValueError:
        raise ConfigError(f"[experiment] threads must be an integer, got {threads_raw!r}") from None
    if threads < 1:
        raise ConfigError(f"[experiment] threads: must be at least 1, got {threads}")

    out_dir = exp.get("out_dir", "").strip() or None

    params = dict(parser["params"]) if parser.has_section("params") else {}
    models = dict(parser["models"]) if parser.has_section("models") else {}
    return ExperimentConfig(
        command=command,
        seed=seed,
        out_dir=Path(out_dir) if out_dir else None,
        threads=threads,
        params=params,
        models=models,
    )
