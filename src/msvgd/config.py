"""Run configuration: flat JSON schema, validation, and object wiring.

A config file is a single flat JSON object.  config_from_dict() checks it
against the schema, builds nothing and fills defaults; load_config() reads
a file by its path or by a preset's name and merges the command line's
overrides into the file's object before that one check.
build_runtime() wires a checked config into the live objects a run needs
(target, map, kernel, growth constants) and makes every check that relates
fields to each other.  Each command calls it once, before any output; a
"theorem" step size is priced on first use, as ``msvgd theory`` prices its
report.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, DomainError
from .kernels import make_kernel, particle_bytes
from .mirrors import make_map
from .targets import MirroredTarget, certified_profile, make_target
from . import theory

_REQUIRED_KEYS = ("map", "kernel", "target", "particles", "steps", "seed")
_OPTIONAL_KEYS = (
    "gamma",
    "dim",
    "cadence",
    "alpha",
    "kernel_params",
    "target_params",
    "grid_nodes",
    "grid_halfwidth",
)
_ALLOWED_KEYS = frozenset(_REQUIRED_KEYS + _OPTIONAL_KEYS)

_PRESET_DIR = Path(__file__).resolve().parents[2] / "presets"

_MAP_DOMAIN = {
    "euclidean": "euclidean",
    "entropic-simplex": "simplex",
    "entropic-box": "box",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description.  gamma is a positive float or "theorem"."""

    map: str
    kernel: str
    target: str
    particles: int
    steps: int
    seed: int
    gamma: object = "theorem"
    dim: int | None = None
    cadence: int = 10
    alpha: float = theory.SmoothnessProfile.alpha
    kernel_params: dict = field(default_factory=dict)
    target_params: dict = field(default_factory=dict)
    grid_nodes: int | None = None
    grid_halfwidth: float | None = None

    def to_dict(self) -> dict:
        """Flat JSON-ready form; omits unset optionals, keeps filled defaults."""
        out = {
            "map": self.map,
            "kernel": self.kernel,
            "target": self.target,
            "particles": self.particles,
            "steps": self.steps,
            "seed": self.seed,
            "gamma": self.gamma,
            "cadence": self.cadence,
            "alpha": self.alpha,
        }
        for key in ("dim", "grid_nodes", "grid_halfwidth"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        for key in ("kernel_params", "target_params"):
            value = getattr(self, key)
            if value:
                out[key] = dict(value)
        return out


def _require_finite(value, path: str) -> None:
    """Reject a non-finite number anywhere inside nested dicts and lists."""
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _require_finite(item, f"{path}[{index}]")
    elif isinstance(value, numbers.Real) and not math.isfinite(value):
        raise ConfigError(f"config key {path!r} must be finite, got {value}")


def _as_int(raw: dict, key: str, default=None, minimum=None):
    if key not in raw:
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ConfigError(f"config key {key!r} must be >= {minimum}, got {value}")
    return value


def _as_number(raw: dict, key: str, default=None, minimum=None, strict=False):
    if key not in raw:
        return default
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    value = float(value)
    _require_finite(value, key)
    if minimum is not None and (value < minimum or (strict and value == minimum)):
        op = ">" if strict else ">="
        raise ConfigError(f"config key {key!r} must be {op} {minimum}, got {value}")
    return value


def _as_params(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config key {key!r} must be an object, got {value!r}")
    _require_finite(value, key)
    return dict(value)


def config_from_dict(raw: dict) -> RunConfig:
    """The config a parsed JSON object describes, checked against the schema
    only: build_runtime makes the cross-field checks."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a single JSON object")
    for key in sorted(raw):
        if key not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"config key {key!r} is required")
    for key in ("map", "kernel", "target"):
        if not isinstance(raw[key], str):
            raise ConfigError(f"config key {key!r} must be a string, got {raw[key]!r}")

    gamma = raw.get("gamma", RunConfig.gamma)
    if isinstance(gamma, str):
        if gamma != "theorem":
            raise ConfigError(
                f"config key 'gamma' must be a positive number or \"theorem\", got {gamma!r}"
            )
    elif isinstance(gamma, bool) or not isinstance(gamma, numbers.Real):
        raise ConfigError(
            f"config key 'gamma' must be a positive number or \"theorem\", got {gamma!r}"
        )
    else:
        gamma = float(gamma)
        _require_finite(gamma, "gamma")
        if not gamma > 0:
            raise ConfigError(f"config key 'gamma' must be > 0, got {gamma}")

    return RunConfig(
        map=raw["map"],
        kernel=raw["kernel"],
        target=raw["target"],
        particles=_as_int(raw, "particles", minimum=1),
        steps=_as_int(raw, "steps", minimum=0),
        seed=_as_int(raw, "seed", minimum=0),
        gamma=gamma,
        dim=_as_int(raw, "dim", minimum=1),
        cadence=_as_int(raw, "cadence", default=RunConfig.cadence, minimum=1),
        alpha=_as_number(raw, "alpha", default=RunConfig.alpha, minimum=1.0, strict=True),
        kernel_params=_as_params(raw, "kernel_params"),
        target_params=_as_params(raw, "target_params"),
        grid_nodes=_as_int(raw, "grid_nodes", minimum=8),
        grid_halfwidth=_as_number(raw, "grid_halfwidth", minimum=0.0, strict=True),
    )


def load_config(name, overrides: dict) -> RunConfig:
    """Read a JSON config file, named by a path or as a preset shipped in
    presets/ (with or without its ".json"), replace each key of
    ``overrides`` whose value is not None (the command line's), and check
    the result once."""
    for path in (Path(name), _PRESET_DIR / str(name), _PRESET_DIR / f"{name}.json"):
        if path.is_file():
            break
    else:
        raise ConfigError(
            f"no config file or preset named {str(name)!r} (presets live in {_PRESET_DIR})"
        )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if isinstance(raw, dict):  # anything else config_from_dict refuses
        raw.update((key, value) for key, value in overrides.items() if value is not None)
    return config_from_dict(raw)


@dataclass
class RuntimeBundle:
    """Live objects for one run.

    ``profile`` holds the cataloged growth constants, or None.
    ``certificate`` prices them (``theory.certify``) on first use and is
    None without a profile.  ``gamma`` is the config's explicit step size
    or, in "theorem" mode, the certificate's fixed cap.
    """

    config: RunConfig
    dim: int
    mirror_map: object
    mirrored: MirroredTarget
    kernel: object
    profile: object

    @property
    def gamma_mode(self) -> str:
        return "theorem" if self.config.gamma == "theorem" else "explicit"

    @property
    def gamma(self) -> float:
        if self.gamma_mode == "theorem":
            return self.certificate.fixed_cap
        return float(self.config.gamma)

    @functools.cached_property
    def certificate(self) -> theory.Certificate | None:
        if self.profile is None:
            return None
        return theory.certify(self.mirrored, self.profile, self.kernel.bounds(),
                              self.mirror_map.strong_convexity, self.dim)


def _build_map(cfg: RunConfig, dim: int, target):
    if cfg.map == "entropic-box":
        # build_runtime has matched the map's domain to the target's, so the
        # target has a box, and the map takes it
        return make_map("entropic-box", lo=target.lo, hi=target.hi)
    try:
        return make_map(cfg.map, dim=dim)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def build_runtime(cfg: RunConfig) -> RuntimeBundle:
    """Wire a schema-checked config into live objects, making every
    cross-field check and refusal; prices nothing."""
    target = make_target(cfg.target, cfg.target_params)
    dim = target.dim
    if cfg.dim is not None and cfg.dim != dim:
        raise ConfigError(f"config dim {cfg.dim} does not match target dimension {dim}")
    domain = _MAP_DOMAIN.get(cfg.map)
    if domain is None:
        raise ConfigError(f"unknown mirror map {cfg.map!r}")
    if domain != target.domain:
        raise ConfigError(
            f"map {cfg.map!r} expects a {domain} target but {cfg.target!r} lives on a {target.domain}"
        )

    mirror_map = _build_map(cfg, dim, target)
    try:
        kernel = make_kernel(cfg.kernel, cfg.kernel_params, mirror_map=mirror_map)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for kernel {cfg.kernel!r}: {exc}") from None
    # Kernel blocks larger than physical memory can never be allocated, so
    # this refuses only runs that could not fit.
    need = particle_bytes(kernel, cfg.particles, dim)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ConfigError(
            f"config key 'particles' = {cfg.particles} needs about {need} bytes of "
            f"float64 kernel blocks at d = {dim}, more than the {memory} bytes "
            "of physical memory"
        )
    mirrored = MirroredTarget(target, mirror_map)
    profile = certified_profile(mirrored)
    if profile is not None and cfg.alpha != profile.alpha:
        profile = profile.with_values("user", alpha=cfg.alpha)

    if cfg.gamma == "theorem":
        if profile is None:
            raise ConfigError(
                "a certified step size needs growth constants (l0, l1, c_p, p) that "
                f"hold by derivation, and none are cataloged for target {cfg.target!r} "
                f"under map {cfg.map!r}; a run here takes only an explicit gamma"
            )
        if kernel.adaptive:
            raise ConfigError(
                "a certified step size needs fixed kernel bounds; "
                "a median-heuristic bandwidth changes every step"
            )
        if dim > 2:
            raise ConfigError(
                "a certified step size prices its constants by dual-space quadrature, "
                f"available for dim <= 2 only (target has dim {dim})"
            )

    return RuntimeBundle(config=cfg, dim=dim, mirror_map=mirror_map, mirrored=mirrored,
                         kernel=kernel, profile=profile)
