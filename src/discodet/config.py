"""Experiment configuration: defaults, the text config format, and builders.

The file format is plain ``section.key = value`` lines (UTF-8, ``#``
comments).  Every key has a default; where the reference simulation
setting states a value, the default equals it, and the remaining gaps are
filled by documented choices.  Unknown keys are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import (DrisProfile, Geometry, LinkFading, PathLoss, Scenario,
                      dbm_to_watts)
from .flow import TrainConfig

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "parse_config_text",
           "dump_config"]

PI = math.pi


class ConfigError(ValueError):
    """Raised on unknown keys, type mismatches, or constraint violations."""


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# key -> (parser, default); declaration order is the dump order
_SCHEMA: dict[str, tuple] = {
    "geometry.alice": (_parse_float_list, (0.0, 0.0, 5.0)),
    "geometry.willie": (_parse_float_list, (0.0, 100.0, 0.0)),
    "geometry.dris_center": (_parse_float_list, (-1.5, 0.0, 5.0)),
    "geometry.bob_center": (_parse_float_list, (0.0, 140.0, 0.0)),
    "geometry.bob_inner": (float, 10.0),
    "geometry.bob_outer": (float, 20.0),
    "fading.los_intercept_db": (float, 35.6),
    "fading.los_slope_db": (float, 22.0),
    "fading.nlos_intercept_db": (float, 32.6),
    "fading.nlos_slope_db": (float, 36.7),
    "fading.link_alice_dris": (str, "los"),
    "fading.link_dris_willie": (str, "los"),
    "fading.link_dris_bob": (str, "los"),
    "fading.link_alice_willie": (str, "nlos"),
    "fading.link_alice_bob": (str, "nlos"),
    "fading.rician_g": (float, 4.0),
    "fading.bandwidth_hz": (float, 180e3),
    "dris.phases": (_parse_float_list, (PI / 9, 7 * PI / 6)),
    "dris.amplitudes": (_parse_float_list, (0.8, 1.0)),
    "dris.probabilities": (_parse_float_list, (0.5, 0.5)),
    "dris.elements_h": (int, 64),
    "dris.elements_v": (int, 32),
    "detector.alpha": (float, 0.05),
    "detector.rho": (float, 0.5),
    "detector.n_samples": (int, 5),
    "detector.m_symbols": (int, 20),
    "detector.n_threshold": (int, 1_000_000),
    "detector.train_size": (int, 20_000),
    "detector.eval_size": (int, 100_000),
    "detector.mixture_h1": (float, 0.5),
    "flow.layers": (int, 5),
    "flow.learning_rate": (float, 2e-4),
    "flow.epochs": (int, 200),
    "flow.batch_size": (int, 256),
    "sweep.powers_dbm": (_parse_float_list, (-10.0, -7.0, -4.0, -1.0, 2.0, 5.0, 8.0)),
    "sweep.elements": (_parse_int_list, (0, 256, 1024, 2048)),
    "sweep.samples": (_parse_int_list, (1, 3, 5, 10, 20)),
    "sweep.fixed_p0_dbm": (float, 5.0),
    "sjnr.bob_mode": (str, "center"),
    "sjnr.n_symbols": (int, 200_000),
    "seeds.root": (int, 20260824),
}

_CHOICES = {
    "fading.link_alice_dris": ("los", "nlos"),
    "fading.link_dris_willie": ("los", "nlos"),
    "fading.link_dris_bob": ("los", "nlos"),
    "fading.link_alice_willie": ("los", "nlos"),
    "fading.link_alice_bob": ("los", "nlos"),
    "sjnr.bob_mode": ("center", "annulus"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully-resolved experiment description (a value per schema key)."""

    values: tuple[tuple[str, object], ...]

    def __getitem__(self, key: str):
        return dict(self.values)[key]

    # -- constraint validation ---------------------------------------------

    def validate(self):
        v = dict(self.values)
        for key, (parser, _) in _SCHEMA.items():
            if parser in (float, _parse_float_list):
                floats = v[key] if parser is _parse_float_list else (v[key],)
                if not all(map(math.isfinite, floats)):
                    raise ConfigError(f"{key} must be finite")
        if v["geometry.bob_inner"] >= v["geometry.bob_outer"]:
            raise ConfigError("geometry.bob_inner must be below geometry.bob_outer")
        for key in ("dris.elements_h", "dris.elements_v", "detector.train_size",
                    "detector.eval_size", "detector.n_threshold", "detector.n_samples",
                    "flow.layers", "flow.epochs", "flow.batch_size",
                    "sjnr.n_symbols"):
            if v[key] < 1:
                raise ConfigError(f"{key} must be at least 1")
        for key in ("flow.learning_rate", "fading.bandwidth_hz"):
            if not v[key] > 0:
                raise ConfigError(f"{key} must be positive")
        for key in ("geometry.alice", "geometry.willie", "geometry.dris_center",
                    "geometry.bob_center"):
            if len(v[key]) != 3:
                raise ConfigError(f"{key} must be a 3-D coordinate")
        for name, build in (("dris profile", self.profile), ("fading", self.fading),
                            ("geometry", self.geometry)):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from None
        if not 0 <= v["seeds.root"] < 2**64:
            raise ConfigError("seeds.root must be a 64-bit unsigned integer")
        if not 0 <= v["detector.mixture_h1"] <= 1:
            raise ConfigError("detector.mixture_h1 must lie in [0, 1]")
        if not 0 < v["detector.alpha"] < 1:
            raise ConfigError("detector.alpha must lie in (0, 1)")
        if not 0 < v["detector.rho"] < 1:
            raise ConfigError("detector.rho must lie in (0, 1)")
        if v["detector.n_samples"] > v["detector.m_symbols"]:
            raise ConfigError("detector.n_samples must not exceed detector.m_symbols")
        if not all(1 <= n <= v["detector.m_symbols"] for n in v["sweep.samples"]):
            raise ConfigError("sweep.samples values must lie in [1, detector.m_symbols]")
        if any(n < 0 for n in v["sweep.elements"]):
            raise ConfigError("sweep.elements values must be non-negative")
        for key, choices in _CHOICES.items():
            if v[key] not in choices:
                raise ConfigError(f"{key} must be one of {choices}, got {v[key]!r}")

    # -- builders ------------------------------------------------------------

    def noise_power(self) -> float:
        return dbm_to_watts(-170.0 + 10.0 * math.log10(self["fading.bandwidth_hz"]))

    def _pathloss(self, tag: str) -> PathLoss:
        if tag == "los":
            return PathLoss(self["fading.los_intercept_db"], self["fading.los_slope_db"])
        return PathLoss(self["fading.nlos_intercept_db"], self["fading.nlos_slope_db"])

    def geometry(self, n_elements: int | None = None) -> Geometry:
        """The scenario's geometry on ``n_elements`` elements, by default
        ``dris.elements_h * dris.elements_v`` (only their product is read)."""
        if n_elements is None:
            n_elements = self["dris.elements_h"] * self["dris.elements_v"]
        return Geometry(
            alice=tuple(self["geometry.alice"]),
            willie=tuple(self["geometry.willie"]),
            dris_center=tuple(self["geometry.dris_center"]),
            bob_center=tuple(self["geometry.bob_center"]),
            bob_inner=self["geometry.bob_inner"],
            bob_outer=self["geometry.bob_outer"],
            n_elements=n_elements,
        )

    def fading(self) -> LinkFading:
        noise = self.noise_power()
        return LinkFading(
            alice_dris=self._pathloss(self["fading.link_alice_dris"]),
            dris_willie=self._pathloss(self["fading.link_dris_willie"]),
            dris_bob=self._pathloss(self["fading.link_dris_bob"]),
            alice_willie=self._pathloss(self["fading.link_alice_willie"]),
            alice_bob=self._pathloss(self["fading.link_alice_bob"]),
            rician_g=self["fading.rician_g"],
            noise_w=noise,
            noise_b=noise,
        )

    def profile(self) -> DrisProfile:
        return DrisProfile(tuple(self["dris.phases"]), tuple(self["dris.amplitudes"]),
                           tuple(self["dris.probabilities"]))

    def scenario(self, p0_dbm: float, n_elements: int | None = None,
                 bob_position=None) -> Scenario:
        return Scenario(
            geometry=self.geometry(n_elements),
            fading=self.fading(),
            profile=self.profile(),
            p0_watts=dbm_to_watts(p0_dbm),
            m_symbols=self["detector.m_symbols"],
            bob_position=bob_position,
        )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=self["flow.learning_rate"],
            epochs=self["flow.epochs"],
            batch_size=self["flow.batch_size"],
            seed=seed,
            n_blocks=self["flow.layers"],
        )

    def with_overrides(self, **overrides) -> "ScenarioConfig":
        """Return a copy with schema keys replaced (dots become underscores)."""
        v = dict(self.values)
        for key, val in overrides.items():
            dotted = key.replace("__", ".")
            if dotted not in v:
                raise ConfigError(f"unknown config key {dotted!r}")
            v[dotted] = val
        cfg = ScenarioConfig(tuple(v.items()))
        cfg.validate()
        return cfg


def parse_config_text(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse the hierarchical key-value format, applying schema defaults."""
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
    cfg = ScenarioConfig(tuple((k, values[k]) for k in _SCHEMA))
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return cfg


def parse_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def dump_config(cfg: ScenarioConfig) -> str:
    """Serialize the fully-resolved config; round-trips through parse."""
    return "".join(f"{key} = {_fmt(val)}\n" for key, val in cfg.values)


DEFAULT_CONFIG = parse_config_text("", source="<defaults>")
