"""Scenario configuration files: schema, defaults, validation.

Configs are YAML (JSON is a YAML subset and parses too).  Node indices in
edge triples are 1-based in files and converted on load.  ``build_scenario``
returns both the runnable ``ScenarioConfig`` and a fully resolved echo
dict with every default filled in, which the CLI embeds into manifests so
a run can be reproduced from its manifest alone.

``_SCHEMA`` and ``_TOP`` list every accepted key with its default and the
reader that checks its value (README.md describes each key).  An unknown
key, a missing required one, or a value its reader refuses is a
``ConfigError`` that names the field.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

from .disturbances import DisturbanceProfile
from .errors import ConfigError
from .filtering import uniform_params
from .graphs import make_graph
from .simulate import ScenarioConfig


def _number(value, field: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if isinstance(value, bool) or not math.isfinite(v):
        raise ConfigError(f"field '{field}' must be a finite number, got {value!r}")
    return v


def _integer(value, field: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{field}' must be an integer, got {value!r}")
    return value


def _numbers(value, field: str) -> np.ndarray:
    """One number or a list of them, as a 1-D array."""
    items = value if isinstance(value, (list, tuple)) else [value]
    return np.array([_number(v, field) for v in items])


# key -> (default, reader); a reader takes (value, field name) and returns
# the checked value, None passes the value on as written.  null is taken
# only where it is the default.
_SCHEMA = {
    "graph": {"family": ("complete", None), "n": (None, _integer),
              "weight": (1.0, _number), "edges": (None, None)},
    "params": {"B": (1.0, _numbers), "R": (1.0, _number), "S": (1.0, _number),
               "G": (1.0, _number), "Xi": (None, _numbers)},
    "initial": {"x0": ({"random_uniform": {}}, None), "prior": ("same", None)},
    "disturbance": {"kind": ("zero", None), "delta_max": (0.0, _number),
                    "eps_max": (0.0, _number), "sigma": (1.0, _number),
                    "frequency": (1.0, _number), "seed": (None, _integer)},
    # steps is the echo's derived count, checked against T/h when present
    "integration": {"h": (0.01, _number), "T": (50.0, _number),
                    "steps": (None, _integer)},
}
_TOP = {**{name: ({}, None) for name in _SCHEMA}, "seed": (0, _integer),
        "riccati": ("steady", None), "algorithm": ("filter", None),
        "compare_seeds": (None, None)}
_RANDOM_UNIFORM = {"low": (-1.0, _number), "high": (1.0, _number)}


def _read(mapping, spec: dict, prefix: str = "") -> dict:
    """Every key of ``spec`` from ``mapping``, checked, defaults filled in."""
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{prefix[:-1]}' must be a mapping")
    unknown = sorted(prefix + str(key) for key in set(mapping) - set(spec))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    out = {}
    for key, (default, reader) in spec.items():
        value = mapping.get(key, default)
        if reader is not None and not (value is None and default is None):
            value = reader(value, prefix + key)
        out[key] = value
    return out


def load_config(path: str | Path) -> dict:
    """Parse a config file into a raw dict; ``build_scenario`` checks its keys."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {p}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    return raw


def build_scenario(raw: dict, seed_override: int | None = None,
                   riccati_override: str | None = None
                   ) -> tuple[ScenarioConfig, dict]:
    """Turn a raw config dict into a ScenarioConfig plus a resolved echo."""
    top = _read(raw, _TOP)
    g, p, ini, d, it = (_read(top[name], _SCHEMA[name], name + ".")
                        for name in ("graph", "params", "initial", "disturbance",
                                     "integration"))
    n = g["n"]
    if n is None:
        raise ConfigError("field 'graph.n' is required")
    family = str(g["family"]).replace("-", "_").lower()
    edges = None
    if g["edges"] is not None:
        try:
            edges = [(_integer(i, "graph.edges") - 1, _integer(j, "graph.edges") - 1,
                      _number(w, "graph.edges")) for i, j, w in g["edges"]]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'graph.edges' must be [i, j, w] triples: {exc}") from exc
    topology = make_graph(family, n, g["weight"], edges)

    for key in ("B", "Xi"):
        if p[key] is not None and p[key].size not in (1, n):
            raise ConfigError(f"field 'params.{key}' must be a number or "
                              f"a list of {n} numbers")
    params = uniform_params(topology, B=p["B"], R=p["R"], S=p["S"], G=p["G"],
                            Xi=p["Xi"])

    seed = top["seed"] if seed_override is None else int(seed_override)

    profile = DisturbanceProfile(
        kind=str(d["kind"]), delta_max=d["delta_max"], eps_max=d["eps_max"],
        sigma=d["sigma"], frequency=d["frequency"], seed=d["seed"])

    x0_spec = ini["x0"]
    if isinstance(x0_spec, dict):
        x0_spec = _read(x0_spec, {"random_uniform": ({}, None)}, "initial.x0.")
        ru = _read(x0_spec["random_uniform"], _RANDOM_UNIFORM,
                   "initial.x0.random_uniform.")
        if ru["high"] <= ru["low"]:
            raise ConfigError("initial.x0 random_uniform needs high > low")
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3])
        x0 = rng.uniform(ru["low"], ru["high"], n)
    else:
        x0 = _numbers(x0_spec, "initial.x0")
        if x0.shape != (n,):
            raise ConfigError(f"field 'initial.x0' must list {n} values")
    prior_spec = ini["prior"]
    if isinstance(prior_spec, str):
        if prior_spec != "same":
            raise ConfigError("field 'initial.prior' must be 'same' or a list")
        prior = None
    else:
        prior = _numbers(prior_spec, "initial.prior")
        if prior.shape != (n,):
            raise ConfigError(f"field 'initial.prior' must list {n} values")

    riccati = str(top["riccati"]) if riccati_override is None \
        else str(riccati_override)
    algorithm = str(top["algorithm"])
    if algorithm not in ("filter", "baseline"):
        raise ConfigError("field 'algorithm' must be 'filter' or 'baseline'")

    cs = [seed] if top["compare_seeds"] is None else top["compare_seeds"]
    if isinstance(cs, (list, tuple)):
        compare_seeds = [_integer(s, "compare_seeds") for s in cs]
    else:
        compare_seeds = list(range(seed, seed + _integer(cs, "compare_seeds")))
    if not compare_seeds:
        raise ConfigError(f"field 'compare_seeds' must be a positive count or a "
                          f"nonempty list of seeds, got {cs!r}")

    config = ScenarioConfig(topology, params, x0, prior, profile, it["h"],
                            it["T"], seed, riccati)
    if it["steps"] not in (None, config.steps):
        raise ConfigError(f"field 'integration.steps' is {it['steps']}, "
                          f"but T/h gives {config.steps} steps")

    resolved = {
        "graph": {"family": family, "n": n, "weight": g["weight"],
                  **({"edges": [[i + 1, j + 1, w] for i, j, w in edges]}
                     if edges is not None else {})},
        "params": {"B": params.B.tolist(), "R": p["R"], "S": p["S"], "G": p["G"],
                   "Xi": params.Xi.tolist()},
        "initial": {"x0": config.x0.tolist(), "prior": config.prior.tolist()},
        "disturbance": {"kind": profile.kind, "delta_max": profile.delta_max,
                        "eps_max": profile.eps_max, "sigma": profile.sigma,
                        "frequency": profile.frequency,
                        "seed": profile.seed if profile.seed is not None else seed},
        "integration": {"h": it["h"], "T": it["T"], "steps": config.steps},
        "seed": seed,
        "riccati": riccati,
        "algorithm": algorithm,
        "compare_seeds": compare_seeds,
    }
    return config, resolved
