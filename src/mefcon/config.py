"""Scenario configuration files: schema, defaults, validation.

Configs are YAML (JSON is a YAML subset and parses too).  Node indices in
edge triples are 1-based in files and converted on load.  ``build_scenario``
returns both the runnable ``ScenarioConfig`` and a fully resolved echo
dict with every default filled in, which the CLI embeds into manifests so
a run can be reproduced from its manifest alone.

``_SCHEMA`` and ``_TOP`` list every accepted key with its default and the
reader that checks its value (README.md describes each key); the
disturbance section accepts only the fields its kind reads.  An unknown
key, a missing required one, or a value its reader refuses is a
``ConfigError`` that names the field, and so is a key that one mapping
of the file names twice: one pass over the parser's events
(``_document``) checks the keys of every mapping and builds the
document, and yaml.load builds only a document that the pass does not.
The scenario seed is the one root of a run's draws: the random x0 and
every disturbance stream.
"""

from __future__ import annotations

import math
import re
from collections.abc import Hashable
from pathlib import Path

import numpy as np
import yaml
from yaml.events import (AliasEvent, DocumentEndEvent, MappingEndEvent,
                         MappingStartEvent, ScalarEvent, SequenceEndEvent,
                         SequenceStartEvent, StreamEndEvent)
from yaml.nodes import ScalarNode

from .disturbances import DisturbanceProfile, _seed
from .errors import ConfigError
from .filtering import uniform_params
from .graphs import make_graph
from .simulate import ScenarioConfig

# libyaml's parser where PyYAML was built with it.  ``load_config`` builds
# the document from its events: on the 99 KB edge list of the benchmark's
# pipeline-digraph100 scenario the events take 11-19 ms, the document
# built from them 21-34 ms, and yaml.load, with its node tree and
# constructor, 46-77 ms (best of 21, three rounds, shared 2-core Xeon VM).
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_TAG = "tag:yaml.org,2002:"
_STR, _MERGE, _VALUE = _TAG + "str", _TAG + "merge", _TAG + "value"
# the tags whose plain decimal scalars are built directly, each with the
# decimal form's pattern and the builder that gives the constructor's value
_DECIMAL = {_TAG + "int": (re.compile(r"[-+]?(?:0|[1-9][0-9]*)\Z").match, int),
            _TAG + "float": (re.compile(r"[-+]?[0-9]*\.[0-9]*(?:[eE][-+][0-9]+)?\Z").match,
                             float)}
_COLLECTIONS = {SequenceStartEvent: list, MappingStartEvent: dict}
_ITEM, _KEY = object(), object()  # a list's frame; a mapping's frame waits for a key
_REFER, _MERGED = object(), object()  # a document left to yaml.load; a merge key


def _repeated(key, mark) -> ConfigError:
    return ConfigError(f"config key {key!r} is repeated at line {mark.line + 1}: "
                       "a key may appear once in each mapping")


def _scalar(loader, event, key: bool):
    """The value the loader's constructor makes of the scalar ``event``,
    its tag resolved as the loader's composer resolves it; ``key`` says
    it is a mapping's key, where a merge key gives ``_MERGED`` and ``=``
    is the string yaml.load's mappings read."""
    tag = event.tag
    if tag is None or tag == "!":
        tag = loader.resolve(ScalarNode, event.value, event.implicit)
    if key and tag in (_MERGE, _VALUE):
        return _MERGED if tag == _MERGE else event.value
    if tag == _STR:
        return event.value
    decimal = _DECIMAL.get(tag)
    if decimal is not None and decimal[0](event.value):
        return decimal[1](event.value)
    return loader.construct_object(ScalarNode(tag, event.value, event.start_mark,
                                              event.end_mark))


def _document(loader):
    """The one document of ``loader``'s event stream, as yaml.load builds
    it from the same stream, or ``_REFER`` where only yaml.load builds it;
    either way a key that one mapping names twice is refused.

    One pass reads the document's events to its end.  Each key is compared
    as the constructor makes it: plain, quoted and tagged scalars, and an
    alias of an anchored scalar.  A merge key ``<<`` is not a key of its
    mapping, so a key that overrides a merged one is no repeat; an
    unhashable key is left to yaml.load, which refuses it.  Each untagged
    plain value is built by ``_scalar`` once per text, since its text
    alone decides its value, and quoted ones are strings.  An anchor, an
    alias, a tag, a merge key, an unhashable key or a second document
    gives ``_REFER``.
    """
    get = loader.get_event
    get()  # the stream start
    if type(get()) is StreamEndEvent:  # no document
        return None
    plain = {}  # text -> value of the untagged plain scalars read as values
    anchors = {}  # anchor -> its scalar's event; an anchored collection is no key
    built = True
    root = [[], _ITEM]
    stack = [root]  # open collections: [list, _ITEM] or [dict, key or _KEY]
    while True:
        event = get()
        kind = type(event)
        if kind is ScalarEvent:
            frame = stack[-1]
            if event.anchor is not None or event.tag is not None:
                built = False
                if event.anchor is not None:
                    anchors[event.anchor] = event
                value = _scalar(loader, event, frame[1] is _KEY)
            elif not event.implicit[0]:  # quoted
                value = event.value
            elif event.value in plain:
                value = plain[event.value]
            elif frame[1] is _KEY:
                value = _scalar(loader, event, True)
            else:
                value = plain[event.value] = _scalar(loader, event, False)
        elif kind is SequenceEndEvent or kind is MappingEndEvent:
            stack.pop()
            continue
        elif kind in _COLLECTIONS:
            frame = stack[-1]
            if event.anchor is not None or event.tag is not None:
                built = False
            value = _COLLECTIONS[kind]()
            stack.append([value, _ITEM if kind is SequenceStartEvent else _KEY])
        elif kind is DocumentEndEvent:
            break
        else:  # an alias; yaml.load refuses an undefined one
            frame, target = stack[-1], anchors.get(event.anchor)
            built = False
            value = _scalar(loader, target, True) \
                if frame[1] is _KEY and target is not None else object()
        into = frame[0]
        if frame[1] is _ITEM:
            into.append(value)
        elif frame[1] is not _KEY:
            into[frame[1]] = value
            frame[1] = _KEY
        elif value is _MERGED or not isinstance(value, Hashable):
            built, frame[1] = False, object()  # a key that no other key repeats
        elif value in into:
            raise _repeated(value, event.start_mark)
        else:
            frame[1] = value
    if not built or type(get()) is not StreamEndEvent:  # or a second document
        return _REFER
    return root[0][0]


def _load(text: str):
    """The config document of ``text``: ``yaml.load(text, Loader=_LOADER)``
    with repeated keys refused (``_document``), which yaml.load builds
    only where the parser's events do not."""
    loader = _LOADER(text)
    try:
        document = _document(loader)
    finally:
        loader.dispose()
    return yaml.load(text, Loader=_LOADER) if document is _REFER else document


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
    # one field set per kind: the fields that kind reads (see _disturbance)
    "disturbance": {
        "zero": {},
        "sinusoid": {"delta_max": (0.0, _number), "eps_max": (0.0, _number),
                     "frequency": (1.0, _number)},
        "white": {"sigma": (1.0, _number)}},
    # steps is the echo's derived count, checked against T/h when present
    "integration": {"h": (0.01, _number), "T": (50.0, _number),
                    "steps": (None, _integer)},
}
_TOP = {**{name: ({}, None) for name in _SCHEMA}, "seed": (0, _seed),
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


def _disturbance(mapping) -> dict:
    """The disturbance section's spec for the kind ``mapping`` names: kind
    itself and the fields that kind reads, so that ``_read`` refuses a
    field the kind does not read as an unknown key."""
    kinds = _SCHEMA["disturbance"]
    kind = mapping.get("kind", "zero") if isinstance(mapping, dict) else "zero"
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"field 'disturbance.kind' must be one of {list(kinds)}, "
                          f"got {kind!r}")
    return {"kind": ("zero", None), **kinds[kind]}


def load_config(path: str | Path) -> dict:
    """Parse a config file into a raw dict; ``build_scenario`` checks its keys."""
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not text
        raise ConfigError(f"--config {p}: cannot read the config file: "
                          f"{getattr(exc, 'strerror', None) or exc}") from exc
    try:
        raw = _load(text)
    except (yaml.YAMLError, ValueError, KeyError, AttributeError) as exc:
        # the constructor's own errors, on a tagged scalar such as !!int x
        raise ConfigError(f"config parse error in {p}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    return raw


def build_scenario(raw: dict, seed_override: int | None = None,
                   riccati_override: str | None = None
                   ) -> tuple[ScenarioConfig, dict]:
    """Turn a raw config dict into a ScenarioConfig plus a resolved echo."""
    top = _read(raw, _TOP)
    specs = {**_SCHEMA, "disturbance": _disturbance(top["disturbance"])}
    sections = {name: _read(top[name], spec, name + ".")
                for name, spec in specs.items()}
    g, p, ini, d, it = sections.values()
    n = g["n"]
    if n is None:
        raise ConfigError("field 'graph.n' is required")
    family = str(g["family"]).replace("-", "_").lower()
    if family == "custom" and "weight" in top["graph"]:
        raise ConfigError("field 'graph.weight' is not read by family 'custom', "
                          "whose edges carry their own weights")
    edges = None
    if g["edges"] is not None:
        try:
            edges = [(_integer(i, "graph.edges") - 1, _integer(j, "graph.edges") - 1,
                      _number(w, "graph.edges")) for i, j, w in g["edges"]]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'graph.edges' must be [i, j, w] triples: {exc}") from exc
    try:
        topology = make_graph(family, n, g["weight"], edges)
    except ConfigError as exc:  # quote a refused edge as the file wrote it, 1-based
        k = getattr(exc, "edge", None)
        if k is None:
            raise
        raise ConfigError(f"field 'graph.edges' entry {k + 1}, {g['edges'][k]}: "
                          f"{exc.reason}") from exc

    for key in ("B", "Xi"):
        if p[key] is not None and p[key].size not in (1, n):
            raise ConfigError(f"field 'params.{key}' must be a number or "
                              f"a list of {n} numbers")
    params = uniform_params(topology, B=p["B"], R=p["R"], S=p["S"], G=p["G"],
                            Xi=p["Xi"])

    seed = top["seed"] if seed_override is None else _seed(seed_override, "--seed")
    profile = DisturbanceProfile(**d)

    x0_spec = ini["x0"]
    if isinstance(x0_spec, dict):
        x0_spec = _read(x0_spec, {"random_uniform": ({}, None)}, "initial.x0.")
        ru = _read(x0_spec["random_uniform"], _RANDOM_UNIFORM,
                   "initial.x0.random_uniform.")
        if ru["high"] <= ru["low"]:
            raise ConfigError("field 'initial.x0.random_uniform.high' must "
                              f"exceed low = {ru['low']}, got {ru['high']}")
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3])
        x0 = rng.uniform(ru["low"], ru["high"], n)
    else:
        x0 = _numbers(x0_spec, "initial.x0")
    prior_spec = ini["prior"]
    if isinstance(prior_spec, str):
        if prior_spec != "same":
            raise ConfigError("field 'initial.prior' must be 'same' or a list")
        prior = None
    else:
        prior = _numbers(prior_spec, "initial.prior")

    riccati = str(top["riccati"]) if riccati_override is None \
        else str(riccati_override)
    algorithm = str(top["algorithm"])
    if algorithm not in ("filter", "baseline"):
        raise ConfigError("field 'algorithm' must be 'filter' or 'baseline'")

    cs = [seed] if top["compare_seeds"] is None else top["compare_seeds"]
    if isinstance(cs, (list, tuple)):
        compare_seeds = [_seed(s, "compare_seeds") for s in cs]
    else:
        compare_seeds = list(range(seed, seed + _integer(cs, "compare_seeds")))
    if not compare_seeds:
        raise ConfigError(f"field 'compare_seeds' must be a positive count or a "
                          f"nonempty list of seeds, got {cs!r}")

    config = ScenarioConfig(topology, params, x0, prior, profile, it["h"],
                            it["T"], seed, riccati)
    # a steady run is the dynamic run from Xi = 1/Q* (to 1e-9, as
    # ``certify`` reads it); any other Xi would be ignored.  Echoes of
    # steady runs listed that Xi before they wrote null, and still rerun.
    if riccati == "steady" and p["Xi"] is not None and not np.allclose(
            params.Xi * config.loop.q_star, 1.0, rtol=0.0, atol=1e-9):
        raise ConfigError("field 'params.Xi' is read only by riccati: dynamic, whose "
                          "gain starts at Q(0) = 1/Xi; a steady run holds Q* from "
                          "t = 0, the gain of Xi = 1/Q*, so leave Xi null")
    if it["steps"] not in (None, config.steps):
        raise ConfigError(f"field 'integration.steps' is {it['steps']}, "
                          f"but T/h gives {config.steps} steps")

    # the echo: every key as read and checked, with the derived values put in
    g["family"] = family
    if edges is None:
        del g["edges"]
    else:  # custom, whose edges carry the weights
        del g["weight"]
        g["edges"] = [[i + 1, j + 1, w] for i, j, w in edges]
    p.update(B=params.B.tolist(),  # Xi only where the run reads it
             Xi=params.Xi.tolist() if riccati == "dynamic" else None)
    ini.update(x0=config.x0.tolist(), prior=config.prior.tolist())
    it["steps"] = config.steps
    resolved = {**top, **sections, "seed": seed, "riccati": riccati,
                "compare_seeds": compare_seeds}
    return config, resolved
