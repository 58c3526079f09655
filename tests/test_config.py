"""``load_config`` against ``yaml.load``: the one pass over the parser's
events refuses repeated keys and builds the same document, and yaml.load
builds only what the pass does not."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
import yaml

from mefcon import ConfigError, load_config
from mefcon import config as config_module
from mefcon.cli import main

ROOT = Path(__file__).resolve().parents[1]
YAML_LOAD = yaml.load  # the oracle, which the ``loads`` fixture does not count

# every scalar form whose value the constructor makes, and the plain
# decimal forms built directly, each with its neighbours in the resolver
SCALARS = [
    "1", "-0", "+5", "0", "00", "09", "010", "0o10", "0x1F", "0b101", "1_000",
    "-12_3", "1:30", "190:20:30.15", "12345678901234567890123",
    "1.5", "-0.0", "+1.5", ".5", "1.", "1.5e+3", "0.1e-5", "1e5", "1.5E-07",
    "1_0.5", ".inf", "-.inf", "+.Inf", ".nan", ".NaN",
    "true", "True", "FALSE", "yes", "No", "on", "OFF", "y", "~", "null", "Null", "",
    "=", "<<",
    "2001-12-14", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10",
    "'1'", '"1.5"', "'true'", "x", "é", "|\n  x\n", ">\n  y\n", "[1, 2.5, x]",
    "{b: {c: [1, [2, [3]]]}}",
]

# documents that the event builder leaves to yaml.load
REFERRED = [
    "a: &x 1\nb: *x\n",
    "a: &x [1, {c: 2}]\nb: *x\n",
    "base: &b {x: 1, y: 2}\nd:\n  <<: *b\n  y: 3\n",
    "p: &p {x: 1}\nq: &q {x: 2, z: 3}\nd: {<<: [*p, *q], w: 4}\n",
    "d: {<<: {x: 1, y: 2}, y: 3}\n",
    "a: !!str 1\nb: !!float 2\nc: ! 3\n",
    "a: !!set {x, y}\n",
    "? !!str 1\n: a\n",
    "d: {<<: {x: 1}, <<: {y: 2}}\n",  # two merge keys: no key is repeated
    "&k a: 1\nb: {*k : 2}\n",  # an alias of an anchored scalar as a key
]


def _same_as_yaml_load(path: Path):
    """load_config gives yaml.load's mapping, or refuses what it refuses.
    Returns the mapping, or None."""
    try:
        want = YAML_LOAD(path.read_text(), Loader=config_module._LOADER)
    except yaml.YAMLError:
        with pytest.raises(ConfigError, match="config parse error"):
            load_config(path)
        return None
    if not isinstance(want, dict):
        with pytest.raises(ConfigError, match="config root must be a mapping"):
            load_config(path)
        return None
    got = load_config(path)
    assert repr(got) == repr(want), path
    return got


def _workloads():
    """The benchmark's workload module, whose generators write the YAML."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workload_yamls(tmp_path_factory):
    """The YAML files of the benchmark's workloads for seeds 1-3, and the
    JSON spelling of each."""
    work = _workloads()
    paths = []
    for seed in (1, 2, 3):
        d = tmp_path_factory.mktemp(f"seed{seed}")
        work.make_pipeline(seed, d)
        work.make_compare(seed, d)
        work._write_yaml(d / "sweep_cases.yaml",
                         {"cases": work.sweep_cases(seed, work.SWEEP["cases"])[0]})
        for path in sorted(d.glob("*.yaml")):
            spelled = path.with_suffix(".json")
            raw = YAML_LOAD(path.read_text(), Loader=config_module._LOADER)
            spelled.write_text(json.dumps(raw))
            paths += [path, spelled]
    return paths


@pytest.fixture
def loads(monkeypatch):
    """The texts that ``load_config`` hands to yaml.load."""
    texts = []
    monkeypatch.setattr(yaml, "load", lambda text, Loader: texts.append(text)
                        or YAML_LOAD(text, Loader=Loader))
    return texts


def test_shipped_and_workload_configs_equal_yaml_load(workload_yamls, loads):
    shipped = sorted((ROOT / "configs").glob("*.yaml"))
    assert len(shipped) == 3 and len(workload_yamls) == 24
    loaded = {path: _same_as_yaml_load(path) for path in shipped + workload_yamls}
    for path in workload_yamls[1::2]:  # each JSON spelling, after its YAML
        assert repr(loaded[path]) == repr(loaded[path.with_suffix(".yaml")]), path
    assert not loads  # every one of them was built from the events


@pytest.mark.parametrize("form", SCALARS)
def test_scalar_forms_equal_yaml_load(tmp_path, form):
    path = tmp_path / "c.yaml"
    texts = [f"a: {form}\n"]
    if "\n" not in form:
        texts += [f"a: [{form}]\n", f"{form}: 1\n", f"b: 0\n{form}: 1\n"]
    for text in texts:
        path.write_text(text)
        _same_as_yaml_load(path)


@pytest.mark.parametrize("text", REFERRED)
def test_referred_documents_equal_yaml_load(tmp_path, text, loads):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    _same_as_yaml_load(path)
    assert loads == [text]


@pytest.mark.parametrize("text", [
    "", "# only a comment\n", "a: 1\n---\nb: 2\n", "{:::", "a: [1, 2\n",
    "? [1]\n: 2\n", "? {a: 1}\n: 2\n", "a: =\n", "a: <<\n", "- 1\n- 2\n", "x\n",
    "!!seq x: 1\n", "? *a\n: 1\nb: &a [1]\n"])
def test_refused_documents(tmp_path, text):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("text, key, line", [
    ("graph: {family: complete, n: 3}\nparams: {B: 1.0}\nparams: {R: 5.0}\n",
     "params", 3),
    ("graph: {family: complete, n: 3}\nparams:\n  R: 1.0\n  B: 2.0\n  R: 5.0\n", "R", 5),
    ("graph: {family: complete, n: 3, n: 4}\n", "n", 1),
    ("graph:\n  family: custom\n  n: 2\n  edges: [[1, 2, 1.0], [2, 1, 1.0]]\n"
     "seed: 1\nseed: 0x1\n", "seed", 6),
    ("1: a\ntrue: b\n", True, 2),  # equal keys yaml.load would fold into one
    # the same on yaml.load's path: an anchor, a merge key
    ("graph: &g {family: complete, n: 3}\nparams: {B: 1.0}\nparams: {R: 5.0}\n",
     "params", 3),
    ("base: &b {R: 1.0}\nparams:\n  <<: *b\n  S: 2.0\n  S: 3.0\n", "S", 5),
    ("graph: {family: complete, n: 3}\nseed: !!int 1\nseed: 1\n", "seed", 3),
    # an alias names the key of its anchored scalar; the line is the alias's
    ("graph: {family: complete, n: 3}\n&k seed: 1\n*k : 2\n", "seed", 3),
    ("graph: {family: complete, n: 3}\nparams: !!map {R: 1.0, R: 2.0}\n", "R", 2),
])
def test_repeated_keys_are_refused(tmp_path, capsys, text, key, line):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"config key {key!r} is repeated at line {line}:"):
        load_config(path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"config key {key!r} is repeated" in capsys.readouterr().err


def test_merge_key_overrides_are_no_repeats(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("defaults: &d {R: 1.0, S: 2.0}\n"
                    "params:\n  <<: *d\n  S: 3.0\n")
    assert load_config(path)["params"] == {"R": 1.0, "S": 3.0}
    path.write_text("graph: {family: complete, n: 3}\n"
                    "integration: {h: 0.01, T: 0.05}\n"
                    "params: {<<: [{R: 2.0}, {R: 3.0, S: 2.0}], R: 4.0}\n")
    raw = load_config(path)
    assert raw["params"] == {"R": 4.0, "S": 2.0}
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_undefined_alias_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "c.yaml"
    path.write_text("graph: {family: complete, n: 3}\nseed: *s\n")
    with pytest.raises(ConfigError, match="config parse error.*undefined alias"):
        load_config(path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "undefined alias" in capsys.readouterr().err


def test_pure_python_loader_gives_the_same_documents(tmp_path, monkeypatch):
    # where PyYAML has no libyaml, the events come from its Python parser
    monkeypatch.setattr(config_module, "_LOADER", yaml.SafeLoader)
    path = tmp_path / "c.yaml"
    texts = [f"a: {form}\n" for form in SCALARS] + REFERRED
    for text in texts + [(ROOT / "configs" / "two_ring_envelope.yaml").read_text()]:
        path.write_text(text)
        _same_as_yaml_load(path)
    path.write_text("a: 1\nb: {c: 2, c: 3}\n")
    with pytest.raises(ConfigError, match="'c' is repeated at line 2:"):
        load_config(path)
