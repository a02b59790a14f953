"""Declarative campaign specifications (``firefly-campaign/1``).

A campaign spec is a YAML or JSON document describing a *matrix* of
trials — the §5.2 style sweep campaign written down instead of typed
into ad-hoc CLI loops.  Top level::

    schema: firefly-campaign/1
    name: quick-example
    description: one line about why this campaign exists
    seeds: [1987, 1988]          # default seed axis for every group
    matrix:
      - kind: sweep              # (processors x protocol x seed) grid
        processors: [1, 2, 4]
        protocol: [firefly, write-through]
        generation: microvax
        warmup: 2000
        measure: 8000
        exclude:
          - {protocol: write-through, processors: 1}
      - kind: bench              # pinned observatory scenarios
        scenarios: [exerciser-1cpu]
        quick: true
      - kind: vector             # vectorized §5.2 statistical runs
        processors: [2, 4, 6]
        instructions: 100000
      - kind: chaos              # seeded fault-injection scenarios
        scenarios: [bus-parity]
        quick: true
      - kind: serve              # resilient-serving SLO scenarios
        scenarios: [steady-poisson]
        quick: true
    golden:                      # optional pinned metric digests
      sweep/np1/firefly/microvax/s1987: sha256:0123456789abcdef

Every list-valued parameter is an *axis* and expands by cross product
(in document order, seeds last), ``exclude`` entries remove any trial
whose parameters match every key of the entry, and each surviving trial
gets a deterministic human label plus a content-hashed key of
``(kind, params, seed, git_sha)`` — the resume identity used by the
persistent ledger (:mod:`repro.campaign.store`).

The ``probe`` kind is a deliberately trivial trial (a pure function of
its seed) used by the resume/interrupt test-suite and by smoke
campaigns; it can be told to fail for chosen seeds through an
environment variable, which is how the tests kill a campaign mid-run
without making two specs that would no longer share trial keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.provenance import content_hash

CAMPAIGN_SCHEMA = "firefly-campaign/1"

#: The trial kinds a matrix group may declare.
TRIAL_KINDS = ("sweep", "bench", "chaos", "serve", "vector", "probe")

#: The kinds whose trials are pinned named scenarios
#: (:func:`repro.observatory.runner.select_scenarios`).
SCENARIO_KINDS = ("bench", "chaos", "serve")

_COMMON_KEYS = {"kind", "seeds", "exclude"}
_GROUP_KEYS = {
    "sweep": _COMMON_KEYS | {"processors", "protocol", "generation",
                             "warmup", "measure"},
    **{kind: _COMMON_KEYS | {"scenarios", "quick"}
       for kind in SCENARIO_KINDS},
    "vector": _COMMON_KEYS | {"processors", "instructions", "backend"},
    "probe": _COMMON_KEYS | {"name", "offset", "fail_env", "spin"},
}


@dataclass(frozen=True)
class CampaignTrial:
    """One fully-resolved cell of the campaign matrix."""

    label: str
    kind: str
    seed: int
    params: Dict
    key: str

    def worker_spec(self) -> Tuple:
        """The picklable spec handed to the pool worker."""
        return (self.kind, self.label, self.seed, dict(self.params))


@dataclass
class CampaignSpec:
    """A validated campaign document."""

    name: str
    description: str
    seeds: List[int]
    groups: List[Dict]
    golden: Dict[str, str] = field(default_factory=dict)

    @property
    def spec_hash(self) -> str:
        """Content hash of the whole normalised spec."""
        return content_hash({
            "schema": CAMPAIGN_SCHEMA,
            "name": self.name,
            "description": self.description,
            "seeds": self.seeds,
            "matrix": self.groups,
            "golden": self.golden,
        })

    def expand(self, git_sha: Optional[str]) -> List[CampaignTrial]:
        """All trials in deterministic matrix order.

        ``git_sha`` participates in every trial key: a result is only
        reusable by the resumable runner while the code that produced
        it is unchanged.  ``None`` (not a checkout) hashes as the
        literal string ``"unknown"`` so artifacts stay producible.
        """
        sha = git_sha or "unknown"
        trials: List[CampaignTrial] = []
        seen: Dict[str, str] = {}
        for index, group in enumerate(self.groups):
            for label, seed, params in _expand_group(group, self.seeds):
                if label in seen:
                    raise ConfigurationError(
                        f"matrix[{index}] produces duplicate trial "
                        f"{label!r}; merge the overlapping groups")
                seen[label] = label
                key = content_hash({"kind": group["kind"],
                                    "params": params, "seed": seed,
                                    "git_sha": sha})
                trials.append(CampaignTrial(label=label,
                                            kind=group["kind"],
                                            seed=seed, params=params,
                                            key=key))
        return trials


# ---------------------------------------------------------------------------
# loading and validation


def load_spec(path) -> CampaignSpec:
    """Load and validate a campaign spec file (YAML or JSON by suffix)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"campaign spec {path} does not exist")
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # pragma: no cover - PyYAML is usually present
            raise ConfigurationError(
                f"{path}: PyYAML is not installed; write the campaign "
                f"spec as JSON instead") from None
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{path}: invalid YAML: {exc}") \
                from None
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") \
                from None
    return parse_spec(data, source=str(path))


def parse_spec(data, source: str = "<spec>") -> CampaignSpec:
    """Validate a raw spec mapping into a :class:`CampaignSpec`."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{source}: campaign spec must be a "
                                 f"mapping, got {type(data).__name__}")
    schema = data.get("schema")
    if schema != CAMPAIGN_SCHEMA:
        raise ConfigurationError(
            f"{source}: schema is {schema!r}, expected "
            f"{CAMPAIGN_SCHEMA!r}")
    unknown = sorted(set(data) - {"schema", "name", "description",
                                  "seeds", "matrix", "golden"})
    if unknown:
        raise ConfigurationError(
            f"{source}: unknown top-level key(s): {', '.join(unknown)}")
    name = data.get("name")
    if not isinstance(name, str) or not name \
            or any(c in name for c in "/\\ \t\n"):
        raise ConfigurationError(
            f"{source}: name must be a non-empty string without "
            f"whitespace or path separators (it names the ledger file)")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise ConfigurationError(f"{source}: description must be a string")
    seeds = _validate_seeds(data.get("seeds", [1987]), f"{source}: seeds")
    matrix = data.get("matrix")
    if not isinstance(matrix, list) or not matrix:
        raise ConfigurationError(
            f"{source}: matrix must be a non-empty list of trial groups")
    groups = [_validate_group(group, f"{source}: matrix[{i}]")
              for i, group in enumerate(matrix)]
    golden = _validate_golden(data.get("golden", {}), f"{source}: golden")
    spec = CampaignSpec(name=name, description=description, seeds=seeds,
                        groups=groups, golden=golden)
    labels = {trial.label for trial in spec.expand("unknown")}
    missing = sorted(set(golden) - labels)
    if missing:
        raise ConfigurationError(
            f"{source}: golden pins trial(s) the matrix never produces: "
            f"{', '.join(missing)}")
    return spec


def _validate_seeds(value, where: str) -> List[int]:
    if not isinstance(value, list) or not value \
            or not all(isinstance(s, int) and not isinstance(s, bool)
                       for s in value):
        raise ConfigurationError(f"{where} must be a non-empty list of "
                                 f"integers")
    if len(set(value)) != len(value):
        raise ConfigurationError(f"{where} contains duplicate seeds")
    return list(value)


def _validate_golden(value, where: str) -> Dict[str, str]:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a mapping of trial "
                                 f"label -> digest")
    for label, digest in value.items():
        if not isinstance(label, str) or not isinstance(digest, str) \
                or not digest.startswith("sha256:"):
            raise ConfigurationError(
                f"{where}: entry {label!r} must map a trial label to a "
                f"'sha256:...' digest")
    return dict(value)


def _validate_group(group, where: str) -> Dict:
    if not isinstance(group, dict):
        raise ConfigurationError(f"{where}: trial group must be a mapping")
    kind = group.get("kind")
    if kind not in TRIAL_KINDS:
        raise ConfigurationError(
            f"{where}: kind must be one of {', '.join(TRIAL_KINDS)}; "
            f"got {kind!r}")
    unknown = sorted(set(group) - _GROUP_KEYS[kind])
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown key(s) for kind {kind!r}: "
            f"{', '.join(unknown)} (allowed: "
            f"{', '.join(sorted(_GROUP_KEYS[kind]))})")
    validated: Dict = {"kind": kind}
    if "seeds" in group:
        validated["seeds"] = _validate_seeds(group["seeds"],
                                             f"{where}: seeds")
    if kind in SCENARIO_KINDS:
        validated.update(_validate_scenarios(group, where, kind))
    else:
        validator = {"sweep": _validate_sweep, "vector": _validate_vector,
                     "probe": _validate_probe}[kind]
        validated.update(validator(group, where))
    validated["exclude"] = _validate_exclude(group.get("exclude", []),
                                             validated, where)
    return validated


def _as_list(value) -> List:
    return list(value) if isinstance(value, list) else [value]


def _validate_sweep(group: Dict, where: str) -> Dict:
    from repro.cache.protocols import available_protocols
    from repro.observatory.runner import SWEEP_MEASURE, SWEEP_WARMUP

    processors = _as_list(group.get("processors", [1, 2, 3, 4, 5]))
    if not processors or not all(isinstance(p, int) and p >= 1
                                 for p in processors):
        raise ConfigurationError(f"{where}: processors must be "
                                 f"integer(s) >= 1")
    protocols = [str(p) for p in _as_list(group.get("protocol",
                                                    "firefly"))]
    known = set(available_protocols())
    bad = sorted(set(protocols) - known)
    if bad:
        raise ConfigurationError(
            f"{where}: unknown protocol(s) {', '.join(bad)}; available: "
            f"{', '.join(sorted(known))}")
    generation = group.get("generation", "microvax")
    if generation not in ("microvax", "cvax"):
        raise ConfigurationError(f"{where}: generation must be "
                                 f"'microvax' or 'cvax'")
    warmup = group.get("warmup", SWEEP_WARMUP)
    measure = group.get("measure", SWEEP_MEASURE)
    for label, cycles in (("warmup", warmup), ("measure", measure)):
        if not isinstance(cycles, int) or cycles < 0 \
                or (label == "measure" and cycles < 1):
            raise ConfigurationError(f"{where}: {label} must be a "
                                     f"non-negative integer")
    return {"processors": processors, "protocol": protocols,
            "generation": generation, "warmup": warmup,
            "measure": measure}


def _validate_scenarios(group: Dict, where: str, kind: str) -> Dict:
    from repro.observatory.runner import select_scenarios

    names = [scenario.name for scenario in select_scenarios(kind)]
    scenarios = [str(s) for s in _as_list(group.get("scenarios", names))]
    try:
        select_scenarios(kind, scenarios)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None
    quick = group.get("quick", True)
    if not isinstance(quick, bool):
        raise ConfigurationError(f"{where}: quick must be a boolean")
    return {"scenarios": scenarios, "quick": quick}


def _validate_vector(group: Dict, where: str) -> Dict:
    processors = _as_list(group.get("processors", [2, 4, 6]))
    if not processors or not all(isinstance(p, int) and p >= 1
                                 for p in processors):
        raise ConfigurationError(f"{where}: processors must be "
                                 f"integer(s) >= 1")
    instructions = group.get("instructions", 100_000)
    if not isinstance(instructions, int) or instructions < 1:
        raise ConfigurationError(f"{where}: instructions must be a "
                                 f"positive integer")
    validated = {"processors": processors, "instructions": instructions}
    backend = group.get("backend")
    if backend is not None:
        from repro.trace.vectorized import BACKENDS

        if backend not in BACKENDS:
            raise ConfigurationError(
                f"{where}: backend must be one of {', '.join(BACKENDS)}; "
                f"got {backend!r}")
        validated["backend"] = backend
    return validated


def _validate_probe(group: Dict, where: str) -> Dict:
    name = group.get("name", "probe")
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"{where}: name must be a non-empty "
                                 f"string")
    offset = group.get("offset", 0)
    spin = group.get("spin", 0)
    if not isinstance(offset, int) or not isinstance(spin, int) \
            or spin < 0:
        raise ConfigurationError(f"{where}: offset/spin must be integers "
                                 f"(spin >= 0)")
    validated = {"name": name, "offset": offset, "spin": spin}
    fail_env = group.get("fail_env")
    if fail_env is not None:
        if not isinstance(fail_env, str) or not fail_env:
            raise ConfigurationError(f"{where}: fail_env must be a "
                                     f"non-empty string")
        validated["fail_env"] = fail_env
    return validated


def _validate_exclude(value, validated: Dict, where: str) -> List[Dict]:
    if not isinstance(value, list):
        raise ConfigurationError(f"{where}: exclude must be a list of "
                                 f"mappings")
    axis_keys = set(_axis_names(validated)) | {"seed"}
    entries: List[Dict] = []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict) or not entry:
            raise ConfigurationError(f"{where}: exclude[{i}] must be a "
                                     f"non-empty mapping")
        unknown = sorted(set(entry) - axis_keys)
        if unknown:
            raise ConfigurationError(
                f"{where}: exclude[{i}] names unknown axis(es): "
                f"{', '.join(unknown)} (axes: "
                f"{', '.join(sorted(axis_keys))})")
        entries.append(dict(entry))
    return entries


# ---------------------------------------------------------------------------
# expansion


def _axis_names(group: Dict) -> List[str]:
    """The parameter names that expand for this group, seeds excluded."""
    if group["kind"] in SCENARIO_KINDS:
        return ["scenarios"]
    return {"sweep": ["processors", "protocol"], "vector": ["processors"],
            "probe": []}[group["kind"]]


def _excluded(entry_params: Dict, excludes: Sequence[Dict]) -> bool:
    return any(all(entry_params.get(key) == value
                   for key, value in entry.items())
               for entry in excludes)


def _expand_group(group: Dict, default_seeds: Sequence[int]
                  ) -> List[Tuple[str, int, Dict]]:
    """(label, seed, params) triples in deterministic matrix order."""
    kind = group["kind"]
    seeds = group.get("seeds", list(default_seeds))
    excludes = group.get("exclude", [])
    out: List[Tuple[str, int, Dict]] = []
    if kind == "sweep":
        for processors in group["processors"]:
            for protocol in group["protocol"]:
                for seed in seeds:
                    match = {"processors": processors,
                             "protocol": protocol, "seed": seed}
                    if _excluded(match, excludes):
                        continue
                    params = {"processors": processors,
                              "protocol": protocol,
                              "generation": group["generation"],
                              "warmup": group["warmup"],
                              "measure": group["measure"]}
                    label = (f"sweep/np{processors}/{protocol}/"
                             f"{group['generation']}/s{seed}")
                    out.append((label, seed, params))
    elif kind in SCENARIO_KINDS:
        mode = "quick" if group["quick"] else "full"
        for scenario in group["scenarios"]:
            for seed in seeds:
                if _excluded({"scenarios": scenario, "seed": seed},
                             excludes):
                    continue
                params = {"scenario": scenario, "quick": group["quick"]}
                out.append((f"{kind}/{scenario}/{mode}/s{seed}", seed,
                            params))
    elif kind == "vector":
        for processors in group["processors"]:
            for seed in seeds:
                match = {"processors": processors, "seed": seed}
                if _excluded(match, excludes):
                    continue
                params = {"processors": processors,
                          "instructions": group["instructions"]}
                if "backend" in group:
                    params["backend"] = group["backend"]
                out.append((f"vector/np{processors}"
                            f"/i{group['instructions']}/s{seed}",
                            seed, params))
    else:  # probe
        for seed in seeds:
            if _excluded({"seed": seed}, excludes):
                continue
            params = {key: group[key]
                      for key in ("name", "offset", "spin", "fail_env")
                      if key in group}
            out.append((f"probe/{group['name']}/s{seed}", seed, params))
    return out
