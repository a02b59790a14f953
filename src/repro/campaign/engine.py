"""The resumable campaign runner.

``firefly-sim campaign run SPEC`` flows through here:

1. :func:`repro.campaign.spec.load_spec` validates the document and
   expands the matrix into content-keyed trials;
2. the :class:`~repro.campaign.store.CampaignStore` ledger is loaded
   and every trial whose key already has a result is **skipped**;
3. the remaining trials fan out through the deterministic executor
   (:func:`repro.observatory.runner.run_ordered`), each completed
   result appended durably to the ledger *as it is collected* — a
   crash, Ctrl-C or failing trial loses at most the in-flight work;
4. the merged report is rebuilt from the ledger in matrix order.

Because every trial is a pure function of its spec and seed, the
merged report contains no wall-clock or host fields, so an interrupted
and resumed campaign serialises **byte-identically** to an
uninterrupted one at any ``--jobs`` count (the resume test-suite pins
this).  Bench trials therefore keep only their simulated fields here;
throughput measurement stays the job of ``firefly-sim bench``.

Golden sections turn silent drift into a named failure: the spec pins
``label -> sha256 digest`` of a trial's result, every run recomputes
the digests, and any mismatch fails the campaign naming the exact
(scenario, seed) that moved.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.provenance import content_hash, git_sha
from repro.campaign.spec import SCENARIO_KINDS, CampaignSpec, CampaignTrial
from repro.campaign.store import CampaignStore

REPORT_SCHEMA = "firefly-campaign-report/1"


# ---------------------------------------------------------------------------
# the pool worker


def campaign_trial(spec: Tuple[str, str, int, Dict]):
    """Run one campaign trial: ``(kind, label, seed, params)``.

    Module-level so it pickles by reference into worker processes.
    Results are plain JSON-safe data: chaos and serve outcomes are
    serialised in the worker, bench trials drop their host wall-clock
    time (the campaign report must stay byte-deterministic).
    """
    kind, _label, seed, params = spec
    if kind == "sweep":
        from repro.observatory.runner import sweep_point

        return sweep_point((params["processors"], params["protocol"],
                            params["generation"], seed,
                            params["warmup"], params["measure"]))
    if kind in SCENARIO_KINDS:
        from repro.observatory.runner import scenario_trial

        result, _wall = scenario_trial((kind, params["scenario"],
                                        params["quick"], seed))
        if kind == "bench":
            cycles, metrics = result
            return {"seed": seed, "cycles": cycles, "metrics": metrics}
        return result.to_dict()
    if kind == "probe":
        return _probe_trial(seed, params)
    raise ConfigurationError(f"unknown trial kind {kind!r}")


def _probe_trial(seed: int, params: Dict) -> Dict:
    """The trivial self-test trial: a pure function of its seed.

    ``fail_env`` names an environment variable holding a
    comma-separated seed list; a listed seed raises, which is how the
    resume tests kill a campaign mid-run without changing the spec
    (and thus the trial keys) between the two runs.  ``spin`` adds
    deterministic busy work so interrupt tests have time to interrupt.
    """
    fail_env = params.get("fail_env")
    if fail_env:
        listed = {part.strip()
                  for part in os.environ.get(fail_env, "").split(",")
                  if part.strip()}
        if str(seed) in listed:
            raise SimulationError(
                f"probe fault injected for seed {seed} (via ${fail_env})")
    value = seed * seed + params.get("offset", 0)
    for _ in range(params.get("spin", 0)):
        value = (value * 1103515245 + 12345) % (1 << 31)
    return {"seed": seed, "value": value}


def _describe(spec: Tuple[str, str, int, Dict]) -> str:
    return spec[1]


# ---------------------------------------------------------------------------
# running


@dataclass
class CampaignRun:
    """Everything one ``campaign run`` produced."""

    spec: CampaignSpec
    report: Dict
    total: int
    ran: int
    skipped: int
    golden: Dict[str, Dict] = field(default_factory=dict)

    @property
    def golden_failures(self) -> List[str]:
        return [label for label, verdict in sorted(self.golden.items())
                if verdict["verdict"] != "ok"]

    @property
    def ok(self) -> bool:
        return not self.golden_failures


def run_campaign_spec(spec: CampaignSpec, store: CampaignStore,
                      jobs: int = 1, resume_only: bool = False,
                      sha: Optional[str] = None,
                      progress: Optional[Callable[[str], None]] = None
                      ) -> CampaignRun:
    """Run (or resume — the same thing) a validated campaign spec.

    ``resume_only`` is the ``campaign resume`` contract: refuse to
    start from nothing, so a typo'd store directory cannot silently
    re-run a week of trials.
    """
    if sha is None:
        sha = git_sha()
    trials = spec.expand(sha)
    load = store.load(spec.name)
    if resume_only and not store.ledger_path(spec.name).is_file():
        raise ConfigurationError(
            f"campaign {spec.name!r} has no ledger in {store.directory}; "
            f"use 'campaign run' to start it")
    if load.corrupt_lines and progress is not None:
        progress(f"ledger: skipped {load.corrupt_lines} torn or "
                 f"malformed line(s)")
    pending = [trial for trial in trials if trial.key not in load.rows]
    if progress is not None:
        progress(f"campaign {spec.name}: {len(trials)} trial(s), "
                 f"{len(trials) - len(pending)} cached, "
                 f"running {len(pending)} (jobs={max(1, jobs or 1)})")

    if pending:
        from repro.observatory.runner import run_ordered

        by_label = {trial.label: trial for trial in pending}

        def persist(worker_spec, result) -> None:
            trial = by_label[worker_spec[1]]
            store.append(spec.name, store.make_row(
                spec.name, trial, sha, spec.spec_hash, result))
            if progress is not None:
                progress(f"  done {trial.label}")

        run_ordered([trial.worker_spec() for trial in pending],
                    campaign_trial, jobs=jobs, describe=_describe,
                    on_result=persist)

    merged = store.load(spec.name).rows
    missing = [trial.label for trial in trials
               if trial.key not in merged]
    if missing:
        raise SimulationError(
            f"campaign {spec.name}: {len(missing)} trial(s) missing "
            f"after the run: {', '.join(missing[:5])}")
    results = {trial.key: merged[trial.key]["result"]
               for trial in trials}
    golden = check_golden(spec, trials, results)
    report = build_report(spec, trials, results, golden, sha)
    return CampaignRun(spec=spec, report=report, total=len(trials),
                       ran=len(pending), skipped=len(trials)
                       - len(pending), golden=golden)


def check_golden(spec: CampaignSpec, trials: List[CampaignTrial],
                 results: Dict[str, object]) -> Dict[str, Dict]:
    """Per-pinned-label verdicts: ``ok`` or ``drift``.

    Labels pinned but absent from the expansion are caught at parse
    time, so every golden entry resolves to a trial here.
    """
    by_label = {trial.label: trial for trial in trials}
    verdicts: Dict[str, Dict] = {}
    for label, pinned in sorted(spec.golden.items()):
        trial = by_label[label]
        actual = content_hash(results[trial.key])
        verdicts[label] = {
            "pinned": pinned,
            "actual": actual,
            "verdict": "ok" if actual == pinned else "drift",
        }
    return verdicts


def build_report(spec: CampaignSpec, trials: List[CampaignTrial],
                 results: Dict[str, object], golden: Dict[str, Dict],
                 sha: Optional[str]) -> Dict:
    """The merged campaign report (deterministic, JSON-safe)."""
    return {
        "schema": REPORT_SCHEMA,
        "name": spec.name,
        "description": spec.description,
        "git_sha": sha,
        "spec_hash": spec.spec_hash,
        "golden": golden,
        "trials": [{
            "key": trial.key,
            "label": trial.label,
            "kind": trial.kind,
            "seed": trial.seed,
            "params": dict(trial.params),
            "result": results[trial.key],
        } for trial in trials],
    }


def golden_block(run: CampaignRun) -> str:
    """A ready-to-paste ``golden:`` section pinning the current run."""
    lines = ["golden:"]
    for entry in run.report["trials"]:
        lines.append(f"  {entry['label']}: "
                     f"{content_hash(entry['result'])}")
    return "\n".join(lines)


def gc_campaign(spec: CampaignSpec, store: CampaignStore,
                sha: Optional[str] = None) -> Tuple[int, int]:
    """Drop ledger rows the current spec + revision can no longer use."""
    if sha is None:
        sha = git_sha()
    live = [trial.key for trial in spec.expand(sha)]
    return store.gc(spec.name, live)
