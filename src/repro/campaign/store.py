"""The persistent, append-only campaign result store.

One campaign owns one JSONL ledger file (``<name>.ledger.jsonl``) in
the store directory.  Every completed trial appends exactly one row::

    {"schema": "firefly-campaign-ledger/1", "campaign": "quick",
     "key": "sha256:...", "label": "sweep/np1/firefly/microvax/s1987",
     "kind": "sweep", "seed": 1987, "params": {...},
     "git_sha": "...", "spec_hash": "sha256:...", "result": {...}}

The ``key`` is the content hash of ``(kind, params, seed, git_sha)``
computed by :meth:`repro.campaign.spec.CampaignSpec.expand` — the
identity the resumable runner matches on.  Append-only means a
re-run never rewrites history: duplicate keys are legal in the file
and the *last* row wins on load (results are deterministic, so which
row wins cannot change a merged report).

Robustness contract: a campaign killed mid-append leaves a torn final
line; :meth:`CampaignStore.load` skips unparsable lines (counting
them) instead of refusing the whole ledger, so the interrupted trial
simply re-runs.  Rows written before the provenance stamp existed may
lack ``schema``/``git_sha``/``spec_hash``; loaders tolerate their
absence.

``gc`` compacts a ledger in place: duplicates collapse to the winning
row and rows whose keys the current spec expansion no longer produces
(stale parameters, superseded git revisions) are dropped.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.provenance import canonical_json

LEDGER_SCHEMA = "firefly-campaign-ledger/1"

LEDGER_SUFFIX = ".ledger.jsonl"


@dataclass
class LedgerLoad:
    """What :meth:`CampaignStore.load` found in one ledger file."""

    rows: Dict[str, Dict]   # key -> winning row, in first-seen order
    total_rows: int         # parsable rows, duplicates included
    corrupt_lines: int      # torn, unparsable or mistyped lines skipped


class CampaignStore:
    """Ledger files for every campaign under one directory."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)

    def ledger_path(self, campaign: str) -> Path:
        return self.directory / f"{campaign}{LEDGER_SUFFIX}"

    def campaigns(self) -> List[str]:
        """Campaign names with a ledger in the store, sorted."""
        if not self.directory.is_dir():
            return []
        return sorted(path.name[:-len(LEDGER_SUFFIX)]
                      for path in self.directory.iterdir()
                      if path.name.endswith(LEDGER_SUFFIX))

    # -- reading ------------------------------------------------------

    def load(self, campaign: str) -> LedgerLoad:
        """All completed trials of a campaign, last row winning per key."""
        path = self.ledger_path(campaign)
        rows: Dict[str, Dict] = {}
        total = corrupt = 0
        if not path.is_file():
            return LedgerLoad(rows=rows, total_rows=0, corrupt_lines=0)
        with path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    corrupt += 1
                    continue
                if not isinstance(row, dict) \
                        or not all(isinstance(row.get(name), str)
                                   for name in ("key", "kind", "label")) \
                        or not isinstance(row.get("result"), dict):
                    corrupt += 1
                    continue
                total += 1
                rows[row["key"]] = row
        return LedgerLoad(rows=rows, total_rows=total,
                          corrupt_lines=corrupt)

    # -- writing ------------------------------------------------------

    def append(self, campaign: str, row: Dict) -> None:
        """Durably append one completed-trial row.

        The row is written as one canonical-JSON line and flushed to
        the OS before returning, so a kill immediately after a trial
        completes can tear at most the row being written, never a row
        the caller was already told about.

        If a previous kill tore the final line mid-write the file ends
        without a newline; appending straight after the fragment would
        weld the new row onto it and lose both, so the torn tail is
        healed with a newline first (the fragment then reads as one
        corrupt line, which ``load`` already skips).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.ledger_path(campaign)
        with path.open("a+b") as raw:
            raw.seek(0, os.SEEK_END)
            if raw.tell() > 0:
                raw.seek(-1, os.SEEK_END)
                if raw.read(1) != b"\n":
                    raw.write(b"\n")
        with path.open("a") as handle:
            handle.write(canonical_json(row) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def make_row(self, campaign: str, trial, git_sha: Optional[str],
                 spec_hash: str, result) -> Dict:
        """The ledger row for one completed trial."""
        return {
            "schema": LEDGER_SCHEMA,
            "campaign": campaign,
            "key": trial.key,
            "label": trial.label,
            "kind": trial.kind,
            "seed": trial.seed,
            "params": dict(trial.params),
            "git_sha": git_sha,
            "spec_hash": spec_hash,
            "result": result,
        }

    # -- garbage collection -------------------------------------------

    def gc(self, campaign: str, live_keys: Iterable[str]
           ) -> Tuple[int, int]:
        """Compact a ledger to the winning row of each live key.

        Returns ``(kept, dropped)`` row counts; ``dropped`` includes
        duplicates, rows for keys outside ``live_keys`` and torn
        lines.  The rewrite goes through a temp file and an atomic
        rename so an interrupted gc never loses the ledger.
        """
        path = self.ledger_path(campaign)
        if not path.is_file():
            raise ConfigurationError(
                f"no ledger for campaign {campaign!r} in "
                f"{self.directory}")
        live: Set[str] = set(live_keys)
        load = self.load(campaign)
        kept = [row for key, row in load.rows.items() if key in live]
        dropped = load.total_rows + load.corrupt_lines - len(kept)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("w") as handle:
            for row in kept:
                handle.write(canonical_json(row) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return len(kept), dropped
