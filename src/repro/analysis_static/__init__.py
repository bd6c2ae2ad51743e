"""Determinism & race analysis suite.

The repo's headline guarantee -- serial, simulated and real process
runs produce bit-identical energies -- rests on three conventions:

1. every substrate runs the one row-range pipeline
   (:func:`repro.serve.sliced.evaluate_ranges`), whose reductions replay
   the serial scatter and fold;
2. the workers of a sliced request write disjoint spans of its scratch
   segment;
3. every simulated rank issues the identical collective sequence.

This package makes those conventions *executable*:

* :mod:`.linter` / :mod:`.rules` -- ``repro-lint``, an AST pass with
  repo-specific rules (REP001..REP009), driven by ``python -m repro.lint``;
* :mod:`.verify` -- ``repro-verify``, the whole-program pass
  (interprocedural effect inference, shm typestate, static
  collective-matching), driven by ``python -m repro.verify``;
* :mod:`.baseline` -- the shared fingerprint-baseline ratchet used by
  both CLIs' ``--baseline`` flags;
* :mod:`.races` -- the write-intent recorder and overlap finder the
  process fleet runs over its sliced scratch writes;
* :mod:`.ordering` -- a collective-ordering verifier that diffs each
  simulated rank's collective call sequence;
* :mod:`.checks` -- the ``REPRO_CHECKS=1`` gate.

See ``docs/ANALYSIS.md`` for the rule catalogue.
"""

from .baseline import BaselineError, load_baseline, write_baseline
from .checks import checks_enabled
from .linter import Finding, lint_file, lint_paths, lint_source
from .ordering import (CollectiveLog, CollectiveRecord, OrderingReport,
                       diff_collective_logs)
from .races import RaceFinding, WriteIntent, WriteIntentTracker, find_races
from .rules import RULES, Rule

__all__ = [
    "BaselineError",
    "CollectiveLog",
    "CollectiveRecord",
    "Finding",
    "OrderingReport",
    "RULES",
    "RaceFinding",
    "Rule",
    "WriteIntent",
    "WriteIntentTracker",
    "checks_enabled",
    "diff_collective_logs",
    "find_races",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "write_baseline",
]
