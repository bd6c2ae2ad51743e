"""Determinism & race analysis suite.

The repo's headline guarantee -- serial and real process runs produce
bit-identical energies -- rests on two conventions:

1. every substrate runs the one row-range pipeline
   (:func:`repro.serve.sliced.evaluate_ranges`), whose reductions replay
   the serial scatter and fold;
2. the workers of a sliced request write disjoint spans of its scratch
   segment.

The runtime tests assert the first bit for bit; this package keeps the
checks those tests cannot stand in for:

* :mod:`.linter` / :mod:`.rules` -- ``repro-lint``, an AST pass with
  repo-specific rules (REP001..REP009), driven by ``python -m repro.lint``;
* :mod:`.verify` -- ``repro-verify``, the whole-program pass
  (interprocedural effect inference, shm typestate, protocol model
  checking), driven by ``python -m repro.verify``;
* :mod:`.baseline` -- the shared fingerprint-baseline ratchet used by
  both CLIs' ``--baseline`` flags;
* :mod:`.races` -- the write-intent recorder and overlap finder the
  process fleet runs over its sliced scratch writes;
* :mod:`.checks` -- the ``REPRO_CHECKS=1`` gate.

See ``docs/ANALYSIS.md`` for the rule catalogue.
"""

from .baseline import BaselineError, load_baseline, write_baseline
from .checks import checks_enabled
from .linter import Finding, lint_file, lint_paths, lint_source
from .races import RaceFinding, WriteIntent, WriteIntentTracker, find_races
from .rules import RULES, Rule

__all__ = [
    "BaselineError",
    "Finding",
    "RULES",
    "RaceFinding",
    "Rule",
    "WriteIntent",
    "WriteIntentTracker",
    "checks_enabled",
    "find_races",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "write_baseline",
]
