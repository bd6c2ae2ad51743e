"""Determinism analysis suite.

The repo's headline guarantee -- serial and real process runs produce
bit-identical energies -- rests on every substrate running the one
row-range pipeline (:func:`repro.serve.sliced.evaluate_ranges`), whose
reductions replay the serial scatter and fold, and which refuses any
request whose executed ranges do not tile the plan's rows.

The runtime tests assert that bit for bit; this package keeps the
static checks those tests cannot stand in for:

* :mod:`.linter` / :mod:`.rules` -- ``repro-lint``, an AST pass with
  repo-specific rules (REP001..REP009), driven by ``python -m repro.lint``;
* :mod:`.verify` -- ``repro-verify``, the whole-program pass
  (interprocedural effect inference and shm typestate), driven by
  ``python -m repro.verify``;
* :mod:`.baseline` -- the shared fingerprint-baseline ratchet used by
  both CLIs' ``--baseline`` flags.

See ``docs/ANALYSIS.md`` for the rule catalogue.
"""

from .baseline import BaselineError, load_baseline, write_baseline
from .linter import Finding, lint_file, lint_paths, lint_source
from .rules import RULES, Rule

__all__ = [
    "BaselineError",
    "Finding",
    "RULES",
    "Rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "write_baseline",
]
