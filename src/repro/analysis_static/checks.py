"""The ``REPRO_CHECKS`` gate.

Setting ``REPRO_CHECKS=1`` in the environment arms the runtime checkers:
process-fleet workers validate the plans they attach and declare the
scratch spans each slice writes, and the parent fails a sliced request
whose slices overlap (:mod:`.races`); the simulated engine attaches a
structured collective-ordering report (:mod:`.ordering`) to
collective-mismatch deadlocks.  CI runs with the flag set fail loudly
instead of silently producing irreproducible numbers.
"""

from __future__ import annotations

import os

#: Environment variable arming the runtime determinism checkers.
ENV_VAR = "REPRO_CHECKS"

_FALSY = frozenset({"", "0", "false", "off", "no"})


def checks_enabled() -> bool:
    """Whether the runtime determinism checkers are armed."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSY
