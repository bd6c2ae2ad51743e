"""``python -m repro.verify`` -- run the repro-verify static pass.

Thin executable alias for :mod:`repro.analysis_static.verify.cli`; see
``docs/ANALYSIS.md`` for the check catalogue (effect inference and
shared-memory typestate).
"""

from .analysis_static.verify.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
