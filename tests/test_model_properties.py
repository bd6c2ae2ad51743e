"""Property tests: model-checker verdicts are a pure function of the
model -- re-exploring any weakening combination gives byte-identical
violation lists (no wall clock, no RNG -- REP003/REP007 apply to the
checker itself).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis_static.model.protocols import (build_pool_model,
                                                   build_scheduler_model,
                                                   build_shm_model)

_WEAKENINGS = {
    "scheduler": ("admit_guard", "slice_reject", "fleet_reject"),
    "pool": ("death_detect",),
    "shm": ("scratch_lifecycle",),
}
_BUILDERS = {
    "scheduler": build_scheduler_model,
    "pool": build_pool_model,
    "shm": build_shm_model,
}


class TestCheckerDeterminism:
    @given(data=st.data(),
           name=st.sampled_from(sorted(_WEAKENINGS)))
    @settings(max_examples=40, deadline=None)
    def test_every_weakening_combo_explores_identically(self, data, name):
        weak = frozenset(data.draw(st.sets(
            st.sampled_from(_WEAKENINGS[name]))))
        a = _BUILDERS[name](weak).explore()
        b = _BUILDERS[name](weak).explore()
        assert repr(a.violations) == repr(b.violations)
        assert (a.states_explored, a.truncated) == (b.states_explored,
                                                    b.truncated)
