"""Lifecycle edge cases for procpool shared-memory plumbing.

Covers ``_keep_mapped`` close-disarm (including under interpreter
shutdown with exported views alive), double-``unlink`` safety, finalizer
backstops, and plain ndarray views.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.parallel.procpool.shm import SharedArrayBundle, _keep_mapped

REPO = Path(__file__).resolve().parent.parent


class TestKeepMapped:
    def test_close_disarmed_with_exported_views(self):
        owner = SharedArrayBundle.create({"x": np.arange(6.0)})
        try:
            worker = SharedArrayBundle.attach(owner.name, owner.layout)
            view = worker.view("x")  # exported pointer into the mmap
            # close() disarms itself: this must not raise BufferError even
            # though `view` still points into the buffer.
            worker.close()
            assert view[3] == 3.0  # mapping still alive
        finally:
            owner.close()
            owner.unlink()

    def test_owner_close_still_real(self):
        owner = SharedArrayBundle.create({"x": np.zeros(4)})
        owner.unlink()
        owner.close()  # owner side keeps the real close()
        with pytest.raises((ValueError, TypeError)):
            owner.view("x")  # buffer gone

    def test_interpreter_shutdown_with_live_views(self):
        """A worker process that closes an attached segment while a view
        escaped (a fleet worker's eviction) and then exits with that view
        alive must die cleanly (no BufferError on __del__)."""
        owner = SharedArrayBundle.create({"x": np.arange(8.0)})
        try:
            script = textwrap.dedent(f"""
                from repro.parallel.procpool.shm import (SharedArrayBundle,
                                                         _ArraySpec)
                layout = {owner.layout!r}
                bundle = SharedArrayBundle.attach({owner.name!r}, layout)
                keep = bundle.view("x")  # lives until interpreter death
                bundle.close()
                assert keep[2] == 2.0
            """)
            env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert "BufferError" not in proc.stderr
        finally:
            owner.close()
            owner.unlink()

    def test_keep_mapped_is_idempotent(self):
        owner = SharedArrayBundle.create({"x": np.zeros(2)})
        try:
            worker = SharedArrayBundle.attach(owner.name, owner.layout)
            _keep_mapped(worker._shm)  # second disarm: harmless
            worker.close()
            worker.close()
        finally:
            owner.close()
            owner.unlink()


class TestDoubleUnlink:
    def test_bundle_double_unlink_safe(self):
        bundle = SharedArrayBundle.create({"x": np.zeros(4)})
        bundle.unlink()
        bundle.unlink()  # second unlink: no FileNotFoundError
        bundle.close()

    def test_nonowner_unlink_is_noop(self):
        owner = SharedArrayBundle.create({"x": np.zeros(4)})
        try:
            worker = SharedArrayBundle.attach(owner.name, owner.layout)
            worker.unlink()  # non-owner: must not tear down the segment
            check = SharedArrayBundle.attach(owner.name, owner.layout)
            assert check.view("x").shape == (4,)
            check.close()
            worker.close()
        finally:
            owner.close()
            owner.unlink()


class TestUnpinnedAttach:
    """Serving workers' attaches are unpinned, so evicted molecules can
    actually unmap; close() stays safe even if a view escapes."""

    def test_unpinned_close_after_dropping_views(self):
        owner = SharedArrayBundle.create({"x": np.arange(4.0)})
        try:
            worker = SharedArrayBundle.attach(owner.name, owner.layout)
            v = worker.view("x")
            assert v[1] == 1.0
            del v
            worker.close()  # real close: views gone, must not raise
            with pytest.raises((ValueError, TypeError)):
                worker.view("x")
        finally:
            owner.close()
            owner.unlink()

    def test_unpinned_close_with_escaped_view_disarms(self):
        owner = SharedArrayBundle.create({"x": np.arange(4.0)})
        try:
            worker = SharedArrayBundle.attach(owner.name, owner.layout)
            escaped = worker.view("x")
            worker.close()  # BufferError swallowed, __del__ disarmed
            assert escaped[2] == 2.0  # mapping intentionally still alive
        finally:
            owner.close()
            owner.unlink()


class TestFinalizerBackstops:
    """Owned segments are reaped at GC (serving-fleet hygiene): dropping
    an owner without unlink() must not leave /dev/shm litter."""

    def test_gc_unlinks_abandoned_owner(self):
        import gc
        from pathlib import Path

        bundle = SharedArrayBundle.create({"x": np.zeros(16)})
        name = bundle.name
        assert (Path("/dev/shm") / name).exists()
        del bundle
        gc.collect()
        assert not (Path("/dev/shm") / name).exists()

    def test_explicit_unlink_detaches_finalizer(self):
        bundle = SharedArrayBundle.create({"x": np.zeros(4)})
        bundle.unlink()
        assert not bundle._finalizer.alive
        bundle.close()

    def test_attach_does_not_register_with_resource_tracker(self):
        """A subprocess that only *attaches* must exit without its
        resource tracker warning about (or unlinking) the segment."""
        owner = SharedArrayBundle.create({"x": np.arange(8.0)})
        try:
            script = textwrap.dedent(f"""
                from repro.parallel.procpool.shm import (SharedArrayBundle,
                                                         _ArraySpec)
                layout = {owner.layout!r}
                bundle = SharedArrayBundle.attach({owner.name!r}, layout)
                assert bundle.view("x")[3] == 3.0
                bundle.close()
            """)
            env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert "resource_tracker" not in proc.stderr
            # The attacher's exit must not have torn the segment down.
            check = SharedArrayBundle.attach(owner.name, owner.layout)
            assert check.view("x")[5] == 5.0
            check.close()
        finally:
            owner.close()
            owner.unlink()


class TestZeroOverheadDisabled:
    """Regression: the shm bundle hands out base ndarrays."""

    def test_plain_views_without_tracker(self):
        bundle = SharedArrayBundle.create({"field": np.zeros(32)})
        try:
            view = bundle.view("field")
            assert type(view) is np.ndarray
            del view  # drop the exported pointer before close()
        finally:
            bundle.close()
            bundle.unlink()

    def test_bundle_no_shadow_state(self):
        bundle = SharedArrayBundle.create({"x": np.zeros(8)})
        try:
            v1 = bundle.view("x")
            assert type(v1) is np.ndarray
            v1[2:4] = 1.0  # plain ndarray write path, nothing recorded
            del v1  # drop the exported pointer before close()
        finally:
            bundle.close()
            bundle.unlink()
