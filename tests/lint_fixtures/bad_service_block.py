# repro-lint: roles=service
"""REP008 fixture: unbounded blocking calls inside service code.

Every wait in the serving layer carries a timeout; the calls below
park a thread forever when the producing side dies.
"""

import queue
import threading


def drain_one(results: "queue.Queue") -> object:
    return results.get()  # BAD: no timeout; dead worker wedges the thread


def await_done(done: threading.Event) -> None:
    done.wait()  # BAD: an unresolved future blocks forever


def reap(worker: threading.Thread) -> None:
    worker.join()  # BAD: a hung worker hangs the reaper too


def bounded_ok(results: "queue.Queue", done: threading.Event) -> None:
    results.get(timeout=0.25)  # ok: bounded
    done.wait(5.0)  # ok: positional timeout counts
    parts = ["a", "b"]
    "-".join(parts)  # ok: not a blocking wait
