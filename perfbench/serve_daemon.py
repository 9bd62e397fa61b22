"""Start ``repro-place serve`` with the ``forkserver`` start method.

Usage: ``python3 perfbench/serve_daemon.py <repro-place serve flags>``.

The daemon creates its per-job process pools with the platform default
start method, which on Linux forks the multithreaded daemon.  A child
forked while another daemon thread holds a lock can deadlock; in pool
mode the watchdog then SIGTERMs it, and the forked child's inherited
asyncio signal wake-up descriptor delivers that signal to the daemon,
which drains.  Both were observed under this benchmark's load.  Forking
pool workers from a single-threaded, preloaded fork server keeps pool
mode's behaviour (separate processes, shared-memory arenas, a pool per
job) without either hazard, and without changing the program.
"""

from __future__ import annotations

import multiprocessing
import sys

if __name__ == "__main__":
    multiprocessing.set_start_method("forkserver")
    multiprocessing.set_forkserver_preload(["repro.runtime.executor"])
    from repro.cli import main

    sys.exit(main(["serve", *sys.argv[1:]]))
