"""Drawing the next control step's noise batch in a worker process.

Step t+1's noise batch depends only on (seed, t+1, Cholesky factor,
shape), not on the state, so a worker process can draw it while this
process evaluates step t; see "Noise prefetch" in the
:mod:`mhmppi.controller` docstring.

The two processes share one batch by work stealing, in units of one flat
row d (the row's n_u K-wide slabs ``[:, d, :]``): the worker draws the
rows upward from 0, and the caller, once it needs the batch, draws them
downward from the last until it meets the worker.  The caller never
waits for the worker, so a step is never slower than drawing it inline,
however busy the worker's CPU is.  Two words at the start of the shared
file keep them apart: the worker's progress (rows 0..p-1 are written)
and the caller's claim (rows c.. are the caller's, so the worker stops
at c).  Each word carries the job's sequence number in its high 32 bits,
so a word left over from an older job reads as no progress, or as a
claim on everything.  A row both draw at the moment they meet has the
same values either way.  The progress word is stored after the rows it
counts, and read before them, which x86-64's store and load order keeps
in that order; other machines draw inline.

The worker is a fresh interpreter started with ``subprocess``: it imports
this package and nothing of the parent's ``__main__``, so a script without
a ``__main__`` guard is not run twice.  It writes into an anonymous shared
memory file (``os.memfd_create``), which has no name to leak and is freed
when both processes have closed it.  Jobs travel over a one-way pipe, each
announced by adding 1 to an eventfd counter: a worker sleeping on a pipe
is woken as if the writer were about to sleep and may be run on the
writer's CPU, which keeps computing; an eventfd wakeup carries no such
hint.
"""

from __future__ import annotations

import atexit
import math
import mmap
import multiprocessing
import os
import platform
import select
import subprocess
import sys
import threading
from multiprocessing.connection import Connection

import numpy as np

from .controller import _fill_noise

POLL_MS = 1000  # how often the idle worker checks that its parent is alive
HEADER = 64  # bytes before the batch in the shared file: the two words
PROGRESS, CLAIM = 0, 1  # int64 word indices in the header
COUNT = (1 << 32) - 1  # low bits of a word: a flat row count


def worker_main(jobs_fd: int, bell_fd: int, mem_fd: int) -> None:
    """Worker loop.  Each count on the eventfd ``bell_fd`` announces one
    message on the pipe ``jobs_fd``: a job ``(seq, shape, seed, step,
    chol)``, whose batch is drawn into the shared memory file ``mem_fd``
    until the caller's claim, or ``None``, which ends the loop.  The loop
    also ends once the parent has gone."""
    jobs = Connection(jobs_fd, writable=False)
    parent = os.getppid()
    bell = select.poll()
    bell.register(bell_fd, select.POLLIN)
    shared = None
    try:
        while True:
            if not bell.poll(POLL_MS):
                if os.getppid() != parent:
                    return
                continue
            os.eventfd_read(bell_fd)
            msg = jobs.recv()
            if msg is None:
                return
            size = HEADER + 8 * math.prod(msg[1])
            if shared is None or len(shared) < size:
                if shared is not None:
                    shared.close()
                shared = mmap.mmap(mem_fd, size)
            _run_job(shared, *msg)
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # the parent has gone, or the user interrupted both


def _run_job(shared: mmap.mmap, seq: int, shape: tuple, seed: int, step_index: int, chol):
    words = np.ndarray(2, np.int64, buffer=shared)
    batch = np.ndarray(shape, buffer=shared, offset=HEADER)
    _fill_noise(batch, seed, step_index, chol, _upward(words, seq, shape[1]))


def _upward(words: np.ndarray, seq: int, n_rows: int):
    """The worker's flat rows: 0, 1, ... below the caller's claim on job
    ``seq``, each counted in the progress word once written."""
    for d in range(n_rows):
        claim = int(words[CLAIM])
        if claim >> 32 != seq or d >= claim & COUNT:
            return
        yield d
        words[PROGRESS] = seq << 32 | (d + 1)


class NoisePrefetch:
    """One worker process that draws noise batches ahead, into shared
    memory, for :meth:`fill`.

    A batch is known by its key (shape, seed, step, Cholesky factor).  The
    worker starts on the first call.  Once it has failed (it could not
    start, or died), :meth:`fill` draws every row itself.
    """

    def __init__(self):
        self._owner = os.getpid()
        self.failed = False
        self._lock = threading.Lock()
        self._proc = None
        self._jobs = None  # write end of the job pipe
        self._bell = self._mem = None  # eventfd, shared file
        self._shared = self._words = None  # mapping of the file, its header
        self._seq = 0  # sequence number of the last job sent
        self._key = None  # key of the last job sent, until taken
        self._taken = 0  # rows the worker drew of the batch last filled

    @property
    def pid(self) -> int | None:
        """The worker's process id, once started."""
        return None if self._proc is None else self._proc.pid

    def fill(self, out: np.ndarray, seed: int, step_index: int, chol: np.ndarray) -> int:
        """Write step ``step_index``'s noise batch into ``out``, and have the
        worker start on the next step's.  If the worker's last job is not
        this batch, it is sent this batch first.  This process draws the
        batch's flat rows downward from the last until it meets the rows
        the worker has drawn, which are then copied.  Returns the number of
        rows copied."""
        with self._lock:
            if self._proc is not None and self._proc.poll() is not None:
                self._fail()  # the worker has died
            key = _key(out.shape, seed, step_index, chol)
            if self._key != key:
                self._request(out.shape, seed, step_index, chol)
            self._key = None
            if self.failed:
                _fill_noise(out, seed, step_index, chol, range(out.shape[1]))
                return 0
            _fill_noise(out, seed, step_index, chol, self._downward(out.shape[1]))
            taken = self._taken
            if taken:
                batch = np.ndarray(out.shape, buffer=self._shared, offset=HEADER)
                out[:, :taken] = batch[:, :taken]
                del batch  # the mapping may be replaced on the next request
            self._request(out.shape, seed, step_index + 1, chol)
        return taken

    def _downward(self, n_rows: int):
        """This process's flat rows: the last, then down while the worker's
        progress on the current job is below them, each claimed before it
        is drawn.  Leaves the worker's count in ``_taken``."""
        words, seq = self._words, self._seq
        top = n_rows
        # a progress word of an older job is below seq << 32
        while top > 0 and int(words[PROGRESS]) < seq << 32 | top:
            top -= 1
            words[CLAIM] = seq << 32 | top
            yield top
        self._taken = top

    def _request(self, shape: tuple, seed: int, step_index: int, chol: np.ndarray) -> None:
        """Send the worker the batch of this key as a new job, after a claim
        word that leaves it every row and stops any older job."""
        if self.failed:
            return
        size = HEADER + 8 * math.prod(shape)
        try:
            if self._proc is None:
                self._start(size)
            elif len(self._shared) < size:
                # growing the file leaves the worker's mapping valid
                os.ftruncate(self._mem, size)
                self._map(size)
            self._seq += 1
            self._words[CLAIM] = self._seq << 32 | shape[1]
            self._send((self._seq, tuple(shape), seed, step_index, chol))
        except (OSError, subprocess.SubprocessError):
            self._fail()
            return
        self._key = _key(shape, seed, step_index, chol)

    def close(self) -> None:
        """Stop the worker and free the shared memory."""
        if os.getpid() != self._owner:
            return
        with self._lock:
            if self._jobs is not None:
                try:
                    self._send(None)
                    self._proc.wait(timeout=5.0)
                except (OSError, subprocess.TimeoutExpired):
                    pass
            self._fail()
            self._key = None
            self._words = None
            if self._shared is not None:
                self._shared.close()
                self._shared = None
            for fd in (self._bell, self._mem):
                if fd is not None:
                    os.close(fd)
            self._bell = self._mem = None

    def _start(self, size: int) -> None:
        self._bell = os.eventfd(0, os.EFD_SEMAPHORE)
        self._mem = os.memfd_create("mhmppi-noise")
        os.ftruncate(self._mem, size)
        self._map(size)
        reader, self._jobs = multiprocessing.Pipe(duplex=False)
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from mhmppi.prefetch import worker_main; "
            "worker_main(*map(int, sys.argv[2:]))"
        )
        fds = (reader.fileno(), self._bell, self._mem)
        with reader:  # the worker's end; this process keeps no copy of it
            self._proc = subprocess.Popen(
                [sys.executable, "-c", code, src, *map(str, fds)],
                stdin=subprocess.DEVNULL,
                pass_fds=fds,
            )

    def _map(self, size: int) -> None:
        self._words = None
        if self._shared is not None:
            self._shared.close()
        self._shared = mmap.mmap(self._mem, size)
        self._words = np.ndarray(2, np.int64, buffer=self._shared)

    def _send(self, msg) -> None:
        self._jobs.send(msg)
        os.eventfd_write(self._bell, 1)

    def _fail(self) -> None:
        self.failed = True
        if self._proc is not None and self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
        if self._jobs is not None:
            self._jobs.close()
            self._jobs = None


def _key(shape: tuple, seed: int, step_index: int, chol: np.ndarray) -> tuple:
    return (tuple(shape), int(seed), int(step_index), chol.tobytes())


# pid -> that process's NoisePrefetch, or None where it draws inline; keyed
# by pid so that a forked child never talks to its parent's worker
_prefetchers: dict = {}


def process_prefetch() -> NoisePrefetch | None:
    """This process's prefetcher, made on first use.  None where the noise
    is drawn inline: with fewer than two usable CPUs, in a multiprocessing
    child (a pool of runs already keeps the CPUs busy), and where there is
    no ``os.memfd_create`` or ``os.eventfd`` (outside Linux) or the
    machine is not x86-64 (see the module docstring)."""
    pid = os.getpid()
    if pid not in _prefetchers:
        prefetch = None
        if (
            hasattr(os, "memfd_create")
            and hasattr(os, "eventfd")
            and platform.machine() == "x86_64"
            and len(os.sched_getaffinity(0)) >= 2
            and multiprocessing.parent_process() is None
        ):
            prefetch = NoisePrefetch()
            atexit.register(prefetch.close)
        _prefetchers[pid] = prefetch
    return _prefetchers[pid]
