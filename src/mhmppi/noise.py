"""The control step's noise: the substream contract that fixes every
batch, and the worker process that draws the next step's batch ahead.

Noise reproducibility contract
------------------------------
The noise of step t is an (n_u, n_inputs, K) batch, drawn one K-wide slab
at a time.  Slab (d, c), component c of flat row d, is the dedicated
counter-block stream ``Philox(key=stream_key(seed, t), counter=(d * n_u +
c) * 2**192)``, and its first K standard normals are ``z[c, d, :]``.  Row
d of the batch is ``chol @ z[:, d, :]``, left as z when the Cholesky
factor ``chol`` is the identity.  :func:`_fill_noise` is the one loop that
draws rows in this layout.  Three guarantees follow.  The primary rows
d < N draw the same slabs for every m, so the m=0 step gets bit-identical
primary noise (the gamma=0 equivalence of :mod:`mhmppi.controller`).  A
slab's first K draws do not depend on K, so sample q's noise is the same
in every batch wider than q.  And a batch depends only on (seed, t, chol,
shape), and the controller's weighted reduction over samples runs in a
fixed order, so whole runs are bit-reproducible.

Noise prefetch
--------------
Step t+1's batch depends only on its key (seed, t+1, Cholesky factor,
batch shape), not on the state, so a worker process draws it while the
controller evaluates step t.  Both processes run :func:`_fill_noise`, and
row d's values depend only on the key and d, so every batch is
bit-identical whichever process drew which of its rows, and the contract
above holds unchanged.  The noise is drawn inline, with no worker, when
the process may use fewer than two CPUs, when it is a multiprocessing
child (``cli --workers N`` already keeps N processes busy), outside Linux
or x86-64, and from the step on which the worker cannot start or is found
dead.

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
hint.  The worker watches the pipe only for its hang-up, and ends when
the write end is closed.  The caller's death closes it, however the
caller dies, so no worker outlives its caller; a process forked from the
caller holds a copy of the write end and delays the hang-up until it
exits.  :meth:`NoisePrefetch.close` does not wait for the hang-up: it
kills the worker and reaps it.
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
from collections.abc import Iterable
from multiprocessing.connection import Connection

import numpy as np

HEADER = 64  # bytes before the batch in the shared file: the two words
PROGRESS, CLAIM = 0, 1  # int64 word indices in the header
COUNT = (1 << 32) - 1  # low bits of a word: a flat row count


def stream_key(seed: int, step_index: int) -> np.ndarray:
    """128-bit noise stream key for one control step; ``seed`` >= 0."""
    return np.random.SeedSequence((int(seed), int(step_index))).generate_state(2, np.uint64)


def _is_identity(chol: np.ndarray) -> bool:
    return bool(np.array_equal(chol, np.eye(chol.shape[0])))


def _fill_noise(
    out: np.ndarray, seed: int, step_index: int, chol: np.ndarray, rows: Iterable[int]
) -> None:
    """Write flat rows ``rows`` of step ``step_index``'s (n_u, n_inputs, K)
    noise batch into the same rows of ``out``, each row's slabs whole.  One
    bit generator serves every slab; only its counter is reset between
    slabs."""
    bits = np.random.Philox(key=stream_key(seed, step_index))
    gen = np.random.Generator(bits)
    state = bits.state  # reused dict; only the counter varies
    n_u = out.shape[0]
    plain = _is_identity(chol)
    for d in rows:
        for c in range(n_u):
            state["state"]["counter"][3] = d * n_u + c  # block offset (d*n_u + c) * 2**192
            state["buffer_pos"] = 4
            bits.state = state
            gen.standard_normal(out=out[c, d])
        if not plain:
            # chol @ z as element-wise products summed over the columns of
            # chol in order: a matmul may fuse the multiply-adds, and how it
            # does may depend on K
            out[:, d] = (chol[:, :, None] * out[None, :, d]).sum(axis=1)


def worker_main(jobs_fd: int, bell_fd: int, mem_fd: int) -> None:
    """Worker loop.  Each count on the eventfd ``bell_fd`` announces one
    job ``(seq, shape, seed, step, chol)`` on the pipe ``jobs_fd``, whose
    batch is drawn into the shared memory file ``mem_fd`` until the
    caller's claim.  The loop ends when the pipe hangs up: when its write
    end is closed, which the caller's death does too."""
    jobs = Connection(jobs_fd, writable=False)
    wake = select.poll()
    wake.register(bell_fd, select.POLLIN)
    wake.register(jobs_fd, 0)  # no event but a hang-up: jobs ring the bell
    shared = None
    try:
        while True:
            if any(fd == jobs_fd for fd, _ in wake.poll()):
                return
            os.eventfd_read(bell_fd)
            msg = jobs.recv()
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
    start, or died, or may not run in this process at all), :meth:`fill`
    draws every row itself.
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
            "from mhmppi.noise import worker_main; "
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


# pid -> that process's NoisePrefetch; keyed by pid so that a forked child
# never talks to its parent's worker
_prefetchers: dict = {}


def process_prefetch() -> NoisePrefetch:
    """This process's prefetcher, made on first use.  It is ``failed`` from
    the start, so that it draws every batch inline, with fewer than two
    usable CPUs, in a multiprocessing child (a pool of runs already keeps
    the CPUs busy), and where there is no ``os.memfd_create`` or
    ``os.eventfd`` (outside Linux) or the machine is not x86-64 (see the
    module docstring)."""
    pid = os.getpid()
    if pid not in _prefetchers:
        prefetch = NoisePrefetch()
        if (
            hasattr(os, "memfd_create")
            and hasattr(os, "eventfd")
            and platform.machine() == "x86_64"
            and len(os.sched_getaffinity(0)) >= 2
            and multiprocessing.parent_process() is None
        ):
            atexit.register(prefetch.close)
        else:
            prefetch.failed = True
        _prefetchers[pid] = prefetch
    return _prefetchers[pid]
