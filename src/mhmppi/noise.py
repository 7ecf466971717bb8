"""The control step's noise: the substream contract that fixes every
batch, and the worker process that draws the next step's batch ahead.

Noise reproducibility contract
------------------------------
The noise of step t is an (n_u, n_inputs, K) batch of standard normals z,
made by the Box-Muller transform from raw counter-based Philox words.
Flat row d is the dedicated counter-block stream ``Philox(key=
stream_key(seed, t), counter=d * 2**192)``, whose raw 64-bit words are
w_0, w_1, ....  With P = ceil(n_u / 2), sample q reads the words
w_{qP} ... w_{qP+P-1}, and word k gives components 2k and 2k+1 of
``z[:, d, q]``; the 2k+1 output is dropped when 2k+1 = n_u.  Of a word
w, with a = w & 0xFFFFFFFF and b = w >> 32 and f(h) the float32 whose
bits are (h >> 9) | 0x3F800000 (in [1, 2)), u = 2 - f(a) lies in (0, 1]
and v = f(b) - 1 in [0, 1).  r = sqrt(-2 log u) and theta = 2 pi v are
computed with numpy's float32 ufuncs, and the two components are
r cos(theta) and r sin(theta).  The covariance is diagonal, and
``scale`` is the vector s of the square roots of its diagonal entries,
the components' standard deviations: component c of row d is
``s_c * z[c, d, :]``, formed in float64 and rounded once to the batch's
dtype, and left as z where every s_c is 1.  The batch's dtype is that of
the array it is drawn into: float32 for the control step's plan batch,
which thus holds the float32 normals as computed (for unit scales), and
float64 for a batch of the caller's own, which holds them widened.  A
scaled value beyond float32's range rounds to inf in a float32 batch,
with no warning in the worker; the control step scopes that overflow in
its own process.  :func:`_fill_noise` is the one loop that draws rows in
this layout.

Three guarantees follow.  The primary rows d < N draw the same words for
every m, so the m=0 step gets bit-identical primary noise (the gamma=0
equivalence of :mod:`mhmppi.controller`); they are the only rows that do,
as the tails are stored time by time (:mod:`mhmppi.multi_horizon`), so a
tail input's row, and its noise, depend on m.  Sample q reads the same
words in every batch wider than q, so its noise does not depend on K.
And a batch depends only on (seed, t, scale, shape, dtype), and the
controller's weighted mean of the perturbed plans sums over the samples
in a fixed order, so whole runs are bit-reproducible on one machine.
numpy's float32 ``log``, ``cos`` and ``sin`` give the same bits for an
element wherever it lies in an array, and the same bits under its AVX2
and AVX-512 code paths, so a batch is bit-identical across such machines; under numpy's pre-AVX2
baseline (an older CPU, or ``NPY_DISABLE_CPU_FEATURES``) the same
contract gives other bits.

Noise prefetch
--------------
Step t+1's batch depends only on its key (seed, t+1, scale, batch
shape and dtype), not on the state, so a worker process draws it
while the controller evaluates step t.  Both processes run
:func:`_fill_noise`, and row d's values depend only on the key and d, so
every batch is bit-identical whichever process drew which of its rows,
and the contract above holds unchanged.  The noise is drawn inline, with no worker, when
the process may use fewer than two CPUs, when it is a multiprocessing
child (``cli --workers N`` already keeps N processes busy), outside Linux
or x86-64, and from the step on which the worker cannot start or is found
dead.

The worker draws its job's batch upward from row 0, in chunks of at most
CHUNK consecutive flat rows, each drawn in one set of whole-chunk passes.
When the caller needs the batch, it takes the batch over: it copies the
rows the worker has finished, sends the worker the next step's job, and
draws the remaining rows itself.  The caller never waits for the
worker, so however busy the worker's CPU is, a step costs at most the
inline draw and a copy of rows already drawn.  Two words at the start of
the shared file carry the hand-over.  The job word is the sequence number
of the caller's pending job, moved on just before each new job is sent.
The progress word holds a sequence number in its high 32 bits and a row
count p in its low 32 bits: rows 0..p-1 of that job's batch are written.
It counts no rows when it names another job than the pending one, so
rows of an older batch are never copied.  The worker reads the job word
before each chunk and ends its job when the word names another, so a
stale job stops within one chunk of its hand-over; it finishes that chunk
before it takes the next job, whose rows overwrite it.  The caller copies
before it sends the next job, so the rows it copies stay put.  The
worker stores the progress word after the rows it counts, and the caller
reads it before them.  x86-64 keeps stores in program order and loads in
program order, so every row below a progress word the caller has read is
complete; other machines draw inline.

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
import itertools
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

from .buffers import buffer

HEADER = 64  # bytes before the batch in the shared file: the two words
PROGRESS, JOB = 0, 1  # int64 word indices in the header
COUNT = (1 << 32) - 1  # low bits of the progress word: a flat row count
CHUNK = 16  # flat rows drawn per pass, and between two reads of the job word
LOW = 0 if sys.byteorder == "little" else 1  # a word's low half among its two float32s
TWO_PI = np.float32(2 * np.pi)


def stream_key(seed: int, step_index: int) -> np.ndarray:
    """128-bit noise stream key for one control step; ``seed`` >= 0."""
    return np.random.SeedSequence((int(seed), int(step_index))).generate_state(2, np.uint64)


def _chunks(n_rows: int, start: int = 0):
    """Flat rows start..n_rows-1, upward, as ranges of at most CHUNK rows."""
    return (range(lo, min(lo + CHUNK, n_rows)) for lo in range(start, n_rows, CHUNK))


def _fill_noise(
    out: np.ndarray, seed: int, step_index: int, scale: np.ndarray, chunks: Iterable[range]
) -> None:
    """Write the flat rows of ``chunks``, each a range of consecutive rows,
    of step ``step_index``'s (n_u, n_inputs, K) noise batch into the same
    rows of ``out``.  One bit generator serves every row; only its counter
    is reset between rows, and none is built when there is no chunk.  A
    chunk's normals are made in whole-chunk passes over
    :mod:`mhmppi.buffers` scratch the size of the chunk."""
    chunks = iter(chunks)
    first = next(chunks, None)
    if first is None:
        return
    key = stream_key(seed, step_index)
    bits = np.random.Philox(key=key)
    # the generator's state in plain ints, which its setter reads fastest;
    # only the counter's top word varies
    counter = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key.tolist()},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    n_u, _, n_samples = out.shape
    n_words = (n_u + 1) // 2  # per sample
    plain = bool((scale == 1.0).all())
    for rows in itertools.chain([first], chunks):
        n = len(rows)
        raw = buffer("noise.raw", (n, n_samples * n_words), np.uint64)
        for i, d in enumerate(rows):
            counter[3] = d  # block offset d * 2**192
            bits.state = state
            raw[i] = bits.random_raw(raw.shape[1])
        # each 32-bit half h of a word becomes the float32 with bits
        # (h >> 9) | 0x3F800000, in [1, 2)
        np.right_shift(raw, 9, out=raw)
        np.bitwise_and(raw, 0x007FFFFF007FFFFF, out=raw)
        np.bitwise_or(raw, 0x3F8000003F800000, out=raw)
        halves = raw.view(np.float32).reshape(n, n_samples, n_words, 2)
        z = out[:, rows.start : rows.stop]
        radius = buffer("noise.radius", (n, n_samples), np.float32)
        angle = buffer("noise.angle", (n, n_samples), np.float32)
        cos = buffer("noise.cos", (n, n_samples), np.float32)
        for k in range(n_words):
            # u in (0, 1] and v in [0, 1), each copied out of the interleaved
            # words first: a copy and a contiguous pass take less time than
            # one pass over the strided halves
            np.copyto(radius, halves[:, :, k, LOW])
            np.subtract(2, radius, out=radius)
            np.log(radius, out=radius)
            np.multiply(radius, -2, out=radius)
            np.sqrt(radius, out=radius)
            np.copyto(angle, halves[:, :, k, 1 - LOW])
            np.subtract(angle, 1, out=angle)
            np.multiply(angle, TWO_PI, out=angle)
            np.cos(angle, out=cos)
            np.multiply(radius, cos, out=cos)
            z[2 * k] = cos
            if 2 * k + 1 < n_u:
                np.sin(angle, out=angle)
                np.multiply(radius, angle, out=angle)
                z[2 * k + 1] = angle
        if not plain:
            for c in range(n_u):
                # s_c z in float64, rounded once to out's dtype
                np.multiply(z[c], scale[c], out=z[c], dtype=np.float64)


def worker_main(jobs_fd: int, bell_fd: int, mem_fd: int) -> None:
    """Worker loop.  Each count on the eventfd ``bell_fd`` announces one
    job ``(seq, shape, dtype, seed, step, scale)`` on the pipe ``jobs_fd``,
    whose batch is drawn into the shared memory file ``mem_fd`` chunk by
    chunk, upward until the job word names another job.  The loop ends when the
    pipe hangs up: when its write end is closed, which the caller's death
    does too."""
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
            size = HEADER + np.dtype(msg[2]).itemsize * math.prod(msg[1])
            if shared is None or len(shared) < size:
                if shared is not None:
                    shared.close()
                shared = mmap.mmap(mem_fd, size)
            _run_job(shared, *msg)
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # the parent has gone, or the user interrupted both


def _run_job(
    shared: mmap.mmap, seq: int, shape: tuple, dtype: str, seed: int, step_index: int, scale
):
    words = np.ndarray(2, np.int64, buffer=shared)
    batch = np.ndarray(shape, dtype, buffer=shared, offset=HEADER)
    # a scaled value beyond float32's range rounds to inf, as in the caller,
    # where the control step scopes the same overflow
    with np.errstate(over="ignore"):
        _fill_noise(batch, seed, step_index, scale, _upward(words, seq, shape[1]))


def _upward(words: np.ndarray, seq: int, n_rows: int):
    """The worker's chunks of job ``seq``'s flat rows, upward from row 0,
    each counted in the progress word once written.  They end before the
    first chunk at which the job word names another job."""
    for rows in _chunks(n_rows):
        if words[JOB] != seq:
            return
        yield rows
        words[PROGRESS] = seq << 32 | rows.stop


class NoisePrefetch:
    """One worker process that draws noise batches ahead, into shared
    memory, for :meth:`fill`.

    A batch is known by its key (shape, dtype, seed, step, scale).  The
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
        self._key = None  # key of the last job sent

    @property
    def pid(self) -> int | None:
        """The worker's process id, once started."""
        return None if self._proc is None else self._proc.pid

    def fill(self, out: np.ndarray, seed: int, step_index: int, scale: np.ndarray) -> int:
        """Write step ``step_index``'s noise batch into ``out``, and have the
        worker start on the next step's.  The flat rows the worker has
        finished of this batch are copied, none when its last job was
        another batch; the worker is then sent the next step's job, and
        this process draws the remaining rows.  Returns the number of rows
        copied."""
        with self._lock:
            if self._proc is not None and self._proc.poll() is not None:
                self._fail()  # the worker has died
            done = 0
            if not self.failed and self._key == _key(out, seed, step_index, scale):
                progress = int(self._words[PROGRESS])
                if progress >> 32 == self._seq:  # else it counts an older job's rows
                    done = progress & COUNT
                batch = np.ndarray(out.shape, out.dtype, buffer=self._shared, offset=HEADER)
                out[:, :done] = batch[:, :done]
                del batch  # the mapping may be replaced on the next request
            self._request(out, seed, step_index + 1, scale)
            _fill_noise(out, seed, step_index, scale, _chunks(out.shape[1], done))
        return done

    def _request(self, out: np.ndarray, seed: int, step_index: int, scale: np.ndarray) -> None:
        """Send the worker the batch of this key, in ``out``'s shape and
        dtype, as a new job, after moving the job word on to it, which
        stops any older job."""
        if self.failed:
            return
        size = HEADER + out.nbytes
        try:
            if self._proc is None:
                self._start(size)
            elif len(self._shared) < size:
                # growing the file leaves the worker's mapping valid
                os.ftruncate(self._mem, size)
                self._map(size)
            self._seq += 1
            self._words[JOB] = self._seq
            self._send((self._seq, out.shape, out.dtype.str, seed, step_index, scale))
        except (OSError, subprocess.SubprocessError):
            self._fail()
            return
        self._key = _key(out, seed, step_index, scale)

    def close(self) -> None:
        """Stop the worker and free the shared memory."""
        if os.getpid() != self._owner:
            return
        with self._lock:
            self._fail()
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


def _key(out: np.ndarray, seed: int, step_index: int, scale: np.ndarray) -> tuple:
    return (out.shape, out.dtype, int(seed), int(step_index), scale.tobytes())


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
