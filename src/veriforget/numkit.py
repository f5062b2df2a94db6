"""Deterministic numerical primitives shared by the whole pipeline.

Block-structured flat vectors, block-diagonal symmetric matrices whose
blocks, each an exactly symmetric square, are a ``BlockStream`` (formed
from their inputs a block at a time, for a walk; no block is read from
or written to disk), fixed-point quantization, reproducible reductions
and digests, and the package's one pool of forked worker processes:
``fork_start``, whose workers run while the caller works on until it
collects them, ``fork_map``, which waits for them at once, and
``fork_blocks`` over a matrix's blocks.  Everything here but the
workers is pure and immutable after construction; file formats live in
``artifacts``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np


# The package's two failure types.  A command's exit code is a property
# of the type (``cli.ReportCommand``): a StructuralError exits 2 and a
# NumericError 3.  The one other type, ``zkp.UnsatisfiableWitnessError``,
# is a rejection and exits 1.


class StructuralError(ValueError):
    """A bad input: a shape or layout mismatch between structured
    operands, or an artifact that is unreadable or references an input
    whose digest does not match."""


class NumericError(ArithmeticError):
    """Well-formed inputs on which the arithmetic fails: diverged
    training, a curvature that is not positive definite, an infeasible
    compensation or a value out of its fixed-point range."""


def check_ints(what: str, values) -> None:
    """Raise StructuralError unless every value is a JSON integer: a float,
    string or bool read from an artifact header is not."""
    for v in values:
        if type(v) is not int:
            raise StructuralError(f"{what}: {v!r} is not an integer")


def check_number(what: str, value) -> None:
    """Raise StructuralError unless ``value`` is a JSON number: a string,
    bool, list or null read from an artifact header is not."""
    if type(value) not in (int, float):
        raise StructuralError(f"{what}: {value!r} is not a number")


# ---------------------------------------------------------------------------
# layouts and vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockLayout:
    """Contiguous partition of [0, d) into labelled blocks."""

    blocks: tuple[tuple[int, int, str], ...]  # (offset, size, label)
    total_dim: int

    def __post_init__(self):
        expected = 0
        seen = set()
        for offset, size, label in self.blocks:
            if offset != expected:
                raise StructuralError(
                    f"block {label!r} starts at {offset}, expected {expected}"
                )
            if size < 1:
                raise StructuralError(f"block {label!r} has size {size} < 1")
            if label in seen:
                raise StructuralError(f"duplicate block label {label!r}")
            seen.add(label)
            expected += size
        if expected != self.total_dim:
            raise StructuralError(
                f"blocks cover [0, {expected}) but total_dim is {self.total_dim}"
            )

    @classmethod
    def from_sizes(cls, sizes_and_labels) -> "BlockLayout":
        blocks = []
        offset = 0
        for size, label in sizes_and_labels:
            blocks.append((offset, int(size), label))
            offset += int(size)
        return cls(blocks=tuple(blocks), total_dim=offset)

    @property
    def labels(self) -> list[str]:
        return [label for _, _, label in self.blocks]

    def slices(self):
        for offset, size, label in self.blocks:
            yield slice(offset, offset + size), label

    def block_slice(self, label: str) -> slice:
        for offset, size, lab in self.blocks:
            if lab == label:
                return slice(offset, offset + size)
        raise KeyError(label)


def block_slices(sizes) -> list[slice]:
    """The coordinate slice of each block of ``sizes``, in layout order."""
    ends = np.cumsum(sizes).tolist()
    return [slice(end - size, end) for size, end in zip(sizes, ends)]


def touched(block_sizes, support) -> tuple[int, ...]:
    """Indices of the blocks, of sizes ``block_sizes`` in layout order, that
    hold a coordinate of the sorted mask ``support``, in layout order."""
    held = np.diff(np.searchsorted(support, np.cumsum(block_sizes)), prepend=0)
    return tuple(np.flatnonzero(held).tolist())


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ParamVector:
    """Flat f64 vector tied to a block layout."""

    values: np.ndarray
    layout: BlockLayout

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.ndim != 1 or self.values.size != self.layout.total_dim:
            raise StructuralError(
                f"vector length {self.values.size} != layout dim "
                f"{self.layout.total_dim}"
            )
        if not np.all(np.isfinite(self.values)):
            raise StructuralError("non-finite entries in ParamVector")

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values=values, layout=self.layout)


def scratch_squares(layout: BlockLayout):
    """``square(size)``: a size x size view of one scratch allocation large
    enough for any block of ``layout``, so that a loop over the blocks
    faults its pages in once.  Every call returns the same memory.  Made
    before ``fork_map`` forks, it is each worker's own, page by page, once
    the worker writes to it."""
    buf = np.empty(max((size for _, size, _ in layout.blocks), default=0) ** 2)
    return lambda size: buf[: size * size].reshape(size, size)


def check_block(block, size: int, label: str) -> np.ndarray:
    """``block`` frozen, once it is checked to be a finite, exactly
    symmetric size x size square."""
    block = _freeze(block)
    if block.shape != (size, size):
        raise StructuralError(f"block {label!r} of shape {block.shape} is "
                              f"not a {size} x {size} square")
    if not np.all(np.isfinite(block)):
        raise StructuralError(f"block {label!r} has non-finite entries")
    if not np.array_equal(block, block.T):
        raise StructuralError(f"block {label!r} is not symmetric")
    return block


# ---------------------------------------------------------------------------
# forked workers
# ---------------------------------------------------------------------------

# The least number of entries, summed over the indices of one
# ``fork_blocks`` call, for which it forks.  An index costs
# ``triangle_entries`` of the side of the system its block is solved
# through: s_b for a block formed, or solved in coordinate space, and n for
# one solved in sample space (``obs``).  Measured on 2 vCPU with one BLAS
# thread, group_obs_solve in one process against two forked workers that
# each run their own backward pass, on 32-h-h-8 models (cap 512, random
# weights and rows, the first coordinate of every block masked; medians
# of 11 calls): with n = 560, the parts of 512 in sample space, one
# process won at 2.05 M entries (41 against 64 ms), tied at 2.40 M (56 ms)
# and lost at 2.88 M (65 against 53 ms); with n = 720, all in coordinate
# space, one process won at 1.03 M (54 against 81 ms) and lost at 1.71 M
# (86 against 65 ms).  2^21 is the power of two between the crossings: the
# demo's 28,920 entries (one block, in sample space) stay in-process;
# staged-wide's 11.8 M (75 blocks in sample space) and the staged chain's
# 3.9 M at the default cap of 256 (119 blocks in coordinate space) fork.
# The float certificate forms no block (``certify``): it multiplies from
# the factors in one process, 15-30 ms on staged-wide.
FORK_MIN_ENTRIES = 2**21


def _work(fn, first: int, step: int, count: int, fd: int) -> None:
    """A worker: fn(i) for i in range(first, count, step), up to the first
    exception, sent whole through the pipe ``fd`` as [(i, raised, value)]."""
    out = []
    for i in range(first, count, step):
        try:
            out.append((i, False, fn(i)))
        except Exception as exc:
            out.append((i, True, exc))
            break
    with open(fd, "wb") as fh:
        pickle.dump(out, fh)


class fork_start:
    """[fn(i) for i in range(count)], started in forked worker processes
    as a ``with`` block is entered and collected by ``result()``.

    Entering the block forks W workers, one per CPU this process may run
    on and no more than ``count``, when it may run on more than one and
    ``fork`` is true; otherwise W is zero and ``result`` computes every
    index in-process.  Worker w takes indices w, w + W, w + 2W, ... in
    turn, so indices ordered by falling cost put the costliest first in
    every worker.  The caller runs on while they work.

    Workers are forked: they start at once, without re-importing the
    package, and inherit ``fn`` and everything it refers to; this object
    then drops fn, so what only fn held is freed in the caller.  Only the
    values fn returns cross between processes, each worker's in one pickle
    through a pipe, so fn need not pickle, and what it writes stays in its
    worker.  A fork copies only the calling thread, so no other thread of
    the caller may hold a lock the workers need; the package starts no
    thread.  Leaving the block kills and reaps every worker not yet
    collected, so the caller may raise while they run."""

    def __init__(self, fn, count: int, fork: bool = True):
        cpus = len(os.sched_getaffinity(0))
        self._fn, self._count = fn, count
        self._workers = min(cpus, count) if fork and cpus > 1 else 0
        self._procs, self._pipes = [], []

    def __enter__(self) -> "fork_start":
        context = multiprocessing.get_context("fork")
        try:
            for w in range(self._workers):
                read_fd, write_fd = os.pipe()
                self._pipes.append(open(read_fd, "rb"))
                proc = context.Process(target=_work, args=(
                    self._fn, w, self._workers, self._count, write_fd))
                try:
                    proc.start()
                finally:
                    os.close(write_fd)  # so the pipe ends when the worker exits
                self._procs.append(proc)
        except BaseException:
            self.__exit__()
            raise
        if self._procs:
            self._fn = None  # each worker holds its own; result() reads pipes
        return self

    def result(self) -> list:
        """[fn(i) for i in range(count)], once.  The first exception in
        index order reaches the caller with its type, as soon as every
        index below it has come back; a worker that dies raises
        ``BrokenProcessPool``.  Every worker has exited when this returns
        or raises."""
        if not self._procs:
            return [self._fn(i) for i in range(self._count)]
        results, raised = [None] * self._count, {}
        for w, (proc, pipe) in enumerate(zip(self._procs, self._pipes)):
            data = pipe.read()
            proc.join()
            if proc.exitcode != 0:
                raise BrokenProcessPool(
                    f"a worker process died with exit code {proc.exitcode}")
            for i, failed, value in pickle.loads(data):
                if failed:
                    raised[i] = value
                else:
                    results[i] = value
            # indices 0 to w are workers 0 to w's, all read by now
            if raised and min(raised) <= w + 1:
                raise raised[min(raised)]
        if raised:
            raise raised[min(raised)]
        return results

    def __exit__(self, *exc) -> None:
        for pipe in self._pipes:
            pipe.close()
        for proc in self._procs:
            if proc.is_alive():
                proc.kill()
            proc.join()


def fork_map(fn, count: int, fork: bool = True) -> list:
    """[fn(i) for i in range(count)], through ``fork_start`` and waited
    for: in-process when one worker would take every index."""
    with fork_start(fn, count, fork and count > 1) as pending:
        return pending.result()


def blas_one_thread() -> bool:
    """Whether BLAS runs on one thread, the condition for forking a worker
    that calls it.  A worker runs BLAS on as many threads as this process,
    since OpenBLAS reads OPENBLAS_NUM_THREADS (one per CPU when unset) as
    it loads.  Two workers of two spinning threads each on 2 vCPU made
    unlearn 14 times slower than one process."""
    return os.environ.get("OPENBLAS_NUM_THREADS") == "1"


def triangle_entries(size: int) -> int:
    """The entries of a size x size symmetric matrix's upper triangle: the
    one cost measure of a block's work in ``fork_blocks``, size being the
    side of the system it is solved through."""
    return size * (size + 1) // 2


def fork_blocks(ready, fn, indices, entries) -> list:
    """[fn(state, i) for i in ``indices``], through ``fork_map``: forked
    when ``entries``, each index's cost (``triangle_entries``), sum to
    ``FORK_MIN_ENTRIES`` or more and BLAS runs on one thread.  ``state``
    is ``ready()``, run by the first index each process is given, so
    forked workers each run it and this process does not."""
    indices = list(indices)
    fork = sum(entries) >= FORK_MIN_ENTRIES and blas_one_thread()
    state = []

    def task(j):
        if not state:
            state.append(ready())
        return fn(state[0], indices[j])

    return fork_map(task, len(indices), fork=fork)


class BlockStream:
    """The blocks of a block-diagonal matrix, formed from their inputs and
    reached by index one at a time.

    ``source()`` readies the blocks (it runs a backward pass) and returns
    ``block(i, out)``: block i, an exactly symmetric square written into
    ``out``, a C-order f64 square of its size, and returned.  A walk over
    the stream checks each block (``check_block``) before anything uses
    it, and forms one block at a time."""

    def __init__(self, source, layout: BlockLayout):
        self._source = source
        self.layout = layout

    def __len__(self) -> int:
        return len(self.layout.blocks)

    def __iter__(self):
        """Each block in memory of its own, in order: a walk."""
        block = self._source()
        for i, (_, size, label) in enumerate(self.layout.blocks):
            yield check_block(block(i, np.empty((size, size))), size, label)


@dataclass(frozen=True)
class BlockDiagMatrix:
    """Symmetric block-diagonal matrix, each block an exactly symmetric
    square in the ``BlockStream`` ``blocks``, whose layout is the
    matrix's."""

    blocks: BlockStream

    @property
    def layout(self) -> BlockLayout:
        return self.blocks.layout


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


def quantize(x: np.ndarray, frac_bits: int, bound: float) -> np.ndarray:
    """Round-half-to-even quantization of in-range values: the int64
    integers of ``x`` with ``frac_bits`` fractional bits."""
    if frac_bits > 40:
        raise ValueError("frac_bits must be <= 40")
    x = np.asarray(x, dtype=np.float64).ravel()
    over = ~(np.abs(x) <= bound)  # NaN is out of range too
    if over.any():
        idx = int(np.argmax(over))
        raise NumericError(f"|x[{idx}]| = {abs(x[idx])} exceeds bound {bound}")
    return np.rint(x * 2.0**frac_bits).astype(np.int64)


# ---------------------------------------------------------------------------
# deterministic reductions
# ---------------------------------------------------------------------------

_CHUNK = 1024


def _pairwise(a: np.ndarray) -> np.ndarray:
    # reduce along axis 0 in a fixed binary-tree order
    while a.shape[0] > 1:
        n = a.shape[0]
        even = a[0 : n - (n % 2) : 2] + a[1::2]
        if n % 2:
            a = np.concatenate([even, a[-1:]], axis=0)
        else:
            a = even
    return a[0]


def tree_sum(a: np.ndarray) -> np.float64:
    """Fixed-chunk pairwise sum of the 1-D ``a``; bit-identical across runs."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return np.float64(0.0)
    return _pairwise(np.stack(
        [_pairwise(a[i : i + _CHUNK]) for i in range(0, a.size, _CHUNK)]))


def tree_mean(a: np.ndarray) -> np.float64:
    return tree_sum(a) / len(a)


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
