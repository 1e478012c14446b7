"""The native kernels (profile closure + formula-program interpreter) of
_kernel.c, behind NativeKernel, the native twin of _kernel_py.Kernel: one
object per structure that takes the model encoding (n_worlds,
prop_world_masks, prop_true, succ, aware) once, closes its profiles, to the
fixpoint or through a BFS layer, resuming where it stopped, and runs
programs over them, all the roots of a program in one call, with the first
falsifying profile of each closed quantifier when asked (see _kernel_py).
The checker keeps one kernel per structure and domain, closed once a
program with quantifier slots is to run or a caller reads the profiles
themselves; run() refuses such a program before any closure, since the
domain would be empty.

On first import _kernel.c is compiled with `cc -O2 -shared -fPIC` into the
package's __pycache__/, under a name keyed by a hash of the source, and
loaded with ctypes; later imports load the cached library, and a new build
removes the libraries of earlier sources.  If any of that fails (no
compiler, a read-only directory, a compile or load error) the pure kernels
take over.  BACKEND is "c" or "python"; BACKEND_REASON names the library
loaded, or says why none was.  The native kernels hold worlds and
propositions in masks of MASK_BITS bits.
"""

import ctypes
import os
import zlib
from array import array
from functools import cached_property

from . import _kernel_py

MASK_BITS = 64
_PTR, _INT, _MASKS = ctypes.c_void_p, ctypes.c_int64, \
    ctypes.POINTER(ctypes.c_uint64)


class _Records(ctypes.Structure):  # the closure's output, as in _kernel.c
    _fields_ = [("count", _INT), ("cap", _INT)] + [
        (name, _MASKS if name in ("vocab", "truth") else ctypes.POINTER(_INT))
        for name in ("vocab", "truth", "op", "a1", "a2", "aux", "layer")] + \
        [("table", _PTR), ("mask", _INT)] + [
            (name, _INT) for name in ("failed", "frontier", "layer_closed",
                                      "done")]

    def __del__(self):
        _lib.ak_free(self)


class _Copied:
    """Columns of a closure kept in C: len() reads the count, any other
    read copies them into a list, of tuples for several columns, once."""

    def __init__(self, out, *names):
        self.out, self.names = out, names

    def __len__(self):
        return self.out.count

    @cached_property
    def rows(self):
        cols = [getattr(self.out, name)[:len(self)] for name in self.names]
        return list(zip(*cols)) if len(cols) > 1 else cols[0]

    def __getitem__(self, i):
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)


class _Model(ctypes.Structure):  # a model's buffers, as in _kernel.c
    _fields_ = [(name, _INT) for name in ("n_worlds", "n_props", "n_agents",
                                          "n_profiles")] + [
        (name, _PTR) for name in ("pwm", "ptrue", "succ", "aware")] + [
        ("prof_v", _MASKS), ("prof_f", _MASKS)]


def _load():
    """(library, path), compiling _kernel.c when no cached build exists."""
    here = os.path.dirname(os.path.abspath(__file__))
    src, cache = (os.path.join(here, name) for name in ("_kernel.c",
                                                        "__pycache__"))
    with open(src, "rb") as fh:
        path = os.path.join(cache, f"_kernel.{zlib.crc32(fh.read()):08x}.so")
    if not os.path.exists(path):
        import contextlib
        import glob
        import subprocess
        os.makedirs(cache, exist_ok=True)
        tmp = f"{path}.{os.getpid()}"
        try:
            done = subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", tmp,
                                   src], capture_output=True, text=True)
        except FileNotFoundError:
            raise OSError("no C compiler: cc is not on PATH") from None
        if done.returncode:
            raise OSError(f"cc failed: {done.stderr.strip()[-500:]}")
        os.replace(tmp, path)
        stale = set(glob.glob(os.path.join(cache, "_kernel.*.so"))) - {path}
        for old in stale:  # builds of earlier sources
            with contextlib.suppress(OSError):
                os.remove(old)
    lib = ctypes.CDLL(path)
    records, model = ctypes.POINTER(_Records), ctypes.POINTER(_Model)
    lib.ak_close.argtypes = [model, _INT, _INT, _INT, records]
    lib.ak_free.argtypes, lib.ak_free.restype = [records], None
    lib.ak_close.restype = lib.ak_run.restype = ctypes.c_int
    lib.ak_run.argtypes = [model] + [_PTR] * 4 + [_INT] * 2 + [_PTR, _INT,
                                                               _PTR, _PTR]
    return lib, path


def _addr(buf):
    return buf.buffer_info()[0]


class NativeKernel(_kernel_py.Kernel):
    """_kernel_py.Kernel with close() and run() in C: same constructor, same
    results, for programs whose columns and roots are array('i') buffers
    (see checker._compile_program).  The model is marshalled into one _Model
    at construction; close() points its profile columns at the closure's
    output, which run() then reads in place, for all of a program's roots in
    one call.  The output stays in C: close() keeps views of the records
    and the layers, as the pure kernel keeps its lists, which copy them out
    once per close(), when first read, since a resumed closure may move its
    columns; layer reads the last BFS layer closed.  The output is freed
    once, when the kernel starts another closure or is collected.  A run
    keeps no state in the kernel."""

    def __init__(self, n_worlds, prop_world_masks, prop_true, succ, aware):
        super().__init__(n_worlds, prop_world_masks, prop_true, succ, aware)
        self._bufs = (array("Q", prop_world_masks), array("Q", prop_true),
                      *(array("Q", [mask for row in rows for mask in row])
                        for rows in (succ, aware)))
        self._model = _Model(n_worlds, len(prop_true), len(succ), 0,
                             *map(_addr, self._bufs))
        self._out = None  # the closure's, kept in C

    def close(self, ops, max_profiles, depth=-1):
        if self._closing != ops:
            self._closing, self._out = ops, _Records()
        out = self._out
        rc = _lib.ak_close(self._model, ops, max_profiles, depth, out)
        model = self._model  # the columns may have moved
        model.n_profiles = out.count
        model.prof_v, model.prof_f = out.vocab, out.truth
        self.layer, self.done = out.layer_closed, bool(out.done)
        self.records, self.layers = _Copied(
            out, "vocab", "truth", "op", "a1", "a2", "aux"), _Copied(
                out, "layer")
        if rc:
            raise MemoryError("profile closure") if rc < 0 else RuntimeError(
                f"profile closure exceeded {max_profiles} profiles")
        return self.records, self.layers

    def run(self, program, roots, falsifiers=None):
        op, a1, a2, aux, _, _, nslots = program
        if nslots and self._out is None:
            raise RuntimeError("quantified program on an unclosed kernel")
        if falsifiers is not None and (falsifiers.typecode != "q" or len(
                falsifiers) < len(op) * self.n_worlds):
            raise ValueError("falsifiers: array('q') of len(op) * n_worlds")
        out = array("Q", bytes(24 * len(roots)))
        if _lib.ak_run(self._model, _addr(op), _addr(a1), _addr(a2),
                       _addr(aux), len(op), nslots, _addr(roots), len(roots),
                       _addr(out),
                       None if falsifiers is None else _addr(falsifiers)):
            raise MemoryError("formula program")
        return out.tolist()


try:
    _lib, _path = _load()
except (OSError, AttributeError) as exc:
    BACKEND, BACKEND_REASON = "python", f"native kernel unavailable: {exc}"
else:
    BACKEND, BACKEND_REASON = "c", f"native kernel loaded from {_path}"
