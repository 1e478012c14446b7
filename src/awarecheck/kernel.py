"""Selects the kernels (profile closure + formula-program interpreter): the
native ones in _kernel.c, or the pure-Python twins in _kernel_py.

On first import _kernel.c is compiled with `cc -O2 -shared -fPIC` into the
package's __pycache__/, under a name keyed by a hash of the source, and
loaded with ctypes; later imports load the cached library.  If any of that
fails (no compiler, a read-only directory, a compile or load error) the pure
kernels take over.  BACKEND is "c" or "python"; BACKEND_REASON names the
library loaded, or says why none was.  The native kernels hold worlds and
propositions in masks of MASK_BITS bits.
"""

import ctypes
import os
import zlib
from array import array

from . import _kernel_py
from ._kernel_py import OP_A, OP_AND, OP_K, OP_NOT, OP_PROP, OP_TOP, OP_X

MASK_BITS = 64
_PTR, _INT = ctypes.c_void_p, ctypes.c_int64


class _Records(ctypes.Structure):  # the closure's output, as in _kernel.c
    _fields_ = [("count", _INT), ("cap", _INT)] + [
        (name, ctypes.POINTER(ctypes.c_uint64 if name in ("vocab", "truth")
                              else _INT))
        for name in ("vocab", "truth", "op", "a1", "a2", "aux", "layer")] + \
        [("table", _PTR), ("mask", _INT), ("failed", _INT)]


class _Model(ctypes.Structure):  # an evaluator's buffers, as in _kernel.c
    _fields_ = [("n_worlds", _INT), ("n_profiles", _INT)] + [
        (name, _PTR)
        for name in ("pwm", "ptrue", "succ", "aware", "prof_v", "prof_f")]


def _load():
    """(library, path), compiling _kernel.c when no cached build exists."""
    here = os.path.dirname(os.path.abspath(__file__))
    src, cache = (os.path.join(here, name) for name in ("_kernel.c",
                                                        "__pycache__"))
    with open(src, "rb") as fh:
        path = os.path.join(cache, f"_kernel.{zlib.crc32(fh.read()):08x}.so")
    if not os.path.exists(path):
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
    lib = ctypes.CDLL(path)
    records, model = ctypes.POINTER(_Records), ctypes.POINTER(_Model)
    lib.ak_close.argtypes = [_INT] * 3 + [_PTR] * 4 + [_INT] * 2 + [records]
    lib.ak_free.argtypes, lib.ak_free.restype = [records], None
    lib.ak_close.restype = lib.ak_run.restype = ctypes.c_int
    lib.ak_run.argtypes = [model] + [_PTR] * 5 + [_INT] * 3 + [_PTR]
    return lib, path


def _addr(buf):
    return buf.buffer_info()[0]


def _flat(rows):
    """Per-agent rows of world masks as one buffer."""
    return array("Q", [mask for row in rows for mask in row])


def _close_native(n_worlds, lang_masks, prop_true_masks, succ_masks,
                  aware_masks, use_not, use_and, use_k, use_a, use_x,
                  include_top, max_profiles):
    """_kernel_py.close_profiles in C: same arguments, same result."""
    bufs = (array("Q", lang_masks), array("Q", prop_true_masks),
            _flat(succ_masks), _flat(aware_masks))
    use = sum(1 << bit for bit, on in enumerate(
        (use_not, use_and, use_k, use_a, use_x, include_top)) if on)
    out = _Records()
    try:
        rc = _lib.ak_close(n_worlds, len(prop_true_masks), len(succ_masks),
                           *map(_addr, bufs), use, max_profiles, out)
        if rc:
            raise MemoryError("profile closure") if rc < 0 else RuntimeError(
                f"profile closure exceeded {max_profiles} profiles")
        n = out.count
        records = list(zip(out.vocab[:n], out.truth[:n], out.op[:n],
                           out.a1[:n], out.a2[:n], out.aux[:n]))
        return records, out.layer[:n]
    finally:
        _lib.ak_free(out)


class _Eval:
    """_kernel_py._Eval.run in C: same constructor, same results, for
    programs whose columns are array.array buffers (see
    checker._compile_program)."""

    def __init__(self, n_worlds, prop_world_masks, prop_true, succ_masks,
                 aware_masks, profiles):
        self._bufs = (array("Q", prop_world_masks), array("Q", prop_true),
                      _flat(succ_masks), _flat(aware_masks),
                      array("Q", [v for v, _ in profiles]),
                      array("Q", [t for _, t in profiles]))
        self._model = _Model(n_worlds, len(profiles),
                             *map(_addr, self._bufs))
        self._out = (ctypes.c_uint64 * 2)()

    def run(self, program, root):
        """(vocab mask, truth mask) over all worlds of a program's root."""
        op, a1, a2, aux, props, _, nslots = program
        if _lib.ak_run(self._model, _addr(op), _addr(a1), _addr(a2),
                       _addr(aux), _addr(props), len(op), nslots, root,
                       self._out):
            raise MemoryError("formula program")
        return self._out[0], self._out[1]


try:
    _lib, _path = _load()
except (OSError, AttributeError) as exc:
    BACKEND, BACKEND_REASON = "python", f"native kernel unavailable: {exc}"
    close_profiles = _kernel_py.close_profiles
    make_evaluator = _kernel_py.make_evaluator
else:
    BACKEND, BACKEND_REASON = "c", f"native kernel loaded from {_path}"
    close_profiles, make_evaluator = _close_native, _Eval
