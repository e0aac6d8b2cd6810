"""The compiled kernel, _kernel.c: ULSA's start and step loop, the table
build, the one-pass text readers, the text writers, the MIS conversions and
the Model RB sampler.

The source is built with the local C compiler on first use and cached per
user.  `kernel` opens the library once per process and gives every exported
function its signature from `_SIGNATURES`; it returns the library, or None
when it cannot be built or opened, and then every caller runs its Python
reference instead.  This module imports nothing from the package, so that
`core`, `misbridge` and `ulsa` can all call it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Any

_SOURCE = Path(__file__).with_name("_kernel.c")
_CFLAGS = ("-O3", "-shared", "-fPIC")


def _cache_dir() -> Path:
    root = Path(os.environ.get("XDG_CACHE_HOME", ""))
    path = (root if root.is_absolute() else Path.home() / ".cache") / "rbcsp"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{path} is writable by other users")
    return path


def _compile() -> Path:
    """Path of the kernel library, compiled unless cached.

    The file name is keyed by the source, the compiler command and the
    platform; a build is published by renaming a finished temporary file, so
    concurrent first uses are safe.
    """
    source = _SOURCE.read_bytes()
    cmd = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cmd[0]) is None:  # Python was built with a compiler not here
        cmd = ["cc"]
    cmd += _CFLAGS
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(cmd).encode(), sysconfig.get_platform().encode()]))
    lib = _cache_dir() / f"kernel-{key.hexdigest()[:24]}.so"
    if not lib.exists():
        fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".so.tmp")
        os.close(fd)
        try:
            subprocess.run(cmd + ["-x", "c", "-o", tmp, "-"], input=source,
                           capture_output=True, check=True, timeout=300)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return lib


_P = ctypes.c_void_p
_I = ctypes.c_int64
_U = ctypes.c_uint64


class _RunStruct(ctypes.Structure):
    """`ulsa_run` in _kernel.c, field for field."""

    _fields_ = [
        ("bits", _P), ("inc_start", _P), ("slot_other", _P), ("slot_cid", _P), ("rev", _P),
        ("con_a", _P), ("con_b", _P), ("n", _I), ("d", _I),
        ("cache", _P), ("fresh", _I), ("counted", _I),
        ("x", _P), ("t", _P), ("ids", _P), ("pos", _P), ("nviol", _I), ("n_iter", _I),
        ("iterations", _I), ("expansions", _I), ("worsening", _I),
        ("u", _P), ("nu", _I), ("upos", _I), ("gen", _P),
        ("best", _I), ("cap", _I), ("budget", _I), ("interval", _I),
    ]


# (argtypes, restype) of each function the package calls
_SIGNATURES = {
    "ulsa_advance": ([ctypes.POINTER(_RunStruct)], None),
    "ulsa_init": ([_P] * 4 + [_I, _P, _I] + [_P] * 2, None),
    "build_bits": ([_P, _P, _I, _I, _P, _P], None),
    "read_header": ([ctypes.c_char_p, _I, ctypes.c_char_p, _I, _P], _I),
    "read_csp": ([ctypes.c_char_p] + [_I] * 5 + [_P] * 3 + [_I, _P, _I, _P, _I, _P, _P], _I),
    "read_dimacs": ([ctypes.c_char_p, _I, _I, _I, _P, _I, _P, _P], _I),
    "write_blocks": ([_P] * 3 + [_I, _P, _I, _P, _I, _P, _I], _I),
    "write_edges": ([_P, _I, _P, _I, _P, _I], _I),
    "mis_edges": ([_P] * 5 + [_I] * 3 + [_P] * 3, _I),
    "mis_constraints": ([_P, _I, _I, _I] + [_P] * 7, _I),
    "rb_sample": ([_U] * 4 + [_I] * 4 + [_P] * 7, None),
}

_lib: Any = ...  # the library once opened, None if unavailable, ... until tried


def kernel() -> Any:
    """The kernel library with every function of _SIGNATURES typed, opened
    once per process, or None."""
    global _lib
    if _lib is ...:
        try:
            lib = ctypes.CDLL(str(_compile()))
            for name, (argtypes, restype) in _SIGNATURES.items():
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = argtypes, restype
        # no compiler or cache directory, a failed build, a library that does
        # not load or lacks a function
        except (OSError, subprocess.SubprocessError, AttributeError, ValueError):
            lib = None
        _lib = lib
    return _lib
