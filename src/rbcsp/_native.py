"""The compiled kernel, _kernel.c: ULSA's step loop, the text reader and
the text writers.

The source is built with the local C compiler on first use and cached per
user; `bind` opens the library and returns one of its functions, or None
when it cannot be built or opened, and then the caller runs its Python
reference instead.  This module imports nothing from the package, so that
`core`, `misbridge` and `ulsa` each bind what they call.
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
from typing import Any, Optional

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


def bind(name: str, argtypes: list, restype: Optional[type]) -> Any:
    """The kernel function `name` with the given signature, or None."""
    try:
        fn = getattr(ctypes.CDLL(str(_compile())), name)
    # no compiler or cache directory, a failed build, a library that does
    # not load
    except (OSError, subprocess.SubprocessError, AttributeError, ValueError):
        return None
    fn.argtypes = argtypes
    fn.restype = restype
    return fn
