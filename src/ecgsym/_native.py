"""Compiling one of the package's C files at first use and loading a function of it."""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

# -ffp-contract=off: GCC fuses a multiply and an add such as s += t * t into
# one FMA by default wherever the target has FMA (clang does within one
# statement), which rounds once where numpy, multiplying then adding, rounds
# twice; the kernels must round as numpy does
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def build(source: Path, symbol: str, restype, *argtypes):
    """The function ``symbol`` of the C file ``source``, with the given ctypes
    result and argument types; None when there is no compiler, the compile
    fails, or the library cannot be written or loaded.

    The library is ``__pycache__/<stem>-<sha256>.so`` beside ``source``,
    compiled on first use, the digest being of the source and ``FLAGS``, so
    a changed source or flag gets a new name and a stale library is never
    loaded. The compiler writes a temporary file that ``os.replace`` moves
    into place, so concurrent first uses never load a partly written library.
    """
    try:
        digest = hashlib.sha256(source.read_bytes() + " ".join(FLAGS).encode()).hexdigest()
        lib = source.parent / "__pycache__" / f"{source.stem}-{digest}.so"
        if not lib.exists():
            lib.parent.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(".so", f"{source.stem}-", lib.parent)
            os.close(fd)
            try:
                command = ["cc", *FLAGS, "-o", tmp, str(source), "-lm"]
                subprocess.run(command, check=True, capture_output=True)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        function = getattr(ctypes.CDLL(str(lib)), symbol)
    except (OSError, subprocess.SubprocessError):
        return None
    function.argtypes, function.restype = argtypes, restype
    return function
