"""Environment fingerprint stored with every result record.

Two records can only be compared when they were measured on the same number
of cores with the same number of BLAS threads: both change every timing in
this benchmark, and the BLAS thread count also changes GEMM bits.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path

#: Fingerprint fields that must agree before two records are compared.
MUST_MATCH = ("nproc", "blas_threads")


def _openblas_library():
    """The OpenBLAS bundled in numpy's wheel, as a ctypes handle (or None)."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def blas_info() -> dict:
    """BLAS vendor and version from numpy's build info, plus the live thread
    count read through the bundled OpenBLAS."""
    import numpy

    info = {"blas": None, "blas_version": None, "blas_threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    library = _openblas_library()
    if library is not None:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                info["blas_threads"] = int(getter())
                break
    return info


def _git(root: Path, *args):
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root: Path) -> str:
    """sha256 over ``src/`` (path and bytes of every file), for checkouts
    that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(root: Path) -> dict:
    import numpy

    try:
        import orjson  # noqa: F401

        has_orjson = True
    except ImportError:
        has_orjson = False
    sha = _git(root, "rev-parse", "HEAD")
    dirty = None
    if sha is not None:
        dirty = bool(_git(root, "status", "--porcelain", "--", "src"))
    return {
        "nproc": os.cpu_count(),
        **blas_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "orjson": has_orjson,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": source_digest(root),
    }


def mismatch(a: dict, b: dict) -> list:
    """The :data:`MUST_MATCH` fields on which two fingerprints differ."""
    return [key for key in MUST_MATCH if a.get(key) != b.get(key)]
