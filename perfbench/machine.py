"""Facts about the machine and build, recorded with every result.

Nothing here changes the environment: BLAS threading is read, never set,
so the program is measured as shipped.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(root / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[len("ref: "):]
    sha = _read(root / ".git" / ref)
    if sha:
        return sha
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cache_sizes() -> dict:
    """Per-level cache sizes of CPU 0, as the kernel reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind == "Instruction":
            continue
        out[f"L{level}"] = _read(index / "size")
    return out


def _openblas():
    for line in _read(Path("/proc/self/maps")).splitlines():
        if "openblas" in line.lower() and line.rstrip().endswith(".so"):
            return ctypes.CDLL(line.split()[-1])
    return None


def blas_facts() -> dict:
    """numpy's BLAS build configuration and its live thread count."""
    import numpy as np

    facts = {"numpy": np.__version__}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        facts["blas_name"] = blas.get("name")
        facts["blas_config"] = blas.get("openblas configuration")
    except (AttributeError, KeyError, TypeError):
        facts["blas_name"] = "unknown"
    lib = _openblas()
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
        threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        if threads is None:
            continue
        threads.restype, threads.argtypes = ctypes.c_int, []
        facts["blas_threads"] = threads()
        config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        if config is not None:
            # The kernel OpenBLAS picked for this CPU at run time.
            config.restype, config.argtypes = ctypes.c_char_p, []
            facts["blas_runtime_config"] = config().decode()
        break
    facts["blas_env"] = {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                          "PSNCI_THREADS") if k in os.environ}
    return facts


def facts(root: Path) -> dict:
    out = {
        "git_sha": git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
    }
    out.update(blas_facts())
    return out
