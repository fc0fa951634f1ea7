"""Host fingerprint, pinned environment, and same-host comparison.

Results carry a fingerprint of the host (CPU model, ``nproc``, python and
numpy versions) and of the code (git sha when there is a git checkout,
and a digest of ``src/`` always).  :func:`compare` refuses to compare two
results whose host parts differ: a ratio of walls measured on different
hosts says nothing about the code.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Fingerprint fields that must match before two results are compared.
HOST_KEYS = ("cpu_model", "nproc", "python", "numpy")

#: Thread-count variables of numpy's BLAS; unset, it uses one thread per
#: CPU, which is how the program runs by default.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def clear_ambient_env(environ: Optional[Dict[str, str]] = None) -> List[str]:
    """Remove every ``REPRO_*`` variable (``REPRO_JOBS``, ``REPRO_SCALE``,
    ``REPRO_TRACE``, ``REPRO_FAULT_PLAN``, ``REPRO_KERNEL_TIER``, ...)
    and the BLAS thread-count variables, so nothing ambient changes what
    is measured; returns the names removed.  Child processes inherit the
    cleared environment."""
    env = os.environ if environ is None else environ
    cleared = sorted(
        k for k in env if k.startswith("REPRO_") or k in THREAD_VARS
    )
    for key in cleared:
        del env[key]
    return cleared


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def src_digest(root: Path) -> str:
    """sha256 over every file under ``src/`` (path and content)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(p for p in src.rglob("*.py") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: Path) -> Dict[str, Any]:
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repo_sha": _git_sha(root),
        "src_sha256": src_digest(root),
    }


def compare(old: Dict[str, Any], new: Dict[str, Any], table) -> int:
    """Print ``new`` against ``old`` metric by metric; 0 when no metric
    is worse than its bound, 1 when one is, 3 on different hosts."""
    fp_old, fp_new = old["fingerprint"], new["fingerprint"]
    differing = [k for k in HOST_KEYS if fp_old.get(k) != fp_new.get(k)]
    if differing:
        print("different host: refusing to compare ("
              + ", ".join(f"{k}: {fp_old.get(k)!r} vs {fp_new.get(k)!r}"
                          for k in differing) + ")")
        return 3
    if old["workload"] != new["workload"]:
        print(f"different workloads: {old['workload']} vs {new['workload']}")
        return 3
    worse = 0
    for metric in table:
        a = old["metrics"].get(metric.name, {}).get("value")
        b = new["metrics"].get(metric.name, {}).get("value")
        if a is None or b is None:
            continue
        change = (b - a) / a if a else 0.0
        loss = -change if metric.better == "higher" else change
        verdict = ""
        if metric.bound is not None:
            verdict = "WORSE" if loss > metric.bound else "ok"
            worse += loss > metric.bound
        print(f"{metric.name:32s} {a:14.6g} -> {b:14.6g} {metric.unit:6s} "
              f"{100 * change:+7.2f}% {verdict}")
    return 1 if worse else 0


def load_result(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
