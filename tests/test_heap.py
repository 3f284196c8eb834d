"""The CLI's heap policy: large arrays are mapped, not carved from the heap."""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lambspec
from lambspec import _heap, cli


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _mallinfo():
    """glibc's mallinfo2 (fordblks: free heap bytes, hblkhd: mapped bytes), or None."""
    mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if mallinfo2 is None:
        return None
    mallinfo2.restype = _MallInfo2
    return mallinfo2()


def test_block_the_heap_cannot_hold_is_mapped():
    if not _heap.map_large_arrays() or _mallinfo() is None:
        pytest.skip("needs glibc malloc")
    size = max(_mallinfo().fordblks, _heap.MMAP_THRESHOLD) + 2**20
    # without the policy, freeing this larger mapped block would raise
    # glibc's threshold past size, and the heap would grow to hold it
    np.ones((size + 2**22) // 8)
    before = _mallinfo().hblkhd
    held = np.ones(size // 8)
    assert _mallinfo().hblkhd - before >= held.nbytes
    small = np.ones(_heap.MMAP_THRESHOLD // 16)
    assert _mallinfo().hblkhd - before < held.nbytes + small.nbytes


_ARENAS = """
import ctypes, sys, tempfile, threading
from lambspec import _heap
if sys.argv[1] == "policy":
    assert _heap.map_large_arrays()
libc = ctypes.CDLL(None)
libc.malloc.argtypes, libc.malloc.restype = [ctypes.c_size_t], ctypes.c_void_p
libc.free.argtypes = [ctypes.c_void_p]
libc.fopen.argtypes, libc.fopen.restype = [ctypes.c_char_p, ctypes.c_char_p], ctypes.c_void_p
libc.fclose.argtypes = [ctypes.c_void_p]
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
go = threading.Barrier(3)
def work():
    go.wait()           # every thread allocates while the others are alive
    libc.free(libc.malloc(4096))
    go.wait()
threads = [threading.Thread(target=work) for _ in range(3)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
with tempfile.NamedTemporaryFile("r") as report:
    stream = libc.fopen(report.name.encode(), b"w")
    libc.malloc_info(0, stream)
    libc.fclose(stream)
    print(report.read().count("<heap nr="))
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "malloc_info"), reason="needs glibc malloc")
def test_threads_share_one_arena():
    # glibc gives each new thread that allocates an arena of its own; the
    # policy keeps one, so solve threads reuse the one heap's free memory
    src = str(Path(lambspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def arenas(mode):
        proc = subprocess.run([sys.executable, "-c", _ARENAS, mode], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    assert arenas("default") > 1
    assert arenas("policy") == _heap.ARENAS == 1


def test_policy_without_mallopt_does_nothing(monkeypatch):
    monkeypatch.setattr(_heap, "_mallopt", lambda: None)
    assert _heap.map_large_arrays.__wrapped__() is False


def test_cli_run_applies_policy(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "map_large_arrays", lambda: calls.append(1))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lambda": 2.0, "mu": 1.0, "rho": 1.0, "h": 1.0,
                                "omega": 3.0, "n_colloc": 0}))
    assert cli.run(["modes", "--config", str(path)]) == 2
    assert calls == [1]
