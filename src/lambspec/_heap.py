"""The package's one heap policy: a CLI run maps its large arrays afresh.

glibc malloc starts by mapping every block of 128 KiB or more on its own
pages, but each time it unmaps such a block it raises that threshold to
the block's size (up to 32 MiB).  After the first solve of a process,
the megabyte-sized arrays of a solve are therefore carved from the same
heap as small objects that outlive the call, and where the next one
fits depends on everything allocated before it.  Peak resident memory
then steps up by several MB at an unpredictable call among identical
ones: in a `modes` run at n_colloc=128 repeated in one process, at a
different call in each process.

`map_large_arrays` fixes the mmap threshold at MMAP_THRESHOLD.  A block
at least that large which the heap's free space cannot hold is then
mapped on its own pages and unmapped when freed, instead of growing the
heap, so the heap keeps no resident leftovers of a solve's largest
arrays.  Fixing one threshold stops glibc adjusting the other, so the
trim threshold is set to TRIM_THRESHOLD, twice the 8 MiB block that
raised it before: the heap keeps that much free top rather than handing
it back and faulting it in again on every call.  The settings belong to
the process and glibc cannot read them back, so they are made once and
never undone.  Without glibc's mallopt the policy does nothing.
"""

from __future__ import annotations

import ctypes
import functools

#: a block this large that the heap cannot hold is mapped (glibc M_MMAP_THRESHOLD)
MMAP_THRESHOLD = 2 * 2**20
#: free heap top kept before it is returned (glibc M_TRIM_THRESHOLD)
TRIM_THRESHOLD = 16 * 2**20

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _mallopt():
    try:
        return ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None


@functools.cache
def map_large_arrays() -> bool:
    """Fix malloc's mmap and trim thresholds; True where both were set."""
    mallopt = _mallopt()
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
