"""The package's one heap policy: a CLI run fixes malloc's two thresholds.

glibc malloc starts by mapping every block of 128 KiB or more on its own
pages, but each time it unmaps such a block it raises that threshold to
the block's size (up to 32 MiB) and the trim threshold to twice that.
How much free heap top a process keeps therefore follows the largest
array it has freed.  A small solve's largest arrays are a few hundred
KiB, so its working set of several of them overruns the trim threshold:
the heap is handed back at the end of every solve and faulted in again
in the next.  Without the policy a `dispersion` sweep at n_colloc=32
(41 clamped-free solves) takes about 29k minor faults and 0.07 s of
system time a sweep, against 8 faults and none with it: 0.59 s a sweep
instead of 0.48 s (in-process medians, one BLAS thread).

`map_large_arrays` fixes the mmap threshold at MMAP_THRESHOLD.  A block
at least that large which the heap's free space cannot hold is then
mapped on its own pages and unmapped when freed, instead of growing the
heap, so the heap keeps no resident leftovers of a solve's largest
arrays.  Fixing one threshold stops glibc adjusting the other, so the
trim threshold is set to TRIM_THRESHOLD: the heap keeps that much free
top rather than handing it back.  Both are needed; either alone leaves
the n_colloc=32 sweep at 2.5k to 35k faults.  The settings belong
to the process and glibc cannot read them back, so they are made once
and never undone.  Without glibc's mallopt the policy does nothing.
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
