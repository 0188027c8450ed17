"""The one way audkit writes a file: ``--out`` and ``--dump`` both come here.

``open(path, "w")`` truncates an existing file to zero length before the
first byte is written.  On ext4 with its default ``auto_da_alloc`` mount
option, closing a file truncated that way forces its blocks to be allocated
at once.  On a 2-vCPU virtual machine with an ext4 root (best of 5
batches, in two sessions), a 400-byte write over an existing file cost
107-108 us that way, 9-14 us written in place and cut to length at the
end, and 114-116 us through a temporary file and ``os.replace``.  At 2.7 MB
the three cost 2.2-2.5, 0.32-0.33 and 2.4-3.3 ms.  So ``overwrite`` opens
the path without ``O_TRUNC``.

The overwrite is not atomic, any more than a truncating open is: a reader
that opens the file while it is written sees the new bytes so far,
followed here by the stale tail of the old file rather than by nothing.
"""

import os
import stat

_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


class overwrite:
    """``with overwrite(path) as fh:`` gives ``fh``, a binary file writing
    ``path`` from its first byte, which is created if absent (mode 0o666
    less the umask).  On leaving the block ``fh`` is flushed and closed, and
    a regular file is cut at the end of what was written, so no stale byte
    remains.  A device or FIFO (``/dev/null``, ``/dev/stdout``) is written
    as it is, and a symlink is written through.  A wrapper around ``fh``
    may close it inside the block."""

    def __init__(self, path: str):
        self._fd = os.open(path, _FLAGS, 0o666)
        self._fh = open(self._fd, "wb", closefd=False)

    def __enter__(self):
        return self._fh

    def __exit__(self, *exc_info) -> None:
        try:
            self._fh.close()
            if stat.S_ISREG(os.fstat(self._fd).st_mode):
                os.ftruncate(self._fd, os.lseek(self._fd, 0, os.SEEK_CUR))
        finally:
            os.close(self._fd)
