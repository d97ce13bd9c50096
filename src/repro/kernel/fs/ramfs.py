"""ramfs: an in-memory filesystem with real inodes and directories.

Implements the driver-side operations the VFS dispatches to: lookup,
create, unlink, read, write, truncate, getattr, mkdir, readdir.  File data
lives in bytearrays; sizes, link counts, and timestamps are maintained for
real so SQLite's journal protocol (create, write, fsync, delete) behaves
faithfully.
"""

from __future__ import annotations

import errno
import itertools

from repro.errors import FsError
from repro.kernel.lib import entrypoint, work
from repro.obs import tracer as obs

_INO = itertools.count(2)  # inode 1 is the root


class Inode:
    """One ramfs inode: a regular file or a directory."""

    __slots__ = ("ino", "is_dir", "data", "children", "nlink", "size",
                 "ctime_ns", "mtime_ns")

    def __init__(self, ino, is_dir):
        self.ino = ino
        self.is_dir = is_dir
        self.data = None if is_dir else bytearray()
        self.children = {} if is_dir else None
        self.nlink = 2 if is_dir else 1
        self.size = 0
        self.ctime_ns = 0
        self.mtime_ns = 0


class RamFs:
    """The in-memory filesystem driver."""

    def __init__(self, costs, time_subsystem=None):
        self.costs = costs
        self.time = time_subsystem
        self.root = Inode(1, is_dir=True)
        self.ops = 0

    # -- helpers -----------------------------------------------------------------
    def _now_ns(self):
        if self.time is None:
            return 0
        return self.time.monotonic_ns()

    def _charge(self, op):
        self.ops += 1
        work(self.costs.ramfs_op)
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.fs_op("ramfs", op)

    # -- driver operations ----------------------------------------------------
    @entrypoint("ramfs")
    def lookup(self, dir_inode, name):
        """Find ``name`` in a directory inode; raises ENOENT if missing."""
        self._charge("lookup")
        if not dir_inode.is_dir:
            raise FsError(errno.ENOTDIR, "%r is not a directory" % name)
        child = dir_inode.children.get(name)
        if child is None:
            raise FsError(errno.ENOENT, "no such entry %r" % name)
        return child

    @entrypoint("ramfs")
    def create(self, dir_inode, name, is_dir=False):
        self._charge("create")
        if name in dir_inode.children:
            raise FsError(errno.EEXIST, "entry %r exists" % name)
        inode = Inode(next(_INO), is_dir)
        inode.ctime_ns = inode.mtime_ns = self._now_ns()
        dir_inode.children[name] = inode
        if is_dir:
            dir_inode.nlink += 1
        return inode

    @entrypoint("ramfs")
    def unlink(self, dir_inode, name):
        self._charge("unlink")
        inode = self.lookup(dir_inode, name)
        if inode.is_dir and inode.children:
            raise FsError(errno.ENOTEMPTY, "directory %r not empty" % name)
        del dir_inode.children[name]
        inode.nlink -= 1
        return inode

    @entrypoint("ramfs")
    def read(self, inode, offset, length):
        self._charge("read")
        if inode.is_dir:
            raise FsError(errno.EISDIR, "read of a directory")
        data = bytes(inode.data[offset:offset + length])
        work(len(data) * self.costs.memcpy_per_byte)
        return data

    @entrypoint("ramfs")
    def write(self, inode, offset, payload):
        self._charge("write")
        if inode.is_dir:
            raise FsError(errno.EISDIR, "write to a directory")
        end = offset + len(payload)
        if end > len(inode.data):
            inode.data.extend(b"\x00" * (end - len(inode.data)))
        inode.data[offset:end] = payload
        inode.size = len(inode.data)
        inode.mtime_ns = self._now_ns()
        work(len(payload) * self.costs.memcpy_per_byte)
        return len(payload)

    @entrypoint("ramfs")
    def truncate(self, inode, size):
        self._charge("truncate")
        if inode.is_dir:
            raise FsError(errno.EISDIR, "truncate of a directory")
        if size < len(inode.data):
            del inode.data[size:]
        else:
            inode.data.extend(b"\x00" * (size - len(inode.data)))
        inode.size = size
        inode.mtime_ns = self._now_ns()

    @entrypoint("ramfs")
    def getattr(self, inode):
        self._charge("getattr")
        return {
            "ino": inode.ino,
            "is_dir": inode.is_dir,
            "size": inode.size,
            "nlink": inode.nlink,
            "mtime_ns": inode.mtime_ns,
        }

    @entrypoint("ramfs")
    def readdir(self, inode):
        self._charge("readdir")
        if not inode.is_dir:
            raise FsError(errno.ENOTDIR, "readdir of a file")
        return sorted(inode.children)
