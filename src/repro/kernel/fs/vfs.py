"""vfscore: the VFS layer (path resolution, fd table, POSIX file ops).

Dispatches to the mounted filesystem driver (ramfs here).  Every public
operation is a ``vfscore`` entry point, so placing the filesystem in its
own compartment turns each file operation into a gated cross-call — the
effect Fig. 10's MPK3/EPT2 scenarios measure.
"""

from __future__ import annotations

import errno

from repro.errors import FsError
from repro.kernel.lib import entrypoint, work
from repro.obs import tracer as obs

O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_TRUNC = 0x200
O_APPEND = 0x400

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


class OpenFile:
    """One open-file description (shared by dup'ed descriptors)."""

    __slots__ = ("inode", "flags", "pos", "path")

    def __init__(self, inode, flags, path):
        self.inode = inode
        self.flags = flags
        self.pos = 0
        self.path = path

    @property
    def readable(self):
        return (self.flags & 0x3) in (O_RDONLY, O_RDWR)

    @property
    def writable(self):
        return (self.flags & 0x3) in (O_WRONLY, O_RDWR)


class Vfs:
    """The VFS: one mounted driver, a root, and an fd table."""

    def __init__(self, driver, costs):
        self.driver = driver
        self.costs = costs
        self._fds = {}
        self._next_fd = 3  # 0-2 are notionally stdio
        self.ops = 0
        self.syncs = 0

    # -- path handling -----------------------------------------------------------
    def _charge(self, op):
        self.ops += 1
        work(self.costs.vfs_op)
        tracer = obs.ACTIVE
        if tracer.enabled:
            tracer.fs_op("vfscore", op)

    def _resolve_dir(self, path):
        """Resolve the parent directory of ``path``; returns (dir, name)."""
        parts = [p for p in path.split("/") if p]
        if not parts:
            raise FsError(errno.EINVAL, "empty path %r" % path)
        node = self.driver.root
        for part in parts[:-1]:
            node = self.driver.lookup(node, part)
            if not node.is_dir:
                raise FsError(errno.ENOTDIR, "%r in %r" % (part, path))
        return node, parts[-1]

    def _resolve(self, path):
        node, name = self._resolve_dir(path)
        return self.driver.lookup(node, name)

    # -- POSIX-ish operations -------------------------------------------------
    @entrypoint("vfscore")
    def open(self, path, flags=O_RDONLY):
        """Open ``path``; returns an integer file descriptor."""
        self._charge("open")
        parent, name = self._resolve_dir(path)
        try:
            inode = self.driver.lookup(parent, name)
        except FsError as exc:
            if exc.errno != errno.ENOENT or not flags & O_CREAT:
                raise
            inode = self.driver.create(parent, name, is_dir=False)
        if inode.is_dir and flags & 0x3 != O_RDONLY:
            raise FsError(errno.EISDIR, "cannot write directory %r" % path)
        if flags & O_TRUNC and not inode.is_dir:
            self.driver.truncate(inode, 0)
        fd = self._next_fd
        self._next_fd += 1
        handle = OpenFile(inode, flags, path)
        if flags & O_APPEND:
            handle.pos = inode.size
        self._fds[fd] = handle
        return fd

    def _handle(self, fd):
        handle = self._fds.get(fd)
        if handle is None:
            raise FsError(errno.EBADF, "bad file descriptor %d" % fd)
        return handle

    @entrypoint("vfscore")
    def read(self, fd, length):
        self._charge("read")
        handle = self._handle(fd)
        if not handle.readable:
            raise FsError(errno.EBADF, "fd %d not open for reading" % fd)
        data = self.driver.read(handle.inode, handle.pos, length)
        handle.pos += len(data)
        return data

    @entrypoint("vfscore")
    def write(self, fd, payload):
        self._charge("write")
        handle = self._handle(fd)
        if not handle.writable:
            raise FsError(errno.EBADF, "fd %d not open for writing" % fd)
        if handle.flags & O_APPEND:
            handle.pos = handle.inode.size
        written = self.driver.write(handle.inode, handle.pos, payload)
        handle.pos += written
        return written

    @entrypoint("vfscore")
    def lseek(self, fd, offset, whence=SEEK_SET):
        self._charge("lseek")
        handle = self._handle(fd)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = handle.pos + offset
        elif whence == SEEK_END:
            new = handle.inode.size + offset
        else:
            raise FsError(errno.EINVAL, "bad whence %r" % whence)
        if new < 0:
            raise FsError(errno.EINVAL, "negative seek")
        handle.pos = new
        return new

    @entrypoint("vfscore")
    def fsync(self, fd):
        """Flush a file.  ramfs has no backing store, but the journal
        protocol's ordering point is still charged (it is a real barrier
        on the paper's testbed)."""
        self._charge("fsync")
        self._handle(fd)
        self.syncs += 1
        work(self.costs.vfs_op)
        return 0

    @entrypoint("vfscore")
    def close(self, fd):
        self._charge("close")
        self._handle(fd)
        del self._fds[fd]
        return 0

    @entrypoint("vfscore")
    def unlink(self, path):
        self._charge("unlink")
        parent, name = self._resolve_dir(path)
        self.driver.unlink(parent, name)
        return 0

    @entrypoint("vfscore")
    def mkdir(self, path):
        self._charge("mkdir")
        parent, name = self._resolve_dir(path)
        self.driver.create(parent, name, is_dir=True)
        return 0

    @entrypoint("vfscore")
    def stat(self, path):
        self._charge("stat")
        inode = self._resolve(path)
        return self.driver.getattr(inode)

    @entrypoint("vfscore")
    def listdir(self, path="/"):
        self._charge("listdir")
        if path == "/":
            return self.driver.readdir(self.driver.root)
        return self.driver.readdir(self._resolve(path))

    @entrypoint("vfscore")
    def exists(self, path):
        self._charge("exists")
        try:
            self._resolve(path)
            return True
        except FsError:
            return False

    @property
    def open_fds(self):
        return len(self._fds)
