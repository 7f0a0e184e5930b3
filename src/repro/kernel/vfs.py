"""Virtual filesystem: dentry cache, inodes, a ramfs, file I/O.

This subsystem produces the ``dentry`` memory-write traffic that Table 2
of the paper measures.  The write mix is mechanistic:

* every path-walk step *gets* and later *puts* the component's dentry,
  read-modify-writing the hot ``d_lockref`` word (never sensitive);
* creating a dentry writes its identity fields once — ``d_parent``,
  ``d_name``, ``d_inode``, ``d_op``, ``d_sb`` are the sensitive words a
  word-granularity monitor watches;
* unlink clears ``d_inode`` (sensitive) and retires the object.

All field accesses go through the kernel's CPU so they hit the memory
system (and the MBM, once the containing pages are monitored and
non-cacheable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.config import PAGE_BYTES, WORD_BYTES
from repro.errors import AllocationError
from repro.kernel.objects import DENTRY, FILE_OBJ, INODE
from repro.utils.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


def name_hash(name: str) -> int:
    """Deterministic 64-bit FNV-1a of a dentry name.

    The real kernel's d_hash is a pure function of the name; Python's
    builtin ``hash`` is salted per process, which would make the memory
    images of two identically-built machines differ across processes
    and break snapshot content-hash comparability (``repro.state``).
    """
    value = 0xCBF2_9CE4_8422_2325
    for byte in name.encode():
        value = ((value ^ byte) * 0x1_0000_0001_B3) & ((1 << 64) - 1)
    return value


@dataclass
class VfsNode:
    """Python-side bookkeeping mirroring one dentry+inode pair."""

    name: str
    dentry_pa: int
    inode_pa: int
    is_dir: bool
    parent: Optional["VfsNode"] = None
    children: Dict[str, "VfsNode"] = field(default_factory=dict)
    data_pages: List[int] = field(default_factory=list)
    size_bytes: int = 0


@dataclass
class FileHandle:
    """An open file: wraps a ``file`` slab object."""

    node: VfsNode
    file_pa: int
    pos: int = 0
    closed: bool = False


class VFS:
    """The kernel's filesystem layer (a single ramfs mount)."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.stats = StatSet("vfs")
        self._sb_token = 0x5B  # superblock cookie written into d_sb
        self.root = self._make_node("/", parent=None, is_dir=True)

    # ------------------------------------------------------------------
    # Object construction
    # ------------------------------------------------------------------
    def _make_node(self, name: str, parent: Optional[VfsNode], is_dir: bool,
                   mode: int = 0o755, uid: int = 0, gid: int = 0) -> VfsNode:
        kernel = self.kernel
        dentry_pa = kernel.slab.cache(DENTRY).alloc()
        inode_pa = kernel.slab.cache(INODE).alloc()
        node = VfsNode(name, dentry_pa, inode_pa, is_dir, parent)
        # dentry initialization (d_alloc + d_instantiate).
        write = kernel.write_field
        write(dentry_pa, DENTRY, "d_flags", 1 if is_dir else 2)
        write(dentry_pa, DENTRY, "d_seq", 0)
        write(dentry_pa, DENTRY, "d_hash", name_hash(name) & 0xFFFF_FFFF)
        write(dentry_pa, DENTRY, "d_parent",
              parent.dentry_pa if parent else dentry_pa)
        write(dentry_pa, DENTRY, "d_name", name_hash(name))
        # Short names live inline in d_iname; write the words used.
        name_words = min(4, max(1, (len(name) + WORD_BYTES - 1) // WORD_BYTES))
        for word in range(name_words):
            write(dentry_pa, DENTRY, "d_iname", 0x6E61_6D65, index=word)
        write(dentry_pa, DENTRY, "d_op", 0xD0_0D)
        write(dentry_pa, DENTRY, "d_sb", self._sb_token)
        write(dentry_pa, DENTRY, "d_lockref", 0)
        write(dentry_pa, DENTRY, "d_inode", inode_pa)
        # inode initialization.
        write(inode_pa, INODE, "i_mode", (0o40000 if is_dir else 0o100000) | mode)
        write(inode_pa, INODE, "i_uid", uid)
        write(inode_pa, INODE, "i_gid", gid)
        write(inode_pa, INODE, "i_op", 0x10_0D)
        write(inode_pa, INODE, "i_sb", self._sb_token)
        write(inode_pa, INODE, "i_nlink", 2 if is_dir else 1)
        write(inode_pa, INODE, "i_size", 0)
        write(inode_pa, INODE, "i_count", 1)
        self.stats.add("nodes_created")
        if parent is not None:
            # Link into the parent (list pointer churn, not sensitive).
            write(parent.dentry_pa, DENTRY, "d_subdirs", dentry_pa)
            write(dentry_pa, DENTRY, "d_child", parent.dentry_pa)
            parent.children[name] = node
        return node

    # ------------------------------------------------------------------
    # dget/dput: the hot reference-count churn
    # ------------------------------------------------------------------
    def _dget(self, node: VfsNode) -> None:
        kernel = self.kernel
        count = kernel.read_field(node.dentry_pa, DENTRY, "d_lockref")
        kernel.write_field(node.dentry_pa, DENTRY, "d_lockref", count + 1)
        if count == 0:
            # Back in use: unlink from the LRU (list pointers + flags).
            kernel.write_field(node.dentry_pa, DENTRY, "d_lru", 0, index=0)
            kernel.write_field(node.dentry_pa, DENTRY, "d_lru", 0, index=1)
            flags = kernel.read_field(node.dentry_pa, DENTRY, "d_flags")
            kernel.write_field(node.dentry_pa, DENTRY, "d_flags",
                               flags & ~0x80)
        self.stats.add("dget")

    def _dput(self, node: VfsNode) -> None:
        kernel = self.kernel
        count = kernel.read_field(node.dentry_pa, DENTRY, "d_lockref")
        kernel.write_field(node.dentry_pa, DENTRY, "d_lockref", count - 1)
        if count == 1:
            # Last reference dropped: park the dentry on the LRU list
            # (dentry_lru_add: two list pointers plus the flags word).
            kernel.write_field(node.dentry_pa, DENTRY, "d_lru",
                               node.dentry_pa ^ 0x1, index=0)
            kernel.write_field(node.dentry_pa, DENTRY, "d_lru",
                               node.dentry_pa ^ 0x2, index=1)
            flags = kernel.read_field(node.dentry_pa, DENTRY, "d_flags")
            kernel.write_field(node.dentry_pa, DENTRY, "d_flags",
                               flags | 0x80)
        self.stats.add("dput")

    # ------------------------------------------------------------------
    # Path walking
    # ------------------------------------------------------------------
    @staticmethod
    def _components(path: str) -> List[str]:
        return [part for part in path.split("/") if part]

    def lookup(self, path: str) -> Optional[VfsNode]:
        """Resolve ``path`` through the dentry cache.

        Every traversed component is dget/dput-ed, like a real path walk;
        returns ``None`` when a component is missing.
        """
        kernel = self.kernel
        node = self.root
        touched = [node]
        self._dget(node)
        found: Optional[VfsNode] = node
        for component in self._components(path):
            kernel.cpu.compute(kernel.op_costs.path_component)
            child = node.children.get(component)
            self.stats.add("dcache_lookups")
            if child is None:
                self.stats.add("dcache_misses")
                found = None
                break
            self._dget(child)
            touched.append(child)
            node = child
            found = child
        for touched_node in reversed(touched):
            self._dput(touched_node)
        return found

    def _lookup_dir(self, path: str) -> VfsNode:
        node = self.lookup(path)
        if node is None or not node.is_dir:
            raise AllocationError(f"no such directory: {path}")
        return node

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------
    def create(self, path: str, is_dir: bool = False,
               mode: int = 0o644, uid: int = 0, gid: int = 0) -> VfsNode:
        """Create a file or directory (parents must exist)."""
        components = self._components(path)
        if not components:
            raise AllocationError("cannot create the root")
        parent_path = "/" + "/".join(components[:-1])
        parent = self._lookup_dir(parent_path)
        name = components[-1]
        if name in parent.children:
            raise AllocationError(f"already exists: {path}")
        self._dget(parent)
        node = self._make_node(name, parent, is_dir, mode, uid, gid)
        self._dput(parent)
        return node

    def mkdir_p(self, path: str) -> VfsNode:
        """Create a directory chain (like ``mkdir -p``)."""
        node = self.root
        walked = "/"
        for component in self._components(path):
            walked = walked.rstrip("/") + "/" + component
            if component in node.children:
                node = node.children[component]
            else:
                node = self.create(walked, is_dir=True)
        return node

    def unlink(self, path: str) -> None:
        """Remove a file: clears ``d_inode`` (sensitive!) and frees."""
        node = self.lookup(path)
        if node is None or node.parent is None:
            raise AllocationError(f"cannot unlink {path}")
        kernel = self.kernel
        kernel.write_field(node.dentry_pa, DENTRY, "d_inode", 0)
        kernel.write_field(node.dentry_pa, DENTRY, "d_flags", 0)
        kernel.write_field(node.parent.dentry_pa, DENTRY, "d_subdirs", 0)
        for paddr in node.data_pages:
            kernel.allocator.free(paddr)
        node.data_pages.clear()
        del node.parent.children[node.name]
        kernel.slab.cache(INODE).free(node.inode_pa)
        kernel.slab.cache(DENTRY).free(node.dentry_pa)
        self.stats.add("unlinks")

    def rename(self, old_path: str, new_name: str) -> None:
        """Rename within the same directory (writes d_name/d_seq)."""
        node = self.lookup(old_path)
        if node is None or node.parent is None:
            raise AllocationError(f"cannot rename {old_path}")
        kernel = self.kernel
        seq = kernel.read_field(node.dentry_pa, DENTRY, "d_seq")
        kernel.write_field(node.dentry_pa, DENTRY, "d_seq", seq + 1)
        kernel.write_field(node.dentry_pa, DENTRY, "d_name",
                           name_hash(new_name))
        kernel.write_field(node.dentry_pa, DENTRY, "d_seq", seq + 2)
        del node.parent.children[node.name]
        node.parent.children[new_name] = node
        node.name = new_name
        self.stats.add("renames")

    # ------------------------------------------------------------------
    # stat / attributes
    # ------------------------------------------------------------------
    def getattr(self, node: VfsNode) -> Dict[str, int]:
        """Read the inode attributes (the work behind stat)."""
        kernel = self.kernel
        return {
            name: kernel.read_field(node.inode_pa, INODE, name)
            for name in ("i_mode", "i_uid", "i_gid", "i_size",
                         "i_mtime", "i_nlink")
        }

    def chmod(self, path: str, mode: int) -> None:
        node = self.lookup(path)
        if node is None:
            raise AllocationError(f"no such file: {path}")
        self.kernel.write_field(node.inode_pa, INODE, "i_mode", mode)

    def chown(self, path: str, uid: int, gid: int) -> None:
        node = self.lookup(path)
        if node is None:
            raise AllocationError(f"no such file: {path}")
        self.kernel.write_field(node.inode_pa, INODE, "i_uid", uid)
        self.kernel.write_field(node.inode_pa, INODE, "i_gid", gid)

    def utimes(self, path: str, mtime: int) -> None:
        node = self.lookup(path)
        if node is None:
            raise AllocationError(f"no such file: {path}")
        self.kernel.write_field(node.inode_pa, INODE, "i_mtime", mtime)

    # ------------------------------------------------------------------
    # File I/O
    # ------------------------------------------------------------------
    def open(self, path: str, create: bool = False) -> FileHandle:
        node = self.lookup(path)
        if node is None:
            if not create:
                raise AllocationError(f"no such file: {path}")
            node = self.create(path)
        kernel = self.kernel
        file_pa = kernel.slab.cache(FILE_OBJ).alloc()
        write = kernel.write_field
        write(file_pa, FILE_OBJ, "f_count", 1)
        write(file_pa, FILE_OBJ, "f_flags", 2)
        write(file_pa, FILE_OBJ, "f_mode", 3)
        write(file_pa, FILE_OBJ, "f_pos", 0)
        write(file_pa, FILE_OBJ, "f_dentry", node.dentry_pa)
        write(file_pa, FILE_OBJ, "f_op", 0xF0_0D)
        self._dget(node)
        self.stats.add("opens")
        return FileHandle(node=node, file_pa=file_pa)

    def close(self, handle: FileHandle) -> None:
        if handle.closed:
            raise AllocationError("double close")
        kernel = self.kernel
        kernel.write_field(handle.file_pa, FILE_OBJ, "f_count", 0)
        kernel.slab.cache(FILE_OBJ).free(handle.file_pa)
        self._dput(handle.node)
        handle.closed = True
        self.stats.add("closes")

    def write_file(self, handle: FileHandle, nbytes: int) -> None:
        """Append ``nbytes`` of data (bulk-modelled content)."""
        kernel = self.kernel
        node = handle.node
        end = handle.pos + nbytes
        while len(node.data_pages) * PAGE_BYTES < end:
            node.data_pages.append(kernel.alloc_page("page_cache"))
        remaining = nbytes
        while remaining > 0:
            page_index = handle.pos // PAGE_BYTES
            page_offset = handle.pos % PAGE_BYTES
            chunk = min(remaining, PAGE_BYTES - page_offset)
            paddr = node.data_pages[page_index] + page_offset
            kernel.kwrite_block(
                kernel.linear_map.kva(paddr), max(1, chunk // WORD_BYTES)
            )
            handle.pos += chunk
            remaining -= chunk
        node.size_bytes = max(node.size_bytes, end)
        kernel.write_field(node.inode_pa, INODE, "i_size", node.size_bytes)
        kernel.write_field(node.inode_pa, INODE, "i_mtime", kernel.uptime())
        kernel.write_field(handle.file_pa, FILE_OBJ, "f_pos", handle.pos)
        self.stats.add("bytes_written", nbytes)

    def read_file(self, handle: FileHandle, nbytes: int) -> int:
        """Read up to ``nbytes`` from the current position."""
        kernel = self.kernel
        node = handle.node
        available = max(0, node.size_bytes - handle.pos)
        nbytes = min(nbytes, available)
        remaining = nbytes
        while remaining > 0:
            page_index = handle.pos // PAGE_BYTES
            page_offset = handle.pos % PAGE_BYTES
            chunk = min(remaining, PAGE_BYTES - page_offset)
            paddr = node.data_pages[page_index] + page_offset
            kernel.cpu.read_block(
                kernel.linear_map.kva(paddr), max(1, chunk // WORD_BYTES)
            )
            handle.pos += chunk
            remaining -= chunk
        kernel.write_field(handle.file_pa, FILE_OBJ, "f_pos", handle.pos)
        self.stats.add("bytes_read", nbytes)
        return nbytes
