"""Unit tests for the VFS: dentry cache, namespace ops, file I/O."""

import pytest

from repro.errors import AllocationError
from repro.kernel.objects import DENTRY, INODE


@pytest.fixture
def kernel(native_system):
    native_system.spawn_init()
    return native_system.kernel


@pytest.fixture
def vfs(kernel):
    return kernel.vfs


class TestLookup:
    def test_root_lookup(self, vfs):
        assert vfs.lookup("/") is vfs.root

    def test_missing_path_returns_none(self, vfs):
        assert vfs.lookup("/no/such/file") is None

    def test_create_then_lookup(self, vfs):
        vfs.mkdir_p("/a/b")
        node = vfs.create("/a/b/c.txt")
        assert vfs.lookup("/a/b/c.txt") is node

    def test_lookup_balances_refcounts(self, kernel, vfs):
        vfs.mkdir_p("/a/b")
        vfs.create("/a/b/c.txt")
        node = vfs.lookup("/a/b/c.txt")
        for check in (node, node.parent, node.parent.parent):
            assert kernel.read_field(check.dentry_pa, DENTRY, "d_lockref") == 0

    def test_lockref_churn_is_hot(self, kernel, vfs):
        """Path walks write d_lockref (the Table 2 noise source)."""
        vfs.mkdir_p("/x")
        vfs.create("/x/f")
        dgets_before = vfs.stats.get("dget")
        vfs.lookup("/x/f")
        assert vfs.stats.get("dget") == dgets_before + 3  # /, x, f


class TestNamespace:
    def test_create_writes_sensitive_identity_fields(self, kernel, vfs):
        node = vfs.create("/victim")
        assert kernel.read_field(node.dentry_pa, DENTRY, "d_inode") == node.inode_pa
        assert kernel.read_field(node.dentry_pa, DENTRY, "d_parent") == vfs.root.dentry_pa

    def test_create_in_missing_dir_rejected(self, vfs):
        with pytest.raises(AllocationError):
            vfs.create("/missing/file")

    def test_duplicate_create_rejected(self, vfs):
        vfs.create("/dup")
        with pytest.raises(AllocationError):
            vfs.create("/dup")

    def test_mkdir_p_idempotent(self, vfs):
        first = vfs.mkdir_p("/deep/nest/ed")
        second = vfs.mkdir_p("/deep/nest/ed")
        assert first is second

    def test_unlink_clears_d_inode_and_frees(self, kernel, vfs):
        node = vfs.create("/gone")
        dentry_pa = node.dentry_pa
        live_before = kernel.slab.cache(DENTRY).live_objects
        vfs.unlink("/gone")
        assert vfs.lookup("/gone") is None
        assert kernel.slab.cache(DENTRY).live_objects == live_before - 1
        assert kernel.platform.bus.peek(
            dentry_pa + DENTRY.field("d_inode").byte_offset
        ) == 0

    def test_unlink_missing_rejected(self, vfs):
        with pytest.raises(AllocationError):
            vfs.unlink("/missing")

    def test_chmod_chown(self, kernel, vfs):
        task = kernel.procs.current
        handle = vfs.open("/attrs", create=True)
        kernel.sys.fchmod(task, handle, 0o600)
        kernel.sys.fchown(task, handle, 42, 43)
        node = vfs.lookup("/attrs")
        assert kernel.read_field(node.inode_pa, INODE, "i_mode") == 0o600
        assert kernel.read_field(node.inode_pa, INODE, "i_uid") == 42
        assert kernel.read_field(node.inode_pa, INODE, "i_gid") == 43


class TestFileIO:
    def test_write_extends_and_sets_size(self, kernel, vfs):
        vfs.create("/data")
        handle = vfs.open("/data")
        vfs.write_file(handle, 10_000)
        assert handle.node.size_bytes == 10_000
        assert kernel.read_field(handle.node.inode_pa, INODE, "i_size") == 10_000
        assert len(handle.node.data_pages) == 3
        vfs.close(handle)

    def test_read_respects_eof(self, vfs):
        vfs.create("/short")
        handle = vfs.open("/short")
        vfs.write_file(handle, 100)
        handle.pos = 0
        assert vfs.read_file(handle, 1000) == 100
        assert vfs.read_file(handle, 1000) == 0
        vfs.close(handle)

    def test_open_create_flag(self, vfs):
        handle = vfs.open("/created-on-open", create=True)
        assert vfs.lookup("/created-on-open") is not None
        vfs.close(handle)

    def test_open_missing_rejected(self, vfs):
        with pytest.raises(AllocationError):
            vfs.open("/nope")

    def test_double_close_rejected(self, vfs):
        handle = vfs.open("/f", create=True)
        vfs.close(handle)
        with pytest.raises(AllocationError):
            vfs.close(handle)

    def test_unlink_frees_data_pages(self, kernel, vfs):
        vfs.create("/big")
        handle = vfs.open("/big")
        vfs.write_file(handle, 8 * 4096)
        vfs.close(handle)
        free_before = kernel.allocator.free_pages
        vfs.unlink("/big")
        assert kernel.allocator.free_pages == free_before + 8


class TestLruChurn:
    def test_dput_to_zero_parks_on_lru(self, kernel, vfs):
        node = vfs.create("/lru-test")
        vfs.lookup("/lru-test")  # dget+dput cycle ends at refcount 0
        flags = kernel.read_field(node.dentry_pa, DENTRY, "d_flags")
        assert flags & 0x80  # parked on the LRU

    def test_dget_from_zero_unparks(self, kernel, vfs):
        node = vfs.create("/lru-test2")
        vfs.lookup("/lru-test2")
        handle = vfs.open("/lru-test2")  # holds a reference
        flags = kernel.read_field(node.dentry_pa, DENTRY, "d_flags")
        assert not flags & 0x80
        vfs.close(handle)
