"""Tests for the accelerator simulator: values, memory, async queues,
machine and the runtime library."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.accsim import (
    AccRuntime,
    ArrayValue,
    AsyncQueues,
    Cell,
    DeviceMemory,
    DevicePointer,
    Machine,
    apply_environment,
)
from repro.accsim.errors import (
    AccRuntimeError,
    DeviceAllocationError,
    InvalidDeviceError,
    PresentError,
)
from repro.accsim.memory import fill_garbage
from repro.spec.devices import (
    ACC_DEVICE_HOST,
    ACC_DEVICE_NONE,
    ACC_DEVICE_NOT_HOST,
    ACC_DEVICE_NVIDIA,
)


class TestArrayValue:
    def test_zero_based_indexing(self):
        a = ArrayValue((5,), "int")
        a.set([2], 7)
        assert a.get([2]) == 7

    def test_fortran_lower_bounds(self):
        a = ArrayValue((5,), "int", lowers=(1,))
        a.set([1], 42)
        a.set([5], 43)
        assert a.get([1]) == 42 and a.get([5]) == 43

    def test_out_of_bounds_raises(self):
        a = ArrayValue((3,), "int", lowers=(1,))
        with pytest.raises(AccRuntimeError):
            a.get([0])
        with pytest.raises(AccRuntimeError):
            a.get([4])

    def test_rank_mismatch_raises(self):
        a = ArrayValue((3, 3), "int")
        with pytest.raises(AccRuntimeError):
            a.get([1])

    def test_negative_extent_rejected(self):
        with pytest.raises(AccRuntimeError):
            ArrayValue((-1,), "int")

    def test_float_roundtrip(self):
        a = ArrayValue((2,), "double")
        a.set([0], 2.5)
        assert a.get([0]) == 2.5
        assert isinstance(a.get([0]), float)

    def test_sections_respect_declared_space(self):
        a = ArrayValue((10,), "int", lowers=(1,))
        a.data[:] = np.arange(10)
        section = a.read_section(3, 4)  # declared indices 3..6
        assert list(section) == [2, 3, 4, 5]
        a.write_section(3, np.array([9, 9, 9, 9]))
        assert a.get([3]) == 9 and a.get([6]) == 9

    def test_clone_is_independent(self):
        a = ArrayValue((3,), "int")
        b = a.clone()
        b.set([0], 5)
        assert a.get([0]) == 0

    @given(st.integers(1, 50), st.integers(-5, 5))
    def test_indexing_matches_numpy(self, n, lower):
        a = ArrayValue((n,), "int", lowers=(lower,))
        a.data[:] = np.arange(n)
        for offset in (0, n // 2, n - 1):
            assert a.get([lower + offset]) == offset


    @given(st.integers(1, 12), st.integers(-3, 3), st.integers(-20, 20),
           st.sampled_from(["int", "double"]))
    def test_rank1_access_matches_declared_space(self, n, lower, index, base):
        # rank-1 get/set take a fast path: same values, same Python types,
        # same bounds checks and messages as the general offset computation
        a = ArrayValue((n,), base, lowers=(lower,))
        a.data[:] = np.arange(n)
        if lower <= index < lower + n:
            value = a.get([index])
            assert value == index - lower
            assert type(value) is (float if base == "double" else int)
            a.set([index], 7)
            assert a.data[index - lower] == 7
            return
        message = (f"index out of bounds: subscript {[index]} for shape "
                   f"{(n,)} (lower bounds {(lower,)})")
        with pytest.raises(AccRuntimeError) as got:
            a.get([index])
        assert str(got.value) == message
        with pytest.raises(AccRuntimeError) as got:
            a.set([index], 1)
        assert str(got.value) == message


class TestDevicePointer:
    def test_as_array_sizes_by_itemsize(self):
        p = DevicePointer(nbytes=40)
        assert p.as_array("int").length == 10
        p2 = DevicePointer(nbytes=40)
        assert p2.as_array("double").length == 5

    def test_use_after_free_raises(self):
        memory = DeviceMemory()
        p = memory.malloc(16)
        memory.free(p)
        with pytest.raises(AccRuntimeError):
            p.as_array("int")

    def test_double_free_raises(self):
        memory = DeviceMemory()
        p = memory.malloc(16)
        memory.free(p)
        with pytest.raises(DeviceAllocationError):
            memory.free(p)


class TestDeviceMemory:
    def _cell(self, n=4, fill=0):
        a = ArrayValue((n,), "int", fill=fill)
        return Cell(a, name="a"), a

    def test_copy_roundtrip(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=3)
        mapping = memory.enter("copy", cell, 0, 4)
        assert mapping.device_data.get([1]) == 3  # copied in
        mapping.device_data.set([1], 99)
        memory.exit(mapping)
        assert host.get([1]) == 99  # copied out
        assert not memory.is_present(cell)

    def test_copyin_no_writeback(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=5)
        mapping = memory.enter("copyin", cell, 0, 4)
        mapping.device_data.set([0], -1)
        memory.exit(mapping)
        assert host.get([0]) == 5

    def test_copyout_garbage_in(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=7)
        mapping = memory.enter("copyout", cell, 0, 4)
        # fresh allocation must NOT contain the host values
        assert mapping.device_data.get([0]) != 7
        mapping.device_data.set([0], 1)
        mapping.device_data.set([1], 2)
        mapping.device_data.set([2], 3)
        mapping.device_data.set([3], 4)
        memory.exit(mapping)
        assert [host.get([i]) for i in range(4)] == [1, 2, 3, 4]

    def test_create_no_transfers(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=11)
        mapping = memory.enter("create", cell, 0, 4)
        mapping.device_data.set([0], 1)
        memory.exit(mapping)
        assert host.get([0]) == 11

    def test_present_requires_mapping(self):
        memory = DeviceMemory()
        cell, _ = self._cell()
        with pytest.raises(PresentError):
            memory.enter("present", cell)

    def test_present_refcounts(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=1)
        outer = memory.enter("copy", cell, 0, 4)
        inner = memory.enter("present", cell, 0, 4)
        assert inner is outer and outer.refcount == 2
        memory.exit(inner)
        assert memory.is_present(cell)
        outer.device_data.set([0], 42)
        memory.exit(outer)
        assert host.get([0]) == 42

    def test_present_or_copy_reuses(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=1)
        outer = memory.enter("copyin", cell, 0, 4)
        inner = memory.enter("present_or_copy", cell, 0, 4)
        assert inner is outer
        inner.device_data.set([0], 9)
        memory.exit(inner)
        memory.exit(outer)
        # the copyin owner never writes back
        assert host.get([0]) == 1

    def test_alias_cells_share_mapping(self):
        """A parameter bound to the caller's array must see its mapping."""
        memory = DeviceMemory()
        cell, host = self._cell(fill=2)
        alias = Cell(host, name="param")
        memory.enter("copyin", cell, 0, 4)
        assert memory.is_present(alias)

    def test_scalar_copy(self):
        memory = DeviceMemory()
        cell = Cell(5, name="flag")
        mapping = memory.enter("copy", cell)
        assert mapping.device_data == 5
        mapping.device_data = 6
        memory.exit(mapping)
        assert cell.value == 6

    def test_scalar_skip_transfer_hook(self):
        memory = DeviceMemory()
        cell = Cell(5, name="flag")
        mapping = memory.enter("copy", cell, skip_scalar_transfer=True)
        assert mapping.device_data != 5  # garbage, not copied
        mapping.device_data = 7
        memory.exit(mapping)
        assert cell.value == 5  # no copyout either (Cray bug)

    def test_update_host_device(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=1)
        mapping = memory.enter("copyin", cell, 0, 4)
        host.set([0], 50)
        memory.update_device(cell, 0, 1)
        assert mapping.device_data.get([0]) == 50
        mapping.device_data.set([1], 60)
        memory.update_host(cell, 1, 1)
        assert host.get([1]) == 60

    def test_update_absent_raises(self):
        memory = DeviceMemory()
        cell, _ = self._cell()
        with pytest.raises(PresentError):
            memory.update_host(cell)

    def test_unstructured_delete_and_copyout(self):
        memory = DeviceMemory()
        cell, host = self._cell(fill=0)
        memory.enter("copyin", cell, 0, 4)
        memory.lookup(cell).device_data.set([0], 8)
        memory.force_copyout(cell)
        assert host.get([0]) == 8
        assert not memory.is_present(cell)
        memory.enter("create", cell, 0, 4)
        memory.delete(cell)
        assert not memory.is_present(cell)

    def test_bytes_accounting(self):
        memory = DeviceMemory()
        cell, _ = self._cell(n=10)
        mapping = memory.enter("create", cell, 0, 10)
        assert memory.bytes_allocated == mapping.device_data.data.nbytes
        memory.exit(mapping)
        assert memory.bytes_allocated == 0

    def test_fill_garbage_deterministic(self):
        a = ArrayValue((8,), "int")
        b = ArrayValue((8,), "int")
        fill_garbage(a, 3)
        fill_garbage(b, 3)
        assert np.array_equal(a.data, b.data)
        fill_garbage(b, 4)
        assert not np.array_equal(a.data, b.data)

    @given(st.integers(1, 30), st.integers(0, 10))
    def test_section_copy_roundtrip(self, n, start_off):
        length = max(1, n - start_off)
        if start_off + length > n:
            length = n - start_off
        if length <= 0:
            return
        memory = DeviceMemory()
        host = ArrayValue((n,), "int")
        host.data[:] = np.arange(n)
        cell = Cell(host, name="h")
        mapping = memory.enter("copy", cell, start_off, length)
        memory.exit(mapping)
        assert list(host.data) == list(range(n))


class TestAsyncQueues:
    def test_deferred_execution(self):
        q = AsyncQueues()
        fired = []
        q.enqueue(1, lambda: fired.append("a"))
        assert not q.test(1)
        assert fired == []
        q.wait(1)
        assert fired == ["a"]
        assert q.test(1)

    def test_queues_independent(self):
        q = AsyncQueues()
        q.enqueue(1, lambda: None)
        assert q.test(2)
        assert not q.test_all()

    def test_default_queue(self):
        q = AsyncQueues()
        fired = []
        q.enqueue(None, lambda: fired.append(1))
        assert not q.test(None)
        q.wait(None)
        assert fired == [1]

    def test_wait_all_drains_everything(self):
        q = AsyncQueues()
        fired = []
        for tag in (1, 2, None):
            q.enqueue(tag, lambda t=tag: fired.append(t))
        q.wait_all()
        assert q.test_all() and len(fired) == 3

    def test_order_within_queue(self):
        q = AsyncQueues()
        fired = []
        q.enqueue(5, lambda: fired.append(1))
        q.enqueue(5, lambda: fired.append(2))
        q.wait(5)
        assert fired == [1, 2]

    def test_logical_clock(self):
        q = AsyncQueues()
        q.enqueue(1, lambda: None)
        q.enqueue(1, lambda: None)
        assert q.enqueued == 2 and q.completed == 0
        q.wait(1)
        assert q.completed == 2


class TestMachineAndRuntime:
    def test_current_device_prefers_accelerator(self):
        m = Machine()
        assert m.current_device().device_type is ACC_DEVICE_NVIDIA

    def test_set_host_type(self):
        m = Machine()
        m.set_device_type(ACC_DEVICE_HOST)
        assert m.current_device().is_host

    def test_bad_device_num(self):
        m = Machine(accel_count=1)
        m.set_device_num(5)
        with pytest.raises(InvalidDeviceError):
            m.current_device()

    def test_num_devices(self):
        rt = AccRuntime(Machine(accel_count=2))
        assert rt.acc_get_num_devices(ACC_DEVICE_NOT_HOST) == 2
        assert rt.acc_get_num_devices(ACC_DEVICE_NONE) == 0

    def test_device_type_roundtrip(self):
        rt = AccRuntime(Machine())
        rt.acc_set_device_type(ACC_DEVICE_NOT_HOST)
        concrete = rt.acc_get_device_type()
        assert concrete.not_host

    def test_on_device_host_binding(self):
        rt = AccRuntime(Machine())
        assert rt.acc_on_device(ACC_DEVICE_HOST) == 1
        assert rt.acc_on_device(ACC_DEVICE_NOT_HOST) == 0

    def test_shutdown_flushes_and_resets(self):
        m = Machine()
        rt = AccRuntime(m)
        dev = m.current_device()
        fired = []
        dev.queues.enqueue(1, lambda: fired.append(1))
        rt.acc_shutdown(ACC_DEVICE_NOT_HOST)
        assert fired == [1]
        assert m.current_device().queues.pending() == 0

    def test_async_hook_override(self):
        class Hooks:
            def hook_async_test(self, tag, result):
                return -1

        rt = AccRuntime(Machine(), hooks=Hooks())
        assert rt.acc_async_test(3) == -1

    def test_env_device_type(self):
        m = Machine()
        apply_environment(m, {"ACC_DEVICE_TYPE": "HOST"})
        assert m.current_device().is_host

    def test_env_device_num_invalid(self):
        m = Machine()
        with pytest.raises(InvalidDeviceError):
            apply_environment(m, {"ACC_DEVICE_NUM": "zero"})

    def test_env_unknown_type(self):
        m = Machine()
        with pytest.raises(InvalidDeviceError):
            apply_environment(m, {"ACC_DEVICE_TYPE": "ABACUS"})
