"""Tests for the accelerator simulator: values, memory, async queues,
machine and the runtime library."""

import itertools
import math

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
from repro.compiler import Compiler
from repro.spec.devices import (
    ACC_DEVICE_HOST,
    ACC_DEVICE_NONE,
    ACC_DEVICE_NOT_HOST,
    ACC_DEVICE_NVIDIA,
)


class _NestedArray:
    """Reference model of :class:`ArrayValue`: nested Python lists, one
    level per dimension, indexed in declared index space."""

    def __init__(self, shape, lowers):
        self.shape, self.lowers = tuple(shape), tuple(lowers)
        self.rows = self._zeros(self.shape)

    @classmethod
    def _zeros(cls, shape):
        if len(shape) == 1:
            return [0] * shape[0]
        return [cls._zeros(shape[1:]) for _ in range(shape[0])]

    def _offsets(self, indices):
        if len(indices) != len(self.shape):
            raise AccRuntimeError(
                f"rank mismatch: {len(indices)} subscripts for "
                f"rank-{len(self.shape)} array")
        offsets = [i - lo for i, lo in zip(indices, self.lowers)]
        if not all(0 <= o < n for o, n in zip(offsets, self.shape)):
            raise AccRuntimeError(
                f"index out of bounds: subscript {indices} for shape "
                f"{self.shape} (lower bounds {self.lowers})")
        return offsets

    def get(self, indices):
        node = self.rows
        for o in self._offsets(indices):
            node = node[o]
        return node

    def set(self, indices, value):
        *outer, last = self._offsets(indices)
        node = self.rows
        for o in outer:
            node = node[o]
        node[last] = int(value)

    @staticmethod
    def _flatten(node):
        if not isinstance(node, list):
            return [node]
        return [x for child in node for x in _NestedArray._flatten(child)]

    def read_section(self, start, length):
        lo = start - self.lowers[0]
        if lo < 0 or lo + length > self.shape[0]:
            raise AccRuntimeError(
                f"section [{start}:{start + length}) outside array bounds")
        return self._flatten(self.rows[lo:lo + length])

    def write_section(self, start, values):
        rows = range(start, start + len(values) // math.prod(self.shape[1:]))
        inner = (range(lo, lo + n)
                 for lo, n in zip(self.lowers[1:], self.shape[1:]))
        for index, value in zip(itertools.product(rows, *inner), values):
            self.set(list(index), value)


def _outcome(op, *args):
    """``("ok", result)`` or ``(exception type, message)`` of ``op(*args)``."""
    try:
        return "ok", op(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison is the test
        return type(exc), str(exc)


@st.composite
def _nested_array_script(draw):
    """A rank 1-3 array (Fortran-style lower bounds included) and the
    stores, reads and whole-row sections to replay on it; subscripts,
    ranks and sections stray outside the array."""
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=rank,
                                max_size=rank)))
    lowers = tuple(draw(st.lists(st.integers(-3, 3), min_size=rank,
                                 max_size=rank)))

    def index():
        n = draw(st.sampled_from([rank, rank, rank, rank - 1, rank + 1]))
        dims = [(lo, ext) for lo, ext in zip(lowers, shape)]
        dims += [(0, 2)] * (n - len(dims))
        return [draw(st.integers(lo - 2, lo + ext + 1)) for lo, ext in dims[:n]]

    stores = [(index(), draw(st.integers(-10**6, 10**6)))
              for _ in range(draw(st.integers(0, 12)))]
    probes = [index() for _ in range(draw(st.integers(0, 12)))]
    sections = [(draw(st.integers(lowers[0] - 2, lowers[0] + shape[0])),
                 draw(st.integers(0, shape[0] + 1)))
                for _ in range(draw(st.integers(0, 4)))]
    return shape, lowers, stores, probes, sections


class TestStoreSemantics:
    """What a store into an array element holds: integer element types
    keep int64 values (``int()`` truncates toward zero, outside int64
    raises), floating ones doubles.  Pinned identically on the rank-1 fast
    path, the general rank-n path and the ``fill`` initialiser."""

    _INT_BASES = ("int", "long", "char", "bool")

    @staticmethod
    def _store_paths(base, value):
        """The value read back after each kind of store."""
        rank1 = ArrayValue((3,), base, lowers=(1,))
        rank1.set([2], value)
        rank2 = ArrayValue((2, 3), base)
        rank2.set([1, 2], value)
        filled = ArrayValue((2,), base, fill=value)
        return [rank1.get([2]), rank2.get([1, 2]), filled.get([1])]

    @pytest.mark.parametrize("base", _INT_BASES)
    @pytest.mark.parametrize("value, stored", [
        (2.7, 2), (-2.7, -2), (0.5, 0), (True, 1), (False, 0), ("3", 3),
        (2**63 - 1, 2**63 - 1), (-2**63, -2**63),
    ])
    def test_int_store_converts(self, base, value, stored):
        got = self._store_paths(base, value)
        assert got == [stored] * 3
        assert all(type(v) is int for v in got)

    @pytest.mark.parametrize("base", _INT_BASES)
    @pytest.mark.parametrize("value, error, message", [
        (float("nan"), ValueError, "cannot convert float NaN to integer"),
        (float("inf"), OverflowError,
         "cannot convert float infinity to integer"),
        (float("-inf"), OverflowError,
         "cannot convert float infinity to integer"),
        (2**63, OverflowError, "Python int too large to convert to C long"),
        (-2**63 - 1, OverflowError,
         "Python int too large to convert to C long"),
        (1e19, OverflowError, "Python int too large to convert to C long"),
    ])
    def test_int_store_rejects(self, base, value, error, message):
        for shape, index in (((3,), [1]), ((2, 3), [1, 2])):
            a = ArrayValue(shape, base)
            with pytest.raises(error) as got:
                a.set(index, value)
            assert str(got.value) == message
            assert a.get(index) == 0
        with pytest.raises(error) as got:
            ArrayValue((2,), base, fill=value)
        assert str(got.value) == message

    @pytest.mark.parametrize("base", ["float", "double"])
    @pytest.mark.parametrize("value, stored", [
        (3, 3.0), (-7, -7.0), (True, 1.0), (2.5, 2.5), ("3.5", 3.5),
        (2**63, 9.223372036854776e18),
    ])
    def test_float_store_reads_back_a_float(self, base, value, stored):
        got = self._store_paths(base, value)
        assert got == [stored] * 3
        assert all(type(v) is float for v in got)

    def test_retyping_a_device_buffer_converts_elements(self):
        p = DevicePointer(nbytes=32)
        d = p.as_array("double")
        for i, v in enumerate((2.7, -2.7, 0.0, 5.5)):
            d.set([i], v)
        ints = p.as_array("int")  # 4-byte elements: 8 of them
        assert [ints.get([i]) for i in range(8)] == [2, -2, 0, 5, 0, 0, 0, 0]
        assert all(type(ints.get([i])) is int for i in range(8))
        ints.set([7], 9)
        back = p.as_array("double")
        assert [back.get([i]) for i in range(4)] == [2.0, -2.0, 0.0, 5.0]
        assert all(type(back.get([i])) is float for i in range(4))
        longs = p.as_array("long")  # same length, other type: converted
        assert [longs.get([i]) for i in range(4)] == [2, -2, 0, 5]

    def test_transfer_byte_counts_rank1(self):
        memory = DeviceMemory()
        host = ArrayValue((10,), "int")
        cell = Cell(host, name="a")
        mapping = memory.enter("copy", cell, 2, 3)
        assert memory.bytes_allocated == 24
        assert memory.bytes_to_device == 24
        memory.update_host(cell, 3, 1)
        assert memory.bytes_to_host == 8
        memory.exit(mapping)
        assert memory.bytes_to_host == 32
        assert memory.bytes_allocated == 0

    def test_transfer_byte_counts_and_rows_rank2(self):
        memory = DeviceMemory()
        host = ArrayValue((4, 3), "double", lowers=(1, 1))
        for r in range(1, 5):
            for c in range(1, 4):
                host.set([r, c], 10 * r + c)
        cell = Cell(host, name="a")
        mapping = memory.enter("copyin", cell, 2, 2)  # rows 2..3
        device = mapping.device_data
        assert memory.bytes_allocated == 2 * 3 * 8
        assert memory.bytes_to_device == 48
        assert [[device.get([r, c]) for c in range(1, 4)] for r in (2, 3)] \
            == [[21.0, 22.0, 23.0], [31.0, 32.0, 33.0]]
        device.set([3, 2], -1.5)
        memory.update_host(cell, 3, 1)
        assert memory.bytes_to_host == 24
        assert [host.get([3, c]) for c in range(1, 4)] == [31.0, -1.5, 33.0]
        assert host.get([2, 2]) == 22.0
        memory.exit(mapping)
        assert memory.bytes_to_host == 24  # copyin: no copyout
        assert memory.bytes_allocated == 0

    @pytest.mark.parametrize("salt", [1, 5, 977])
    def test_garbage_pattern_is_one_formula(self, salt):
        expected = [((salt * 2654435761 + i * 40503) % 1000003) - 500000
                    for i in range(6)]
        ints = ArrayValue((6,), "int")
        fill_garbage(ints, salt)
        assert [ints.get([i]) for i in range(6)] == expected
        floats = ArrayValue((2, 3), "double")  # row-major, scaled by 1e-3
        fill_garbage(floats, salt)
        got = [floats.get([r, c]) for r in range(2) for c in range(3)]
        assert got == [p * 1e-3 for p in expected]
        assert all(type(v) is float for v in got)


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
        a.write_section(1, list(range(10)))
        section = a.read_section(3, 4)  # declared indices 3..6
        assert list(section) == [2, 3, 4, 5]
        a.write_section(3, [9, 9, 9, 9])
        assert a.get([3]) == 9 and a.get([6]) == 9

    def test_clone_is_independent(self):
        a = ArrayValue((3,), "int")
        b = a.clone()
        b.set([0], 5)
        assert a.get([0]) == 0

    @given(_nested_array_script())
    def test_indexing_matches_nested_list_model(self, script):
        shape, lowers, stores, probes, sections = script
        model = _NestedArray(shape, lowers)
        a = ArrayValue(shape, "int", lowers=lowers)
        for index, value in stores:
            assert _outcome(model.set, index, value) == _outcome(a.set, index,
                                                                 value)
        for index in probes:
            assert _outcome(model.get, index) == _outcome(a.get, index)
        for start, length in sections:
            rows = _outcome(model.read_section, start, length)
            assert rows == _outcome(a.read_section, start, length)
            if rows[0] == "ok":
                # write the rows back reversed, then compare every element
                values = rows[1][::-1]
                model.write_section(start, values)
                a.write_section(start, values)
        for index in itertools.product(*(range(lo, lo + n)
                                         for lo, n in zip(lowers, shape))):
            assert a.get(list(index)) == model.get(list(index))

    @given(st.integers(1, 12), st.integers(-3, 3), st.integers(-20, 20),
           st.sampled_from(["int", "double"]))
    def test_rank1_access_matches_declared_space(self, n, lower, index, base):
        # rank-1 get/set take a fast path: same values, same Python types,
        # same bounds checks and messages as the general offset computation
        a = ArrayValue((n,), base, lowers=(lower,))
        for i in range(n):
            a.set([lower + i], i)
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
        mapping = memory.enter("copy", cell, skip_scalar_transfer=lambda: True)
        assert mapping.device_data != 5  # garbage, not copied
        mapping.device_data = 7
        memory.exit(mapping)
        assert cell.value == 5  # no copyout either (Cray bug)

    def test_scalar_skip_transfer_hook_is_asked_only_where_it_decides(self):
        asked = []

        def skip():
            asked.append(True)
            return True

        memory = DeviceMemory()
        scalar = Cell(5, name="flag")
        array, _host = self._cell(fill=1)
        memory.enter("copy", array, 0, 4, skip_scalar_transfer=skip)
        memory.enter("create", scalar, skip_scalar_transfer=skip)
        assert asked == []  # an array, and an action that transfers nothing
        memory.enter("copy", scalar, skip_scalar_transfer=skip)  # present
        assert asked == []
        memory.enter("copyin", Cell(5, name="other"), skip_scalar_transfer=skip)
        assert asked == [True]

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
        assert memory.bytes_allocated == mapping.device_data.nbytes == 80
        memory.exit(mapping)
        assert memory.bytes_allocated == 0

    def test_fill_garbage_deterministic(self):
        a = ArrayValue((8,), "int")
        b = ArrayValue((8,), "int")
        fill_garbage(a, 3)
        fill_garbage(b, 3)
        assert list(a.data) == list(b.data)
        fill_garbage(b, 4)
        assert list(a.data) != list(b.data)

    @given(st.integers(1, 30), st.integers(0, 10))
    def test_section_copy_roundtrip(self, n, start_off):
        length = max(1, n - start_off)
        if start_off + length > n:
            length = n - start_off
        if length <= 0:
            return
        memory = DeviceMemory()
        host = ArrayValue((n,), "int")
        for i in range(n):
            host.set([i], i)
        cell = Cell(host, name="h")
        mapping = memory.enter("copy", cell, start_off, length)
        memory.exit(mapping)
        assert [host.get([i]) for i in range(n)] == list(range(n))


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
        # outside a compute region the executor answers for the host
        src = ("int main(){ return acc_on_device(acc_device_host) == 1"
               " && acc_on_device(acc_device_not_host) == 0; }")
        assert Compiler().compile(src, "c").run().value == 1

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
