"""Tests for the specification model (feature tree, devices, reductions,
versions)."""

import pytest
from hypothesis import given, strategies as st

from repro.spec import (
    ACC_10,
    ACC_20,
    Feature,
    FeatureKind,
    FeatureRegistry,
    OPENACC_10,
    OPENACC_20_ADDITIONS,
    REDUCTION_OPS,
    SpecVersion,
    reduction_combine,
    reduction_identity,
)
from repro.spec.devices import (
    ACC_DEVICE_DEFAULT,
    ACC_DEVICE_HOST,
    ACC_DEVICE_NONE,
    ACC_DEVICE_NOT_HOST,
    ACC_DEVICE_NVIDIA,
    device_type_by_name,
)
from repro.spec.features import OPENACC_ALL
from repro.spec.reductions import canonical_reduction


class TestSpecVersion:
    def test_ordering(self):
        assert ACC_10 < ACC_20
        assert ACC_10 <= ACC_10
        assert not ACC_20 < ACC_10

    def test_parse_roundtrip(self):
        assert SpecVersion.parse("1.0") == ACC_10
        assert str(ACC_20) == "2.0"


class TestFeatureRegistry:
    def test_counts_are_plausible(self):
        # 1.0 tree: directives + clauses + 14 routines + 2 env vars
        assert len(OPENACC_10) > 90
        assert len(OPENACC_20_ADDITIONS) >= 4

    def test_directive_features_exist(self):
        for fid in ("parallel", "kernels", "data", "host_data", "loop",
                    "cache", "declare", "update", "wait",
                    "parallel loop", "kernels loop"):
            assert fid in OPENACC_10
            assert OPENACC_10[fid].kind is FeatureKind.DIRECTIVE

    def test_clause_parentage(self):
        feature = OPENACC_10["parallel.num_gangs"]
        assert feature.parent == "parallel"
        assert feature.kind is FeatureKind.CLAUSE
        assert feature.directive == "parallel"

    def test_reduction_leaves(self):
        for leaf in ("int_add", "int_logor", "float_max", "double_min"):
            assert f"loop.reduction.{leaf}" in OPENACC_10

    def test_runtime_routines_complete(self):
        routines = [f for f in OPENACC_10 if f.fid.startswith("runtime.")]
        assert len(routines) == 14

    def test_env_vars(self):
        assert "env.ACC_DEVICE_TYPE" in OPENACC_10
        assert "env.ACC_DEVICE_NUM" in OPENACC_10

    def test_20_additions_not_in_10(self):
        for f in OPENACC_20_ADDITIONS:
            assert f.fid not in OPENACC_10

    def test_subtree(self):
        subtree = OPENACC_10.subtree("host_data")
        assert [f.fid for f in subtree] == ["host_data", "host_data.use_device"]

    def test_children(self):
        kids = {f.leaf for f in OPENACC_10.children("update")}
        assert kids == {"host", "device", "if", "async"}

    def test_duplicate_rejected(self):
        registry = FeatureRegistry()
        registry.add(Feature("x", FeatureKind.DIRECTIVE))
        with pytest.raises(ValueError):
            registry.add(Feature("x", FeatureKind.DIRECTIVE))

    def test_validate_tree_catches_orphans(self):
        registry = FeatureRegistry()
        registry.add(Feature("a.b", FeatureKind.CLAUSE, parent="a"))
        with pytest.raises(ValueError):
            registry.validate_tree()

    def test_at_version_monotone(self):
        assert len(OPENACC_ALL.at_version(ACC_10)) < len(OPENACC_ALL.at_version(ACC_20))


class TestDeviceTypes:
    def test_not_host_matches_accelerators(self):
        assert ACC_DEVICE_NVIDIA.matches(ACC_DEVICE_NOT_HOST)
        assert not ACC_DEVICE_HOST.matches(ACC_DEVICE_NOT_HOST)

    def test_default_matches_everything(self):
        assert ACC_DEVICE_NVIDIA.matches(ACC_DEVICE_DEFAULT)
        assert ACC_DEVICE_HOST.matches(ACC_DEVICE_DEFAULT)

    def test_host_request(self):
        assert ACC_DEVICE_HOST.matches(ACC_DEVICE_HOST)
        assert not ACC_DEVICE_NVIDIA.matches(ACC_DEVICE_HOST)

    def test_none_only_matches_none(self):
        assert ACC_DEVICE_NONE.matches(ACC_DEVICE_NONE)
        assert not ACC_DEVICE_NVIDIA.matches(ACC_DEVICE_NONE)

    def test_lookup_by_name(self):
        assert device_type_by_name("acc_device_nvidia") is ACC_DEVICE_NVIDIA
        with pytest.raises(KeyError):
            device_type_by_name("acc_device_quantum")

    def test_vendor_extensions_are_not_host(self):
        for name in ("acc_device_cuda", "acc_device_opencl",
                     "acc_device_xeonphi"):
            assert device_type_by_name(name).not_host

    def test_vendor_aliases_interchangeable(self):
        """Section V-C: CAPS said acc_device_cuda where PGI said
        acc_device_nvidia — same hardware class, so requests match."""
        cuda = device_type_by_name("acc_device_cuda")
        nvidia = device_type_by_name("acc_device_nvidia")
        assert cuda.matches(nvidia) and nvidia.matches(cuda)
        radeon = device_type_by_name("acc_device_radeon")
        assert not radeon.matches(nvidia)


class TestReductions:
    def test_identities(self):
        assert reduction_identity("+", "int") == 0
        assert reduction_identity("*", "int") == 1
        assert reduction_identity("max", "float") == float("-inf")
        assert reduction_identity("&&", "int") == 1
        assert reduction_identity("&", "int") == -1

    def test_combine(self):
        assert reduction_combine("+", 3, 4) == 7
        assert reduction_combine("max", 3, 9) == 9
        assert reduction_combine("&&", 1, 0) == 0
        assert reduction_combine("|", 4, 1) == 5

    def test_fortran_aliases(self):
        assert canonical_reduction(".and.") == "&&"
        assert canonical_reduction("iand") == "&"
        assert canonical_reduction("IEOR") == "^"

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=50))
    def test_add_reduction_matches_sum(self, values):
        acc = reduction_identity("+", "int")
        for v in values:
            acc = reduction_combine("+", acc, v)
        assert acc == sum(values)

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=50))
    def test_max_reduction_matches_max(self, values):
        acc = reduction_identity("max", "int")
        for v in values:
            acc = reduction_combine("max", acc, v)
        assert acc == max(values)

    @given(st.lists(st.integers(0, 2**30), min_size=1, max_size=50),
           st.sampled_from(["&", "|", "^"]))
    def test_bitwise_reductions_associative(self, values, op):
        """Identity-seeded left fold equals pairwise tree combination."""
        left = reduction_identity(op, "int")
        for v in values:
            left = reduction_combine(op, left, v)
        # tree-shaped combination
        work = list(values)
        while len(work) > 1:
            nxt = []
            for i in range(0, len(work) - 1, 2):
                nxt.append(reduction_combine(op, work[i], work[i + 1]))
            if len(work) % 2:
                nxt.append(work[-1])
            work = nxt
        assert reduction_combine(op, reduction_identity(op, "int"), work[0]) == left

    def test_floating_only_ops_flagged(self):
        assert not REDUCTION_OPS["&"].floating_ok
        assert REDUCTION_OPS["+"].floating_ok
