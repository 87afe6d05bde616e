"""The OpenACC feature tree.

Per the paper (Section I): "The tests are generated in the form of a tree
structure: it begins by covering OpenACC directives followed by clauses
belonging to those directives, as well as the runtime routines and
environment variables."  This module encodes that tree for the 1.0 feature
set, plus the 2.0 additions the paper discusses in Section V-C, so the suite
registry, the vendor bug tables and the analysis layer can all refer to
features by stable dotted identifiers (e.g. ``parallel.num_gangs``,
``loop.reduction.float_add``, ``runtime.acc_async_test``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.spec.versions import ACC_10, ACC_20, SpecVersion


class FeatureKind(Enum):
    DIRECTIVE = "directive"
    CLAUSE = "clause"
    RUNTIME_ROUTINE = "runtime_routine"
    ENV_VAR = "env_var"


@dataclass(frozen=True)
class Feature:
    """A node in the feature tree.

    ``fid`` is the dotted identifier; ``parent`` the enclosing feature (a
    clause's parent is its directive), ``since`` the spec version that
    introduced it.
    """

    fid: str
    kind: FeatureKind
    parent: Optional[str] = None
    since: SpecVersion = ACC_10
    description: str = ""

    @property
    def leaf(self) -> str:
        return self.fid.rsplit(".", 1)[-1]

    @property
    def directive(self) -> str:
        """Root directive name for directive/clause features."""
        return self.fid.split(".", 1)[0]


class FeatureRegistry:
    """Ordered registry of features with tree navigation."""

    def __init__(self, features: Iterable[Feature] = ()):
        self._by_id: Dict[str, Feature] = {}
        for f in features:
            self.add(f)

    def add(self, feature: Feature) -> Feature:
        if feature.fid in self._by_id:
            raise ValueError(f"duplicate feature id {feature.fid!r}")
        self._by_id[feature.fid] = feature
        return feature

    def validate_tree(self) -> None:
        """Check every child's parent is present (full registries only —
        version-filtered sub-registries may legitimately contain orphans)."""
        for f in self:
            if f.parent is not None and f.parent not in self._by_id:
                raise ValueError(
                    f"feature {f.fid!r} references missing parent {f.parent!r}"
                )

    def __contains__(self, fid: str) -> bool:
        return fid in self._by_id

    def __getitem__(self, fid: str) -> Feature:
        return self._by_id[fid]

    def __iter__(self) -> Iterator[Feature]:
        return iter(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    def children(self, fid: str) -> List[Feature]:
        return [f for f in self if f.parent == fid]

    def subtree(self, fid: str) -> List[Feature]:
        """The feature and all transitive children, preorder."""
        out = [self[fid]]
        for child in self.children(fid):
            out.extend(self.subtree(child.fid))
        return out

    def at_version(self, version: SpecVersion) -> "FeatureRegistry":
        """Sub-registry of features available at ``version``."""
        return FeatureRegistry(f for f in self if f.since <= version)

    def ids(self) -> List[str]:
        return list(self._by_id)


def _build_registry() -> FeatureRegistry:
    r = FeatureRegistry()
    D, C = FeatureKind.DIRECTIVE, FeatureKind.CLAUSE

    def directive(fid: str, desc: str, since: SpecVersion = ACC_10) -> None:
        r.add(Feature(fid, D, None, since, desc))

    def clause(parent: str, name: str, desc: str = "", since: SpecVersion = ACC_10) -> None:
        r.add(Feature(f"{parent}.{name}", C, parent, since, desc))

    # -- compute constructs -------------------------------------------------
    directive("parallel", "accelerator parallel region: launches gangs")
    for c, d in [
        ("if", "conditional offload"),
        ("async", "asynchronous execution"),
        ("num_gangs", "number of gangs executing the region"),
        ("num_workers", "workers per gang"),
        ("vector_length", "vector lanes per worker"),
        ("reduction", "reduction across gangs"),
        ("private", "gang-private copies"),
        ("firstprivate", "gang-private copies initialised from host"),
        ("copy", "copyin at entry, copyout at exit"),
        ("copyin", "copy host->device at entry"),
        ("copyout", "copy device->host at exit"),
        ("create", "device allocation, no transfer"),
        ("present", "data must already be on device"),
        ("present_or_copy", "reuse if present else copy"),
        ("present_or_copyin", "reuse if present else copyin"),
        ("present_or_copyout", "reuse if present else copyout"),
        ("present_or_create", "reuse if present else create"),
        ("deviceptr", "list holds device pointers"),
    ]:
        clause("parallel", c, d)

    directive("kernels", "accelerator kernels region: compiler-found parallelism")
    for c in [
        "if", "async", "copy", "copyin", "copyout", "create", "present",
        "present_or_copy", "present_or_copyin", "present_or_copyout",
        "present_or_create", "deviceptr",
    ]:
        clause("kernels", c)

    # -- data constructs ----------------------------------------------------
    directive("data", "structured data region")
    for c in [
        "if", "copy", "copyin", "copyout", "create", "present",
        "present_or_copy", "present_or_copyin", "present_or_copyout",
        "present_or_create", "deviceptr",
    ]:
        clause("data", c)

    directive("host_data", "make device addresses visible on the host")
    clause("host_data", "use_device", "use device address in host code")

    # -- loop construct -----------------------------------------------------
    directive("loop", "loop mapping onto gang/worker/vector parallelism")
    for c, d in [
        ("gang", "distribute iterations across gangs"),
        ("worker", "distribute iterations across workers"),
        ("vector", "distribute iterations across vector lanes"),
        ("collapse", "associate N tightly nested loops"),
        ("seq", "execute sequentially"),
        ("independent", "assert iterations are data-independent"),
        ("private", "loop-private copies"),
        ("reduction", "loop reduction"),
    ]:
        clause("loop", c, d)
    # reduction leaf features: type x operator (Section IV-C4)
    _INT_OPS = ["add", "mul", "max", "min", "bitand", "bitor", "bitxor", "logand", "logor"]
    _FLT_OPS = ["add", "mul", "max", "min"]
    for op in _INT_OPS:
        r.add(Feature(f"loop.reduction.int_{op}", C, "loop.reduction", ACC_10))
    for op in _FLT_OPS:
        r.add(Feature(f"loop.reduction.float_{op}", C, "loop.reduction", ACC_10))
        r.add(Feature(f"loop.reduction.double_{op}", C, "loop.reduction", ACC_10))

    # -- combined constructs ------------------------------------------------
    directive("parallel loop", "combined parallel + loop")
    clause("parallel loop", "reduction")
    clause("parallel loop", "private")
    directive("kernels loop", "combined kernels + loop")
    clause("kernels loop", "reduction")

    # -- other directives ---------------------------------------------------
    directive("cache", "cache frequently-accessed subarrays")
    directive("declare", "module/function-scope data lifetimes")
    for c in [
        "copy", "copyin", "copyout", "create", "present", "deviceptr",
        "device_resident",
    ]:
        clause("declare", c)
    directive("update", "synchronise host and device copies inside a data region")
    for c in ["host", "device", "if", "async"]:
        clause("update", c)
    directive("wait", "wait for asynchronous activities")

    # -- 2.0 additions discussed in Section V-C ------------------------------
    directive("enter data", "unstructured data lifetime begin", ACC_20)
    directive("exit data", "unstructured data lifetime end", ACC_20)
    directive("routine", "compile a procedure for the device", ACC_20)
    clause("parallel", "default_none", "default(none): no implicit attributes", ACC_20)

    # -- runtime library ----------------------------------------------------
    RT = FeatureKind.RUNTIME_ROUTINE
    for name, since in [
        ("acc_get_num_devices", ACC_10),
        ("acc_set_device_type", ACC_10),
        ("acc_get_device_type", ACC_10),
        ("acc_set_device_num", ACC_10),
        ("acc_get_device_num", ACC_10),
        ("acc_async_test", ACC_10),
        ("acc_async_test_all", ACC_10),
        ("acc_async_wait", ACC_10),
        ("acc_async_wait_all", ACC_10),
        ("acc_init", ACC_10),
        ("acc_shutdown", ACC_10),
        ("acc_on_device", ACC_10),
        ("acc_malloc", ACC_10),
        ("acc_free", ACC_10),
    ]:
        r.add(Feature(f"runtime.{name}", RT, None, since))

    # -- environment variables ----------------------------------------------
    EV = FeatureKind.ENV_VAR
    r.add(Feature("env.ACC_DEVICE_TYPE", EV))
    r.add(Feature("env.ACC_DEVICE_NUM", EV))
    r.validate_tree()
    return r


#: All features through 2.0.
_FULL = _build_registry()

#: The 1.0 feature set the paper's suite covers.
OPENACC_10: FeatureRegistry = _FULL.at_version(ACC_10)

#: The 2.0 additions of Section V-C (forward-looking framework support).
OPENACC_20_ADDITIONS: FeatureRegistry = FeatureRegistry(
    f for f in _FULL if f.since == ACC_20
)

#: Everything.
OPENACC_ALL: FeatureRegistry = _FULL
