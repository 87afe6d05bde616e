"""Tests for the OpenACC execution model: gang/worker/vector semantics,
data environments, reductions, async behaviour and host_data."""

import contextlib

import pytest

from repro.accsim.errors import AccRuntimeError, PresentError
from repro.compiler import Compiler, CompilerBehavior


CC = Compiler()


def run(src: str, behavior: CompilerBehavior = None, lang="c"):
    compiler = Compiler(behavior) if behavior else CC
    return compiler.compile(src, lang).run()


class TestGangSemantics:
    def test_redundant_execution_without_loop(self):
        """Fig. 2b: each gang increments every element."""
        src = """
int main(){
  int i, a[20];
  for(i=0;i<20;i++) a[i]=0;
  #pragma acc parallel num_gangs(7) copy(a[0:20])
  {
    for(i=0;i<20;i++) a[i] = a[i] + 1;
  }
  return a[3];
}
"""
        assert run(src).value == 7

    def test_worksharing_with_loop(self):
        """Fig. 2a: each element incremented exactly once."""
        src = """
int main(){
  int i, a[20];
  for(i=0;i<20;i++) a[i]=0;
  #pragma acc parallel num_gangs(7) copy(a[0:20])
  {
    #pragma acc loop
    for(i=0;i<20;i++) a[i] = a[i] + 1;
  }
  return a[3];
}
"""
        assert run(src).value == 1

    def test_default_gang_count_from_profile(self):
        src = """
int main(){
  int g = 0;
  #pragma acc parallel reduction(+:g)
  { g++; }
  return g;
}
"""
        behavior = CompilerBehavior(default_num_gangs=5)
        assert run(src, behavior).value == 5

    def test_gang_partition_is_complete_and_disjoint(self):
        src = """
int main(){
  int i, a[33];
  for(i=0;i<33;i++) a[i]=0;
  #pragma acc parallel num_gangs(4) copy(a[0:33])
  {
    #pragma acc loop gang
    for(i=0;i<33;i++) a[i]++;
  }
  int bad = 0;
  for(i=0;i<33;i++) if (a[i] != 1) bad++;
  return bad == 0;
}
"""
        assert run(src).value == 1

    def test_seq_inside_parallel_runs_per_gang(self):
        src = """
int main(){
  int i, a[6];
  for(i=0;i<6;i++) a[i]=0;
  #pragma acc parallel num_gangs(3) copy(a[0:6])
  {
    #pragma acc loop seq
    for(i=0;i<6;i++) a[i]++;
  }
  return a[0];
}
"""
        assert run(src).value == 3


class TestWorkerVector:
    def test_worker_loop_covers_all_iterations(self):
        src = """
int main(){
  int i, a[16];
  for(i=0;i<16;i++) a[i]=0;
  #pragma acc parallel num_gangs(1) num_workers(4) copy(a[0:16])
  {
    #pragma acc loop worker
    for(i=0;i<16;i++) a[i]++;
  }
  int bad = 0;
  for(i=0;i<16;i++) if (a[i] != 1) bad++;
  return bad == 0;
}
"""
        assert run(src).value == 1

    def test_fig1_ambiguity_worker_without_gang(self):
        """A worker loop without a gang loop executes once per gang
        (the redundant-execution reading of the Fig. 1 ambiguity)."""
        src = """
int main(){
  int i, a[8];
  for(i=0;i<8;i++) a[i]=0;
  #pragma acc parallel num_gangs(3) num_workers(2) copy(a[0:8])
  {
    #pragma acc loop worker
    for(i=0;i<8;i++) a[i]++;
  }
  return a[0];
}
"""
        assert run(src).value == 3

    def test_gang_worker_combined(self):
        src = """
int main(){
  int i, a[24];
  for(i=0;i<24;i++) a[i]=0;
  #pragma acc parallel num_gangs(3) num_workers(2) copy(a[0:24])
  {
    #pragma acc loop gang worker
    for(i=0;i<24;i++) a[i]++;
  }
  int bad = 0;
  for(i=0;i<24;i++) if (a[i] != 1) bad++;
  return bad == 0;
}
"""
        assert run(src).value == 1

    def test_worker_ignored_profile(self):
        """PGI-style worker_ignored collapses the worker level to one lane
        without changing results."""
        src = """
int main(){
  int i, a[8];
  for(i=0;i<8;i++) a[i]=0;
  #pragma acc parallel num_gangs(1) num_workers(4) copy(a[0:8])
  {
    #pragma acc loop worker
    for(i=0;i<8;i++) a[i]++;
  }
  int bad = 0;
  for(i=0;i<8;i++) if (a[i] != 1) bad++;
  return bad == 0;
}
"""
        assert run(src, CompilerBehavior(worker_ignored=True)).value == 1

    def test_vector_loop_out_of_order(self):
        """Cyclic lane distribution must break an order-sensitive chain."""
        src = """
int main(){
  int i, last = -1, in_order = 1;
  #pragma acc parallel num_gangs(1) copy(last, in_order)
  {
    #pragma acc loop vector
    for(i=0;i<32;i++){
      in_order = ((i - last) == 1) && in_order;
      last = i;
    }
  }
  return in_order;
}
"""
        assert run(src).value == 0


class TestKernelsSemantics:
    def test_body_executes_once(self):
        src = """
int main(){
  int count = 0;
  #pragma acc kernels copy(count)
  {
    count = count + 1;
  }
  return count;
}
"""
        assert run(src).value == 1

    def test_dependence_analysis_serialises(self):
        src = """
int main(){
  int i, a[30];
  for(i=0;i<30;i++) a[i]=0;
  a[0] = 1;
  #pragma acc kernels copy(a[0:30])
  {
    #pragma acc loop
    for(i=1;i<30;i++) a[i] = a[i-1] + 1;
  }
  return a[29] == 30;
}
"""
        assert run(src).value == 1

    def test_independent_forces_parallel(self):
        src = """
int main(){
  int i, a[30];
  for(i=0;i<30;i++) a[i]=0;
  a[0] = 1;
  #pragma acc kernels copy(a[0:30])
  {
    #pragma acc loop independent
    for(i=1;i<30;i++) a[i] = a[i-1] + 1;
  }
  return a[29] == 30;
}
"""
        assert run(src).value == 0

    def test_kernels_scalar_copy_semantics(self):
        """In kernels regions scalars default to copy (writes propagate)."""
        src = """
int main(){
  int t = 1;
  #pragma acc kernels
  {
    t = 99;
  }
  return t;
}
"""
        assert run(src).value == 99

    def test_parallel_scalar_firstprivate_semantics(self):
        """In parallel regions scalars default to firstprivate."""
        src = """
int main(){
  int t = 1;
  #pragma acc parallel num_gangs(4)
  {
    t = 99;
  }
  return t;
}
"""
        assert run(src).value == 1


class TestReductions:
    def test_construct_reduction_combines_original(self):
        src = """
int main(){
  int x = 10;
  #pragma acc parallel num_gangs(6) reduction(+:x)
  { x += 2; }
  return x;
}
"""
        assert run(src).value == 10 + 12

    def test_worker_loop_reduction(self):
        src = """
int main(){
  int total = 0;
  #pragma acc parallel num_gangs(1) num_workers(4) copy(total)
  {
    #pragma acc loop worker reduction(+:total)
    for(int j=0;j<40;j++) total++;
  }
  return total;
}
"""
        assert run(src).value == 40

    def test_gang_loop_reduction_writes_back_once(self):
        src = """
int main(){
  int s = 5;
  #pragma acc parallel loop num_gangs(4) reduction(+:s)
  for(int i=0;i<10;i++) s += i;
  return s;
}
"""
        assert run(src).value == 5 + 45

    def test_mul_reduction(self):
        src = """
int main(){
  int p = 2;
  #pragma acc parallel loop reduction(*:p)
  for(int i=1;i<=5;i++) p *= i;
  return p == 240;
}
"""
        assert run(src).value == 1

    def test_max_reduction(self):
        src = """
int main(){
  int m = -100, i;
  int d[8];
  for(i=0;i<8;i++) d[i] = (i * 13) % 37;
  int expected = -100;
  for(i=0;i<8;i++) if (d[i] > expected) expected = d[i];
  #pragma acc parallel loop reduction(max:m) copyin(d[0:8])
  for(i=0;i<8;i++) m = (d[i] > m) ? d[i] : m;
  return m == expected;
}
"""
        assert run(src).value == 1

    def test_broken_reduction_behavior(self):
        src = """
int main(){
  int x = 0;
  #pragma acc parallel num_gangs(4) reduction(+:x)
  { x++; }
  return x;
}
"""
        behavior = CompilerBehavior(broken_reductions=frozenset({"+"}))
        assert run(src, behavior).value == 0  # combine suppressed


class TestDataEnvironment:
    def test_nested_present_reuse(self):
        src = """
int main(){
  int i, a[10], out[10];
  for(i=0;i<10;i++){ a[i]=i; out[i]=0; }
  #pragma acc data copyin(a[0:10])
  {
    #pragma acc parallel loop present(a[0:10]) copy(out[0:10])
    for(i=0;i<10;i++) out[i] = a[i] * 2;
  }
  return out[4] == 8;
}
"""
        assert run(src).value == 1

    def test_present_absent_crashes(self):
        src = """
int main(){
  int i, a[10];
  #pragma acc parallel loop present(a[0:10])
  for(i=0;i<10;i++) a[i] = i;
  return 1;
}
"""
        with pytest.raises(PresentError):
            run(src)

    def test_device_copy_isolated_until_exit(self):
        src = """
int main(){
  int i, a[5], mid = 0;
  for(i=0;i<5;i++) a[i]=1;
  #pragma acc data copy(a[0:5])
  {
    #pragma acc parallel loop present(a[0:5])
    for(i=0;i<5;i++) a[i] = 7;
    mid = a[0];
  }
  return (mid == 1) && (a[0] == 7);
}
"""
        assert run(src).value == 1

    def test_if_false_runs_on_host(self):
        src = """
int main(){
  int t = 1;
  #pragma acc parallel if (0)
  {
    t = acc_on_device(acc_device_not_host);
  }
  return t == 0;
}
"""
        # if(false): the region runs on the host, writes are local host
        # writes (no device data env), so t really becomes 0
        assert run(src).value == 1

    def test_update_midstream(self):
        src = """
int main(){
  int i, a[6], seen = 0;
  for(i=0;i<6;i++) a[i]=i;
  #pragma acc data copyin(a[0:6])
  {
    #pragma acc parallel loop present(a[0:6])
    for(i=0;i<6;i++) a[i] = a[i] * 10;
    #pragma acc update host(a[2:2])
    seen = a[2] + a[3];
  }
  return seen == 50;
}
"""
        assert run(src).value == 1

    def test_firstprivate_snapshot(self):
        src = """
int main(){
  int t = 3, i, b[4];
  for(i=0;i<4;i++) b[i]=0;
  #pragma acc parallel num_gangs(4) firstprivate(t) copy(b[0:4])
  {
    #pragma acc loop gang
    for(i=0;i<4;i++){ t = t + i; b[i] = t; }
  }
  return (b[0] == 3) && (b[3] == 6) && (t == 3);
}
"""
        assert run(src).value == 1

    def test_host_data_use_device(self):
        src = """
void scale(int *p, int n){
  int j;
  #pragma acc parallel deviceptr(p)
  {
    #pragma acc loop
    for(j=0;j<n;j++) p[j] *= 3;
  }
}
int main(){
  int i, a[4];
  for(i=0;i<4;i++) a[i] = i + 1;
  #pragma acc data copy(a[0:4])
  {
    #pragma acc host_data use_device(a)
    { scale(a, 4); }
  }
  return a[3] == 12;
}
"""
        assert run(src).value == 1

    def test_host_data_absent_crashes(self):
        src = """
int main(){
  int a[4];
  #pragma acc host_data use_device(a)
  { }
  return 1;
}
"""
        with pytest.raises(PresentError):
            run(src)

    def test_collapse_product_space(self):
        src = """
int main(){
  int i, j, m[4][5];
  for(i=0;i<4;i++) for(j=0;j<5;j++) m[i][j] = 0;
  #pragma acc parallel num_gangs(2) copy(m)
  {
    #pragma acc loop collapse(2)
    for(i=0;i<4;i++)
      for(j=0;j<5;j++)
        m[i][j]++;
  }
  int bad = 0;
  for(i=0;i<4;i++) for(j=0;j<5;j++) if (m[i][j] != 1) bad++;
  return bad == 0;
}
"""
        assert run(src).value == 1

    def test_collapse_requires_tight_nest(self):
        src = """
int main(){
  int i, j, s = 0;
  #pragma acc parallel num_gangs(1) copy(s)
  {
    #pragma acc loop collapse(2)
    for(i=0;i<3;i++){
      s = s + 1;
      for(j=0;j<3;j++) s = s + 1;
    }
  }
  return s;
}
"""
        with pytest.raises(AccRuntimeError):
            run(src)


class TestAsyncExecution:
    def test_async_defers_until_wait(self):
        src = """
int main(){
  int i, a[5], before, after;
  for(i=0;i<5;i++) a[i] = 0;
  #pragma acc parallel loop copy(a[0:5]) async(2)
  for(i=0;i<5;i++) a[i] = 9;
  before = a[0];
  #pragma acc wait(2)
  after = a[0];
  return (before == 0) && (after == 9);
}
"""
        assert run(src).value == 1

    def test_wait_all_without_tag(self):
        src = """
int main(){
  int i, a[5];
  for(i=0;i<5;i++) a[i] = 0;
  #pragma acc parallel loop copy(a[0:5]) async
  for(i=0;i<5;i++) a[i] = 4;
  #pragma acc wait
  return a[1] == 4;
}
"""
        assert run(src).value == 1

    def test_ignore_async_behavior(self):
        src = """
int main(){
  int i, a[5];
  for(i=0;i<5;i++) a[i] = 0;
  #pragma acc parallel loop copy(a[0:5]) async(1)
  for(i=0;i<5;i++) a[i] = 8;
  return a[0];
}
"""
        assert run(src, CompilerBehavior(ignore_async=True)).value == 8

    def test_pgi_wedge_requires_data_clauses(self):
        wedged = CompilerBehavior(async_wedged_by_compute_data_clauses=True)
        with_data = """
int main(){
  int i, a[5];
  for(i=0;i<5;i++) a[i]=0;
  #pragma acc parallel loop copy(a[0:5]) async(3)
  for(i=0;i<5;i++) a[i]=1;
  return acc_async_test(3);
}
"""
        # wedged: returns the configured sentinel (-1)
        assert run(with_data, wedged).value == -1
        without_data = """
int main(){
  int i, a[5];
  for(i=0;i<5;i++) a[i]=0;
  #pragma acc data copy(a[0:5])
  {
    #pragma acc parallel loop async(3)
    for(i=0;i<5;i++) a[i]=1;
  }
  return 1;
}
"""
        assert run(without_data, wedged).value == 1

    _QUEUED_CRASH = """
int main() {
  int a[4];
  int z = 0;
  #pragma acc parallel async(1) copy(a[0:4])
  { a[0] = 1 / z; }
  %s
  return 0;
}
"""

    @pytest.mark.parametrize("walker", ["closures", "tree"])
    def test_host_error_is_not_replaced_by_queued_work(self, walker,
                                                       tree_oracle):
        # the host's out-of-bounds read stops the program while the
        # region that divides by zero is still queued: that region never
        # runs, so the run reports the host's error
        src = self._QUEUED_CRASH % "a[1] = a[5];"
        with tree_oracle() if walker == "tree" else contextlib.nullcontext():
            with pytest.raises(AccRuntimeError) as got:
                run(src)
        assert str(got.value) == ("index out of bounds: subscript [5] for "
                                  "shape (4,) (lower bounds (0,))")

    @pytest.mark.parametrize("walker", ["closures", "tree"])
    def test_queued_work_runs_at_exit_after_host_returns(self, walker,
                                                         tree_oracle):
        src = self._QUEUED_CRASH % "a[1] = 2;"
        with tree_oracle() if walker == "tree" else contextlib.nullcontext():
            with pytest.raises(AccRuntimeError) as got:
                run(src)
        assert str(got.value) == "division by zero at <test>:6:14"


class TestDeclare:
    def test_declare_create_function_lifetime(self):
        src = """
int main(){
  int i, t[6], out[6];
  #pragma acc declare create(t[0:6])
  for(i=0;i<6;i++){ out[i]=0; }
  #pragma acc parallel loop present(t[0:6])
  for(i=0;i<6;i++) t[i] = i * 2;
  #pragma acc parallel loop present(t[0:6]) copy(out[0:6])
  for(i=0;i<6;i++) out[i] = t[i] + 1;
  return out[5] == 11;
}
"""
        assert run(src).value == 1

    def test_declare_copy_exit_writeback(self):
        src = """
int g[4];
#pragma acc declare copy(g[0:4])
void step(){
  int j;
  #pragma acc parallel loop present(g[0:4])
  for(j=0;j<4;j++) g[j] += 5;
}
int main(){
  int i;
  for(i=0;i<4;i++) g[i] = i;
  step();
  return (g[0] == 5) && (g[3] == 8);
}
"""
        assert run(src).value == 1


class TestVendorBugBehaviors:
    def test_copyin_as_create(self):
        src = """
int main(){
  int i, a[4], out[4];
  for(i=0;i<4;i++){ a[i]=5; out[i]=0; }
  #pragma acc parallel loop copyin(a[0:4]) copy(out[0:4])
  for(i=0;i<4;i++) out[i] = a[i];
  return out[0] == 5;
}
"""
        assert run(src).value == 1
        assert run(src, CompilerBehavior(copyin_as_create=True)).value == 0

    def test_copyout_not_copied(self):
        src = """
int main(){
  int i, b[4];
  for(i=0;i<4;i++) b[i] = -1;
  #pragma acc parallel loop copyout(b[0:4])
  for(i=0;i<4;i++) b[i] = 1;
  return b[0] == 1;
}
"""
        assert run(src).value == 1
        assert run(src, CompilerBehavior(copyout_not_copied=True)).value == 0

    def test_ignore_loop_directive(self):
        src = """
int main(){
  int i, a[6];
  for(i=0;i<6;i++) a[i]=0;
  #pragma acc parallel num_gangs(3) copy(a[0:6])
  {
    #pragma acc loop
    for(i=0;i<6;i++) a[i]++;
  }
  return a[0];
}
"""
        assert run(src).value == 1
        assert run(src, CompilerBehavior(ignore_loop_directive=True)).value == 3

    def test_ignore_if_clause(self):
        src = """
int main(){
  int t = 5;
  #pragma acc kernels if (0)
  {
    t = acc_on_device(acc_device_not_host);
  }
  return t;
}
"""
        assert run(src).value == 0          # host execution
        assert run(src, CompilerBehavior(ignore_if_clause=True)).value == 1

    def test_eliminate_copy_only_regions(self):
        src = """
int main(){
  int i, b[4], c[4];
  for(i=0;i<4;i++){ b[i]=3; c[i]=0; }
  #pragma acc parallel copy(b[0:4], c[0:4])
  {
    #pragma acc loop
    for(i=0;i<4;i++) c[i] = b[i];
  }
  return c[0];
}
"""
        assert run(src).value == 3
        cray = CompilerBehavior(eliminate_copy_only_regions=True)
        assert run(src, cray).value == 0

    def test_firstprivate_uninitialized(self):
        src = """
int main(){
  int t = 7, out = -1;
  #pragma acc parallel num_gangs(1) firstprivate(t) copy(out)
  { out = t; }
  return out;
}
"""
        assert run(src).value == 7
        assert run(src, CompilerBehavior(firstprivate_uninitialized=True)).value == 0
