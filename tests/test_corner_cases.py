"""Corner cases (Section IX: "identify corner cases that are in general
quite challenging to be detected manually").

Boundary conditions of the execution model and data environment that the
main corpus does not isolate: empty iteration spaces, single iterations,
more gangs than work, subsection mappings, repeated regions, deep nesting,
and degenerate clause values.
"""

import pytest

from repro.accsim.errors import AccRuntimeError, PresentError
from repro.compiler import Compiler


CC = Compiler()


def run(src: str, lang="c"):
    return CC.compile(src, lang).run()


class TestEmptyAndTinyIterationSpaces:
    def test_empty_loop(self):
        src = """
int main(){
  int i, n = 0, touched = 0;
  int a[4];
  #pragma acc parallel loop copy(a[0:4], touched)
  for(i=0;i<n;i++){ a[i] = 1; touched = 1; }
  return touched == 0;
}
"""
        assert run(src).value == 1

    def test_single_iteration_loop(self):
        src = """
int main(){
  int i, a[1];
  a[0] = 0;
  #pragma acc parallel loop num_gangs(8) copy(a[0:1])
  for(i=0;i<1;i++) a[i] = 7;
  return a[0] == 7;
}
"""
        assert run(src).value == 1

    def test_more_gangs_than_iterations(self):
        src = """
int main(){
  int i, bad = 0;
  int a[3];
  for(i=0;i<3;i++) a[i] = 0;
  #pragma acc parallel num_gangs(16) copy(a[0:3])
  {
    #pragma acc loop gang
    for(i=0;i<3;i++) a[i]++;
  }
  for(i=0;i<3;i++) if (a[i] != 1) bad++;
  return bad == 0;
}
"""
        assert run(src).value == 1

    def test_empty_reduction_keeps_original(self):
        src = """
int main(){
  int i, s = 41;
  #pragma acc parallel loop reduction(+:s)
  for(i=0;i<0;i++) s += 1;
  return s == 41;
}
"""
        assert run(src).value == 1

    def test_empty_region_body(self):
        src = """
int main(){
  #pragma acc parallel num_gangs(4)
  { }
  return 1;
}
"""
        assert run(src).value == 1


class TestSectionCorners:
    def test_single_element_section(self):
        src = """
int main(){
  int i, a[8];
  for(i=0;i<8;i++) a[i] = i;
  #pragma acc parallel loop copy(a[3:1])
  for(i=3;i<4;i++) a[i] = 99;
  return (a[3] == 99) && (a[2] == 2) && (a[4] == 4);
}
"""
        assert run(src).value == 1

    def test_interior_section_isolates_rest(self):
        src = """
int main(){
  int i, ok = 1;
  int a[10];
  for(i=0;i<10;i++) a[i] = i;
  #pragma acc data copyin(a[2:6])
  {
    #pragma acc parallel loop present(a[2:6])
    for(i=2;i<8;i++) a[i] = -1;
    /* host values outside the region's view are untouched */
    for(i=2;i<8;i++) if (a[i] != i) ok = 0;
  }
  return ok;
}
"""
        assert run(src).value == 1

    def test_out_of_section_device_access_crashes(self):
        src = """
int main(){
  int i, a[10];
  for(i=0;i<10;i++) a[i] = 0;
  #pragma acc parallel loop copy(a[2:4])
  for(i=0;i<10;i++) a[i] = 1;
  return 1;
}
"""
        with pytest.raises(AccRuntimeError):
            run(src)

    def test_fortran_section_with_declared_bounds(self):
        src = """
program corner
  implicit none
  integer :: i, err
  integer :: a(0:9)
  err = 0
  do i = 0, 9
    a(i) = i
  end do
  !$acc parallel loop copy(a(0:9))
  do i = 0, 9
    a(i) = a(i) * 2
  end do
  !$acc end parallel loop
  do i = 0, 9
    if (a(i) /= 2*i) err = err + 1
  end do
  if (err == 0) main = 1
end program corner
"""
        assert run(src, "fortran").value == 1


class TestRepeatedAndNestedRegions:
    def test_many_sequential_regions_share_data_region(self):
        src = """
int main(){
  int i, r, a[8];
  for(i=0;i<8;i++) a[i] = 0;
  #pragma acc data copy(a[0:8])
  {
    for(r=0;r<5;r++){
      #pragma acc parallel loop present(a[0:8])
      for(i=0;i<8;i++) a[i]++;
    }
  }
  return a[0] == 5;
}
"""
        assert run(src).value == 1

    def test_deeply_nested_data_regions(self):
        src = """
int main(){
  int i, a[4];
  for(i=0;i<4;i++) a[i] = 1;
  #pragma acc data copy(a[0:4])
  {
    #pragma acc data present(a[0:4])
    {
      #pragma acc data present(a[0:4])
      {
        #pragma acc parallel loop present(a[0:4])
        for(i=0;i<4;i++) a[i] += 10;
      }
    }
  }
  return a[0] == 11;
}
"""
        assert run(src).value == 1

    def test_region_after_shutdown_reinit(self):
        src = """
int main(){
  int i, a[4];
  for(i=0;i<4;i++) a[i] = 0;
  #pragma acc parallel loop copy(a[0:4])
  for(i=0;i<4;i++) a[i] = 1;
  acc_shutdown(acc_device_not_host);
  acc_init(acc_device_not_host);
  #pragma acc parallel loop copy(a[0:4])
  for(i=0;i<4;i++) a[i] += 1;
  return a[0] == 2;
}
"""
        assert run(src).value == 1

    def test_present_after_owner_exits_crashes(self):
        src = """
int main(){
  int i, a[4];
  #pragma acc data copyin(a[0:4])
  { }
  #pragma acc parallel loop present(a[0:4])
  for(i=0;i<4;i++) a[i] = 1;
  return 1;
}
"""
        with pytest.raises(PresentError):
            run(src)


class TestDegenerateClauseValues:
    def test_num_gangs_one(self):
        src = """
int main(){
  int g = 0;
  #pragma acc parallel num_gangs(1) reduction(+:g)
  { g++; }
  return g == 1;
}
"""
        assert run(src).value == 1

    def test_collapse_one_is_identity(self):
        src = """
int main(){
  int i, a[6];
  for(i=0;i<6;i++) a[i] = 0;
  #pragma acc parallel loop collapse(1) copy(a[0:6])
  for(i=0;i<6;i++) a[i]++;
  return a[5] == 1;
}
"""
        assert run(src).value == 1

    def test_async_same_tag_ordering(self):
        """Two activities on one queue execute in submission order."""
        src = """
int main(){
  int i, a[4];
  for(i=0;i<4;i++) a[i] = 1;
  #pragma acc data copy(a[0:4])
  {
    #pragma acc parallel loop present(a[0:4]) async(5)
    for(i=0;i<4;i++) a[i] = a[i] + 1;
    #pragma acc parallel loop present(a[0:4]) async(5)
    for(i=0;i<4;i++) a[i] = a[i] * 10;
    #pragma acc wait(5)
  }
  return a[0] == 20;
}
"""
        assert run(src).value == 1

    def test_wait_on_unused_tag_is_noop(self):
        src = """
int main(){
  #pragma acc wait(1234)
  return 1;
}
"""
        assert run(src).value == 1

    def test_negative_loop_bound_runs_zero_times(self):
        src = """
int main(){
  int i, hits = 0;
  #pragma acc parallel loop copy(hits)
  for(i=0;i<-5;i++) hits++;
  return hits == 0;
}
"""
        assert run(src).value == 1


class TestScalarCornerCases:
    def test_reduction_var_also_in_copy_clause(self):
        src = """
int main(){
  int s = 3;
  #pragma acc parallel num_gangs(4) copy(s) reduction(+:s)
  { s += 1; }
  return s == 7;
}
"""
        assert run(src).value == 1

    def test_float_scalar_copy(self):
        src = """
int main(){
  double x = 1.5;
  #pragma acc kernels copy(x)
  { x = x * 2.0; }
  return x == 3.0;
}
"""
        assert run(src).value == 1

    def test_update_scalar(self):
        src = """
int main(){
  int flag = 0, seen = -1;
  #pragma acc data copyin(flag)
  {
    #pragma acc parallel present(flag)
    { flag = 9; }
    #pragma acc update host(flag)
    seen = flag;
  }
  return seen == 9;
}
"""
        assert run(src).value == 1
