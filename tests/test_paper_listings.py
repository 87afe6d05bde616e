"""The paper's code listings, verbatim (modulo sizes), as integration tests.

Each test reproduces one figure's program and checks the outcome the paper
describes.  These are the ground-truth anchors of the reproduction.
"""


from repro.compiler import Compiler


CC = Compiler()


def run(src: str):
    return CC.compile(src, "c").run()


class TestFig2LoopDirective:
    FUNCTIONAL = """
int main() {
  int i, n = 100, error = 0;
  int A[100];
  for(i=0; i<n; i++) A[i] = 0;
  #pragma acc parallel num_gangs(10) copy(A[0:n])
  {
    #pragma acc loop
    for(i=0; i<n; i++)
      A[i] = A[i] + 1;
  }
  for(i=0; i<n; i++) if(A[i] != 1) error++;
  return (error == 0);
}
"""

    def test_functional(self):
        assert run(self.FUNCTIONAL).value == 1

    def test_cross_each_gang_increments(self):
        cross = self.FUNCTIONAL.replace("    #pragma acc loop\n", "")
        assert run(cross).value == 0


class TestFig4NumWorkers:
    def test_nested_gang_worker_reduction(self):
        src = """
int main() {
  int i, j, error = 0;
  int gangs = 4, workers = 4, workers_load = 32;
  int gangs_red[4];
  for(i=0; i<gangs; i++)
    gangs_red[i] = 0;
  #pragma acc parallel copy(gangs_red[0:gangs]) \\
                       num_gangs(gangs) \\
                       num_workers(workers)
  {
    #pragma acc loop gang
    for(i=0; i<gangs; i++){
      int to_reduct = 0;
      #pragma acc loop worker reduction(+:to_reduct)
      for(j=0; j<workers_load; j++)
        to_reduct++;
      gangs_red[i] = to_reduct;
    }
  }
  error = 0;
  for(i=0; i<gangs; i++){
    if(gangs_red[i] != workers_load)
      error++;
  }
  return (error == 0);
}
"""
        assert run(src).value == 1


class TestFig5ParallelIf:
    def test_46_device_iterations_at_n1000(self):
        """With N = 1000 the paper derives exactly 46 offloaded
        iterations; C must end at 46*(A+B)."""
        src = """
int main() {
  int i, error = 0, sum;
  int N = 1000;
  int A[1000], B[1000], C[1000];
  for(i=0; i<N; i++){ A[i]=1; B[i]=2; C[i]=0; }
  #pragma acc data copy(C[0:N]) copyin(A[0:N], B[0:N])
  {
    sum = 1;
    for(int m=0; m<N; m++){
      #pragma acc parallel loop if (sum < N)
      for(int j=0; j<N; j++){
        C[j] += A[j] + B[j];
      }
      sum += m;
    }
  }
  for(i=0; i<N; i++){
    if(C[i] != 46*(A[i] + B[i]))
      error++;
  }
  return (error == 0);
}
"""
        from repro.compiler import ExecutionLimits

        result = CC.compile(src, "c").run(
            limits=ExecutionLimits(max_steps=30_000_000)
        )
        assert result.value == 1


class TestFig6DataCopy:
    SRC = """
int main() {
  int i, j, error = 0;
  int N = 64, HOST = 1, DEVICE = 2;
  int flag;
  int A[64], B[64], C[64], known_C[64];
  flag = HOST;
  for(i=0; i<N; i++){
    A[i]=i; B[i]=i;
    known_C[i]=A[i]+B[i]+DEVICE;
  }
  #pragma acc data create(flag) copy(A[0:N],B[0:N],C[0:N])
  {
    #pragma acc parallel
    {
      flag = DEVICE;
      #pragma acc loop
      for(j=0; j<N; j++)
        C[j] = A[j]+B[j]+flag;
    }
  }
  for(i=0; i<N; i++){
    if((C[i]!=known_C[i]) || (flag!=HOST))
      error++;
  }
  return (error==0);
}
"""

    def test_device_flag_stays_on_device(self):
        assert run(self.SRC).value == 1


class TestFig7FloatReduction:
    def test_geometric_series_with_tolerance(self):
        src = """
int main() {
  int i, error = 0;
  int N = 20;
  float fsum, ft, fpt, fknown_sum, frounding_error;
  fsum = 0; ft = 0.5; fpt = 1;
  frounding_error = 1.E-9;
  for(int k=0; k<N; k++){
    fpt *= ft;
  }
  fknown_sum = (1-fpt)/(1-ft);
  #pragma acc kernels loop reduction(+:fsum)
  for (i=0; i<N; i++)
    fsum += powf(ft,i);
  if(fabsf(fsum-fknown_sum) > frounding_error)
    error++;
  return (error == 0);
}
"""
        assert run(src).value == 1


class TestFig9NumGangs:
    def test_constant_and_variable_expressions(self):
        src = """
int main() {
  int gangs = 8;
  int known_gang_num = 8;
  int gang_num = 0;
  #pragma acc parallel num_gangs(gangs) reduction(+:gang_num)
  {
    gang_num++;
  }
  return (gang_num == known_gang_num);
}
"""
        assert run(src).value == 1


class TestFig10AsyncTest:
    def test_zero_then_nonzero(self):
        src = """
int main() {
  int i, N = 64, tag = 1;
  int A[64], B[64], C[64];
  int is_sync = -1, ok = 1;
  for(i=0; i<N; i++){ A[i]=i; B[i]=2*i; C[i]=0; }
  #pragma acc kernels copyin(A[0:N], B[0:N]) copy(C[0:N]) async(tag)
  for(i=0; i<N; i++)
    C[i] = A[i] + B[i];
  is_sync = acc_async_test(tag);
  if (is_sync != 0) ok = 0;
  #pragma acc wait(tag)
  is_sync = acc_async_test(tag);
  if (is_sync == 0) ok = 0;
  for(i=0; i<N; i++) if (C[i] != 3*i) ok = 0;
  return ok;
}
"""
        assert run(src).value == 1


class TestFig12DeviceType:
    def test_not_host_is_implementation_defined(self):
        """Fig. 12's literal check fails on realistic implementations: the
        concrete type is implementation-defined (acc_device_nvidia here)."""
        src = """
int main() {
  int literal_equal;
  acc_set_device_type(acc_device_not_host);
  literal_equal = (acc_get_device_type() == acc_device_not_host);
  acc_shutdown(acc_device_not_host);
  return literal_equal;
}
"""
        assert run(src).value == 0  # the paper's observed ambiguity

    def test_standard_guarantee_holds(self):
        src = """
int main() {
  int ok;
  acc_set_device_type(acc_device_not_host);
  ok = (acc_get_device_type() != acc_device_host)
    && (acc_get_device_type() != acc_device_none);
  return ok;
}
"""
        assert run(src).value == 1
