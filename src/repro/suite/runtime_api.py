"""Tests for the OpenACC 1.0 runtime library routines.

The async family follows Fig. 10 (``acc_async_test`` must observe
incompleteness before a wait); the device-management routines check the
standard-guaranteed relations only — Section V-C documents that the
*concrete* type behind ``acc_device_not_host`` is implementation-defined,
so the tests assert "not host, not none" rather than a vendor name.
Several routines have no meaningful cross variant (there is no directive to
remove); they are functional-only, which the harness reports as such.
"""

from __future__ import annotations

from typing import List

from repro.suite.builders import check, cross, template_text


def templates() -> List[str]:
    out: List[str] = []
    out.extend(_get_num_devices())
    out.extend(_device_type())
    out.extend(_device_num())
    out.extend(_async_test())
    out.extend(_async_test_all())
    out.extend(_async_wait())
    out.extend(_async_wait_all())
    out.extend(_init())
    out.extend(_shutdown())
    out.extend(_on_device())
    out.extend(_malloc())
    out.extend(_free())
    return out


def _simple_pair(name: str, feature: str, c_code: str, f_code: str,
                 description: str, deps=(), crossexpect="different") -> List[str]:
    defaults = {"N": 40}
    return [
        template_text(name=f"{name}.c", feature=feature, language="c",
                      description=description, dependences=list(deps),
                      defaults=defaults, crossexpect=crossexpect, code=c_code),
        template_text(name=f"{name}.f", feature=feature, language="fortran",
                      description=description, dependences=list(deps),
                      defaults=defaults, crossexpect=crossexpect, code=f_code),
    ]


def _get_num_devices() -> List[str]:
    c_code = """
int main() {
  int nd = acc_get_num_devices(acc_device_not_host);
  return (nd >= 1);
}
"""
    f_code = """
program test_get_num_devices
  implicit none
  integer :: nd
  nd = acc_get_num_devices(acc_device_not_host)
  if (nd >= 1) main = 1
end program test_get_num_devices
"""
    return _simple_pair(
        "acc_get_num_devices", "runtime.acc_get_num_devices", c_code, f_code,
        "At least one attached accelerator must be reported for "
        "acc_device_not_host on the testbed configuration.",
    )


def _device_type() -> List[str]:
    c_code = """
int main() {
  int ok = 1;
  acc_set_device_type(acc_device_not_host);
  if (acc_get_device_type() == acc_device_host) ok = 0;
  if (acc_get_device_type() == acc_device_none) ok = 0;
  return ok;
}
"""
    f_code = """
program test_device_type
  implicit none
  integer :: ok
  ok = 1
  call acc_set_device_type(acc_device_not_host)
  if (acc_get_device_type() == acc_device_host) ok = 0
  if (acc_get_device_type() == acc_device_none) ok = 0
  main = ok
end program test_device_type
"""
    return _simple_pair(
        "acc_set_get_device_type", "runtime.acc_set_device_type",
        c_code, f_code,
        "After requesting acc_device_not_host the reported type must be an "
        "accelerator.  (Fig. 12: the concrete name is implementation-"
        "defined, so only the host/none exclusions are standard.)",
        deps=("runtime.acc_get_device_type",),
    )


def _device_num() -> List[str]:
    c_code = """
int main() {
  int ok = 1;
  acc_set_device_num(0, acc_device_not_host);
  if (acc_get_device_num(acc_device_not_host) != 0) ok = 0;
  return ok;
}
"""
    f_code = """
program test_device_num
  implicit none
  integer :: ok
  ok = 1
  call acc_set_device_num(0, acc_device_not_host)
  if (acc_get_device_num(acc_device_not_host) /= 0) ok = 0
  main = ok
end program test_device_num
"""
    return _simple_pair(
        "acc_set_get_device_num", "runtime.acc_set_device_num",
        c_code, f_code,
        "Setting device number 0 must be reflected by acc_get_device_num.",
        deps=("runtime.acc_get_device_num",),
    )


def _async_test() -> List[str]:
    c_code = f"""
int main() {{
  int i, ok = 1, is_sync = -1;
  int n = {{{{N}}}}, tag = 2;
  int a[{{{{N}}}}], c[{{{{N}}}}];
  for(i=0; i<n; i++){{ a[i]=i; c[i]=0; }}
  #pragma acc kernels copyin(a[0:n]) copy(c[0:n]) async(tag)
  for(i=0; i<n; i++)
    c[i] = a[i] + a[i];
  is_sync = acc_async_test(tag);
  if (is_sync != 0) ok = 0;
  {check("#pragma acc wait(tag)")}
  is_sync = acc_async_test(tag);
  if (is_sync == 0) ok = 0;
  return ok;
}}
"""
    f_code = f"""
program test_acc_async_test
  implicit none
  integer :: i, ok, is_sync, n, tag
  integer :: a({{{{N}}}}), c({{{{N}}}})
  n = {{{{N}}}}
  tag = 2
  ok = 1
  is_sync = -1
  do i = 1, n
    a(i) = i
    c(i) = 0
  end do
  !$acc kernels copyin(a(1:n)) copy(c(1:n)) async(tag)
  do i = 1, n
    c(i) = a(i) + a(i)
  end do
  !$acc end kernels
  is_sync = acc_async_test(tag)
  if (is_sync /= 0) ok = 0
  {check("!$acc wait(tag)")}
  is_sync = acc_async_test(tag)
  if (is_sync == 0) ok = 0
  main = ok
end program test_acc_async_test
"""
    return _simple_pair(
        "acc_async_test", "runtime.acc_async_test", c_code, f_code,
        "acc_async_test returns 0 while the tagged queue is busy and nonzero "
        "after the wait (Fig. 10); the cross removes the wait so the second "
        "probe must still see pending work.",
        deps=("kernels.async", "wait"),
    )


def _async_test_all() -> List[str]:
    c_code = f"""
int main() {{
  int i, ok = 1, is_sync = -1;
  int n = {{{{N}}}};
  int a[{{{{N}}}}], c[{{{{N}}}}];
  for(i=0; i<n; i++){{ a[i]=i; c[i]=0; }}
  #pragma acc kernels copyin(a[0:n]) copy(c[0:n]) async(1)
  for(i=0; i<n; i++)
    c[i] = a[i] * 3;
  is_sync = acc_async_test_all();
  if (is_sync != 0) ok = 0;
  {check("#pragma acc wait")}
  is_sync = acc_async_test_all();
  if (is_sync == 0) ok = 0;
  return ok;
}}
"""
    f_code = f"""
program test_acc_async_test_all
  implicit none
  integer :: i, ok, is_sync, n
  integer :: a({{{{N}}}}), c({{{{N}}}})
  n = {{{{N}}}}
  ok = 1
  is_sync = -1
  do i = 1, n
    a(i) = i
    c(i) = 0
  end do
  !$acc kernels copyin(a(1:n)) copy(c(1:n)) async(1)
  do i = 1, n
    c(i) = a(i) * 3
  end do
  !$acc end kernels
  is_sync = acc_async_test_all()
  if (is_sync /= 0) ok = 0
  {check("!$acc wait")}
  is_sync = acc_async_test_all()
  if (is_sync == 0) ok = 0
  main = ok
end program test_acc_async_test_all
"""
    return _simple_pair(
        "acc_async_test_all", "runtime.acc_async_test_all", c_code, f_code,
        "acc_async_test_all covers every queue; a bare wait completes all "
        "outstanding work.",
        deps=("kernels.async", "wait"),
    )


def _async_wait() -> List[str]:
    c_code = f"""
int main() {{
  int i, ok = 1;
  int n = {{{{N}}}}, tag = 4;
  int a[{{{{N}}}}], c[{{{{N}}}}];
  for(i=0; i<n; i++){{ a[i]=i; c[i]=-1; }}
  #pragma acc data copyin(a[0:n]) copy(c[0:n])
  {{
    #pragma acc parallel loop async(tag)
    for(i=0; i<n; i++)
      c[i] = a[i] + 6;
    {check("acc_async_wait(tag);")}
    #pragma acc update host(c[0:n])
    for(i=0; i<n; i++)
      if (c[i] != a[i] + 6) ok = 0;
  }}
  return ok;
}}
"""
    f_code = f"""
program test_acc_async_wait
  implicit none
  integer :: i, ok, n, tag
  integer :: a({{{{N}}}}), c({{{{N}}}})
  n = {{{{N}}}}
  tag = 4
  ok = 1
  do i = 1, n
    a(i) = i
    c(i) = -1
  end do
  !$acc data copyin(a(1:n)) copy(c(1:n))
  !$acc parallel loop async(tag)
  do i = 1, n
    c(i) = a(i) + 6
  end do
  !$acc end parallel loop
  {check("call acc_async_wait(tag)")}
  !$acc update host(c(1:n))
  do i = 1, n
    if (c(i) /= a(i) + 6) ok = 0
  end do
  !$acc end data
  main = ok
end program test_acc_async_wait
"""
    return _simple_pair(
        "acc_async_wait", "runtime.acc_async_wait", c_code, f_code,
        "acc_async_wait must complete the tagged region before the host "
        "fetches results; the cross removes the call and reads stale data.",
        deps=("parallel.async", "update.host"),
    )


def _async_wait_all() -> List[str]:
    c_code = f"""
int main() {{
  int i, ok = 1;
  int n = {{{{N}}}};
  int a[{{{{N}}}}], c[{{{{N}}}}], d[{{{{N}}}}];
  for(i=0; i<n; i++){{ a[i]=i; c[i]=-1; d[i]=-1; }}
  #pragma acc data copyin(a[0:n]) copy(c[0:n], d[0:n])
  {{
    #pragma acc parallel loop async(1)
    for(i=0; i<n; i++)
      c[i] = a[i] + 1;
    #pragma acc parallel loop async(2)
    for(i=0; i<n; i++)
      d[i] = a[i] + 2;
    {check("acc_async_wait_all();")}
    #pragma acc update host(c[0:n], d[0:n])
    for(i=0; i<n; i++){{
      if (c[i] != a[i] + 1) ok = 0;
      if (d[i] != a[i] + 2) ok = 0;
    }}
  }}
  return ok;
}}
"""
    f_code = f"""
program test_acc_async_wait_all
  implicit none
  integer :: i, ok, n
  integer :: a({{{{N}}}}), c({{{{N}}}}), d({{{{N}}}})
  n = {{{{N}}}}
  ok = 1
  do i = 1, n
    a(i) = i
    c(i) = -1
    d(i) = -1
  end do
  !$acc data copyin(a(1:n)) copy(c(1:n), d(1:n))
  !$acc parallel loop async(1)
  do i = 1, n
    c(i) = a(i) + 1
  end do
  !$acc end parallel loop
  !$acc parallel loop async(2)
  do i = 1, n
    d(i) = a(i) + 2
  end do
  !$acc end parallel loop
  {check("call acc_async_wait_all()")}
  !$acc update host(c(1:n), d(1:n))
  do i = 1, n
    if (c(i) /= a(i) + 1) ok = 0
    if (d(i) /= a(i) + 2) ok = 0
  end do
  !$acc end data
  main = ok
end program test_acc_async_wait_all
"""
    return _simple_pair(
        "acc_async_wait_all", "runtime.acc_async_wait_all", c_code, f_code,
        "acc_async_wait_all completes work on every queue (two tags here) "
        "before the host fetches both result arrays.",
        deps=("parallel.async", "update.host"),
    )


def _init() -> List[str]:
    c_code = f"""
int main() {{
  int i, error = 0;
  int n = {{{{N}}}};
  int b[{{{{N}}}}];
  acc_init(acc_device_not_host);
  for(i=0; i<n; i++) b[i] = 0;
  #pragma acc parallel loop copy(b[0:n])
  for(i=0; i<n; i++)
    b[i] = i + 1;
  for(i=0; i<n; i++) if (b[i] != i + 1) error++;
  return (error == 0);
}}
"""
    f_code = f"""
program test_acc_init
  implicit none
  integer :: i, err, n
  integer :: b({{{{N}}}})
  call acc_init(acc_device_not_host)
  n = {{{{N}}}}
  err = 0
  do i = 1, n
    b(i) = 0
  end do
  !$acc parallel loop copy(b(1:n))
  do i = 1, n
    b(i) = i + 1
  end do
  !$acc end parallel loop
  do i = 1, n
    if (b(i) /= i + 1) err = err + 1
  end do
  if (err == 0) main = 1
end program test_acc_init
"""
    return _simple_pair(
        "acc_init", "runtime.acc_init", c_code, f_code,
        "Explicit runtime initialisation followed by an offloaded "
        "computation (functional-only: there is no cross to remove).",
        deps=("parallel loop",), crossexpect="same",
    )


def _shutdown() -> List[str]:
    c_code = f"""
int main() {{
  int i, error = 0;
  int n = {{{{N}}}};
  int b[{{{{N}}}}];
  for(i=0; i<n; i++) b[i] = 0;
  #pragma acc parallel loop copy(b[0:n])
  for(i=0; i<n; i++)
    b[i] = i * 2;
  acc_shutdown(acc_device_not_host);
  acc_init(acc_device_not_host);
  #pragma acc parallel loop copy(b[0:n])
  for(i=0; i<n; i++)
    b[i] = b[i] + 1;
  for(i=0; i<n; i++) if (b[i] != i * 2 + 1) error++;
  return (error == 0);
}}
"""
    f_code = f"""
program test_acc_shutdown
  implicit none
  integer :: i, err, n
  integer :: b({{{{N}}}})
  n = {{{{N}}}}
  err = 0
  do i = 1, n
    b(i) = 0
  end do
  !$acc parallel loop copy(b(1:n))
  do i = 1, n
    b(i) = i * 2
  end do
  !$acc end parallel loop
  call acc_shutdown(acc_device_not_host)
  call acc_init(acc_device_not_host)
  !$acc parallel loop copy(b(1:n))
  do i = 1, n
    b(i) = b(i) + 1
  end do
  !$acc end parallel loop
  do i = 1, n
    if (b(i) /= i * 2 + 1) err = err + 1
  end do
  if (err == 0) main = 1
end program test_acc_shutdown
"""
    return _simple_pair(
        "acc_shutdown", "runtime.acc_shutdown", c_code, f_code,
        "The runtime must survive a shutdown/init cycle between two "
        "offloaded computations (Fig. 12 calls acc_shutdown at test end).",
        deps=("runtime.acc_init", "parallel loop"), crossexpect="same",
    )


def _on_device() -> List[str]:
    c_code = """
int main() {
  int ondev = 0, onhost = 0;
  onhost = acc_on_device(acc_device_host);
  <acctv:check>#pragma acc parallel copy(ondev)</acctv:check>
  {
    ondev = acc_on_device(acc_device_not_host);
  }
  return (ondev == 1) && (onhost == 1);
}
"""
    f_code = """
program test_acc_on_device
  implicit none
  integer :: ondev, onhost
  ondev = 0
  onhost = acc_on_device(acc_device_host)
  <acctv:check>!$acc parallel copy(ondev)</acctv:check>
  ondev = acc_on_device(acc_device_not_host)
  <acctv:check>!$acc end parallel</acctv:check>
  if (ondev == 1 .and. onhost == 1) main = 1
end program test_acc_on_device
"""
    return _simple_pair(
        "acc_on_device", "runtime.acc_on_device", c_code, f_code,
        "acc_on_device answers for the executing context: host outside the "
        "region, accelerator inside; removing the region flips the inner "
        "answer.",
        deps=("parallel.copy",),
    )


def _malloc() -> List[str]:
    c_code = f"""
int main() {{
  int i, error = 0;
  int n = {{{{N}}}};
  int out[{{{{N}}}}];
  int *d;
  d = (int*)acc_malloc(n*sizeof(int));
  for(i=0; i<n; i++) out[i] = -1;
  #pragma acc parallel deviceptr(d) copy(out[0:n])
  {{
    #pragma acc loop
    for(i=0; i<n; i++){{
      d[i] = 5*i;
      out[i] = d[i];
    }}
  }}
  acc_free(d);
  for(i=0; i<n; i++) if (out[i] != 5*i) error++;
  return (error == 0);
}}
"""
    f_code = f"""
program test_acc_malloc
  implicit none
  integer :: i, err, n
  integer :: out({{{{N}}}})
  integer :: d(1)
  n = {{{{N}}}}
  err = 0
  d = acc_malloc((n+1)*4)
  do i = 1, n
    out(i) = -1
  end do
  !$acc parallel deviceptr(d) copy(out(1:n))
  !$acc loop
  do i = 1, n
    d(i) = 5*i
    out(i) = d(i)
  end do
  !$acc end parallel
  call acc_free(d)
  do i = 1, n
    if (out(i) /= 5*i) err = err + 1
  end do
  if (err == 0) main = 1
end program test_acc_malloc
"""
    return _simple_pair(
        "acc_malloc", "runtime.acc_malloc", c_code, f_code,
        "acc_malloc memory is usable from kernels through deviceptr "
        "(IV-B5); functional-only, the allocation has no removable "
        "directive.",
        deps=("parallel.deviceptr", "runtime.acc_free"), crossexpect="same",
    )


def _free() -> List[str]:
    c_code = """
int main() {
  int ok = 1;
  int *d1, *d2;
  d1 = (int*)acc_malloc(64*sizeof(int));
  acc_free(d1);
  d2 = (int*)acc_malloc(128*sizeof(int));
  acc_free(d2);
  return ok;
}
"""
    f_code = """
program test_acc_free
  implicit none
  integer :: ok
  integer :: d1(1), d2(1)
  ok = 1
  d1 = acc_malloc(64*4)
  call acc_free(d1)
  d2 = acc_malloc(128*4)
  call acc_free(d2)
  main = ok
end program test_acc_free
"""
    return _simple_pair(
        "acc_free", "runtime.acc_free", c_code, f_code,
        "acc_free releases device heap allocations; repeated alloc/free "
        "cycles must succeed (functional-only).",
        deps=("runtime.acc_malloc",), crossexpect="same",
    )
