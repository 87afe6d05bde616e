"""Property-based tests over the execution model.

Hypothesis generates whole OpenACC programs with randomised geometry
(gang/worker/vector counts, iteration counts, operators) and checks the
execution model's core invariants against Python oracles:

* work-sharing covers every iteration exactly once for any geometry;
* removing work-sharing multiplies effects by exactly the gang count;
* reductions match a sequential fold regardless of distribution;
* data round-trips preserve values for any section;
* the certainty statistic matches its closed form.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import Compiler
from repro.spec.reductions import reduction_combine

CC = Compiler()
_SETTINGS = dict(max_examples=25, deadline=None)


@settings(**_SETTINGS)
@given(
    n=st.integers(1, 60),
    gangs=st.integers(1, 12),
    levels=st.sampled_from(["gang", "gang worker", "gang vector", "worker",
                            "vector"]),
    workers=st.integers(1, 5),
    vlen=st.integers(1, 8),
)
def test_worksharing_covers_exactly_once(n, gangs, levels, workers, vlen):
    """Any gang-led schedule touches each element exactly once; schedules
    without a gang level run once per gang (redundant execution)."""
    src = f"""
int main(){{
  int i, bad = 0;
  int a[{n}];
  for(i=0;i<{n};i++) a[i] = 0;
  #pragma acc parallel num_gangs({gangs}) num_workers({workers}) vector_length({vlen}) copy(a[0:{n}])
  {{
    #pragma acc loop {levels}
    for(i=0;i<{n};i++) a[i]++;
  }}
  for(i=0;i<{n};i++) if (a[i] != {gangs if 'gang' not in levels else 1}) bad++;
  return bad == 0;
}}
"""
    assert CC.compile(src, "c").run().value == 1


@settings(**_SETTINGS)
@given(
    values=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
    op=st.sampled_from(["+", "max", "min"]),
    gangs=st.integers(1, 8),
    v0=st.integers(-10, 10),
)
def test_reduction_matches_sequential_fold(values, op, gangs, v0):
    n = len(values)
    init = " ".join(f"d[{i}] = {v};" for i, v in enumerate(values))
    combine = {
        "+": "s += d[i];",
        "max": "s = (d[i] > s) ? d[i] : s;",
        "min": "s = (d[i] < s) ? d[i] : s;",
    }[op]
    src = f"""
int main(){{
  int i, s = {v0};
  int d[{n}];
  {init}
  #pragma acc parallel loop num_gangs({gangs}) reduction({op}:s) copyin(d[0:{n}])
  for(i=0;i<{n};i++)
    {combine}
  return s;
}}
"""
    expected = v0
    for v in values:
        expected = reduction_combine(op, expected, v)
    result = CC.compile(src, "c").run()
    assert result.value == expected


@settings(**_SETTINGS)
@given(
    n=st.integers(1, 40),
    start=st.integers(0, 10),
    scale=st.integers(1, 9),
)
def test_data_roundtrip_preserves_section(n, start, scale):
    """copy of a section transforms exactly the section, in place."""
    total = n + start + 5
    length = n
    src = f"""
int main(){{
  int i, ok = 1;
  int a[{total}];
  for(i=0;i<{total};i++) a[i] = i;
  #pragma acc parallel loop copy(a[{start}:{length}])
  for(i={start};i<{start + length};i++) a[i] = a[i] * {scale};
  for(i=0;i<{start};i++) if (a[i] != i) ok = 0;
  for(i={start};i<{start + length};i++) if (a[i] != i * {scale}) ok = 0;
  for(i={start + length};i<{total};i++) if (a[i] != i) ok = 0;
  return ok;
}}
"""
    assert CC.compile(src, "c").run().value == 1


@settings(**_SETTINGS)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    gangs=st.integers(1, 5),
)
def test_collapse_covers_product_space(rows, cols, gangs):
    src = f"""
int main(){{
  int i, j, bad = 0;
  int m[{rows}][{cols}];
  for(i=0;i<{rows};i++) for(j=0;j<{cols};j++) m[i][j] = 0;
  #pragma acc parallel num_gangs({gangs}) copy(m)
  {{
    #pragma acc loop collapse(2)
    for(i=0;i<{rows};i++)
      for(j=0;j<{cols};j++)
        m[i][j]++;
  }}
  for(i=0;i<{rows};i++) for(j=0;j<{cols};j++) if (m[i][j] != 1) bad++;
  return bad == 0;
}}
"""
    assert CC.compile(src, "c").run().value == 1


@settings(**_SETTINGS)
@given(
    n=st.integers(1, 30),
    delta=st.integers(1, 100),
    use_fortran=st.booleans(),
)
def test_languages_agree(n, delta, use_fortran):
    """The same computation gives the same result in both frontends."""
    c_src = f"""
int main(){{
  int i, s = 0;
  int a[{n}];
  for(i=0;i<{n};i++) a[i] = i + {delta};
  #pragma acc parallel loop reduction(+:s) copyin(a[0:{n}])
  for(i=0;i<{n};i++) s += a[i];
  return s;
}}
"""
    f_src = f"""
program agree
  implicit none
  integer :: i, s
  integer :: a({n})
  s = 0
  do i = 1, {n}
    a(i) = i - 1 + {delta}
  end do
  !$acc parallel loop reduction(+:s) copyin(a(1:{n}))
  do i = 1, {n}
    s = s + a(i)
  end do
  !$acc end parallel loop
  main = s
end program agree
"""
    c_result = CC.compile(c_src, "c").run().value
    f_result = CC.compile(f_src, "fortran").run().value
    expected = sum(range(n)) + n * delta
    assert c_result == f_result == expected


@settings(**_SETTINGS)
@given(
    gangs=st.integers(1, 10),
    v0=st.integers(-5, 5),
    contribution=st.integers(-5, 5),
)
def test_construct_reduction_linear_in_gangs(gangs, v0, contribution):
    src = f"""
int main(){{
  int x = {v0};
  #pragma acc parallel num_gangs({gangs}) reduction(+:x)
  {{ x = x + {contribution}; }}
  return x;
}}
"""
    result = CC.compile(src, "c").run()
    assert result.value == v0 + gangs * contribution


@settings(**_SETTINGS)
@given(seeds=st.integers(0, 2**31 - 1))
def test_rng_isolated_between_runs(seeds):
    src = "int main(){ return rand() % 97; }"
    program = CC.compile(src, "c")
    assert program.run(rng_seed=seeds).value == program.run(rng_seed=seeds).value


# ---------------------------------------------------------------------------
# the certainty statistic (harness/stats.py, paper Section III)
# ---------------------------------------------------------------------------

from repro.harness.stats import (  # noqa: E402
    accidental_pass_probability,
    certainty,
    cross_fail_probability,
)


@settings(**_SETTINGS)
@given(m=st.integers(1, 10_000))
def test_certainty_boundaries(m):
    """pc(0, M) == 0 (no failed crosses — nothing validated) and
    pc(M, M) == 1 (every cross failed — full confidence), exactly."""
    assert certainty(0, m) == 0.0
    assert certainty(m, m) == 1.0


@settings(**_SETTINGS)
@given(data=st.data(), m=st.integers(2, 2_000))
def test_certainty_monotone_in_nf(data, m):
    """More failed crosses can only raise (never lower) the certainty."""
    nf = data.draw(st.integers(0, m - 1))
    assert certainty(nf, m) <= certainty(nf + 1, m)


@settings(**_SETTINGS)
@given(data=st.data(), m=st.integers(1, 10**6))
def test_certainty_stays_finite_and_bounded(data, m):
    """No overflow/NaN at large M: every statistic stays in [0, 1] and
    pa + pc reconstructs to 1 within float addition."""
    import math

    nf = data.draw(st.integers(0, m))
    p = cross_fail_probability(nf, m)
    pa = accidental_pass_probability(nf, m)
    pc = certainty(nf, m)
    for value in (p, pa, pc):
        assert math.isfinite(value)
        assert 0.0 <= value <= 1.0
    assert pa + pc == pytest.approx(1.0)


@settings(**_SETTINGS)
@given(data=st.data(), m=st.integers(1, 5_000))
def test_certainty_matches_closed_form(data, m):
    """pc = 1 - (1 - nf/M)^M, straight from the paper's formula."""
    nf = data.draw(st.integers(0, m))
    assert certainty(nf, m) == pytest.approx(1.0 - (1.0 - nf / m) ** m)


def test_stats_reject_invalid_counts():
    with pytest.raises(ValueError):
        cross_fail_probability(1, 0)
    with pytest.raises(ValueError):
        cross_fail_probability(-1, 10)
    with pytest.raises(ValueError):
        cross_fail_probability(11, 10)
