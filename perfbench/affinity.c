/* CPU placement for the yardstick process (see perfbench.ml): it takes
   each reading on the CPU the harness last ran on.  Elsewhere than on
   Linux both calls do nothing. */
#define _GNU_SOURCE
#include <caml/mlvalues.h>
#ifdef __linux__
#include <sched.h>
#endif

value perfbench_current_cpu(value unit)
{
  (void)unit;
#ifdef __linux__
  return Val_int(sched_getcpu());
#else
  return Val_int(-1);
#endif
}

value perfbench_pin_cpu(value cpu)
{
#ifdef __linux__
  cpu_set_t set;
  if (Int_val(cpu) < 0) return Val_false;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
#else
  (void)cpu;
  return Val_false;
#endif
}
