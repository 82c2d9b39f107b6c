/* Per-process timer slack for the node's event loop (DESIGN.md §15.4).
   Linux lets every select(2) timeout expire up to the thread's timer
   slack late (50 us by default); a slack of 1 ns makes the node's
   deadlines fire when they are due. A no-op on other systems. */

#include <caml/mlvalues.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

value ocube_set_min_timer_slack(value unit)
{
  (void)unit;
#ifdef __linux__
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  return Val_unit;
}
