package parallel

import "syscall"

// osYield gives the rest of this thread's time slice to another
// runnable thread on the same CPU, if there is one.
func osYield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
