/**
 * @file
 * The TPRE_CHECK compile-time switch for internal invariant
 * checking. When the build defines TPRE_CHECK=1 (the default, see
 * the top-level CMakeLists option), simulator hot paths run the
 * tpre::check invariant checkers at well-chosen choke points (trace
 * completion, trace-cache insertion, preconstruction emission,
 * end-of-run statistics). The per-trace checkers check every trace
 * in full, cheaply: an accept pass with no branch per slot, and a
 * message only after a rejection. They still cost fig5 about 14%
 * of its throughput (DESIGN.md section 8); configure with
 * -DTPRE_CHECK=OFF for maximum-speed measurement runs.
 *
 * The checker *functions* (check/invariants.hh, check/stats_check.hh)
 * are always compiled into the library so tests and the fuzz driver
 * can call them regardless of the macro; TPRE_CHECK only gates the
 * inline call sites inside the simulators.
 */

#ifndef TPRE_CHECK_CHECK_HH
#define TPRE_CHECK_CHECK_HH

#ifndef TPRE_CHECK
#define TPRE_CHECK 0
#endif

#if TPRE_CHECK
/** Run @p stmt only in checking builds. */
#define tpre_check_run(stmt)                                            \
    do {                                                                \
        stmt;                                                           \
    } while (0)
#else
#define tpre_check_run(stmt) ((void)0)
#endif

#endif // TPRE_CHECK_CHECK_HH
