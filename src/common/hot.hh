/**
 * @file
 * E3_HOT — the hot-path annotation.
 *
 * Marks a function as part of the per-step inference surface: the code
 * that runs once per environment step per lane in steady state
 * (network activation, env stepping, action decode, the serve batch
 * evaluate). It is a code generation hint only: the compiler sees
 * `__attribute__((hot))` and optimizes placement and inlining
 * accordingly. Put it on the out-of-line definition, next to the
 * return type.
 *
 * The steady-state steps of that surface must not allocate: buffers
 * are sized during compile/setup, since one malloc per step is a
 * latency spike on the edge target and a throughput bug under load.
 * tests/test_rollout_alloc.cc guards that by counting operator new
 * around warmed env steps, activations in every value mode and whole
 * rollouts, callees included.
 */

#ifndef E3_COMMON_HOT_HH
#define E3_COMMON_HOT_HH

#if defined(__GNUC__) || defined(__clang__)
#define E3_HOT __attribute__((hot))
#else
#define E3_HOT
#endif

#endif // E3_COMMON_HOT_HH
